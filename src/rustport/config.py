"""Run configuration: defaults, config-file overrides, then CLI flags."""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Optional, Union, get_args, get_origin, get_type_hints

from .errors import RustportError


@dataclass
class RunConfig:
    trace_path: Optional[str] = None
    kb_path: Optional[str] = None
    backend: str = "oracle"
    endpoint: Optional[str] = None
    model: Optional[str] = None
    auth_env: str = "RUSTPORT_API_TOKEN"
    retrieval_depth: int = 5
    repair_budget: int = 5
    jobs: int = 1
    run_id: Optional[str] = None
    crate_name: Optional[str] = None
    strict_holes: bool = True
    test_command: Optional[list[str]] = None
    rust_tests_dir: Optional[str] = None
    oracle_bodies: Optional[str] = None
    replay_dir: Optional[str] = None
    script_file: Optional[str] = None
    preprocessor: list[str] = field(default_factory=lambda: ["gcc", "-E"])
    preprocessor_flags: list[str] = field(default_factory=list)

    def validate(self) -> None:
        if self.retrieval_depth < 0:
            raise RustportError("retrieval depth k must be >= 0")
        if self.repair_budget < 0:
            raise RustportError("repair budget must be >= 0")
        if self.jobs < 1:
            raise RustportError("jobs must be >= 1")


def read_json_object(path, what: str) -> dict:
    """The JSON object in the file at ``path``. A missing, unreadable or
    malformed file is a domain error naming it as ``what``."""
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
    except OSError as exc:
        raise RustportError(f"cannot read {what} {path}: {exc.strerror or exc}") from None
    except ValueError as exc:
        raise RustportError(f"{what} {path} is not valid JSON: {exc}") from None
    if not isinstance(data, dict):
        raise RustportError(f"{what} {path} must hold a JSON object")
    return data


def load_config(path: Optional[str]) -> RunConfig:
    config = RunConfig()
    if path is None:
        return config
    data = read_json_object(path, "config file")
    hints = get_type_hints(RunConfig)
    declared = {f.name: f.type for f in fields(RunConfig)}
    for key, value in data.items():
        if key not in declared:
            raise RustportError(f"unknown config key: {key!r}")
        if not _has_type(value, hints[key]):
            raise RustportError(
                f"config key {key!r} must be {declared[key]}, not {type(value).__name__}"
            )
        setattr(config, key, value)
    return config


def _has_type(value, hint) -> bool:
    """Whether a JSON value fits a field's annotation (``bool`` is no ``int``)."""
    if get_origin(hint) is Union:
        return any(_has_type(value, arg) for arg in get_args(hint))
    if get_origin(hint) is list:
        (item,) = get_args(hint)
        return isinstance(value, list) and all(_has_type(v, item) for v in value)
    if hint is int and isinstance(value, bool):
        return False
    return isinstance(value, hint)


def apply_flag_overrides(config: RunConfig, args) -> RunConfig:
    """CLI flags win over config-file values when explicitly provided; each
    flag's argparse ``dest`` is the name of the field it sets."""
    for f in fields(RunConfig):
        value = getattr(args, f.name, None)
        if value is not None:
            setattr(config, f.name, value)
    config.validate()
    return config
