"""Generation backends: a remote chat-style wire protocol plus deterministic
local backends (replay, oracle, scripted-failure) for hermetic tests.

Replay fixtures are keyed by a digest of the normalized prompt text only, so
they survive refactors that do not change prompts. A replay miss is a hard
error: hermetic tests must never fall through to a live service.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import threading
import time
import urllib.error
import urllib.request
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

from .errors import BackendError

logger = logging.getLogger(__name__)

MAX_OUTPUT_TOKENS = 8192  # the output cap sent with every remote request
REMOTE_MAX_INFLIGHT = 4  # concurrent requests one RemoteBackend lets through
REMOTE_MAX_ATTEMPTS = 3  # tries per request before it ends as an error
REMOTE_BACKOFF_BASE = 0.5  # seconds before the first retry, doubling after
REMOTE_TIMEOUT = 120.0  # seconds one HTTP request may take
# decoding parameters sent with every remote request: greedy decoding
REMOTE_TEMPERATURE = 0.0
REMOTE_TOP_P = 1.0


@dataclass
class GenerationRequest:
    system: str
    user: str
    tag: str = ""  # "<function id>#<attempt number>"

    def render(self) -> str:
        """The prompt as one text, as a run saves it."""
        return self.system + "\n\n" + self.user

    @property
    def function_id(self) -> str:
        return self.tag.rsplit("#", 1)[0] if self.tag else ""


@dataclass
class GenerationResponse:
    text: str
    finish_reason: str  # complete | length | error
    latency: float = 0.0
    backend_id: str = ""


def request_digest(req: GenerationRequest) -> str:
    """Digest of the normalized prompt text only (no decoding params)."""
    normalized = "\n".join(
        line.rstrip() for line in (req.system + "\n\x00\n" + req.user).splitlines()
    )
    return hashlib.sha256(normalized.encode("utf-8")).hexdigest()


class ReplayBackend:
    """Returns canned responses from a directory of digest-named text files."""

    def __init__(self, fixture_dir):
        self.fixture_dir = Path(fixture_dir)

    def generate(self, req: GenerationRequest) -> GenerationResponse:
        digest = request_digest(req)
        path = self.fixture_dir / f"{digest}.txt"
        if not path.is_file():
            raise BackendError(
                f"replay miss: no fixture {path.name} for request {req.tag!r} "
                "(hermetic runs must not fall through)"
            )
        return GenerationResponse(
            text=path.read_text(encoding="utf-8"),
            finish_reason="complete",
            backend_id="replay",
        )

    def record(self, req: GenerationRequest, text: str) -> Path:
        self.fixture_dir.mkdir(parents=True, exist_ok=True)
        path = self.fixture_dir / f"{request_digest(req)}.txt"
        path.write_text(text, encoding="utf-8")
        return path


class OracleBackend:
    """Returns a fixture-supplied correct body for the tagged function."""

    def __init__(self, bodies: dict[str, str]):
        self.bodies = dict(bodies)

    @classmethod
    def from_file(cls, path) -> "OracleBackend":
        return cls(json.loads(Path(path).read_text(encoding="utf-8")))

    def generate(self, req: GenerationRequest) -> GenerationResponse:
        fn = req.function_id
        if fn not in self.bodies:
            raise BackendError(f"oracle has no body for function {fn!r}")
        return GenerationResponse(
            text=self.bodies[fn], finish_reason="complete", backend_id="oracle"
        )


class ScriptedFailureBackend:
    """Returns invalid bodies for the first r attempts of a function, then a
    valid one. ``failures[fn] = None`` means the function never succeeds.

    When ``unlock_substring`` is set and appears in the user prompt, the valid
    body is returned immediately regardless of the remaining script; this
    models guidance that resolves the failure up front.
    """

    DEFAULT_INVALID = "__rustport_scripted_failure__()"

    def __init__(
        self,
        failures: dict[str, Optional[int]],
        bodies: dict[str, str],
        invalid_body: str = DEFAULT_INVALID,
        unlock_substring: Optional[str] = None,
    ):
        self.failures = dict(failures)
        self.bodies = dict(bodies)
        self.invalid_body = invalid_body
        self.unlock_substring = unlock_substring
        self.attempts: dict[str, int] = {}
        self._lock = threading.Lock()

    def generate(self, req: GenerationRequest) -> GenerationResponse:
        fn = req.function_id
        with self._lock:
            self.attempts[fn] = self.attempts.get(fn, 0) + 1
            attempt = self.attempts[fn]
        if self.unlock_substring and self.unlock_substring in req.user:
            return self._valid(fn)
        budget = self.failures.get(fn, 0)
        if budget is None or attempt <= budget:
            return GenerationResponse(
                text=self.invalid_body, finish_reason="complete", backend_id="script"
            )
        return self._valid(fn)

    def _valid(self, fn: str) -> GenerationResponse:
        if fn not in self.bodies:
            raise BackendError(f"scripted backend has no valid body for {fn!r}")
        return GenerationResponse(
            text=self.bodies[fn], finish_reason="complete", backend_id="script"
        )


class RemoteBackend:
    """Chat-completions HTTP backend with bounded retry and backoff."""

    def __init__(
        self,
        endpoint: str,
        model: str,
        auth_env: str = "RUSTPORT_API_TOKEN",
    ):
        self.endpoint = endpoint
        self.model = model
        self.auth_env = auth_env
        self._gate = threading.Semaphore(REMOTE_MAX_INFLIGHT)

    def generate(self, req: GenerationRequest) -> GenerationResponse:
        body = {
            "model": self.model,
            "messages": [
                {"role": "system", "content": req.system},
                {"role": "user", "content": req.user},
            ],
            "temperature": REMOTE_TEMPERATURE,
            "top_p": REMOTE_TOP_P,
            "max_tokens": MAX_OUTPUT_TOKENS,
        }
        payload = json.dumps(body).encode("utf-8")
        headers = {"Content-Type": "application/json"}
        token = os.environ.get(self.auth_env, "")
        if token:
            headers["Authorization"] = f"Bearer {token}"

        start = time.monotonic()
        last_error = "unknown"
        with self._gate:
            for attempt in range(1, REMOTE_MAX_ATTEMPTS + 1):
                try:
                    request = urllib.request.Request(
                        self.endpoint, data=payload, headers=headers, method="POST"
                    )
                    with urllib.request.urlopen(request, timeout=REMOTE_TIMEOUT) as resp:
                        data = json.loads(resp.read().decode("utf-8"))
                    choice = data["choices"][0]
                    text = choice["message"]["content"]
                    finish = choice.get("finish_reason", "stop")
                    return GenerationResponse(
                        text=text,
                        finish_reason="length" if finish == "length" else "complete",
                        latency=time.monotonic() - start,
                        backend_id=f"remote:{self.model}",
                    )
                except (urllib.error.URLError, urllib.error.HTTPError, KeyError, ValueError) as exc:
                    last_error = str(exc)
                    logger.warning(
                        "remote backend attempt %d/%d failed: %s",
                        attempt, REMOTE_MAX_ATTEMPTS, exc,
                    )
                    if attempt < REMOTE_MAX_ATTEMPTS:
                        time.sleep(REMOTE_BACKOFF_BASE * (2 ** (attempt - 1)))
        return GenerationResponse(
            text="",
            finish_reason="error",
            latency=time.monotonic() - start,
            backend_id=f"remote:{self.model} ({last_error})",
        )
