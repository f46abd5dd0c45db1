"""Seeded input generators for the migration benchmark.

Each generator writes a small C project (sources, headers and a
``compile_commands.json`` build trace) plus the backend inputs the toolkit
reads from disk (oracle bodies or a scripted-backend file, and KB files), and
returns the outcome every function must reach. The same workload name and seed
always give byte-identical files at a given destination.

The outcome mix of every workload is fixed; the seed only picks names,
constants and which function lands in which outcome class, so counts such as
backend calls and ICompRate do not move from seed to seed.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from pathlib import Path

KB_FORMAT_HEADER = {"format": "rustport-kb", "version": 1}

LIBC_HEADERS = ("stdio.h", "stdlib.h", "string.h", "stdint.h", "errno.h")

# C host interface -> Rust method; the kb_accumulate oracle swaps one such
# call per function, so every accepted body mines an API rule.
HOST_OPS = {
    "host_add": "wrapping_add",
    "host_sub": "wrapping_sub",
    "host_mul": "wrapping_mul",
    "host_max": "max",
    "host_min": "min",
    "host_shl": "wrapping_shl",
    "host_rotl": "rotate_left",
    "host_pow": "wrapping_pow",
}
# operations whose second operand is a u32 in Rust
_U32_RHS = {"wrapping_shl", "rotate_left", "wrapping_pow"}


@dataclass
class Expected:
    state: str  # translated | fallback
    rounds: int
    body: str | None = None  # exact final body, checked when translated


@dataclass
class Workload:
    project: Path
    trace: Path
    crate: str
    backend: str  # oracle | script
    backend_file: Path
    expected: dict[str, Expected]
    kb_dir: Path | None = None
    rust_tests: bool = False
    expected_icomp: float = 100.0
    expected_translated_pct: float = 100.0
    expected_fc: float | None = None


def _write(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text, encoding="utf-8")


def _write_trace(project: Path, sources: list[str]) -> Path:
    entries = [
        {"directory": str(project), "file": rel, "arguments": ["cc", "-Iinc", "-c", rel]}
        for rel in sources
    ]
    trace = project / "compile_commands.json"
    _write(trace, json.dumps(entries, indent=2) + "\n")
    return trace


def _json(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _pct(part: int, whole: int) -> float:
    return 100.0 * part / whole


# --- chain: one function per schedule layer -------------------------------------


def chain(seed: int, dest: Path, units: int = 7, per_unit: int = 8) -> Workload:
    """A call chain: every function calls the previous one, so each schedule
    layer holds exactly one function and the run is one build per function in
    series. The first function of every unit takes a pointer (an unsafe
    dereference in Rust) and the fifth keeps a needless ``mut`` (a warning)."""
    rng = random.Random(f"chain:{seed}")
    project = dest / "cproj"
    names = [(u, i, f"stage{u}_fn{i}") for u in range(units) for i in range(per_unit)]
    header = ["#ifndef CHAIN_H", "#define CHAIN_H", "struct acc_t { int total; int steps; };"]
    for u, i, name in names:
        param = "const int *p" if i == 0 else "int v"
        header.append(f"int {name}({param});")
    header.append("#endif")
    _write(project / "inc" / "chain.h", "\n".join(header) + "\n")

    bodies: dict[str, str] = {}
    expected: dict[str, Expected] = {}
    total = 0
    sources = []
    prev: tuple[str, str, bool] | None = None  # (name, module, takes pointer)
    for u in range(units):
        module = f"crate::part{u}::unit"
        lines = ['#include "chain.h"', ""]
        for i in range(per_unit):
            name = f"stage{u}_fn{i}"
            k = rng.randint(1, 9)
            total += k
            pointer = i == 0
            param = "const int *p" if pointer else "int v"
            if prev is None:
                c_inner = r_inner = "*p"
            else:
                pname, pmodule, prev_ptr = prev
                call = pname if pmodule == module else f"{pmodule}::{pname}"
                if prev_ptr:
                    arg = "p" if pointer else "&v"
                else:
                    arg = "*p" if pointer else "v"
                c_inner, r_inner = f"{pname}({arg})", f"{call}({arg})"
            if i == 4:
                c_body = f"    int acc = {c_inner};\n    return acc + {k};"
                body = f"let mut acc = {r_inner};\nacc + {k}"
            else:
                c_body = f"    return {c_inner} + {k};"
                body = f"{r_inner} + {k}"
                if "*p" in body:
                    body = f"unsafe {{ {body} }}"
            lines.append(f"int {name}({param})\n{{\n{c_body}\n}}\n")
            fn_id = f"{module}::{name}"
            bodies[fn_id] = body
            expected[fn_id] = Expected("translated", 0, body)
            prev = (name, module, pointer)
        rel = f"part{u}/unit.c"
        _write(project / rel, "\n".join(lines))
        sources.append(rel)

    last = f"crate::part{units - 1}::unit::stage{units - 1}_fn{per_unit - 1}"
    crate = "chain_bench"
    probes = sorted(rng.sample(range(-50, 50), 4))
    asserts = "\n".join(
        f"    assert_eq!({crate}{last[len('crate'):]}({x}), {x + total});" for x in probes
    )
    _write(
        project / "rust_tests" / "chain.rs",
        f"#[test]\nfn chain_adds_every_stage() {{\n{asserts}\n}}\n"
    )
    trace = _write_trace(project, sources)
    backend_file = dest / "oracle_bodies.json"
    _write(backend_file, _json(bodies))
    return Workload(
        project=project, trace=trace, crate=crate,
        backend="oracle", backend_file=backend_file, expected=expected,
        rust_tests=True, expected_fc=100.0,
    )


# --- wide_repair: one wide layer with a fixed mix of repair outcomes ------------


_WIDE_TEMPLATES = (
    # (C return expression, Rust body)
    ("a * {k} + b", "a * {k} + b"),
    ("(a ^ b) + {k}", "(a ^ b) + {k}"),
    ("a > b ? a - b : b - a + {k}", "if a > b {{ a - b }} else {{ b - a + {k} }}"),
    ("(a & 255) | (b << 1)", "(a & 255) | (b << 1)"),
)


def wide_repair(seed: int, dest: Path, units: int = 16, per_unit: int = 5) -> Workload:
    """One schedule layer of independent functions, every unit including the
    libc headers. A scripted backend drives a fixed outcome mix: most bodies
    compile first time, 8 carry an integer-width mismatch the rule fix
    repairs, 4 need one and 4 need two model-repair rounds, 4 never compile,
    and 1 is a syntax error sharing its file with four good bodies; the last
    five fall back after the default budget of 5 rounds. Five good bodies
    keep a needless ``mut`` (a warning); the fallback shims are unsafe."""
    rng = random.Random(f"wide_repair:{seed}")
    project = dest / "cproj"

    fns = [(u, i) for u in range(units) for i in range(per_unit)]
    syntax = rng.choice(fns)
    pool = [f for f in fns if f[0] != syntax[0]]
    rng.shuffle(pool)
    classes: dict[tuple[int, int], str] = {syntax: "syntax"}
    plan = [("rule_fix", 8), ("repair1", 4), ("repair2", 4), ("never", 4), ("unused_mut", 5)]
    for cls, count in plan:
        for _ in range(count):
            classes[pool.pop()] = cls

    failures: dict[str, int | None] = {}
    bodies: dict[str, str] = {}
    expected: dict[str, Expected] = {}
    sources = []
    for u in range(units):
        module = f"crate::lib{u:02d}::ops"
        lines = [f"#include <{h}>" for h in LIBC_HEADERS] + [""]
        for i in range(per_unit):
            name = f"w{u:02d}_op{i}"
            fn_id = f"{module}::{name}"
            k = rng.randint(2, 97)
            c_tpl, rust_tpl = rng.choice(_WIDE_TEMPLATES)
            c_expr = c_tpl.format(k=k)
            body = rust_tpl.format(k=k)
            lines.append(f"int {name}(int a, int b)\n{{\n    return {c_expr};\n}}\n")
            cls = classes.get((u, i), "good")
            if cls == "rule_fix":
                # returns i64 where the signature says i32: the E0308 rule
                # fix casts the tail expression and the fix compiles
                bodies[fn_id] = f"let wide: i64 = (a as i64) * {k} + b as i64;\nwide"
                expected[fn_id] = Expected(
                    "translated", 0, f"let wide: i64 = (a as i64) * {k} + b as i64;\n(wide) as i32"
                )
            elif cls in ("repair1", "repair2"):
                rounds = 1 if cls == "repair1" else 2
                failures[fn_id] = rounds
                bodies[fn_id] = body
                expected[fn_id] = Expected("translated", rounds, body)
            elif cls == "never":
                failures[fn_id] = None
                bodies[fn_id] = body
                expected[fn_id] = Expected("fallback", 5)
            elif cls == "syntax":
                bodies[fn_id] = f"let x = a +* {k};\nx + b"
                expected[fn_id] = Expected("fallback", 5)
            elif cls == "unused_mut":
                bodies[fn_id] = f"let mut r = {body};\nr"
                expected[fn_id] = Expected("translated", 0, bodies[fn_id])
            else:
                bodies[fn_id] = body
                expected[fn_id] = Expected("translated", 0, body)
        rel = f"lib{u:02d}/ops.c"
        _write(project / rel, "\n".join(lines))
        sources.append(rel)

    trace = _write_trace(project, sources)
    backend_file = dest / "script.json"
    _write(backend_file, _json({"failures": failures, "bodies": bodies}))
    n = len(fns)
    translated = sum(1 for e in expected.values() if e.state == "translated")
    return Workload(
        project=project, trace=trace, crate="wide_bench",
        backend="script", backend_file=backend_file, expected=expected,
        expected_icomp=_pct(translated, n), expected_translated_pct=_pct(translated, n),
    )


# --- kb_accumulate: retrieval over a large KB plus accumulation -------------------


_KB_WORDS = (
    "buf", "node", "list", "hash", "crc", "queue", "tree", "page", "slot", "ring",
    "key", "row", "cell", "span", "frame", "word", "byte", "bit", "chunk", "block",
)
_KB_VERBS = (
    "fold", "mix", "scan", "pack", "seal", "trim", "bump", "pick", "grow", "load",
)


def _kb_interfaces(rng: random.Random) -> list[tuple[str, str]]:
    """C interface -> Rust method pairs the generated history migrated."""
    pairs = list(HOST_OPS.items())
    for word in _KB_WORDS:
        for verb in _KB_VERBS:
            if rng.random() < 0.5:
                pairs.append((f"lib_{word}_{verb}", f"{verb}_{word}"))
    return pairs


def _kb_history(rng: random.Random, n_pairs: int) -> tuple[list[dict], list[dict], list[dict]]:
    """Aligned pairs of an earlier migration, with the rules mined from them."""
    interfaces = _kb_interfaces(rng)
    pairs: list[dict] = []
    api: dict[tuple[str, str], dict] = {}
    frags: dict[tuple[str, str], dict] = {}
    for n in range(n_pairs):
        word = rng.choice(_KB_WORDS)
        name = f"{word}_{rng.choice(_KB_VERBS)}_{n}"
        calls = rng.sample(interfaces, rng.randint(2, 4))
        guard = rng.random() < 0.3
        note = " ".join(rng.choice(_KB_WORDS + _KB_VERBS) for _ in range(6))
        c_lines = [f"/* {note} */", f"int {name}(int v)", "{"]
        r_lines = [f"/// {note}", f"pub fn {name}(v: i32) -> i32 {{"]
        if guard:
            c_lines.append("    assert(v >= 0);")
            r_lines.append("    debug_assert!(v >= 0);")
        c_lines.append("    int t = v;")
        r_lines.append("    let mut t = v;")
        for c_iface, r_iface in calls:
            k = rng.randint(1, 31)
            c_lines.append(f"    t = {c_iface}(t, {k});")
            r_lines.append(f"    t = t.{r_iface}({k});")
        c_lines += ["    return t;", "}"]
        r_lines += ["    t", "}"]
        c_source, rust_source = "\n".join(c_lines), "\n".join(r_lines)
        pair_id = hashlib.sha256((c_source + "\x00" + rust_source).encode("utf-8")).hexdigest()[:16]
        pairs.append({
            "c_name": name, "c_source": c_source, "rust_name": name,
            "rust_source": rust_source, "c_file": f"src/{word}.c",
            "rust_file": f"src/{word}.rs", "rerank_score": 0.0, "commit": None,
        })
        for c_iface, r_iface in calls:
            rule = api.setdefault((c_iface, r_iface), {
                "c_interface": c_iface, "rust_interface": r_iface, "support": 0, "provenance": [],
            })
            rule["support"] += 1
            rule["provenance"].append(pair_id)
        if guard:
            key = ("assert(v >= 0);", "debug_assert!(v >= 0);")
            rule = frags.setdefault(key, {
                "c_idiom": key[0], "rust_idiom": key[1],
                "hint": "use the debug_assert! idiom", "support": 0, "provenance": [],
            })
            rule["support"] += 1
            rule["provenance"].append(pair_id)
    return pairs, list(api.values()), list(frags.values())


def _jsonl(records: list[dict]) -> str:
    lines = [json.dumps(KB_FORMAT_HEADER)] + [json.dumps(r, sort_keys=True) for r in records]
    return "\n".join(lines) + "\n"


def kb_accumulate(
    seed: int, dest: Path, layers: int = 4, per_layer: int = 9, kb_pairs: int = 1500
) -> Workload:
    """Four schedule layers of nine functions over a KB of earlier migrations.

    Each function calls one host interface from a small header, and its oracle
    body swaps that call for the Rust method the KB maps it to, so every
    accumulate mines an API rule and rewrites the rule files."""
    rng = random.Random(f"kb_accumulate:{seed}")
    project = dest / "cproj"
    host = ["#ifndef HOST_H", "#define HOST_H"]
    host += [f"int {c}(int x, int k);" for c in HOST_OPS]
    host.append("#endif")
    _write(project / "inc" / "host.h", "\n".join(host) + "\n")

    ops = list(HOST_OPS.items())
    bodies: dict[str, str] = {}
    expected: dict[str, Expected] = {}
    sources = []
    proto = []
    for layer in range(layers):
        for i in range(per_layer):
            param = "const int *p" if (layer == 0 and i == per_layer - 1) else "int v"
            proto.append(f"int kb{layer}_f{i}({param});")
    _write(project / "inc" / "kbfns.h", "#ifndef KBFNS_H\n#define KBFNS_H\n" + "\n".join(proto) + "\n#endif\n")

    for layer in range(layers):
        module = f"crate::layer{layer}::kb"
        lines = ['#include "host.h"', '#include "kbfns.h"', ""]
        for i in range(per_layer):
            name = f"kb{layer}_f{i}"
            c_op, r_op = rng.choice(ops)
            k = rng.randint(1, 7) if r_op in _U32_RHS else rng.randint(1, 99)
            pointer = layer == 0 and i == per_layer - 1
            param = "const int *p" if pointer else "int v"
            if layer == 0:
                c_arg, r_recv = ("*p", "(*p)") if pointer else ("v", "v")
            else:
                callee = f"kb{layer - 1}_f{i}"
                passes_ptr = layer - 1 == 0 and i == per_layer - 1
                arg = "&v" if passes_ptr else "v"
                c_arg = f"{callee}({arg})"
                r_recv = f"crate::layer{layer - 1}::kb::{callee}({arg})"
            if i == 4:
                c_body = f"    int t = {c_op}({c_arg}, {k});\n    return t;"
                body = f"let mut t = {r_recv}.{r_op}({k});\nt"
            else:
                c_body = f"    return {c_op}({c_arg}, {k});"
                body = f"{r_recv}.{r_op}({k})"
                if pointer:
                    body = f"unsafe {{ {body} }}"
            lines.append(f"int {name}({param})\n{{\n{c_body}\n}}\n")
            fn_id = f"{module}::{name}"
            bodies[fn_id] = body
            expected[fn_id] = Expected("translated", 0, body)
        rel = f"layer{layer}/kb.c"
        _write(project / rel, "\n".join(lines))
        sources.append(rel)

    trace = _write_trace(project, sources)
    backend_file = dest / "oracle_bodies.json"
    _write(backend_file, _json(bodies))
    kb_dir = dest / "kb"
    pairs, api, frags = _kb_history(rng, kb_pairs)
    _write(kb_dir / "pairs.jsonl", _jsonl(pairs))
    _write(kb_dir / "api_rules.jsonl", _jsonl(api))
    _write(kb_dir / "fragment_rules.jsonl", _jsonl(frags))
    return Workload(
        project=project, trace=trace, crate="kb_bench",
        backend="oracle", backend_file=backend_file, expected=expected, kb_dir=kb_dir,
    )


GENERATORS = {"chain": chain, "wide_repair": wide_repair, "kb_accumulate": kb_accumulate}


def generate(name: str, seed: int, dest: Path) -> Workload:
    return GENERATORS[name](seed, Path(dest))
