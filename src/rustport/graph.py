"""Skeleton graph: global symbol index, dependency edges, and scheduling.

The graph's edges are the one resolution of each function's references:
scheduling reads its call edges, and context assembly reads all of its
out-edges, so ``graph.json`` names exactly what a prompt shows. Function-call
edges drive the bottom-up translation order; type and symbol reference edges
never constrain scheduling, since all declarations already exist in the
skeleton. Mutually recursive functions go wholly into the final layer and are
translated against each other's placeholder signatures.
"""

from __future__ import annotations

import json
import logging
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator, Optional

from .errors import DuplicateDefinitionError
from .skeleton import FunctionStub, SkeletonProject

logger = logging.getLogger(__name__)

_IDENT = re.compile(r"[A-Za-z_]\w*")

PENDING = "pending"
TRANSLATED = "translated"
FALLBACK = "fallback"


@dataclass
class IndexEntry:
    module: str
    kind: str  # function | type | static | constant
    bare_name: str  # the name in C, which references carry
    path: str = ""  # the real Rust path (keys may be disambiguated)


@dataclass
class GlobalSymbolIndex:
    # index key (usually the qualified Rust path) -> entry
    entries: dict[str, IndexEntry] = field(default_factory=dict)
    # C name -> index keys defining it
    by_bare: dict[str, list[str]] = field(default_factory=dict)

    def add(self, qualified: str, entry: IndexEntry) -> None:
        if not entry.path:
            entry.path = qualified
        key = qualified
        if key in self.entries:
            existing = self.entries[key]
            # C and Rust both separate the type and value namespaces, so a
            # type may legally share a name with a function/static
            if ("type" in (existing.kind, entry.kind)) and existing.kind != entry.kind:
                key = f"{qualified}#type" if entry.kind == "type" else f"{qualified}#value"
            else:
                raise DuplicateDefinitionError(
                    f"duplicate definition of {qualified} "
                    f"(in {existing.module} and {entry.module})"
                )
        if key in self.entries:
            raise DuplicateDefinitionError(f"duplicate definition of {qualified}")
        self.entries[key] = entry
        self.by_bare.setdefault(entry.bare_name, []).append(key)

    def resolve(self, bare: str, from_module: str, kind: Optional[str] = None) -> Optional[str]:
        """C-name resolution: same module first, then a unique global match."""
        return self._pick(
            [q for q in self.by_bare.get(bare, []) if kind is None or self.entries[q].kind == kind],
            from_module,
        )

    def resolve_rust(self, ident: str, from_module: str) -> Optional[str]:
        """The same for a name as rustc reports it, the last segment of a
        Rust path (``self_`` for C's ``self``)."""
        return self._pick(
            [q for q, e in self.entries.items() if e.path.rsplit("::", 1)[1] == ident],
            from_module,
        )

    def _pick(self, candidates: list[str], from_module: str) -> Optional[str]:
        local = [q for q in candidates if self.entries[q].module == from_module]
        if local:
            return local[0]
        if len(candidates) == 1:
            return candidates[0]
        return None

    def path_of(self, key: str) -> str:
        return self.entries[key].path


def build_symbol_index(skeleton: SkeletonProject) -> GlobalSymbolIndex:
    """Index every stub, type, static, and constant under its C name, the name
    C references carry (a keyword-named ``use`` lives at ``r#use``);
    duplicates are errors.

    Internal-linkage duplicates are fine (distinct qualified names); two
    externally-linked definitions of one bare name are a construction error.
    """
    index = GlobalSymbolIndex()
    external_seen: dict[str, str] = {}
    for stub in skeleton.stubs:
        index.add(
            stub.qualified_name,
            IndexEntry(module=stub.module, kind="function", bare_name=stub.origin.name),
        )
        if stub.origin.storage == "external":
            bare = stub.origin.name
            if bare in external_seen:
                raise DuplicateDefinitionError(
                    f"externally-linked '{bare}' defined in both "
                    f"{external_seen[bare]} and {stub.module}"
                )
            external_seen[bare] = stub.module
    for t in skeleton.types:
        index.add(
            f"{t.module}::{t.name}",
            IndexEntry(module=t.module, kind="type", bare_name=t.origin.name),
        )
    for s in skeleton.statics:
        index.add(
            f"{s.module}::{s.name}",
            IndexEntry(module=s.module, kind="static", bare_name=s.origin.name),
        )
    for c in skeleton.constants:
        index.add(
            f"{c.module}::{c.name}",
            IndexEntry(module=c.module, kind="constant", bare_name=c.c_name),
        )
    return index


@dataclass
class GraphNode:
    node_id: str
    kind: str  # function | type | static | constant | boundary
    module: str = ""
    state: str = PENDING
    path: str = ""  # the Rust path; empty for a boundary node


@dataclass
class SkeletonGraph:
    nodes: dict[str, GraphNode] = field(default_factory=dict)
    call_edges: set[tuple[str, str]] = field(default_factory=set)
    symbol_edges: set[tuple[str, str]] = field(default_factory=set)

    def function_nodes(self) -> list[str]:
        return sorted(n.node_id for n in self.nodes.values() if n.kind == "function")

    def mark(self, node_id: str, state: str) -> None:
        node = self.nodes[node_id]
        if node.state != PENDING and state != node.state:
            raise ValueError(f"node {node_id} already {node.state}; cannot become {state}")
        node.state = state


def build_graph(
    index: GlobalSymbolIndex,
    skeleton: SkeletonProject,
) -> SkeletonGraph:
    """Edges from each stub to everything it refers to, each name resolved once.

    References that resolve nowhere become boundary nodes (the untranslated C
    world) and never constrain scheduling.
    """
    graph = SkeletonGraph()
    # node ids are index keys, so edges and nodes can never disagree
    for key, entry in index.entries.items():
        graph.nodes[key] = GraphNode(
            node_id=key, kind=entry.kind, module=entry.module, path=entry.path
        )

    for stub in skeleton.stubs:
        caller = stub.qualified_name
        for name, target in _references(stub, index):
            if target is None:
                target = f"boundary::{name}"
                graph.nodes.setdefault(target, GraphNode(node_id=target, kind="boundary"))
            if graph.nodes[target].kind == "function":
                graph.call_edges.add((caller, target))
            else:
                graph.symbol_edges.add((caller, target))
    return graph


def _references(
    stub: FunctionStub, index: GlobalSymbolIndex
) -> Iterator[tuple[str, Optional[str]]]:
    """(name, index key or None) for each name the stub calls or reads, then
    for each constant its C text names (the preprocessor erased those). A call
    prefers a function and otherwise takes any kind, so a call through a
    function-pointer static reaches the static."""
    calls, values = stub.origin.calls, stub.origin.value_refs
    for name in sorted(calls | values):
        target = index.resolve(name, stub.module, kind="function") if name in calls else None
        yield name, target or index.resolve(name, stub.module)
    named = set(_IDENT.findall(stub.origin.source_text or "")) - calls - values
    for name in sorted(named):
        target = index.resolve(name, stub.module, kind="constant")
        if target is not None:
            yield name, target


@dataclass
class ScheduleLayers:
    layers: list[list[str]]

    def flatten(self) -> list[str]:
        return [n for layer in self.layers for n in layer]


def _tarjan_scc(adj: dict[str, list[str]]) -> list[set[str]]:
    """The strongly connected components of the graph whose successors of
    each node ``adj`` lists, each emitted after every component it reaches."""
    index_counter = [0]
    stack: list[str] = []
    on_stack: set[str] = set()
    index: dict[str, int] = {}
    low: dict[str, int] = {}
    out: list[set[str]] = []

    def strongconnect(root: str) -> None:
        work = [(root, 0)]
        while work:
            node, pi = work[-1]
            if pi == 0:
                index[node] = low[node] = index_counter[0]
                index_counter[0] += 1
                stack.append(node)
                on_stack.add(node)
            recurse = False
            for i in range(pi, len(adj[node])):
                nxt = adj[node][i]
                if nxt not in index:
                    work[-1] = (node, i + 1)
                    work.append((nxt, 0))
                    recurse = True
                    break
                if nxt in on_stack:
                    low[node] = min(low[node], index[nxt])
            if recurse:
                continue
            if low[node] == index[node]:
                comp = set()
                while True:
                    w = stack.pop()
                    on_stack.discard(w)
                    comp.add(w)
                    if w == node:
                        break
                out.append(comp)
            work.pop()
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[node])

    for n in adj:
        if n not in index:
            strongconnect(n)
    return out


def schedule(graph: SkeletonGraph) -> ScheduleLayers:
    """Layered bottom-up order over function-call edges.

    An acyclic function's layer is one past the highest layer among the
    acyclic functions it calls, or 0 if it calls none. Members of nontrivial
    strongly connected components (plus self-recursive functions) all land in
    the final layer; edges into those members do not hold back their acyclic
    callers, which are generated against the cycle's placeholder signatures.
    """
    callees: dict[str, list[str]] = {n: [] for n in graph.function_nodes()}
    for u, v in graph.call_edges:
        if u in callees and v in callees:
            callees[u].append(v)

    layer_of: dict[str, int] = {}
    cyclic: list[str] = []
    # Tarjan emits a component only after every component it reaches, so each
    # acyclic callee already has its layer
    for comp in _tarjan_scc(callees):
        [n, *rest] = comp
        if rest or n in callees[n]:
            cyclic += comp
        else:
            layer_of[n] = 1 + max((layer_of[v] for v in callees[n] if v in layer_of), default=-1)

    layers: list[list[str]] = [[] for _ in range(1 + max(layer_of.values(), default=-1))]
    for n, layer in layer_of.items():
        layers[layer].append(n)
    if cyclic:
        layers.append(cyclic)
    return ScheduleLayers(layers=[sorted(layer, key=_layer_key) for layer in layers])


def _layer_key(node_id: str) -> tuple[str, str]:
    module, _, name = node_id.rpartition("::")
    return (module, name)


def export_graph(graph: SkeletonGraph, layers: Optional[ScheduleLayers], path) -> None:
    doc = {
        "nodes": [
            {
                "id": n.node_id,
                "kind": n.kind,
                "module": n.module,
                "state": n.state,
            }
            for n in sorted(graph.nodes.values(), key=lambda n: n.node_id)
        ],
        "call_edges": sorted(graph.call_edges),
        "symbol_edges": sorted(graph.symbol_edges),
        "layers": layers.layers if layers else [],
    }
    Path(path).write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
