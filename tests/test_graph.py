import random

import pytest

from rustport.buildctx import CompileCommand, PreprocessorConfig, derive_unit_context, preprocess_unit
from rustport.csyms import CFunctionDecl, CGlobalDecl, CType
from rustport.errors import DuplicateDefinitionError
from rustport.graph import (
    FALLBACK,
    PENDING,
    TRANSLATED,
    GraphNode,
    SkeletonGraph,
    build_graph,
    build_symbol_index,
    schedule,
)
from rustport.skeleton import (
    FunctionStub,
    LiftedStatic,
    ModuleTree,
    SkeletonConfig,
    SkeletonProject,
    plan_skeleton,
)


def make_stub(module, name, storage="external", calls=(), value_refs=()):
    origin = CFunctionDecl(
        name=name,
        return_type=CType("int"),
        params=[],
        variadic=False,
        storage=storage,
        defined_here=True,
        source_loc="x:1",
        calls=set(calls),
        value_refs=set(value_refs),
    )
    return FunctionStub(
        qualified_name=f"{module}::{name}",
        signature_text=f"pub fn {name}()",
        placeholder_body="unimplemented!()",
        visibility="public",
        origin=origin,
        module=module,
    )


def make_project(stubs, statics=()):
    tree = ModuleTree(mapping={}, reverse={})
    return SkeletonProject(
        tree=tree,
        types=[],
        stubs=list(stubs),
        statics=list(statics),
        constants=[],
        config=SkeletonConfig(crate_name="t"),
    )


def make_static(module, name):
    origin = CGlobalDecl(
        name=name, c_type=CType("int"), initializer_text="0", storage="external",
        mutable=True, source_loc="x:1",
    )
    return LiftedStatic(name=name, emitted_text="", module=module, origin=origin)


# --- symbol index -------------------------------------------------------------


def test_index_basic():
    project = make_project([make_stub("crate::a", "f"), make_stub("crate::b", "g")])
    index = build_symbol_index(project)
    assert index.entries["crate::a::f"].module == "crate::a"
    assert index.entries["crate::b::g"].module == "crate::b"


def test_index_internal_linkage_no_conflict():
    project = make_project(
        [make_stub("crate::a", "init", storage="internal"),
         make_stub("crate::b", "init", storage="internal")]
    )
    index = build_symbol_index(project)
    assert "crate::a::init" in index.entries
    assert "crate::b::init" in index.entries


def test_index_duplicate_external_definitions_error():
    project = make_project([make_stub("crate::a", "f"), make_stub("crate::b", "f")])
    with pytest.raises(DuplicateDefinitionError) as exc:
        build_symbol_index(project)
    assert "crate::a" in str(exc.value) and "crate::b" in str(exc.value)


# --- graph construction ---------------------------------------------------------


def test_call_edge():
    project = make_project([make_stub("crate::m", "f", calls=["g"]), make_stub("crate::m", "g")])
    graph = build_graph(build_symbol_index(project), project)
    assert ("crate::m::f", "crate::m::g") in graph.call_edges


def test_symbol_edge_to_shared_static():
    project = make_project(
        [make_stub("crate::m", "f", value_refs=["s"])],
        statics=[make_static("crate::shared", "s")],
    )
    graph = build_graph(build_symbol_index(project), project)
    assert ("crate::m::f", "crate::shared::s") in graph.symbol_edges


def test_boundary_call_creates_no_constraint():
    project = make_project([make_stub("crate::m", "f", calls=["memcpy"])])
    graph = build_graph(build_symbol_index(project), project)
    assert graph.nodes["boundary::memcpy"].kind == "boundary"
    assert not graph.call_edges
    layers = schedule(graph)
    assert layers.layers == [["crate::m::f"]]


def test_same_module_resolution_beats_global():
    project = make_project(
        [
            make_stub("crate::a", "helper", storage="internal"),
            make_stub("crate::a", "top", calls=["helper"]),
            make_stub("crate::b", "helper", storage="internal"),
        ]
    )
    graph = build_graph(build_symbol_index(project), project)
    assert ("crate::a::top", "crate::a::helper") in graph.call_edges
    assert ("crate::a::top", "crate::b::helper") not in graph.call_edges


def plan_units(tmp_path, files):
    """The planned (unbuilt) skeleton of the C ``files`` and its graph."""
    units = []
    for rel, text in sorted(files.items()):
        (tmp_path / rel).write_text(text)
        cmd = CompileCommand(str(tmp_path), rel, ["cc", "-c", rel])
        units.append(preprocess_unit(derive_unit_context(cmd), PreprocessorConfig()))
    project = plan_skeleton(tmp_path, units)
    return project, build_graph(build_symbol_index(project), project)


@pytest.mark.parametrize(
    "files, fn_id, edge, bucket",
    [
        pytest.param(
            {
                "a.c": "struct stat { int mode; };\nint stat(struct stat *s);\n"
                "int use(struct stat *s) { return stat(s); }\n",
                "b.c": "struct stat { int mode; };\n"
                "int stat(struct stat *s) { return s->mode; }\n",
            },
            "crate::a::r#use",
            ("call", "crate::b::stat"),
            "callee_signatures",
            id="call-beside-a-same-name-type",
        ),
        pytest.param(
            {"a.c": "int (*hook)(int) = 0;\nint apply(int v) { return hook(v); }\n"},
            "crate::a::apply",
            ("symbol", "crate::a::hook"),
            "global_decls",
            id="call-through-a-function-pointer-static",
        ),
        pytest.param(
            {"a.c": "#define LIMIT 9\nint clamp(int v) { return v > LIMIT ? LIMIT : v; }\n"},
            "crate::a::clamp",
            ("symbol", "crate::a::LIMIT"),
            "global_decls",
            id="constant-named-in-the-body",
        ),
    ],
)
def test_a_reference_resolves_once_for_graph_and_prompt(tmp_path, files, fn_id, edge, bucket):
    """The graph's edge is what the prompt shows, and no reference that
    resolves becomes a boundary node."""
    from rustport.translate import assemble_context

    project, graph = plan_units(tmp_path, files)
    kind, target = edge
    assert (fn_id, target) in (graph.call_edges if kind == "call" else graph.symbol_edges)
    assert not [n for n in graph.nodes if n.startswith("boundary::")]
    ctx = assemble_context(fn_id, project, graph)
    assert [d for d in getattr(ctx, bucket) if d.startswith(f"// at {target}\n")]


def test_a_function_pointer_local_is_no_reference(tmp_path):
    """A local `int (*fp)(int)` shadows the function `fp` and names no
    boundary symbol: no edge, no prompt entry, no boundary node."""
    from rustport.translate import assemble_context

    files = {
        "a.c": "int fp(int x) { return x; }\nint twice(int x) { return 2 * x; }\n"
        "int use_fp(int v) { int (*fp)(int) = twice; return fp(v); }\n",
        "b.c": "int use_cb(int v) { int (*cb)(int) = 0; return cb ? cb(v) : v; }\n",
    }
    project, graph = plan_units(tmp_path, files)
    assert graph.call_edges == {("crate::a::use_fp", "crate::a::twice")}
    assert not [n for n in graph.nodes if n.startswith("boundary::")]
    ctx = assemble_context("crate::a::use_fp", project, graph)
    assert not [d for d in ctx.callee_signatures if d.startswith("// at crate::a::fp\n")]


def test_keyword_named_c_symbols_resolve(tmp_path):
    """A C name that is a Rust keyword lives at a raw or renamed Rust path,
    but C references carry the C name, which the index keys on."""
    from rustport.translate import assemble_context

    src = (
        "enum { loop = 2 };\n"
        "int match = 1;\n"
        "static int use(int v) { return v; }\n"
        "static int self(int v) { return v; }\n"
        "int top(int v) { return use(v) + self(v) + loop + match; }\n"
    )
    project, graph = plan_units(tmp_path, {"a.c": src})
    assert {("crate::a::top", "crate::a::r#use"), ("crate::a::top", "crate::a::self_")} <= (
        graph.call_edges
    )
    assert {("crate::a::top", "crate::a::r#loop"), ("crate::a::top", "crate::a::r#match")} <= (
        graph.symbol_edges
    )
    assert not [n for n in graph.nodes if n.startswith("boundary::")]
    assert schedule(graph).layers == [["crate::a::r#use", "crate::a::self_"], ["crate::a::top"]]
    ctx = assemble_context("crate::a::top", project, graph)
    for callee in ("crate::a::r#use", "crate::a::self_"):
        assert [d for d in ctx.callee_signatures if d.startswith(f"// at {callee}\n")]
    for symbol in ("crate::a::r#loop", "crate::a::r#match"):
        assert [d for d in ctx.global_decls if d.startswith(f"// at {symbol}\n")]
    # a rule fix reads the name rustc reports, which is the Rust one
    index = build_symbol_index(project)
    assert index.resolve_rust("self_", "crate::b") == index.resolve("self", "crate::b") == (
        "crate::a::self_"
    )


# --- scheduling -----------------------------------------------------------------


def graph_of(edges, nodes=None):
    g = SkeletonGraph()
    names = set(nodes or [])
    for u, v in edges:
        names.add(u)
        names.add(v)
    for n in sorted(names):
        g.nodes[n] = GraphNode(node_id=n, kind="function", module="crate::m")
    g.call_edges = set(edges)
    return g


def test_schedule_leaves_first():
    layers = schedule(graph_of([("a", "b"), ("a", "c")]))
    assert layers.layers == [["b", "c"], ["a"]]


def test_schedule_mutual_recursion_final_layer():
    layers = schedule(graph_of([("a", "b"), ("b", "a")]))
    assert layers.layers == [["a", "b"]]


def test_schedule_cycle_with_tail():
    # d is a leaf; a<->b cycle; c calls into the cycle
    layers = schedule(graph_of([("a", "b"), ("b", "a"), ("c", "a"), ("c", "d")]))
    layer_of = {n: i for i, layer in enumerate(layers.layers) for n in layer}
    assert layer_of["d"] < layer_of["c"]
    final = layers.layers[-1]
    assert "a" in final and "b" in final


def test_schedule_self_recursion_final_layer():
    layers = schedule(graph_of([("f", "f"), ("g", "h")]))
    assert "f" in layers.layers[-1]


def test_schedule_partition():
    g = graph_of([("a", "b"), ("c", "d"), ("e", "e")])
    layers = schedule(g)
    flat = layers.flatten()
    assert sorted(flat) == sorted(g.function_nodes())
    assert len(flat) == len(set(flat))


# --- independent oracles for the property tests ---------------------------------


def oracle_sccs(nodes, edges):
    """Kosaraju's algorithm, independent of the implementation under test."""
    adj = {n: [] for n in nodes}
    radj = {n: [] for n in nodes}
    for u, v in edges:
        adj[u].append(v)
        radj[v].append(u)
    visited, order = set(), []

    def dfs1(start):
        stack = [(start, iter(adj[start]))]
        visited.add(start)
        while stack:
            node, it = stack[-1]
            advanced = False
            for nxt in it:
                if nxt not in visited:
                    visited.add(nxt)
                    stack.append((nxt, iter(adj[nxt])))
                    advanced = True
                    break
            if not advanced:
                order.append(node)
                stack.pop()

    for n in nodes:
        if n not in visited:
            dfs1(n)
    comp = {}
    current = 0
    for n in reversed(order):
        if n in comp:
            continue
        stack = [n]
        comp[n] = current
        while stack:
            x = stack.pop()
            for y in radj[x]:
                if y not in comp:
                    comp[y] = current
                    stack.append(y)
        current += 1
    groups = {}
    for n, c in comp.items():
        groups.setdefault(c, set()).add(n)
    return list(groups.values())


def random_dag(rng, n):
    nodes = [f"crate::m::f{i:02d}" for i in range(n)]
    edges = set()
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < 0.15:
                edges.add((nodes[i], nodes[j]))  # caller earlier, callee later: acyclic
    return nodes, edges


def check_layering(nodes, edges, layers):
    sccs = oracle_sccs(nodes, edges)
    cyclic = set().union(*[c for c in sccs if len(c) > 1]) if any(len(c) > 1 for c in sccs) else set()
    cyclic |= {u for (u, v) in edges if u == v}
    pos = {}
    for i, layer in enumerate(layers.layers):
        for node in layer:
            assert node not in pos, "node appears in two layers"
            pos[node] = i
    assert set(pos) == set(nodes), "layers must cover all function nodes"
    for u, v in edges:
        if u in cyclic or v in cyclic or u == v:
            continue
        assert pos[v] < pos[u], f"edge {u}->{v} violates bottom-up order"
    if cyclic:
        final = set(layers.layers[-1])
        for member in cyclic:
            assert member in final, f"cycle member {member} not in final layer"


def test_schedule_random_dags_property():
    rng = random.Random(7)
    for _ in range(100):
        n = rng.randint(2, 50)
        nodes, edges = random_dag(rng, n)
        layers = schedule(graph_of(edges, nodes=nodes))
        check_layering(nodes, edges, layers)


def test_schedule_planted_cycles_property():
    rng = random.Random(11)
    for _ in range(20):
        n = rng.randint(4, 40)
        nodes, edges = random_dag(rng, n)
        # plant a cycle among a random subset
        cycle_len = rng.randint(2, max(2, min(5, n)))
        members = rng.sample(nodes, cycle_len)
        for a, b in zip(members, members[1:] + members[:1]):
            edges.add((a, b))
        layers = schedule(graph_of(edges, nodes=nodes))
        check_layering(nodes, edges, layers)


def test_state_transitions_only_from_pending():
    g = graph_of([("a", "b")])
    g.mark("b", TRANSLATED)
    with pytest.raises(ValueError):
        g.mark("b", FALLBACK)
    assert g.nodes["a"].state == PENDING


def test_type_and_function_namespaces_coexist(tmp_path):
    # legal C (tag vs value namespace): `struct stat` alongside `stat()`
    from conftest import build_pipeline

    src = (
        "struct stat { int mode; };\n"
        "int stat(struct stat *s) { return s->mode; }\n"
    )
    project, workspace, graph, index, layers, runner = build_pipeline(
        tmp_path, {"m.c": src}, crate="ns_crate"
    )
    kinds = {
        index.entries[k].kind for k in index.by_bare["stat"]
    }
    assert kinds == {"function", "type"}
    assert layers.flatten() == ["crate::m::stat"]
    assert runner.build(workspace.root).ok


def test_mini_mix_enumerator_resolves_to_its_constant(tmp_path):
    """An enumerator is a planned constant, so a body that names one gets a
    symbol edge to it and sees it in its prompt, not a boundary node."""
    import shutil

    from conftest import FIXTURES
    from test_acceptance import FIXTURE_PROJECTS

    from rustport.buildctx import CompileCommand, PreprocessorConfig, derive_unit_context, preprocess_unit
    from rustport.skeleton import plan_skeleton
    from rustport.translate import assemble_context, build_prompt

    sources, extra_args = FIXTURE_PROJECTS["mini_mix"]
    proj = tmp_path / "mini_mix"
    shutil.copytree(FIXTURES / "mini_mix", proj)
    units = [
        preprocess_unit(
            derive_unit_context(CompileCommand(str(proj), rel, ["cc", *extra_args, "-c", rel])),
            PreprocessorConfig(),
        )
        for rel in sources
    ]
    project = plan_skeleton(proj, units)
    index = build_symbol_index(project)
    graph = build_graph(index, project)
    assert not [n for n in graph.nodes if n.startswith("boundary::")]
    assert ("crate::mix::mode_rank", "crate::mix::MODE_AUTO") in graph.symbol_edges
    ctx = assemble_context("crate::mix::mode_rank", project, graph)
    prompt = build_prompt(ctx, tag="t").user
    assert "pub const MODE_AUTO: crate::mix::mix_mode = 2;" in prompt
