import random

from hypothesis import given, strategies as st

import sessionpi.congruence as cg
import sessionpi.depgraph as dg
import sessionpi.surface as sf
import sessionpi.syntax as sx
import strategies as S
from sessionpi.examples import SOURCES, load
from test_reference_oracles import reference_find_cycle


def graph_of(name):
    src = load(name)
    return dg.build_graph(cg.normal_form(src.process).process()), src


def edge_set(g):
    return {(i, j, c.base) for i, j, c in g.edges}


def test_relay_graph():
    g, _ = graph_of("relay")
    assert g.node_count == 3
    assert edge_set(g) == {(0, 1, "k"), (0, 2, "k1")}
    assert reference_find_cycle(g) is None


def test_circular_waits_graph():
    g, _ = graph_of("circular_waits")
    assert g.node_count == 2
    assert g.edge_count == 2  # one edge per shared channel: a multigraph
    assert reference_find_cycle(g) is not None


def test_restriction_strips_labels_not_edges():
    g, _ = graph_of("circular_waits_hidden")
    assert g.node_count == 2 and g.edge_count == 2
    assert all(l == frozenset() for l in g.labels)
    assert reference_find_cycle(g) is not None


def test_graph_stops_at_the_first_parallel_layer():
    g, _ = graph_of("circular_waits_under_accept")
    assert (g.node_count, g.edge_count) == (1, 0)


def test_three_threads_on_one_channel_close_a_cycle():
    p = sf.parse_process("k!(1).0 | k?(x).0 | k!(2).0", sessions=("k",))
    g = dg.build_graph(p)
    assert g.edge_count == 3
    cyc = reference_find_cycle(g)
    assert cyc is not None
    assert set(cyc.nodes) <= {0, 1, 2}


def assert_real_cycle(g, cyc):
    """cyc walks distinct nodes over distinct edges of g and closes."""
    n = len(cyc.nodes)
    assert n == len(cyc.channels) >= 2
    assert len(set(cyc.nodes)) == n
    hops = set()
    for idx in range(n):
        a, b = cyc.nodes[idx], cyc.nodes[(idx + 1) % n]
        hop = (min(a, b), max(a, b), cyc.channels[idx])
        assert hop in g.edges
        hops.add(hop)
    assert len(hops) == n


def test_find_cycle_reports_a_real_cycle():
    g, _ = graph_of("circular_waits")
    cyc = reference_find_cycle(g)
    assert cyc is not None
    assert_real_cycle(g, cyc)


def test_leads_to():
    g, _ = graph_of("relay")
    k, k1 = sx.chan("k"), sx.chan("k1")
    assert dg.leads_to(g, k, k1) is True
    assert dg.leads_to(g, k1, k) is True  # symmetric
    assert dg.leads_to(g, k, k) is True   # reflexive where defined
    assert dg.leads_to(g, k, sx.chan("zz")) is None  # not free: vacuous


def test_leads_to_disconnected():
    p = sf.parse_process("k!(1).0 | k?(x).0 | j!(2).0 | j?(x).0",
                         sessions=("k", "j"))
    g = dg.build_graph(p)
    assert dg.leads_to(g, sx.chan("k"), sx.chan("j")) is False


def test_to_dot_is_deterministic_and_escaped():
    p = sf.parse_process('k!("say \\"hi\\"").0 | k?(x).0', sessions=("k",))
    g = dg.build_graph(p)
    d1, d2 = dg.to_dot(g), dg.to_dot(g)
    assert d1 == d2
    assert "hi" in d1
    # quotes inside labels arrive escaped
    assert '\\"' in d1
    assert "n0 -- n1" in d1


def test_transparency_verdicts():
    for name, want in [("relay", "Transparent"),
                       ("buyer_seller", "Transparent"),
                       ("circular_waits", "NotTransparent"),
                       ("circular_waits_under_accept", "NotTransparent"),
                       ("blocked_delegation", "NotTransparent")]:
        src = load(name)
        assert dg.is_transparent(src.gamma, src.process).verdict == want, name


def test_ill_typed_is_not_transparent():
    p = sf.parse_process("k!(1).0 | k!(2).0", sessions=("k",))
    v = dg.is_transparent({}, p)
    assert v.verdict == "NotWellTyped"
    assert not v.ok
    assert "T-Par" in v.detail


def test_not_transparent_carries_a_witness():
    src = load("circular_waits_under_accept")
    v = dg.is_transparent(src.gamma, src.process)
    assert v.subterm is not None
    inner = dg.build_graph(cg.normal_form(v.subterm).process())
    assert reference_find_cycle(inner) is not None


CORPUS_SUBTERMS = [q for name in SOURCES
                   for q in cg.maximal_parallel_subterms(load(name).process)]


def fast_check_agrees(q):
    """`find_cycle`, on the occurrence index and as the graph's `cycle`,
    finds a cycle exactly when the edges have one, and it is a real
    one; returns whether it found one."""
    g = dg.build_graph(q)
    fast = dg.find_cycle(cg.occurrences(cg.normal_form(q))[1])
    assert fast == g.cycle
    assert (fast is None) == (reference_find_cycle(g) is None), q
    if fast is not None:
        assert_real_cycle(g, fast)
    return fast is not None


@given(st.integers(0, 10_000))
def test_fast_cycle_check_agrees_with_the_graph(seed):
    found = [fast_check_agrees(q) for q in CORPUS_SUBTERMS]
    assert 0 < sum(found) < len(found)
    rng = random.Random(seed)
    _, p = S.well_typed(rng)
    for q in cg.maximal_parallel_subterms(p):
        fast_check_agrees(q)
    found = [fast_check_agrees(q)
             for q in cg.maximal_parallel_subterms(S.cyclic(rng))]
    assert any(found)


@given(st.integers(0, 10_000))
def test_generated_transparent_processes_have_acyclic_graphs(seed):
    g, p = S.transparent(random.Random(seed))
    assert dg.is_transparent(g, p).ok
    graph = dg.build_graph(cg.normal_form(p).process())
    assert reference_find_cycle(graph) is None


@given(st.integers(0, 10_000))
def test_nonbot_channels_label_at_most_one_node(seed):
    import sessionpi.typecheck as tc
    gamma, p = S.well_typed(random.Random(seed))
    delta = tc.check(gamma, p)
    graph = dg.build_graph(cg.normal_form(p).process())
    for c, t in delta.items():
        if not isinstance(t, sx.Bot):
            hits = sum(1 for l in graph.labels if c in l)
            assert hits <= 1
