"""Acceptance battery: one test per criterion, exact tolerances.

Each test prints its own pass line (visible with -v -s); a failure
anywhere is a hard failure of that criterion.
"""
import math
import random
import statistics
import time

import sessionpi.congruence as cg
import sessionpi.depgraph as dg
import sessionpi.progress as pg
import sessionpi.semantics as sm
import sessionpi.surface as sf
import sessionpi.syntax as sx
import sessionpi.typecheck as tc
import strategies as S
from sessionpi.examples import load
from test_progress import check_against
from test_reference_oracles import reference_find_cycle


def _graph(p):
    return dg.build_graph(cg.normal_form(p).process())


def _edges(p):
    return {(i, j, c.base) for i, j, c in _graph(p).edges}


def test_criterion_1_golden_graphs():
    g = _graph(load("circular_waits").process)
    assert (g.node_count, g.edge_count) == (2, 2)
    assert reference_find_cycle(g) is not None

    g = _graph(load("circular_waits_hidden").process)
    assert (g.node_count, g.edge_count) == (2, 2)
    assert all(l == frozenset() for l in g.labels)
    assert reference_find_cycle(g) is not None

    src = load("circular_waits_under_accept")
    g = _graph(src.process)
    assert (g.node_count, g.edge_count) == (1, 0)
    assert dg.is_transparent(src.gamma, src.process).verdict \
        == "NotTransparent"

    src = load("relay")
    g = _graph(src.process)
    assert (g.node_count, g.edge_count) == (3, 2)
    assert reference_find_cycle(g) is None
    assert dg.leads_to(g, sx.chan("k"), sx.chan("k1")) is True
    print("criterion 1 (golden graphs): PASS")


def test_criterion_2_buyer_seller_end_to_end():
    src = load("buyer_seller")
    assert tc.check(src.gamma, src.process) == {}
    assert tc.is_program(src.process)
    assert dg.is_transparent(src.gamma, src.process).ok

    # first step: the service unfolds into one fresh session between
    # client and server, with both replicated services still standing
    rs = sm.redexes(src.process)
    assert [r.rule for r in rs] == ["RInit"]
    p = sm.step(src.process, rs[0])
    nf = cg.normal_form(p)
    assert len(nf.binders) == 1
    assert sorted(type(t).__name__ for t in nf.threads) \
        == ["Receive", "Send", "Serve", "Serve"]
    fresh = nf.binders[0]
    assert {t.chan for t in nf.threads
            if isinstance(t, (sx.Receive, sx.Send))} == {fresh}

    # drive to the state just after the shipper is invoked
    for rule in ("Com", "IfT", "Sel", "RInit"):
        picks = [r for r in sm.redexes(p) if r.rule == rule]
        assert len(picks) == 1, rule
        p = sm.step(p, picks[0])
    g = _graph(p)
    assert g.edge_count == 2
    assert all(l == frozenset() for l in g.labels)
    deg = [0] * g.node_count
    for i, j, _ in g.edges:
        deg[i] += 1
        deg[j] += 1
    assert sorted(d for d in deg if d) == [1, 1, 2]  # a 3-node path
    assert reference_find_cycle(g) is None

    r = pg.check_progress(src.gamma, src.process, depth=10)
    assert r.verdict == "certificate"
    print("criterion 2 (buyer-seller end to end): PASS")


def test_criterion_3_blocked_delegation():
    # the naive reading of the handover is already ill-typed
    naive = sf.parse_process("k?((m)).k1!(1).0 | k!((k1)).0",
                             sessions=("k", "k1"))
    assert sm.redexes(naive) == []
    assert dg.is_transparent({}, naive).verdict == "NotWellTyped"

    # the well-typed variant is irreducible and rejected by the graphs
    src = load("blocked_delegation")
    assert sm.redexes(src.process) == []
    v = dg.is_transparent(src.gamma, src.process)
    assert v.verdict == "NotTransparent"
    print("criterion 3 (blocked delegation): PASS")


def test_criterion_4_service_composition_examples():
    for name in ("two_services", "crossed_services"):
        src = load(name)
        assert dg.is_transparent(src.gamma, src.process).ok, name
        r = pg.check_progress(src.gamma, src.process, depth=10)
        assert r.verdict == "certificate", name
    print("criterion 4 (service composition examples): PASS")


def test_criterion_5_subject_reduction():
    for seed in range(1000):
        rng = random.Random(seed)
        gamma, p = S.well_typed(rng)
        d = tc.check(gamma, p)
        assert tc.check(gamma, cg.normal_form(p).process()) == d
        q = p
        for _ in range(rng.randint(1, 5)):
            rs = sm.redexes(q)
            if not rs:
                break
            q = sm.step(q, rng.choice(rs))
            tc.check(gamma, q.process())
    print("criterion 5 (subject congruence and reduction, 1000 cases): PASS")


def _lead_pairs(graph, chans):
    out = set()
    for a in chans:
        for b in chans:
            if dg.leads_to(graph, a, b) is True:
                out.add((a, b))
    return out


def test_criterion_6_stability_preservation():
    for seed in range(1000):
        rng = random.Random(seed)
        gamma, p = S.transparent(rng)
        assert dg.is_transparent(gamma, p).ok
        chans = sx.free_session_channels(p)
        before = _lead_pairs(_graph(p), chans)
        q = p
        for _ in range(5):
            rs = sm.redexes(q)
            if not rs:
                break
            q = sm.step(q, rng.choice(rs))
            assert dg.is_transparent(gamma, q.process()).ok
            survive = sx.free_session_channels(q.process())
            after = _lead_pairs(_graph(q), survive)
            assert after <= before, seed
    print("criterion 6 (stability preserved, leads-to shrinks,"
          " 1000 cases): PASS")


def test_criterion_7_inhabitation():
    k = sx.chan("k")
    for seed in range(1000):
        rng = random.Random(seed)
        a = S.rand_type(rng)
        p, ext = pg.inhabit(a, k)
        check_against(ext, p, {k: a})
        assert dg.is_transparent(ext, p).ok
        assert sm.redexes(p) == []
    print("criterion 7 (inhabitation, 1000 types): PASS")


def test_criterion_8_partners_and_programs():
    for seed in range(500):
        gamma, p = S.irreducible_live(random.Random(seed))
        got = pg.construct_partner(gamma, p)
        assert got is not None, seed
        q, ext = got
        assert sm.redexes(q) == []
        pair = sx.Par(p, q)
        tc.check({**gamma, **ext}, pair)
        assert sm.redexes(pair) != []

    for seed in range(500):
        gamma, p = S.program(random.Random(seed))
        tc.check(gamma, p)
        assert tc.is_program(p)
        for sub in cg.maximal_parallel_subterms(p):
            assert _graph(sub).edge_count == 0  # programs are edge-free
        r = pg.check_progress(gamma, p, depth=3)
        assert r.verdict == "certificate"
    print("criterion 8 (partner construction and programs,"
          " 500 + 500 cases): PASS")


def test_criterion_9_transparency_scaling():
    points = [(10, 1_000), (10, 10_000), (100, 10_000),
              (100, 100_000), (1_000, 100_000)]
    xs, ys = [], []
    for c, n in points:
        p = S.forwarding_family(c, n)
        nodes = S.size(p)
        assert nodes >= n * 0.9
        t0 = time.perf_counter()
        v = dg.is_transparent({}, p)
        dt = time.perf_counter() - t0
        assert v.ok
        xs.append(nodes * c)
        ys.append(max(dt, 1e-4))
    slope = statistics.linear_regression(
        [math.log(x) for x in xs], [math.log(y) for y in ys]).slope
    assert slope <= 1.3, (slope, list(zip(points, ys)))
    print(f"criterion 9 (scaling, log-log slope {slope:.2f} <= 1.3"
          f" over n*c up to 1e8): PASS")
