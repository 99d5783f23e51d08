import itertools
import random
import sys
from collections import Counter
from functools import reduce
from types import CodeType, SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

import sessionpi.cli as cli
import sessionpi.congruence as cg
import sessionpi.depgraph as dg
import sessionpi.progress as pg
import sessionpi.semantics as sm
import sessionpi.surface as sf
import sessionpi.syntax as sx
import sessionpi.typecheck as tc
import strategies as S
from sessionpi.examples import SOURCES, load
from test_reference_oracles import (calls_by_caller, cli_calls,
                                    reference_children, reference_find_cycle,
                                    reference_free_session_channels,
                                    reference_redexes, reference_ties)

K = sx.chan("k")


def inhabit(spec: str):
    return pg.inhabit(sf.parse_type(spec), K)


def check_against(gamma, p, target):
    """Raise unless p can be typed at exactly `target`, which may be
    wider than the minimal typing: unused channels may be carried at
    `end`, and selections may be typed with labels they never choose."""
    d = tc._infer(dict(gamma), p, False)
    for k, t in d.items():
        if k not in target:
            raise tc.TypingError(
                f"channel {k.base} is used but absent from the target typing")
        tt = target[k]
        w = tc.walk(t)
        if isinstance(tt, sx.Bot):
            if isinstance(w, sx.Bot) or tc._ends(w):
                continue
            raise tc.TypingError(
                f"target closes channel {k.base} but it is left at"
                f" {tc.show(w)}")
        if isinstance(w, sx.Bot):
            raise tc.TypingError(
                f"channel {k.base} is closed on both ends but the target "
                f"gives it {tc.show(tt)}")
        try:
            tc.unify(t, tt)
        except tc.TypingError as e:
            raise tc.TypingError(f"channel {k.base}: {e}") from e
    for k, tt in target.items():
        if k in d:
            continue
        if not isinstance(tt, (sx.End, sx.Bot)):
            raise tc.TypingError(
                f"target types unused channel {k.base} at {tc.show(tt)}")


# ------------------------------------------------------------------- inhabit

def test_end_inhabits_to_stop():
    p, ext = inhabit("end")
    assert p == sx.Stop() and ext == {}


def test_receive_then_send():
    p, _ = inhabit("?[int].![bool].end")
    assert sf.print_process(p) == "k?(x).k!(true).0"


def test_canonical_values_per_sort():
    assert sf.print_process(inhabit("![int].end")[0]) == "k!(1).0"
    assert sf.print_process(inhabit("![bool].end")[0]) == "k!(true).0"
    assert sf.print_process(inhabit("![string].end")[0]) == 'k!("1").0'


def test_received_session_runs_in_parallel():
    p, _ = inhabit("?[?[int].![int].end].![int].end")
    assert sf.print_process(p) == "k?((m)).(k!(1).0 | m?(x).m!(1).0)"


def test_sent_session_is_restricted_and_sequenced():
    p, _ = inhabit("![?[int].end].end")
    # the helper channel's other end runs at the dual type
    assert sf.print_process(p) == "new m . (k!((m)).0 | m!(1).0)"


def test_service_output_extends_gamma():
    p, ext = inhabit("![<?[int].end>].end")
    assert list(ext) == ["#inh0"]
    assert sf.print_type(ext["#inh0"]) == "<?[int].end>"
    assert sf.print_process(p) == "k!(#inh0).(0 | *#inh0(m).m?(x).0)"


def test_branch_offers_every_arm():
    p, _ = inhabit("&{a: ?[int].end, b: end}")
    assert isinstance(p, sx.Offer)
    assert [l for l, _ in p.arms] == ["a", "b"]


def test_select_takes_the_first_label():
    p, _ = inhabit("+{b: end, a: ![int].end}")
    assert isinstance(p, sx.Choose)
    assert p.label == "a"  # canonical order, not source order


def test_fresh_names_avoid_the_given_set():
    a = sf.parse_type("![<end>].end")
    _, ext = pg.inhabit(a, K, avoid={"#inh0", "#inh1"})
    assert list(ext) == ["#inh2"]


def test_fresh_names_follow_the_order_of_the_type():
    # a service's server takes its names before the continuation does,
    # a received or delegated session's partner after it
    p, ext = inhabit("?[?[int].end].![<![int].?[string].end>]."
                     "![?[bool].end].?[int].?[?[int].end].end")
    assert list(ext) == ["#inh0"]
    assert sf.print_process(p) == (
        "k?((m)).(k!(#inh0).(new m2 . (k!((m2)).k?(x1).k?((m3))."
        "(0 | m3?(x2).0) | m2!(true).0) | *#inh0(m1).m1!(1).m1?(x).0)"
        " | m?(x3).0)")
    p, _ = inhabit("![?[?[int].end].end].?[int].end")
    assert sf.print_process(p) == (
        "new m . (k!((m)).k?(x).0 | new m1 . (m!((m1)).0 | m1!(1).0))")


def test_inhabit_a_long_type_at_the_default_recursion_limit():
    # `inhabit` recursed once per prefix of the type
    n = 30_000
    heads = [lambda t: sx.In(sx.Basic("int"), t),
             lambda t: sx.Out(sx.Basic("bool"), t),
             lambda t: sx.SelectT((("go", t),))]
    a = sx.End()
    for i in reversed(range(n)):
        a = heads[i % 3](a)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)  # CPython's default
    try:
        p, ext = pg.inhabit(a, K)
        shown = sf.print_process(p)
    finally:
        sys.setrecursionlimit(limit)
    assert ext == {}
    assert shown == "".join(
        ("k?(x).", f"k?(x{i // 3}).")[i > 0] if i % 3 == 0
        else ("k!(true).", "k << go.")[i % 3 - 1] for i in range(n)) + "0"


@given(S.session_types)
@settings(deadline=None)
def test_inhabitants_type_exactly_and_stand_still(a):
    p, ext = pg.inhabit(a, K)
    check_against(ext, p, {K: a})
    assert sm.redexes(p) == []
    assert dg.is_transparent(ext, p).ok


# ---------------------------------------------------------- construct_partner

def test_completable():
    live = pg._completable
    parse = sf.parse_process
    assert not live(parse("0"))
    assert live(parse("k!(1).0", sessions=("k",)))
    assert live(parse("new m . m!(1).0"))
    g = {"a": sx.ServiceSort(sx.In(sx.INT, sx.End()))}
    # a thread headed by a service prefix waits for a request
    assert live(parse("*a(k).k?(x).0", gamma=g))
    assert live(parse("a(k).k?(x).0", gamma=g))
    # a request is itself a pending session
    assert live(parse("a<k>.k!(1).0", gamma=g))
    # conditionals are inspected on both sides, and a service prefix
    # under one is a dormant scope, not a thread
    assert live(parse("if true then 0 else k!(1).0", sessions=("k",)))
    assert not live(parse("if true then 0 else *a(k).k?(x).0", gamma=g))


def test_request_gets_accepted():
    g = {"a": sx.ServiceSort(sf.parse_type("![int].end"))}
    p = sf.parse_process("a<k>.k?(x).0", gamma=g)
    q, ext = pg.construct_partner(g, p)
    assert isinstance(q, sx.Accept)
    assert q.service == sx.svc("a")
    final = sm.trace(sx.Par(p, q), 10).final
    assert final.process() == sx.Stop()


def test_open_channel_gets_its_dual():
    p = sf.parse_process("k!(5).0", sessions=("k",))
    q, _ = pg.construct_partner({}, p)
    assert sf.print_process(q) == "k?(x).0"


def test_partner_prefers_the_channel_a_thread_waits_on():
    # both k1 and k2 are open; only a k1 partner can synchronize
    p = sf.parse_process("k1?(x).k2!(x).0", sessions=("k1", "k2"))
    q, _ = pg.construct_partner({}, p)
    assert q.chan == sx.chan("k1")
    assert sm.redexes(sx.Par(p, q)) != []


def test_no_partner_when_all_channels_are_closed():
    src = load("circular_waits")
    assert pg.construct_partner(src.gamma, src.process) is None


def test_preconditions_are_enforced():
    with pytest.raises(ValueError):
        pg.construct_partner({}, sf.parse_process(
            "new m . (m?(x).0 | m!(1).0)"))
    with pytest.raises(ValueError):
        pg.construct_partner({}, sx.Stop())
    # a dormant service has something to complete: it gets a request
    g = {"a": sx.ServiceSort(sf.parse_type("?[int].end"))}
    for src in ("*a(k).k?(x).0", "a(k).k?(x).0"):
        q, _ = pg.construct_partner(g, sf.parse_process(src, gamma=g))
        assert sf.print_process(q) == "a<k>.k!(1).0"


@given(st.integers(0, 5_000))
@settings(deadline=None)
def test_partner_completes_generated_stuck_processes(seed):
    gamma, p = S.irreducible_live(random.Random(seed))
    got = pg.construct_partner(gamma, p)
    assert got is not None
    q, ext = got
    assert sm.redexes(q) == []
    pair = sx.Par(p, q)
    genv = {**gamma, **ext}
    tc.check(genv, pair)
    assert sm.redexes(pair) != []


def test_the_partners_the_search_builds_are_stuck_and_typed(monkeypatch):
    # the cut check relies on what holds by construction and checks none
    # of it: each partner is irreducible and types with its piece
    # (criteria 7 and 8), and each reduct of the pair types (criterion
    # 5).  Here those hold for a partner of every piece that the search
    # checks, though it completes only the cyclic ones.  An acyclic piece
    # passes unchecked; that it is well-typed and its completion reaches
    # an acyclic reduct is asserted here, where no open value can block
    # the pair
    checked, real = [], pg._cut_failure

    def recorded(gamma, cut):
        checked.append((gamma, cut))
        return real(gamma, cut)

    monkeypatch.setattr(pg, "_cut_failure", recorded)
    for name in SOURCES:
        src = load(name)
        pg.check_progress(src.gamma, src.process, depth=5)
    for seed in (1, 2, 3):
        for case in S.bench_gen().refute(seed):
            src = sf.parse_source(case.text)
            pg.check_progress(src.gamma, src.process)
    for seed in range(1000):
        pg.check_progress(*S.typed_cycles(random.Random(seed)), depth=6)
    partners = acyclic = 0
    for gamma, cut in checked:
        if not reference_counts(cut):
            continue
        piece = reduce(sx.Par, cut)
        closed = not reference_cyclic(piece) and not reference_free_values(
            piece)
        if closed:
            acyclic += 1
            tc.check(gamma, piece)
        got = pg.construct_partner(gamma, piece)
        assert got is not None or not closed, cut
        if got is None:
            continue
        partner, ext = got
        partners += 1
        assert sm.redexes(partner) == []
        genv = {**gamma, **ext}
        pair = sx.Par(piece, partner)
        tc.check(genv, pair)
        reducts = [sm.step(pair, r).process() for r in sm.redexes(pair)]
        for q in reducts:
            tc.check(genv, q)
        if closed:
            assert any(not reference_cyclic(q) for q in reducts), cut
    assert partners > 5000, partners
    assert acyclic > 5000, acyclic


# ------------------------------------------------------------- check_progress

def test_transparent_processes_get_certificates():
    for name in ("buyer_seller", "two_services", "crossed_services",
                 "relay"):
        src = load(name)
        r = pg.check_progress(src.gamma, src.process, depth=10)
        assert r.verdict == "certificate", name
        assert bool(r)


def test_circular_waits_yield_a_counterexample():
    src = load("circular_waits")
    r = pg.check_progress(src.gamma, src.process, depth=5)
    assert r.verdict == "counterexample"
    assert r.failed == "no-partner"
    assert len(r.cut) == 2  # the whole term; its singletons both pass
    assert not bool(r)


def test_the_refuting_cut_is_minimal_among_subsets():
    src = load("service_loop")
    r = pg.check_progress(src.gamma, src.process, depth=5)
    nf = cg.normal_form(src.process)
    assert list(r.cut) == list(nf.threads[:2])


def test_blocked_delegation_is_refuted():
    src = load("blocked_delegation")
    r = pg.check_progress(src.gamma, src.process, depth=5)
    assert (r.verdict, r.failed) == ("counterexample", "no-partner")


def test_search_alone_never_certifies():
    # cyclic graph, yet every decomposition completes: the bounded
    # search finds nothing and must stay inconclusive
    p = sf.parse_process("k?(x).k1!(x).0 | k!(1).k1?(y).0",
                         sessions=("k", "k1"))
    assert not dg.is_transparent({}, p).ok
    r = pg.check_progress({}, p, depth=10)
    assert r.verdict == "inconclusive"
    assert not r.bound_hit  # the search closed; still no certificate


def test_truncated_searches_report_their_bound():
    p = sf.parse_process("k?(x).k1!(x).0 | k!(1).k1?(y).0",
                         sessions=("k", "k1"))
    r = pg.check_progress({}, p, depth=0)
    assert r.verdict == "inconclusive" and r.bound_hit
    src = load("service_loop")
    r = pg.check_progress(src.gamma, src.process, depth=2, subset_budget=1)
    assert r.bound_hit


def test_a_budget_spent_at_the_end_of_a_size_reports_its_bound():
    # two picks of size one use up the budget, so the pair, the only
    # counterexample, is never tried
    src = load("circular_waits")
    r = pg.check_progress(src.gamma, src.process, subset_budget=2)
    assert (r.verdict, r.bound_hit) == ("inconclusive", True)
    r = pg.check_progress(src.gamma, src.process, subset_budget=3)
    assert r.verdict == "counterexample"


def test_ill_typed_input_raises():
    p = sf.parse_process("k!(1).0 | k!(2).0", sessions=("k",))
    with pytest.raises(tc.TypingError):
        pg.check_progress({}, p)


def test_counterexample_state_is_reachable():
    src = load("service_loop")
    r = pg.check_progress(src.gamma, src.process, depth=5)
    keys = {cg.canonical_key(q)
            for q, _ in sm.explore(src.process, 5)}
    assert cg.canonical_key(r.state) in keys


@given(st.integers(0, 2_000))
@settings(deadline=None, max_examples=40)
def test_generated_programs_are_certified(seed):
    gamma, p = S.program(random.Random(seed))
    r = pg.check_progress(gamma, p, depth=4)
    assert r.verdict == "certificate"


def test_dead_restrictions_do_not_count_as_new_states():
    # each init of the self-invoking service leaves an unused `new k`
    # behind; congruent states must not use up the state bound
    src = sf.parse_source("sessions a0, b0; env s : <end>;"
                          " a0!(1).b0!(2).0 | a0?(x).b0?(y).0"
                          " | *s(k).s<k1>.0 | s<k>.0")
    r = pg.check_progress(src.gamma, src.process)
    assert (r.verdict, r.states_seen, r.bound_hit) == ("inconclusive", 3, False)


# ------------------------------------------------- the search against an oracle

def reference_connected(cut):
    """Whether the ties of the threads `cut` join them all."""
    ties = [reference_ties(t) for t in cut]
    joined, names, grew = {0}, set(ties[0]), True
    while grew:
        grew = False
        for i, names_i in enumerate(ties):
            if i not in joined and names & names_i:
                joined.add(i)
                names |= names_i
                grew = True
    return len(joined) == len(cut)


def reference_live(p):
    """Whether p mentions a session channel outside every accept or
    serve: with each accept and serve replaced by `0`, a channel is
    still named by a prefix or bound by `new`, a request or a session
    receive."""
    def shut(q):
        if isinstance(q, (sx.Accept, sx.Serve)):
            return sx.Stop()
        return sx.rebuild(q, [shut(c) for c in sx.children(q)])

    names = sx.facts(shut(p))
    return bool(names.mentions or names.binders)


def reference_counts(cut):
    """Whether the piece `cut` has live channels or a thread headed by
    an accept or serve."""
    return (reference_live(reduce(sx.Par, cut))
            or any(isinstance(t, (sx.Accept, sx.Serve)) for t in cut))


def reference_cyclic(p):
    """Whether a parallel cluster of p has a cyclic graph: p's own
    threads, or those of a region of `|`, `new` and `0` nested under a
    prefix.  Two threads of a cluster are joined by an edge for each
    free session channel they share."""
    def region(q):
        out, todo = [], [q]
        while todo:
            r = todo.pop()
            if isinstance(r, (sx.Par, sx.New, sx.Stop)):
                todo.extend(reversed(reference_children(r)))
            else:
                out.append(r)
        return out

    todo = [region(p)]
    while todo:
        threads = todo.pop()
        holders = {}
        for i, t in enumerate(threads):
            for c in reference_free_session_channels(t):
                holders.setdefault(c, []).append(i)
        edges = [(u, v, c) for c, ns in holders.items()
                 for u, v in itertools.combinations(ns, 2)]
        if reference_find_cycle(SimpleNamespace(edges=edges)) is not None:
            return True
        below = [c for t in threads for c in reference_children(t)]
        while below:
            q = below.pop()
            if isinstance(q, (sx.Par, sx.New)):
                todo.append(region(q))
            else:
                below.extend(reference_children(q))
    return False


def reference_free_values(p):
    """The value variables free in p: used by a send or an `if` test
    outside every receive that binds them."""
    def names(e):
        match e:
            case sx.Var(x):
                return {x}
            case sx.Unop(_, a):
                return names(a)
            case sx.Binop(_, a, b):
                return names(a) | names(b)
        return set()

    out, todo = set(), [(p, frozenset())]
    while todo:
        q, bound = todo.pop()
        if isinstance(q, sx.Send):
            out |= names(q.expr) - bound
        elif isinstance(q, sx.If):
            out |= names(q.test) - bound
        elif isinstance(q, sx.Receive):
            bound |= {q.var}
        todo.extend((c, bound) for c in reference_children(q))
    return out


def reference_check_progress(gamma, p, depth=10, subset_budget=512,
                             max_states=2000):
    """The search as first written: every connected pick of every state
    builds its piece and, when it counts (`reference_counts`) and is
    irreducible, goes through `_cut_failure`, with nothing shared.
    Only connected picks spend the budget."""
    tc.check(gamma, p)  # propagate ill-typedness to the caller

    verdict = dg.is_transparent(gamma, p)
    if verdict.ok:
        return pg.ProgressResult(
            "certificate",
            "transparent: every reachable decomposition stays completable")

    bound_hit = False
    start = cg.normal_form(p).process()
    seen = {cg.canonical_key(start)}
    frontier = [start]
    visited = 0

    while frontier:
        nxt = []
        for state in frontier:
            visited += 1
            nf = cg.normal_form(state)
            threads = nf.threads
            budget = subset_budget
            for size in range(1, len(threads) + 1):
                for pick in itertools.combinations(range(len(threads)), size):
                    cut = tuple(threads[i] for i in pick)
                    if not reference_connected(cut):
                        continue
                    if budget == 0:
                        bound_hit = True
                        break
                    budget -= 1
                    piece = reduce(sx.Par, cut)
                    if not reference_counts(cut) or sm.redexes(piece):
                        continue
                    bad = pg._cut_failure(gamma, cut)
                    if bad is not None:
                        failed, partner = bad
                        return pg.ProgressResult(
                            "counterexample",
                            f"stuck decomposition: {pg._CONDITIONS[failed]}",
                            state=state, cut=cut,
                            partner=partner, failed=failed,
                            states_seen=visited, bound_hit=bound_hit)
            succs = sm.redexes(state)
            if depth <= 0:
                if succs:
                    bound_hit = True
                continue
            for r in succs:
                q = sm.step(state, r)
                key = cg.canonical_key(q)
                if key in seen:
                    continue
                if len(seen) >= max_states:
                    bound_hit = True
                    continue
                seen.add(key)
                nxt.append(q)
        depth -= 1
        frontier = nxt

    return pg.ProgressResult(
        "inconclusive",
        "no refutation within the search bounds; only transparency "
        "certifies", states_seen=visited, bound_hit=bound_hit)


def outcome(search, gamma, p, **bounds):
    """What a search answers, in terms that do not depend on binder ids."""
    try:
        r = search(gamma, p, **bounds)
    except tc.TypingError as e:
        return ("ill-typed", str(e))
    return (r.verdict, r.reason, r.failed, r.states_seen, r.bound_hit,
            None if r.state is None else cg.canonical_key(r.state),
            len(r.cut),
            cg.canonical_key(reduce(sx.Par, r.cut)) if r.cut else None,
            None if r.partner is None else sf.print_process(r.partner))


def agree(gamma, p, **bounds):
    """The search and the reference answer alike, and every state the
    search walks carries the redexes the reference finds afresh."""
    want = outcome(reference_check_progress, gamma, p, **bounds)
    explore = sm.explore

    def checked(*args, **kwargs):
        for q, rs in explore(*args, **kwargs):
            assert rs == reference_redexes(q)
            yield q, rs

    sm.explore = checked
    try:
        assert outcome(pg.check_progress, gamma, p, **bounds) == want
    finally:
        sm.explore = explore
    return want


@pytest.mark.parametrize("budget", [1, 2, 3, 4, 5, 6, 8, 12, 512])
def test_search_agrees_with_the_reference_on_the_corpus(budget):
    for name in SOURCES:
        src = load(name)
        agree(src.gamma, src.process, depth=5, subset_budget=budget)


@pytest.mark.parametrize("scale", [0.3, 1.0])
@pytest.mark.parametrize("budget", [3, 512])
def test_search_agrees_with_the_reference_on_generated_refutations(budget,
                                                                   scale):
    # at full scale the files include the 4-cycle, (3,1) and (2,2)
    # cycle sets, whose stuck pieces span the most independent parts
    verdicts = set()
    for case in S.bench_gen().refute(1, scale=scale):
        src = sf.parse_source(case.text)
        verdicts.add(agree(src.gamma, src.process, subset_budget=budget)[0])
    assert verdicts == {"inconclusive", "counterexample"}


@given(st.integers(0, 10_000), st.integers(1, 12) | st.just(512),
       st.integers(0, 4))
@settings(deadline=None, max_examples=40)
def test_search_agrees_with_the_reference_on_generated_input(seed, budget,
                                                             depth):
    rng = random.Random(seed)
    bounds = {"depth": depth, "subset_budget": budget}
    agree(*S.well_typed(rng), **bounds)
    agree({}, S.cyclic(rng), **bounds)
    agree(*S.irreducible_live(rng), **bounds)
    agree(*S.typed_cycles(rng), **bounds)


def count_calls(monkeypatch, module, name):
    """Count the calls of module.name from now on; read counter[0]."""
    counter = [0]
    real = getattr(module, name)

    def counted(*args, **kwargs):
        counter[0] += 1
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return counter


def test_each_distinct_stuck_piece_is_checked_once(monkeypatch):
    # three live two-channel cycles: 27 states, and 5**3 - 1 distinct
    # stuck pieces (each cycle contributes one of its five irreducible
    # shapes, or nothing); only the 4 * 3 single threads are connected
    # and stuck, so only they are checked, and as each is acyclic it
    # passes without a partner
    src = sf.parse_source(
        "sessions a0, b0, a1, b1, a2, b2;"
        " a0!(17).b0!(72).0 | a0?(x).b0?(y).0 | a1!(97).b1!(8).0"
        " | a2!(32).b2!(15).0 | a2?(x).b2?(y).0 | a1?(x).b1?(y).0")
    checks = count_calls(monkeypatch, pg, "_cut_failure")
    calls = count_calls(monkeypatch, pg, "construct_partner")
    scans = count_calls(monkeypatch, sm, "redexes")
    transparent = calls_by_caller(monkeypatch, "is_transparent", dg)
    typed = calls_by_caller(monkeypatch, "check", tc)
    r = pg.check_progress(src.gamma, src.process)
    assert (r.verdict, r.states_seen, r.bound_hit) == ("inconclusive", 27,
                                                        False)
    assert (checks[0], calls[0]) == (4 * 3, 0)
    # one scan for the start (every later state carries its parent's
    # redexes); a cut check that builds no partner scans nothing
    assert scans[0] == 1
    # the search types its start, for transparency, and nothing else:
    # no piece needs a partner, so none is typed
    assert [caller for caller, _ in transparent] == ["check_progress"]
    assert Counter(caller for caller, _ in typed) == {"is_transparent": 1}


def test_threads_share_a_number_exactly_when_they_print_alike():
    # the search numbers threads by their rows' pieces: a `|` nested
    # either way and a negative literal written either way print alike
    # and give equal pieces; one other free channel gives other pieces
    k, j = sx.chan("k"), sx.chan("j")
    one, stop = sx.IntLit(1), sx.Stop()
    send = sx.Send(j, one, stop)
    left = sx.Receive(k, "x", sx.Par(sx.Par(send, stop), stop))
    right = sx.Receive(k, "x", sx.Par(send, sx.Par(stop, stop)))
    literal = sx.Send(k, sx.IntLit(-1), stop)
    negated = sx.Send(k, sx.Unop("-", one), stop)
    other = sx.Send(j, sx.IntLit(-1), stop)
    for a, b, alike in [(left, right, True), (literal, negated, True),
                        (literal, other, False), (negated, other, False)]:
        assert (cg._row(a).pieces == cg._row(b).pieces) is alike
        assert (sf.print_process(a) == sf.print_process(b)) is alike
    assert sf.print_process(left) == "k?(x).(j!(1).0 | 0 | 0)"
    assert sf.print_process(negated) == "k!(-1).0"


def cycles(n):
    """n two-channel cycles `a!(i).b!(7).0 | a?(x).b?(y).0`."""
    return sf.parse_source(
        "sessions " + ", ".join(f"a{i}, b{i}" for i in range(n)) + "; "
        + " | ".join(f"a{i}!({i}).b{i}!(7).0 | a{i}?(x).b{i}?(y).0"
                     for i in range(n)))


def test_independent_cycles_need_no_partner(monkeypatch):
    # five cycles: 2,612 distinct stuck pieces, of which only the 20
    # single threads are connected, so only they are checked; each is
    # acyclic, so none needs a partner, and no state spends its budget
    src = cycles(5)
    calls = count_calls(monkeypatch, pg, "construct_partner")
    r = pg.check_progress(src.gamma, src.process)
    assert (r.verdict, r.states_seen, r.bound_hit) == ("inconclusive", 243,
                                                        False)
    assert calls[0] == 0


def test_cut_checks_build_their_partners_through_construct_partner(
        monkeypatch):
    # the search has one partner path: each cut check that reaches a
    # cyclic piece a partner could complete builds that piece's partner
    # there; the acyclic pieces pass before it
    src = load("circular_waits")
    checked, real = [], pg._cut_failure

    def cut_failure(gamma, cut):
        checked.append(cut)
        return real(gamma, cut)

    monkeypatch.setattr(pg, "_cut_failure", cut_failure)
    built = calls_by_caller(monkeypatch, "construct_partner", pg)
    r = pg.check_progress(src.gamma, src.process)
    assert (r.verdict, r.failed) == ("counterexample", "no-partner")
    reached = [cut for cut in checked if reference_counts(cut)]
    assert len(reached) == len(checked) == 3
    cyclic = [cut for cut in reached if reference_cyclic(reduce(sx.Par, cut))]
    assert cyclic == [r.cut]
    assert [caller for caller, _ in built] == ["_cut_failure"]


def test_the_walk_keys_each_state_once(monkeypatch):
    # on the benchmark's live-cycle files, steps that commute reach the
    # very same thread objects, so each state is keyed once however
    # many steps reach it
    keys = count_calls(monkeypatch, cg, "canonical_key")
    live = [case for case in S.bench_gen().refute(1)
            if case.expect["verdict"] == "inconclusive"]
    assert len(live) == 10
    for case in live:
        src = sf.parse_source(case.text)
        keys[0] = 0
        r = pg.check_progress(src.gamma, src.process)
        assert keys[0] == r.states_seen == case.expect["states_seen"]


def test_the_walk_stops_stepping_once_the_state_bound_is_hit(monkeypatch):
    # eight cycles: the search stepped every successor of every state
    # to learn of states it had no room for, 13,176 steps; the walk
    # stops stepping at the first state beyond the bound
    src = cycles(8)
    steps = count_calls(monkeypatch, sm, "_step")
    r = pg.check_progress(src.gamma, src.process)
    assert (r.verdict, r.states_seen, r.bound_hit) == ("inconclusive", 2000,
                                                        True)
    assert steps[0] <= 7_574


def test_the_search_prints_each_thread_object_once(monkeypatch, tmp_path):
    # five cycles: `canonical_key` printed 10,280 threads when it printed
    # every thread of every state at least twice; now it lays out each
    # thread object once per search, into its row
    laid_out = calls_by_caller(monkeypatch, "pieces", sf, cg)
    live = calls_by_caller(monkeypatch, "_completable", pg)
    checks = count_calls(monkeypatch, pg, "_cut_failure")
    src = cycles(5)
    r = pg.check_progress(src.gamma, src.process)
    assert r.states_seen == 243
    assert {caller for caller, _ in laid_out} == {"_row"}
    printed = [t for _, t in laid_out]
    assert len({id(t) for t in printed}) == len(printed)
    assert 5 * len(printed) <= 10_280
    # rows hold no liveness: `_completable` is its one walk, asked once
    # per cut check, that is for the 20 single threads; each is acyclic,
    # so `construct_partner`, whose precondition it also is, never runs
    assert not hasattr(cg, "has_live_channels")
    assert Counter(caller for caller, _ in live) == {"_cut_failure": 20}
    assert checks[0] == 20

    # in one `run`, `run --all` or `progress` call, a thread object is
    # laid out once, for its row's pieces; `run --all` prints from the
    # rows that keyed its states.  Only a counterexample's state, cut and
    # partner are printed whole, by the CLI.
    monkeypatch.undo()
    laid_out = calls_by_caller(monkeypatch, "pieces", sf, cg)
    printed = calls_by_caller(monkeypatch, "print_process", sf, cli, cg, dg,
                              pg, sm, tc)
    for argv in cli_calls(tmp_path):
        laid_out.clear()
        printed.clear()
        assert cli.main(argv) in (0, 1), argv
        rowed = [t for caller, t in laid_out if caller == "_row"]
        assert rowed and len({id(t) for t in rowed}) == len(rowed), argv
        assert {caller for caller, _ in laid_out} <= {"_row",
                                                      "print_process"}, argv
        assert {caller for caller, _ in printed} <= {"_cmd_progress"}, argv


def _inner_code(fns):
    """The code objects of fns and of the functions and generator
    expressions defined in them."""
    todo = [f.__code__ for f in fns]
    out = set()
    while todo:
        code = todo.pop()
        out.add(code)
        todo.extend(c for c in code.co_consts if isinstance(c, CodeType))
    return out


def test_the_pick_loop_runs_no_generator_or_all():
    # five cycles: the per-pick redex test was a generator of `all`s,
    # millions of steps; picks, moves and ties are masks now, so the
    # loop, its mask helpers and the walk that feeds it step no
    # generator and call no `all`/`any`
    loop = _inner_code([pg.check_progress, pg._adjacency, pg._grow,
                        sm.explore])
    steps = Counter()

    def profile(frame, event, arg):
        if frame.f_code not in loop:
            return
        if event == "call" and frame.f_code.co_name == "<genexpr>":
            steps["generator"] += 1
        elif event == "c_call" and arg in (all, any):
            steps[arg.__name__] += 1

    src = cycles(5)
    sys.setprofile(profile)
    try:
        r = pg.check_progress(src.gamma, src.process)
    finally:
        sys.setprofile(None)
    assert r.states_seen == 243
    assert steps == Counter()


def search_outcome(gamma, threads):
    """What the search answers on these threads side by side: the
    verdict, the failed condition, and the cut's size and key."""
    r = pg.check_progress(gamma, reduce(sx.Par, threads, sx.Stop()))
    return (r.verdict, r.failed, len(r.cut),
            cg.canonical_key(reduce(sx.Par, r.cut)) if r.cut else None)


@given(st.integers(0, 10_000))
@settings(deadline=None, max_examples=150)
def test_shuffling_independent_parts_keeps_the_outcome(seed):
    # groups that share no name are never picked together: the whole
    # fails exactly when a group fails alone, as the smallest failing
    # group does.  Shuffling the threads keeps the verdict, the failed
    # condition and the cut's key; the thread order only decides
    # between groups that fail at the same smallest size.
    rng = random.Random(seed)
    gamma, units = S.independent_units(rng)
    threads = [t for ts in units for t in ts]
    got = search_outcome(gamma, threads)
    rng.shuffle(threads)
    shuffled = search_outcome(gamma, threads)
    assert got[0] == shuffled[0]
    failing = {o for ts in units if ts
               if (o := search_outcome(gamma, ts))[0] == "counterexample"}
    assert (got[0] == "counterexample") == bool(failing)
    if failing:
        size = min(o[2] for o in failing)
        smallest = {o for o in failing if o[2] == size}
        assert got in smallest and shuffled in smallest
        if len(smallest) == 1:
            assert got == shuffled


# ------------------------------------------------- every counterexample holds

def assert_genuine(gamma, r):
    """The cut is a connected stuck piece of its state, live or holding
    an accept or serve, with a cyclic cluster graph (an acyclic piece is
    transparent, so has progress), that fails what it says by the
    definition: no partner, or a stuck partner typed with it under which
    the pair does not reduce (c) or reduces to no transparent process
    (d)."""
    assert r.verdict == "counterexample"
    threads = cg.normal_form(r.state).threads
    assert Counter(r.cut) <= Counter(threads)
    piece = reduce(sx.Par, r.cut)
    assert sm.redexes(piece) == []
    assert reference_connected(r.cut)
    assert reference_counts(r.cut)
    assert reference_cyclic(piece)
    # the failed condition, derived afresh with typing included: only
    # the partner is shared with the search
    got = pg.construct_partner(gamma, piece)
    if got is None:
        failed = "no-partner"
    else:
        partner, ext = got
        assert sf.print_process(partner) == sf.print_process(r.partner)
        assert reference_redexes(partner) == []
        genv = {**gamma, **ext}
        pair = sx.Par(piece, partner)
        tc.check(genv, pair)
        rs = reference_redexes(pair)
        reducts = [sm.step(pair, x).process() for x in rs]
        if not rs:
            failed = "c"
        elif any(dg.is_transparent(genv, q).ok for q in reducts):
            failed = None
        else:
            failed = "d"
    assert failed == r.failed


def test_corpus_counterexamples_are_genuine():
    found = 0
    for name in SOURCES:
        src = load(name)
        r = pg.check_progress(src.gamma, src.process, depth=5)
        if r.verdict == "counterexample":
            assert_genuine(src.gamma, r)
            found += 1
    assert found >= 4


@given(st.integers(0, 10_000))
@settings(deadline=None, max_examples=60)
def test_generated_counterexamples_are_genuine(seed):
    gamma, p = S.typed_cycles(random.Random(seed))
    r = pg.check_progress(gamma, p, depth=6)
    if r.verdict == "counterexample":
        assert_genuine(gamma, r)
