import random
from collections import Counter
from functools import reduce
from itertools import compress, product

import pytest
from hypothesis import given, settings, strategies as st

import sessionpi.congruence as cg
import sessionpi.semantics as sm
import sessionpi.surface as sf
import sessionpi.syntax as sx
import sessionpi.typecheck as tc
import strategies as S
from sessionpi.examples import SOURCES, load
from test_reference_oracles import reference_redexes, reference_subject


def parse(s, sessions=(), gamma=None):
    return sf.parse_process(s, sessions=sessions, gamma=gamma)


def states(p, depth, *bounds, **kwargs):
    """The states `explore` walks, without their redexes."""
    return [q for q, _ in sm.explore(p, depth, *bounds, **kwargs)]


# ----------------------------------------------------------------- eval_expr

def test_eval_expr():
    e = sf.parse_process("k!(1 + 2 * 3).0", sessions=("k",)).expr
    assert sm.eval_expr(e) == 7
    e = sf.parse_process('k!("a" = "a").0', sessions=("k",)).expr
    assert sm.eval_expr(e) is True
    e = sf.parse_process("k!(not (1 < 2)).0", sessions=("k",)).expr
    assert sm.eval_expr(e) is False


def test_eval_expr_rejects_open_and_ill_sorted():
    with pytest.raises(sm.EvalError):
        sm.eval_expr(sx.Var("x"))
    with pytest.raises(sm.EvalError):
        sm.eval_expr(sx.Binop("+", sx.IntLit(1), sx.BoolLit(True)))
    with pytest.raises(sm.EvalError):
        sm.eval_expr(sx.Binop("=", sx.IntLit(1), sx.StrLit("1")))


# ------------------------------------------------------------------- redexes

def test_communication_fires_only_when_closed():
    p = parse("k?(x).0 | k!(1 + 1).0", sessions=("k",))
    rs = sm.redexes(p)
    assert [r.rule for r in rs] == ["Com"]
    assert rs[0].value == 2
    # an open payload (only possible in a hand-built term) is no redex
    k = sx.chan("k")
    q = sx.Par(sx.Receive(k, "x", sx.Stop()),
               sx.Send(k, sx.Binop("+", sx.Var("y"), sx.IntLit(1)),
                       sx.Stop()))
    assert sm.redexes(q) == []


def test_conditional_needs_a_closed_boolean():
    assert [r.rule for r in sm.redexes(parse("if 1 < 2 then 0 else 0"))] \
        == ["IfT"]
    open_if = sx.If(sx.Var("x"), sx.Stop(), sx.Stop())
    assert sm.redexes(open_if) == []


def test_blocked_delegation_has_no_redex():
    src = load("blocked_delegation")
    assert sm.redexes(src.process) == []


def test_delegation_renames_when_the_bound_name_is_fresh():
    src = load("delegation_race")
    rs = sm.redexes(src.process)
    assert [r.rule for r in rs] == ["Del"]
    after = sm.step(src.process, rs[0])
    want = parse("k!(5).0 | k1?(x).0 | k?(x).k1!(7).0",
                 sessions=("k", "k1"))
    assert cg.canonical_key(after) == cg.canonical_key(want)


def test_select_picks_the_offered_arm():
    p = parse("k >> {a: k?(x).0, b: 0} | k << a . k!(1).0",
              sessions=("k",))
    rs = sm.redexes(p)
    assert [r.rule for r in rs] == ["Sel"]
    assert rs[0].label == "a"
    after = sm.step(p, rs[0])
    want = parse("k?(x).0 | k!(1).0", sessions=("k",))
    assert cg.canonical_key(after) == cg.canonical_key(want)


def test_select_without_matching_arm_is_stuck():
    p = parse("k >> {a: 0} | k << c . 0", sessions=("k",))
    assert sm.redexes(p) == []


def test_service_invocation_keeps_the_server():
    src = load("buyer_seller")
    rs = sm.redexes(src.process)
    assert [r.rule for r in rs] == ["RInit"]
    after = cg.normal_form(sm.step(src.process, rs[0]))
    assert len(after.binders) == 1
    kinds = sorted(type(t).__name__ for t in after.threads)
    assert kinds == ["Receive", "Send", "Serve", "Serve"]
    fresh = after.binders[0]
    heads = {t.chan for t in after.threads
             if isinstance(t, (sx.Receive, sx.Send))}
    assert heads == {fresh}


def test_accept_is_consumed_on_invocation():
    g = {"a": sx.ServiceSort(sf.parse_type("?[int].end"))}
    p = parse("a(k).k?(x).0 | a<k>.k!(3).0", gamma=g)
    rs = sm.redexes(p)
    assert [r.rule for r in rs] == ["Init"]
    after = cg.normal_form(sm.step(p, rs[0]))
    assert all(not isinstance(t, (sx.Accept, sx.Serve))
               for t in after.threads)
    assert len(after.binders) == 1


def test_step_rejects_stale_redexes():
    p = parse("k?(x).0 | k!(1).0", sessions=("k",))
    r = sm.redexes(p)[0]
    q = sm.step(p, r)
    with pytest.raises(ValueError):
        sm.step(q, r)


def test_continuations_keep_their_thread_positions():
    src = load("delegation_race")
    import sessionpi.depgraph as dg
    before = {(i, j, c.base) for i, j, c
              in dg.build_graph(cg.normal_form(src.process).process()).edges}
    assert before == {(0, 1, "k"), (1, 2, "k1")}
    after_p = sm.step(src.process, sm.redexes(src.process)[0])
    after = {(i, j, c.base) for i, j, c
             in dg.build_graph(cg.normal_form(after_p).process()).edges}
    assert after == {(0, 2, "k"), (1, 2, "k1")}


# ------------------------------------------------- step and its oracle

def reference_step(p, r):
    """`step` as first written: a shape check per rule, then the whole
    state rebuilt as one term and flattened again."""
    def stale(why):
        return ValueError(f"stale redex {r.describe()}: {why}")

    nf = cg.normal_form(p)
    threads, binders = list(nf.threads), list(nf.binders)
    n = len(threads)
    if not (0 <= r.i < n) or (r.j is not None and not (0 <= r.j < n)):
        raise stale("thread position out of range")
    ti = threads[r.i]
    tj = threads[r.j] if r.j is not None else None
    match r.rule:
        case "RInit":
            if not (isinstance(ti, sx.Serve) and isinstance(tj, sx.Request)
                    and ti.service == tj.service):
                raise stale("no matching serve and request")
            fresh = ti.chan.fresh()
            body = sx.refresh(ti.body)
            threads[r.j] = sx.Par(sx.subst_chan(body, ti.chan, fresh),
                                  sx.subst_chan(tj.body, tj.chan, fresh))
            binders.append(fresh)
        case "Init":
            if not (isinstance(ti, sx.Accept) and isinstance(tj, sx.Request)
                    and ti.service == tj.service):
                raise stale("no matching accept and request")
            fresh = ti.chan.fresh()
            threads[r.i] = sx.subst_chan(ti.body, ti.chan, fresh)
            threads[r.j] = sx.subst_chan(tj.body, tj.chan, fresh)
            binders.append(fresh)
        case "Com":
            if not (isinstance(ti, sx.Receive) and isinstance(tj, sx.Send)
                    and ti.chan == tj.chan):
                raise stale("no matching receive and send")
            v = sm.eval_expr(tj.expr)
            threads[r.i] = sx.substitute(ti.body, ti.var, sm.value_expr(v))
            threads[r.j] = tj.body
        case "Del":
            if not (isinstance(ti, sx.ReceiveSession)
                    and isinstance(tj, sx.SendSession)
                    and ti.chan == tj.chan):
                raise stale("no matching session receive and delegation")
            m, sent = ti.bound, tj.sent
            if m != sent and sent in sx.free_session_channels(ti.body):
                raise stale(f"{sent.base} is free in the receiver")
            threads[r.i] = (ti.body if m == sent
                            else sx.subst_chan(ti.body, m, sent))
            threads[r.j] = tj.body
        case "Sel":
            if not (isinstance(ti, sx.Offer) and isinstance(tj, sx.Choose)
                    and ti.chan == tj.chan and ti.arms):
                raise stale("no matching offer and selection")
            arm = next((a for l, a in ti.arms if l == r.label), None)
            if arm is None or tj.label != r.label:
                raise stale(f"label {r.label!r} is not offered")
            threads[r.i] = arm
            threads[r.j] = tj.body
        case "IfT" | "IfF":
            if not isinstance(ti, sx.If):
                raise stale("no conditional at this position")
            v = sm.eval_expr(ti.test)
            if type(v) is not bool or v != (r.rule == "IfT"):
                raise stale("guard no longer evaluates that way")
            threads[r.i] = ti.then if v else ti.els
        case _:
            raise stale(f"unknown rule {r.rule!r}")
    rebuilt = cg.NormalForm(tuple(binders), tuple(threads)).process()
    return cg.normal_form(rebuilt)


def steps_agree(q):
    """Every redex of q steps to the state the reference makes, down to
    the order of its binders and threads."""
    rs = sm.redexes(q)
    for r in rs:
        want = sf.print_process(reference_step(q, r).process())
        assert sf.print_process(sm.step(q, r).process()) == want, r
    return len(rs)


def test_step_agrees_with_the_reference_on_the_corpus():
    assert sum(steps_agree(q) for name in SOURCES
               for q in states(load(name).process, 4)) > 0


def test_step_agrees_with_the_reference_on_generated_simulate_traces():
    for case in S.bench_gen().simulate(1, scale=0.3):
        t = sm.trace(sf.parse_source(case.text).process, 1000)
        assert all(steps_agree(q) for q, _ in t.steps)


@settings(deadline=None, max_examples=60)
@given(st.integers(0, 10_000))
def test_step_agrees_with_the_reference_on_generated_input(seed):
    rng = random.Random(seed)
    for p in (S.well_typed(rng)[1], S.typed_cycles(rng)[1]):
        for q in states(p, 3):
            steps_agree(q)


@pytest.mark.parametrize("taken, applied", [
    # a server, an accept or a request has gone from its position
    ("env a : <end>; *a(k).0 | a<k>.0", "env a : <end>; *a(k).0 | 0 | a(k).0"),
    ("env a : <end>; a(k).0 | a<k>.0", "env a : <end>; a<k>.0 | a(k).0"),
    # the value or the delegated channel no longer matches: a step that
    # reads them from the state rather than from the judge accepts these
    ('sessions k; k?(x).0 | k!(1).0', 'sessions k; k?(x).0 | k!(2).0'),
    ('sessions k; k?(x).0 | k!(1).0', 'sessions k; k?(x).0 | k!(true).0'),
    ("sessions k, j, l; k?((m)).0 | k!((j)).0",
     "sessions k, j, l; k?((m)).0 | k!((l)).0"),
    # the label is no longer chosen, or no longer offered
    ("sessions k; k >> {a: 0, b: 0} | k << a . 0",
     "sessions k; k >> {a: 0, b: 0} | k << b . 0"),
    ("sessions k; k >> {a: 0, b: 0} | k << a . 0",
     "sessions k; k >> {b: 0} | k << a . 0"),
    # the guard now evaluates the other way
    ("if true then 0 else 0", "if false then 0 else 0"),
    ("if false then 0 else 0", "if 1 < 2 then 0 else 0"),
    # the two sides have swapped positions
    ("sessions k; k?(x).0 | k!(1).0", "sessions k; k!(1).0 | k?(x).0"),
])
def test_step_rejects_a_redex_the_judge_no_longer_finds(taken, applied):
    [r] = sm.redexes(sf.parse_source(taken).process)
    q = sf.parse_source(applied).process
    with pytest.raises(ValueError, match="stale redex"):
        sm.step(q, r)


def test_step_rejects_unknown_rules_and_positions():
    p = parse("k?(x).0 | k!(1).0", sessions=("k",))
    [r] = sm.redexes(p)
    for bad in (sm.Redex("Com", 0, 5, value=1),
                sm.Redex("Com", -2, -1, value=1),
                sm.Redex("Com", 1, 0, value=1), sm.Redex("Swap", 0, 1),
                sm.Redex("IfT", 0), sm.Redex("Com", 0, 1, value=1, label="a")):
        with pytest.raises(ValueError, match="stale redex"):
            sm.step(p, bad)
    assert sm.step(p, r).threads == ()


# ---------------------------------------------- the redex index and its oracle

def reference_redexes(p):
    """The scan as first written: every ordered pair of threads."""
    threads = cg.normal_form(p).threads
    out = []
    for i, ti in enumerate(threads):
        if isinstance(ti, sx.If):
            try:
                v = sm.eval_expr(ti.test)
            except sm.EvalError:
                continue
            if type(v) is bool:
                out.append(sm.Redex("IfT" if v else "IfF", i))
            continue
        for j, tj in enumerate(threads):
            if i == j:
                continue
            r = sm._pair_redex(i, ti, j, tj)
            if r is not None:
                out.append(r)
    return out


def agree(p):
    want = reference_redexes(p)
    assert sm.redexes(p) == want
    return want


def test_redex_index_agrees_with_the_pairwise_scan_on_the_corpus():
    for name in SOURCES:
        for q in states(load(name).process, 4):
            agree(q)


def test_redex_index_agrees_on_a_generated_simulate_trace():
    for case in S.bench_gen().simulate(1, scale=0.3):
        t = sm.trace(sf.parse_source(case.text).process, 1000)
        for q, _ in t.steps:
            assert agree(q)
        assert agree(t.final) == []


@settings(deadline=None, max_examples=60)
@given(st.integers(0, 10_000))
def test_redex_index_agrees_on_generated_input(seed):
    rng = random.Random(seed)
    for p in (S.well_typed(rng)[1], S.cyclic(rng), S.typed_cycles(rng)[1]):
        agree(p)


def test_a_service_and_a_channel_may_share_a_spelling():
    # service a and session channel a are different names; a's bucket
    # holds several partners, which must come out in position order
    a, c = sx.svc("a"), sx.chan("a")
    one = sx.IntLit(1)
    p = reduce(sx.Par, [
        sx.Send(c, one, sx.Stop()),
        sx.Accept(a, sx.bound_chan("k"), sx.Stop()),
        sx.Request(a, sx.bound_chan("k"), sx.Stop()),
        sx.Receive(c, "x", sx.Stop()),
        sx.Serve(a, sx.bound_chan("k"), sx.Stop()),
        sx.Request(a, sx.bound_chan("k"), sx.Stop()),
        sx.Send(c, one, sx.Stop()),
        sx.Offer(c, (("go", sx.Stop()),)),
        sx.Choose(c, "go", sx.Stop()),
    ])
    assert [r.describe() for r in agree(p)] == [
        "Init@1,2", "Init@1,5", "Com@3,0 1", "Com@3,6 1",
        "RInit@4,2", "RInit@4,5", "Sel@7,8 go"]


def disjoint_pairs(n):
    return reduce(sx.Par, [t for i in range(n) for t in (
        sx.Send(sx.chan(f"c{i}"), sx.IntLit(1), sx.Stop()),
        sx.Receive(sx.chan(f"c{i}"), "x", sx.Stop()))])


@pytest.mark.parametrize("n", [50, 200])
def test_each_input_tries_only_the_outputs_on_its_subject(monkeypatch, n):
    # one pair test per receive; the pairwise scan makes 2n(2n - 1)
    calls = 0
    pair = sm._pair_redex

    def counted(*args):
        nonlocal calls
        calls += 1
        return pair(*args)

    monkeypatch.setattr(sm, "_pair_redex", counted)
    assert len(sm.redexes(disjoint_pairs(n))) == n
    assert calls == n


# -------------------------------------------------------------------- explore

def test_explore_all_reaches_the_terminal():
    p = parse("k?(x).k1!(x).0 | k!(5).0 | k1?(y).0", sessions=("k", "k1"))
    keys = {cg.canonical_key(q) for q in states(p, 10)}
    assert cg.canonical_key(p) in keys
    assert cg.canonical_key(sx.Stop()) in keys


def test_explore_respects_the_depth_bound():
    # a three-message session: one new state per step, four in all
    p = parse("k!(1).k!(2).k!(3).0 | k?(x).k?(y).k?(z).0", sessions=("k",))
    counts = [len(states(p, d)) for d in range(6)]
    assert counts == [1, 2, 3, 4, 4, 4]


def test_explore_reports_its_cuts_and_steps_only_on_demand(monkeypatch):
    # four states in a line, the last terminal
    p = parse("k!(1).k!(2).k!(3).0 | k?(x).k?(y).k?(z).0", sessions=("k",))
    for depth, max_states, want in [(0, 0, {"depth"}), (2, 10, {"depth"}),
                                    (3, 10, set()), (3, 4, set()),
                                    (3, 2, {"max-states"})]:
        cuts = set()
        states(p, depth, max_states, cuts=cuts)
        assert cuts == want, (depth, max_states)
    stepped = []
    real = sm._step

    def counted(q, r):
        stepped.append(r)
        return real(q, r)

    monkeypatch.setattr(sm, "_step", counted)
    walk = sm.explore(p, 10)
    next(walk)
    assert stepped == []  # the start is stepped only once asked for more
    next(walk)
    assert len(stepped) == 1


def test_explore_stops_at_the_state_bound():
    # the bounded search keeps the unbounded one's first states, in order
    for name in SOURCES:
        p = load(name).process
        every = cg.print_states(states(p, 4))
        for n in range(len(every) + 2):
            bounded = cg.print_states(states(p, 4, n))
            assert bounded == every[:max(n, 1)], (name, n)


def test_dead_restrictions_do_not_split_states():
    # every init leaves `new k` behind with no thread using it, so the
    # spawned states are all congruent to the start
    src = sf.parse_source("env a : <end>; *a(k).a<k1>.0 | a<k>.0")
    assert len(states(src.process, 10)) == 1
    p = sm.step(src.process, sm.redexes(src.process)[0])
    assert cg.normal_form(p).binders
    assert cg.canonical_key(p) == cg.canonical_key(src.process)


def reference_explore(p, depth, max_states):
    """A breadth-first walk that prunes nothing: every state's redexes
    found afresh by `redexes` and every one of them taken by `step`,
    states told apart by `canonical_key`.  Returns each state's key and
    its redexes described, the bounds that cut the walk short, and how
    many steps left a state with restrictions."""
    start = cg.normal_form(p)
    seen = {cg.canonical_key(start)}
    level, out, cuts, restricted = [start], [], set(), 0
    full = False
    while level:
        nxt = []
        for q in level:
            rs = sm.redexes(q)
            out.append((cg.canonical_key(q), [r.describe() for r in rs]))
            if depth <= 0:
                if rs:
                    cuts.add("depth")
                continue
            for r in rs:
                if full:
                    break
                q2 = sm.step(q, r)
                restricted += bool(q.binders or q2.binders)
                key = cg.canonical_key(q2)
                if key in seen:
                    continue
                if len(seen) >= max_states:
                    cuts.add("max-states")
                    full = True
                else:
                    seen.add(key)
                    nxt.append(q2)
        depth -= 1
        level = nxt
    return out, cuts, restricted


def explores_like_the_reference(p, depth, max_states):
    """`explore` yields the reference's keys and redexes in its order
    and fills the same cuts; returns the reference's cuts and its count
    of steps between states with restrictions."""
    want, want_cuts, restricted = reference_explore(p, depth, max_states)
    cuts = set()
    got = [(cg.canonical_key(q), [r.describe() for r in rs])
           for q, rs in sm.explore(p, depth, max_states, cuts=cuts)]
    assert got == want
    assert cuts == want_cuts
    return want_cuts, restricted


EXPLORE_BOUNDS = [(10, 2000), (4, 30), (2, 5), (3, 1)]


def test_explore_agrees_with_a_walk_that_prunes_nothing():
    # the sleep sets skip only steps that re-reach a state: on the
    # samples and the benchmark's `refute` files, with the depth and
    # the state bound each hit and not hit, the walk is the same
    starts = [load(name).process for name in SOURCES]
    for seed in (1, 2, 3):
        starts += [sf.parse_source(case.text).process
                   for case in S.bench_gen().refute(seed)]
    cuts = Counter()
    restricted = 0
    for p in starts:
        for depth, max_states in EXPLORE_BOUNDS:
            hit, n = explores_like_the_reference(p, depth, max_states)
            cuts[frozenset(hit)] += 1
            restricted += n
    assert {frozenset(), frozenset({"depth"}),
            frozenset({"max-states"})} <= set(cuts), cuts
    assert restricted > 0


@settings(deadline=None, max_examples=60)
@given(st.integers(0, 10_000), st.sampled_from(EXPLORE_BOUNDS))
def test_explore_agrees_with_the_reference_walk_on_generated_input(
        seed, bounds):
    rng = random.Random(seed)
    for gen in (S.well_typed, S.program, S.typed_cycles,
                S.irreducible_live):
        explores_like_the_reference(gen(rng)[1], *bounds)
    # untyped races: two redexes can share a thread, and a step can
    # open a restriction, so neither may put a redex to sleep
    explores_like_the_reference(S.races(rng), *bounds)


def test_generated_walks_cover_where_no_redex_sleeps():
    # a redex sleeps only in a state without restrictions and beside a
    # step on other threads.  `well_typed` serves and requests and
    # `program` also accepts, so their walks open sessions; the races
    # hold redexes that share a thread.  There too `explore` walks as
    # the reference does
    opened = restricted = shared = 0
    for seed in range(20):
        rng = random.Random(seed)
        for p in (S.well_typed(rng)[1], S.program(rng)[1], S.races(rng)):
            restricted += explores_like_the_reference(p, 6, 2000)[1]
            for _, rs in sm.explore(p, 6):
                opened += sum(r.rule in ("Init", "RInit") for r in rs)
                sides = Counter(k for r in rs for k in (r.i, r.j)
                                if k is not None)
                shared += any(n > 1 for n in sides.values())
    assert opened > 0
    assert restricted > 0
    assert shared > 0


def test_seeded_traces_are_reproducible():
    src = load("buyer_seller")
    t1 = sm.trace(src.process, 8, seed=42)
    t2 = sm.trace(src.process, 8, seed=42)
    assert [r.describe() for _, r in t1.steps] == \
        [r.describe() for _, r in t2.steps]
    assert cg.canonical_key(t1.final) == cg.canonical_key(t2.final)


def test_default_trace_takes_the_first_redex():
    p = parse("k?(x).0 | k!(1).0 | j?(x).0 | j!(2).0", sessions=("k", "j"))
    t = sm.trace(p, 1)
    assert t.steps[0][1].rule == "Com"
    assert t.steps[0][1].value == 1


def count_flattening(monkeypatch):
    """Record (term, threads) for every flattening of a term; a state
    handed back to `normal_form` is not flattened again."""
    seen = []
    normal_form = cg.normal_form

    def counted(p):
        nf = normal_form(p)
        if not isinstance(p, cg.NormalForm):
            seen.append((p, len(nf.threads)))
        return nf

    monkeypatch.setattr(cg, "normal_form", counted)
    return seen


def test_the_start_is_flattened_once_and_printing_flattens_nothing(
        monkeypatch):
    seen = count_flattening(monkeypatch)
    p = load("buyer_seller").process
    t = sm.trace(p, 100)
    assert len(t) == 7
    assert sum(q is p for q, _ in seen) == 1
    seen.clear()
    sm.trace_records(t)
    sm.trace_lines(t)
    assert seen == []


def beside_dormant_servers(p, n):
    def server(i):
        k = sx.bound_chan("k")
        return sx.Serve(sx.svc(f"d{i}"), k, sx.Receive(k, "x", sx.Stop()))

    servers = [server(i) for i in range(n)]
    return reduce(sx.Par, servers[:n // 2] + [p] + servers[n // 2:])


def test_step_flattens_only_its_continuations(monkeypatch):
    # the threads `step` flattens do not grow with the untouched ones
    seen = count_flattening(monkeypatch)
    flattened = []
    for n in (10, 100):
        start = cg.normal_form(beside_dormant_servers(
            load("buyer_seller").process, n))
        seen.clear()
        t = sm.trace(start, 100)
        assert len(t) == 7
        assert len(t.final.threads) == n + 2  # the dormant and both services
        flattened.append(sum(m for _, m in seen))
    assert flattened[0] == flattened[1]


def test_a_step_judges_only_pairs_with_its_continuations(monkeypatch):
    # beside 10 and beside 100 dormant servers and as many clients of
    # services nobody serves, a buyer-seller trace after its first
    # state asks the judges equally often: each later state's redexes
    # are carried from its parent's, and only pairs with a continuation
    # thread in them are judged
    judged = Counter()
    for name in ("_pair_redex", "_if_redex"):
        def counted(*args, judge=getattr(sm, name), name=name):
            judged[name] += 1
            return judge(*args)

        monkeypatch.setattr(sm, name, counted)

    def waiting(i):
        k = sx.bound_chan("k")
        return sx.Request(sx.svc(f"w{i}"), k, sx.Receive(k, "x", sx.Stop()))

    after_first = []
    for n in (10, 100):
        p = reduce(sx.Par, [load("buyer_seller").process]
                   + [waiting(i) for i in range(n)])
        start = cg.normal_form(beside_dormant_servers(p, n))
        judged.clear()
        sm.redexes(start)
        first = dict(judged)
        judged.clear()
        assert len(sm.trace(start, 100)) == 7
        after_first.append({k: judged[k] - first.get(k, 0) for k in judged})
    assert after_first[0] == after_first[1]
    assert after_first[0]["_pair_redex"] > 0


def check_carried(monkeypatch):
    """Check every `_carried` result against the reference from now on;
    the returned list's one item counts the results checked."""
    checked = [0]
    carried = sm._carried

    def checking(q, rs, subjects, r, q2, m):
        out = carried(q, rs, subjects, r, q2, m)
        assert out == (reference_redexes(q2),
                       tuple(map(reference_subject, q2.threads))), r
        checked[0] += 1
        return out

    monkeypatch.setattr(sm, "_carried", checking)
    return checked


def test_carried_redexes_agree_with_the_reference(monkeypatch):
    # every state of the default and seeded traces and of the
    # `explore(..., 4)` walks of the samples and of the
    # `simulate(1, scale=0.3)` benchmark files
    checked = check_carried(monkeypatch)
    procs = [load(name).process for name in SOURCES]
    procs += [sf.parse_source(case.text).process
              for case in S.bench_gen().simulate(1, scale=0.3)]
    for p in procs:
        sm.trace(p, 100)
        sm.trace(p, 100, seed=3)
        for q, rs in sm.explore(p, 4):
            assert rs == reference_redexes(q)
    assert checked[0] > 1_000


def test_carried_redexes_when_a_continuation_equals_the_gap(monkeypatch):
    # c!(1).T | T | c?(x).0 | d?(y).0 with T one object in both places:
    # Com@2,0 puts the sender's continuation, the same T, just before
    # the untouched T, so the first continuation ends at 1, not at the
    # first place the untouched threads are found again
    c, d = sx.chan("c"), sx.chan("d")
    t = sx.Send(d, sx.IntLit(1), sx.Stop())
    start = cg.normal_form(reduce(sx.Par, [
        sx.Send(c, sx.IntLit(1), t), t, sx.Receive(c, "x", sx.Stop()),
        sx.Receive(d, "y", sx.Stop())]))
    rs = sm.redexes(start)
    r = rs[0]
    assert r.describe() == "Com@2,0 1"
    q, m = sm._step(start, r)
    assert q.threads[0] is q.threads[1] is t and m == 1
    subjects = tuple(map(sx.subject, start.threads))
    assert sm._carried(start, rs, subjects, r, q, m) == (
        reference_redexes(q), tuple(map(reference_subject, q.threads)))
    checked = check_carried(monkeypatch)
    for p in (start, q):
        for seed in (None, 1, 2, 3):
            sm.trace(p, 10, seed=seed)
        for s, rs in sm.explore(p, 10):
            assert rs == reference_redexes(s)
    assert checked[0] > 0


# ----------------------------------------------------------- printing states

def test_printing_a_step_does_not_grow_with_untouched_threads(monkeypatch):
    # beside 10 and beside 100 dormant servers, printing a buyer-seller
    # trace after its first state fills as many rows and names as
    # many binders again.  The trace's first step drops the request's
    # binder `k`, whose id is below the dormant servers' `k`s, and so
    # respells them all: the trace is printed from its second state on.
    work = Counter()
    choose_names, spell = cg.choose_names, cg.spell

    def naming(binders, *taken):
        binders = list(binders)
        work["named"] += len(binders)
        return choose_names(binders, *taken)

    def filling(pieces, names):
        work["filled"] += 1
        return spell(pieces, names)

    monkeypatch.setattr(cg, "choose_names", naming)
    monkeypatch.setattr(cg, "spell", filling)
    after_first = []
    for n in (10, 100):
        start = cg.normal_form(beside_dormant_servers(
            load("buyer_seller").process, n))
        qs = sm.trace(start, 100).states()[1:]
        work.clear()
        cg.print_states(qs[:1])
        first = dict(work)
        work.clear()
        cg.print_states(qs)
        after_first.append({w: work[w] - first[w] for w in work})
    assert after_first[0] == after_first[1]
    assert after_first[0]["named"] > 0 and after_first[0]["filled"] > 0


def assert_printed_as_processes(qs, table=None):
    assert cg.print_states(qs, table) == [sf.print_process(q.process())
                                          for q in qs]


def test_print_states_agrees_with_printing_each_state():
    # every trace and `explore(..., 4)` state list of the samples and of
    # the `simulate(1, scale=0.3)` benchmark files
    procs = [load(name).process for name in SOURCES]
    procs += [sf.parse_source(case.text).process
              for case in S.bench_gen().simulate(1, scale=0.3)]
    for p in procs:
        assert_printed_as_processes(sm.trace(p, 100).states())
        assert_printed_as_processes(sm.trace(p, 100, seed=3).states())
        assert_printed_as_processes(states(p, 4))
        table = {}  # the rows that keyed the states print them
        assert_printed_as_processes(states(p, 4, table=table), table)


@settings(deadline=None, max_examples=100)
@given(st.integers(0, 10_000))
def test_print_states_agrees_on_generated_traces(seed):
    # a trace; the `run --all` order, where the breadth-first walk jumps
    # between branches; and both in a shuffled order, where threads and
    # restrictions come and go at random
    rng = random.Random(seed)
    for p in (S.well_typed(rng)[1], S.cyclic(rng), S.typed_cycles(rng)[1]):
        qs = sm.trace(p, 30, seed=seed).states()
        assert_printed_as_processes(qs)
        walk = states(p, 3, 50)
        assert_printed_as_processes(walk)
        mixed = qs + walk
        rng.shuffle(mixed)
        assert_printed_as_processes(mixed)


def test_print_states_as_spellings_collide_across_bases():
    # a free `k_1`, binders `k`, a binder spelt `k_1` and a service `k_2`
    # all compete for the spellings of one family; every subset of the
    # threads and of the restrictions is printed, in three orders
    free = sx.chan("k_1")
    ks = [sx.bound_chan("k") for _ in range(3)]
    k1 = sx.bound_chan("k_1")
    threads = [
        sx.Send(free, sx.IntLit(1), sx.Stop()),
        sx.Request(sx.svc("k_2"), ks[0], sx.Send(ks[0], sx.IntLit(2),
                                                  sx.Stop())),
        sx.Receive(ks[1], "x", sx.Send(k1, sx.Var("x"), sx.Stop())),
        sx.Receive(k1, "y", sx.Stop()),
        sx.Receive(sx.chan("j"), "z", sx.New(ks[2], sx.Receive(
            ks[2], "w", sx.Stop()))),
    ]
    restrictions = [ks[1], k1]
    qs = [cg.NormalForm(tuple(compress(restrictions, rs)),
                        tuple(compress(threads, ts)))
          for rs in product((0, 1), repeat=2)
          for ts in product((0, 1), repeat=len(threads))]
    assert_printed_as_processes(qs)
    assert_printed_as_processes(qs[::-1])
    assert_printed_as_processes(random.Random(0).sample(qs, len(qs)))


def test_print_states_of_one_thread_object_twice():
    k, j = sx.bound_chan("k"), sx.bound_chan("k")
    t = sx.Receive(k, "x", sx.Stop())
    u = sx.Send(j, sx.IntLit(1), sx.Stop())
    qs = [cg.NormalForm((k,), (t,)), cg.NormalForm((k, j), (t, u, t)),
          cg.NormalForm((j,), (u, u)), cg.NormalForm((k, j), (t, t, u)),
          cg.NormalForm((k,), (t, t)), cg.NormalForm((j, k), (u, t))]
    assert cg.print_states(qs)[1] == (
        "new k, k_1 . (k?(x).0 | k_1!(1).0 | k?(x).0)")
    assert_printed_as_processes(qs)
    assert_printed_as_processes(qs[::-1])


def test_a_kept_thread_is_printed_again_when_its_names_change():
    # serving the first request drops its binder `k_1`, so the second
    # request, the same thread object in both states, goes from `k_2`
    # to `k_1`
    src = sf.parse_source("env a : <?[int].end>;\n"
                          "*a(k).k?(x).0 | a<k>.k!(1).0 | a<k>.k!(2).0")
    qs = sm.trace(src.process, 100).states()
    assert qs[1].threads[-1] is qs[0].threads[-1]
    shown = cg.print_states(qs)
    assert shown[:2] == [
        "*a(k).k?(x).0 | a<k_1>.k_1!(1).0 | a<k_2>.k_2!(2).0",
        "new k_2 . (*a(k).k?(x).0 | k_2?(x).0 | k_2!(1).0"
        " | a<k_1>.k_1!(2).0)"]
    assert_printed_as_processes(qs)


def test_print_states_of_no_threads_and_of_one():
    k = sx.bound_chan("k")
    one = sx.Receive(k, "x", sx.Stop())
    qs = [cg.NormalForm((), ()), cg.NormalForm((k,), ()),
          cg.NormalForm((), (one,)), cg.NormalForm((k,), (one,))]
    assert cg.print_states(qs) == ["0", "0", "k?(x).0", "new k . k?(x).0"]
    assert_printed_as_processes(qs)


def test_trace_records_shape():
    p = parse("k?(x).0 | k!(1).0", sessions=("k",))
    t = sm.trace(p, 5)
    recs = sm.trace_records(t)
    assert recs[0]["rule"] == "Com" and recs[0]["value"] == 1
    assert recs[-1]["final"] is True
    assert recs[-1]["process"] == "0"


# ----------------------------------------------------------------- properties

@settings(deadline=None)
@given(st.integers(0, 5_000))
def test_subject_reduction(seed):
    rng = random.Random(seed)
    gamma, p = S.well_typed(rng)
    tc.check(gamma, p)
    for _ in range(3):
        rs = sm.redexes(p)
        if not rs:
            break
        p = sm.step(p, rng.choice(rs))
        tc.check(gamma, p.process())  # must stay well-typed


@settings(deadline=None)
@given(st.integers(0, 5_000))
def test_free_channels_never_grow_under_reduction(seed):
    rng = random.Random(seed)
    _, p = S.well_typed(rng)
    free = sx.free_session_channels(p)
    for _ in range(3):
        rs = sm.redexes(p)
        if not rs:
            break
        p = sm.step(p, rng.choice(rs))
        assert sx.free_session_channels(p.process()) <= free


@settings(deadline=None)
@given(st.integers(0, 5_000))
def test_programs_stay_programs(seed):
    rng = random.Random(seed)
    gamma, p = S.program(rng)
    for _ in range(3):
        rs = sm.redexes(p)
        if not rs:
            break
        p = sm.step(p, rng.choice(rs))
        # sessions opened by reduction are restricted, never free
        assert sx.free_session_channels(p.process()) == set()
