import random
import sys
import tracemalloc
from functools import reduce

import pytest
from hypothesis import given, settings, strategies as st

import sessionpi.surface as sf
import sessionpi.syntax as sx
import sessionpi.typecheck as tc
import strategies as S
from sessionpi.examples import SOURCES
from test_progress import check_against


def parse(s, sessions=(), gamma=None):
    return sf.parse_process(s, sessions=sessions, gamma=gamma)


def delta_of(s, sessions=(), gamma=None, **kw):
    return tc.check(gamma or {}, parse(s, sessions, gamma), **kw)


def shown(delta):
    return sf.print_delta(delta)


# ------------------------------------------------------------------- goldens

def test_single_send():
    assert shown(delta_of("k!(5).0", ("k",))) == "k : ![int].end"


def test_dualized_pair_closes_the_channel():
    assert shown(delta_of("k!(5).0 | k?(x).0", ("k",))) == "k : bot"


def test_relay_typing():
    d = delta_of("k?(x).k1!(x).0 | k!(5).0 | k1?(y).0", ("k", "k1"))
    assert shown(d) == "k : bot, k1 : bot"


def test_buyer_seller_types_to_empty():
    src = sf.parse_source(SOURCES["buyer_seller"])
    assert tc.check(src.gamma, src.process) == {}


def test_received_value_flows_into_the_next_send():
    d = delta_of("k?(x).k1!(x and true).0", ("k", "k1"))
    assert shown(d) == "k : ?[bool].end, k1 : ![bool].end"


def test_branch_arms_may_split_the_remaining_usage():
    d = delta_of("k >> {yes: k!(1).0, no: k?(x).0}", ("k",))
    assert shown(d) == "k : &{no: ?[int].end, yes: ![int].end}"


def test_select_synthesizes_a_single_label():
    d = delta_of("k << go . k!(1).0", ("k",))
    assert shown(d) == "k : +{go: ![int].end}"


def test_delegation_types_both_channels():
    d = delta_of("k!((k1)).0", ("k", "k1"))
    assert shown(d) == "k : ![end].end, k1 : end"


def test_received_session_is_consumed_in_the_body():
    d = delta_of("k?((m)).m?(x).0", ("k",))
    assert shown(d) == "k : ?[?[int].end].end"


def test_restriction_hides_a_closed_channel():
    d = delta_of("new m . (m!(1).0 | m?(x).0)")
    assert d == {}


# -------------------------------------------------------------------- errors

@pytest.mark.parametrize("src,sessions,tag", [
    ("k!(1).0 | k!(2).0", ("k",), "T-Par"),
    ("if 5 then 0 else 0", (), "T-Cond"),
    ("new m . m!(1).0", (), "T-Res"),
])
def test_rule_tagged_errors(src, sessions, tag):
    with pytest.raises(tc.TypingError) as e:
        delta_of(src, sessions)
    assert tag in str(e.value)


K, K2, BOT = sx.chan("k"), sx.chan("k2"), sx.Bot()
SERVE_END = {"a": sx.ServiceSort(sx.End())}
SERVE_DEL = {"a": sx.ServiceSort(sf.parse_type("![end].end"))}


# Every site that closes a channel at `end`, rejecting and accepting,
# with the exact text.  A delegated channel's type starts as a variable
# (`k!((k2))` types k2 so); the accepted rows fix one to `end`, and the
# rows after them reject a later use that needs it to be something else.
@pytest.mark.parametrize("src, sessions, gamma, target, want", [
    # T-Res
    ("new m . m!(1).0", (), None, None,
     "T-Res: restricted channel m is left at ![int].end; both endpoints "
     "must run to completion, at: new m . m!(1).0"),
    ("new m . k!((m)).0", ("k",), None, None, "ok: k : ![end].end"),
    ("new m . k!((m)).0 | k?((n)).n!(1).0", ("k",), None, None,
     "T-Par: parallel threads disagree on channel k: cannot unify end with "
     "![int].end, at: new m . k!((m)).0 | k?((n)).n!(1).0"),
    # the body of a service
    ("*a(k).k1!(1).0", ("k1",), SERVE_END, None,
     "T-RServ: body uses open session k1, at: *a(k).k1!(1).0"),
    ("*a(k).k1!((k2)).0", ("k1", "k2"), SERVE_END, None,
     "T-RServ: body uses open session k1, at: *a(k).k1!((k2)).0"),
    ("*a(k).k!((k2)).0", ("k2",), SERVE_DEL, None, "ok: "),
    # a channel some branches leave out
    ("if true then k!(1).0 else 0", ("k",), None, None,
     "T-Cond: channel k is used in only some branches (as ![int].end), "
     "at: if true then k!(1).0 else 0"),
    ("if true then k1!((k)).0 else k1!((k2)).0", ("k", "k1", "k2"), None,
     None, "ok: k : end, k1 : ![end].end, k2 : end"),
    ("(if true then k1!((k)).0 else k1!((k2)).0) | k1?((n)).n!(1).0",
     ("k", "k1", "k2"), None, None,
     "T-Par: parallel threads disagree on channel k1: cannot unify end "
     "with ![int].end, at: if true then k1!((k)).0 else k1!((k2)).0 "
     "| k1?((n)).n!(1).0"),
    # a channel one branch closes
    ("if true then (k!(1).0 | k?(x).0) else k!(2).0", ("k",), None, None,
     "T-Cond: branches disagree on channel k: closed in one, ![int].end "
     "in another, at: if true then (k!(1).0 | k?(x).0) else k!(2).0"),
    ("if true then (k!(1).0 | k?(x).0 | k1!((k2)).0) else k1!((k)).0",
     ("k", "k1", "k2"), None, None,
     "ok: k : bot, k1 : ![end].end, k2 : end"),
    ("(if true then (k!(1).0 | k?(x).0 | k1!((k2)).0) else k1!((k)).0)"
     " | k1?((n)).n!(1).0", ("k", "k1", "k2"), None, None,
     "T-Par: parallel threads disagree on channel k1: cannot unify end "
     "with ![int].end, at: if true then (k!(1).0 | k?(x).0 | k1!((k2)).0)"
     " else k1!((k)).0 | k1?((n)).n!(1).0"),
    # a target that closes a channel
    ("k!(1).0", ("k",), None, {K: BOT},
     "target closes channel k but it is left at ![int].end"),
    ("k!(1).0 | k?(x).0", ("k",), None, {K: sf.parse_type("![int].end")},
     "channel k is closed on both ends but the target gives it ![int].end"),
    ("k >> {x: k!((k2)).0}", ("k", "k2"), None,
     {K2: BOT, K: sf.parse_type("&{x: ![end].end}")}, "ok: "),
    ("k >> {x: k!((k2)).0}", ("k", "k2"), None,
     {K2: BOT, K: sf.parse_type("&{x: ![?[int].end].end}")},
     "channel k: cannot unify end with ?[int].end"),
    ("k!((k2)).0", ("k", "k2"), None,
     {K: sf.parse_type("![end].end"), K2: BOT}, "ok: "),
])
def test_closing_at_end_golden(src, sessions, gamma, target, want):
    p = parse(src, sessions, gamma)
    try:
        if target is None:
            got = "ok: " + shown(tc.check(gamma or {}, p))
        else:
            check_against(gamma or {}, p, target)
            got = "ok: "
    except tc.TypingError as e:
        got = str(e)
    assert got == want


def test_errors_on_terms_the_parser_cannot_produce():
    # the parser rejects these shapes up front, the checker still must
    k = sx.chan("k")
    with pytest.raises(tc.TypingError, match="T-Out"):
        tc.check({}, sx.Send(k, sx.Var("x"), sx.Stop()))
    with pytest.raises(tc.TypingError, match="T-Bra"):
        tc.check({}, sx.Offer(k, (("a", sx.Stop()), ("a", sx.Stop()))))
    with pytest.raises(tc.TypingError, match="T-Req"):
        tc.check({}, sx.Request(sx.svc("b"), sx.bound_chan("k"), sx.Stop()))
    # a received service value is not a service to request while its
    # sort is open, even where the declared payload would make it one
    k, j = sx.bound_chan("k"), sx.bound_chan("j")
    g = {"a": sx.ServiceSort(sx.In(sx.ServiceSort(sx.End()), sx.End()))}
    p = sx.Serve(sx.svc("a"), k,
                 sx.Receive(k, "z", sx.Request(sx.svc("z"), j, sx.Stop())))
    with pytest.raises(tc.TypingError, match="T-Req: z is not a service"):
        tc.check(g, p)


def test_a_selection_does_not_unify_with_the_dual_of_another():
    # the pair rewrote to itself swapped, and `unify` never returned
    sel = tc.OpenSel({"go": sx.End()})
    with pytest.raises(tc.TypingError,
                       match=r"cannot unify \+\{go: end\} with &\{go: end\}"):
        tc.unify(tc.OpenSel({"go": sx.End()}), tc.dual(sel))


def test_a_selection_does_not_unify_flipped_with_another():
    # the same pairs read in place: under the flag two open selects fail
    # as they did against a built dual, each side shown where it was
    go, stop = ({label: sx.End()} for label in ("go", "stop"))
    with pytest.raises(tc.TypingError, match=r"cannot unify \+\{go: end\} "
                                             r"with &\{stop: end\}$"):
        tc.unify(tc.OpenSel(go), tc.OpenSel(stop), True)
    with pytest.raises(tc.TypingError, match=r"cannot unify &\{go: end\} "
                                             r"with \+\{stop: end\}$"):
        tc.unify(tc.dual(tc.OpenSel(go)), tc.OpenSel(stop))


def test_an_open_select_closed_flipped_takes_the_dual_labels():
    # against a branch read as its dual, the labels an open select takes
    # from it are stored as their duals
    o = tc.OpenSel({"go": sx.End()})
    tc.unify(o, sf.parse_type("&{go: end, stop: ?[int].end}"), True)
    assert sf.print_type(tc.resolve(o)) == "+{go: end, stop: ![int].end}"


# Errors met by `unify` under its flag, worded as when it was given a
# built dual: which side shows as a dual follows from where a `DualOpen`
# or an open select stands.
@pytest.mark.parametrize("src, want", [
    ("sessions c; c!(1).c << go.0 | c?(x2).c << stop.0",
     "T-Par: parallel threads disagree on channel c: cannot unify "
     "+{go: end} with &{stop: end}, at: c!(1).c << go.0 | c?(x2).c << "
     "stop.0"),
    # a selection delegated and made by the receiver, against one
    # composed before, then after, the delegation
    ("sessions c, k; c << go.0 | k!((c)).0 | k?((d)).d << stop.0",
     "T-Par: parallel threads disagree on channel k: cannot unify "
     "&{go: end} with +{stop: end}, at: c << go.0 | k!((c)).0 | "
     "k?((d)).d << stop.0"),
    ("sessions c, k; k!((c)).0 | k?((d)).d << go.0 | c << stop.0",
     "T-Par: parallel threads disagree on channel c: cannot unify "
     "+{go: end} with &{stop: end}, at: k!((c)).0 | k?((d)).d << go.0 | "
     "c << stop.0"),
    ("sessions c, d; c!((d)).0 | d?(x1).0 | c?((e)).e!(1).e << go.0",
     "T-Par: parallel threads disagree on channel c: cannot unify end "
     "with +{go: end}, at: c!((d)).0 | d?(x1).0 | c?((e)).e!(1).e << "
     "go.0"),
    ("env a : <&{go: end}>;\na<k>.k << stop.0",
     "T-Req: label 'stop' is not among +{go: end}, at: a<k>.k << stop.0"),
    ("env a : <+{go: end, stop: end}>;\na<k>.k << go.0",
     "T-Req: cannot unify +{go: end} with &{go: end, stop: end}, at: "
     "a<k>.k << go.0"),
    ("sessions d; env a : <?[&{go: end}].end>;\na<k>.k!((d)).0 | "
     "d << stop.0",
     "T-Par: parallel threads disagree on channel d: label 'stop' is not "
     "among +{go: end}, at: a<k>.k!((d)).0 | d << stop.0"),
])
def test_flipped_errors_read_as_against_a_built_dual_golden(src, want):
    src = sf.parse_source(src)
    with pytest.raises(tc.TypingError) as e:
        tc.check(src.gamma, src.process)
    assert str(e.value) == want


def test_serve_body_must_close_its_session():
    g = {"a": sx.ServiceSort(sx.End())}
    with pytest.raises(tc.TypingError) as e:
        delta_of("*a(k).k1!(1).0", ("k1",), g)
    assert "body uses open session k1" in str(e.value)


def test_relax_services_allows_open_sessions_in_bodies():
    g = {"a": sx.ServiceSort(sx.End())}
    d = delta_of("*a(k).k1!(1).0", ("k1",), g, relax_services=True)
    assert shown(d) == "k1 : ![int].end"


def test_branch_against_declared_service_type():
    g = {"a": sx.ServiceSort(sf.parse_type("![int].end"))}
    with pytest.raises(tc.TypingError):
        delta_of("*a(k).k?(x).0", (), g)  # server must send, not receive


def test_conditional_arms_must_agree():
    with pytest.raises(tc.TypingError) as e:
        delta_of("if true then k!(1).0 else k!(true).0", ("k",))
    assert "T-Cond" in str(e.value) or "unify" in str(e.value)


def test_nested_receives_share_one_value_environment():
    # each receive used to type its body under a copy of the value
    # environment, and every copy stayed alive down the recursion:
    # 331 MB at 5,000 receives with distinct variables
    n = 5_000
    p = parse("".join(f"k?(x{i})." for i in range(n)) + "0", ("k",))
    tracemalloc.start()
    try:
        tc.check({}, p)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 20 * 2**20, peak


def test_long_chains_type_at_the_default_recursion_limit():
    # a chain on a free session is inferred, the same chain served is
    # checked against the type inferred for the first; the typing
    # prints without recursing either.  A chain of receives each
    # forwarded on another channel binds a new variable at every other
    # prefix, and unbinds each as its step finishes
    n = 150_000
    chain = "k!(1)." * n + "0"
    free = parse(chain, ("k",))
    relay = parse("".join(f"k?(x{i}).c!(x{i})." for i in range(n // 2))
                  + "0", ("k", "c"))
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)  # CPython's default
    try:
        delta = tc.check({}, free)
        shown = sf.print_delta(delta)
        gamma = {"a": sx.ServiceSort(delta[K])}
        served = tc.check(gamma, parse("*a(k)." + chain, (), gamma))
        relayed = sf.print_delta(tc.check({}, relay))
    finally:
        sys.setrecursionlimit(limit)
    assert shown == "k : " + "![int]." * n + "end"
    assert served == {}
    assert relayed == ("c : " + "![int]." * (n // 2) + "end, "
                       "k : " + "?[int]." * (n // 2) + "end")


# ---------------------------------------------------------------- check_against

def test_check_against_accepts_the_exact_typing():
    p = parse("k?(x).0", ("k",))
    check_against({}, p, {sx.chan("k"): sf.parse_type("?[bool].end")})


def test_check_against_rejects_other_typings():
    p = parse("k?(x).0", ("k",))
    with pytest.raises(tc.TypingError):
        check_against({}, p, {sx.chan("k"): sf.parse_type("![int].end")})
    with pytest.raises(tc.TypingError):
        check_against({}, p, {})


# ------------------------------------------------------------------ is_program

def test_is_program():
    src = sf.parse_source(SOURCES["buyer_seller"])
    assert tc.is_program(src.process)
    # free sessions disqualify
    assert not tc.is_program(parse("k!(1).0", ("k",)))
    # real restrictions disqualify
    assert not tc.is_program(parse("new m . (m!(1).0 | m?(x).0)"))
    # vacuous restrictions are erasable, so they do not
    assert tc.is_program(parse("new m . 0"))


def reference_is_program(p):
    """`is_program` as first written: the free channels of the body
    below every restriction."""
    if sx.free_session_channels(p):
        return False
    todo = [p]
    while todo:
        q = todo.pop()
        match q:
            case sx.New(c, body) if c in sx.free_session_channels(body):
                return False
        todo.extend(sx.children(q))
    return True


def new_nest(rng):
    """Restrictions nested around and under requests, each channel used
    or not, sometimes beside a free channel."""
    ks = [sx.bound_chan(f"m{i}") for i in range(rng.randint(1, 5))]
    used = [k for k in ks if rng.random() < 0.5]
    if rng.random() < 0.2:
        used.append(sx.chan("free"))
    r = sx.bound_chan("r")
    used.append(r)
    body = reduce(sx.Par, [sx.Send(k, sx.IntLit(1), sx.Stop())
                           for k in rng.sample(used, len(used))])
    outer = [k for k in ks if rng.random() < 0.5]
    for k in reversed(ks):
        if k not in outer:
            body = sx.New(k, body)
    body = sx.Request(sx.svc("a"), r, body)
    for k in reversed(outer):
        body = sx.New(k, body)
    return body


@settings(deadline=None, max_examples=200)
@given(st.integers(0, 10_000))
def test_is_program_agrees_with_the_reference(seed):
    rng = random.Random(seed)
    for p in (S.well_typed(rng)[1], S.cyclic(rng), S.program(rng)[1],
              new_nest(rng)):
        assert tc.is_program(p) == reference_is_program(p)


def test_is_program_agrees_with_the_reference_on_the_samples():
    verdicts = [tc.is_program(sf.parse_source(text).process)
                for text in SOURCES.values()]
    assert verdicts == [reference_is_program(sf.parse_source(t).process)
                        for t in SOURCES.values()]
    assert True in verdicts and False in verdicts


def test_is_program_sweeps_once(monkeypatch):
    # n vacuous restrictions around one client: the walk stays linear in
    # the term's size (a sweep below every `new` makes it quadratic)
    calls = 0
    children = sx.children

    def counted(p):
        nonlocal calls
        calls += 1
        return children(p)

    monkeypatch.setattr(sx, "children", counted)
    for n in (200, 2_000):
        r = sx.bound_chan("r")
        p = sx.Request(sx.svc("a"), r, sx.Send(r, sx.IntLit(1), sx.Stop()))
        for i in range(n):
            p = sx.New(sx.bound_chan(f"m{i}"), p)
        calls = 0
        assert tc.is_program(p)
        assert calls <= 2 * (n + 3)


# ------------------------------------------------------------------ properties

def test_dual_is_an_involution_golden():
    t = sf.parse_type("?[int].![<end>].+{a: end}")
    assert tc.dual(tc.dual(t)) == t


@given(S.session_types)
def test_dual_is_an_involution(t):
    assert tc.dual(tc.dual(t)) == t


@given(S.session_types)
def test_dual_swaps_polarity_keeps_payload(t):
    d = tc.dual(t)
    match t:
        case sx.In(p, _):
            assert d == sx.Out(p, tc.dual(t.then))
        case sx.Out(p, _):
            assert d == sx.In(p, tc.dual(t.then))
        case sx.BranchT(_):
            assert isinstance(d, sx.SelectT)
        case sx.SelectT(_):
            assert isinstance(d, sx.BranchT)
        case sx.End():
            assert d == t


@given(st.integers(0, 10_000))
def test_generated_well_typed_processes_check(seed):
    g, p = S.well_typed(random.Random(seed))
    tc.check(g, p)  # must not raise


@given(st.integers(0, 10_000))
def test_typing_is_alpha_invariant(seed):
    g, p = S.well_typed(random.Random(seed))
    assert tc.check(g, p) == tc.check(g, sx.refresh(p))


@given(st.integers(0, 10_000))
def test_relax_accepts_everything_strict_accepts(seed):
    g, p = S.well_typed(random.Random(seed))
    strict = tc.check(g, p)
    relaxed = tc.check(g, p, relax_services=True)
    assert strict == relaxed
