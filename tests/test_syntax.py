import random
import sys

from hypothesis import given, strategies as st

import sessionpi.congruence as cg
import sessionpi.progress as pg
import sessionpi.surface as sf
import sessionpi.syntax as sx
import sessionpi.typecheck as tc
import strategies as S
from test_reference_oracles import alpha_equivalent


def test_free_names_compare_by_spelling():
    assert sx.chan("k") == sx.chan("k")
    assert sx.chan("k") != sx.chan("k2")
    assert sx.chan("k") != sx.svc("k")  # kind matters


def test_bound_names_are_distinct():
    a, b = sx.bound_chan("k"), sx.bound_chan("k")
    assert a != b
    assert a.base == b.base == "k"


def test_fresh_keeps_base_and_kind():
    k = sx.chan("k")
    f = k.fresh()
    assert (f.base, f.kind) == (k.base, k.kind)
    assert f != k


def test_name_hash_and_equality_contract():
    # the hash is the tuple's, so sets and dicts of names keep the
    # order they had when `Name` was a dataclass, and outputs with it
    names = [sx.chan("k"), sx.svc("k"), sx.bound_chan("k"), sx.Name("k")]
    for n in names:
        assert hash(n) == hash((n.base, n.kind, n.uid))
    k = sx.chan("k")
    assert k == sx.Name("k", sx.CHAN, None)
    assert k != sx.svc("k") and k != k._replace(uid=1)  # kind, uid
    f = k.fresh()
    assert (f.base, f.kind) == (k.base, k.kind)
    assert f.uid is not None and f.uid != k.fresh().uid


def _one_node_of_each_class():
    k, a = sx.chan("k"), sx.svc("a")
    one = sx.IntLit(1)
    return [
        one, sx.BoolLit(True), sx.StrLit("s"), sx.Var("x"), sx.SvcRef("a"),
        sx.Unop("-", one), sx.Binop("+", one, sx.Var("x")),
        sx.INT, sx.ServiceSort(sx.End()), sx.End(), sx.Bot(),
        sx.In(sx.INT, sx.End()), sx.Out(sx.INT, sx.End()),
        sx.branch([("l", sx.End())]), sx.select([("l", sx.End())]),
        sx.Stop(), sx.Par(sx.Stop(), sx.Stop()), sx.New(k, sx.Stop()),
        sx.Serve(a, k, sx.Stop()), sx.Accept(a, k, sx.Stop()),
        sx.Request(a, k, sx.Stop()), sx.Receive(k, "x", sx.Stop()),
        sx.Send(k, one, sx.Stop()), sx.ReceiveSession(k, k, sx.Stop()),
        sx.SendSession(k, k, sx.Stop()), sx.Offer(k, (("l", sx.Stop()),)),
        sx.Choose(k, "l", sx.Stop()), sx.If(sx.BoolLit(True), sx.Stop(),
                                            sx.Stop()),
    ]


def test_nodes_are_equal_only_within_their_class():
    nodes = _one_node_of_each_class()
    assert len({type(n) for n in nodes}) == len(nodes) == 28
    assert sx.Stop() != sx.End() and not sx.Stop() == sx.End()
    assert sx.In(sx.INT, sx.End()) != sx.Out(sx.INT, sx.End())
    assert sx.BranchT((("l", sx.End()),)) != sx.SelectT((("l", sx.End()),))
    for n in nodes:
        copy = type(n)(*n)
        assert copy == n and not copy != n and hash(copy) == hash(n)
        assert n != tuple(n) and tuple(n) != n
        assert not n == tuple(n) and not tuple(n) == n
        assert bool(n), n  # `Stop()` and `End()` have no fields
        for m in nodes:
            assert (m == n) == (m is n) and (m != n) == (m is not n)


def test_nodes_are_immutable():
    for n in _one_node_of_each_class():
        for f in (*n._fields, "extra"):
            try:
                setattr(n, f, None)
            except AttributeError:
                continue
            raise AssertionError(f"{type(n).__name__}.{f} was assigned")


def test_nodes_keep_their_bases_constructors_patterns_and_text():
    bases = (sx.Expr, sx.Sort, sx.SessionType, sx.Process)
    for n in _one_node_of_each_class():
        assert sum(isinstance(n, b) for b in bases) == 1, n
        assert type(n)(**dict(zip(n._fields, n))) == n
    assert all(issubclass(cls, sx.Process) for cls in sx.SHAPES)
    k = sx.chan("k")
    p = sx.Send(chan=k, expr=sx.IntLit(value=1), body=sx.Stop())
    assert p == sx.Send(k, sx.IntLit(1), sx.Stop())
    assert repr(p) == ("Send(chan=Name(base='k', kind='chan', uid=None),"
                       " expr=IntLit(value=1), body=Stop())")
    match p:
        case sx.Receive(_, _, _) | sx.Stop():
            raise AssertionError(p)
        case sx.Send(c, sx.IntLit(v), body=sx.Stop()):
            assert (c, v) == (k, 1)
        case _:
            raise AssertionError(p)
    match sx.In(sx.INT, sx.End()):
        case sx.Out(_, _):
            raise AssertionError("an input matched Out")
        case sx.In(sx.Basic("int"), sx.End()):
            pass
        case _:
            raise AssertionError("an input did not match In")


def test_free_session_channels():
    k, k2 = sx.chan("k"), sx.chan("k2")
    p = sx.Send(k, sx.IntLit(1), sx.Receive(k2, "x", sx.Stop()))
    assert sx.free_session_channels(p) == {k, k2}
    # a restriction binds
    assert sx.free_session_channels(sx.New(k, p)) == {k2}
    # delegation argument counts as an occurrence
    q = sx.SendSession(k, k2, sx.Stop())
    assert sx.free_session_channels(q) == {k, k2}
    # the received session is bound in the body
    m = sx.bound_chan("m")
    r = sx.ReceiveSession(k, m, sx.Send(m, sx.IntLit(1), sx.Stop()))
    assert sx.free_session_channels(r) == {k}


def test_service_prefixes_bind_their_channel():
    a = sx.svc("a")
    k = sx.bound_chan("k")
    body = sx.Send(k, sx.IntLit(1), sx.Stop())
    for mk in (sx.Serve, sx.Accept, sx.Request):
        assert sx.free_session_channels(mk(a, k, body)) == set()


def test_children_run_left_to_right_and_rebuild_keeps_the_rest():
    k = sx.chan("k")
    a = sx.Send(k, sx.IntLit(1), sx.Stop())
    b = sx.Stop()
    assert sx.children(b) == ()
    assert sx.children(sx.Par(a, b)) == (a, b)
    assert sx.children(sx.If(sx.BoolLit(True), a, b)) == (a, b)
    assert sx.children(a) == (b,)
    offer = sx.Offer(k, (("yes", a), ("no", b)))
    assert sx.children(offer) == (a, b)
    assert sx.rebuild(offer, (b, a)) == sx.Offer(k, (("yes", b), ("no", a)))
    assert sx.rebuild(a, (a,)) == sx.Send(k, sx.IntLit(1), a)


def test_shapes_name_the_fields_of_the_layout_rule():
    # a process form whose fields break the layout rule fails here
    forms = {cls for cls in vars(sx).values() if isinstance(cls, type)
             and issubclass(cls, sx.Process) and cls is not sx.Process}
    assert set(sx.SHAPES) == forms
    for cls, s in sx.SHAPES.items():
        fields = cls._fields
        if s.service:
            assert fields[0] == "service" and s.mentions == 0, cls
        assert fields[:s.mentions] == ("chan", "sent")[:s.mentions], cls
        if s.binder is not None:  # a delegation's receiver binds `bound`
            assert fields[s.binder] == ("bound" if s.mentions else "chan"), cls
        if s.children is None:
            assert cls is sx.Offer and fields[-1] == "arms"
        else:
            assert fields[s.children:] in (
                (), ("left", "right"), ("then", "els"), ("body",)), cls
    assert sx.SHAPES[sx.SendSession].mentions == 2
    assert {cls for cls, s in sx.SHAPES.items() if s.binder is not None} == {
        sx.New, sx.Serve, sx.Accept, sx.Request, sx.ReceiveSession}
    assert {cls for cls, s in sx.SHAPES.items()
            if s.service or s.mentions} == {
        sx.Serve, sx.Accept, sx.Request, sx.Receive, sx.Send,
        sx.ReceiveSession, sx.SendSession, sx.Offer, sx.Choose}


@given(st.integers(0, 10_000))
def test_rebuilding_from_the_children_gives_the_term_back(seed):
    _, p = S.well_typed(random.Random(seed))
    todo = [p]
    while todo:
        q = todo.pop()
        assert sx.rebuild(q, sx.children(q)) == q
        todo.extend(sx.children(q))


def test_read_only_walks_need_no_recursion_limit():
    # two 5,000-prefix chains on one restricted channel, with a nested
    # parallel cluster every 1,000 prefixes
    k = sx.bound_chan("k")
    sends, recvs = sx.Stop(), sx.Stop()
    for i in range(5_000):
        if i % 1_000 == 0:
            sends = sx.Par(sends, sx.Stop())
        sends = sx.Send(k, sx.IntLit(i), sends)
        recvs = sx.Receive(k, "x", recvs)
    p = sx.New(k, sx.Par(sends, recvs))
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1_000)
    try:
        assert sx.free_session_channels(p) == set()
        assert sf.display_names(p) == {k: "k"}
        assert len(cg.maximal_parallel_subterms(p)) == 6
        assert pg._completable(p)
        assert not tc.is_program(p)
        # a service under 5,000 nested conditionals is a dormant scope
        q = sx.Serve(sx.svc("a"), k, sx.Stop())
        for _ in range(5_000):
            q = sx.If(sx.BoolLit(True), sx.Stop(), q)
        assert not pg._completable(q)
    finally:
        sys.setrecursionlimit(limit)


def test_substitute_replaces_free_variable():
    k = sx.chan("k")
    p = sx.Send(k, sx.Binop("+", sx.Var("x"), sx.IntLit(1)), sx.Stop())
    q = sx.substitute(p, "x", sx.IntLit(4))
    assert q == sx.Send(k, sx.Binop("+", sx.IntLit(4), sx.IntLit(1)),
                        sx.Stop())


def test_substitute_stops_at_shadowing_receive():
    k = sx.chan("k")
    inner = sx.Receive(k, "x", sx.Send(k, sx.Var("x"), sx.Stop()))
    p = sx.Send(k, sx.Var("x"), inner)
    q = sx.substitute(p, "x", sx.IntLit(7))
    assert q.expr == sx.IntLit(7)
    assert q.body == inner  # rebinding shields the inner x


def test_subst_chan_renames_only_free_occurrences():
    k, k2 = sx.chan("k"), sx.chan("k2")
    p = sx.Send(k, sx.IntLit(1), sx.New(k, sx.Send(k, sx.IntLit(2),
                                                   sx.Stop())))
    q = sx.subst_chan(p, k, k2)
    assert q.chan == k2
    assert q.body.chan == k  # the restricted k is a different binding
    assert q.body.body.chan == k


def test_refresh_renames_every_binder():
    src = sx.New(sx.bound_chan("k"),
                 sx.ReceiveSession(sx.chan("c"), sx.bound_chan("m"),
                                   sx.Stop()))
    out = sx.refresh(src)
    assert alpha_equivalent(src, out)
    assert out.chan != src.chan
    assert out.body.bound != src.body.bound


@given(st.integers(0, 10_000))
def test_refresh_is_alpha_invariant(seed):
    _, p = S.well_typed(random.Random(seed))
    assert alpha_equivalent(p, sx.refresh(p))


@given(st.integers(0, 10_000))
def test_refresh_preserves_free_channels(seed):
    _, p = S.well_typed(random.Random(seed))
    assert sx.free_session_channels(sx.refresh(p)) == \
        sx.free_session_channels(p)


@given(st.integers(0, 10_000))
def test_substituting_an_unused_variable_is_identity(seed):
    _, p = S.well_typed(random.Random(seed))
    assert sx.substitute(p, "zz_unused", sx.IntLit(0)) is p


@given(st.integers(0, 10_000))
def test_renaming_an_absent_channel_is_identity(seed):
    _, p = S.well_typed(random.Random(seed))
    assert sx.subst_chan(p, sx.chan("zz_absent"), sx.chan("k")) is p


def subterms(p):
    todo = [p]
    while todo:
        q = todo.pop()
        yield q
        todo.extend(sx.children(q))


@given(st.integers(0, 10_000))
def test_refreshing_a_term_without_binders_is_identity(seed):
    _, p = S.well_typed(random.Random(seed))
    bare = [q for q in subterms(p) if not sx.facts(q).binders]
    assert bare  # every term ends in `0`
    for q in bare:
        assert sx.refresh(q) is q
    k = sx.chan("k")
    q = sx.Send(k, sx.IntLit(1), sx.Receive(k, "x", sx.Stop()))
    assert sx.refresh(q) is q


def rebuilt_substitute(p, name, value):
    """`substitute` by plain recursion, rebuilding every node."""
    if type(p) is sx.Receive and p.var == name:
        return p
    kids = [rebuilt_substitute(q, name, value) for q in sx.children(p)]
    if type(p) is sx.Send:
        return sx.Send(p.chan, sx.substitute_expr(p.expr, name, value), *kids)
    if type(p) is sx.If:
        return sx.If(sx.substitute_expr(p.test, name, value), *kids)
    return sx.rebuild(p, kids)


def rebuilt_subst_chan(p, old, new):
    """`subst_chan` by plain recursion, rebuilding every node; binders
    are unique, so none is `old`."""
    kids = [rebuilt_subst_chan(q, old, new) for q in sx.children(p)]
    names = {p._fields[i]: new for i in range(sx.SHAPES[type(p)].mentions)
             if p[i] == old}
    return sx.rebuild(p, kids)._replace(**names)


def assert_path_copied(before, after, rebuilt):
    """after equals `rebuilt(before)`, and a subterm of after is new
    exactly where the rebuild changed the subterm of before it stands
    for: off the paths down to the changes, every subterm is shared."""
    assert after == rebuilt(before)
    todo = [(before, after)]
    while todo:
        b, a = todo.pop()
        if rebuilt(b) == b:
            assert a is b
        else:
            assert a is not b and type(a) is type(b)
            todo.extend(zip(sx.children(b), sx.children(a)))


@given(st.integers(0, 10_000))
def test_substitution_copies_only_the_paths_to_the_occurrences(seed):
    # every receive's and every session binder's continuation, with its
    # variable or channel replaced, as `step` replaces them
    _, p = S.well_typed(random.Random(seed))
    four, k = sx.IntLit(4), sx.bound_chan("k")
    for q in subterms(p):
        if type(q) is sx.Receive:
            done = sx.substitute(q.body, q.var, four)
            assert_path_copied(
                q.body, done, lambda t: rebuilt_substitute(t, q.var, four))
        elif (b := sx.SHAPES[type(q)].binder) is not None:
            done = sx.subst_chan(q.body, q[b], k)
            assert_path_copied(
                q.body, done,
                lambda t: rebuilt_subst_chan(t, q[b], k))
    k = sx.chan("k")
    body = sx.Par(sx.Send(k, sx.Var("x"), sx.Stop()),
                  sx.Send(k, sx.IntLit(1), sx.Stop()))
    done = sx.substitute(body, "x", four)
    assert done.left == sx.Send(k, four, sx.Stop())
    assert done.left.body is body.left.body and done.right is body.right
