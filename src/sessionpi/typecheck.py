"""Session typing: duality, composition and type checking.

`check` computes the minimal session typing of a process: a map from
free channels to session types, where `bot` marks channels whose two
endpoints are both used inside the process.

A serve, accept or request is checked against a type known before its
body is read: the declared session for a serve or accept, its dual for
a request (taken once per service and call).  Check mode (`_check`)
walks the body and consumes one head of a channel's type per prefix
on it: a receive binds its variable straight to a basic payload sort,
a send types its expression against the payload sort, a selection and
an offer are matched against the declared labels, and both branches
of `if` go on from the same types.  Nested serves, accepts and
requests, and channels received at a declared payload, are checked in
the same walk.

Everything else is inferred bottom-up with unification (`_infer`):
free sessions, `new`, `|`, and any service body check mode is unsure
of.  Check mode unifies nothing, so when it is unsure, the body is
inferred as if it had never been checked, and inference alone raises
every `TypingError`.  Delegation introduces a type variable for the
sent channel, paired with a mirror variable so that taking duals
commutes with later instantiation.  A label selection produces an
extensible internal select type that absorbs sibling labels when
matched against a wider select, and is frozen to its accumulated
labels at the end.

Terms are walked on explicit stacks, and types in loops along their
continuations, so a long prefix chain and its type need no deep
recursion; the type functions recurse only into label options and
payloads.
"""
from __future__ import annotations

from dataclasses import dataclass

from . import congruence
from . import syntax as sx
from .surface import print_process, print_type
from .syntax import (
    BOOL, INT, STRING, Basic, Bot, BranchT, End, Expr, In, Name, Out, Process,
    SelectT, ServiceSort, SessionType, Sort,
)


class TypingError(Exception):
    pass


# ------------------------------------------------------- inference internals

@dataclass(eq=False)
class TVar(SessionType):
    """A session type not yet determined; `mate` tracks its dual."""
    link: SessionType | None = None
    mate: "TVar | None" = None


def tvar_pair() -> TVar:
    v, w = TVar(), TVar()
    v.mate, w.mate = w, v
    return v


@dataclass(eq=False)
class OpenSel(SessionType):
    """A select type that may still acquire labels."""
    options: dict[str, SessionType]
    closed: bool = False
    parent: "OpenSel | None" = None


@dataclass(eq=False)
class DualOpen(SessionType):
    """The branch-side view of an open select."""
    base: OpenSel


@dataclass(eq=False)
class SVar(Sort):
    """A value sort not yet determined."""
    link: Sort | None = None


def walk(t: SessionType) -> SessionType:
    while type(t) is TVar and t.link is not None:
        t = t.link
    if type(t) is OpenSel:
        return osfind(t)
    if type(t) is DualOpen:
        return DualOpen(osfind(t.base))
    return t


def walk_sort(s: Sort) -> Sort:
    while isinstance(s, SVar) and s.link is not None:
        s = s.link
    return s


def osfind(o: OpenSel) -> OpenSel:
    while o.parent is not None:
        o = o.parent
    return o


def dual(t: SessionType) -> SessionType:
    """The other endpoint's view: inputs and outputs swap, offered and
    chosen labels swap, payloads stay as they are."""
    heads = []  # the inputs and outputs along t's continuations
    t = walk(t)
    while type(t) is In or type(t) is Out:
        heads.append(t)
        t = walk(t.then)
    match t:
        case End():
            d = t
        case BranchT(opts):
            d = SelectT(tuple((l, dual(a)) for l, a in opts))
        case SelectT(opts):
            d = BranchT(tuple((l, dual(a)) for l, a in opts))
        case TVar():
            assert t.mate is not None
            d = t.mate
        case OpenSel():
            d = DualOpen(t)
        case DualOpen(base):
            d = base
        case _:
            raise TypingError(f"type {show(t)} has no dual")
    for h in reversed(heads):
        d = (Out if type(h) is In else In)(h.payload, d)
    return d


def resolve(t: SessionType) -> SessionType:
    """Strip solver nodes: unresolved variables default to `end`, open
    selects freeze to their accumulated labels."""
    heads = []  # (In or Out, resolved payload) along t's continuations
    t = walk(t)
    while type(t) is In or type(t) is Out:
        heads.append((type(t), resolve_payload(t.payload)))
        t = walk(t.then)
    match t:
        case TVar():
            r = End()
        case End() | Bot():
            r = t
        case BranchT(opts):
            r = sx.branch([(l, resolve(a)) for l, a in opts])
        case SelectT(opts):
            r = sx.select([(l, resolve(a)) for l, a in opts])
        case OpenSel(opts, _, _):
            r = sx.select([(l, resolve(a)) for l, a in opts.items()])
        case DualOpen(base):
            r = dual(resolve(base))
        case _:
            raise TypingError(f"cannot resolve {t!r}")
    for make, p in reversed(heads):
        r = make(p, r)
    return r


def resolve_sort(s: Sort) -> Sort:
    s = walk_sort(s)
    if isinstance(s, SVar):
        return INT
    if isinstance(s, ServiceSort):
        return ServiceSort(resolve(s.session))
    return s


def resolve_payload(p: Sort | SessionType) -> Sort | SessionType:
    return resolve_sort(p) if isinstance(p, Sort) else resolve(p)


def show(t: SessionType | Sort) -> str:
    return print_type(resolve_payload(t))


# ------------------------------------------------------------------ unifiers

def _occurs(v: TVar | SVar, t: SessionType | Sort) -> bool:
    todo = [t]
    while todo:
        t = todo.pop()
        t = walk(t) if isinstance(t, SessionType) else walk_sort(t)
        match t:
            case TVar() | SVar():
                if t is v:
                    return True
            case In(p, then) | Out(p, then):
                todo += (then, p)
            case BranchT(opts) | SelectT(opts):
                todo += [a for _, a in opts]
            case OpenSel(opts, _, _):
                todo += opts.values()
            case DualOpen(base):
                todo += osfind(base).options.values()
            case ServiceSort(s):
                todo.append(s)
    return False


def bind(v: TVar, t: SessionType) -> None:
    if _occurs(v, t) or (v.mate is not None and _occurs(v.mate, t)):
        raise TypingError("channel's type would have to contain itself")
    v.link = t
    m = walk(v.mate) if v.mate is not None else None
    if isinstance(m, TVar):
        d = dual(t)
        if walk(d) is not m:
            m.link = d


def unify(a: SessionType, b: SessionType) -> None:
    while True:  # along the continuations of a and b
        a, b = walk(a), walk(b)
        if a is b:
            return
        if isinstance(a, TVar):
            bind(a, b)
            return
        if isinstance(b, TVar):
            bind(b, a)
            return
        match a, b:
            case End(), End():
                return
            case (In(p1, t1), In(p2, t2)) | (Out(p1, t1), Out(p2, t2)):
                unify_payload(p1, p2)
                a, b = t1, t2
                continue
            case (BranchT(o1), BranchT(o2)) | (SelectT(o1), SelectT(o2)):
                if [l for l, _ in o1] != [l for l, _ in o2]:
                    raise TypingError(
                        f"label sets differ: {show(a)} vs {show(b)}")
                for (_, x), (_, y) in zip(o1, o2):
                    unify(x, y)
                return
            case OpenSel(), OpenSel():
                _os_union(a, b)
                return
            case (OpenSel(), SelectT(_)):
                _os_close_to(a, b)
                return
            case (SelectT(_), OpenSel()):
                _os_close_to(b, a)
                return
            case (DualOpen(base), _):
                a, b = base, dual(b)
                continue
            case (_, DualOpen(base)):
                a, b = base, dual(a)
                continue
        raise TypingError(f"cannot unify {show(a)} with {show(b)}")


def unify_payload(p1: Sort | SessionType, p2: Sort | SessionType) -> None:
    s1, s2 = isinstance(p1, Sort), isinstance(p2, Sort)
    if s1 and s2:
        unify_sort(p1, p2)
    elif not s1 and not s2:
        unify(p1, p2)
    else:
        a, b = (p1, p2) if s1 else (p2, p1)
        raise TypingError(
            f"value payload {show(a)} cannot match session payload {show(b)}")


def unify_sort(a: Sort, b: Sort) -> None:
    a, b = walk_sort(a), walk_sort(b)
    if a is b:
        return
    if isinstance(a, SVar):
        if _occurs(a, b):
            raise TypingError("value's sort would have to contain itself")
        a.link = b
        return
    if isinstance(b, SVar):
        unify_sort(b, a)
        return
    match a, b:
        case Basic(x), Basic(y) if x == y:
            return
        case ServiceSort(s1), ServiceSort(s2):
            unify(s1, s2)
            return
    raise TypingError(f"sorts differ: {show(a)} vs {show(b)}")


def _os_union(a: OpenSel, b: OpenSel) -> None:
    a, b = osfind(a), osfind(b)
    if a is b:
        return
    if b.closed and not a.closed:
        a, b = b, a
    # a survives; b's labels flow into it
    for l, t in b.options.items():
        if l in a.options:
            unify(a.options[l], t)
        elif a.closed:
            raise TypingError(
                f"label {l!r} is not offered by {show(a)}")
        else:
            a.options[l] = t
    if b.closed and set(a.options) != set(b.options):
        raise TypingError(f"label sets differ: {show(a)} vs {show(b)}")
    a.closed = a.closed or b.closed
    b.parent = a


def _os_close_to(o: OpenSel, s: SelectT) -> None:
    o = osfind(o)
    slabels = {l: t for l, t in s.options}
    for l, t in o.options.items():
        if l not in slabels:
            raise TypingError(f"label {l!r} is not among {show(s)}")
        unify(t, slabels[l])
    if o.closed and set(o.options) != set(slabels):
        raise TypingError(f"label sets differ: {show(o)} vs {show(s)}")
    for l, t in slabels.items():
        o.options.setdefault(l, t)
    o.closed = True


# ----------------------------------------------------------------- inference

Delta = dict[Name, SessionType]


def _clip(s: str, n: int = 100) -> str:
    return s if len(s) <= n else s[: n - 3] + "..."


def _err(rule: str, at: Process, msg: str) -> TypingError:
    return TypingError(f"{rule}: {msg}, at: {_clip(print_process(at))}")


def _pop_cont(d: Delta, c: Name, rule: str, at: Process) -> SessionType:
    t = d.pop(c, End())
    if isinstance(walk(t), Bot):
        raise _err(rule, at,
                   f"channel {c.base} is used again after being closed")
    return t


def _compose_into(out: Delta, d2: Delta) -> None:
    """Parallel composition of typings, into out: channels used on both
    sides must carry dual types there and are marked `bot`."""
    for k, t2 in d2.items():
        if k not in out:
            out[k] = t2
            continue
        t1 = out[k]
        if isinstance(walk(t1), Bot) or isinstance(walk(t2), Bot):
            raise TypingError(
                f"channel {k.base} is already used on both sides")
        try:
            unify(t1, dual(t2))
        except TypingError as e:
            raise TypingError(
                f"parallel threads disagree on channel {k.base}: {e}") from e
        out[k] = Bot()


def _ends(t: SessionType) -> bool:
    """True when t is `end` or a type variable, which is then fixed to
    `end`: whether a channel at t may stop here."""
    w = walk(t)
    if isinstance(w, TVar):
        bind(w, End())
        return True
    return isinstance(w, End)


def _join_missing(t: SessionType, k: Name) -> SessionType:
    if isinstance(walk(t), Bot):
        return Bot()
    if _ends(t):
        return End()
    raise TypingError(
        f"channel {k.base} is used in only some branches (as {show(t)})")


def _join2(a: SessionType, b: SessionType, k: Name) -> SessionType:
    wa, wb = walk(a), walk(b)
    abot, bbot = isinstance(wa, Bot), isinstance(wb, Bot)
    if abot and bbot:
        return Bot()
    if abot or bbot:
        other = wb if abot else wa
        if _ends(other):
            return Bot()
        raise TypingError(
            f"branches disagree on channel {k.base}: "
            f"closed in one, {show(other)} in another")
    try:
        unify(a, b)
    except TypingError as e:
        raise TypingError(f"branches disagree on channel {k.base}: {e}") from e
    return a


def join(deltas: list[Delta]) -> Delta:
    """The common typing of alternative branches: present-everywhere
    channels must agree (a finished side may be lifted to `bot`), and a
    channel missing from some branch can only be carried at `end`."""
    out: Delta = {}
    for k in dict.fromkeys(k for d in deltas for k in d):
        have = [d[k] for d in deltas if k in d]
        t = have[0]
        for u in have[1:]:
            t = _join2(t, u, k)
        if len(have) < len(deltas):
            t = _join_missing(t, k)
        out[k] = t
    return out


# the operand and result sorts of each binary operator but `=` and `!=`
_BINOPS = {
    **dict.fromkeys(("+", "-", "*"), (INT, INT)),
    **dict.fromkeys(("and", "or"), (BOOL, BOOL)),
    **dict.fromkeys(("<", "<=", ">", ">="), (INT, BOOL)),
}
_UNOPS = {"-": INT, "not": BOOL}


def type_expr(env: dict[str, Sort], e: Expr) -> Sort:
    match e:
        case sx.IntLit(_):
            return INT
        case sx.BoolLit(_):
            return BOOL
        case sx.StrLit(_):
            return STRING
        case sx.Var(n) | sx.SvcRef(n):
            try:
                return env[n]
            except KeyError:
                raise TypingError(f"name {n!r} has no declared sort") from None
        case sx.Unop(op, a) if op in _UNOPS:
            unify_sort(type_expr(env, a), _UNOPS[op])
            return _UNOPS[op]
        case sx.Binop(op, l, r):
            sl, sr = type_expr(env, l), type_expr(env, r)
            if op == "=" or op == "!=":
                unify_sort(sl, sr)
                return BOOL
            if op in _BINOPS:
                arg, res = _BINOPS[op]
                unify_sort(sl, arg)
                unify_sort(sr, arg)
                return res
    raise TypingError(f"not an expression: {e!r}")


def _service_sort(env: dict[str, Sort], a: Name, rule: str,
                  at: Process) -> ServiceSort:
    sort = env.get(a.base)
    if sort is None:
        raise _err(rule, at, f"service {a.base} has no declared sort")
    if not isinstance(sort, ServiceSort):
        raise _err(rule, at,
                   f"{a.base} is not a service (its sort is {show(sort)})")
    return sort


# A request's channel is typed at the dual of its service's session,
# taken once per service in one `check` call: the service's name maps
# to its sort and that dual.
Duals = dict[str, tuple[ServiceSort, SessionType]]


def _requested(duals: Duals, a: Name, sort: ServiceSort) -> SessionType:
    got = duals.get(a.base)
    if got is None or got[0] is not sort:
        got = duals[a.base] = (sort, dual(sort.session))
    return got[1]


# ---------------------------------------------------------------- check mode

def _same(a: SessionType | Sort, b: SessionType | Sort) -> bool:
    """Whether the types or sorts a and b, free of solver nodes, are
    equal, which is when they unify; False if either holds a solver
    node or `bot`."""
    todo = [(a, b)]
    while todo:
        a, b = todo.pop()
        if a is b:
            continue
        t = type(a)
        if t is not type(b):
            return False
        if t is Basic:
            if a.name != b.name:
                return False
        elif t is In or t is Out:
            todo += ((a.payload, b.payload), (a.then, b.then))
        elif t is BranchT or t is SelectT:
            if len(a.options) != len(b.options):
                return False
            for (l1, x), (l2, y) in zip(a.options, b.options):
                if l1 != l2:
                    return False
                todo.append((x, y))
        elif t is ServiceSort:
            todo.append((a.session, b.session))
        elif t is not End:
            return False
    return True


def _sort_of(env: dict[str, Sort], e: Expr) -> Sort | None:
    """The sort `type_expr` gives e, found without unifying: None where
    it would raise, or where e names a value whose sort is open."""
    t = type(e)
    if t is sx.IntLit:
        return INT
    if t is sx.BoolLit:
        return BOOL
    if t is sx.StrLit:
        return STRING
    if t is sx.Var or t is sx.SvcRef:
        s = env.get(e.name)
        s = None if s is None else walk_sort(s)
        return None if type(s) is SVar else s
    if t is sx.Unop:
        want = _UNOPS.get(e.op)
        a = _sort_of(env, e.arg)
        return want if want and a is not None and _same(a, want) else None
    if t is sx.Binop:
        l, r = _sort_of(env, e.left), _sort_of(env, e.right)
        if l is None or r is None:
            return None
        if e.op == "=" or e.op == "!=":
            return BOOL if _same(l, r) else None
        arg, res = _BINOPS.get(e.op, (None, None))
        return res if arg and _same(l, arg) and _same(r, arg) else None
    return None


_GONE = object()  # in `_check`'s trail: the key had no entry
_ON_CHANNEL = {sx.Send, sx.Receive, sx.Choose, sx.Offer, sx.ReceiveSession,
               sx.SendSession}


def _check(env: dict[str, Sort], p: Process, relax: bool,
           duals: Duals) -> bool:
    """True when `_infer` would type the serve, accept or request p at
    {} without error; False when that is unsure.

    Every channel the walk meets must have a known type: p's own, those
    of the serves, accepts and requests below it, and channels received
    at a declared payload; any other channel, `|` or `new` makes it
    unsure.  `known` maps each channel in scope to what is left of its
    type, and drops it at `end`; a prefix consumes one head of its
    channel's entry, so `0` must find `known` empty.  Received basic
    values are bound in env to their sort.  Each change to `known` and
    env is logged in `trail`, and a branch of `if` or an offer arm
    first undoes the log back to its head.  Nothing is unified, and env
    is restored before the answer, so a False leaves no trace.
    """
    known: dict[Name, SessionType] = {}
    trail: list[tuple[dict, object, object]] = []
    # (trail length to undo to, term, channel to type first, its type)
    todo: list[tuple[int, Process, Name | None, SessionType | None]]
    todo = [(0, p, None, None)]

    def put(m: dict, k: object, v: object) -> None:
        if todo or m is env:  # a branch may undo it, or env is restored
            trail.append((m, k, m.get(k, _GONE)))
        if v is _GONE or type(v) is End:
            m.pop(k, None)
        else:
            m[k] = v

    def undo(mark: int) -> None:
        while len(trail) > mark:
            m, k, old = trail.pop()
            if old is _GONE:
                m.pop(k, None)
            else:
                m[k] = old

    try:
        while todo:
            mark, q, c, t = todo.pop()
            if len(trail) > mark:
                undo(mark)
            if c is not None:
                put(known, c, t)
            while True:  # along q's prefix chain
                tq = type(q)
                if tq is sx.Stop:
                    if known:
                        return False
                    break
                if tq is sx.Serve or tq is sx.Accept or tq is sx.Request:
                    sort = env.get(q.service.base)
                    if type(sort) is not ServiceSort or q.chan in known:
                        return False
                    if tq is sx.Request:
                        try:
                            t = _requested(duals, q.service, sort)
                        except TypingError:  # `bot` in the session
                            return False
                    elif known and not relax:
                        return False  # the body of a service is closed
                    else:
                        t = sort.session
                    put(known, q.chan, t)
                    q = q.body
                    continue
                if tq is sx.If:
                    s = _sort_of(env, q.test)
                    if s is None or not _same(s, BOOL):
                        return False
                    mark = len(trail)
                    todo += ((mark, q.els, None, None),
                             (mark, q.then, None, None))
                    break
                if tq not in _ON_CHANNEL:  # `|`, `new`, or not a process
                    return False
                c = q.chan
                t = known.get(c)
                tt = type(t)
                if tq is sx.Send:
                    s = _sort_of(env, q.expr)
                    if (tt is not Out or s is None
                            or not _same(s, t.payload)):
                        return False
                elif tq is sx.Receive:
                    # inference gives a received value an open sort,
                    # which a request on its name refuses: only basic
                    # values are bound here
                    if tt is not In or type(t.payload) is not Basic:
                        return False
                    put(env, q.var, t.payload)
                elif tq is sx.Choose:
                    if tt is not SelectT:
                        return False
                    for label, a in t.options:
                        if label == q.label:
                            put(known, c, a)
                            break
                    else:
                        return False
                    q = q.body
                    continue
                elif tq is sx.Offer:
                    labels = [l for l, _ in q.arms]
                    if (tt is not BranchT
                            or len(set(labels)) != len(labels)
                            or sorted(labels) != [l for l, _ in t.options]):
                        return False
                    opts = dict(t.options)
                    mark = len(trail)
                    todo += [(mark, arm, c, opts[l])
                             for l, arm in reversed(q.arms)]
                    break
                elif tq is sx.ReceiveSession:
                    if (tt is not In or isinstance(t.payload, Sort)
                            or q.bound in known):
                        return False
                    put(known, q.bound, t.payload)
                elif tq is sx.SendSession:
                    n = q.sent
                    if (tt is not Out or isinstance(t.payload, Sort)
                            or n == c or n not in known
                            or not _same(known[n], t.payload)):
                        return False
                    put(known, n, _GONE)
                put(known, c, t.then)
                q = q.body
        return True
    finally:
        undo(0)


# ----------------------------------------------------------------- inference

_SERVICE_RULES = {sx.Serve: "T-RServ", sx.Accept: "T-Serv",
                  sx.Request: "T-Req"}


def _infer(env: dict[str, Sort], p: Process, relax: bool) -> Delta:
    """The typing of p, with solver nodes still in it.

    Each serve, accept or request is checked first (`_check`), and
    inferred only where that is unsure; nothing below an inferred one
    is checked, so no part of p is walked more than twice.  Inference
    runs on an explicit stack: `todo` holds the terms still to visit
    and, below the parts of each, a step `(rule, term, data)` that
    finishes the term from their typings, which wait on `done`.  So a
    prefix chain is walked down and its heads are wrapped on the way
    back up, and only `|`, `if` and offers wait on several parts.
    """
    duals: Duals = {}
    done: list[Delta] = []
    todo: list = [p]
    inferring = 0  # the serves, accepts and requests being inferred
    while todo:
        q = todo.pop()
        tq = type(q)
        if tq is not tuple:
            if tq is sx.Stop:
                done.append({})
            elif tq is sx.Send:
                try:
                    s = type_expr(env, q.expr)
                except TypingError as err:
                    raise _err("T-Out", q, str(err)) from err
                todo += (("T-Out", q, s), q.body)
            elif tq is sx.Receive:
                # x is bound in the one dict and unbound after: a copy
                # per receive would keep one dict per level alive
                sv = SVar()
                todo += (("T-In", q, (sv, env.pop(q.var, None))), q.body)
                env[q.var] = sv
            elif tq is sx.Par:
                done.append({})
                for leaf in reversed(sx.par_leaves(q)):
                    todo += (("T-Par", q, None), leaf)
            elif tq in _SERVICE_RULES:
                rule = _SERVICE_RULES[tq]
                sort = _service_sort(env, q.service, rule, q)
                if not inferring and _check(env, q, relax, duals):
                    done.append({})
                    continue
                inferring += 1
                todo += ((rule, q, sort), q.body)
            elif tq is sx.Offer:
                arms: list[tuple[str, SessionType, Delta]] = []
                todo.append(("T-Bra", q, arms))
                for label, arm in reversed(q.arms):
                    todo += (("arm", q, (label, arms)), arm)
            elif tq is sx.If:
                try:
                    unify_sort(type_expr(env, q.test), BOOL)
                except TypingError as err:
                    raise _err("T-Cond", q, str(err)) from err
                todo += (("T-Cond", q, None), q.els, q.then)
            elif tq is sx.SendSession:
                if q.sent == q.chan:
                    raise _err("T-Del", q,
                               f"channel {q.chan.base} cannot delegate itself")
                todo += (("T-Del", q, None), q.body)
            elif tq is sx.New or tq is sx.ReceiveSession or tq is sx.Choose:
                rule = ("T-Res" if tq is sx.New else
                        "T-InS" if tq is sx.ReceiveSession else "T-Sel")
                todo += ((rule, q, None), q.body)
            else:
                raise TypingError(f"not a process: {q!r}")
            continue
        # finishing q from the typings of its parts
        rule, q, data = q
        if rule == "T-Par":
            d = done.pop()
            try:
                _compose_into(done[-1], d)
            except TypingError as e:
                raise _err("T-Par", q, str(e)) from e
            continue
        if rule == "arm":
            label, arms = data
            d = done.pop()
            t = d.pop(q.chan, End())
            if isinstance(walk(t), Bot):
                raise _err(
                    "T-Bra", q,
                    f"channel {q.chan.base} is closed inside its own "
                    f"arm {label!r}")
            arms.append((label, t, d))
            continue
        if rule == "T-Bra":
            if len({l for l, _, _ in data}) != len(data):
                raise _err("T-Bra", q, "duplicate labels offered")
            try:
                out = join([d for _, _, d in data])
            except TypingError as e:
                raise _err("T-Bra", q, str(e)) from e
            out[q.chan] = BranchT(tuple(sorted(
                ((l, t) for l, t, _ in data), key=lambda kv: kv[0])))
            done.append(out)
            continue
        if rule == "T-Cond":
            d2 = done.pop()
            try:
                done[-1] = join([done[-1], d2])
            except TypingError as e:
                raise _err("T-Cond", q, str(e)) from e
            continue
        d = done[-1]
        c = q.chan
        if rule == "T-Res":
            t = d.pop(c, End())
            if not (isinstance(walk(t), Bot) or _ends(t)):
                raise _err(
                    "T-Res", q,
                    f"restricted channel {c.base} is left at {show(t)}; "
                    "both endpoints must run to completion")
        elif rule == "T-Out":
            d[c] = Out(data, _pop_cont(d, c, rule, q))
        elif rule == "T-In":
            sv, outer = data
            if outer is None:
                del env[q.var]
            else:
                env[q.var] = outer
            d[c] = In(sv, _pop_cont(d, c, rule, q))
        elif rule == "T-Sel":
            d[c] = OpenSel({q.label: _pop_cont(d, c, rule, q)})
        elif rule == "T-InS":
            beta = d.pop(q.bound, End())
            if isinstance(walk(beta), Bot):
                raise _err(
                    "T-InS", q,
                    f"received channel {q.bound.base} is closed on both "
                    "ends inside the receiving process")
            d[c] = In(beta, _pop_cont(d, c, rule, q))
        elif rule == "T-Del":
            n = q.sent
            if n in d:
                raise _err(
                    "T-Del", q,
                    f"delegated channel {n.base} is still used by the "
                    "continuation")
            beta = tvar_pair()
            d[c] = Out(beta, _pop_cont(d, c, rule, q))
            d[n] = beta
        else:  # a serve, accept or request; data is its service's sort
            inferring -= 1
            t = _pop_cont(d, c, rule, q)
            try:
                unify(t, _requested(duals, q.service, data)
                      if rule == "T-Req" else data.session)
            except TypingError as e:
                body = "" if rule == "T-Req" else f"body of {q.service.base}: "
                raise _err(rule, q, body + str(e)) from e
            if relax or rule == "T-Req":
                continue
            # the body may mention outer channels only at end
            open_left = sorted(k.base for k, t2 in d.items() if not _ends(t2))
            if open_left:
                raise _err(rule, q,
                           f"body uses open session {', '.join(open_left)}")
            done[-1] = {}
    return done[0]


# ----------------------------------------------------------------- interface

def check(gamma: dict[str, Sort], p: Process, *,
          relax_services: bool = False) -> Delta:
    """The minimal typing of p, with solver defaults applied: channels
    map to concrete session types or `bot`.

    With relax_services, service bodies may keep sessions opened outside
    them, as the standard unrestricted rule allows; everything the
    strict rule accepts, the relaxed one accepts too.
    """
    d = _infer(dict(gamma), p, relax_services)
    return {k: resolve(t) for k, t in d.items()}


def is_program(p: Process) -> bool:
    """True for closed terms: no free session channel, and every
    restriction is vacuous, so a congruent restriction-free form exists.

    A restriction whose channel is never used can be erased up to
    congruence; one whose channel occurs below it cannot, because a
    prefixed thread never disappears by rearrangement alone.  Binder
    ids are globally unique, so a restricted channel occurs below its
    `new` exactly when it is mentioned at all.  The restrictions are
    the binders of p's clusters; a cluster with no threads drops its
    binders, but nothing below it mentions them.
    """
    f = sx.facts(p)
    restricted = {c for nf in congruence.clusters(p) for c in nf.binders}
    return not f.free and f.mentions.isdisjoint(restricted)
