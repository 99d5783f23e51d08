"""Session typing: duality, composition and type checking.

`check` computes the minimal session typing of a process: a map from
free channels to session types, where `bot` marks channels whose two
endpoints are both used inside the process.

Every term is typed by one walk, bottom-up with unification
(`_infer`): a prefix wraps its channel's type in the typing of its
continuation, `|` composes typings, and `if` and offers join them.  A
serve, accept or request then unifies the type its body gives its
channel with the declared session.  A request, and `|` for a channel
both its threads use, want a dual instead, and `unify` reads one side
as its dual in place, so neither builds a dual type.  Delegation
introduces a type variable for the sent channel, paired with a mirror
variable so that taking duals commutes with later instantiation.  A
label selection produces an extensible internal select type that
absorbs sibling labels when matched against a wider select, and is
frozen to its accumulated labels at the end.

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
    # the links end: `bind` links a variable only to a type it does not
    # occur in, so no chain of links comes back to its start
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
    # `_os_union` gives a root a parent only when that parent is another
    # root, so the parents form a forest and each climb ends at a root
    while o.parent is not None:
        o = o.parent
    return o


def dual(t: SessionType) -> SessionType:
    """The other endpoint's view: inputs and outputs swap, offered and
    chosen labels swap, payloads stay as they are."""
    heads = []  # the inputs and outputs along t's continuations
    t = walk(t)
    while type(t) is In or type(t) is Out:  # ends: t is finite
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
    while type(t) is In or type(t) is Out:  # ends: t is finite
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


def show(t: SessionType | Sort, flip: bool = False) -> str:
    return print_type(resolve_payload(dual(t) if flip else t))


# ------------------------------------------------------------------ unifiers

def _occurs(v: TVar | SVar, t: SessionType | Sort) -> bool:
    todo = [t]
    while todo:  # each pass pops one node of the finite t, pushing its parts
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
    # every `TVar` comes from `tvar_pair`, so its mate is set
    if _occurs(v, t) or _occurs(v.mate, t):
        raise TypingError("channel's type would have to contain itself")
    v.link = t
    m = walk(v.mate)
    if isinstance(m, TVar):
        d = dual(t)
        if walk(d) is not m:
            m.link = d


# the head that a head of b's dual is, where the two differ
_DUAL_HEAD = {In: Out, Out: In, BranchT: SelectT, SelectT: BranchT}


def unify(a: SessionType, b: SessionType, flip: bool = False) -> None:
    """Make a equal to b, or with flip to the dual of b without building
    it: an input of b then meets an output of a, a branch a select, a
    variable of b stands for its mate and an open select for its
    `DualOpen`, and payloads meet as they are.  Pairs meet, and errors
    read, as in `unify(a, dual(b))`."""
    # Each pass returns, raises, or goes on: along the continuations of
    # two heads, which are finite, or by a rewrite.  A `DualOpen` b, and
    # under the flag a variable b, become an open select or a variable
    # at once.  Then a `DualOpen` a becomes its base, or under the flag
    # an open select b meeting no open select swaps sides with a: both
    # leave an open select a against none of these, so no rewrite
    # repeats before the next pair of heads.
    while True:
        ta, tb = type(a), type(b)
        if flip:
            tb = _DUAL_HEAD.get(tb, tb)
        if ta is tb:  # two concrete heads, or two ends, need no walk
            if ta is Out or ta is In:
                pa, pb = a.payload, b.payload
                if type(pa) is SVar and pa.link is None and type(pb) is Basic:
                    pa.link = pb
                elif pa is not pb:
                    unify_payload(pa, pb)
                a, b = a.then, b.then
                continue
            if ta is End:
                return
        a, b = walk(a), walk(b)
        if type(b) is DualOpen:
            b, flip = b.base, not flip
        elif flip and type(b) is TVar:
            b, flip = walk(b.mate), False  # a walked mate is a variable
        if a is b and not flip:
            return
        if isinstance(a, TVar):
            bind(a, dual(b) if flip else b)
            return
        if isinstance(b, TVar):
            bind(b, a)
            return
        ta, tb = type(a), type(b)
        if flip:
            tb = _DUAL_HEAD.get(tb, tb)
        if ta is tb:
            if ta is In or ta is Out:
                continue  # heads reached through links: see the top
            if ta is End:
                return
            if ta is BranchT or ta is SelectT:
                if [l for l, _ in a.options] != [l for l, _ in b.options]:
                    raise TypingError(
                        f"label sets differ: {show(a)} vs {show(b, flip)}")
                for (_, x), (_, y) in zip(a.options, b.options):
                    unify(x, y, flip)
                return
            if ta is OpenSel and not flip:  # a select is never a branch
                _os_union(a, b)
                return
        elif ta is OpenSel and tb is SelectT:
            _os_close_to(a, b, flip)
            return
        elif ta is SelectT and tb is OpenSel and not flip:
            _os_close_to(b, a)
            return
        elif ta is DualOpen and (flip or tb is not OpenSel):
            a, flip = a.base, not flip  # an open select b fails below
            continue
        elif flip and tb is OpenSel:  # b stands for its `DualOpen`
            a, b = b, a
            continue
        raise TypingError(f"cannot unify {show(a)} with {show(b, flip)}")


def unify_payload(p1: Sort | SessionType, p2: Sort | SessionType) -> None:
    s1 = isinstance(p1, Sort)
    if s1 is not isinstance(p2, Sort):
        a, b = (p1, p2) if s1 else (p2, p1)
        raise TypingError(
            f"value payload {show(a)} cannot match session payload {show(b)}")
    (unify_sort if s1 else unify)(p1, p2)


def unify_sort(a: Sort, b: Sort) -> None:
    a, b = walk_sort(a), walk_sort(b)
    if a is b:
        return
    if isinstance(b, SVar):
        a, b = b, a
    if isinstance(a, SVar):
        if type(b) is not Basic and _occurs(a, b):
            raise TypingError("value's sort would have to contain itself")
        a.link = b
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
            raise TypingError(f"label {l!r} is not offered by {show(a)}")
        else:
            a.options[l] = t
    if b.closed and set(a.options) != set(b.options):
        raise TypingError(f"label sets differ: {show(a)} vs {show(b)}")
    a.closed = a.closed or b.closed
    b.parent = a


def _os_close_to(o: OpenSel, s: SessionType, flip: bool = False) -> None:
    """Close o to the labels of s, or with flip of the dual of s."""
    o = osfind(o)
    slabels = dict(s.options)
    for l, t in o.options.items():
        if l not in slabels:
            raise TypingError(f"label {l!r} is not among {show(s, flip)}")
        unify(t, slabels[l], flip)
    if o.closed and set(o.options) != set(slabels):
        raise TypingError(f"label sets differ: {show(o)} vs {show(s, flip)}")
    for l, t in slabels.items():
        if l not in o.options:
            o.options[l] = dual(t) if flip else t
    o.closed = True


# ----------------------------------------------------------------- inference

Delta = dict[Name, SessionType]


def _clip(s: str, n: int = 100) -> str:
    return s if len(s) <= n else s[: n - 3] + "..."


def _err(rule: str, at: Process, msg: str) -> TypingError:
    return TypingError(f"{rule}: {msg}, at: {_clip(print_process(at))}")


def _pop_cont(d: Delta, c: Name, rule: str, at: Process) -> SessionType:
    t = d.pop(c, None)
    if t is None:
        return End()
    if type(t) is not In and type(t) is not Out and isinstance(walk(t), Bot):
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
            unify(t1, t2, True)
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
    t = type(e)  # the commonest two first, before the `match`
    if t is sx.IntLit:
        return INT
    if t is sx.Var and e.name in env:
        return env[e.name]
    match e:
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


_SERVICE_RULES = {sx.Serve: "T-RServ", sx.Accept: "T-Serv",
                  sx.Request: "T-Req"}


def _infer(env: dict[str, Sort], p: Process, relax: bool) -> Delta:
    """The typing of p, with solver nodes still in it: every term is
    inferred bottom-up with unification, and a serve, accept or request
    then unifies its body's type for its channel with the declared
    session, or for a request with its dual, read in place.

    The walk runs on an explicit stack: `todo` holds the terms still to
    visit and, below the parts of each, a step `(rule, term, data)` that
    finishes the term from their typings, which wait on `done`.  So a
    prefix chain is walked down and its heads are wrapped on the way
    back up, and only `|`, `if` and offers wait on several parts.
    """
    done: list[Delta] = []
    todo: list = [p]
    while todo:
        q = todo.pop()
        tq = type(q)
        if tq is not tuple:
            if tq is sx.Send:
                try:
                    sort = type_expr(env, q.expr)
                except TypingError as err:
                    raise _err("T-Out", q, str(err)) from err
                todo += (("T-Out", q, sort), q.body)
            elif tq is sx.Receive:
                # x is bound in the one dict and unbound when its step
                # finishes: a copy per receive would keep one dict per
                # level alive
                sv = SVar()
                todo += (("T-In", q, (sv, env.pop(q.var, None))), q.body)
                env[q.var] = sv
            elif tq is sx.Stop:
                done.append({})
            elif tq is sx.Par:
                done.append({})
                for leaf in reversed(sx.par_leaves(q)):
                    todo += (("T-Par", q, None), leaf)
            elif tq in _SERVICE_RULES:
                rule = _SERVICE_RULES[tq]
                todo += ((rule, q, _service_sort(env, q.service, rule, q)),
                         q.body)
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
        elif rule == "T-In":
            sv, outer = data
            if outer is None:
                del env[q.var]
            else:
                env[q.var] = outer
            d[c] = In(sv, _pop_cont(d, c, rule, q))
        elif rule == "T-Out":
            d[c] = Out(data, _pop_cont(d, c, rule, q))
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
            t = _pop_cont(d, c, rule, q)
            try:
                unify(t, data.session, rule == "T-Req")
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
