"""Session typing: duality, composition and type inference.

`check` computes the minimal session typing of a process: a map from
free channels to session types, where `bot` marks channels whose two
endpoints are both used inside the process.  Inference is bottom-up
with unification.  Delegation introduces a type variable for the sent
channel, paired with a mirror variable so that taking duals commutes
with later instantiation.  A label selection produces an extensible
internal select type that absorbs sibling labels when matched against a
wider select, and is frozen to its accumulated labels at the end.
"""
from __future__ import annotations

from dataclasses import dataclass, field

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
    while isinstance(t, TVar) and t.link is not None:
        t = t.link
    if isinstance(t, OpenSel):
        return osfind(t)
    if isinstance(t, DualOpen):
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
    t = walk(t)
    match t:
        case End():
            return t
        case In(p, then):
            return Out(p, dual(then))
        case Out(p, then):
            return In(p, dual(then))
        case BranchT(opts):
            return SelectT(tuple((l, dual(a)) for l, a in opts))
        case SelectT(opts):
            return BranchT(tuple((l, dual(a)) for l, a in opts))
        case TVar():
            assert t.mate is not None
            return t.mate
        case OpenSel():
            return DualOpen(t)
        case DualOpen(base):
            return base
    raise TypingError(f"type {show(t)} has no dual")


def resolve(t: SessionType) -> SessionType:
    """Strip solver nodes: unresolved variables default to `end`, open
    selects freeze to their accumulated labels."""
    t = walk(t)
    match t:
        case TVar():
            return End()
        case End() | Bot():
            return t
        case In(p, then):
            return In(resolve_payload(p), resolve(then))
        case Out(p, then):
            return Out(resolve_payload(p), resolve(then))
        case BranchT(opts):
            return sx.branch([(l, resolve(a)) for l, a in opts])
        case SelectT(opts):
            return sx.select([(l, resolve(a)) for l, a in opts])
        case OpenSel(opts, _, _):
            return sx.select([(l, resolve(a)) for l, a in opts.items()])
        case DualOpen(base):
            return dual(resolve(base))
    raise TypingError(f"cannot resolve {t!r}")


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
    t = walk(t) if isinstance(t, SessionType) else walk_sort(t)
    match t:
        case TVar() | SVar():
            return t is v
        case In(p, then) | Out(p, then):
            return _occurs(v, p) or _occurs(v, then)
        case BranchT(opts) | SelectT(opts):
            return any(_occurs(v, a) for _, a in opts)
        case OpenSel(opts, _, _):
            return any(_occurs(v, a) for a in opts.values())
        case DualOpen(base):
            return any(_occurs(v, a) for a in osfind(base).options.values())
        case ServiceSort(s):
            return _occurs(v, s)
        case _:
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
            unify(t1, t2)
            return
        case (BranchT(o1), BranchT(o2)) | (SelectT(o1), SelectT(o2)):
            if [l for l, _ in o1] != [l for l, _ in o2]:
                raise TypingError(f"label sets differ: {show(a)} vs {show(b)}")
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
            unify(base, dual(b))
            return
        case (_, DualOpen(base)):
            unify(base, dual(a))
            return
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
        case sx.Unop("-", a):
            unify_sort(type_expr(env, a), INT)
            return INT
        case sx.Unop("not", a):
            unify_sort(type_expr(env, a), BOOL)
            return BOOL
        case sx.Binop(op, l, r):
            sl, sr = type_expr(env, l), type_expr(env, r)
            if op in ("+", "-", "*"):
                unify_sort(sl, INT)
                unify_sort(sr, INT)
                return INT
            if op in ("and", "or"):
                unify_sort(sl, BOOL)
                unify_sort(sr, BOOL)
                return BOOL
            if op in ("<", "<=", ">", ">="):
                unify_sort(sl, INT)
                unify_sort(sr, INT)
                return BOOL
            if op in ("=", "!="):
                unify_sort(sl, sr)
                return BOOL
    raise TypingError(f"not an expression: {e!r}")


def _service_session(env: dict[str, Sort], a: Name, rule: str,
                     at: Process) -> SessionType:
    sort = env.get(a.base)
    if sort is None:
        raise _err(rule, at, f"service {a.base} has no declared sort")
    if not isinstance(sort, ServiceSort):
        raise _err(rule, at,
                   f"{a.base} is not a service (its sort is {show(sort)})")
    return sort.session


def _infer(env: dict[str, Sort], p: Process, relax: bool) -> Delta:
    match p:
        case sx.Stop():
            return {}
        case sx.Par(_, _):
            # flatten so that wide compositions neither recurse deeply
            # nor copy the accumulated typing once per thread
            acc: Delta = {}
            for leaf in sx.par_leaves(p):
                d = _infer(env, leaf, relax)
                try:
                    _compose_into(acc, d)
                except TypingError as e:
                    raise _err("T-Par", p, str(e)) from e
            return acc
        case sx.New(c, body):
            d = _infer(env, body, relax)
            t = d.pop(c, End())
            if isinstance(walk(t), Bot) or _ends(t):
                return d
            raise _err(
                "T-Res", p,
                f"restricted channel {c.base} is left at {show(t)}; "
                "both endpoints must run to completion")
        case sx.Serve(a, c, body) | sx.Accept(a, c, body):
            rule = "T-RServ" if isinstance(p, sx.Serve) else "T-Serv"
            s = _service_session(env, a, rule, p)
            d = _infer(env, body, relax)
            t = _pop_cont(d, c, rule, p)
            try:
                unify(t, s)
            except TypingError as e:
                raise _err(rule, p, f"body of {a.base}: {e}") from e
            if relax:
                return d
            # the body may mention outer channels only at end
            open_left = sorted(k.base for k, t2 in d.items() if not _ends(t2))
            if open_left:
                raise _err(rule, p,
                           f"body uses open session {', '.join(open_left)}")
            return {}
        case sx.Request(a, c, body):
            s = _service_session(env, a, "T-Req", p)
            d = _infer(env, body, relax)
            t = _pop_cont(d, c, "T-Req", p)
            try:
                unify(t, dual(s))
            except TypingError as e:
                raise _err("T-Req", p, str(e)) from e
            return d
        case sx.Receive(c, x, body):
            # x is bound in the one dict and unbound after: a copy per
            # receive would keep one dict per level of nesting alive
            sv = SVar()
            outer = env.pop(x, None)
            env[x] = sv
            try:
                d = _infer(env, body, relax)
            finally:
                if outer is None:
                    del env[x]
                else:
                    env[x] = outer
            cont = _pop_cont(d, c, "T-In", p)
            d[c] = In(sv, cont)
            return d
        case sx.Send(c, e, body):
            try:
                s = type_expr(env, e)
            except TypingError as err:
                raise _err("T-Out", p, str(err)) from err
            d = _infer(env, body, relax)
            cont = _pop_cont(d, c, "T-Out", p)
            d[c] = Out(s, cont)
            return d
        case sx.ReceiveSession(c, n, body):
            d = _infer(env, body, relax)
            beta = d.pop(n, End())
            if isinstance(walk(beta), Bot):
                raise _err(
                    "T-InS", p,
                    f"received channel {n.base} is closed on both ends "
                    "inside the receiving process")
            cont = _pop_cont(d, c, "T-InS", p)
            d[c] = In(beta, cont)
            return d
        case sx.SendSession(c, n, body):
            if n == c:
                raise _err("T-Del", p,
                           f"channel {c.base} cannot delegate itself")
            d = _infer(env, body, relax)
            if n in d:
                raise _err(
                    "T-Del", p,
                    f"delegated channel {n.base} is still used by the "
                    "continuation")
            beta = tvar_pair()
            cont = _pop_cont(d, c, "T-Del", p)
            d[c] = Out(beta, cont)
            d[n] = beta
            return d
        case sx.Offer(c, arms):
            ds = []
            pairs = []
            for label, arm in arms:
                d = _infer(env, arm, relax)
                t = d.pop(c, End())
                if isinstance(walk(t), Bot):
                    raise _err(
                        "T-Bra", p,
                        f"channel {c.base} is closed inside its own "
                        f"arm {label!r}")
                ds.append(d)
                pairs.append((label, t))
            if len({l for l, _ in pairs}) != len(pairs):
                raise _err("T-Bra", p, "duplicate labels offered")
            try:
                out = join(ds)
            except TypingError as e:
                raise _err("T-Bra", p, str(e)) from e
            out[c] = BranchT(tuple(sorted(pairs, key=lambda kv: kv[0])))
            return out
        case sx.Choose(c, label, body):
            d = _infer(env, body, relax)
            cont = _pop_cont(d, c, "T-Sel", p)
            d[c] = OpenSel({label: cont})
            return d
        case sx.If(e, th, el):
            try:
                unify_sort(type_expr(env, e), BOOL)
            except TypingError as err:
                raise _err("T-Cond", p, str(err)) from err
            d1 = _infer(env, th, relax)
            d2 = _infer(env, el, relax)
            try:
                return join([d1, d2])
            except TypingError as e:
                raise _err("T-Cond", p, str(e)) from e
    raise TypingError(f"not a process: {p!r}")


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
