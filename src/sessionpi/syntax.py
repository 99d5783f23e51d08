"""Abstract syntax for a pi-calculus with binary sessions.

Names are split into two kinds.  Service names stand for public entry
points; they are never bound by the process syntax and are typed by an
environment mapping them to service sorts.  Session channels are created
fresh at every connection and are bound by `New`, by the accept/request
prefixes, and by session reception.

Every binder allocates a globally unique id, so distinct binders are
distinct `Name` values even when they share a spelling.  Free channels
have uid None and are identified by their spelling alone.  This keeps
substitution capture-free without on-the-fly renaming; `refresh` renews
the ids of a term that is about to be duplicated.
"""
from __future__ import annotations

import itertools
from collections import namedtuple
from collections.abc import Callable, Sequence
from operator import is_
from typing import NamedTuple

_uids = itertools.count(1)

CHAN = "chan"
SERVICE = "service"


class Name(NamedTuple):
    """A named tuple, so it hashes and compares in C; its hash is
    `hash((base, kind, uid))`."""
    base: str
    kind: str = CHAN
    uid: int | None = None

    def fresh(self) -> Name:
        """A new bound instance with the same spelling."""
        return Name(self.base, self.kind, next(_uids))


def chan(base: str) -> Name:
    return Name(base, CHAN, None)


def svc(base: str) -> Name:
    return Name(base, SERVICE, None)


def bound_chan(base: str) -> Name:
    return Name(base, CHAN, next(_uids))


# ---------------------------------------------------------------- node classes
#
# Every expression, sort, session type and process is an immutable tuple
# of its fields: `_node` turns a class that annotates its fields into a
# `namedtuple` of them under `_Node`.  A node reads its fields by name,
# takes them by position or keyword, prints as `Stop()` or
# `IntLit(value=1)`, matches class patterns and refuses assignment.
# Tuples rather than frozen dataclasses, because a dataclass generates
# and compiles its methods when its class is made, on every start of the
# program, and a `namedtuple` makes one constructor.

class _Node(tuple):
    """The base of the node classes: a node equals only a node of its own
    class with equal fields (never another node class, nor the plain
    tuple of its fields), hashes as that tuple, and is always true."""
    __slots__ = ()

    def __eq__(self, other):
        return type(other) is type(self) and tuple.__eq__(self, other)

    def __ne__(self, other):
        return type(other) is not type(self) or tuple.__ne__(self, other)

    __hash__ = tuple.__hash__

    def __bool__(self):
        return True


def _node(cls: type) -> type:
    """cls as a node class: a `_Node` and a `namedtuple` of the fields
    cls annotates, in their order, under cls's own bases."""
    fields = namedtuple(cls.__name__, cls.__annotations__)
    return type(cls.__name__, (_Node, fields, *cls.__bases__),
                {"__slots__": (), "__doc__": cls.__doc__})


# ---------------------------------------------------------------- expressions

class Expr:
    __slots__ = ()


@_node
class IntLit(Expr):
    value: int


@_node
class BoolLit(Expr):
    value: bool


@_node
class StrLit(Expr):
    value: str


@_node
class Var(Expr):
    name: str


@_node
class SvcRef(Expr):
    """A service name used as a value, e.g. sent over a channel."""
    name: str


@_node
class Unop(Expr):
    op: str  # "-" or "not"
    arg: Expr


@_node
class Binop(Expr):
    op: str  # + - * = != < <= > >= and or
    left: Expr
    right: Expr


# ---------------------------------------------------------------- sorts/types

class SessionType:
    __slots__ = ()


class Sort:
    __slots__ = ()


@_node
class Basic(Sort):
    name: str


INT = Basic("int")
BOOL = Basic("bool")
STRING = Basic("string")


@_node
class ServiceSort(Sort):
    session: SessionType


@_node
class End(SessionType):
    pass


@_node
class Bot(SessionType):
    """Both endpoints of the channel are used; occurs only in typings."""


@_node
class In(SessionType):
    payload: Sort | SessionType
    then: SessionType


@_node
class Out(SessionType):
    payload: Sort | SessionType
    then: SessionType


@_node
class BranchT(SessionType):
    options: tuple[tuple[str, SessionType], ...]


@_node
class SelectT(SessionType):
    options: tuple[tuple[str, SessionType], ...]


def _options(pairs) -> tuple[tuple[str, SessionType], ...]:
    pairs = tuple(sorted(pairs, key=lambda p: p[0]))
    labels = [l for l, _ in pairs]
    if len(set(labels)) != len(labels):
        raise ValueError(f"duplicate label in {labels}")
    if not pairs:
        raise ValueError("empty label set")
    return pairs


def branch(pairs) -> BranchT:
    """A branch type with its options in canonical (sorted) order."""
    return BranchT(_options(pairs))


def select(pairs) -> SelectT:
    """A select type with its options in canonical (sorted) order."""
    return SelectT(_options(pairs))


# ------------------------------------------------------------------ processes

class Process:
    __slots__ = ()


@_node
class Stop(Process):
    pass


@_node
class Par(Process):
    left: Process
    right: Process


@_node
class New(Process):
    chan: Name
    body: Process


@_node
class Serve(Process):
    """Replicated accept: stays in place and spawns one body per request."""
    service: Name
    chan: Name
    body: Process


@_node
class Accept(Process):
    """One-shot accept: consumed by the connection it serves."""
    service: Name
    chan: Name
    body: Process


@_node
class Request(Process):
    service: Name
    chan: Name
    body: Process


@_node
class Receive(Process):
    chan: Name
    var: str
    body: Process


@_node
class Send(Process):
    chan: Name
    expr: Expr
    body: Process


@_node
class ReceiveSession(Process):
    chan: Name
    bound: Name
    body: Process


@_node
class SendSession(Process):
    chan: Name
    sent: Name
    body: Process


@_node
class Offer(Process):
    chan: Name
    arms: tuple[tuple[str, Process], ...]


@_node
class Choose(Process):
    chan: Name
    label: str
    body: Process


@_node
class If(Process):
    test: Expr
    then: Process
    els: Process


# ---------------------------------------------------------------- node shapes
#
# Every process form lays out its fields by one rule.  Field 0 holds the
# name its prefix acts on: the service of a serve, accept or request,
# and otherwise the session channel of its prefix (`new` holds its
# binder there); a delegation's sent channel comes next.  The
# subprocesses come last, from left to right: the two sides of `|`, the
# two branches of `if`, and otherwise the one continuation (none for
# `0`); an offer's last field is its arms, each a label and a process,
# in their written order.  `SHAPES` records that layout as positions,
# by class (the subprocesses' counted from the end, so a lone
# continuation is at -1), and is the one place that knows where each
# form keeps its names and its subprocesses: every reader of a node's
# own names or children but the printer, and every map over a term,
# indexes the node's fields through it, with one lookup by class per
# node.  `subject`, `children` and `rebuild` look at the node they are
# given only.  Walks use an explicit stack, also those that rebuild a
# term (`_map`), so deep terms need no raised recursion limit; pushing
# `reversed(children(q))` visits a term in pre-order, left to right.

class Shape(NamedTuple):
    """Where a process form keeps its names and subprocesses, as field
    positions.  Its subprocesses start at `children`, counted from the
    end: -1 for one continuation, -2 for the sides of `|` or the
    branches of `if`, and 0 for `0`, which has no fields."""
    binder: int | None    # the channel bound in its continuation
    service: bool         # field 0 is the service it acts on
    mentions: int         # its first fields name this many session channels
    children: int | None  # where its subprocesses start; None: an offer's arms


SHAPES: dict[type, Shape] = {
    Stop: Shape(None, False, 0, 0),
    Par: Shape(None, False, 0, -2),
    New: Shape(0, False, 0, -1),
    Serve: Shape(1, True, 0, -1),
    Accept: Shape(1, True, 0, -1),
    Request: Shape(1, True, 0, -1),
    Receive: Shape(None, False, 1, -1),
    Send: Shape(None, False, 1, -1),
    ReceiveSession: Shape(1, False, 1, -1),
    SendSession: Shape(None, False, 2, -1),
    Offer: Shape(None, False, 1, None),
    Choose: Shape(None, False, 1, -1),
    If: Shape(None, False, 0, -2),
}

# the forms with a prefix: field 0 is the name it acts on
_PREFIXED = frozenset(cls for cls, s in SHAPES.items()
                      if s.service or s.mentions)


def subject(p: Process) -> Name | None:
    """The name p's prefix acts on: the session channel of an
    in-session prefix, the service of a serve, accept or request; None
    for `0`, `|`, `new` and `if`."""
    return p[0] if type(p) in _PREFIXED else None


def children(p: Process) -> tuple[Process, ...]:
    """The immediate subprocesses of p, left to right."""
    at = SHAPES[type(p)].children
    return tuple([a for _, a in p[-1]]) if at is None else p[at:]


def rebuild(p: Process, kids: Sequence[Process]) -> Process:
    """p with its immediate subprocesses replaced by `kids`, given in
    the order of `children(p)`, and everything else of p kept: its
    names, expressions, the chosen label and each offer arm's label."""
    at = SHAPES[type(p)].children
    if at is None:
        return Offer(p.chan, tuple((l, a) for (l, _), a in zip(p.arms, kids)))
    return type(p)(*p[:at], *kids) if kids else p  # `0` has none


def par_leaves(p: Process) -> list[Process]:
    """The operands of the `|` nest at p, left to right; [p] when p is
    not a `|`."""
    leaves: list[Process] = []
    todo = [p]
    while todo:
        q = todo.pop()
        if isinstance(q, Par):
            todo.append(q.right)
            todo.append(q.left)
        else:
            leaves.append(q)
    return leaves


class Facts(NamedTuple):
    """What a term's names are, from one sweep of it."""
    binders: tuple[Name, ...]  # in pre-order, left to right, each once
    services: frozenset[Name]  # those it serves, accepts or requests
    mentions: frozenset[Name]  # session channels its prefixes name

    @property
    def free(self) -> frozenset[Name]:
        """The free session channels.  Binder ids are globally unique,
        so a bound channel's occurrences can only sit under its own
        binder: the free channels are the mentioned ones minus the
        binders."""
        return self.mentions.difference(self.binders)


def facts(p: Process) -> Facts:
    """One non-recursive pre-order sweep of p, left to right, indexing
    each node through `SHAPES`: the one reader of a term's names below
    its head."""
    bound: dict[Name, None] = {}
    services: set[Name] = set()
    mentioned: set[Name] = set()
    shapes = SHAPES
    todo = [p]
    while todo:
        q = todo.pop()
        b, served, m, k = shapes[type(q)]
        if b is not None:
            bound.setdefault(q[b])
        if served and (n := q[0]).kind == SERVICE:
            services.add(n)
        # one name or one child, the commonest, skips the slice: that
        # halves the sweep's time
        if m == 1:
            mentioned.add(q[0])
        elif m:
            mentioned.update(q[:m])
        if k == -1:
            todo.append(q[-1])
        elif k is None:  # an offer
            todo.extend(reversed([a for _, a in q[-1]]))
        else:
            todo.extend(reversed(q[k:]))
    return Facts(tuple(bound), frozenset(services), frozenset(mentioned))


def free_session_channels(p: Process) -> frozenset[Name]:
    """Free session channels of a process: `facts(p).free`."""
    return facts(p).free


def _map(p: Process, enter: Callable[[Process], Process | None],
         leave: Callable[[Process, Process], Process]) -> Process:
    """p rebuilt bottom-up on an explicit stack, so a long prefix chain
    needs no recursion.  `enter(q)` runs as the walk reaches q, in
    pre-order left to right, and may return q's result to keep the
    walk out of q; otherwise `leave(q, done)` makes q's result once the
    results of `children(q)` are all made, from `done`: q itself when
    each of them came back as the very child it was made from, else q
    rebuilt on them.  So a walk whose `enter` and `leave` change nothing
    shares every unchanged subterm, and copies only the path down to
    each change (path copying)."""
    out: list[Process] = []
    todo: list = [p]  # terms to reach, and (term, its children)
    # the loop ends: each pass pops one entry, and each term of the
    # finite p is pushed at most twice, once to be reached and once as
    # the step that leaves it
    while todo:
        q = todo.pop()
        if type(q) is tuple:
            q, kids = q
            made = out[-len(kids):]
            del out[-len(kids):]
            done = q if all(map(is_, made, kids)) else rebuild(q, made)
            out.append(leave(q, done))
            continue
        done = enter(q)
        if done is not None:
            out.append(done)
            continue
        kids = children(q)
        if kids:
            todo.append((q, kids))
            todo += reversed(kids)
        else:
            out.append(leave(q, q))
    return out[0]


def _rename(p: Process, env: dict[Name, Name],
            bind: Callable[[Name], Name]) -> Process:
    """p with each channel n free in p renamed to env.get(n, n), and
    each binder b renamed to bind(b) throughout its scope; env is the
    caller's to give up.

    bind is called on the binders in pre-order, left to right.
    """
    # env is changed in place: each binder in scope that changed it is
    # kept with the entry it hid
    shields: list[tuple[Process, Name, Name | None]] = []

    def enter(q: Process) -> None:
        b = SHAPES[type(q)].binder
        if b is not None:
            c = q[b]
            c2 = bind(c)
            if c2 != c or c in env:  # renamed, or shields env's entry
                shields.append((q, c, env.get(c)))
                env[c] = c2

    def leave(q: Process, done: Process) -> Process:
        s = SHAPES[type(q)]
        renamed = {q._fields[i]: env[n] for i in (s.binder, *range(s.mentions))
                   if i is not None and (n := done[i]) in env}
        if shields and shields[-1][0] is q:  # q's scope ends here
            _, c, hidden = shields.pop()
            if hidden is None:
                del env[c]
            else:
                env[c] = hidden
        return done._replace(**renamed) if renamed else done

    return _map(p, enter, leave)


def subst_chan(p: Process, old: Name, new: Name) -> Process:
    """p with free occurrences of channel `old` replaced by `new`; p
    itself when `old` is not free in it.

    Binders are globally unique, so no capture check is needed; a binder
    equal to `old` still shields its scope for safety.
    """
    return _rename(p, {old: new}, lambda b: b)


def substitute_expr(e: Expr, name: str, value: Expr) -> Expr:
    """e with variable `name` replaced by value; e itself when `name`
    does not occur in it."""
    match e:
        case Var(n) if n == name:
            return value
        case Unop(op, a):
            a2 = substitute_expr(a, name, value)
            return e if a2 is a else Unop(op, a2)
        case Binop(op, l, r):
            l2 = substitute_expr(l, name, value)
            r2 = substitute_expr(r, name, value)
            return e if l2 is l and r2 is r else Binop(op, l2, r2)
        case _:
            return e


def substitute(p: Process, name: str, value: Expr) -> Process:
    """p with free occurrences of expression variable `name` replaced.
    Only the path down to each occurrence is new: p itself comes back
    when `name` is not free in it."""
    def enter(q: Process) -> Process | None:
        return q if type(q) is Receive and q.var == name else None

    def leave(q: Process, done: Process) -> Process:
        if type(q) is Send:
            e = substitute_expr(q.expr, name, value)
            return done if e is q.expr else Send(q.chan, e, done.body)
        if type(q) is If:
            e = substitute_expr(q.test, name, value)
            return done if e is q.test else If(e, done.then, done.els)
        return done

    return _map(p, enter, leave)


def refresh(p: Process) -> Process:
    """p with each bound channel given a new unique id; only the path
    down to each binder is new, so p itself comes back when it binds
    nothing.

    Use before putting a copy of a term (e.g. a replicated service body)
    next to the original, so binder ids stay globally unique.
    """
    return _rename(p, {}, Name.fresh)
