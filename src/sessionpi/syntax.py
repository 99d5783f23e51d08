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
from operator import attrgetter, is_
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
# `SHAPES` is the one place that knows where each process form keeps its
# names and its subprocesses; every reader of a node's own names or
# children but the printer, and every map over a term, uses it.  An
# entry names the form's fields, each in the order the form is printed:
# the channel it binds in its continuation, the service a serve, accept
# or request names, the session channels its prefix names (its subject,
# then the channel a delegation sends), and its subprocesses from left
# to right: the two sides of `|`, the two branches of `if`, the arms of
# an offer in their written order, and otherwise the one continuation
# (none for `0`).  `subject`, `children`, `rebuild` and `facts`
# read it through attribute readers made from it once, with one
# lookup by class per node; all but `facts` look at the node they are
# given only.  Walks use an explicit stack, also those that rebuild a
# term (`_map`), so deep terms need no raised recursion limit; pushing
# `reversed(children(q))` visits a term in pre-order, left to right.

class Shape(NamedTuple):
    """Where a process form keeps its names and subprocesses, as field
    names."""
    binder: str | None         # the channel bound in its continuation
    service: str | None        # the service it serves, accepts or requests
    mentions: tuple[str, ...]  # the session channels its prefix names
    children: tuple[str, ...]  # its subprocesses ("arms": an offer's)


_BODY = ("body",)
SHAPES: dict[type, Shape] = {
    Stop: Shape(None, None, (), ()),
    Par: Shape(None, None, (), ("left", "right")),
    New: Shape("chan", None, (), _BODY),
    Serve: Shape("chan", "service", (), _BODY),
    Accept: Shape("chan", "service", (), _BODY),
    Request: Shape("chan", "service", (), _BODY),
    Receive: Shape(None, None, ("chan",), _BODY),
    Send: Shape(None, None, ("chan",), _BODY),
    ReceiveSession: Shape("bound", None, ("chan",), _BODY),
    SendSession: Shape(None, None, ("chan", "sent"), _BODY),
    Offer: Shape(None, None, ("chan",), ("arms",)),
    Choose: Shape(None, None, ("chan",), _BODY),
    If: Shape(None, None, (), ("then", "els")),
}


class _Readers(NamedTuple):
    """A `Shape` as C-level attribute readers, None where the form has
    no such field.  A role with one field or several has one reader for
    each case: one gives the field's value, several a tuple."""
    binder: Callable | None
    service: Callable | None
    subject: Callable | None   # the service, else the first mention
    mention: Callable | None   # the one mentioned channel
    mentions: Callable | None  # two or more, as a tuple
    child: Callable | None     # the one subprocess
    kids: Callable | None      # two or more, or an offer's, as a tuple
    keep: tuple[str, ...]      # the fields that are not subprocesses


def _arm_processes(p: Offer) -> tuple[Process, ...]:
    return tuple([a for _, a in p.arms])


def _readers(cls: type, s: Shape) -> _Readers:
    def get(field: str | None) -> Callable | None:
        return None if field is None else attrgetter(field)

    def one(names: tuple[str, ...]) -> Callable | None:
        return attrgetter(*names) if len(names) == 1 else None

    def several(names: tuple[str, ...]) -> Callable | None:
        return attrgetter(*names) if len(names) > 1 else None

    arms = s.children == ("arms",)
    return _Readers(
        get(s.binder), get(s.service),
        get(s.service or (s.mentions[0] if s.mentions else None)),
        one(s.mentions), several(s.mentions),
        None if arms else one(s.children),
        _arm_processes if arms else several(s.children),
        tuple(f for f in cls._fields if f not in s.children))


# indexed by `type(p)`: anything but a process raises KeyError
_READERS = {cls: _readers(cls, s) for cls, s in SHAPES.items()}


def subject(p: Process) -> Name | None:
    """The name p's prefix acts on: the session channel of an
    in-session prefix, the service of a serve, accept or request; None
    for `0`, `|`, `new` and `if`."""
    get = _READERS[type(p)].subject
    return None if get is None else get(p)


def children(p: Process) -> tuple[Process, ...]:
    """The immediate subprocesses of p, left to right."""
    r = _READERS[type(p)]
    if r.child is not None:
        return (r.child(p),)
    return () if r.kids is None else r.kids(p)


def rebuild(p: Process, kids: Sequence[Process]) -> Process:
    """p with its immediate subprocesses replaced by `kids`, given in
    the order of `children(p)`, and everything else of p kept: its
    names, expressions, the chosen label and each offer arm's label."""
    keep = _READERS[type(p)].keep
    if type(p) is Offer:
        return Offer(p.chan, tuple((l, a) for (l, _), a in zip(p.arms, kids)))
    if not kids:  # `0`
        return p
    return type(p)(*[getattr(p, f) for f in keep], *kids)


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
    """One non-recursive pre-order sweep of p, left to right, reading
    each node through `SHAPES`: the one reader of a term's names below
    its head."""
    bound: dict[Name, None] = {}
    services: set[Name] = set()
    mentioned: set[Name] = set()
    readers = _READERS
    todo = [p]
    while todo:
        q = todo.pop()
        b, a, _, m, ms, k, ks, _ = readers[type(q)]
        if b is not None:
            bound.setdefault(b(q))
        if a is not None and (n := a(q)).kind == SERVICE:
            services.add(n)
        if m is not None:
            mentioned.add(m(q))
        elif ms is not None:
            mentioned.update(ms(q))
        if k is not None:
            todo.append(k(q))
        elif ks is not None:
            todo.extend(reversed(ks(q)))
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
            if len(kids) == 1:
                made = out.pop()
                done = q if made is kids[0] else rebuild(q, (made,))
            else:
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
        get = _READERS[type(q)].binder
        if get is not None:
            c = get(q)
            c2 = bind(c)
            if c2 != c or c in env:  # renamed, or shields env's entry
                shields.append((q, c, env.get(c)))
                env[c] = c2

    def leave(q: Process, done: Process) -> Process:
        s = SHAPES[type(q)]
        renamed = {f: env[n] for f in (s.binder, *s.mentions)
                   if f is not None and (n := getattr(done, f)) in env}
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
