"""Reduction: expression evaluation, redexes, stepping, exploration.

Reduction operates on normal forms, so the contextual and structural
rules never appear explicitly: a redex is a pair of thread positions
(or a single position for a conditional) together with its rule tag.
A state is a `congruence.NormalForm`: `step` flattens only the
continuations it splices in, and `redexes`, `step`, `explore` and
`trace` take either a state or a `Process`; `.process()` turns a state
back into a term.  `_pair_redex` and `_if_redex` are the one judge of
what may fire: `redexes` asks them at every position, `step` asks them
again at its redex's positions, and `_carried` asks them about the
threads a step put in.
Service initiation keeps replicated servers in place and spawns a body
copy with fresh binders; one-shot accepts are consumed.  Delegation
follows the original rule where the receiving side must guess the
delegated channel: the redex exists only if the receiver's bound name
can be renamed to the delegated one without capture.
"""
from __future__ import annotations

import random
from collections.abc import Iterator
from operator import attrgetter
from typing import NamedTuple

from . import congruence, syntax as sx
from .congruence import NormalForm, print_states
from .syntax import Expr, Name, Process


class EvalError(Exception):
    pass


# ------------------------------------------------------------- expressions

Value = int | bool | str | Name


def eval_expr(e: Expr) -> Value:
    """Big-step evaluation of a closed expression.

    Service names evaluate to themselves; a free variable or an operand
    of the wrong shape (impossible for well-typed closed input) raises
    EvalError.
    """
    match e:
        case sx.IntLit(v):
            return v
        case sx.BoolLit(v):
            return v
        case sx.StrLit(v):
            return v
        case sx.SvcRef(n):
            return sx.svc(n)
        case sx.Var(n):
            raise EvalError(f"free variable {n!r}")
        case sx.Unop("-", a):
            return -_as_int(eval_expr(a))
        case sx.Unop("not", a):
            return not _as_bool(eval_expr(a))
        case sx.Binop(op, l, r):
            a, b = eval_expr(l), eval_expr(r)
            if op in ("+", "-", "*"):
                x, y = _as_int(a), _as_int(b)
                return x + y if op == "+" else x - y if op == "-" else x * y
            if op in ("<", "<=", ">", ">="):
                x, y = _as_int(a), _as_int(b)
                return {"<": x < y, "<=": x <= y,
                        ">": x > y, ">=": x >= y}[op]
            if op == "and":
                return _as_bool(a) and _as_bool(b)
            if op == "or":
                return _as_bool(a) or _as_bool(b)
            if op in ("=", "!="):
                if type(a) is not type(b):
                    raise EvalError(f"'{op}' compares values of different sorts")
                return a == b if op == "=" else a != b
    raise EvalError(f"not an expression: {e!r}")


def _as_int(v: Value) -> int:
    if type(v) is not int:
        raise EvalError(f"expected an int, got {v!r}")
    return v


def _as_bool(v: Value) -> bool:
    if type(v) is not bool:
        raise EvalError(f"expected a bool, got {v!r}")
    return v


def value_expr(v: Value) -> Expr:
    """Embed an evaluated value back into expression syntax."""
    if type(v) is bool:
        return sx.BoolLit(v)
    if type(v) is int:
        return sx.IntLit(v)
    if type(v) is str:
        return sx.StrLit(v)
    if isinstance(v, Name):
        return sx.SvcRef(v.base)
    raise EvalError(f"not a value: {v!r}")


# ------------------------------------------------------------------ redexes

class Redex(NamedTuple):
    """One enabled reduction.

    `i` is the position (in the normal form's thread list) of the
    accepting/receiving/offering side, or of the conditional; `j` is the
    requesting/sending/selecting side.  Extra fields carry what the rule
    consumes: the selected label, the evaluated value, the delegated
    channel.
    """
    rule: str  # RInit | Init | Com | Del | Sel | IfT | IfF
    i: int
    j: int | None = None
    label: str | None = None
    value: Value | None = None
    chan: Name | None = None

    def describe(self) -> str:
        where = f"{self.i}" if self.j is None else f"{self.i},{self.j}"
        extra = ""
        if self.rule == "Sel":
            extra = f" {self.label}"
        elif self.rule == "Com":
            v = self.value
            extra = f" {v.base}" if isinstance(v, Name) else f" {v!r}"
        elif self.rule == "Del" and self.chan is not None:
            extra = f" {self.chan.base}"
        return f"{self.rule}@{where}{extra}"


def _pair_redex(i: int, ti: Process, j: int, tj: Process) -> Redex | None:
    """The redex with input side ti at i and output side tj at j, if any."""
    match ti, tj:
        case sx.Serve(a, _, _), sx.Request(b, _, _) if a == b:
            return Redex("RInit", i, j)
        case sx.Accept(a, _, _), sx.Request(b, _, _) if a == b:
            return Redex("Init", i, j)
        case sx.Receive(c, _, _), sx.Send(c2, e, _) if c == c2:
            try:
                v = eval_expr(e)
            except EvalError:
                return None  # open payload: no value to pass yet
            return Redex("Com", i, j, value=v)
        case sx.ReceiveSession(c, m, body), sx.SendSession(c2, n, _) if c == c2:
            # receiver must guess right: renaming m to n needs n not free
            if n == m or n not in sx.free_session_channels(body):
                return Redex("Del", i, j, chan=n)
            return None
        case sx.Offer(c, arms), sx.Choose(c2, l, _) if c == c2:
            if any(l == l2 for l2, _ in arms):
                return Redex("Sel", i, j, label=l)
            return None
    return None


def _if_redex(i: int, t: Process) -> Redex | None:
    """The redex of a conditional at i whose guard is a closed boolean."""
    if not isinstance(t, sx.If):
        return None
    try:
        v = eval_expr(t.test)
    except EvalError:
        return None  # open guard: no branch to take yet
    return Redex("IfT" if v else "IfF", i) if type(v) is bool else None


# a redex's place in (i, j) order; a position holds one conditional or
# input sides only, so j is never None where two redexes share an i
_BY_POSITION = attrgetter("i", "j")
_INPUTS = (sx.Serve, sx.Accept, sx.Receive, sx.ReceiveSession, sx.Offer)
_OUTPUTS = (sx.Request, sx.Send, sx.SendSession, sx.Choose)


def redexes(p: Process | NormalForm) -> list[Redex]:
    """Every enabled redex of normal_form(p), in (i, j) order, found
    from scratch.

    One pass buckets the output sides by `syntax.subject` (a request by
    its service; a send, delegation or selection by its session
    channel), in position order.  Each input side then tries only the
    bucket of its own subject, so the scan costs one pass over the
    threads plus one `_pair_redex` call per input and output side that
    share a subject.  `trace` and `explore` scan only the state they
    start from: every later state gets its redexes from its parent's
    (`_carried`).
    """
    threads = congruence.normal_form(p).threads
    outputs: dict[Name, list[int]] = {}
    for j, tj in enumerate(threads):
        if isinstance(tj, _OUTPUTS):
            outputs.setdefault(sx.subject(tj), []).append(j)
    out: list[Redex] = []
    for i, ti in enumerate(threads):
        if not isinstance(ti, _INPUTS):
            r = _if_redex(i, ti)
            if r is not None:
                out.append(r)
            continue
        for j in outputs.get(sx.subject(ti), ()):
            r = _pair_redex(i, ti, j, threads[j])
            if r is not None:
                out.append(r)
    return out


def _holding(subjects: tuple[Name | None, ...], s: Name) -> Iterator[int]:
    """The positions whose subject is s, ascending, found by
    `tuple.index`."""
    k = -1
    try:
        while True:
            k = subjects.index(s, k + 1)
            yield k
    except ValueError:
        return


def _carried(q: NormalForm, rs: list[Redex],
             subjects: tuple[Name | None, ...], r: Redex, q2: NormalForm,
             m: int) -> tuple[list[Redex], tuple[Name | None, ...]]:
    """The redexes of q2 = step(q, r), in (i, j) order, and the
    `syntax.subject` of each of its threads, from q's redexes rs and
    subjects; m is where `_step` ended the first continuation.

    `step` leaves every thread it did not consume where it was, and
    puts each continuation's threads where its consumed thread stood.
    So a redex of q between two surviving threads is one of q2 at their
    new positions, and only a pair with a continuation thread in it, or
    a continuation's conditional, is judged: its partners are the
    threads whose subject is its own, found in `subjects` by
    `tuple.index`.  Past slicing and those scans, which run in C, the
    work follows the threads the step put in and the redexes carried,
    not the threads the step left alone.
    """
    new = q2.threads
    if r.j is None or r.rule == "RInit":  # one thread consumed
        a = b = r.i if r.j is None else r.j  # a server stays in place
    else:
        a, b = sorted((r.i, r.j))
    grown = len(new) - len(q.threads)
    end = b + 1 + grown  # new[a:end]: the continuations and the gap
    g = max(b - a - 1, 0)  # the threads between two consumed ones
    fresh = [*range(a, m), *range(m + g, end)]
    subjects = (subjects[:a] + tuple(map(sx.subject, new[a:m]))
                + subjects[a + 1:b] + tuple(map(sx.subject, new[m + g:end]))
                + subjects[b + 1:])

    def moved(k: int) -> int:  # where the surviving thread at k went
        return k if k < a else k + m - a - 1 if k < b else k + grown

    out: list[Redex] = []
    for x in rs:
        i, j = x.i, x.j
        if i == a or i == b or j == a or j == b:
            continue  # a side was consumed
        if i > a or j is not None and j > a:
            x = Redex(x.rule, moved(i), None if j is None else moved(j),
                      *x[3:])
        out.append(x)
    for k in fresh:
        t = new[k]
        if isinstance(t, _INPUTS):
            found = [_pair_redex(k, t, j, new[j])
                     for j in _holding(subjects, subjects[k])
                     if isinstance(new[j], _OUTPUTS)]
        elif isinstance(t, _OUTPUTS):  # a new input has met it already
            found = [_pair_redex(i, new[i], k, t)
                     for i in _holding(subjects, subjects[k])
                     if isinstance(new[i], _INPUTS) and i not in fresh]
        else:
            found = [_if_redex(k, t)]
        out += filter(None, found)
    out.sort(key=_BY_POSITION)
    return out, subjects


# ----------------------------------------------------------------- stepping

def step(p: Process | NormalForm, r: Redex) -> NormalForm:
    """Apply one redex of p; the result is the new state's normal form.

    r must be what `_pair_redex` or `_if_redex` judge at its positions
    in normal_form(p); a stale redex raises ValueError.  The untouched
    threads are kept as they are.  Each continuation is flattened on
    its own and spliced in where its thread stood, so surviving threads
    keep their order (and node numbering) across the step, and its
    binders follow the state's and the fresh session channel's: the
    order that flattening the whole new term would give.
    """
    return _step(congruence.normal_form(p), r)[0]


def _step(nf: NormalForm, r: Redex) -> tuple[NormalForm, int]:
    """`step(nf, r)`, and the position in it where the continuation of
    the first consumed thread ends, which `_carried` reads."""
    threads, binders = nf.threads, list(nf.binders)
    n = len(threads)
    ti = threads[r.i] if 0 <= r.i < n else None
    tj = threads[r.j] if r.j is not None and 0 <= r.j < n else None
    got = _if_redex(r.i, ti) if r.j is None else _pair_redex(r.i, ti, r.j, tj)
    # 1 == True, so a value's type must match as well as the value
    if got != r or type(got.value) is not type(r.value):
        raise ValueError(f"stale redex {r.describe()}: not enabled here")

    match got.rule:
        case "RInit" | "Init":
            k = ti.chan.fresh()
            binders.append(k)
            # a replicated server stays and spawns a copy with new binders
            body = sx.refresh(ti.body) if got.rule == "RInit" else ti.body
            served = sx.subst_chan(body, ti.chan, k)
            asked = sx.subst_chan(tj.body, tj.chan, k)
            conts = ({r.j: sx.Par(served, asked)} if got.rule == "RInit"
                     else {r.i: served, r.j: asked})
        case "Com":
            v = value_expr(got.value)
            conts = {r.i: sx.substitute(ti.body, ti.var, v), r.j: tj.body}
        case "Del":
            conts = {r.i: sx.subst_chan(ti.body, ti.bound, got.chan),
                     r.j: tj.body}
        case "Sel":
            conts = {r.i: next(a for l, a in ti.arms if l == got.label),
                     r.j: tj.body}
        case "IfT" | "IfF":
            conts = {r.i: ti.then if got.rule == "IfT" else ti.els}

    out: list[Process] = []
    last = 0
    for pos in sorted(conts):
        c = congruence.normal_form(conts[pos])
        out += threads[last:pos]
        out += c.threads
        binders += c.binders
        if not last:  # the first continuation ends here
            m = len(out)
        last = pos + 1
    out += threads[last:]
    if not out:
        return NormalForm((), ()), m
    return NormalForm(tuple(binders), tuple(out)), m


# -------------------------------------------------------------- exploration

class Trace(NamedTuple):
    steps: tuple[tuple[NormalForm, Redex], ...]
    final: NormalForm

    def __len__(self) -> int:
        return len(self.steps)

    def states(self) -> list[NormalForm]:
        """Every state of the run, the final one included."""
        return [q for q, _ in self.steps] + [self.final]


def explore(p: Process | NormalForm, depth: int, max_states: int = 2000,
            table: congruence.Table | None = None,
            cuts: set[str] | None = None
            ) -> Iterator[tuple[NormalForm, list[Redex]]]:
    """The states (normal forms) reachable from p within `depth` steps,
    each with its redexes: breadth first from p's own normal form,
    deduplicated up to congruence and renaming.

    A state is stepped only once the next pair is asked for.  States at
    the last level are yielded but not stepped; one that still reduces
    adds "depth" to `cuts`.  At most `max_states` states are kept
    (always at least the start): the first new state beyond them adds
    "max-states" and ends all stepping.  One `canonical_key` table,
    `table` if given, serves the whole walk.  Only the start is scanned
    by `redexes`; every later state carries its parent's (`_carried`).
    """
    if table is None:
        table = {}
    if cuts is None:
        cuts = set()
    start = congruence.normal_form(p)
    seen = {congruence.canonical_key(start, table)}
    # (binders, thread ids) -> canonical key: steps that commute reach
    # the very same thread objects, and such a state is keyed once.
    # Each id is of a thread `table` holds, so no id is reused meanwhile.
    keys: dict[tuple[tuple[Name, ...], tuple[int, ...]], str] = {}
    frontier = [(start, redexes(start),
                 tuple(map(sx.subject, start.threads)))]
    full = False
    while frontier:
        nxt = []
        for q, rs, subjects in frontier:
            yield q, rs
            if depth <= 0:
                if rs:
                    cuts.add("depth")
                continue
            for r in rs:
                if full:
                    break
                q2, m = _step(q, r)
                ids = q2.binders, tuple(map(id, q2.threads))
                key = keys.get(ids)
                if key is None:
                    key = keys[ids] = congruence.canonical_key(q2, table)
                if key in seen:
                    continue
                if len(seen) >= max_states:
                    cuts.add("max-states")
                    full = True
                else:
                    seen.add(key)
                    nxt.append((q2, *_carried(q, rs, subjects, r, q2, m)))
        depth -= 1
        frontier = nxt


def trace(p: Process | NormalForm, depth: int,
          seed: int | None = None) -> Trace:
    """One maximal run of p of at most `depth` steps, its states normal
    forms.  With a seed, redexes are chosen pseudo-randomly and
    reproducibly; without, the first redex is taken each time, which
    makes runs deterministic."""
    cur = congruence.normal_form(p)
    rng = random.Random(seed) if seed is not None else None
    steps: list[tuple[NormalForm, Redex]] = []
    rs = redexes(cur)
    subjects = tuple(map(sx.subject, cur.threads))
    for _ in range(depth):
        if not rs:
            break
        r = rs[0] if rng is None else rng.choice(rs)
        steps.append((cur, r))
        nxt, m = _step(cur, r)
        rs, subjects = _carried(cur, rs, subjects, r, nxt, m)
        cur = nxt
    return Trace(tuple(steps), cur)


def trace_records(t: Trace) -> list[dict]:
    """One record per step plus a final record, CLI-ready."""
    shown = print_states(t.states())
    out = []
    for k, (_, r) in enumerate(t.steps):
        rec = {"index": k, "rule": r.rule, "threads": [r.i],
               "process": shown[k]}
        if r.j is not None:
            rec["threads"].append(r.j)
        if r.label is not None:
            rec["label"] = r.label
        if r.value is not None:
            rec["value"] = r.value.base if isinstance(r.value, Name) else r.value
        if r.chan is not None:
            rec["channel"] = r.chan.base
        out.append(rec)
    out.append({"index": len(t.steps), "final": True, "process": shown[-1]})
    return out


def trace_lines(t: Trace) -> list[str]:
    shown = print_states(t.states())
    lines = []
    for s, (_, r) in zip(shown, t.steps):
        lines.append(s)
        lines.append(f"  --[{r.describe()}]-->")
    lines.append(shown[-1])
    return lines
