"""Reduction: expression evaluation, redexes, stepping, exploration.

Reduction operates on normal forms, so the contextual and structural
rules never appear explicitly: a redex is a pair of thread positions
(or a single position for a conditional) together with its rule tag.
A state is a `congruence.NormalForm`: `step` flattens only the
continuations it splices in, and `redexes`, `step`, `explore` and
`trace` take either a state or a `Process`; `.process()` turns a state
back into a term.  `_pair_redex` and `_if_redex` are the one judge of
what may fire: `redexes` asks them at every position, and `step` asks
them again at its redex's positions.
Service initiation keeps replicated servers in place and spawns a body
copy with fresh binders; one-shot accepts are consumed.  Delegation
follows the original rule where the receiving side must guess the
delegated channel: the redex exists only if the receiver's bound name
can be renamed to the delegated one without capture.
"""
from __future__ import annotations

import random
from collections.abc import Iterator
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


_INPUTS = (sx.Serve, sx.Accept, sx.Receive, sx.ReceiveSession, sx.Offer)
_OUTPUTS = (sx.Request, sx.Send, sx.SendSession, sx.Choose)


def redexes(p: Process | NormalForm) -> list[Redex]:
    """Every enabled redex of normal_form(p), in (i, j) order.

    One pass buckets the output sides by `syntax.subject` (a request by
    its service; a send, delegation or selection by its session
    channel), in position order.  Each input side then tries only the
    bucket of its own subject, so the scan costs one pass over the
    threads plus one `_pair_redex` call per input and output side that
    share a subject.  The buckets are built afresh on each call: a step
    renormalises, and a continuation that is a composition shifts
    every later position.
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
    nf = congruence.normal_form(p)
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
        last = pos + 1
    out += threads[last:]
    if not out:
        return NormalForm((), ())
    return NormalForm(tuple(binders), tuple(out))


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
    `table` if given, serves the whole walk.
    """
    if table is None:
        table = {}
    if cuts is None:
        cuts = set()
    start = congruence.normal_form(p)
    seen = {congruence.canonical_key(start, table)}
    frontier = [start]
    full = False
    while frontier:
        nxt: list[NormalForm] = []
        for q in frontier:
            rs = redexes(q)
            yield q, rs
            if depth <= 0:
                if rs:
                    cuts.add("depth")
                continue
            for r in rs:
                if full:
                    break
                q2 = step(q, r)
                key = congruence.canonical_key(q2, table)
                if key in seen:
                    continue
                if len(seen) >= max_states:
                    cuts.add("max-states")
                    full = True
                else:
                    seen.add(key)
                    nxt.append(q2)
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
    for _ in range(depth):
        rs = redexes(cur)
        if not rs:
            break
        r = rs[0] if rng is None else rng.choice(rs)
        steps.append((cur, r))
        cur = step(cur, r)
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
