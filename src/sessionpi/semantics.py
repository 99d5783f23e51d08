"""Reduction: expression evaluation, redexes, stepping, exploration.

Reduction operates on normal forms, so the contextual and structural
rules never appear explicitly: a redex is a pair of thread positions
(or a single position for a conditional) together with its rule tag.
A state is a `congruence.NormalForm`: `step` flattens each state once,
as it makes it, and `redexes`, `step` and `explore` take either a state
or a `Process`; `.process()` turns a state back into a term.
Service initiation keeps replicated servers in place and spawns a body
copy with fresh binders; one-shot accepts are consumed.  Delegation
follows the original rule where the receiving side must guess the
delegated channel: the redex exists only if the receiver's bound name
can be renamed to the delegated one without capture.
"""
from __future__ import annotations

import random
from dataclasses import dataclass

from . import congruence, syntax as sx
from .surface import print_process
from .congruence import NormalForm
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

@dataclass(frozen=True)
class Redex:
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
            extra = f" {self.value!r}"
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


def redexes(p: Process | NormalForm) -> list[Redex]:
    """Every enabled redex of normal_form(p), in (i, j) order.

    One pass buckets the output sides by subject (a request by its
    service; a send, delegation or selection by its session channel),
    in position order.  Each input side then tries only the bucket of
    its own subject, so the scan costs one pass over the threads plus
    one `_pair_redex` call per input and output side that share a
    subject.  The buckets are built afresh on each call: a step
    renormalises, and a continuation that is a composition shifts
    every later position.
    """
    threads = congruence.normal_form(p).threads
    outputs: dict[Name, list[int]] = {}
    for j, tj in enumerate(threads):
        if isinstance(tj, sx.Request):
            outputs.setdefault(tj.service, []).append(j)
        elif isinstance(tj, (sx.Send, sx.SendSession, sx.Choose)):
            outputs.setdefault(tj.chan, []).append(j)
    out: list[Redex] = []
    for i, ti in enumerate(threads):
        if isinstance(ti, sx.If):
            try:
                v = eval_expr(ti.test)
            except EvalError:
                continue
            if type(v) is bool:
                out.append(Redex("IfT" if v else "IfF", i))
            continue
        if isinstance(ti, (sx.Serve, sx.Accept)):
            subject = ti.service
        elif isinstance(ti, (sx.Receive, sx.ReceiveSession, sx.Offer)):
            subject = ti.chan
        else:
            continue
        for j in outputs.get(subject, ()):
            r = _pair_redex(i, ti, j, threads[j])
            if r is not None:
                out.append(r)
    return out


# ----------------------------------------------------------------- stepping

def _stale(r: Redex, why: str) -> ValueError:
    return ValueError(f"stale redex {r.describe()}: {why}")


def step(p: Process | NormalForm, r: Redex) -> NormalForm:
    """Apply one redex of p; the result is the new state's normal form.

    Raises ValueError when r does not match the current normal form.
    """
    nf = congruence.normal_form(p)
    threads = list(nf.threads)
    binders = list(nf.binders)
    n = len(threads)
    if not (0 <= r.i < n) or (r.j is not None and not (0 <= r.j < n)):
        raise _stale(r, "thread position out of range")
    ti = threads[r.i]
    tj = threads[r.j] if r.j is not None else None

    # continuations land at the positions of the threads they came from,
    # so surviving threads keep their node numbering across the step
    match r.rule:
        case "RInit":
            if not (isinstance(ti, sx.Serve) and isinstance(tj, sx.Request)
                    and ti.service == tj.service):
                raise _stale(r, "no matching serve and request")
            fresh = ti.chan.fresh()
            body = sx.refresh(ti.body)  # new copy, binder ids stay unique
            threads[r.j] = sx.Par(sx.subst_chan(body, ti.chan, fresh),
                                  sx.subst_chan(tj.body, tj.chan, fresh))
            binders.append(fresh)
        case "Init":
            if not (isinstance(ti, sx.Accept) and isinstance(tj, sx.Request)
                    and ti.service == tj.service):
                raise _stale(r, "no matching accept and request")
            fresh = ti.chan.fresh()
            threads[r.i] = sx.subst_chan(ti.body, ti.chan, fresh)
            threads[r.j] = sx.subst_chan(tj.body, tj.chan, fresh)
            binders.append(fresh)
        case "Com":
            if not (isinstance(ti, sx.Receive) and isinstance(tj, sx.Send)
                    and ti.chan == tj.chan):
                raise _stale(r, "no matching receive and send")
            v = eval_expr(tj.expr)
            threads[r.i] = sx.substitute(ti.body, ti.var, value_expr(v))
            threads[r.j] = tj.body
        case "Del":
            if not (isinstance(ti, sx.ReceiveSession)
                    and isinstance(tj, sx.SendSession)
                    and ti.chan == tj.chan):
                raise _stale(r, "no matching session receive and delegation")
            m, sent = ti.bound, tj.sent
            if m != sent and sent in sx.free_session_channels(ti.body):
                raise _stale(r, f"{sent.base} is free in the receiver")
            threads[r.i] = (ti.body if m == sent
                            else sx.subst_chan(ti.body, m, sent))
            threads[r.j] = tj.body
        case "Sel":
            if not (isinstance(ti, sx.Offer) and isinstance(tj, sx.Choose)
                    and ti.chan == tj.chan and ti.arms):
                raise _stale(r, "no matching offer and selection")
            arm = next((a for l, a in ti.arms if l == r.label), None)
            if arm is None or tj.label != r.label:
                raise _stale(r, f"label {r.label!r} is not offered")
            threads[r.i] = arm
            threads[r.j] = tj.body
        case "IfT" | "IfF":
            if not isinstance(ti, sx.If):
                raise _stale(r, "no conditional at this position")
            v = eval_expr(ti.test)
            if type(v) is not bool or v != (r.rule == "IfT"):
                raise _stale(r, "guard no longer evaluates that way")
            threads[r.i] = ti.then if v else ti.els
        case _:
            raise _stale(r, f"unknown rule {r.rule!r}")

    rebuilt = congruence.NormalForm(tuple(binders), tuple(threads)).process()
    # continuations may be compositions or restrictions themselves
    return congruence.normal_form(rebuilt)


# -------------------------------------------------------------- exploration

@dataclass(frozen=True)
class Trace:
    steps: tuple[tuple[NormalForm, Redex], ...]
    final: NormalForm

    def __len__(self) -> int:
        return len(self.steps)


def explore(p: Process | NormalForm, depth: int, mode: str = "all",
            seed: int | None = None) -> list[NormalForm] | Trace:
    """Reduction behaviour of p within a step bound.

    mode="all": breadth-first list of the states (normal forms)
    reachable in at most `depth` steps, deduplicated up to congruence
    and renaming, starting with p's own normal form.

    mode="seeded": one maximal trace of length <= depth, its states
    normal forms too.  With a seed, redexes are chosen pseudo-randomly
    and reproducibly; without, the first redex is taken each time,
    which makes runs deterministic.
    """
    start = congruence.normal_form(p)
    if mode == "seeded":
        return _random_trace(start, depth, seed)
    if mode != "all":
        raise ValueError(f"unknown exploration mode {mode!r}")
    seen = {congruence.canonical_key(start)}
    out = [start]
    frontier = [start]
    for _ in range(depth):
        nxt: list[NormalForm] = []
        for q in frontier:
            for r in redexes(q):
                q2 = step(q, r)
                key = congruence.canonical_key(q2)
                if key not in seen:
                    seen.add(key)
                    out.append(q2)
                    nxt.append(q2)
        if not nxt:
            break
        frontier = nxt
    return out


def _random_trace(cur: NormalForm, depth: int, seed: int | None) -> Trace:
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
    out = []
    for k, (q, r) in enumerate(t.steps):
        rec = {"index": k, "rule": r.rule, "threads": [r.i],
               "process": print_process(q.process())}
        if r.j is not None:
            rec["threads"].append(r.j)
        if r.label is not None:
            rec["label"] = r.label
        if r.value is not None:
            rec["value"] = r.value.base if isinstance(r.value, Name) else r.value
        if r.chan is not None:
            rec["channel"] = r.chan.base
        out.append(rec)
    out.append({"index": len(t.steps), "final": True,
                "process": print_process(t.final.process())})
    return out


def trace_lines(t: Trace) -> list[str]:
    lines = []
    for q, r in t.steps:
        lines.append(print_process(q.process()))
        lines.append(f"  --[{r.describe()}]-->")
    lines.append(print_process(t.final.process()))
    return lines
