"""Structural rearrangement: normal forms and parallel decomposition.

A process is brought to the shape `new k1, .., kn . (t1 | .. | tm)`
where every thread `ti` starts with a prefix or a conditional.  Stopped
threads are dropped, parallel composition is flattened, and restrictions
are hoisted to the front; restrictions guarding nothing are erased.
Hoisting never captures because binder ids are globally unique.
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import reduce
from itertools import chain

from . import syntax as sx
from .surface import print_process
from .syntax import Name, Process


@dataclass(frozen=True)
class NormalForm:
    binders: tuple[Name, ...]
    threads: tuple[Process, ...]

    def process(self) -> Process:
        """Rebuild an ordinary process from the normal form."""
        if not self.threads:
            return sx.Stop()
        body = reduce(sx.Par, self.threads)
        for c in reversed(self.binders):
            body = sx.New(c, body)
        return body


def normal_form(p: Process | NormalForm) -> NormalForm:
    """p flattened to its normal form; a NormalForm is returned as is."""
    if isinstance(p, NormalForm):
        return p
    binders: list[Name] = []
    threads: list[Process] = []
    todo: list[Process] = [p]
    while todo:
        q = todo.pop()
        match q:
            case sx.Stop():
                pass
            case sx.Par(l, r):
                todo.append(r)
                todo.append(l)
            case sx.New(c, body):
                binders.append(c)
                todo.append(body)
            case _:
                threads.append(q)
    if not threads:
        return NormalForm((), ())
    return NormalForm(tuple(binders), tuple(threads))


def clusters(p: Process) -> list[NormalForm]:
    """The normal form of p itself and of every maximal parallel cluster
    nested under a prefix, in outside-in order.

    A cluster is a maximal region built from `|`, `new` and `0`; its
    threads' continuations are walked, in pre-order from left to right,
    to find the clusters below.
    """
    out: list[NormalForm] = []
    todo: list[Process] = [p]
    while todo:
        q = todo.pop()
        # p itself is a cluster even when it is a single thread
        if not out or isinstance(q, (sx.Par, sx.New)):
            nf = normal_form(q)
            out.append(nf)
            todo.extend(reversed(nf.threads))
        else:
            todo.extend(c for c in reversed(sx.children(q))
                        if not isinstance(c, sx.Stop))
    return out


def maximal_parallel_subterms(p: Process) -> list[Process]:
    """The clusters of p (see `clusters`), each rebuilt as a process."""
    return [nf.process() for nf in clusters(p)]


def chan_order(c: Name) -> tuple[str, int]:
    """A run-independent order on channels: spelling, then binder id."""
    return c.base, c.uid or 0


def occurrences(nf: NormalForm) -> tuple[
        list[frozenset[Name]], dict[Name, list[int]]]:
    """Each thread's free channels, and the threads each channel is free
    in, ascending: the one occurrence index behind the dependency graph,
    its cycle check and `canonical_key`.

    Channels enter the index thread by thread, each thread's in
    `chan_order`, so walking it gives the same cycle on every run.
    """
    fscs = [sx.free_session_channels(t) for t in nf.threads]
    occ: dict[Name, list[int]] = {}
    for i, f in enumerate(fscs):
        for c in sorted(f, key=chan_order):
            occ.setdefault(c, []).append(i)
    return fscs, occ


def has_live_channels(p: Process) -> bool:
    """True when a session channel is mentioned outside every service
    prefix.

    Sessions under `serve` or accept only exist after an init step, so
    those scopes are skipped wholesale.  Anywhere else, any mention
    counts: a prefix subject, a delegated channel, or a channel bound by
    `new`, a request or a session receive.
    """
    todo: list[Process] = [p]
    while todo:
        q = todo.pop()
        match q:
            case sx.Serve() | sx.Accept():
                pass  # dormant scope
            case sx.Stop() | sx.Par() | sx.If():
                todo.extend(sx.children(q))
            case _:
                return True  # every remaining form mentions a channel
    return False


def canonical_key(p: Process | NormalForm) -> str:
    """A printable key equal for structurally congruent alpha-variants.

    Threads are sorted under a print that is blind to the spelling of
    bound names: a thread's own binders are numbered in its traversal
    order (its `syntax.facts` binders, taken once per call), and every
    restriction gets a colour.  While threads tie, each
    restriction's colour is refined by the prints of the threads it
    occurs in (read off the `occurrences` index, built only when there
    are restrictions), until the colours stop splitting, so threads that
    differ only in which restricted channel they share with whom are
    told apart.  Then every binder is numbered in traversal order and the
    term is re-printed.  A restriction no thread uses is left out,
    since `new k . P` is congruent to P when k is not free in P.  Equal
    keys imply congruent processes; the converse can fail on ties that
    survive the refinement, which only costs duplicate work in state
    exploration, never wrong answers.
    """
    nf = normal_form(p)
    threads = nf.threads
    occ = occurrences(nf)[1] if nf.binders else {}
    binders = [c for c in nf.binders if c in occ]

    binds = [sx.facts(t).binders for t in threads]
    blind: dict[Name, str] = {}
    for bs in binds:
        start = len(blind)
        for c in bs:
            blind.setdefault(c, f"#{len(blind) - start}")
    for c in binders:
        blind[c] = "#r"

    shown = [print_process(t, blind) for t in threads]
    colours = min(1, len(binders))
    # only ties between threads that mention a restriction can split
    while len(set(shown)) < len(shown) and any(
            n > 1 and "#r" in s for s, n in Counter(shown).items()):
        sig = {c: (blind[c], *sorted(shown[i] for i in occ[c]))
               for c in binders}
        ranks = {s: f"#r{i}" for i, s in enumerate(sorted(set(sig.values())))}
        if len(ranks) == colours:
            break
        colours = len(ranks)
        for c in binders:
            blind[c] = ranks[sig[c]]
        shown = [print_process(t, blind) for t in threads]
    order = sorted(range(len(threads)), key=shown.__getitem__)

    numbered: dict[Name, str] = {}
    for c in chain(*(binds[i] for i in order), binders):
        numbered.setdefault(c, f"b{len(numbered)}")

    used = sorted({numbered[c] for c in binders})
    head = f"new {', '.join(used)} . " if used else ""
    return head + " | ".join(print_process(threads[i], numbered)
                             for i in order)
