"""Progress: type inhabitation, partner construction, certification.

A transparent process has progress outright, so the checker's positive
answer is the transparency certificate.  For everything else it hunts
for a refutation: it walks the reachable states, carves each state's
thread list into connected sub-multisets (the surrounding restrictions
and the remaining threads form the reduction context), and asks whether
each piece that a partner could complete can either move on its own or
be completed by a canonical partner process.  The same theorem covers
every acyclic piece, which is well-typed as part of a reachable state,
so only cyclic pieces are completed.  A piece with no such partner
witnesses a stuck decomposition.  The search is bounded, so its only
verdicts are a counterexample or "nothing found within the bounds";
certificates come from transparency alone.
"""
from __future__ import annotations

import itertools
import operator
from functools import reduce
from typing import NamedTuple

from . import congruence, depgraph, semantics, syntax as sx, typecheck
from .syntax import Name, Process, SessionType, Sort


# --------------------------------------------------------------- inhabitation

_CANONICAL = {
    "int": sx.IntLit(1),
    "bool": sx.BoolLit(True),
    "string": sx.StrLit("1"),
}


def inhabit(a: SessionType, k: Name,
            avoid: set[str] | None = None) -> tuple[Process, dict[str, Sort]]:
    """The canonical process driving k exactly as `a` prescribes.

    Returns the process and the service declarations it invents: every
    service-typed output emits a fresh '#inh<n>' name, unusable in
    source files, whose sort lands in the returned extension.  Received
    values and services are never used; basic outputs send the sort's
    canonical value (1, true, "1"); a selection takes the first label;
    a delegated channel is served by a restricted helper session.
    """
    ext: dict[str, Sort] = {}
    taken = avoid or ()
    services = (b for b in map("#inh{}".format, itertools.count())
                if b not in taken)
    variables = ("x" if n == 0 else f"x{n}" for n in itertools.count())
    channels = (sx.bound_chan("m" if n == 0 else f"m{n}")
                for n in itertools.count())

    def go(a: SessionType, k: Name) -> Process:
        """The prefixes along a's continuations, read in a loop, then
        put around the process that ends them from the innermost out;
        only payloads and branch arms recurse.  Fresh names are drawn
        as a recursive reading would: a service's server before the
        continuation, a session payload's partner after it."""
        heads: list[tuple] = []  # (prefix class, its name or value, payload)
        # the loop ends: each pass breaks or steps a to its continuation
        # or to the first option of its select, a part of the finite a
        while True:
            if type(a) is sx.In and isinstance(a.payload, Sort):
                heads.append((sx.Receive, next(variables), None))
            elif type(a) is sx.In:
                heads.append((sx.ReceiveSession, next(channels), a.payload))
            elif type(a) is sx.Out and isinstance(a.payload, sx.Basic):
                heads.append((sx.Send, _CANONICAL[a.payload.name], None))
            elif type(a) is sx.Out and isinstance(a.payload, sx.ServiceSort):
                svc = sx.svc(next(services))
                ext[svc.base] = a.payload
                m = next(channels)
                heads.append((sx.Serve, svc,
                              sx.Serve(svc, m, go(a.payload.session, m))))
            elif type(a) is sx.Out:
                heads.append((sx.SendSession, next(channels), a.payload))
            elif type(a) is sx.SelectT:
                label, a = a.options[0]
                heads.append((sx.Choose, label, None))
                continue
            else:
                break
            a = a.then
        if type(a) is sx.End:
            p: Process = sx.Stop()
        elif type(a) is sx.BranchT:
            p = sx.Offer(k, tuple((l, go(t, k)) for l, t in a.options))
        else:
            raise ValueError(f"cannot inhabit {a!r}")
        for make, x, payload in reversed(heads):
            if make is sx.ReceiveSession:
                p = sx.ReceiveSession(k, x, sx.Par(p, go(payload, x)))
            elif make is sx.Serve:  # payload is the server
                p = sx.Send(k, sx.SvcRef(x.base), sx.Par(p, payload))
            elif make is sx.SendSession:
                # delegation: hand over a helper channel and serve its
                # other end ourselves, sequenced so k stays linear
                p = sx.New(x, sx.Par(sx.SendSession(k, x, p),
                                     go(typecheck.dual(payload), x)))
            else:
                p = make(k, x, p)
        return p

    return go(a, k), ext


# ---------------------------------------------------------- partner processes

_DORMANT = (sx.Accept, sx.Serve)  # heads whose sessions open on a request


def _completable(p: Process) -> bool:
    """Whether a partner can complete p: p mentions a session channel
    outside every accept or serve, or a thread of p is headed by an
    accept or serve, which a request would open.

    Sessions under an accept or serve exist only once a request opens
    them, so those scopes are skipped; anywhere else any mention counts:
    a prefix subject, a delegated channel, or a channel bound by `new`,
    a request or a session receive.  Under an `if`, an accept or serve
    is a dormant scope, not a thread.
    """
    todo = [(p, True)]  # (subterm, whether it would head a thread)
    while todo:
        q, head = todo.pop()
        if type(q) in _DORMANT:
            if head:
                return True
        elif type(q) is sx.If:
            todo.extend((c, False) for c in sx.children(q))
        elif type(q) in (sx.Stop, sx.Par):
            todo.extend((c, head) for c in sx.children(q))
        else:
            return True  # every remaining form mentions a channel
    return False


def construct_partner(
        gamma: dict[str, Sort],
        p: Process) -> tuple[Process, dict[str, Sort]] | None:
    """A stuck process completing irreducible p so the pair reduces.

    Requires p irreducible and `_completable` (ValueError otherwise).
    The partner is, in order: an accept for p's first request; the dual
    inhabitant of the first open channel a thread is waiting on; that
    of the lowest open channel by `congruence.chan_order`; a request for
    the first accept or serve, its body inhabiting the dual of the
    declared session.  Returns None when none applies: every session is
    closed on both ends inside p and no service is dormant.
    """
    if semantics.redexes(p):
        raise ValueError("process still reduces on its own")
    if not _completable(p):
        raise ValueError("process has nothing to complete")
    threads = congruence.normal_form(p).threads
    avoid = set(gamma)
    requests = [t for t in threads if type(t) is sx.Request]
    if requests:
        t = requests[0]
        k = sx.bound_chan(t.chan.base)
        body, ext = inhabit(gamma[t.service.base].session, k, avoid)
        return sx.Accept(t.service, k, body), ext
    delta = typecheck.check(gamma, p)
    open_chans = [c for c, ty in delta.items() if not isinstance(ty, sx.Bot)]
    # a service is never a session channel, so accepts and serves drop out
    waited = [c for t in threads if (c := sx.subject(t)) in open_chans]
    if open_chans:
        c = waited[0] if waited else min(open_chans, key=congruence.chan_order)
        return inhabit(typecheck.dual(delta[c]), c, avoid)
    dormant = [t for t in threads if type(t) in _DORMANT]
    if dormant:
        t = dormant[0]
        k = sx.bound_chan(t.chan.base)
        session = typecheck.dual(gamma[t.service.base].session)
        body, ext = inhabit(session, k, avoid)
        return sx.Request(t.service, k, body), ext
    return None


# ----------------------------------------------------------- the certifier

class ProgressResult(NamedTuple):
    verdict: str  # "certificate" | "counterexample" | "inconclusive"
    reason: str
    state: Process | None = None  # reachable state the refutation lives in
    cut: tuple[Process, ...] = ()  # its stuck sub-multiset of threads
    partner: Process | None = None
    failed: str | None = None  # "no-partner", "c" or "d"
    states_seen: int = 0
    bound_hit: bool = False

    def __bool__(self) -> bool:
        return self.verdict == "certificate"


_CONDITIONS = {
    "no-partner": "no stuck well-typed partner exists",
    "c": "the completed composition does not reduce",
    "d": "no reduct of the completed composition is transparent",
}


def _cut_failure(gamma: dict[str, Sort], cut: tuple[Process, ...]
                 ) -> tuple[str, Process | None] | None:
    """None when the irreducible piece made of the threads `cut` passes,
    as one that no partner can complete (`_completable`) does; else
    (failed condition, partner).  Partners are stuck and pairs typed by
    construction (acceptance criteria 7-8), reducts by subject reduction
    (criterion 5), so graphs decide; dropping a check can only pass a cut.

    A piece whose cluster graphs are all forests passes without a
    partner: it is a sub-composition of a state reached from a
    well-typed start, so it is well-typed by subject reduction, hence
    transparent, and the paper's theorem gives it progress just as it
    does a certified start.  Only cyclic pieces are completed."""
    piece = reduce(sx.Par, cut)
    if not _completable(piece) or depgraph.first_cycle(piece) is None:
        return None
    got = construct_partner(gamma, piece)
    if got is None:
        return ("no-partner", None)
    partner = got[0]
    pair = sx.Par(piece, partner)
    rs = semantics.redexes(pair)
    if not rs:
        return ("c", partner)
    if all(depgraph.first_cycle(semantics.step(pair, r).process())
           for r in rs):
        return ("d", partner)
    return None


def _adjacency(bits: list[int], ties: list[frozenset[Name]]
               ) -> dict[int, int]:
    """For each position's bit, the mask of the positions whose ties
    meet its own (itself included)."""
    holders: dict[Name, int] = {}
    for bit, names in zip(bits, ties):
        for c in names:
            holders[c] = holders.get(c, 0) | bit
    return {bit: reduce(operator.or_, map(holders.__getitem__, names), bit)
            for bit, names in zip(bits, ties)}


def _grow(level: dict[int, int], near: dict[int, int]) -> dict[int, int]:
    """The connected picks one position larger than those of `level`:
    each pick of `level` joined by each position its ties meet.  Like
    `level`, maps each pick to the mask of the positions its ties meet
    (itself included), from `near` (see `_adjacency`)."""
    grown: dict[int, int] = {}
    for mask, reach in level.items():
        rim = reach & ~mask
        while rim:
            bit = rim & -rim
            rim ^= bit
            if mask | bit not in grown:
                grown[mask | bit] = reach | near[bit]
    return grown


def check_progress(gamma: dict[str, Sort], p: Process, depth: int = 10,
                   subset_budget: int = 512,
                   max_states: int = 2000) -> ProgressResult:
    """Certify or refute progress, within bounds.

    Transparency certifies outright; the search types only this start
    and the pieces whose open channels' types a partner needs.  Else the
    states that `semantics.explore` reaches within `depth` steps (at
    most `max_states` of them) are decomposed into connected
    sub-multisets of their threads, smallest first, at most
    `subset_budget` per state; a cyclic decomposition that a partner
    could complete (`_completable`) but that neither reduces nor accepts
    a canonical partner refutes progress.  An acyclic one never does:
    by subject reduction it is well-typed, as a part of a state reached
    from this well-typed start, so it is transparent and has progress
    by the theorem that certifies transparent starts.  A clean but
    bounded search stays inconclusive: certificates never come from the
    search.

    Two threads are tied when they share a free session channel or a
    service (served, accepted or requested anywhere in a thread), and a
    pick is connected when its ties join all its threads.  A stuck piece
    passes when each of its tie-components passes on its own, so only
    connected picks are checked: the parts share no name, so their
    completions run side by side, and the completed parts' transparent
    reducts, side by side, make a transparent reduct of the whole.  A
    counterexample is therefore always a connected piece.

    Each position of a state's threads is one bit, position i the bit
    n-1-i, so that picks of one size, sorted by descending mask, come in
    the order of `itertools.combinations`.  The picks of each size are
    grown from those one smaller by one position that their ties meet
    (`_grow`), so `subset_budget` counts connected picks only.  The walk
    gives each state's redexes, one mask per move (both ends of a pair
    redex, or an enabled conditional).  A pick reduces exactly when it
    holds a move's mask, `m & mask == m`, so a pick that reduces costs a
    budget unit but no cut check.  Each distinct stuck piece is checked
    once per search, known by its threads' numbers; one that no partner
    can complete passes at its check.  Threads are numbered by their
    rows' `pieces` (literal strings and `Name`s, from the one
    `canonical_key` table of the search, which also gives their ties),
    so no thread is hashed or compared by value.  Threads that print
    alike share a number: they differ at most in how `|` nests or how a
    negative literal is written, so they are congruent and
    `_cut_failure` answers the same on them.
    """
    verdict = depgraph.is_transparent(gamma, p)
    if verdict.reason == "ill-typed":
        raise typecheck.TypingError(verdict.detail)
    if verdict.ok:
        return ProgressResult(
            "certificate",
            "transparent: every reachable decomposition stays completable")

    cuts: set[str] = set()  # the bounds that cut the search short
    table: congruence.Table = {}
    visited = 0
    number: dict[tuple[str | Name, ...], int] = {}
    passed: set[tuple[int, ...]] = set()

    for state, succs in semantics.explore(p, depth, max_states, table, cuts):
        visited += 1
        threads = state.threads
        bits = [1 << i for i in reversed(range(len(threads)))]
        ids: list[int] = []  # the thread number at each position
        ties: list[frozenset[Name]] = []
        # a state is keyed, so its rows are built, before it is yielded
        for row in congruence.rows(table, threads):
            ids.append(number.setdefault(row.pieces, len(number)))
            ties.append(row.ties)
        moves = list({bits[r.i] | (0 if r.j is None else bits[r.j])
                      for r in succs})
        level = near = _adjacency(bits, ties)
        budget = subset_budget
        while level:
            picks = sorted(level, reverse=True)[:budget]
            budget -= len(picks)
            for mask in picks:
                for m in moves:
                    if m & mask == m:
                        break
                else:  # irreducible: a stuck piece
                    held = list(map(mask.__and__, bits))
                    nums = tuple(itertools.compress(ids, held))
                    if nums in passed:
                        continue
                    cut = tuple(itertools.compress(threads, held))
                    bad = _cut_failure(gamma, cut)
                    if bad is None:
                        passed.add(nums)
                        continue
                    failed, partner = bad
                    return ProgressResult(
                        "counterexample",
                        f"stuck decomposition: {_CONDITIONS[failed]}",
                        state=state.process(), cut=cut, partner=partner,
                        failed=failed, states_seen=visited,
                        bound_hit=bool(cuts))
            if len(picks) < len(level):  # spent: no larger pick is tried
                cuts.add("subset-budget")
                break
            level = _grow(level, near)

    return ProgressResult(
        "inconclusive",
        "no refutation within the search bounds; only transparency "
        "certifies", states_seen=visited, bound_hit=bool(cuts))
