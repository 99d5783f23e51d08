"""Progress: type inhabitation, partner construction, certification.

A transparent process has progress outright, so the checker's positive
answer is the transparency certificate.  For everything else it hunts
for a refutation: it walks the reachable states, carves each state's
thread list into sub-multisets (the surrounding restrictions and the
remaining threads form the reduction context), and asks whether each
piece that still has live channels can either move on its own or be
completed by a canonical partner process.  A piece with no such partner
witnesses a stuck decomposition.  The search is bounded, so its only
verdicts are a counterexample or "nothing found within the bounds";
certificates come from transparency alone.
"""
from __future__ import annotations

import itertools
import math
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
    taken = set(avoid or ())
    ext: dict[str, Sort] = {}
    counters = {"svc": 0, "var": 0, "chan": 0}

    def fresh_service() -> Name:
        while True:  # ends: the counter passes every name in `taken`
            base = f"#inh{counters['svc']}"
            counters["svc"] += 1
            if base not in taken:
                taken.add(base)
                return sx.svc(base)

    def fresh_var() -> str:
        n = counters["var"]
        counters["var"] += 1
        return "x" if n == 0 else f"x{n}"

    def fresh_chan() -> Name:
        n = counters["chan"]
        counters["chan"] += 1
        return sx.bound_chan("m" if n == 0 else f"m{n}")

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
                heads.append((sx.Receive, fresh_var(), None))
            elif type(a) is sx.In:
                heads.append((sx.ReceiveSession, fresh_chan(), a.payload))
            elif type(a) is sx.Out and isinstance(a.payload, sx.Basic):
                heads.append((sx.Send, _CANONICAL[a.payload.name], None))
            elif type(a) is sx.Out and isinstance(a.payload, sx.ServiceSort):
                svc = fresh_service()
                ext[svc.base] = a.payload
                m = fresh_chan()
                heads.append((sx.Serve, svc,
                              sx.Serve(svc, m, go(a.payload.session, m))))
            elif type(a) is sx.Out:
                heads.append((sx.SendSession, fresh_chan(), a.payload))
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

def construct_partner(
        gamma: dict[str, Sort],
        p: Process) -> tuple[Process, dict[str, Sort]] | None:
    """A stuck process completing irreducible p so the pair reduces.

    Requires p irreducible with live channels (ValueError otherwise).
    A request-headed thread gets its service accepted; failing that, a
    channel still typed at a session type gets its dual inhabited,
    preferring channels some thread is actually waiting on.  Returns
    None when every session is already closed on both ends inside p —
    unreachable for transparent processes.
    """
    if semantics.redexes(p):
        raise ValueError("process still reduces on its own")
    if not congruence.has_live_channels(p):
        raise ValueError("process has no live channels to complete")
    return _partner(gamma, p, congruence.normal_form(p).threads)


def _partner(gamma: dict[str, Sort], p: Process, threads: tuple[Process, ...]
             ) -> tuple[Process, dict[str, Sort]] | None:
    """`construct_partner` for p, whose normal form has these threads,
    once p is known to be irreducible and live."""
    avoid = set(gamma)

    for t in threads:
        if isinstance(t, sx.Request):
            sort = gamma.get(t.service.base)
            if isinstance(sort, sx.ServiceSort):
                k = sx.bound_chan(t.chan.base)
                body, ext = inhabit(sort.session, k, avoid)
                return sx.Accept(t.service, k, body), ext

    delta = typecheck.check(gamma, p)
    open_chans = [c for c, ty in delta.items() if not isinstance(ty, sx.Bot)]
    # a service is never a session channel, so requests drop out here
    heads = [c for t in threads if (c := sx.subject(t)) in open_chans]
    ordered = heads + sorted((c for c in open_chans if c not in heads),
                             key=congruence.chan_order)
    for c in ordered:
        body, ext = inhabit(typecheck.dual(delta[c]), c, avoid)
        return body, ext
    return None


# ----------------------------------------------------------- the certifier

class ProgressResult(NamedTuple):
    verdict: str  # "certificate" | "counterexample" | "inconclusive"
    reason: str
    state: Process | None = None  # reachable state the refutation lives in
    cut: tuple[Process, ...] = ()  # its stuck sub-multiset of threads
    partner: Process | None = None
    failed: str | None = None  # "no-partner" or the violated condition a-d
    states_seen: int = 0
    bound_hit: bool = False

    def __bool__(self) -> bool:
        return self.verdict == "certificate"


_CONDITIONS = {
    "no-partner": "no stuck well-typed partner exists",
    "a": "the constructed partner is not stuck",
    "b": "the completed composition is not well-typed",
    "c": "the completed composition does not reduce",
    "d": "no reduct of the completed composition is transparent",
}


def _cut_failure(gamma: dict[str, Sort], cut: tuple[Process, ...]
                 ) -> tuple[str, Process | None] | None:
    """None when the live, irreducible piece made of the threads `cut`
    passes; else (failed condition, partner)."""
    piece = reduce(sx.Par, cut)
    got = _partner(gamma, piece, cut)
    if got is None:
        return ("no-partner", None)
    partner, ext = got
    if semantics.redexes(partner):
        return ("a", partner)
    genv = {**gamma, **ext}
    pair = sx.Par(piece, partner)
    try:
        typecheck.check(genv, pair)
    except typecheck.TypingError:
        return ("b", partner)
    rs = semantics.redexes(pair)
    if not rs:
        return ("c", partner)
    reducts = (semantics.step(pair, r).process() for r in rs)
    if not any(depgraph.is_transparent(genv, q).ok for q in reducts):
        return ("d", partner)
    return None


def _adjacency(ties: list[frozenset[Name]]) -> list[int]:
    """For each position, the mask of the positions whose ties meet its
    own (itself included)."""
    holders: dict[Name, int] = {}
    for i, names in enumerate(ties):
        for c in names:
            holders[c] = holders.get(c, 0) | 1 << i
    return [reduce(operator.or_, map(holders.__getitem__, names), 1 << i)
            for i, names in enumerate(ties)]


def _split(mask: int, adj: list[int]) -> list[int]:
    """The positions of `mask` grouped into parts that share no tie, as
    masks: the components of `adj` (see `_adjacency`) within the mask,
    ordered by their last position."""
    parts = []
    rest = mask
    while rest:
        part = grow = 1 << (rest.bit_length() - 1)
        while grow:
            bit = grow & -grow
            grow ^= bit
            new = adj[bit.bit_length() - 1] & rest & ~part
            part |= new
            grow |= new
        parts.append(part)
        rest &= ~part
    parts.reverse()
    return parts


def check_progress(gamma: dict[str, Sort], p: Process, depth: int = 10,
                   subset_budget: int = 512,
                   max_states: int = 2000) -> ProgressResult:
    """Certify or refute progress, within bounds.

    Transparency certifies outright.  Otherwise the states that
    `semantics.explore` reaches within `depth` steps (at most
    `max_states` of them) are decomposed into sub-multisets of their
    threads, smallest first, at most `subset_budget` per state; a
    decomposition with live channels that neither reduces nor accepts a
    canonical partner refutes progress.  A clean but bounded search
    stays inconclusive: certificates never come from the search.

    Each position of a state's threads is one bit, and each pick's mask
    is summed from its bits as `itertools.combinations` yields it.  The
    walk gives each state's redexes, one mask per move (both ends of a
    pair redex, or an enabled conditional).  A pick reduces exactly
    when it holds a move's mask, `m & mask == m`, and is live exactly
    when it meets the mask of the live positions, so such picks cost a
    budget unit but no cut check.  Each distinct stuck piece is checked
    once per search, known by its threads' numbers, and so is each part
    the independence rule splits it into.  Threads are numbered by
    their rows' `pieces` (literal strings and `Name`s, from the one
    `canonical_key` table of the search, which also gives their
    liveness and ties), so no thread is hashed or compared by value.
    Threads that print alike share a number: they differ at most in how
    `|` nests or how a negative literal is written, so they are
    congruent and `_cut_failure` answers the same on them.

    Independence rule: a stuck piece whose threads split into two or
    more parts sharing no free session channel and no service (served,
    accepted or requested anywhere in a thread) passes without a partner
    when every part is transparent.  Its live parts have passed already:
    each is a smaller stuck piece of the same state (a move inside a
    part is a move inside the piece), so it was picked earlier, within
    the budget, and either passed or ended the search.  The rule holds
    because `_partner` (`construct_partner` without its checks) builds
    the piece's partner for one part, the one holding the first request
    or else the first thread waiting on an open channel, and builds that
    same partner for the part alone: a live part passes only if it has
    such a thread, and a part without live channels has none.  The
    other parts share no name with that part or its partner, so the
    completed piece is well-typed, and the reduct that let the part
    pass, beside the other transparent parts, is transparent.  Every
    other piece goes through the full check, so a failing piece reports
    the same condition, cut and partner.
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
    known: list[congruence.Row] = []  # the row of each number
    passed: set[tuple[int, ...]] = set()
    transparent_parts: dict[tuple[int, ...], bool] = {}

    def independent(mask: int) -> bool:
        """The independence rule for the stuck piece `mask` of this
        state: two or more parts, each transparent."""
        nonlocal adj
        if adj is None:
            adj = _adjacency([known[i].ties for i in ids])
        parts = _split(mask, adj)
        if len(parts) < 2:
            return False
        for part in parts:
            nums = numbers_of.get(part)
            if nums is None:
                nums = numbers_of[part] = tuple(
                    itertools.compress(ids, map(part.__and__, bits)))
            ok = transparent_parts.get(nums)
            if ok is None:
                piece = reduce(sx.Par, [known[i].thread for i in nums])
                ok = depgraph.is_transparent(gamma, piece).ok
                transparent_parts[nums] = ok
            if not ok:
                return False
        return True

    for state, succs in semantics.explore(p, depth, max_states, table, cuts):
        visited += 1
        threads = state.threads
        n = len(threads)
        bits = [1 << i for i in range(n)]  # one per position
        ids: list[int] = []  # the thread number at each position
        adj: list[int] | None = None  # the `_adjacency`, once needed
        numbers_of: dict[int, tuple[int, ...]] = {}  # a part's, by mask
        live = 0
        # a state is keyed, so its rows are built, before it is yielded
        for row, bit in zip(congruence.rows(table, threads), bits):
            i = number.setdefault(row.pieces, len(known))
            if i == len(known):
                known.append(row)
            ids.append(i)
            if row.live:
                live |= bit
        moves = list({bits[r.i] | (0 if r.j is None else bits[r.j])
                      for r in succs})
        budget = subset_budget
        for size in range(1, n + 1):
            if budget == 0:  # ends every larger size at once
                cuts.add("subset-budget")
                break
            taken = min(budget, math.comb(n, size))
            budget -= taken
            picks = zip(itertools.combinations(range(n), size),
                        map(sum, itertools.combinations(bits, size)))
            for pick, mask in itertools.islice(picks, taken):
                if not mask & live:
                    continue
                for m in moves:
                    if m & mask == m:
                        break
                else:  # live and irreducible: a stuck piece
                    nums = tuple(map(ids.__getitem__, pick))
                    if nums in passed:
                        continue
                    if size > 1 and independent(mask):
                        passed.add(nums)
                        continue
                    cut = tuple(map(threads.__getitem__, pick))
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

    return ProgressResult(
        "inconclusive",
        "no refutation within the search bounds; only transparency "
        "certifies", states_seen=visited, bound_hit=bool(cuts))
