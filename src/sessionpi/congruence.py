"""Structural rearrangement: normal forms and parallel decomposition.

A process is brought to the shape `new k1, .., kn . (t1 | .. | tm)`
where every thread `ti` starts with a prefix or a conditional.  Stopped
threads are dropped, parallel composition is flattened, and restrictions
are hoisted to the front; only a normal form with no threads drops
them, so `new k . 0 | c!(1).0` keeps k (`canonical_key` leaves it out).
Hoisting never captures because binder ids are globally unique.

A caller-owned `Table` holds one `Row` per thread object: what
`canonical_key`, `print_states` and the progress search know of it.
A row keeps its thread's `surface.pieces`, which `surface.spell` joins.
"""
from __future__ import annotations

from bisect import bisect_left
from collections import Counter
from collections.abc import Iterable, Sequence
from functools import reduce
from itertools import chain, compress
from operator import itemgetter
from typing import NamedTuple

from . import syntax as sx
from .surface import (binder_order, choose_names, family, lay_out, pieces,
                      spell)
from .syntax import Name, Process


class NormalForm(NamedTuple):
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
            todo.extend(reversed(sx.children(q)))
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
    in, ascending: the one occurrence index behind the dependency graph
    and its cycle check.

    Channels enter the index thread by thread, each thread's in
    `chan_order`, so walking it gives the same cycle on every run.
    """
    fscs = [sx.free_session_channels(t) for t in nf.threads]
    occ: dict[Name, list[int]] = {}
    for i, f in enumerate(fscs):
        for c in sorted(f, key=chan_order):
            occ.setdefault(c, []).append(i)
    return fscs, occ


class Row(NamedTuple):
    """What is known of one thread object."""
    thread: Process  # held, so its id is not reused while in the table
    facts: sx.Facts
    pieces: tuple[str | Name, ...]  # its `surface.pieces`

    @property
    def ties(self) -> frozenset[Name]:
        """Its free session channels and its services."""
        return self.facts.free | self.facts.services


# one caller-owned table: thread id -> the row of that thread object
Table = dict[int, Row]


def _row(t: Process) -> Row:
    """t's row, from one `syntax.facts` sweep and one `pieces` walk."""
    return Row(t, sx.facts(t), tuple(pieces(t)))


def rows(table: Table, threads: Iterable[Process]) -> list[Row]:
    """The rows of `threads`, each built once per table."""
    out = []
    for t in threads:
        row = table.get(id(t))
        if row is None:
            row = table[id(t)] = _row(t)
        out.append(row)
    return out


def canonical_key(p: Process | NormalForm,
                  table: Table | None = None) -> str:
    """A printable key equal for structurally congruent alpha-variants.

    Threads are sorted under a print that is blind to the spelling of
    bound names: a thread's own binders are numbered in its traversal
    order, and every restriction gets a colour.  While threads tie,
    each restriction's colour is refined by the prints of the threads
    it occurs in, until the colours stop splitting, so threads that
    differ only in which restricted channel they share with whom are
    told apart.  Then every binder is numbered in traversal order and
    the term is re-printed.  A restriction no thread uses is left out,
    since `new k . P` is congruent to P when k is not free in P.  Equal
    keys imply congruent processes; the converse can fail on ties that
    survive the refinement, which only costs duplicate work in state
    exploration, never wrong answers.

    Each distinct thread object is read once per `table`, into its
    `Row`: its `syntax.facts` (binders and free channels) and its
    `pieces`.  The blind print, every refinement round and the final
    print spell those pieces under the current name map without walking
    the thread again.  The table belongs to the caller: a search or
    `explore` passes one for every state it keys, and `print_states`
    can read the same rows.  Without one, each call makes its own.

    The key is not a display layout, so it does not use `lay_out`: it
    has no parentheses, and a state without threads keys as "".  Where
    no thread binds a name and no restriction is used, nothing is
    numbered, so the key is the sorted blind prints, and no thread is
    spelled twice.
    """
    nf = normal_form(p)
    known = rows({} if table is None else table, nf.threads)
    occ: dict[Name, list[int]] = {}
    if nf.binders:
        for i, row in enumerate(known):
            for c in row.facts.free:
                occ.setdefault(c, []).append(i)
    binders = [c for c in nf.binders if c in occ]

    blind: dict[Name, str] = {}
    for row in known:
        start = len(blind)
        for c in row.facts.binders:
            blind.setdefault(c, f"#{len(blind) - start}")
    for c in binders:
        blind[c] = "#r"

    shown = [spell(row.pieces, blind) for row in known]
    if not blind:  # nothing to number: the final print is the blind one
        return " | ".join(sorted(shown))
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
        shown = [spell(row.pieces, blind) for row in known]
    order = sorted(range(len(known)), key=shown.__getitem__)

    numbered: dict[Name, str] = {}
    for c in chain(*(known[i].facts.binders for i in order), binders):
        numbered.setdefault(c, f"b{len(numbered)}")

    used = sorted({numbered[c] for c in binders})
    head = f"new {', '.join(used)} . " if used else ""
    return head + " | ".join(spell(known[i].pieces, numbered) for i in order)


def print_states(states: Sequence[NormalForm],
                 table: Table | None = None) -> list[str]:
    """`print_process(q.process())` for each normal form q: the rows of
    its threads in `table` (by default one for this call), spelled and
    laid out by `surface`.

    Names are carried from state to state.  `semantics.step` keeps
    untouched threads as the same objects, so set operations on thread
    ids and restrictions find what a step added or removed, and only
    those rows are read.  The printer keeps the thread objects that
    bind, serve or mention each name, so it sees a name become or stop
    being a binder, or a free channel or service, whose spelling is
    taken.  Only such a change can respell binders, and only in its
    spelling family (`family`): that family is named again with
    `choose_names`, from its first changed binder on.  A thread's last
    fill is kept and made again only when one of its names is
    respelled.  States in any order print right, as `run --all` needs;
    they cost more the more successive states differ.
    """
    if table is None:
        table = {}
    present: set[int] = set()  # ids of the last state's thread objects
    restricted: set[Name] = set()  # the last state's restrictions
    # name -> the ids of those objects that bind, serve or mention it
    holders: tuple[dict[Name, set[int]], ...] = ({}, {}, {})
    bound, served, mentioned = holders
    # family -> its binders as (`binder_order`, binder), sorted, and its
    # free channels and services, whose spellings are taken
    families: dict[str, tuple[list[tuple], set[Name]]] = {}
    names: dict[Name, str] = {}  # binder -> spelling; the rest keep theirs
    fills: dict[int, str] = {}  # thread id -> its last fill
    out: list[str] = []
    for q in states:
        ids = list(map(id, q.threads))
        now = set(ids)
        came, went = now - present, present - now
        here = set(q.binders)
        touched = here ^ restricted
        # `Facts` reads binders, services, mentions, as `holders` does;
        # a thread object twice in the state is entered twice, to no effect
        for row in rows(table, compress(q.threads, map(came.__contains__,
                                                       ids))):
            i = id(row.thread)
            for held, ns in zip(holders, row.facts):
                for n in ns:
                    if n in held:
                        held[n].add(i)
                    else:
                        held[n] = {i}
                        touched.add(n)
        for i in went:
            for held, ns in zip(holders, table[i].facts):
                for n in ns:
                    holding = held[n]
                    holding.discard(i)
                    if not holding:
                        del held[n]
                        touched.add(n)

        first: dict[str, int] = {}  # family -> its first changed binder
        respelled = set()
        for n in touched:
            root = family(n.base)
            if root not in families:
                families[root] = [], set()
            binders, takers = families[root]
            binder = n in here or n in bound
            if binder != (n in names):
                key = binder_order(n), n
                pos = bisect_left(binders, key)
                if binder:
                    binders.insert(pos, key)
                else:
                    del binders[pos]
                    if names.pop(n) != n.base:  # if still shown, it is free
                        respelled.add(n)
                first[root] = min(first.get(root, pos), pos)
            taker = n in served or not binder and n in mentioned
            if taker != (n in takers):
                (takers.add if taker else takers.remove)(n)
                first[root] = 0
        for root, pos in first.items():
            binders, takers = families[root]
            if pos < len(binders):
                taken = {n.base for n in takers}
                taken.update(map(names.__getitem__,
                                 map(itemgetter(1), binders[:pos])))
                tail = map(itemgetter(1), binders[pos:])
                for n, s in choose_names(tail, taken).items():
                    if names.get(n, n.base) != s:  # as it was shown
                        respelled.add(n)
                    names[n] = s

        refill = came  # and the threads that show a respelled name
        for n in respelled:
            refill.update(bound.get(n, ()), mentioned.get(n, ()))
        for i in refill:
            fills[i] = spell(table[i].pieces, names)
        present, restricted = now, here
        out.append(lay_out([names[c] for c in q.binders],
                           [fills[i] for i in ids]))
    return out
