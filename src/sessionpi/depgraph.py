"""Session dependency graphs and the transparency check.

The graph of a process has one node per thread, labelled with the
thread's free channels minus the restrictions above it, and one edge
per channel shared by two threads.  Edges are recorded even for
channels that a restriction later strips from the labels.  Because a
channel shared by m threads contributes an edge for every pair, three
threads on one channel already close a cycle; `find_cycle`, behind both
a graph's `cycle` and the transparency check, exploits this and reads
the channel-occurrence index instead of the quadratically many edges.
"""
from __future__ import annotations

from collections import deque
from typing import NamedTuple

from . import congruence, typecheck
from .congruence import NormalForm
from .surface import display_names, print_process
from .syntax import Name, Process, Sort


class Cycle(NamedTuple):
    """nodes[i] -- channels[i] -- nodes[i+1], closing back to nodes[0]."""
    nodes: tuple[int, ...]
    channels: tuple[Name, ...]


class DepGraph(NamedTuple):
    """Nodes are thread positions in the normal form, left to right;
    `texts` keeps each thread's printed form for witnesses and DOT, and
    `cycle` is a cycle of the graph, None when it is a forest."""
    labels: tuple[frozenset[Name], ...]
    edges: tuple[tuple[int, int, Name], ...]
    texts: tuple[str, ...]
    cycle: Cycle | None

    @property
    def node_count(self) -> int:
        return len(self.labels)

    @property
    def edge_count(self) -> int:
        return len(self.edges)


class _DSU:
    def __init__(self) -> None:
        self.parent: dict[int, int] = {}

    def find(self, x: int) -> int:
        p = self.parent.setdefault(x, x)
        while p != x:
            self.parent[x] = p = self.parent[p]
            x = p
            p = self.parent[x]
        return x

    def union(self, a: int, b: int) -> bool:
        """Merge; False when already in the same component."""
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        self.parent[ra] = rb
        return True


def build_graph(p: Process | NormalForm,
                names: dict[Name, str] | None = None) -> DepGraph:
    """The graph of p, a term or a normal form.  Node texts are printed
    with `names`, by default p's own display names; a sub-term's graph
    takes the whole term's names, so that its texts spell channels as
    its edge labels do."""
    nf = congruence.normal_form(p)
    fscs, occ = congruence.occurrences(nf)
    removed = set(nf.binders)
    labels = tuple(f - removed for f in fscs)
    if names is None:
        names = display_names(nf.process())
    texts = tuple(print_process(t, names) for t in nf.threads)

    edges: list[tuple[int, int, Name]] = []
    for c, nodes in occ.items():
        for x in range(len(nodes)):
            for y in range(x + 1, len(nodes)):
                edges.append((nodes[x], nodes[y], c))
    edges.sort(key=lambda e: (e[0], e[1], congruence.chan_order(e[2])))
    return DepGraph(labels, tuple(edges), texts, find_cycle(occ))


def _tree_path(adj: dict[int, list[tuple[int, Name]]], u: int,
               v: int) -> tuple[list[int], list[Name]]:
    """Path u .. v through accepted forest edges (u, v connected)."""
    prev: dict[int, tuple[int, Name]] = {}
    seen = {u}
    queue = deque([u])
    while queue:
        x = queue.popleft()
        if x == v:
            break
        for y, c in adj.get(x, ()):
            if y not in seen:
                seen.add(y)
                prev[y] = (x, c)
                queue.append(y)
    nodes = [v]
    chans: list[Name] = []
    while nodes[-1] != u:
        x, c = prev[nodes[-1]]
        chans.append(c)
        nodes.append(x)
    nodes.reverse()
    chans.reverse()
    return nodes, chans


def find_cycle(occ: dict[Name, list[int]]) -> Cycle | None:
    """A cycle of the graph whose occurrence index is `occ` (see
    `congruence.occurrences`) if it has one, found without enumerating
    all pairs: a channel on three threads is already a triangle."""
    dsu = _DSU()
    adj: dict[int, list[tuple[int, Name]]] = {}
    for c, nodes in occ.items():
        if len(nodes) >= 3:
            a, b, d = nodes[:3]
            return Cycle((a, b, d), (c, c, c))
        if len(nodes) == 2:
            u, v = nodes
            if dsu.union(u, v):
                adj.setdefault(u, []).append((v, c))
                adj.setdefault(v, []).append((u, c))
            else:
                path, chans = _tree_path(adj, u, v)
                return Cycle(tuple(path), tuple(chans + [c]))
    return None


def leads_to(g: DepGraph, a: Name, b: Name) -> bool | None:
    """Is there a path between a node labelled `a` and one labelled `b`?

    None when either channel labels no node (it is absent or only occurs
    under a restriction), which callers should read as vacuous.
    """
    na = [i for i, ls in enumerate(g.labels) if a in ls]
    nb = [i for i, ls in enumerate(g.labels) if b in ls]
    if not na or not nb:
        return None
    dsu = _DSU()
    for u, v, _ in g.edges:
        dsu.union(u, v)
    reach = {dsu.find(i) for i in na}
    return any(dsu.find(j) in reach for j in nb)


class Transparency(NamedTuple):
    ok: bool
    reason: str  # "transparent", "ill-typed" or "cyclic"
    detail: str
    subterm: Process | None = None
    cycle: Cycle | None = None

    def __bool__(self) -> bool:
        return self.ok

    @property
    def verdict(self) -> str:
        if self.ok:
            return "Transparent"
        return "NotWellTyped" if self.reason == "ill-typed" else "NotTransparent"


def first_cycle(p: Process) -> tuple[NormalForm, Cycle] | None:
    """The first parallel cluster of p whose graph has a cycle, if any."""
    for nf in congruence.clusters(p):
        if (cyc := find_cycle(congruence.occurrences(nf)[1])) is not None:
            return nf, cyc
    return None


def is_transparent(gamma: dict[str, Sort], p: Process) -> Transparency:
    """Well-typed, and every parallel cluster's graph is a forest."""
    try:
        typecheck.check(gamma, p)
    except typecheck.TypingError as e:
        return Transparency(False, "ill-typed", str(e))
    if (found := first_cycle(p)) is None:
        return Transparency(True, "transparent", "")
    nf, cyc = found
    chans = ", ".join(sorted({c.base for c in cyc.channels}))
    return Transparency(
        False, "cyclic", f"threads form a dependency cycle through {chans}",
        subterm=nf.process(), cycle=cyc)


def _dot_escape(s: str) -> str:
    return s.replace("\\", "\\\\").replace('"', '\\"')


def to_dot(g: DepGraph, names: dict[Name, str] | None = None,
           title: str = "deps") -> str:
    names = names or {}
    lines = [f'graph "{_dot_escape(title)}" {{']
    for i, (ls, text) in enumerate(zip(g.labels, g.texts)):
        if len(text) > 60:
            text = text[:57] + "..."
        labels = sorted(names.get(c, c.base) for c in ls)
        parts = [text, "{" + ", ".join(labels) + "}"]
        # a DOT line break, not a real newline
        body = "\\n".join(map(_dot_escape, parts))
        lines.append(f'  n{i} [label="{body}"];')
    for u, v, c in g.edges:
        label = _dot_escape(names.get(c, c.base))
        lines.append(f'  n{u} -- n{v} [label="{label}"];')
    lines.append("}")
    return "\n".join(lines)
