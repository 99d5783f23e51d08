"""Generators for the property suites.

Session types come from a hypothesis strategy.  Processes come from
seeded samplers built on the inhabitation machinery, driven through
hypothesis as @given(st.integers(...)) so failures shrink to small
seeds: generating well-typed processes directly is far cheaper than
filtering random terms.
"""
from __future__ import annotations

import importlib.util
import random
import sys
from functools import reduce
from pathlib import Path

from hypothesis import strategies as st

import sessionpi.progress as pg
import sessionpi.semantics as sm
import sessionpi.syntax as sx
import sessionpi.typecheck as tc

LABELS = ("go", "stop", "ok", "no", "more")

_basic = st.sampled_from([sx.INT, sx.BOOL, sx.STRING])


def _arms(child, build):
    return st.lists(st.tuples(st.sampled_from(LABELS), child),
                    min_size=1, max_size=3,
                    unique_by=lambda kv: kv[0]).map(build)


session_types = st.recursive(
    st.just(sx.End()),
    lambda child: st.one_of(
        st.builds(sx.In, _basic, child),
        st.builds(sx.Out, _basic, child),
        st.builds(sx.In, child, child),
        st.builds(sx.Out, child, child),
        st.builds(sx.In, st.builds(sx.ServiceSort, child), child),
        st.builds(sx.Out, st.builds(sx.ServiceSort, child), child),
        _arms(child, sx.branch),
        _arms(child, sx.select)),
    max_leaves=6)

VARS = ("x", "y")

expressions = st.recursive(
    st.one_of(st.integers(0, 1000).map(sx.IntLit),
              st.booleans().map(sx.BoolLit),
              st.text('ab "\\\n\t', max_size=4).map(sx.StrLit),
              st.sampled_from(VARS).map(sx.Var)),
    lambda child: st.one_of(
        st.builds(sx.Binop,
                  st.sampled_from(["or", "and", "=", "!=", "<", "<=", ">",
                                   ">=", "+", "-", "*"]),
                  child, child),
        st.builds(sx.Unop, st.sampled_from(["not", "-"]), child)),
    max_leaves=8)


# ------------------------------------------------------------ seeded samplers

_BASICS = (sx.INT, sx.BOOL, sx.STRING)


# Tokens, keywords and bad characters for fuzzing the parser and the CLI
SOUP = ("sessions env new if then else not and or end int bool string true "
        "false k a x 0 1 \"s\" \"a\\q\" \"open ( ) [ ] { } < > ? ! . , : ; | "
        "* & + - = << >> != // # #s @ ² ½ \\").split() + ["\n", '"a\\\n"']


def rand_type(rng: random.Random, depth: int = 3,
              deleg: bool = True) -> sx.SessionType:
    # deleg=False leaves out session payloads in both directions: dual
    # flips them, and an outgoing delegation inhabits to a restriction
    if depth <= 0 or rng.random() < 0.25:
        return sx.End()
    case = rng.randrange(8 if deleg else 6)
    sub = lambda: rand_type(rng, depth - 1, deleg)
    if case == 0:
        return sx.In(rng.choice(_BASICS), sub())
    if case == 1:
        return sx.Out(rng.choice(_BASICS), sub())
    if case == 2:
        return sx.In(sx.ServiceSort(sub()), sub())
    if case == 3:
        return sx.Out(sx.ServiceSort(sub()), sub())
    if case in (4, 5):
        labels = rng.sample(LABELS, rng.randint(1, 3))
        build = sx.branch if case == 4 else sx.select
        return build([(l, sub()) for l in labels])
    return sx.In(sub(), sub()) if case == 6 else sx.Out(sub(), sub())


def _nonend_type(rng: random.Random, **kw) -> sx.SessionType:
    while True:
        t = rand_type(rng, **kw)
        if not isinstance(t, sx.End):
            return t


def _inhabit_into(gamma: dict, a: sx.SessionType, k: sx.Name) -> sx.Process:
    p, ext = pg.inhabit(a, k, avoid=set(gamma))
    gamma.update(ext)
    return p


def well_typed(rng: random.Random) -> tuple[dict, sx.Process]:
    """A well-typed process: dual inhabitant pairs on distinct channels,
    some restricted, sometimes a service with a client."""
    gamma: dict = {}
    threads: list[sx.Process] = []
    bound: list[sx.Name] = []
    for i in range(rng.randint(1, 3)):
        a = rand_type(rng)
        if rng.random() < 0.4:
            k = sx.bound_chan(f"k{i}")
            bound.append(k)
        else:
            k = sx.chan(f"k{i}")
        threads.append(_inhabit_into(gamma, a, k))
        threads.append(_inhabit_into(gamma, tc.dual(a), k))
    if rng.random() < 0.4:
        a = rand_type(rng)
        name = "svc"
        gamma[name] = sx.ServiceSort(a)
        k = sx.bound_chan("k")
        threads.append(sx.Serve(sx.svc(name), k, _inhabit_into(gamma, a, k)))
        k2 = sx.bound_chan("k")
        threads.append(sx.Request(sx.svc(name), k2,
                                  _inhabit_into(gamma, tc.dual(a), k2)))
    rng.shuffle(threads)
    p = reduce(sx.Par, threads)
    for k in bound:
        p = sx.New(k, p)
    return gamma, p


def transparent(rng: random.Random) -> tuple[dict, sx.Process]:
    """A transparent process: a forwarding chain, independent dual
    pairs, sometimes a service invocation; the dependency graph is a
    disjoint union of paths."""
    gamma: dict = {}
    threads: list[sx.Process] = []
    c = rng.randint(2, 4)
    ks = [sx.chan(f"c{i}") for i in range(c)]
    threads.append(sx.Send(ks[0], sx.IntLit(rng.randrange(100)), sx.Stop()))
    for i in range(c - 1):
        threads.append(sx.Receive(ks[i], "x",
                                  sx.Send(ks[i + 1], sx.Var("x"), sx.Stop())))
    threads.append(sx.Receive(ks[-1], "y", sx.Stop()))
    for i in range(rng.randint(0, 2)):
        a = rand_type(rng, depth=2)
        k = sx.chan(f"p{i}")
        threads.append(_inhabit_into(gamma, a, k))
        threads.append(_inhabit_into(gamma, tc.dual(a), k))
    if rng.random() < 0.5:
        a = rand_type(rng, depth=2)
        gamma["svc"] = sx.ServiceSort(a)
        k = sx.bound_chan("k")
        threads.append(sx.Serve(sx.svc("svc"), k,
                                _inhabit_into(gamma, a, k)))
        k2 = sx.bound_chan("k")
        threads.append(sx.Request(sx.svc("svc"), k2,
                                  _inhabit_into(gamma, tc.dual(a), k2)))
    rng.shuffle(threads)
    return gamma, reduce(sx.Par, threads)


def irreducible_live(rng: random.Random) -> tuple[dict, sx.Process]:
    """Transparent, irreducible, with live channels: lone inhabitants
    on distinct channels, sometimes a pending request or a dormant
    server."""
    gamma: dict = {}
    threads: list[sx.Process] = []
    for i in range(rng.randint(1, 3)):
        a = _nonend_type(rng, depth=2)
        threads.append(_inhabit_into(gamma, a, sx.chan(f"k{i}")))
    if rng.random() < 0.4:
        a = rand_type(rng, depth=2)
        gamma["req"] = sx.ServiceSort(a)
        k = sx.bound_chan("k")
        threads.append(sx.Request(sx.svc("req"), k,
                                  _inhabit_into(gamma, tc.dual(a), k)))
    if rng.random() < 0.3:
        a = rand_type(rng, depth=2)
        gamma["dorm"] = sx.ServiceSort(a)
        k = sx.bound_chan("k")
        threads.append(sx.Serve(sx.svc("dorm"), k,
                                _inhabit_into(gamma, a, k)))
    rng.shuffle(threads)
    return gamma, reduce(sx.Par, threads)


def program(rng: random.Random) -> tuple[dict, sx.Process]:
    """A well-typed program: services plus clients, no free sessions,
    no restrictions (so no delegation outputs in the types)."""
    gamma: dict = {}
    threads: list[sx.Process] = []
    for i in range(rng.randint(1, 2)):
        a = rand_type(rng, depth=2, deleg=False)
        name = f"s{i}"
        gamma[name] = sx.ServiceSort(a)
        k = sx.bound_chan("k")
        threads.append(sx.Serve(sx.svc(name), k,
                                _inhabit_into(gamma, a, k)))
        if rng.random() < 0.3:
            k = sx.bound_chan("k")
            threads.append(sx.Accept(sx.svc(name), k,
                                     _inhabit_into(gamma, a, k)))
        for _ in range(rng.randint(0, 2)):
            k = sx.bound_chan("k")
            threads.append(sx.Request(sx.svc(name), k,
                                      _inhabit_into(gamma, tc.dual(a), k)))
    rng.shuffle(threads)
    return gamma, reduce(sx.Par, threads)


def races(rng: random.Random) -> sx.Process:
    """Two to five chains of sends, receives, selections, offers and
    closed conditionals over two free channels, so that several threads
    race for one channel and two redexes can share a thread; a
    continuation sometimes opens a restricted pair.  Untyped: only the
    reductions matter."""
    ks = [sx.chan("c"), sx.chan("d")]

    def chain(n: int) -> sx.Process:
        t: sx.Process = sx.Stop()
        if rng.random() < 0.2:
            e = sx.bound_chan("e")
            t = sx.New(e, sx.Par(sx.Send(e, sx.IntLit(0), sx.Stop()),
                                 sx.Receive(e, "z", sx.Stop())))
        for _ in range(n):
            k = rng.choice(ks)
            match rng.randrange(5):
                case 0:
                    t = sx.Send(k, sx.IntLit(rng.randrange(3)), t)
                case 1:
                    t = sx.Receive(k, "x", t)
                case 2:
                    t = sx.Choose(k, rng.choice(LABELS[:2]), t)
                case 3:
                    t = sx.Offer(k, (("go", t), ("stop", sx.Stop())))
                case 4:
                    t = sx.If(sx.BoolLit(rng.random() < 0.5), t, sx.Stop())
        return t

    return reduce(sx.Par, [chain(rng.randint(1, 3))
                           for _ in range(rng.randint(2, 5))])


def cyclic(rng: random.Random) -> sx.Process:
    """Send chains over two to four free channels that surely close a
    dependency cycle: two threads share two channels, or three threads
    share one.  More chains may close further cycles, and the cluster
    sometimes sits under a prefix.  Untyped: only the graphs matter."""
    ks = [sx.chan(f"c{i}") for i in range(rng.randint(2, 4))]

    def chain(chans: list[sx.Name]) -> sx.Process:
        t: sx.Process = sx.Stop()
        for c in reversed(chans):
            t = sx.Send(c, sx.IntLit(0), t)
        return t

    a, b = rng.sample(ks, 2)
    if rng.random() < 0.5:
        threads = [chain([a, b]), chain([b, a])]
    else:
        threads = [chain([a]), chain([a]), chain([a])]
    for _ in range(rng.randint(0, 3)):
        threads.append(chain(rng.sample(ks, rng.randint(1, 2))))
    rng.shuffle(threads)
    p = reduce(sx.Par, threads)
    if rng.random() < 0.5:
        p = sx.Send(sx.chan("outer"), sx.IntLit(0), p)
    return p


def typed_cycles(rng: random.Random) -> tuple[dict, sx.Process]:
    """Well-typed cyclic processes on free channels: live two-channel
    cycles `a!(v).b!(w).0 | a?(x).b?(y).0`, one-shot pairs, and rings of
    two or three threads that each wait on one channel before sending on
    the next, which deadlock.  A ring sometimes sits behind a session
    prefix, so it is reached only after a step."""
    threads: list[sx.Process] = []
    for i in range(rng.randint(0, 2)):
        a, b = sx.chan(f"a{i}"), sx.chan(f"b{i}")
        threads.append(sx.Send(a, sx.IntLit(rng.randrange(9)),
                               sx.Send(b, sx.IntLit(rng.randrange(9)),
                                       sx.Stop())))
        threads.append(sx.Receive(a, "x", sx.Receive(b, "y", sx.Stop())))
    for i in range(rng.randint(0, 1)):
        c = sx.chan(f"c{i}")
        threads.append(sx.Send(c, sx.IntLit(rng.randrange(9)), sx.Stop()))
        threads.append(sx.Receive(c, "x", sx.Stop()))
    if rng.random() < 0.8:
        ds = [sx.chan(f"d{i}") for i in range(rng.randint(2, 3))]
        ring = [sx.Receive(d, "x", sx.Send(ds[(i + 1) % len(ds)], sx.Var("x"),
                                           sx.Stop()))
                for i, d in enumerate(ds)]
        rng.shuffle(ring)
        ring_p = reduce(sx.Par, ring)
        if rng.random() < 0.5:
            gate = sx.chan("gate")
            ring_p = sx.Receive(gate, "z", ring_p)
            threads.append(sx.Send(gate, sx.IntLit(0), sx.Stop()))
        threads.append(ring_p)
    if not threads:
        threads.append(sx.Stop())
    rng.shuffle(threads)
    return {}, reduce(sx.Par, threads)


def _cycle_piece(rng: random.Random, tag: str) -> list[sx.Process]:
    """Stuck threads of a state reachable from `typed_cycles`, with
    every channel renamed apart by `tag`; possibly empty."""
    _, p = typed_cycles(rng)
    states = [q for q, _ in sm.explore(p, rng.randint(0, 2))]
    threads = list(rng.choice(states).threads)
    rng.shuffle(threads)
    piece = threads[:rng.randint(0, len(threads))]
    while piece and (rs := sm.redexes(reduce(sx.Par, piece))):
        del piece[rs[0].i]
    names = set().union(*map(sx.free_session_channels, piece))
    for c in names:
        piece = [sx.subst_chan(t, c, sx.chan(f"{c.base}_{tag}"))
                 for t in piece]
    return piece


def hidden_cycle(c: sx.Name) -> sx.Process:
    """Waits on c for a choice; `go` ends, `stop` runs a live two-channel
    cycle.  It passes its cut check (the partner picks `go`), yet it is
    not transparent."""
    a, b = sx.bound_chan("a"), sx.bound_chan("b")
    cycle = sx.Par(sx.Send(a, sx.IntLit(1), sx.Send(b, sx.IntLit(2),
                                                    sx.Stop())),
                   sx.Receive(a, "x", sx.Receive(b, "y", sx.Stop())))
    return sx.Offer(c, (("go", sx.Stop()),
                        ("stop", sx.New(a, sx.New(b, cycle)))))


def independent_units(
        rng: random.Random) -> tuple[dict, list[list[sx.Process]]]:
    """Groups of threads, no two of which share a name, for the
    connected picks of the progress search.

    A group is a stuck piece of a `typed_cycles` state renamed apart
    (it may split further), a `hidden_cycle` thread, a dormant server,
    or two requests for one service, which share only that service."""
    gamma: dict = {}
    units: list[list[sx.Process]] = []
    for n in range(rng.randint(2, 4)):
        kind = rng.random()
        if kind < 0.5:
            units.append(_cycle_piece(rng, str(n)))
        elif kind < 0.7:
            units.append([hidden_cycle(sx.chan(f"h{n}"))])
        elif kind < 0.8:
            a = rand_type(rng, depth=2)
            gamma[f"d{n}"] = sx.ServiceSort(a)
            k = sx.bound_chan("k")
            units.append([sx.Serve(sx.svc(f"d{n}"), k,
                                   _inhabit_into(gamma, a, k))])
        else:
            a = rand_type(rng, depth=2)
            gamma[f"s{n}"] = sx.ServiceSort(a)
            requests = []
            for _ in range(2):
                k = sx.bound_chan("k")
                requests.append(sx.Request(sx.svc(f"s{n}"), k,
                                           _inhabit_into(gamma, tc.dual(a),
                                                         k)))
            units.append(requests)
    return gamma, units


# ------------------------------------------------- scaling family + AST size

def forwarding_family(c: int, pad_to: int = 0) -> sx.Process:
    """c channels relaying one value, padded with inert conditionals
    to roughly pad_to AST nodes."""
    ks = [sx.chan(f"k{i}") for i in range(c)]
    threads = [sx.Send(ks[0], sx.IntLit(1), sx.Stop())]
    for i in range(c - 1):
        threads.append(sx.Receive(ks[i], "x",
                                  sx.Send(ks[i + 1], sx.Var("x"), sx.Stop())))
    threads.append(sx.Receive(ks[-1], "x", sx.Stop()))
    pad = sx.If(sx.BoolLit(True), sx.Stop(), sx.Stop())
    base = sum(size(t) for t in threads)
    for _ in range(max(0, (pad_to - base) // size(pad))):
        threads.append(pad)
    return reduce(sx.Par, threads)


def size(p: sx.Process) -> int:
    """AST node count over processes and expressions."""
    n = 0
    todo: list = [p]
    while todo:
        x = todo.pop()
        n += 1
        for f in x._fields:
            v = getattr(x, f)
            for u in v if type(v) is tuple else (v,):  # an offer's arms
                if isinstance(u, (sx.Process, sx.Expr)):
                    todo.append(u)
                elif isinstance(u, tuple):
                    todo.extend(w for w in u
                                if isinstance(w, (sx.Process, sx.Expr)))
    return n


# ------------------------------------------------- the benchmark's generators

def bench_module(name: str):
    """The benchmark's module `bench/<name>.py`."""
    path = Path(__file__).resolve().parents[1] / "bench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"sessionpi_bench_{name}",
                                                  path)
    mod = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = mod  # dataclasses look their module up
    spec.loader.exec_module(mod)
    return mod


def bench_gen():
    """The benchmark's seeded input generators, `bench/gen.py`."""
    return bench_module("gen")
