"""Seeded input generators, one per workload.

Every generator returns `Case`s: a `.spi` source text together with the
answer that follows from how the text was built.  The answers never come
from running sessionpi, so the benchmark can tell a wrong verdict from a
right one.  The make-up of each workload (how many files of each kind
and size) is fixed; the seed varies names, literal values, protocol
shapes and thread order, so every seed costs about the same.
"""
from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass


@dataclass(frozen=True)
class Case:
    name: str
    text: str
    expect: dict  # the answer implied by the construction


def _source(sessions: list[str], env: list[str], threads: list[str],
            comment: str) -> str:
    head = [f"// {comment}"]
    if sessions:
        head.append(f"sessions {', '.join(sessions)};")
    head += env
    return "\n".join(head) + "\n" + "\n| ".join(threads) + "\n"


# ------------------------------------------------------------ building blocks

_BUY_TYPE = "<![int].&{ok: ![string].end, stop: end}>"
_SHIP_TYPE = "<?[![string].end].end>"


def _buyer_group(g: str, price: int, limits: list[int]):
    """A buy service that delegates its session to a ship service on `ok`,
    and one client per limit; a client takes `ok` when price <= limit."""
    buy, ship = f"buy{g}", f"ship{g}"
    env = [f"env {buy} : {_BUY_TYPE};", f"env {ship} : {_SHIP_TYPE};"]
    servers = [
        f"*{buy}(k).k!({price}).k >> {{ok: {ship}<k1>.k1!((k)).0, stop: 0}}",
        f'*{ship}(k1).k1?((k)).k!("conf").0',
    ]
    clients = [f"{buy}<k>.k?(xq).(if xq <= {lim} then k << ok . k?(xc).0"
               f" else k << stop . 0)" for lim in limits]
    return env, servers, clients, (buy, ship)


def _long_service(rng: random.Random, name: str, depth: int, clients: int):
    """A service running `depth` sequential messages in seeded directions,
    and its clients doing the dual."""
    dirs = [rng.random() < 0.5 for _ in range(depth)]  # True: server sends
    ty = "".join("![int]." if d else "?[int]." for d in dirs) + "end"

    def run(server: bool) -> str:
        out = []
        for i, d in enumerate(dirs):
            if d == server:
                out.append(f"k!({rng.randrange(100)}).")
            else:
                out.append(f"k?(x{i}).")
        return "".join(out) + "0"

    env = [f"env {name} : <{ty}>;"]
    server = f"*{name}(k).{run(True)}"
    return env, server, [f"{name}<k>.{run(False)}" for _ in range(clients)]


def _relay(rng: random.Random, tag: str, hops: int):
    """k0!(v).0 | k0?(x).k1!(x).0 | ... | k{hops-1}?(y).0: a path of
    hops+1 threads sharing hops free channels, one per neighbour pair."""
    chans = [f"r{tag}_{i}" for i in range(hops)]
    threads = [f"{chans[0]}!({rng.randrange(1000)}).0"]
    threads += [f"{a}?(x).{b}!(x).0" for a, b in zip(chans, chans[1:])]
    threads.append(f"{chans[-1]}?(y).0")
    return chans, threads


_DORMANT = [
    ("<?[int].![int].end>", "k?(x).k!(x + {v}).0"),
    ("<![int].?[int].end>", "k!({v}).k?(y).0"),
    ("<&{a: ?[int].end, b: ![bool].end}>",
     "k >> {{a: k?(x).0, b: k!(true).0}}"),
    ("<?[?[int].end].end>", "k?((m)).m?(x).0"),
    ("<?[string].?[int].![string].end>", 'k?(s).k?(n).k!("{v}").0'),
]


def _dormant(rng: random.Random, name: str, shape: int):
    ty, body = _DORMANT[shape % len(_DORMANT)]
    return f"env {name} : {ty};", f"*{name}(k).{body.format(v=rng.randrange(100))}"


# ------------------------------------------------------------------ certify

CERTIFY_THREADS = tuple(range(60, 301, 20))  # one file per size


def certify_case(rng: random.Random, index: int, threads: int) -> Case:
    """A transparent program of exactly `threads` top-level threads:
    buyer groups (branching, delegation), long sequential services, and
    relay chains over free sessions, in seeded order."""
    env: list[str] = []
    tops: list[str] = []
    sessions: list[str] = []
    for g in range(threads // 15):
        price = rng.randrange(10, 200)
        limits = [rng.randrange(10, 200) for _ in range(3)]
        e, servers, clients, _ = _buyer_group(f"{index}x{g}", price, limits)
        env += e
        tops += servers + clients
    for j in range(max(1, threads // 20)):
        e, server, clients = _long_service(rng, f"long{index}x{j}",
                                           depth=24, clients=2)
        env += e
        tops += [server] + clients
    chain = 0
    left = threads - len(tops)
    while left > 0:
        hops = min(rng.randint(2, 6), left - 1)
        if left - (hops + 1) == 1:  # never leave a single thread over
            hops += 1
        chans, ts = _relay(rng, f"{index}x{chain}", hops)
        sessions += chans
        tops += ts
        left -= len(ts)
        chain += 1
    rng.shuffle(tops)
    text = _source(sessions, env, tops,
                   f"certify {index}: {threads} threads, {chain} relay chains")
    return Case(f"certify_{index:02d}.spi", text, {
        "delta": {c: "bot" for c in sessions},
        "nodes": threads,
        # relay channels are the only free ones, each shared by two threads
        "edges": len(sessions),
    })


def certify(seed: int, scale: float = 1.0) -> list[Case]:
    rng = random.Random(f"certify:{seed}")
    sizes = [max(20, int(t * scale)) for t in CERTIFY_THREADS]
    return [certify_case(rng, i, t) for i, t in enumerate(sizes)]


# ----------------------------------------------------------------- simulate

# (dormant services, ok clients, stop clients) per file
SIMULATE_SHAPES = ((16, 2, 2), (24, 3, 1), (32, 2, 2), (40, 1, 3),
                   (48, 2, 2), (56, 3, 1), (64, 2, 2))
_OK_RULES = Counter({"RInit": 2, "Com": 2, "IfT": 1, "Sel": 1, "Del": 1})
_STOP_RULES = Counter({"RInit": 1, "Com": 1, "IfF": 1, "Sel": 1})


def simulate_case(rng: random.Random, index: int, dormant: int, ok: int,
                  stop: int) -> Case:
    """Buyer clients beside `dormant` replicated services nobody invokes.

    The default trace takes the first redex, so where the clients stand
    decides how many sessions are open at once and so how wide the
    states get.  The buy and ship servers come first and the clients
    last, `ok` and `stop` alternating, which keeps that the same for
    every seed; only the dormant services are shuffled."""
    price = rng.randrange(20, 200)
    kinds = [k for pair in zip(["ok"] * ok, ["stop"] * stop) for k in pair]
    kinds += ["ok"] * (ok - stop) + ["stop"] * (stop - ok)
    limits = [rng.randrange(price, price + 100) if k == "ok"
              else rng.randrange(0, price) for k in kinds]
    env, servers, clients, names = _buyer_group(str(index), price, limits)
    services = list(names)
    idle = []
    for j in range(dormant):
        name = f"idle{index}x{j}"
        e, server = _dormant(rng, name, j)
        env.append(e)
        idle.append(server)
        services.append(name)
    rng.shuffle(idle)
    tops = servers + idle + clients
    rules = sum([_OK_RULES] * ok + [_STOP_RULES] * stop, Counter())
    text = _source([], env, tops, f"simulate {index}: {ok} ok and {stop} stop"
                   f" clients beside {dormant} dormant services")
    return Case(f"simulate_{index:02d}.spi", text, {
        "rules": dict(rules),
        "steps": sum(rules.values()),
        "servers": dict(Counter(services)),
    })


def simulate(seed: int, scale: float = 1.0) -> list[Case]:
    rng = random.Random(f"simulate:{seed}")
    return [simulate_case(rng, i, max(2, int(d * scale)), ok, stop)
            for i, (d, ok, stop) in enumerate(SIMULATE_SHAPES)]


# ------------------------------------------------------------------- refute

# (kind, live cycles n, filler pairs f) per file; see README for the mix
REFUTE_SHAPES = tuple(
    [("live", 4, 0), ("live", 3, 1), ("live", 2, 2)]
    + [("live", 3, 0)] * 2 + [("live", 2, 1)] * 2 + [("live", 2, 0)] * 3
    + [(kind, n, 0) for kind in ("free", "accept") for n in (2, 3, 4)] * 2
)


def refute_case(rng: random.Random, index: int, kind: str, n: int,
                f: int) -> Case:
    """n live two-channel cycles and f one-shot filler pairs, followed for
    `free` by a circular wait on two free channels and for `accept` by a
    circular wait under an accept that a client invokes."""
    sessions: list[str] = []
    env: list[str] = []
    live: list[str] = []
    for i in range(n):
        a, b = f"a{index}x{i}", f"b{index}x{i}"
        sessions += [a, b]
        live += [f"{a}!({rng.randrange(100)}).{b}!({rng.randrange(100)}).0",
                 f"{a}?(x).{b}?(y).0"]
    for j in range(f):
        c = f"c{index}x{j}"
        sessions.append(c)
        live += [f"{c}!({rng.randrange(100)}).0", f"{c}?(x).0"]
    rng.shuffle(live)
    d1, d2 = f"d{index}x1", f"d{index}x2"
    if kind == "free":
        sessions += [d1, d2]
        tail = [f"{d1}?(x).{d2}!(x).0", f"{d2}?(x).{d1}!(x).0"]
    elif kind == "accept":
        svc = f"svc{index}"
        env.append(f"env {svc} : <end>;")
        tail = [f"{svc}(k) . new {d1}, {d2} . "
                f"({d1}?(x).{d2}!(x).0 | {d2}?(x).{d1}!(x).0)",
                f"{svc}<k>.0"]
    else:
        tail = []
    text = _source(sessions, env, live + tail,
                   f"refute {index}: {kind}, {n} cycles, {f} filler pairs")
    if kind == "live":
        expect = {"verdict": "inconclusive", "rc": 0,
                  "states_seen": 3 ** n * 2 ** f}
    else:
        expect = {"verdict": "counterexample", "rc": 1, "cut": [d1, d2]}
    return Case(f"refute_{index:02d}.spi", text, expect)


def refute(seed: int, scale: float = 1.0) -> list[Case]:
    """Below `scale` 1, only the shapes whose live cycles and fillers give
    at most 54 * scale states (the deadlock shapes stop at once)."""
    rng = random.Random(f"refute:{seed}")
    shapes = [s for s in REFUTE_SHAPES
              if scale >= 1.0 or s[0] != "live"
              or 3 ** s[1] * 2 ** s[2] <= 54 * scale]
    return [refute_case(rng, i, *s) for i, s in enumerate(shapes)]


GENERATORS = {"certify": certify, "simulate": simulate, "refute": refute}
