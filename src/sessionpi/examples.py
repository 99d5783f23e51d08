"""A small corpus of processes with known verdicts.

Each source also ships as samples/<name>.spi; `selftest` re-derives
every verdict from scratch, so a broken install fails loudly rather
than quietly misanalysing.
"""
from __future__ import annotations

from . import congruence, depgraph, progress, semantics, surface, typecheck
from . import syntax as sx

SOURCES: dict[str, str] = {
    "relay": """\
// forward one value, then sink it
sessions k, k1;
k?(x).k1!(x).0 | k!(5).0 | k1?(y).0
""",
    "circular_waits": """\
// each thread waits for the other: irreducible, and no partner can
// unblock both at once
sessions k1, k2;
k1?(x).k2!(x).0 | k2?(x).k1!(x).0
""",
    "circular_waits_hidden": """\
// the same deadlock with both channels restricted away
new k1, k2 . (k1?(x).k2!(x).0 | k2?(x).k1!(x).0)
""",
    "circular_waits_under_accept": """\
// dormant deadlock: a single accept-guarded thread whose body locks up
// once the service is invoked
env a : <end>;
a(k) . new k1, k2 . (k1?(x).k2!(x).0 | k2?(x).k1!(x).0)
""",
    "buyer_seller": """\
// quote, decide, then have a shipper confirm over a delegated session
env buy : <![int].&{ok: ![string].end, stop: end}>;
env ship : <?[![string].end].end>;
buy<k>.k?(xq).(if xq <= 100 then k << ok . k?(xc).0 else k << stop . 0)
| *buy(k).k!(42).k >> {ok: ship<k1>.k1!((k)).0, stop: 0}
| *ship(k1).k1?((k)).k!("conf").0
""",
    "two_services": """\
// one client drives two providers, abort or deliver
env buy : <&{abort: ?[string].end, ok: ?[string].end}>;
env ship : <?[string].end>;
env null : string;
buy(k).ship<k1>.k >> { ok: k?(xa).k1!(xa).0, abort: k1!(null).k?(xr).0 }
""",
    "crossed_services": """\
// two parties, each serving one service and invoking the other
env buy : <?[string].end>;
env serv : <![int].end>;
env card : string;
buy(k).k?(xcard).serv(k1).k1!(5).0 | buy<k>.serv<k1>.k1?(y).k!(card).0
""",
    "service_loop": """\
// a self-invoking service spins forever next to a circular wait
sessions k1, k2;
env a : <end>;
k1?(x).k2!(x).0 | k2?(x).k1!(x).0 | *a(k).a<k3>.0 | a<k3>.0
""",
    "blocked_delegation": """\
// the delegated channel is free in the receiver, so the handover can
// never fire; both channels end up closed on both ends
sessions k, k1;
k?((m)).(m?(x).0 | k1!(7).0) | k!((k1)).0
""",
    "delegation_race": """\
// delegating k moves its edge to the new holder
sessions k, k1;
k!(5).0 | k1!((k)).k1?(x).0 | k1?((m)).m?(x).k1!(7).0
""",
}


def load(name: str) -> surface.Source:
    return surface.parse_source(SOURCES[name])


def selftest() -> list[tuple[str, bool, str]]:
    """(check name, passed, detail) for every golden verdict."""
    out: list[tuple[str, bool, str]] = []

    def chk(name: str, got, want) -> None:
        out.append((name, got == want, f"want {want!r}, got {got!r}"))

    src = load("relay")
    g = depgraph.build_graph(src.process)
    chk("relay graph shape", (g.node_count, g.edge_count), (3, 2))
    chk("relay path k to k1",
        depgraph.leads_to(g, sx.chan("k"), sx.chan("k1")), True)
    chk("relay transparent",
        depgraph.is_transparent(src.gamma, src.process).verdict, "Transparent")

    src = load("circular_waits")
    g = depgraph.build_graph(src.process)
    chk("circular waits graph shape", (g.node_count, g.edge_count), (2, 2))
    chk("circular waits cyclic",
        depgraph.is_transparent(src.gamma, src.process).verdict,
        "NotTransparent")
    r = progress.check_progress(src.gamma, src.process, depth=5)
    chk("circular waits refuted", (r.verdict, r.failed, len(r.cut)),
        ("counterexample", "no-partner", 2))

    src = load("circular_waits_hidden")
    g = depgraph.build_graph(src.process)
    chk("hidden waits graph shape", (g.node_count, g.edge_count), (2, 2))
    chk("hidden waits labels empty", [set(l) for l in g.labels],
        [set(), set()])
    chk("hidden waits cyclic",
        depgraph.is_transparent(src.gamma, src.process).verdict,
        "NotTransparent")

    src = load("circular_waits_under_accept")
    g = depgraph.build_graph(src.process)
    chk("dormant waits graph shape", (g.node_count, g.edge_count), (1, 0))
    v = depgraph.is_transparent(src.gamma, src.process)
    chk("dormant waits still rejected", v.verdict, "NotTransparent")
    chk("dormant waits witness is a sub-term", v.subterm is not None, True)

    src = load("buyer_seller")
    chk("buyer-seller closed typing",
        typecheck.check(src.gamma, src.process), {})
    chk("buyer-seller is a program", typecheck.is_program(src.process), True)
    chk("buyer-seller transparent",
        depgraph.is_transparent(src.gamma, src.process).verdict, "Transparent")
    r = progress.check_progress(src.gamma, src.process, depth=10)
    chk("buyer-seller certificate", r.verdict, "certificate")

    for name in ("two_services", "crossed_services"):
        src = load(name)
        chk(f"{name} transparent",
            depgraph.is_transparent(src.gamma, src.process).verdict,
            "Transparent")
        r = progress.check_progress(src.gamma, src.process, depth=10)
        chk(f"{name} certificate", r.verdict, "certificate")

    src = load("service_loop")
    r = progress.check_progress(src.gamma, src.process, depth=5)
    nf = congruence.normal_form(src.process)
    chk("service loop refuted", (r.verdict, list(r.cut)),
        ("counterexample", list(nf.threads[:2])))

    src = load("blocked_delegation")
    chk("blocked delegation irreducible",
        semantics.redexes(src.process), [])
    chk("blocked delegation cyclic",
        depgraph.is_transparent(src.gamma, src.process).verdict,
        "NotTransparent")

    src = load("delegation_race")
    rs = semantics.redexes(src.process)
    chk("delegation race has one handover",
        [r.rule for r in rs], ["Del"])
    before = {(i, j, c.base)
              for i, j, c in depgraph.build_graph(src.process).edges}
    chk("race edges before", before, {(0, 1, "k"), (1, 2, "k1")})
    after_p = semantics.step(src.process, rs[0])
    after = {(i, j, c.base)
             for i, j, c in depgraph.build_graph(after_p).edges}
    chk("race edge follows the channel", after, {(0, 2, "k"), (1, 2, "k1")})

    return out
