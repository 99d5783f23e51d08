"""Command line front end.

Exit codes: 0 for a positive verdict, 1 for a negative one (ill-typed,
not transparent, refuted progress), 2 for usage or parse errors.  An
inconclusive progress search exits 0: it found nothing to object to.
With --json every result is one JSON object per line with fields
{command, verdict, data}.
"""
from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path

from . import congruence, depgraph, examples, progress, semantics, surface
from . import syntax as sx
from . import typecheck
from .surface import display_names, print_delta, print_process, print_type


def _emit(args, verdict: str, data: dict, lines: list[str]) -> None:
    if getattr(args, "json", False):
        print(json.dumps({"command": args.command, "verdict": verdict,
                          "data": data}, sort_keys=True))
    else:
        for line in lines:
            print(line)


def _load(path: str) -> surface.Source:
    return surface.parse_source(Path(path).read_text())


def _graph_data(g: depgraph.DepGraph, names) -> dict:
    return {
        "nodes": [{"id": i, "text": text,
                   "labels": sorted(names.get(c, c.base) for c in labels)}
                  for i, (labels, text) in enumerate(zip(g.labels, g.texts))],
        "edges": [[i, j, names.get(c, c.base)] for i, j, c in g.edges],
    }


def _cmd_check(args) -> int:
    src = _load(args.file)
    try:
        delta = typecheck.check(src.gamma, src.process,
                                relax_services=args.relax_services)
    except typecheck.TypingError as e:
        _emit(args, "ill-typed", {"error": str(e)}, [f"ill-typed: {e}"])
        return 1
    shown = print_delta(delta) or "(empty)"
    _emit(args, "well-typed",
          {"delta": {c.base: print_type(t) for c, t in delta.items()}},
          [f"well-typed, Delta = {shown}"])
    return 0


def _cmd_graph(args) -> int:
    if args.dot == "-" and getattr(args, "json", False):
        raise ValueError("--dot - cannot be combined with --json:"
                         " both write to standard output")
    src = _load(args.file)
    if args.all_subterms:
        subterms = congruence.clusters(src.process)
    else:
        subterms = [src.process]
    names = display_names(src.process)
    graphs = [depgraph.build_graph(q, names) for q in subterms]
    if args.dot:
        text = "\n".join(depgraph.to_dot(g, names, title=f"deps{i}")
                         for i, g in enumerate(graphs))
        if args.dot == "-":
            print(text)
        else:
            Path(args.dot).write_text(text + "\n")
    lines: list[str] = []
    data = []
    for i, g in enumerate(graphs):
        gd = _graph_data(g, names)
        gd["acyclic"] = g.cycle is None
        data.append(gd)
        lines.append(f"graph {i}: {g.node_count} nodes, {g.edge_count} edges,"
                     f" {'acyclic' if gd['acyclic'] else 'cyclic'}")
        for node in gd["nodes"]:
            label = " ".join(node["labels"]) or "-"
            lines.append(f"  n{node['id']} [{label}] {node['text']}")
        for i2, j2, c in gd["edges"]:
            lines.append(f"  n{i2} -- n{j2} on {c}")
    _emit(args, "ok", {"graphs": data}, lines)
    return 0


def _cmd_transparent(args) -> int:
    src = _load(args.file)
    v = depgraph.is_transparent(src.gamma, src.process)
    data: dict = {"reason": v.reason, "detail": v.detail}
    lines = [v.verdict]
    if v.cycle is not None:  # with the sub-term it lies in
        names = display_names(src.process)
        chans = [names.get(c, c.base) for c in v.cycle.channels]
        data["cycle"] = {"threads": list(v.cycle.nodes), "channels": chans}
        data["subterm"] = print_process(v.subterm, names)
        hops = " -- ".join(f"t{n}" for n in v.cycle.nodes)
        lines.append(f"  cycle: {hops} -- t{v.cycle.nodes[0]}"
                     f" via {', '.join(chans)}")
        lines.append(f"  in sub-term: {data['subterm']}")
    if v.reason == "ill-typed":
        lines.append(f"  {v.detail}")
    _emit(args, v.verdict, data, lines)
    return 0 if v.ok else 1


def _cmd_run(args) -> int:
    src = _load(args.file)
    if args.all:
        # the states are printed from the rows that keyed them
        table: congruence.Table = {}
        cuts: set[str] = set()
        states = [q for q, _ in semantics.explore(
            src.process, args.steps, args.max_states, table, cuts)]
        # the walk keeps the start even when the bound is 0
        shown = congruence.print_states(states[:args.max_states], table)
        data: dict = {"states": shown}
        lines = ([f"{len(shown)} states within {args.steps} steps:"]
                 + [f"  {s}" for s in shown])
        if "max-states" in cuts or len(shown) < len(states):
            data["bound_hit"] = True
            lines.append("  (state bound hit; raise --max-states to"
                         " explore further)")
        _emit(args, "ok", data, lines)
    else:
        t = semantics.trace(src.process, args.steps, seed=args.seed)
        # each state is printed once, for the form that is output
        if getattr(args, "json", False):
            _emit(args, "ok", {"trace": semantics.trace_records(t)}, [])
        else:
            _emit(args, "ok", {}, semantics.trace_lines(t))
    return 0


def _cmd_inhabit(args) -> int:
    try:
        tags, texts, _ = surface.tokenize(args.chan)
    except surface.ParseError:
        tags = texts = []
    if (args.chan.startswith("#")
            or list(zip(tags, texts)) != [(surface.IDENT, args.chan),
                                          (surface.EOF, "")]):
        raise ValueError(
            f"--chan must be one channel name, not {args.chan!r}")
    a = surface.parse_type(args.type)
    k = sx.chan(args.chan)
    p, ext = progress.inhabit(a, k)
    shown_ext = {name: print_type(s) for name, s in ext.items()}
    lines = [print_process(p)]
    for name, s in sorted(shown_ext.items()):
        lines.append(f"  with service {name} : {s}")
    _emit(args, "ok", {"process": print_process(p), "extension": shown_ext},
          lines)
    return 0


def _cmd_progress(args) -> int:
    src = _load(args.file)
    try:
        r = progress.check_progress(src.gamma, src.process, depth=args.depth,
                                    subset_budget=args.subset_budget,
                                    max_states=args.max_states)
    except typecheck.TypingError as e:
        _emit(args, "ill-typed", {"error": str(e)}, [f"ill-typed: {e}"])
        return 1
    data: dict = {"reason": r.reason, "states_seen": r.states_seen,
                  "bound_hit": r.bound_hit}
    lines = [f"{r.verdict}: {r.reason}"]
    if r.verdict == "counterexample":
        names = display_names(r.state)
        data["state"] = print_process(r.state, names)
        data["cut"] = [print_process(t, names) for t in r.cut]
        data["failed"] = r.failed
        if r.partner is not None:
            data["partner"] = print_process(r.partner, names)
        lines.append(f"  state: {data['state']}")
        lines.append(f"  stuck decomposition: {' | '.join(data['cut'])}")
        if r.partner is not None:
            lines.append(f"  best partner tried: {data['partner']}")
    if r.bound_hit:
        lines.append("  (search bound hit; raise --depth, --subset-budget"
                     " or --max-states to search further)")
    _emit(args, r.verdict, data, lines)
    return 1 if r.verdict == "counterexample" else 0


def _cmd_selftest(args) -> int:
    rows = examples.selftest()
    bad = [r for r in rows if not r[1]]
    lines = [f"{'ok  ' if ok else 'FAIL'} {name}" + ("" if ok else f"  ({d})")
             for name, ok, d in rows]
    lines.append(f"{len(rows) - len(bad)}/{len(rows)} checks passed")
    _emit(args, "pass" if not bad else "fail",
          {"checks": [{"name": n, "ok": ok, "detail": d if not ok else ""}
                      for n, ok, d in rows]},
          lines)
    return 0 if not bad else 1


def _bound(text: str) -> int:
    """A step, depth, budget or state bound: a whole number, at least 0."""
    try:
        n = int(text)
    except ValueError:  # the message argparse gives for type=int
        raise argparse.ArgumentTypeError(
            f"invalid int value: {text!r}") from None
    if n < 0:
        raise argparse.ArgumentTypeError(f"must not be negative: {n}")
    return n


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and kept for the process
    like a compiled regex: parsing makes a new namespace per call and
    leaves the parser as it was."""
    # SUPPRESS keeps a subcommand's unset flag from clobbering a --json
    # given before the subcommand name
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--json", action="store_true",
                        default=argparse.SUPPRESS,
                        help="one JSON record per line")

    ap = argparse.ArgumentParser(
        prog="sessionpi", parents=[shared],
        description="Session-typed pi calculus: typechecking, dependency"
                    " graphs, transparency, reduction, and progress.")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", parents=[shared],
                       help="typecheck and print the session environment")
    p.add_argument("file")
    p.add_argument("--relax-services", action="store_true",
                   help="let service bodies use sessions opened outside")
    p.set_defaults(fn=_cmd_check)

    p = sub.add_parser("graph", parents=[shared],
                       help="session dependency graphs")
    p.add_argument("file")
    p.add_argument("--dot", metavar="OUT",
                   help="write DOT to OUT ('-' for stdout)")
    p.add_argument("--all-subterms", action="store_true",
                   help="one graph per maximal parallel sub-term")
    p.set_defaults(fn=_cmd_graph)

    p = sub.add_parser("transparent", parents=[shared],
                       help="acyclicity of every sub-term's graph")
    p.add_argument("file")
    p.set_defaults(fn=_cmd_transparent)

    p = sub.add_parser("run", parents=[shared], help="reduce the process")
    p.add_argument("file")
    p.add_argument("--steps", type=_bound, default=100, metavar="N")
    g = p.add_mutually_exclusive_group()
    g.add_argument("--seed", type=int, default=None, metavar="S",
                   help="random trace from this seed (default: first redex)")
    g.add_argument("--all", action="store_true",
                   help="every reachable state instead of one trace")
    p.add_argument("--max-states", type=_bound, default=2000, metavar="N",
                   help="with --all, stop after N distinct states")
    p.set_defaults(fn=_cmd_run)

    p = sub.add_parser("inhabit", parents=[shared],
                       help="canonical process for a session type")
    p.add_argument("type")
    p.add_argument("--chan", default="k", metavar="K",
                   help="channel the process runs on (default k)")
    p.set_defaults(fn=_cmd_inhabit)

    p = sub.add_parser("progress", parents=[shared],
                       help="certify progress or search for a refutation")
    p.add_argument("file")
    p.add_argument("--depth", type=_bound, default=10, metavar="N")
    p.add_argument("--subset-budget", type=_bound, default=512, metavar="B")
    p.add_argument("--max-states", type=_bound, default=2000, metavar="N")
    p.set_defaults(fn=_cmd_progress)

    p = sub.add_parser("selftest", parents=[shared],
                       help="re-derive the bundled examples' verdicts")
    p.set_defaults(fn=_cmd_selftest)
    return ap


def main(argv: list[str] | None = None) -> int:
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(100_000)
    try:
        return _main(argv)
    finally:
        sys.setrecursionlimit(limit)


def _main(argv: list[str] | None) -> int:
    ap = _parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as e:
        return 2 if e.code not in (0, None) else 0
    try:
        return args.fn(args)
    except (surface.ParseError, OSError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except RecursionError:
        print("error: input nested too deeply", file=sys.stderr)
        return 2
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
