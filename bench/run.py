"""Benchmark of the sessionpi CLI on generated inputs.

    python3 bench/run.py --workload certify --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout: the program is imported from
`src/`.  One process, one thread, one client in a closed loop: each
operation calls `sessionpi.cli.main` in-process with `--json`, the way a
user calls the CLI, and the next starts when it returns.  A run does a
fixed number of whole rounds over a fixed, seeded set of inputs; the
round count follows from `--seconds` and the workload's nominal round
time, never from the clock, so the input mix and the tail percentile
stay put when the program gets faster.  Every output is checked against
the answer the generator derived from how the input was built.

With `--trace 0` the last line of standard output is a JSON object with
the end-to-end metrics; with `--trace 1` it holds the per-layer metrics
of a traced round (see README.md).
"""
from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import math
import random
import re
import resource
import shutil
import statistics
import sys
import traceback
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Callable

import gen
from spans import Tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = BENCH / "_work"
SETUP_REPEATS = 4
STEP_LIMIT = 1000  # `run --steps`; far above any generated trace


# ----------------------------------------------------------- oracles

def _check_certify(case: gen.Case, rcs, recs) -> str | None:
    want = case.expect
    check, graph, transp, prog = recs
    if rcs != [0, 0, 0, 0]:
        return f"exit codes {rcs}"
    if check["verdict"] != "well-typed" or check["data"]["delta"] != want["delta"]:
        return f"check: {check['verdict']} {check['data']}"
    graphs = graph["data"]["graphs"]
    if (len(graphs) != 1 or not graphs[0]["acyclic"]
            or len(graphs[0]["nodes"]) != want["nodes"]
            or len(graphs[0]["edges"]) != want["edges"]):
        return (f"graph: {[(len(g['nodes']), len(g['edges']), g['acyclic']) for g in graphs]}"
                f" expected {want['nodes']} nodes, {want['edges']} edges")
    if transp["verdict"] != "Transparent":
        return f"transparent: {transp['verdict']}"
    if prog["verdict"] != "certificate":
        return f"progress: {prog['verdict']}"
    return None


def _top_threads(text: str) -> list[str]:
    """Top-level threads of a printed state, restrictions stripped."""
    m = re.match(r"new [^.]*\. \((.*)\)$", text)
    body = m.group(1) if m else text
    out, depth, start = [], 0, 0
    for i, ch in enumerate(body):
        if ch in "({":
            depth += 1
        elif ch in ")}":
            depth -= 1
        elif ch == "|" and depth == 0:
            out.append(body[start:i].strip())
            start = i + 1
    out.append(body[start:].strip())
    return out


def _check_simulate(case: gen.Case, rcs, recs) -> str | None:
    want = case.expect
    if rcs != [0] or recs[0]["verdict"] != "ok":
        return f"run: exit {rcs}, {recs[0]['verdict']}"
    trace = recs[0]["data"]["trace"]
    steps = trace[:-1]
    if not trace[-1].get("final") or len(steps) != want["steps"]:
        return f"trace of {len(steps)} steps, expected {want['steps']}"
    if len(steps) >= STEP_LIMIT:
        return "trace stopped at the step limit"
    rules = Counter(s["rule"] for s in steps)
    if rules != Counter(want["rules"]):
        return f"rules {dict(rules)}, expected {want['rules']}"
    threads = _top_threads(trace[-1]["process"])
    served = Counter(m.group(1) if (m := re.match(r"\*(\w+)\(", t)) else t
                     for t in threads)
    if served != Counter(want["servers"]):
        return f"final state is not the servers alone: {trace[-1]['process'][:200]}"
    return None


def _check_refute(case: gen.Case, rcs, recs) -> str | None:
    want = case.expect
    rec = recs[0]
    if rcs != [want["rc"]] or rec["verdict"] != want["verdict"]:
        return f"progress: exit {rcs}, {rec['verdict']}"
    if "states_seen" in want and rec["data"]["states_seen"] != want["states_seen"]:
        return f"states_seen {rec['data']['states_seen']}, expected {want['states_seen']}"
    if "cut" in want:
        cut = " | ".join(rec["data"]["cut"])
        for c in want["cut"]:
            if not re.search(rf"\b{c}(_\d+)?\b", cut):
                return f"cut {cut!r} does not mention {c}"
    return None


# ---------------------------------------------------------- workloads

@dataclass(frozen=True)
class Workload:
    argvs: Callable[[str], list[list[str]]]  # CLI calls of one operation
    check: Callable[..., str | None]  # (case, exit codes, records) -> error
    round_s: float  # nominal seconds per round on the reference machine
    warm_scale: float  # size of the warm-up inputs


WORKLOADS = {
    "certify": Workload(
        lambda p: [["--json", c, p]
                   for c in ("check", "graph", "transparent", "progress")],
        _check_certify, 5.0, 0.15),
    "simulate": Workload(
        lambda p: [["--json", "run", "--steps", str(STEP_LIMIT), p]],
        _check_simulate, 2.1, 0.25),
    "refute": Workload(
        lambda p: [["--json", "progress", p]],
        _check_refute, 2.4, 0.5),
}


# ---------------------------------------------------------- operations

def import_cli() -> None:
    """A fresh import of the package, as a new process would do it."""
    for name in [n for n in sys.modules
                 if n == "sessionpi" or n.startswith("sessionpi.")]:
        del sys.modules[name]
    importlib.import_module("sessionpi.cli")


def _operation(argvs: list[list[str]]) -> tuple[float, list[int], list[str]]:
    """Run one operation; returns its wall time, exit codes and stdouts."""
    cli = sys.modules["sessionpi.cli"]
    rcs, outs = [], []
    t0 = perf_counter()
    for argv in argvs:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf), \
                contextlib.redirect_stderr(io.StringIO()):
            rcs.append(cli.main(argv))
        outs.append(buf.getvalue())
    return perf_counter() - t0, rcs, outs


@dataclass
class Tally:
    latencies: list[float]
    attempted: int = 0
    failed: int = 0
    states_seen: int = 0


def run_ops(wl: Workload, work: list[tuple[gen.Case, str]],
             tally: Tally) -> None:
    for case, path in work:
        tally.attempted += 1
        try:
            dt, rcs, outs = _operation(wl.argvs(path))
            recs = [json.loads(o.splitlines()[-1]) for o in outs]
            err = wl.check(case, rcs, recs)
        except Exception:  # a crash is a failed operation, not a dead run
            traceback.print_exc(file=sys.stderr)
            tally.failed += 1
            continue
        tally.latencies.append(dt)
        tally.states_seen += sum(r["data"].get("states_seen", 0) for r in recs
                                 if r["command"] == "progress")
        if err is not None:
            print(f"FAILED {case.name}: {err}", file=sys.stderr)
            tally.failed += 1


def write_inputs(cases: list[gen.Case], where: Path) -> list[tuple[gen.Case, str]]:
    where.mkdir(parents=True, exist_ok=True)
    out = []
    for c in cases:
        path = where / c.name
        path.write_text(c.text)
        out.append((c, str(path)))
    return out


def _setup(name: str, seed: int, work_dir: Path, warm: Tally):
    """Import, generate and write the inputs, then an untimed warm-up pass
    over smaller inputs of the same make-up.  Returns (seconds, inputs)."""
    wl = WORKLOADS[name]
    t0 = perf_counter()
    import_cli()
    work = write_inputs(gen.GENERATORS[name](seed), work_dir / "inputs")
    warmup = write_inputs(gen.GENERATORS[name](seed, scale=wl.warm_scale),
                    work_dir / "warmup")
    run_ops(wl, warmup, warm)
    return perf_counter() - t0, work


def _nearest_rank(sorted_xs: list[float], q: float) -> float:
    return sorted_xs[max(0, math.ceil(q * len(sorted_xs)) - 1)]


def _tail_quantile(n: int) -> float:
    """The highest quantile with at least ten of n operations beyond it;
    the median when a run has no more than ten."""
    return (n - 10) / n if n > 10 else 0.5


def _end_to_end(name: str, seed: int, seconds: int, work_dir: Path) -> dict:
    wl = WORKLOADS[name]
    rounds = max(1, round(seconds / wl.round_s))
    # set-ups spread evenly over the run sample the machine's speed over
    # the same span as the timed rounds do
    setup_before = Counter(k * rounds // SETUP_REPEATS
                           for k in range(SETUP_REPEATS))
    rng = random.Random(f"order:{seed}")
    warm, tally = Tally([]), Tally([])
    setups = []
    for r in range(rounds):
        for _ in range(setup_before[r]):
            s, work = _setup(name, seed, work_dir, warm)
            setups.append(s)
        rng.shuffle(work)
        run_ops(wl, work, tally)
    lat = sorted(tally.latencies)
    if not lat:
        raise SystemExit(f"{name}: no operation completed")
    q = _tail_quantile(len(lat))
    print(f"{name} seed {seed}: {rounds} rounds of {len(work)} files,"
          f" {tally.attempted} operations, tail = p{100 * q:.2f}",
          file=sys.stderr)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        "ops_per_s": (len(lat) / sum(lat), "1/s"),
        "latency_p50_ms": (1000.0 * _nearest_rank(lat, 0.5), "ms"),
        "latency_tail_ms": (1000.0 * _nearest_rank(lat, q), "ms"),
        "peak_rss_mb": (rss_mb, "MB"),
        "setup_s": (statistics.median(setups), "s"),
    }
    return {"correct": tally.failed == 0 and warm.failed == 0,
            "attempted": tally.attempted, "failed": tally.failed,
            "metrics": {k: {"value": v, "unit": u}
                        for k, (v, u) in metrics.items()}}


# the per-layer metrics, each normalised per operation
CALLS = ("surface.parse_source", "surface.print_process", "semantics.redexes",
         "semantics.step", "congruence.normal_form", "congruence.canonical_key",
         "typecheck.check", "depgraph.is_transparent",
         "progress.construct_partner", "syntax.free_session_channels")
SELF_MS = CALLS + ("cli.main", "depgraph.build_graph",
                   "congruence.maximal_parallel_subterms")


def _per_layer(name: str, seed: int, work_dir: Path) -> dict:
    """Every input once untraced and once traced, back to back, so that
    the tracing overhead is a difference of paired operations."""
    wl = WORKLOADS[name]
    warm = Tally([])
    _, work = _setup(name, seed, work_dir, warm)
    plain, traced = Tally([]), Tally([])
    tracer = Tracer()
    for item in work:
        run_ops(wl, [item], plain)
        tracer.install()
        try:
            run_ops(wl, [item], traced)
        finally:
            tracer.uninstall()
    tracer.write(WORK / f"trace-{name}-{seed}.jsonl.gz")

    ops = max(1, len(traced.latencies))
    rows = tracer.summary()
    metrics: dict[str, tuple[float, str]] = {}
    for fn in CALLS:
        metrics[f"{fn}.calls"] = (rows[fn]["calls"] / ops, "calls/op")
    for fn in SELF_MS:
        metrics[f"{fn}.self_ms"] = (rows[fn]["self_ms"] / ops, "ms/op")
    redexes = rows["semantics.redexes"]
    metrics["semantics.redexes.found_per_call"] = (
        redexes["found"] / redexes["calls"] if redexes["calls"] else 0.0,
        "redexes/call")
    checks = rows["typecheck.check"]["calls"]
    metrics["progress.states_seen"] = (traced.states_seen / ops, "states/op")
    metrics["progress.typechecks_per_state"] = (
        checks / traced.states_seen if traced.states_seen else 0.0,
        "checks/state")
    metrics["trace.overhead_ms"] = (
        1000.0 * (sum(traced.latencies) - sum(plain.latencies)) / ops,
        "ms/op")
    failed = traced.failed + plain.failed
    return {"correct": failed == 0 and warm.failed == 0,
            "attempted": traced.attempted + plain.attempted, "failed": failed,
            "metrics": {k: {"value": v, "unit": u}
                        for k, (v, u) in metrics.items()}}


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "sessionpi" / "cli.py").is_file():
        print(f"error: no sessionpi sources under {ROOT / 'src'};"
              " run from the root of a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    work_dir = WORK / f"{args.workload}-{args.seed}"
    shutil.rmtree(work_dir, ignore_errors=True)
    try:
        if args.trace:
            result = _per_layer(args.workload, args.seed, work_dir)
        else:
            result = _end_to_end(args.workload, args.seed, args.seconds,
                                 work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
