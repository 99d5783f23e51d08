"""Self-check of the benchmark, in seconds.

    python3 bench/selfcheck.py

For each workload: generates small inputs from two seeds, asserts that
equal seeds give byte-identical files and different seeds different
ones, runs every oracle once on both sets, and asserts that two traced
passes give identical call counts (the program is deterministic).
Exits 1 with a message on the first violation.
"""
from __future__ import annotations

import shutil
import sys

import gen
import run
from spans import Tracer

SCALE = {"certify": 0.1, "simulate": 0.1, "refute": 0.2}


def _traced_calls(wl: run.Workload, work) -> dict[str, int]:
    tracer = Tracer()
    tracer.install()
    try:
        run.run_ops(wl, work, run.Tally([]))
    finally:
        tracer.uninstall()
    return {fn: row["calls"] for fn, row in tracer.summary().items()}


def main() -> int:
    sys.path.insert(0, str(run.ROOT / "src"))
    run.import_cli()
    where = run.WORK / "selfcheck"
    shutil.rmtree(where, ignore_errors=True)
    problems: list[str] = []
    try:
        for name, make in gen.GENERATORS.items():
            wl, scale = run.WORKLOADS[name], SCALE[name]
            a, again, b = make(1, scale), make(1, scale), make(2, scale)
            if [c.text for c in a] != [c.text for c in again]:
                problems.append(f"{name}: seed 1 gave two different input sets")
            if [c.text for c in a] == [c.text for c in b]:
                problems.append(f"{name}: seeds 1 and 2 gave the same inputs")
            for seed, cases in ((1, a), (2, b)):
                work = run.write_inputs(cases, where / f"{name}-{seed}")
                tally = run.Tally([])
                run.run_ops(wl, work, tally)
                if tally.failed:
                    problems.append(f"{name} seed {seed}: {tally.failed} of"
                                    f" {tally.attempted} operations failed")
            first = _traced_calls(wl, work)
            if first != _traced_calls(wl, work):
                problems.append(f"{name}: two traced passes counted"
                                " different calls")
            print(f"{name}: {len(a) + len(b)} files checked,"
                  f" {sum(first.values())} traced calls per pass")
    finally:
        shutil.rmtree(where, ignore_errors=True)
    for p in problems:
        print(f"FAIL {p}", file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main())
