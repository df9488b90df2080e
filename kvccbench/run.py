"""The k-VCC pipeline benchmark: one command per workload.

    python3 kvccbench/run.py --workload enumerate --seed 1 --seconds 25 --trace 0

Run from the repository root.  The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``
(every end-to-end metric with ``--trace 0``, every per-layer metric
with ``--trace 1``; each workload reports them all).  The line before
it is a JSON report of the environment, the calibration loop, sample
counts, the exact counters and the workload's own figures.  The exit
code is 0 only when every check passed.  See ``kvccbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("enumerate", "build", "serve")


class Context:
    """What every workload gets: arguments, directories, the report."""

    def __init__(self, args: argparse.Namespace, work: Path) -> None:
        import envinfo

        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        #: Metric name -> unit, as BENCHMARK.json declares them.
        self.units = {m["name"]: m["unit"]
                      for m in spec["end_to_end"] + spec["per_layer"]}
        #: The metrics this run must report: every workload reports
        #: every end-to-end metric, or with --trace 1 every per-layer one.
        self.declared = [m["name"] for m in
                         spec["per_layer" if args.trace else "end_to_end"]]
        self.seed: int = args.seed
        self.seconds: float = args.seconds
        self.trace: bool = bool(args.trace)
        self.root = ROOT
        self.work = work
        self.persist = ROOT / ".bench_work"
        self.calibration = envinfo.Calibration()
        self.report: dict = {}
        self.metrics: dict = {}
        self.attempted = 0
        self.failed = 0
        self.problems: list = []

    def metric(self, name: str, value: float) -> None:
        self.metrics[name] = {"value": value, "unit": self.units[name]}

    def check(self, ok: bool, what: str) -> bool:
        """Count one checked operation; remember what failed."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.append(what)
        return ok

    def trace_path(self, workload: str) -> Path:
        out = self.persist / "traces"
        out.mkdir(parents=True, exist_ok=True)
        return out / f"{workload}-seed{self.seed}.json"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program to measure under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    work = ROOT / ".bench_work" / f"run-{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    # Every cache the program keeps stays inside the checkout.
    os.environ["REPRO_CACHE_DIR"] = str(work / "cache")
    try:
        import envinfo

        ctx = Context(args, work)
        module = __import__(f"wl_{args.workload}")
        started = time.perf_counter()
        module.run(ctx)
        if set(ctx.metrics) != set(ctx.declared):
            raise RuntimeError(
                f"{args.workload} reported {sorted(ctx.metrics)}, "
                f"BENCHMARK.json declares {sorted(ctx.declared)}")
        ctx.report["wall_s"] = time.perf_counter() - started
        ctx.report["environment"] = envinfo.environment(ROOT, args.seed)
        ctx.report["calibration"] = ctx.calibration.report()
        if ctx.problems:
            ctx.report["problems"] = ctx.problems
    finally:
        shutil.rmtree(work, ignore_errors=True)
    correct = ctx.failed == 0 and ctx.attempted > 0
    print(json.dumps({"report": ctx.report}, sort_keys=True))
    print(json.dumps({
        "correct": correct,
        "attempted": ctx.attempted,
        "failed": ctx.failed,
        "metrics": ctx.metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
