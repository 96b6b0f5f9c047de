"""jchsim benchmark: CLI workloads timed end to end, with a traced run per layer.

Usage (from the repository root):

    python3 bench/run.py --workload {figures,sweep,oracle} --seed N --seconds S --trace {0,1}

Each operation runs one ``jchsim`` command in a fresh interpreter (see
child.py), one at a time, then checks its artifacts against an eigh-based
reference (see checks.py).  Whole rounds of the workload's operations repeat
while the next round still fits in ``--seconds``.  The last line of standard
output is one JSON object: correct, attempted, failed and metrics.

With --trace 0 the metrics are end to end, from medians over the rounds.
With --trace 1 untraced and traced rounds alternate; the metrics are the
per-layer means of the traced rounds and the tracing overhead.
"""

import os

# one BLAS thread for the commands and for the checks, set before numpy loads
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import checks
import spans
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
TRACES = BENCH / "traces"
COMMAND_TIMEOUT_S = 150
# import-only runs before the rounds; setup_s is the median of these and the commands' imports
IMPORT_PROBES = 8


class Run:
    """Launches the commands of one benchmark run and counts their outcomes."""

    def __init__(self):
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        self.env.pop("PYTHONDONTWRITEBYTECODE", None)
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.imports = []

    def child(self, record_path, args):
        """Run child.py; returns its record, or None with the failure reported."""
        record_path.parent.mkdir(parents=True, exist_ok=True)
        record_path.unlink(missing_ok=True)
        command = [sys.executable, str(BENCH / "child.py"), str(record_path), *args]
        try:
            proc = subprocess.run(command, env=self.env, cwd=ROOT, stdout=subprocess.DEVNULL,
                                  stderr=subprocess.PIPE, text=True, timeout=COMMAND_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            print(f"{args}: timed out after {COMMAND_TIMEOUT_S} s", file=sys.stderr)
            return None
        if proc.returncode != 0 or not record_path.is_file():
            print(f"{args}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            return None
        return json.loads(record_path.read_text(encoding="utf-8"))

    def import_probes(self, count, record_dir):
        """Time ``count`` imports of jchsim.cli; False if one fails."""
        for k in range(count):
            record = self.child(record_dir / f"import{k}.json", ["0"])
            if record is None:
                return False
            self.imports.append(record["import_s"])
        return True

    def round(self, ops, trace, record_dir):
        """Run and check every op once; the records, None where the command failed."""
        records = []
        for op in ops:
            self.attempted += 1
            shutil.rmtree(op.out, ignore_errors=True)
            record = self.child(record_dir / f"{op.name}.json",
                                ["1" if trace else "0", "--", *op.argv])
            records.append(record)
            if record is None:
                self.failed += 1
                continue
            self.imports.append(record["import_s"])
            try:
                op.check()
            except checks.CheckFailed as exc:
                self.correct = False
                print(f"{op.name}: check failed: {exc}", file=sys.stderr)
            except Exception:  # an artifact the checks cannot even read
                self.correct = False
                print(f"{op.name}: check failed:\n{traceback.format_exc()}", file=sys.stderr)
        return records


def end_to_end(rounds, imports):
    """wall_s sums each command's median over the rounds; peak_rss_mb is the largest median."""
    per_op = [[r for r in op if r is not None] for op in zip(*rounds)]
    per_op = [records for records in per_op if records]
    return {
        "wall_s": {"value": sum(statistics.median(r["wall_s"] for r in op) for op in per_op),
                   "unit": "s"},
        "setup_s": {"value": statistics.median(imports), "unit": "s"},
        "peak_rss_mb": {"value": max(statistics.median(r["maxrss_kb"] for r in op)
                                     for op in per_op) / 1024.0, "unit": "MB"},
    }


def per_layer(untraced, traced):
    """Means over the traced rounds of each layer metric, and the tracing overhead."""
    totals = dict.fromkeys(spans.METRICS, 0.0)
    for records in traced:
        layers = [spans.layer_metrics(r["spans"]) for r in records if r is not None]
        for name in spans.METRICS:
            values = [m[name] for m in layers]
            totals[name] += max(values, default=0) if name.endswith("_max") else sum(values)
    metrics = {name: {"value": totals[name] / len(traced), "unit": spans.unit(name)}
               for name in spans.METRICS}

    def mean_wall(rounds):
        return statistics.fmean(sum(r["wall_s"] for r in rs if r is not None) for rs in rounds)

    traced_wall = mean_wall(traced)
    self_total = sum(metrics[m]["value"] for m in set(spans.SELF_TIME.values()))
    metrics["trace.wall_s"] = {"value": traced_wall, "unit": "s"}
    metrics["trace.overhead_s"] = {"value": traced_wall - mean_wall(untraced), "unit": "s"}
    metrics["trace.unaccounted_s"] = {"value": traced_wall - self_total, "unit": "s"}
    return metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "jchsim" / "cli.py").is_file():
        print(f"error: no jchsim sources under {SRC}", file=sys.stderr)
        return 2

    out, traces = OUT / args.workload, TRACES / args.workload
    for path in (out, traces):
        shutil.rmtree(path, ignore_errors=True)
    ops = workloads.build(args.workload, args.seed, out)
    run = Run()
    # the first import compiles and caches the bytecode, as an installed package has it
    if not run.import_probes(1, out / "records"):
        return 2
    run.imports.clear()
    if not run.import_probes(IMPORT_PROBES, out / "records"):
        return 2

    untraced, traced = [], []
    deadline = time.perf_counter() + args.seconds
    longest = 0.0
    while True:
        began = time.perf_counter()
        untraced.append(run.round(ops, False, out / "records"))
        if args.trace:
            traced.append(run.round(ops, True, traces))
        took = time.perf_counter() - began
        longest = max(longest, took)
        walls = [round(r["wall_s"], 3) for r in untraced[-1] if r is not None]
        print(f"round {len(untraced)}: {took:.2f} s, wall_s {walls}", file=sys.stderr)
        if time.perf_counter() + longest > deadline:
            break
    if run.failed == run.attempted:
        print("error: every operation failed", file=sys.stderr)
        return 1
    metrics = per_layer(untraced, traced) if args.trace else end_to_end(untraced, run.imports)
    print(json.dumps({"correct": run.correct, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
