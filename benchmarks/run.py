"""Run the rainproto benchmark.

    python3 benchmarks/run.py --workload desk-train --seed 1 --seconds 20 --trace 0
    python3 benchmarks/run.py            # every workload, one process each

A single-workload run prints, as its last line of standard output, one JSON
object: whether every check passed, how many operations were attempted and
failed, and the end-to-end metrics (``--trace 0``) or the per-layer metrics
(``--trace 1``), each with its unit as BENCHMARK.json names it. Check results
go to standard error. Results and traces are written under benchmarks/out/.
The program is imported from src/ of the checkout this file sits in.
"""

from __future__ import annotations

import os

# BLAS runs on one thread, as the rainproto CLI sets it, before numpy loads.
for _var in ("RSPU_THREADS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
WORKLOAD_NAMES = ("desk-train", "paper-derain", "paper-train")


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=(*WORKLOAD_NAMES, "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None, help="run length (default: BENCHMARK.json's)")
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    return parser.parse_args(argv)


def _spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def run_one(args, spec) -> int:
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "rainproto", "__init__.py")):
        print(f"error: no rainproto sources under {src}", file=sys.stderr)
        return 2
    start = time.perf_counter()
    sys.path[:0] = [src, HERE]
    import numpy  # noqa: F401  (timed as part of set-up)

    import rainproto
    import tracing
    import workloads

    import_s = time.perf_counter() - start
    if not os.path.abspath(rainproto.__file__).startswith(src + os.sep):
        print(f"error: rainproto was imported from {rainproto.__file__}, not {src}", file=sys.stderr)
        return 2

    os.makedirs(OUT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"work-{args.workload}-", dir=OUT)
    tracer = tracing.Tracer() if args.trace else None
    run = workloads.Run(args.seed, args.seconds, tracer, workdir)
    try:
        if tracer:
            tracer.install()
        try:
            measured = workloads.WORKLOADS[args.workload](run)
        finally:
            if tracer:
                tracer.uninstall()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    correct = workloads.report_checks(run)
    run.info["op_ms.p50"] = statistics.median(measured["op_ms"])

    values = dict(measured["end_to_end"])
    values["setup_s"] += import_s
    stem = os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    if tracer:
        layer = tracing.layer_metrics(tracer, measured["phases"], measured["peak_mb"])
        tracer.write(stem + ".spans.jsonl", {"end_to_end": values, "per_layer": layer, "info": run.info})
        values = layer
    group = "per_layer" if args.trace else "end_to_end"
    result = {
        "correct": correct,
        "attempted": int(measured["attempted"]),
        "failed": run.failed,
        "metrics": {m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]} for m in spec[group]},
    }
    for name, value in run.info.items():
        print(f"info  {name} = {value:.6g}", file=sys.stderr)
    with open(stem + ".result.json", "w") as fh:
        json.dump({**result, "info": run.info, "op_ms": measured["op_ms"]}, fh)
    print(json.dumps(result))
    return 0


def run_all(args, spec) -> int:
    """Each workload in its own process; prints every metric by name and unit."""
    correct, attempted, failed, metrics = True, 0, 0, {}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"error: workload {name} exited with {proc.returncode}", file=sys.stderr)
            return proc.returncode or 1
        result = json.loads(lines[-1])
        correct &= result["correct"]
        attempted += result["attempted"]
        failed += result["failed"]
        for metric, entry in result["metrics"].items():
            print(f"{name:14s} {metric:30s} {entry['value']:14.6g} {entry['unit']}")
            metrics[f"{name}/{metric}"] = entry
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


def main(argv=None) -> int:
    args = _parse(argv)
    spec = _spec()
    if args.seconds is None:
        args.seconds = float(spec["run_seconds"])
    return run_all(args, spec) if args.workload == "all" else run_one(args, spec)


if __name__ == "__main__":
    sys.exit(main())
