"""Runs the passes of one workload in a fresh process and reports them.

Each call goes through ``gramprof.cli.main(argv)``, one after another,
with stdout captured to a file. Passes repeat until ``--seconds`` have
been measured. With ``--trace 1`` untraced and traced passes alternate,
so the tracing overhead is measured in the same run. The result (per
call wall times and exit codes, per pass output hashes, peak RSS and
the traced passes' layer metrics) is written as JSON to ``--result``;
spans go to ``spans.tsv.gz`` in the output directory.

Usage: python3 bench/worker.py --workload W --inputs DIR --out DIR
       --seconds S --trace 0|1 --result FILE
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import gzip
import hashlib
import json
import resource
import sys
import time
import traceback
from pathlib import Path

from gramprof import cli

import spans
import workloads


def sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as f:
        for block in iter(lambda: f.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def run_call(call: workloads.Call, out: Path, rec: spans.Recorder | None):
    """One CLI invocation; returns (wall seconds, exit code)."""
    with open(out / call.stdout, "w", encoding="utf-8") as sink, \
            contextlib.redirect_stdout(sink):
        root = rec.open(rec.name_id(f"cli.{call.command}")) if rec else -1
        start = time.perf_counter()
        try:
            code = cli.main(list(call.argv))
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception:
            traceback.print_exc()
            code = -1
        elapsed = time.perf_counter() - start
        if rec:
            rec.close(root)
            rec.labels[root] = call.label
    return elapsed, code


def run_pass(calls, out: Path, rec: spans.Recorder | None) -> dict:
    gc.collect()
    timings = []
    if rec:
        with spans.traced(rec):
            for call in calls:
                timings.append((call.label, *run_call(call, out, rec)))
    else:
        for call in calls:
            timings.append((call.label, *run_call(call, out, None)))
    hashes = {name: sha256(out / name)
              for call in calls for name in (call.stdout, *call.outputs)
              if (out / name).exists()}
    return {"traced": rec is not None,
            "seconds": sum(t for _, t, _ in timings),
            "calls": timings,
            "hashes": hashes}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--inputs", required=True, type=Path)
    parser.add_argument("--out", required=True, type=Path)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--result", required=True, type=Path)
    args = parser.parse_args(argv)

    with open(args.inputs / "truth.json", encoding="utf-8") as f:
        truth = json.load(f)
    calls = workloads.calls(args.workload, args.inputs.resolve(), args.out.resolve(), truth)
    passes, layer_metrics, recorders = [], [], []
    deadline = time.perf_counter() + args.seconds
    while True:
        traced = bool(args.trace) and len(passes) % 2 == 1
        rec = spans.Recorder(run_id=len(passes)) if traced else None
        passes.append(run_pass(calls, args.out, rec))
        if rec:
            recorders.append(rec)
            layer_metrics.append(spans.pass_metrics(rec))
        enough = len(passes) >= (2 if args.trace else 1)
        # start another pass only while at least half of it fits
        if enough and time.perf_counter() + passes[-1]["seconds"] / 2 > deadline:
            break

    if recorders:
        with gzip.open(args.out / "spans.tsv.gz", "wt", encoding="utf-8",
                       compresslevel=1) as f:
            f.write("run\tspan\tparent\tname\tstart\tend\n")
            for rec in recorders:
                rec.write(f)
    result = {
        "passes": passes,
        "layer_metrics": layer_metrics,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    with open(args.result, "w", encoding="utf-8") as f:
        json.dump(result, f)
    return 0


if __name__ == "__main__":
    sys.exit(main())
