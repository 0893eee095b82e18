"""gramprof benchmark: drives the gramprof CLI on generated inputs.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; gramprof is imported from
``src/``. Inputs are generated from the seed in a separate process and
cached under ``bench/.work/inputs``. The timed calls run in a fresh
worker process (a closed loop with one client). Human-readable lines
come first; the last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. ``--trace 0``
reports the end-to-end metrics, ``--trace 1`` the per-layer metrics of
a traced run. ``--workload all`` runs every workload in turn.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path
from statistics import median

import checks
import gen
import spans
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / ".work"
SETUP_SAMPLES = 5
IMPORTTIME_SAMPLES = 3
CACHED_INPUTS_PER_WORKLOAD = 3
SUBPROCESS_TIMEOUT = 150

IMPORT_PROBE = ("import time; start = time.perf_counter(); import gramprof; "
                "print(time.perf_counter() - start)")

# reported for the workloads they apply to, in the human-readable lines
STAGE_UNITS = {"extract_tok_per_s": "tok/s", "score_s": "s", "classify_s": "s",
               "analyze_s": "s", "failed_frac": "ratio", "graded_spearman": "rho",
               "binary_macro_f1": "F1"}


def unit_of(name: str) -> str:
    for suffix, unit in ((".tok_per_s", "tok/s"), ("_s", "s"), (".s", "s"),
                         (".bytes", "bytes"), ("_ratio", "ratio")):
        if name.endswith(suffix):
            return unit
    return "us/word" if ".us_per_word." in name else "count"


def python_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def run_python(args, **kwargs) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, *args], env=python_env(),
                          timeout=SUBPROCESS_TIMEOUT, **kwargs)


def ensure_inputs(workload: str, seed: int) -> Path:
    """Generated inputs for (workload, seed, generator version), made
    once in a separate process and cached."""
    cache = WORK / "inputs"
    target = cache / f"{workload}-seed{seed}-gen{gen.GEN_VERSION}"
    if (target / "truth.json").is_file():
        return target
    staging = cache / f".{target.name}.{os.getpid()}"
    shutil.rmtree(staging, ignore_errors=True)
    run_python([str(BENCH / "gen.py"), "--workload", workload, "--seed", str(seed),
                "--out", str(staging)], check=True)
    shutil.rmtree(target, ignore_errors=True)
    staging.rename(target)
    entries = sorted(cache.glob(f"{workload}-seed*"), key=lambda p: p.stat().st_mtime)
    for old in entries[:-CACHED_INPUTS_PER_WORKLOAD]:
        if old != target:
            shutil.rmtree(old, ignore_errors=True)
    return target


def import_seconds() -> float:
    """Wall time of ``import gramprof`` in a fresh interpreter."""
    done = run_python(["-c", IMPORT_PROBE], check=True, capture_output=True, text=True)
    return float(done.stdout)


def scipy_stats_seconds() -> float:
    """Cumulative import time of scipy.stats under ``-X importtime``."""
    done = run_python(["-X", "importtime", "-c", "import gramprof"], check=True,
                      capture_output=True, text=True)
    for line in done.stderr.splitlines():
        fields = line.split("|")
        if len(fields) == 3 and fields[2].strip() == "scipy.stats":
            return int(fields[1]) / 1e6
    return 0.0


def run_worker(workload, inputs, out, seconds, trace) -> dict:
    result = out / "worker.json"
    with open(out / "worker.log", "w", encoding="utf-8") as log:
        run_python([str(BENCH / "worker.py"), "--workload", workload, "--inputs", str(inputs),
                    "--out", str(out), "--seconds", str(seconds), "--trace", str(trace),
                    "--result", str(result)], check=True, stdout=log, stderr=log)
    with open(result, encoding="utf-8") as f:
        return json.load(f)


def stage_seconds(passes, prefix: str = "") -> float:
    """Sum over the calls whose label starts with ``prefix`` of each
    call's median wall time across passes. A slow spell of the machine
    during one pass then moves no call's median."""
    labels = [label for label, _, _ in passes[0]["calls"]]
    return sum(median(p["calls"][i][1] for p in passes)
               for i, label in enumerate(labels) if label.startswith(prefix))


def prepare_store(workload, inputs, out, truth) -> list[str]:
    """Untimed preparation of rescore-sweep: the store it re-scores,
    extracted in a separate process and checked like any store."""
    call = workloads.extract_call(workload, inputs, out)
    with open(out / call.stdout, "w", encoding="utf-8") as sink:
        done = run_python(["-m", "gramprof", *call.argv], stdout=sink,
                          stderr=subprocess.DEVNULL)
    if done.returncode:
        return [f"exit code {done.returncode}"]
    return checks.check_store(out / "store.jsonl", truth)


def check_outputs(workload, inputs, out, truth) -> tuple[dict, dict]:
    """Problems per call label, plus the quality figures of evaluate."""
    if workload == "rescore-sweep":
        return checks.check_rescore(out, inputs, truth, workloads.timeline_word(truth))
    return {"extract": checks.check_store(out / "store.jsonl", truth)
            + checks.check_extract_report(out / "extract.out", truth)}, {}


def count_failed(passes, calls, problems) -> int:
    """Calls that exited non-zero, failed a check, or wrote other bytes
    than the checked (last) pass."""
    final = passes[-1]["hashes"]
    failed = 0
    for p in passes:
        for label, _, code in p["calls"]:
            files = (calls[label].stdout, *calls[label].outputs)
            changed = any(p["hashes"].get(f) != final.get(f) for f in files)
            failed += bool(code or problems.get(label) or changed)
    return failed


def layer_metrics(result, truth, workload, samples, pipeline_s) -> tuple[dict, list]:
    """Per-layer metrics of a traced run and the problems found in them."""
    metrics, unsteady = spans.combine_passes(result["layer_metrics"])
    problems = [f"count {name} differs between traced passes" for name in unsteady]
    for per_pass in result["layer_metrics"]:
        if abs(per_pass["trace.self_sum_s"] - per_pass["trace.pipeline_s"]) > 1e-6:
            problems.append("layer self times do not add up to the traced pipeline")
    if workload != "rescore-sweep":
        for name, key in (("conllu.tokens", "tokens"), ("conllu.sentences", "sentences"),
                          ("conllu.malformed_lines", "malformed")):
            if metrics[name] != sum(truth[key].values()):
                problems.append(f"{name} {metrics[name]} != generator's "
                                f"{sum(truth[key].values())}")
    del metrics["trace.self_sum_s"]
    traced = [p for p in result["passes"] if p["traced"]]
    metrics["import.scipy_stats_s"] = median(samples)
    metrics["trace.overhead_s"] = stage_seconds(traced) - pipeline_s
    return metrics, problems


def run_workload(workload: str, seed: int, seconds: float, trace: int) -> dict:
    inputs = ensure_inputs(workload, seed)
    with open(inputs / "truth.json", encoding="utf-8") as f:
        truth = json.load(f)
    out = WORK / "out" / workload
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    attempted = failed = 0
    run_problems: list[str] = []
    if workload == "rescore-sweep":
        prep_problems = prepare_store(workload, inputs, out, truth)
        attempted, failed = 1, int(bool(prep_problems))
        run_problems += [f"prepare store: {p}" for p in prep_problems]

    if trace:
        samples = [scipy_stats_seconds() for _ in range(IMPORTTIME_SAMPLES)]
    else:
        samples = [import_seconds() for _ in range(SETUP_SAMPLES)]
    result = run_worker(workload, inputs, out, seconds, trace)
    passes = result["passes"]
    calls = {c.label: c for c in workloads.calls(workload, inputs, out, truth)}
    attempted += sum(len(p["calls"]) for p in passes)
    try:
        problems, quality = check_outputs(workload, inputs, out, truth)
        failed += count_failed(passes, calls, problems)
    except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
        # unreadable or malformed output: every call of the run counts as failed
        problems, quality = {"outputs": [f"check crashed: {exc!r}"]}, {}
        failed = attempted
    run_problems += [f"{label}: {p}" for label, found in problems.items() for p in found]

    untimed = [p for p in passes if not p["traced"]]
    pipeline_s = stage_seconds(untimed)
    report = {"pipeline_s": pipeline_s, "failed_frac": failed / attempted}
    if workload == "rescore-sweep":
        for stage in ("score", "classify", "analyze"):
            report[f"{stage}_s"] = stage_seconds(untimed, stage + ".")
        report.update(quality)
    else:
        tokens = sum(truth["tokens"].values())
        report["extract_tok_per_s"] = tokens / stage_seconds(untimed, "extract")

    if trace:
        metrics, found = layer_metrics(result, truth, workload, samples, pipeline_s)
        run_problems += found
        reported = {name: (value, unit_of(name)) for name, value in metrics.items()}
    else:
        reported = {"setup_s": (median(samples), "s"),
                    "pipeline_s": (pipeline_s, "s"),
                    "peak_rss_mb": (result["peak_rss_kb"] / 1024, "MB")}

    summary = {
        "workload": workload, "seed": seed, "trace": trace,
        "cores": os.cpu_count(), "usable_cores": len(os.sched_getaffinity(0)),
        "passes": len(untimed), "traced_passes": len(passes) - len(untimed),
        "samples": samples, "attempted": attempted, "failed": failed,
        "problems": run_problems, "report": report,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in reported.items()},
        "sha256": passes[-1]["hashes"],
    }
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    with open(results / f"{workload}-seed{seed}-trace{trace}.json", "w",
              encoding="utf-8") as f:
        json.dump(summary, f, indent=1, sort_keys=True)
    print_summary(summary)
    return summary


def print_summary(s: dict) -> None:
    print(f"== {s['workload']} seed={s['seed']} trace={s['trace']} cores={s['cores']} "
          f"(usable {s['usable_cores']}) passes={s['passes']} "
          f"traced_passes={s['traced_passes']}")
    for name, value in s["report"].items():
        if name not in s["metrics"]:
            print(f"  {name:<56} {value:>16.6g} {STAGE_UNITS.get(name, 's')}")
    for name, m in s["metrics"].items():
        print(f"  {name:<56} {m['value']:>16.6g} {m['unit']}")
    for name, digest in sorted(s["sha256"].items()):
        print(f"  sha256 {name:<32} {digest}")
    for problem in s["problems"]:
        print(f"  CHECK FAILED {problem}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if not (SRC / "gramprof" / "__init__.py").is_file():
        print(f"error: no gramprof sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    names = workloads.WORKLOADS if args.workload == "all" else [args.workload]
    summaries = [run_workload(w, args.seed, args.seconds, args.trace) for w in names]
    metrics = summaries[0]["metrics"] if len(summaries) == 1 else {
        f"{s['workload']}.{name}": m for s in summaries for name, m in s["metrics"].items()}
    print(json.dumps({
        "correct": all(not s["problems"] for s in summaries),
        "attempted": sum(s["attempted"] for s in summaries),
        "failed": sum(s["failed"] for s in summaries),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
