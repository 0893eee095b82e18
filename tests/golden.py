"""Golden outputs: the bytes the pipeline writes on fixed inputs.

Inputs are the bundled ``demos/data`` and the benchmark generator's
data (``bench/gen.py``, seed 1) for its three workloads: the full
3,000-word ``rescore-sweep`` store, and test sizes for the two
extraction workloads. On the generated data the calls are ``extract``
plus every call of ``bench/workloads.calls``, so the ``rescore-sweep``
entries equal the sha256 lines that
``bench/run.py --workload rescore-sweep --seed 1`` prints. On
``demos/data`` they are ``extract``, the seven ``score`` calls of the
benchmark and both ``analyze`` reports.

``golden/SHA256SUMS`` holds one sha256 per output file of the generated
data, and ``golden/demos/`` holds the demo outputs themselves, so that a
failure shows a readable diff. ``tests/test_outputs.py`` checks both. A
change that alters an output on purpose rewrites them with

    PYTHONPATH=src python3 tests/golden.py --update

and names every changed entry, with its reason, in CHANGES.md.

The ``analyze`` reports and ``evaluate --task graded`` print floats that
numpy and scipy compute, so the manifest records the versions it was
written with; under other versions those entries are skipped, with the
reason, instead of compared.

``--run ROOT OUT`` is the fresh-process half of the check: it repeats
the calls on the inputs under ``ROOT`` and writes their outputs under
``OUT``, so that runs under different ``PYTHONHASHSEED`` values can be
compared byte for byte.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import shutil
import sys
import tempfile
from pathlib import Path

TESTS = Path(__file__).resolve().parent
REPO = TESTS.parent
sys.path.insert(0, str(REPO / "bench"))

import gen  # noqa: E402
import workloads  # noqa: E402
from workloads import Call  # noqa: E402

from gramprof import cli  # noqa: E402

GOLDEN = TESTS / "golden"
MANIFEST = GOLDEN / "SHA256SUMS"
DEMO_EXPECTED = GOLDEN / "demos"
DEMO_DATA = REPO / "demos" / "data"

SEED = 1
SIZES = {"extract-zipf": 20_000, "extract-dense": 3_000, "rescore-sweep": None}
# outputs whose floats numpy or scipy compute
NUMERIC_OUTPUTS = ("analyze.logreg.out", "analyze.correlation.out", "evaluate.graded.out")
# the calls repeated under each PYTHONHASHSEED, per workload
HASH_SEED_LABELS = {
    "extract-dense": ("extract",),
    "rescore-sweep": ("score.explain", "score.separate-mean",
                      "analyze.logreg", "analyze.correlation"),
}


def library_versions() -> dict[str, str]:
    import numpy
    import scipy
    return {"numpy": numpy.__version__, "scipy": scipy.__version__}


def generate_inputs(root: Path) -> dict[str, dict]:
    """Write each workload's inputs to ``root/<workload>``; returns the
    generator's truth per workload."""
    return {workload: gen.generate(workload, SEED, root / workload, size)
            for workload, size in SIZES.items()}


def pipeline_calls(workload: str, inputs: Path, out: Path, truth: dict) -> list[Call]:
    calls = workloads.calls(workload, inputs, out, truth)
    if workload == "rescore-sweep":
        calls.insert(0, workloads.extract_call(workload, inputs, out))
    return calls


def demo_calls(out: Path) -> list[Call]:
    store, gold = str(out / "store.jsonl"), str(DEMO_DATA / "gold.tsv")
    calls = [Call("extract", ("extract", "-c", str(DEMO_DATA / "dataset.yml"), "-o", store),
                  "extract.out", ("store.jsonl",))]
    variants = {**workloads.SCORE_VARIANTS,
                "explain": [*workloads.SCORE_VARIANTS["combination"], "--explain"]}
    calls += [Call(f"score.{name}", ("score", store, *flags), f"score.{name}.tsv")
              for name, flags in variants.items()]
    calls += [Call(f"analyze.{report}", ("analyze", store, gold, "--report", report,
                                         "--format", "json-lines"), f"analyze.{report}.out")
              for report in ("logreg", "correlation")]
    return calls


def output_files(calls: list[Call]) -> list[str]:
    return [name for call in calls for name in (call.stdout, *call.outputs)]


def run_calls(calls: list[Call], out: Path) -> None:
    """Run each call through ``cli.main`` with stdout to its file."""
    out.mkdir(parents=True, exist_ok=True)
    for call in calls:
        with open(out / call.stdout, "w", encoding="utf-8") as sink, \
                contextlib.redirect_stdout(sink):
            code = cli.main(list(call.argv))
        if code != 0:
            raise RuntimeError(f"{call.label}: gramprof {' '.join(call.argv)} exited {code}")


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def read_manifest() -> tuple[dict[str, str], dict[str, str]]:
    """(library versions, sha256 per ``<workload>/<file>``)."""
    versions, entries = {}, {}
    for line in MANIFEST.read_text(encoding="utf-8").splitlines():
        if line.startswith("# version "):
            name, version = line[len("# version "):].split()
            versions[name] = version
        elif line and not line.startswith("#"):
            digest, name = line.split("  ")
            entries[name] = digest
    return versions, entries


def write_manifest(entries: dict[str, str]) -> None:
    lines = ["# sha256 of each golden output; rewrite with tests/golden.py --update"]
    lines += [f"# version {name} {version}" for name, version in library_versions().items()]
    lines += [f"{digest}  {name}" for name, digest in sorted(entries.items())]
    GOLDEN.mkdir(exist_ok=True)
    MANIFEST.write_text("\n".join(lines) + "\n", encoding="utf-8")


def read_truths(root: Path) -> dict[str, dict]:
    return {workload: json.loads((root / workload / "truth.json").read_text(encoding="utf-8"))
            for workload in SIZES}


def run_fresh(root: Path, out: Path, hash_seed_only: bool = False) -> None:
    """The fresh-process run on the generated inputs under ``root``:
    every call except the ``rescore-sweep`` extract, whose store it
    copies from ``root/out/rescore-sweep``; with ``hash_seed_only``,
    only the calls of HASH_SEED_LABELS."""
    for workload, truth in read_truths(root).items():
        if hash_seed_only and workload not in HASH_SEED_LABELS:
            continue
        target = out / workload
        target.mkdir(parents=True, exist_ok=True)
        calls = pipeline_calls(workload, root / workload, target, truth)
        if workload == "rescore-sweep":
            shutil.copy(root / "out" / workload / "store.jsonl", target)
            calls = calls[1:]
        if hash_seed_only:
            calls = [call for call in calls if call.label in HASH_SEED_LABELS[workload]]
        run_calls(calls, target)


def update() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        entries = {}
        for workload, truth in generate_inputs(root).items():
            out = root / "out" / workload
            calls = pipeline_calls(workload, root / workload, out, truth)
            run_calls(calls, out)
            entries.update({f"{workload}/{name}": sha256(out / name)
                            for name in output_files(calls)})
        write_manifest(entries)
        calls = demo_calls(root / "demos")
        run_calls(calls, root / "demos")
        shutil.rmtree(DEMO_EXPECTED, ignore_errors=True)
        DEMO_EXPECTED.mkdir(parents=True)
        for name in output_files(calls):
            shutil.copy(root / "demos" / name, DEMO_EXPECTED / name)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--update", action="store_true",
                       help="rewrite golden/SHA256SUMS and golden/demos")
    group.add_argument("--run", nargs=2, type=Path, metavar=("ROOT", "OUT"),
                       help="repeat the calls on generated inputs under ROOT")
    parser.add_argument("--hash-seed-only", action="store_true",
                        help="with --run, only the calls compared across hash seeds")
    args = parser.parse_args(argv)
    if args.update:
        update()
    else:
        run_fresh(*args.run, hash_seed_only=args.hash_seed_only)
    return 0


if __name__ == "__main__":
    sys.exit(main())
