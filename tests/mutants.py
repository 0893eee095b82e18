"""Mutation check: does the test suite notice a wrong program?

``tests/mutants.json`` lists single-edit mutants of ``src``: the file,
the text to replace (it occurs exactly once), its replacement, the
test node expected to kill the mutant, or null for a mutant that is
equivalent (it changes no documented behaviour) and so survives, and
why the original is right. This script copies the repository to a
temporary directory, applies each mutant there in turn and runs pytest
on the copy; the working tree is never modified.

    python3 tests/mutants.py                # each mutant against its node
    python3 tests/mutants.py --full         # each against the whole suite, -x
    python3 tests/mutants.py --only ID ...  # some mutants

A mutant is killed when pytest fails. Each line reports the mutant, its
outcome, the seconds it took and, with ``--full``, the first failing
test. The exit status is 1 when an outcome differs from the list: a
mutant with a node survives, or one listed as equivalent is killed.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
MUTANTS = Path(__file__).resolve().parent / "mutants.json"
COPIED = ("src", "tests", "bench", "demos", "pyproject.toml", "BENCHMARK.json", "README.md")
IGNORED = shutil.ignore_patterns("__pycache__", ".pytest_cache", ".work", "*.egg-info")
TIMEOUT = 900


def load_mutants() -> list[dict]:
    with open(MUTANTS, encoding="utf-8") as f:
        return json.load(f)


def copy_repository(target: Path) -> None:
    for name in COPIED:
        source = REPO / name
        if source.is_dir():
            shutil.copytree(source, target / name, ignore=IGNORED)
        else:
            shutil.copy2(source, target / name)


def environment(copy: Path) -> dict:
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(copy / "src"),
                                                      os.environ.get("PYTHONPATH")]))
    return env


def check_imports_copy(copy: Path, env: dict) -> None:
    """The copy's gramprof, not an installed one, must be the one tested."""
    done = subprocess.run([sys.executable, "-c", "import gramprof; print(gramprof.__file__)"],
                          cwd=copy, env=env, capture_output=True, text=True, check=True)
    if not Path(done.stdout.strip()).resolve().is_relative_to(copy.resolve()):
        raise SystemExit(f"gramprof imports from {done.stdout.strip()}, not the copy")


def run_mutant(mutant: dict, copy: Path, env: dict, full: bool) -> tuple[bool, str, float]:
    """Apply ``mutant`` to the copy, run pytest, restore the file.
    Returns (killed, first failing test, seconds)."""
    path = copy / mutant["file"]
    original = path.read_text(encoding="utf-8")
    if original.count(mutant["old"]) != 1:
        raise SystemExit(f"{mutant['id']}: old text does not occur exactly once "
                         f"in {mutant['file']}")
    path.write_text(original.replace(mutant["old"], mutant["new"]), encoding="utf-8")
    argv = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider"]
    # the list's own check fails on every mutant: its old text is gone
    argv += (["--continue-on-collection-errors", "--ignore=tests/test_mutants.py"]
             if full else [mutant["kill"]])
    start = time.perf_counter()
    try:
        done = subprocess.run(argv, cwd=copy, env=env, capture_output=True, text=True,
                              timeout=TIMEOUT)
    finally:
        path.write_text(original, encoding="utf-8")
    failed = re.search(r"^(?:FAILED|ERROR) (\S+)", done.stdout, re.MULTILINE)
    return done.returncode != 0, failed.group(1) if failed else "", time.perf_counter() - start


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--full", action="store_true",
                        help="run the whole suite (-x) against each mutant")
    parser.add_argument("--only", nargs="+", metavar="ID", help="run only these mutants")
    args = parser.parse_args(argv)
    mutants = load_mutants()
    if args.only:
        unknown = set(args.only) - {m["id"] for m in mutants}
        if unknown:
            parser.error(f"unknown mutant ids: {sorted(unknown)}")
        mutants = [m for m in mutants if m["id"] in args.only]
    unexpected = 0
    with tempfile.TemporaryDirectory(prefix="gramprof-mutants-") as tmp:
        copy = Path(tmp)
        copy_repository(copy)
        env = environment(copy)
        check_imports_copy(copy, env)
        for mutant in mutants:
            if mutant["kill"] is None and not args.full:
                print(f"{mutant['id']:<40} equivalent, not run", flush=True)
                continue
            killed, first, seconds = run_mutant(mutant, copy, env, args.full)
            expected = mutant["kill"] is not None
            unexpected += killed != expected
            outcome = "killed" if killed else "SURVIVED"
            note = "" if killed == expected else "  (unexpected)"
            print(f"{mutant['id']:<40} {outcome:<8} {seconds:6.1f}s {first}{note}",
                  flush=True)
    return 1 if unexpected else 0


if __name__ == "__main__":
    sys.exit(main())
