"""Mutation check: does the test suite notice a wrong program?

``tests/mutants.json`` lists single-edit mutants of ``src``: the file,
the text to replace (it occurs exactly once), its replacement, the
test node expected to kill the mutant, or null for a mutant that is
equivalent (it changes no documented behaviour) and so survives, and
why the original is right. This script copies the repository to a
temporary directory and runs pytest on the copy; the working tree is
never modified.

    python3 tests/mutants.py                # every mutant
    python3 tests/mutants.py --only ID ...  # some mutants

First the named nodes run once on the unmutated copy: a node that fails
there would "kill" every mutant that names it, so the run stops with
exit status 1, naming it. Then each mutant is applied in turn and its
named node runs. If the node fails, the node kills the mutant. If it
passes, or the mutant is listed as equivalent, the whole suite runs
(``-x``) and gives the verdict. Each line reports the mutant, the
seconds it took and its verdict. Three verdicts differ from the list
and set exit status 1: a mutant killed by another test but not by its
node, a mutant that survives the suite, and an equivalent mutant that
the suite kills.
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
from typing import Optional

REPO = Path(__file__).resolve().parents[1]
MUTANTS = Path(__file__).resolve().parent / "mutants.json"
COPIED = ("src", "tests", "bench", "demos", "pyproject.toml", "BENCHMARK.json", "README.md")
IGNORED = shutil.ignore_patterns("__pycache__", ".pytest_cache", ".work", "*.egg-info")
TIMEOUT = 900
# the whole suite, up to its first failure, but the list's own check,
# which fails on every mutant: its old text is gone
SUITE = ["-x", "--continue-on-collection-errors", "--ignore=tests/test_mutants.py"]


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


def failures(args: list[str], copy: Path, env: dict) -> list[str]:
    """Run pytest on the copy. Returns the tests that failed, in order,
    or pytest's exit status if it failed without naming one; empty when
    it passed."""
    done = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                           *args], cwd=copy, env=env, capture_output=True, text=True,
                          timeout=TIMEOUT)
    failed = re.findall(r"^(?:FAILED|ERROR) (\S+)", done.stdout, re.MULTILINE)
    return failed or ([f"pytest exit status {done.returncode}"] if done.returncode else [])


def check_nodes_pass(nodes: set[str], copy: Path, env: dict) -> None:
    """A named node that fails on the unmutated copy would kill every
    mutant that names it, so the run stops. (Given no node, pytest
    would run the whole suite.)"""
    failed = failures(sorted(nodes), copy, env) if nodes else []
    if failed:
        raise SystemExit(f"named nodes fail on the unmutated copy: {', '.join(failed)}")


def run_mutant(mutant: dict, copy: Path, env: dict) -> tuple[Optional[str], float]:
    """Apply ``mutant`` to the copy, run its named node and, if that
    passes or there is none, the whole suite; restore the file.
    Returns (the killer: the node if it failed, else the suite's first
    failure, None if nothing failed; seconds)."""
    path = copy / mutant["file"]
    original = path.read_text(encoding="utf-8")
    if original.count(mutant["old"]) != 1:
        raise SystemExit(f"{mutant['id']}: old text does not occur exactly once "
                         f"in {mutant['file']}")
    path.write_text(original.replace(mutant["old"], mutant["new"]), encoding="utf-8")
    start = time.perf_counter()
    try:
        if mutant["kill"] is not None and failures(["-x", mutant["kill"]], copy, env):
            killer = mutant["kill"]
        else:
            killer = next(iter(failures(SUITE, copy, env)), None)
    finally:
        path.write_text(original, encoding="utf-8")
    return killer, time.perf_counter() - start


def verdict(node: Optional[str], killer: Optional[str]) -> tuple[str, bool]:
    """The report of a mutant listed with killing ``node`` (None: it is
    equivalent) whose first failing test was ``killer`` (None: none
    failed), and whether the list expected it."""
    if node is None:
        if killer is None:
            return "equivalent, survived", True
        return f"equivalent but killed by {killer}", False
    if killer is None:
        return "SURVIVED", False
    if killer != node:
        return f"killed by {killer}, not by its node", False
    return "killed", True


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
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
        check_nodes_pass({m["kill"] for m in mutants} - {None}, copy, env)
        for mutant in mutants:
            killer, seconds = run_mutant(mutant, copy, env)
            report, expected = verdict(mutant["kill"], killer)
            unexpected += not expected
            note = "" if expected else "  (unexpected)"
            print(f"{mutant['id']:<40} {seconds:6.1f}s  {report}{note}", flush=True)
    return 1 if unexpected else 0


if __name__ == "__main__":
    sys.exit(main())
