"""Smoke test: the narrative demos run to the end in a fresh interpreter.

They use the library the way a reader would copy it, so an API change
that breaks them fails here. ``semeval_reproduction.py`` needs external
corpora for its published numbers; here it runs its binary task on the
bundled data, laid out as an ``italian`` dataset.
"""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import gramprof

DEMOS = Path(__file__).resolve().parents[1] / "demos"


def run_demo(script, *args):
    src = str(Path(gramprof.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, str(DEMOS / script), *map(str, args)],
                          env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout


@pytest.mark.parametrize("script", ["quickstart.py", "category_analysis.py"])
def test_demo_runs(script):
    assert run_demo(script)


def test_semeval_reproduction_runs_on_bundled_data(tmp_path):
    shutil.copytree(DEMOS / "data", tmp_path / "italian")
    out = run_demo("semeval_reproduction.py", "--data", tmp_path, "--languages")
    assert any(line.startswith("italian    accuracy") for line in out.splitlines())
