"""Smoke test: the narrative demos run to the end in a fresh interpreter.

They use the library the way a reader would copy it, so an API change
that breaks them fails here. ``semeval_reproduction.py`` needs external
corpora and is not run.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import gramprof

DEMOS = Path(__file__).resolve().parents[1] / "demos"


@pytest.mark.parametrize("script", ["quickstart.py", "category_analysis.py"])
def test_demo_runs(script):
    src = str(Path(gramprof.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, str(DEMOS / script)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout
