"""Smoke test: the narrative demos run to the end in a fresh interpreter.

They use the library the way a reader would copy it, so an API change
that breaks them fails here. ``semeval_reproduction.py`` needs external
corpora for its published numbers; here it runs its binary task on the
bundled data laid out as an ``italian`` dataset, and its ranking task on
the same data laid out as an ``english`` one, where the bundled data's
Spearman does not match the reference value. README's "Library use"
code runs here too, so the documented API cannot drift from the code.
"""

import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import gramprof

DEMOS = Path(__file__).resolve().parents[1] / "demos"


def run_demo(script, *args, code=0):
    src = str(Path(gramprof.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, str(DEMOS / script), *map(str, args)],
                          env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == code, done.stderr
    return done.stdout


@pytest.mark.parametrize("script", ["quickstart.py", "category_analysis.py"])
def test_demo_runs(script):
    assert run_demo(script)


def test_semeval_reproduction_runs_on_bundled_data(tmp_path):
    shutil.copytree(DEMOS / "data", tmp_path / "italian")
    out = run_demo("semeval_reproduction.py", "--data", tmp_path, "--languages")
    assert any(line.startswith("italian    accuracy") for line in out.splitlines())


def test_semeval_reproduction_ranks_and_checks_a_language(tmp_path):
    shutil.copytree(DEMOS / "data", tmp_path / "english")
    out = run_demo("semeval_reproduction.py", "--data", tmp_path, "--languages", "english",
                   code=1)
    assert out.splitlines() == [
        "english    spearman +0.893  expected +0.320 ±0.03  MISMATCH",
        "mean       spearman +0.893",
    ]


def test_readme_library_use_runs_and_ranks_lass_first(monkeypatch, capsys):
    readme = DEMOS.parent / "README.md"
    section = readme.read_text(encoding="utf-8").split("\n## Library use\n")[1]
    blocks = re.findall(r"^```python\n(.*?)^```$", section.split("\n## ")[0],
                        re.MULTILINE | re.DOTALL)
    assert len(blocks) >= 2
    monkeypatch.chdir(DEMOS / "data")
    namespace = {}
    for block in blocks:
        exec(compile(block, str(readme), "exec"), namespace)
    assert capsys.readouterr().out.split()[0] == "lass"
