"""The mutant list (tests/mutants.json) cannot rot silently: every
mutant's text still occurs exactly once in its source file, and every
killing node names a test that exists. ``tests/mutants.py`` runs the
mutants themselves, on demand."""

import re
from pathlib import Path

import pytest

from mutants import REPO, load_mutants

MUTANTS = load_mutants()


def test_mutant_ids_are_unique():
    ids = [m["id"] for m in MUTANTS]
    assert len(ids) == len(set(ids))


@pytest.mark.parametrize("mutant", MUTANTS, ids=lambda m: m["id"])
def test_mutant_text_occurs_once_and_its_killer_exists(mutant):
    assert mutant["file"].startswith("src/gramprof/")
    source = (REPO / mutant["file"]).read_text(encoding="utf-8")
    assert source.count(mutant["old"]) == 1
    assert mutant["old"] != mutant["new"]
    if mutant["kill"] is not None:
        test_file, name = re.fullmatch(r"(tests/test_\w+\.py)::(\w+)(\[.*\])?",
                                       mutant["kill"]).group(1, 2)
        assert re.search(rf"^def {name}\(", Path(REPO / test_file).read_text(encoding="utf-8"),
                         re.MULTILINE)
