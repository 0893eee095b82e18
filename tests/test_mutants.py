"""The mutant list (tests/mutants.json) cannot rot silently: every
mutant's text still occurs exactly once in its source file, and every
killing node names a test that exists. ``tests/mutants.py`` runs the
mutants themselves, on demand; its verdict rule is tested here."""

import re
from pathlib import Path

import pytest

from mutants import REPO, load_mutants, verdict

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


NODE = "tests/test_x.py::test_node"
OTHER = "tests/test_y.py::test_other"


# (listed node, first failing test, report, expected): the node runs
# first; the whole suite only when the node passes or there is none
@pytest.mark.parametrize("node, killer, report, expected", [
    (NODE, NODE, "killed", True),
    (NODE, OTHER, f"killed by {OTHER}, not by its node", False),
    (NODE, None, "SURVIVED", False),
    (None, None, "equivalent, survived", True),
    (None, OTHER, f"equivalent but killed by {OTHER}", False),
], ids=["node-kills", "suite-kills", "survives", "equivalent-survives", "equivalent-killed"])
def test_verdict(node, killer, report, expected):
    assert verdict(node, killer) == (report, expected)
