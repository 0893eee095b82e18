import pytest

from gramprof.conllu import parse_feats


@pytest.fixture(autouse=True)
def cold_feats_cache():
    """Start every test with an empty parse_feats cache, so a test that
    counts FEATS warnings does not depend on which tests ran before."""
    parse_feats.cache_clear()
