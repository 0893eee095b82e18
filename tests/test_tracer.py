"""The benchmark's tracer (bench/spans.py) patches gramprof attributes
by name. Entering it here makes a rename in src fail the test suite
instead of only a traced benchmark run."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))

import spans  # noqa: E402
from gramprof import analysis, cli, scoring  # noqa: E402


def test_tracer_patches_and_restores_gramprof():
    originals = (cli.score_period_pair, scoring.cosine_distance, analysis.score_basic)
    with spans.traced(spans.Recorder(0)):
        assert cli.score_period_pair is not originals[0]
        assert scoring.cosine_distance is not originals[1]
    assert (cli.score_period_pair, scoring.cosine_distance,
            analysis.score_basic) == originals
