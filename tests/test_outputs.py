"""Whole-pipeline output checks on fixed inputs (see tests/golden.py).

* Metamorphic invariants on the seed-1 ``rescore-sweep`` store, under
  the benchmark's six method variants plus ``--filter 0`` and
  ``--filter-per-period``: swapping the period pair, or doubling every
  count, gives bitwise-equal distances. Under those eight and
  ``--explain``, tripling every count gives byte-identical score files.
* One ranking order: every score file lists its words in the order
  ``rank_words`` gives its own printed scores (descending, ties by word
  id), so its first K lines are ``rank --top K``.
* The method oracle: under those eight variants and
  ``--zero-distance 0.5``, every score ``score`` prints equals the
  correctly rounded value of ``oracles.method_oracle``, in the order
  ``rank_words`` gives those values, on three ``synth.random_store``
  stores and on small stores of the benchmark generator's three
  workloads.
* The extracted store is byte-identical when a corpus file is split at
  a sentence boundary, when a period's files are reordered, and when
  each file's compression is switched (``.gz`` against plain).
* Golden outputs: every output file of the pipeline calls on the
  generated data has the sha256 that tests/golden/SHA256SUMS records,
  and every demo output equals its copy in tests/golden/demos.
* PYTHONHASHSEED 1, 2 and 3 give byte-identical outputs: each seed's
  calls run in a fresh process.
"""

import gzip
import os
import random
import subprocess
import sys
from pathlib import Path

import mpmath
import pytest
import yaml

import golden
import gramprof
import synth
from gramprof import cli
from gramprof.evaluation import rank_words
from gramprof.profiles import Profile, ProfileStore
from gramprof.scoring import score_period_pair
from oracles import method_oracle

import gen  # bench/gen.py: golden puts bench/ on sys.path

SRC = str(Path(gramprof.__file__).resolve().parents[1])
VERSIONS, ENTRIES = golden.read_manifest()
DEMO_FILES = sorted(path.name for path in golden.DEMO_EXPECTED.iterdir())
HASH_SEEDS = (1, 2, 3)
COMBINATION = golden.workloads.SCORE_VARIANTS["combination"]
METHOD_VARIANTS = {**golden.workloads.SCORE_VARIANTS,
                   "filter-0": [*COMBINATION, "--filter", "0"],
                   "filter-per-period": [*COMBINATION, "--filter-per-period"]}
SCORE_CONFIGS = {**METHOD_VARIANTS, "explain": [*COMBINATION, "--explain"]}
ORACLE_CONFIGS = {**METHOD_VARIANTS, "zero-distance-0.5": [
    *golden.workloads.SCORE_VARIANTS["separate-max"], "--zero-distance", "0.5"]}
# words (random stores, rescore-sweep) or tokens per period (extraction workloads)
ORACLE_STORES = {"random-1": 120, "random-2": 120, "random-3": 120,
                 "extract-zipf": 5_000, "extract-dense": 1_000, "rescore-sweep": 120}
FRESH_RUN_TIMEOUT = 300


class Run:
    """The generated inputs, the ``rescore-sweep`` store extracted
    in-process, and one fresh process per PYTHONHASHSEED that repeats
    the calls on them, running while the in-process tests do."""

    def __init__(self, root: Path):
        self.root = root
        self.truths = golden.generate_inputs(root)
        store_dir = root / "out" / "rescore-sweep"
        golden.run_calls([golden.workloads.extract_call(
            "rescore-sweep", root / "rescore-sweep", store_dir)], store_dir)
        self.store = store_dir / "store.jsonl"
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [SRC, os.environ.get("PYTHONPATH")])))
        self.processes = {}
        for seed in HASH_SEEDS:
            argv = [sys.executable, str(golden.TESTS / "golden.py"),
                    "--run", str(root), str(self.fresh_dir(seed))]
            if seed != HASH_SEEDS[0]:
                argv.append("--hash-seed-only")
            with open(root / f"seed{seed}.log", "w", encoding="utf-8") as log:
                self.processes[seed] = subprocess.Popen(
                    argv, env=dict(env, PYTHONHASHSEED=str(seed)),
                    stdout=subprocess.DEVNULL, stderr=log)

    def fresh_dir(self, seed: int) -> Path:
        return self.root / f"seed{seed}"

    def fresh(self, seed: int) -> Path:
        """The outputs of the fresh run under ``seed``, once it is done."""
        process = self.processes[seed]
        process.wait(timeout=FRESH_RUN_TIMEOUT)
        log = (self.root / f"seed{seed}.log").read_text(encoding="utf-8")
        assert process.returncode == 0, log
        return self.fresh_dir(seed)

    def close(self):
        for process in self.processes.values():
            if process.poll() is None:
                process.kill()
                process.wait()


@pytest.fixture(scope="module")
def run(tmp_path_factory):
    run = Run(tmp_path_factory.mktemp("golden"))
    yield run
    run.close()


@pytest.fixture(scope="module")
def demo_outputs(tmp_path_factory):
    out = tmp_path_factory.mktemp("demos")
    golden.run_calls(golden.demo_calls(out), out)
    return out


def skip_other_versions(name: str) -> None:
    if name in golden.NUMERIC_OUTPUTS and golden.library_versions() != VERSIONS:
        pytest.skip(f"{name} was recorded under {VERSIONS}, but "
                    f"{golden.library_versions()} is installed: run "
                    f"tests/golden.py --update and review the diff")


def method_config(variant: str):
    return cli._method_config(cli.build_parser().parse_args(
        ["score", "store.jsonl", *ORACLE_CONFIGS[variant]]))


def bits(scores) -> list[tuple]:
    """Every distance of every score, as the exact bits of the float."""
    def hex_or_none(value):
        return None if value is None else value.hex()
    return [(word_id, hex_or_none(s.aggregate), hex_or_none(s.d_morph),
             hex_or_none(s.d_synt), {k: v.hex() for k, v in s.per_category.items()})
            for word_id, s in scores.items()]


@pytest.fixture(scope="module")
def store(run):
    with open(run.store, encoding="utf-8") as f:
        return ProfileStore.load(f)


def scaled(profile: Profile, factor: int) -> Profile:
    """``profile`` with every count and its total multiplied by ``factor``."""
    return Profile({k: factor * c for k, c in profile.morph.items()},
                   {k: factor * c for k, c in profile.synt.items()}, factor * profile.total)


def write_score_files(store_path: Path, out: Path) -> Path:
    """One score file per configuration of SCORE_CONFIGS, written by the CLI."""
    out.mkdir()
    for config, flags in SCORE_CONFIGS.items():
        assert cli.main(["score", str(store_path), *flags,
                         "-o", str(out / f"score.{config}.tsv")]) == 0
    return out


@pytest.fixture(scope="module")
def score_files(run):
    return write_score_files(run.store, run.root / "score-files")


@pytest.fixture(scope="module")
def tripled_score_files(run, store):
    path = run.root / "tripled.jsonl"
    tripled = ProfileStore(store.periods, {key: scaled(p, 3) for key, p in store.profiles.items()},
                           store.options)
    with open(path, "w", encoding="utf-8") as f:
        tripled.save(f)
    return write_score_files(path, run.root / "tripled-score-files")


@pytest.fixture(scope="module")
def scored(store):
    """The distances of each method variant on the store's own pair."""
    return {variant: bits(score_period_pair(store.profiles, tuple(store.periods),
                                            method_config(variant)))
            for variant in METHOD_VARIANTS}


# ----------------------------------------------------------------------
# metamorphic invariants

@pytest.mark.parametrize("variant", METHOD_VARIANTS)
def test_swapping_the_pair_gives_bitwise_equal_distances(store, scored, variant):
    old, new = store.periods
    swapped = score_period_pair(store.profiles, (new, old), method_config(variant))
    assert bits(swapped) == scored[variant]


@pytest.mark.parametrize("variant", METHOD_VARIANTS)
def test_doubling_every_count_gives_bitwise_equal_distances(store, scored, variant):
    doubled = {key: scaled(p, 2) for key, p in store.profiles.items()}
    scores = score_period_pair(doubled, tuple(store.periods), method_config(variant))
    assert bits(scores) == scored[variant]


@pytest.mark.parametrize("config", SCORE_CONFIGS)
def test_tripling_every_count_gives_byte_identical_score_files(score_files,
                                                               tripled_score_files, config):
    name = f"score.{config}.tsv"
    assert (tripled_score_files / name).read_bytes() == (score_files / name).read_bytes()


@pytest.mark.parametrize("config", SCORE_CONFIGS)
def test_score_file_order_is_rank_words_of_its_printed_values(store, score_files, config):
    lines = (score_files / f"score.{config}.tsv").read_text(encoding="utf-8").splitlines()
    if config == "explain":
        lines = lines[1:]
    rows = [line.split("\t")[:2] for line in lines]
    printed = {word_id: float(score) for word_id, score in rows}
    assert len(printed) == len(rows) == len(store.word_ids)
    assert len(set(printed.values())) < len(printed)  # there are ties to order
    assert [word_id for word_id, _ in rows] == [word_id for word_id, _ in rank_words(printed)]


# ----------------------------------------------------------------------
# the method oracle

def oracle_store(name: str, root: Path) -> ProfileStore:
    """A ``synth.random_store`` (``random-<seed>``), or the store the
    generator's truth gives for a small run of a workload."""
    size = ORACLE_STORES[name]
    if name.startswith("random-"):
        return synth.random_store(random.Random(int(name.split("-")[1])), size,
                                  ["old", "new"])
    truth = gen.generate(name, 1, root / name, size)
    return ProfileStore(truth["periods"], {
        (word_id, period): Profile(record["morph"], record["synt"], record["total"])
        for word_id, periods in truth["profiles"].items()
        for period, record in periods.items()})


def printable(value) -> set[int]:
    """The 6-decimal values, in millionths, that a score may print for an
    oracle value: the correctly rounded one, or, within 1e-12 of a
    rounding midpoint, both neighbours."""
    scaled = mpmath.mpf(value) * 10**6
    lower = int(mpmath.floor(scaled))
    above_midpoint = scaled - lower - mpmath.mpf(1) / 2
    if abs(above_midpoint) < mpmath.mpf(10)**-6:
        return {lower, lower + 1}
    return {lower + 1 if above_midpoint > 0 else lower}


@pytest.mark.parametrize("name", ORACLE_STORES)
def test_every_printed_score_is_the_rounded_method_oracle(tmp_path, name):
    store = oracle_store(name, tmp_path)
    pair = store.periods[0], store.periods[-1]
    path = tmp_path / "store.jsonl"
    with open(path, "w", encoding="utf-8") as f:
        store.save(f)
    for config, flags in ORACLE_CONFIGS.items():
        out = tmp_path / f"score.{config}.tsv"
        assert cli.main(["score", str(path), *flags, "--pair", *pair, "-o", str(out)]) == 0
        rows = [line.split("\t") for line in out.read_text(encoding="utf-8").splitlines()]
        printed = {word_id: int(score.replace(".", "")) for word_id, score in rows}
        assert len(printed) == len(rows) == len(store.word_ids)
        method = method_config(config)
        for word_id, score in printed.items():
            value = method_oracle(store.profiles[(word_id, pair[0])],
                                  store.profiles[(word_id, pair[1])], method)
            assert score in printable(value), (config, word_id, score, value)
        assert [word_id for word_id, _ in rows] == [word_id for word_id, _ in rank_words(printed)]


def dense_variant(run, tmp_path, change) -> str:
    """sha256 of the store extracted from the extract-dense inputs with
    each period's list of corpus files rewritten by ``change(paths,
    tmp_path)``."""
    inputs = run.root / "extract-dense"
    config = yaml.safe_load((inputs / "dataset.yml").read_text(encoding="utf-8"))
    config["targets"] = str(inputs / config["targets"])
    for period in config["periods"]:
        period["paths"] = [str(p) for p in change([inputs / p for p in period["paths"]],
                                                  tmp_path)]
    (tmp_path / "dataset.yml").write_text(yaml.safe_dump(config), encoding="utf-8")
    call = golden.workloads.extract_call("extract-dense", tmp_path, tmp_path)
    golden.run_calls([call], tmp_path)
    return golden.sha256(tmp_path / "store.jsonl")


def split_first_file(paths, tmp_path):
    """The first file cut into two at the blank line nearest its middle."""
    first, *rest = paths
    lines = first.read_text(encoding="utf-8").splitlines(keepends=True)
    cut = min((i + 1 for i, line in enumerate(lines) if not line.strip()),
              key=lambda i: abs(i - len(lines) // 2))
    assert 0 < cut < len(lines)
    parts = [tmp_path / f"{first.stem}.head.conllu", tmp_path / f"{first.stem}.tail.conllu"]
    parts[0].write_text("".join(lines[:cut]), encoding="utf-8")
    parts[1].write_text("".join(lines[cut:]), encoding="utf-8")
    return [*parts, *rest]


def reversed_order(paths, tmp_path):
    return paths[::-1]


def switched_compression(paths, tmp_path):
    switched = []
    for path in paths:
        if path.suffix == ".gz":
            target = tmp_path / path.stem
            target.write_bytes(gzip.decompress(path.read_bytes()))
        else:
            target = tmp_path / f"{path.name}.gz"
            target.write_bytes(gzip.compress(path.read_bytes()))
        switched.append(target)
    return switched


@pytest.mark.parametrize("change", [split_first_file, reversed_order, switched_compression])
def test_store_is_byte_identical_under_a_change_of_corpus_files(run, tmp_path, change):
    assert any(len(p["paths"]) > 1 and any(path.endswith(".gz") for path in p["paths"])
               for p in yaml.safe_load((run.root / "extract-dense" / "dataset.yml")
                                       .read_text(encoding="utf-8"))["periods"])
    assert dense_variant(run, tmp_path, change) == ENTRIES["extract-dense/store.jsonl"]


# ----------------------------------------------------------------------
# golden outputs

def test_manifest_lists_every_output_of_the_pipeline_calls(run):
    listed = {f"{workload}/{name}"
              for workload, truth in run.truths.items()
              for name in golden.output_files(golden.pipeline_calls(
                  workload, run.root / workload, run.root / "out", truth))}
    assert sorted(listed) == sorted(ENTRIES)
    assert sorted(golden.output_files(golden.demo_calls(run.root))) == DEMO_FILES


@pytest.mark.parametrize("entry", sorted(ENTRIES))
def test_golden_output(run, entry):
    workload, name = entry.split("/")
    skip_other_versions(name)
    path = run.fresh(HASH_SEEDS[0]) / workload / name
    if not path.exists():  # the rescore-sweep extract ran in-process
        path = run.root / "out" / workload / name
    assert golden.sha256(path) == ENTRIES[entry]


@pytest.mark.parametrize("name", DEMO_FILES)
def test_demo_output(demo_outputs, name):
    skip_other_versions(name)
    expected = (golden.DEMO_EXPECTED / name).read_text(encoding="utf-8")
    assert (demo_outputs / name).read_text(encoding="utf-8") == expected


# ----------------------------------------------------------------------
# hash-seed independence

@pytest.mark.parametrize("seed", HASH_SEEDS[1:])
def test_hash_seed_gives_byte_identical_outputs(run, seed):
    compared = 0
    for workload, labels in golden.HASH_SEED_LABELS.items():
        calls = [call for call in golden.pipeline_calls(
            workload, run.root / workload, run.root, run.truths[workload])
            if call.label in labels]
        for name in golden.output_files(calls):
            first = (run.fresh(HASH_SEEDS[0]) / workload / name).read_bytes()
            assert (run.fresh(seed) / workload / name).read_bytes() == first, name
            compared += 1
    assert compared == 8  # the dense store and report, six rescore-sweep files
