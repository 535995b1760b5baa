"""Self-test of the benchmark at tiny sizes.

    python3 -m pytest bench
"""

import itertools
import json
import random
import shutil
import subprocess
import sys
from dataclasses import replace
from functools import lru_cache
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import job  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from gramtree import InternalInvariantError  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

TINY = {
    "induce-deep": replace(WORKLOADS["induce-deep"], n=12, corpora=2),
    "induce-long": replace(WORKLOADS["induce-long"], n=8, corpora=2),
    "eval-synthetic": replace(WORKLOADS["eval-synthetic"], grammar_seeds=(1000, 1001), sizes=(5,), runs=2),
}
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_spec_names_the_emitted_metrics_and_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    assert [m["name"] for m in SPEC["per_layer"]] == list(run.PER_LAYER)


@pytest.mark.parametrize("name", sorted(TINY))
def test_untraced_run_emits_every_end_to_end_metric(name):
    lines = []
    result = run.run(TINY[name], seed=3, seconds=0, trace=0, emit=lines.append)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == run.END_TO_END
    assert all(v["value"] > 0 for v in result["metrics"].values())
    text = "\n".join(lines)
    for metric in run.QUALITY:
        assert f"{metric}=" in text
    assert "metric fail_frac = 0.0000 ratio" in text


@pytest.mark.parametrize("name", sorted(TINY))
def test_traced_run_emits_every_per_layer_metric(name):
    lines = []
    result = run.run(TINY[name], seed=3, seconds=0, trace=1, emit=lines.append)
    assert result["correct"]
    units = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == units
    text = "\n".join(lines)
    assert "missing" not in text
    if TINY[name].kind == "sweep":
        for metric in run.SWEEP_ONLY:
            assert f"layer {metric} = " in text


def test_each_corpus_weighs_the_same_however_often_it_ran():
    ok = [({"corpus": c}, {"op_s": t}) for c, t in ((0, 1.0), (1, 3.0), (0, 1.0), (2, 2.0))]
    assert run.corpus_mean(ok, lambda job, r: r["op_s"]) == 2.0


def test_check_counts_a_corpus_sentence_missing_from_the_grammar():
    import gramtree

    grammar = gramtree.parse_tracery(json.dumps({"origin": "#A# b", "A": ["x", "y z"]}))
    assert job.check_induced(grammar, ["x b", "y z b"]) == []
    failures = job.check_induced(grammar, ["x b", "y b"])
    assert len(failures) == 1 and "'y b'" in failures[0]


def test_recognizer_agrees_with_enumeration():
    import gramtree

    grammar = gramtree.parse_tracery(json.dumps(
        {"origin": ["#A# #B#", "#B# c"], "A": ["a", "", "a #B#"], "B": ["b", "b b"]}
    ))
    language = gramtree.enumerate_language(grammar).sentences
    candidates = {" ".join(w) for n in range(1, 6) for w in itertools.product("abc", repeat=n)}
    assert {s for s in candidates if job.accepts(grammar, s)} == language


def test_hook_that_never_fired_is_missing_not_zero():
    metrics, missing = tracing.layer_metrics([], {})
    assert metrics == {}
    assert set(run.PER_LAYER) - {"host.calib_s", "trace.overhead_frac"} <= set(missing)


def test_warm_cache_is_detected():
    @lru_cache(maxsize=None)
    def cached(x):
        return x

    assert job.warm_caches({"cached": cached}) == []
    cached(1)
    assert job.warm_caches({"cached": cached}) == ["cached"]


def test_every_input_seed_maps_into_its_pool():
    deep, sweep = WORKLOADS["induce-deep"], WORKLOADS["eval-synthetic"]
    assert deep.corpus_seed(0, 0) == 0 and sweep.config_seed(7) == 7
    seeds = {deep.corpus_seed(1500108622, k) for k in range(deep.corpora)}
    assert len(seeds) == deep.corpora and seeds <= set(deep.input_seeds)


@pytest.mark.xfail(raises=InternalInvariantError, strict=True, reason=(
    "known defect: from this random corpus of the induce-deep grammar the pipeline builds a recursive grammar; "
    "once it passes, the workloads' input seed lists may be widened"))
def test_known_defect_recursive_grammar_on_a_random_deep_corpus():
    import gramtree

    reference = gramtree.parse_tracery(json.dumps(workloads.DEEP_GRAMMAR))
    language = sorted(gramtree.enumerate_language(reference).sentences)
    # The fourth 200-sentence corpus drawn from one seeded stream; the cycle
    # found was BB -> M -> FT -> FA -> CU -> HH -> HF -> CA -> BB.
    rng = random.Random(1500108622)
    for _ in range(3):
        rng.sample(language, 200)
    corpus = rng.sample(language, 200)
    grammar = gramtree.induce_grammar(corpus, ratio=0.5, max_height=None)
    assert job.check_induced(grammar, corpus) == []


def test_exits_nonzero_without_the_package(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "induce-deep", "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
