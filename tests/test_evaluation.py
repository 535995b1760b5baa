import concurrent.futures
import csv
import io
import json
import os
import pickle
from types import SimpleNamespace

import pytest

import gramtree.evaluation as evaluation
from gramtree.errors import LanguageTooLargeError, RecursiveGrammarError
from gramtree.evaluation import (
    EvalReport,
    ExperimentConfig,
    GrammarResult,
    RunMetrics,
    SizeResult,
    compare_languages,
    format_report,
    lower_median,
    merge_reports,
    reference_depth,
    run_experiment,
)
from gramtree.grammar import Grammar, NonTerminal, enumerate_language, parse_tracery
from gramtree.induction import induce_grammar

from conftest import FIG1_JSON, run_python


def test_lower_median():
    assert lower_median([3, 1, 2]) == 2
    assert lower_median([4, 1, 2, 3]) == 2  # lower of the two middles
    assert lower_median([5]) == 5
    with pytest.raises(ValueError):
        lower_median([])


def test_compare_reference_with_itself(fig1_grammar):
    assert compare_languages(fig1_grammar, fig1_grammar) == (12, 0)


def test_compare_ignores_a_rule_the_start_rule_does_not_reach():
    # "X" alone would exceed the cap of 2; the language {"hi"} does not.
    grammar = parse_tracery('{"origin": "hi", "X": ["a", "b", "c"]}')
    assert compare_languages(grammar, grammar, cap=2) == (1, 0)


def test_compare_single_training_sentence(fig1_grammar):
    induced = induce_grammar(["I like putting cheese on my pizza"])
    assert compare_languages(induced, fig1_grammar) == (1, 0)


def test_compare_overgeneral_epsilon_grammar():
    reference = parse_tracery(
        json.dumps(
            {
                "origin": ["#H# #W#", "#H# there, #N#"],
                "H": ["hello", "hi"],
                "W": ["world", "earth"],
                "N": ["alice", "bob"],
            }
        )
    )
    overgeneral = parse_tracery(
        json.dumps(
            {
                "origin": "#H# #T# #X#",
                "H": ["hello", "hi"],
                "T": ["there,", ""],
                "X": ["world", "earth", "alice", "bob"],
            }
        )
    )
    in_lg, not_in_lg = compare_languages(overgeneral, reference)
    assert in_lg == 8
    assert not_in_lg > 0


def test_compare_errors_on_truncation(fig1_grammar):
    with pytest.raises(LanguageTooLargeError, match="cap"):
        compare_languages(fig1_grammar, fig1_grammar, cap=5)


def test_reference_depth(fig1_grammar):
    assert reference_depth(fig1_grammar) == 2
    assert reference_depth(parse_tracery('{"origin": "flat"}')) == 1
    nested = parse_tracery(json.dumps({"origin": "#a#", "a": ["#b#"], "b": ["x"]}))
    assert reference_depth(nested) == 3


def test_reference_depth_rejects_recursive_grammar():
    grammar = Grammar("origin", {"origin": ((NonTerminal("A"),),), "A": ((NonTerminal("origin"),), ())})
    with pytest.raises(RecursiveGrammarError) as info:
        reference_depth(grammar)
    assert info.value.cycle == ("A", "origin", "A")


def test_run_experiment_full_language(fig1_grammar):
    config = ExperimentConfig(sample_sizes=(12,), runs=5, ratio=1.0, seed=0)
    report = run_experiment(fig1_grammar, config, name="fig1")
    (result,) = report.grammars
    assert result.language_size == 12 and result.reference_rules == 8
    (size,) = result.sizes
    assert (size.median_in_lg, size.median_not_in_lg, size.median_rules) == (12, 0, 8)


def test_run_experiment_single_sentence_samples(fig1_grammar):
    config = ExperimentConfig(sample_sizes=(1,), runs=3, seed=5)
    report = run_experiment(fig1_grammar, config)
    (size,) = report.grammars[0].sizes
    assert (size.median_in_lg, size.median_not_in_lg, size.median_rules) == (1, 0, 1)


def test_run_experiment_anchored_two_by_two_recovers_held_out():
    # every 3-of-4 subset of this grammar's language recovers the held-out
    # sentence through slot independence (brute-forced over all subsets)
    reference = parse_tracery(
        json.dumps({"origin": "#C# says #B#", "C": ["hello", "hi"], "B": ["world", "people"]})
    )
    full = sorted(enumerate_language(reference).sentences)
    for leave_out in range(4):
        sample = [s for i, s in enumerate(full) if i != leave_out]
        induced = induce_grammar(sample, ratio=1.0, max_height=2)
        assert compare_languages(induced, reference) == (4, 0)
    config = ExperimentConfig(sample_sizes=(3,), runs=5, ratio=1.0, seed=1)
    report = run_experiment(reference, config)
    assert report.grammars[0].sizes[0].median_in_lg == 4


def test_run_experiment_tokenless_two_by_two_stays_sound():
    # without anchor tokens the crossed-slot merge rules forbid recovery;
    # the induced grammar still covers exactly the training sentences
    reference = parse_tracery(
        json.dumps({"origin": "#C# #B#", "C": ["hello", "hi"], "B": ["world", "people"]})
    )
    config = ExperimentConfig(sample_sizes=(3,), runs=5, ratio=1.0, seed=1)
    report = run_experiment(reference, config)
    size = report.grammars[0].sizes[0]
    assert size.median_in_lg == 3 and size.median_not_in_lg == 0


@pytest.mark.parametrize(
    "fields",
    [
        {"sample_sizes": ()},
        {"sample_sizes": (5, 0)},
        {"sample_sizes": (25, 25)},
        {"cap": 0},
        {"cap": -3},
        {"ratio": 1.5},
        {"ratio": -0.1},
        {"max_height": 0},
        {"sample_sizes": (2.5,)},
        {"sample_sizes": (True, 2)},
        {"runs": 1.5},
        {"runs": True},
        {"max_height": 2.0},
        {"cap": 2.5},
        {"cap": True},
        {"ratio": True},
        {"ratio": "0.5"},
        {"ratio": None},
        {"ratio": float("nan")},
    ],
    ids=[
        "no-sizes", "zero-size", "duplicate-sizes", "zero-cap", "negative-cap",
        "ratio-above-one", "negative-ratio", "zero-height",
        "float-size", "bool-size", "float-runs", "bool-runs", "float-height",
        "float-cap", "bool-cap", "bool-ratio", "str-ratio", "none-ratio", "nan-ratio",
    ],
)
def test_experiment_config_rejects_bad_fields(fields):
    with pytest.raises(ValueError):
        ExperimentConfig(**fields)


def test_run_experiment_rejects_oversized_samples(fig1_grammar):
    with pytest.raises(ValueError, match="sample size"):
        run_experiment(fig1_grammar, ExperimentConfig(sample_sizes=(13,)))


@pytest.mark.parametrize("workers", [0, -3, True, 1.5, "2"], ids=["zero", "negative", "bool", "float", "str"])
def test_run_experiment_rejects_bad_workers(fig1_grammar, workers):
    # cap=1 makes enumeration fail, so the check must come before it.
    config = ExperimentConfig(sample_sizes=(6,), runs=1, cap=1)
    with pytest.raises(ValueError, match="workers"):
        run_experiment(fig1_grammar, config, workers=workers)


def test_run_experiment_is_deterministic(fig1_grammar):
    config = ExperimentConfig(sample_sizes=(6, 9), runs=3, ratio=1.0, seed=11)
    assert run_experiment(fig1_grammar, config) == run_experiment(fig1_grammar, config)


def test_run_experiment_worker_count_does_not_change_results(fig1_grammar):
    config = ExperimentConfig(sample_sizes=(9,), runs=2, ratio=1.0, seed=3)
    assert run_experiment(fig1_grammar, config, workers=1) == run_experiment(
        fig1_grammar, config, workers=2
    )


@pytest.mark.parametrize("method", ["forkserver", "spawn"])
def test_run_experiment_pool_start_method_does_not_change_results(fig1_grammar, method):
    # Python 3.14 starts pool workers with forkserver on Linux, not fork.
    config = ExperimentConfig(sample_sizes=(9,), runs=2, ratio=1.0, seed=3)
    code = f"""
import multiprocessing
from gramtree import ExperimentConfig, format_report, parse_tracery, run_experiment
multiprocessing.set_start_method({method!r})
grammar = parse_tracery({FIG1_JSON!r})
print(format_report(run_experiment(grammar, {config!r}, workers=2), "json"))
"""
    serial = format_report(run_experiment(fig1_grammar, config, workers=1), "json")
    assert run_python(code) == serial + "\n"


# Three slots of ten values each: 1,000 sentences.
THREE_SLOTS = parse_tracery(
    json.dumps(
        {
            "origin": "#A# saw #B# with #C#",
            "A": [f"a{i}" for i in range(10)],
            "B": [f"b{i}" for i in range(10)],
            "C": [f"c{i}" for i in range(10)],
        }
    )
)
THREE_SLOTS_LANGUAGE = enumerate_language(THREE_SLOTS).sentences
SMALL_SWEEP = ExperimentConfig(sample_sizes=(5, 8), runs=2, seed=4)


def _holds_any(module, sentences: frozenset[str]) -> bool:
    """Whether a global of ``module``, or a container up to three levels
    inside one, holds one of ``sentences``."""

    def holds(value, depth: int) -> bool:
        if isinstance(value, str):
            return value in sentences
        if isinstance(value, (set, frozenset)):
            return not sentences.isdisjoint(value)
        if isinstance(value, dict):
            value = [*value, *value.values()]
        if isinstance(value, (list, tuple)) and depth:
            return any(holds(item, depth - 1) for item in value)
        return False

    return any(holds(value, 3) for name, value in vars(module).items() if not name.startswith("__"))


@pytest.fixture
def in_process_pool(monkeypatch):
    """Replace the process pool by a stand-in that runs its initializer and
    tasks in this process, each task through a pickle round trip as a real
    pool sends it, and records every task and pool size."""
    record = SimpleNamespace(tasks=[], max_workers=[])

    class InProcessPool:
        def __init__(self, max_workers, initializer, initargs):
            record.max_workers.append(max_workers)
            self.initializer, self.initargs = initializer, initargs

        def __enter__(self):
            self.initializer(*self.initargs)
            return self

        def __exit__(self, *exc):
            return None

        def map(self, fn, tasks):
            tasks = list(tasks)
            record.tasks.extend(tasks)
            return [fn(pickle.loads(pickle.dumps(task))) for task in tasks]

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcessPool)
    # The stand-in's initializer fills, in this process, what only a worker holds.
    monkeypatch.setattr(evaluation, "_worker_language", None)
    return record


@pytest.fixture
def refused_pool(monkeypatch):
    class RefusedPool:
        def __init__(self, *args, **kwargs):
            raise AssertionError("run_experiment built a process pool")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RefusedPool)


def test_pool_tasks_carry_no_reference_language(in_process_pool):
    assert len(THREE_SLOTS_LANGUAGE) >= 1000
    pooled = run_experiment(THREE_SLOTS, SMALL_SWEEP, workers=2)
    assert len(in_process_pool.tasks) == 4
    assert all(len(pickle.dumps(task)) < 1024 for task in in_process_pool.tasks)
    # What a worker holds after its initializer ran (here, this process).
    assert _holds_any(evaluation, THREE_SLOTS_LANGUAGE)
    assert pooled == run_experiment(THREE_SLOTS, SMALL_SWEEP, workers=1)


@pytest.mark.parametrize("workers", [1, 2], ids=["serial", "pool"])
def test_run_experiment_leaves_no_language_in_the_module(workers):
    run_experiment(THREE_SLOTS, SMALL_SWEEP, workers=workers)
    assert not _holds_any(evaluation, THREE_SLOTS_LANGUAGE)


@pytest.mark.parametrize("affinity, cpus", [({0}, 8), (None, 1)], ids=["one-cpu-affinity", "no-affinity-one-cpu"])
def test_default_workers_build_no_pool_on_one_usable_cpu(monkeypatch, refused_pool, fig1_grammar, affinity, cpus):
    if affinity is None:
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    else:
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: affinity, raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    config = ExperimentConfig(sample_sizes=(6,), runs=3, ratio=1.0)
    assert run_experiment(fig1_grammar, config) == run_experiment(fig1_grammar, config, workers=1)


def test_default_workers_use_every_cpu_of_the_affinity_set(monkeypatch, in_process_pool, fig1_grammar):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 1)
    run_experiment(fig1_grammar, ExperimentConfig(sample_sizes=(6,), runs=3, ratio=1.0))
    assert in_process_pool.max_workers == [2]


def test_explicit_workers_are_capped_at_the_cell_count(in_process_pool, fig1_grammar):
    config = ExperimentConfig(sample_sizes=(6,), runs=2, ratio=1.0)
    pooled = run_experiment(fig1_grammar, config, workers=8)
    assert in_process_pool.max_workers == [2]
    assert pooled == run_experiment(fig1_grammar, config, workers=1)


def test_medians_recomputable_from_raw_runs(fig1_grammar):
    config = ExperimentConfig(sample_sizes=(9,), runs=5, ratio=1.0, seed=2)
    (result,) = run_experiment(fig1_grammar, config).grammars
    for size in result.sizes:
        assert size.median_in_lg == lower_median([m.in_lg for m in size.runs])
        assert size.median_not_in_lg == lower_median([m.not_in_lg for m in size.runs])
        assert size.median_rules == lower_median([m.rules for m in size.runs])


def _single_row_report() -> EvalReport:
    metrics = (RunMetrics(4, 0, 5),)
    return EvalReport(
        grammars=(
            GrammarResult(
                name="toy",
                language_size=4,
                reference_rules=5,
                sizes=(SizeResult(3, metrics, 4, 0, 5),),
            ),
        )
    )


def test_format_report_empty_is_header_only():
    empty = EvalReport()
    md = format_report(empty, "markdown")
    assert md.splitlines()[0] == "| name | lang_size | ref_rules |"
    assert len(md.splitlines()) == 2  # header + separator, no data rows
    assert format_report(empty, "csv").strip() == "name,lang_size,ref_rules"


def test_format_report_one_row_has_six_columns():
    md = format_report(_single_row_report(), "markdown")
    data_row = md.splitlines()[2]
    cells = [c.strip() for c in data_row.strip("|").split("|")]
    assert len(cells) == 6
    assert cells == ["toy", "4", "5", "4", "0", "5"]


def test_format_report_escapes_pipes_in_markdown_cells(fig1_grammar):
    config = ExperimentConfig(sample_sizes=(6,), runs=1, ratio=1.0)
    report = run_experiment(fig1_grammar, config, name="a|b", workers=1)
    header, _, row = format_report(report, "markdown").splitlines()
    assert row.startswith("| a\\|b |")
    assert row.replace("\\|", "").count("|") == header.count("|") == 7
    assert list(csv.reader(io.StringIO(format_report(report, "csv"))))[1][0] == "a|b"


def test_format_report_csv_and_json_agree():
    report = _single_row_report()
    rows = list(csv.DictReader(io.StringIO(format_report(report, "csv"))))
    payload = json.loads(format_report(report, "json"))
    grammar = payload["grammars"][0]
    size = grammar["sizes"][0]
    assert int(rows[0]["lang_size"]) == grammar["language_size"]
    assert int(rows[0]["ref_rules"]) == grammar["reference_rules"]
    assert int(rows[0]["in_lg_3"]) == size["median_in_lg"]
    assert int(rows[0]["not_in_lg_3"]) == size["median_not_in_lg"]
    assert int(rows[0]["rules_3"]) == size["median_rules"]


def test_format_report_rejects_unknown_format():
    with pytest.raises(ValueError):
        format_report(EvalReport(), "xml")


def test_merge_reports():
    merged = merge_reports([_single_row_report(), _single_row_report()])
    assert len(merged.grammars) == 2
