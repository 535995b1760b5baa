"""Reverse-engineering harness: sample a reference grammar, induce, compare.

For each sample size, the harness draws seeded random subsets of the
reference language, induces a grammar from each, and reports the median
number of induced sentences inside / outside the reference language and
the median induced rule count over the runs.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import os
import random
from dataclasses import asdict, dataclass, field

from .errors import LanguageTooLargeError, is_positive_int, is_ratio
from .grammar import DEFAULT_CAP, Grammar, NonTerminal, enumerate_language, nonrecursive_order, rule_count
from .induction import DEFAULT_RATIO, induce_grammar

DEFAULT_SAMPLE_SIZES = (25, 50, 100)
DEFAULT_RUNS = 5


@dataclass(frozen=True)
class ExperimentConfig:
    sample_sizes: tuple[int, ...] = DEFAULT_SAMPLE_SIZES
    runs: int = DEFAULT_RUNS
    ratio: float = DEFAULT_RATIO
    max_height: int | None = None
    seed: int = 0
    cap: int = DEFAULT_CAP

    def __post_init__(self) -> None:
        sizes = tuple(self.sample_sizes)
        object.__setattr__(self, "sample_sizes", sizes)
        if not is_positive_int(self.runs):
            raise ValueError("runs must be an int >= 1")
        if not is_positive_int(self.cap):
            raise ValueError("cap must be >= 1 (an int)")
        if not is_ratio(self.ratio):
            raise ValueError("ratio must be within [0, 1]")
        if self.max_height is not None and not is_positive_int(self.max_height):
            raise ValueError("max_height must be an int >= 1")
        if not sizes or not all(map(is_positive_int, sizes)) or len(set(sizes)) < len(sizes):
            raise ValueError("sample sizes must be a non-empty list of distinct positive sizes")


@dataclass(frozen=True)
class RunMetrics:
    in_lg: int
    not_in_lg: int
    rules: int


@dataclass(frozen=True)
class SizeResult:
    sample_size: int
    runs: tuple[RunMetrics, ...]
    median_in_lg: int
    median_not_in_lg: int
    median_rules: int


@dataclass(frozen=True)
class GrammarResult:
    name: str
    language_size: int
    reference_rules: int
    sizes: tuple[SizeResult, ...]


@dataclass(frozen=True)
class EvalReport:
    grammars: tuple[GrammarResult, ...] = field(default_factory=tuple)


def lower_median(numbers: list[int]) -> int:
    """Order statistic at (n-1)//2: the classic median for odd n, the
    lower of the two middle values for even n."""
    if not numbers:
        raise ValueError("median of an empty sequence")
    return sorted(numbers)[(len(numbers) - 1) // 2]


def compare_languages(induced: Grammar, reference: Grammar, cap: int = DEFAULT_CAP) -> tuple[int, int]:
    """(|L_I ∩ L_G|, |L_I \\ L_G|) on whitespace-normalised sentence sets.

    Raises:
        LanguageTooLargeError: either enumeration hit the cap; rerun with
            a larger cap for an exact comparison.
    """
    reference_set = _exact_language(reference, cap)
    return _compare_against(induced, reference_set, cap)


def _exact_language(grammar: Grammar, cap: int) -> frozenset[str]:
    language = enumerate_language(grammar, cap)
    if language.truncated:
        raise LanguageTooLargeError(
            f"language enumeration exceeded the cap of {cap}; rerun with a larger cap"
        )
    return language.sentences


def _compare_against(induced: Grammar, reference_set: frozenset[str], cap: int) -> tuple[int, int]:
    induced_set = _exact_language(induced, cap)
    in_lg = len(induced_set & reference_set)
    return in_lg, len(induced_set) - in_lg


def reference_depth(grammar: Grammar) -> int:
    """Longest rule reference chain from the start symbol (start counts 1).

    Raises:
        RecursiveGrammarError: the grammar has a reference cycle.
    """
    depth: dict[str, int] = {}
    for name in nonrecursive_order(grammar):
        referenced = [
            depth[s.name]
            for production in grammar.rules[name]
            for s in production
            if isinstance(s, NonTerminal)
        ]
        depth[name] = 1 + max(referenced, default=0)
    return depth[grammar.start]


def run_seed(base_seed: int, sample_size: int, run: int) -> int:
    """Stable per-cell seed, reproducible across platforms and processes."""
    digest = hashlib.sha256(f"{base_seed}:{sample_size}:{run}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


def _run_cell(sentences: list[str], reference_set: frozenset[str], task: tuple) -> RunMetrics:
    """One independent (sample size, run) job against the reference language."""
    base_seed, size, run, ratio, max_height, cap = task
    rng = random.Random(run_seed(base_seed, size, run))
    sample = rng.sample(sentences, size)
    induced = induce_grammar(sample, ratio=ratio, max_height=max_height)
    in_lg, not_in_lg = _compare_against(induced, reference_set, cap)
    return RunMetrics(in_lg, not_in_lg, rule_count(induced))


# Set only inside a pool worker, by its initializer: the reference language
# crosses the process boundary once per worker instead of once per cell.
_worker_language: tuple[list[str], frozenset[str]] | None = None


def _hold_language(sentences: list[str], reference_set: frozenset[str]) -> None:
    global _worker_language
    _worker_language = sentences, reference_set


def _run_pooled_cell(task: tuple) -> RunMetrics:
    return _run_cell(*_worker_language, task)


def _usable_cpus() -> int:
    """The CPUs this process may run on, which affinity can make fewer than the host's."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def run_experiment(
    reference: Grammar,
    config: ExperimentConfig = ExperimentConfig(),
    name: str = "grammar",
    workers: int | None = None,
) -> EvalReport:
    """Run the sampling/induction/comparison protocol against one grammar.

    Every (sample size, run) cell is seeded independently, so the report
    does not depend on ``workers`` (cells are independent jobs and run in
    parallel when workers > 1). ``workers=None`` takes one worker per CPU
    this process may run on. A pool starts all its workers at once, so no
    more start than there are cells.

    Raises:
        ValueError: ``workers`` is neither None nor an int >= 1, or a
            sample size exceeds the reference language size.
        LanguageTooLargeError: enumeration hit the cap.
    """
    if workers is not None and not is_positive_int(workers):
        raise ValueError("workers must be None or an int >= 1")
    reference_set = _exact_language(reference, config.cap)
    sentences = sorted(reference_set)
    for size in config.sample_sizes:
        if size > len(sentences):
            raise ValueError(
                f"sample size {size} exceeds the reference language size {len(sentences)}"
            )
    max_height = config.max_height if config.max_height is not None else reference_depth(reference)

    tasks = [
        (config.seed, size, run, config.ratio, max_height, config.cap)
        for size in config.sample_sizes
        for run in range(config.runs)
    ]
    workers = min(len(tasks), workers or _usable_cpus())
    if workers > 1:
        # Imported here, so that importing the package does not load the pool.
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(
            max_workers=workers, initializer=_hold_language, initargs=(sentences, reference_set)
        ) as pool:
            metrics = list(pool.map(_run_pooled_cell, tasks))
    else:
        metrics = [_run_cell(sentences, reference_set, task) for task in tasks]

    size_results = []
    for index, size in enumerate(config.sample_sizes):
        chunk = metrics[index * config.runs : (index + 1) * config.runs]
        size_results.append(
            SizeResult(
                sample_size=size,
                runs=tuple(chunk),
                median_in_lg=lower_median([m.in_lg for m in chunk]),
                median_not_in_lg=lower_median([m.not_in_lg for m in chunk]),
                median_rules=lower_median([m.rules for m in chunk]),
            )
        )
    result = GrammarResult(
        name=name,
        language_size=len(sentences),
        reference_rules=rule_count(reference),
        sizes=tuple(size_results),
    )
    return EvalReport(grammars=(result,))


def merge_reports(reports: list[EvalReport]) -> EvalReport:
    return EvalReport(grammars=tuple(g for r in reports for g in r.grammars))


def format_report(report: EvalReport, fmt: str = "markdown") -> str:
    """Render a report as ``markdown`` (Table-1 style), ``csv`` or ``json``."""
    if fmt == "json":
        return json.dumps(asdict(report), indent=2)
    sizes = sorted({s.sample_size for g in report.grammars for s in g.sizes})
    header = ["name", "lang_size", "ref_rules"]
    for size in sizes:
        header += [f"in_lg_{size}", f"not_in_lg_{size}", f"rules_{size}"]
    rows = []
    for g in report.grammars:
        by_size = {s.sample_size: s for s in g.sizes}
        row: list[str] = [g.name, str(g.language_size), str(g.reference_rules)]
        for size in sizes:
            cell = by_size.get(size)
            if cell is None:
                row += ["", "", ""]
            else:
                row += [str(cell.median_in_lg), str(cell.median_not_in_lg), str(cell.median_rules)]
        rows.append(row)

    if fmt == "csv":
        out = io.StringIO()
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
        return out.getvalue()
    if fmt == "markdown":
        lines = [
            "| " + " | ".join(header) + " |",
            "| " + " | ".join("---" for _ in header) + " |",
        ]
        # A "|" in a cell (a grammar name) would split it.
        lines += ["| " + " | ".join(cell.replace("|", "\\|") for cell in row) + " |" for row in rows]
        return "\n".join(lines)
    raise ValueError(f"unknown report format: {fmt!r}")
