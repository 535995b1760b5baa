"""One cold benchmark job, run in a fresh interpreter.

Reads a job as JSON on stdin: the workload, the seed, the corpus index,
the pool size for sweeps, and whether to trace and to measure quality.
It imports the package from the checkout's ``src`` and builds its inputs,
timing both; a set-up job stops there. Otherwise it checks that no package
cache is warm, makes one timed call (an ``induce_grammar`` call or a
``run_experiment`` sweep), reads its peak RSS, then checks the output.
The result is one JSON line on stdout.

    echo '{"workload": ..., "seed": 0, ...}' | python3 bench/job.py
"""

from __future__ import annotations

import hashlib
import json
import resource
import sys
import time
from contextlib import nullcontext
from pathlib import Path

from tracing import INDUCE_ROOT, SWEEP_ROOT, Tracer, layer_metrics
from workloads import from_json, sample_corpus, synthetic_grammar

ROOT = Path(__file__).resolve().parent.parent

# Enumeration cap for the quality numbers; it keeps the check's memory near
# 100 MiB. Membership and in_lg use the recognizer and stay exact above it.
QUALITY_CAP = 300_000


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def accepts(grammar, sentence: str) -> bool:
    """Whether a non-recursive grammar derives ``sentence``.

    A memoised span walk over the rule DAG: ``ends(rule, i)`` is the set of
    token positions where a derivation of ``rule`` starting at ``i`` ends.
    """
    from gramtree.grammar import Terminal

    tokens = sentence.split()
    size = len(tokens)
    memo: dict[tuple[str, int], set[int]] = {}

    def ends(name: str, start: int) -> set[int]:
        found = memo.get((name, start))
        if found is not None:
            return found
        found = set()
        for production in grammar.rules[name]:
            positions = {start}
            for symbol in production:
                if type(symbol) is Terminal:
                    text = symbol.text
                    positions = {p + 1 for p in positions if p < size and tokens[p] == text}
                else:
                    positions = {e for p in positions for e in ends(symbol.name, p)}
                if not positions:
                    break
            found |= positions
        memo[(name, start)] = found
        return found

    return size in ends(grammar.start, 0)


def check_induced(grammar, corpus: list[str]) -> list[str]:
    """Failed output checks of one induced grammar (empty when it is sound)."""
    import gramtree

    check = gramtree.check_nonrecursive(grammar)
    if not check.ok:
        return ["grammar is recursive: " + " -> ".join(check.cycle)]
    missed = [s for s in corpus if not accepts(grammar, s)]
    if missed:
        return [f"{len(missed)} corpus sentences not in the induced language, e.g. {missed[0]!r}"]
    return []


def quality(grammar, reference: frozenset[str]) -> dict:
    """rules, in_lg and not_in_lg of an induced grammar against its reference.

    Past the enumeration cap, in_lg comes from the recognizer and not_in_lg
    counts only the enumerated part of the language (a lower bound).
    """
    import gramtree

    language = gramtree.grammar.enumerate_language(grammar, QUALITY_CAP)
    enumerated_in = len(language.sentences & reference)
    if language.truncated:
        in_lg = sum(1 for s in reference if accepts(grammar, s))
    else:
        in_lg = enumerated_in
    return {
        "rules": gramtree.rule_count(grammar),
        "in_lg": in_lg,
        "not_in_lg": len(language.sentences) - enumerated_in,
        "not_in_lg_exact": not language.truncated,
    }


def cached_functions() -> dict[str, object]:
    """Every function of the package that exposes ``cache_info``."""
    found = {}
    for name, module in list(sys.modules.items()):
        if name == "gramtree" or name.startswith("gramtree."):
            for value in vars(module).values():
                if callable(getattr(value, "cache_info", None)):
                    found[f"{value.__module__}.{value.__qualname__}"] = value
    return found


def peak_rss_mib(include_children: bool) -> float:
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if include_children:
        peak = max(peak, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return peak / 1024  # ru_maxrss is in KiB on Linux


def build_induce(gramtree, workload, job):
    """The reference language and the job's corpus."""
    reference = gramtree.parse_tracery(json.dumps(workload.grammar))
    language = gramtree.grammar.enumerate_language(reference)
    seed = workload.corpus_seed(job["seed"], job["corpus"])
    return language, sample_corpus(sorted(language.sentences), workload.n, seed)


def build_sweep(gramtree, workload, job):
    """(grammar seed, reference grammar, sample sizes that fit) per grammar."""
    plan = []
    for grammar_seed in workload.grammar_seeds:
        reference = gramtree.parse_tracery(json.dumps(synthetic_grammar(grammar_seed)))
        size = len(gramtree.grammar.enumerate_language(reference).sentences)
        plan.append((grammar_seed, reference, tuple(s for s in workload.sizes if s <= size)))
    return plan


def run_induce(gramtree, workload, job, inputs, tracer, result) -> None:
    language, corpus = inputs
    result["corpus_sha"] = sha256("\n".join(corpus))
    result["warm_caches"] = warm_caches(result["caches"])

    grammar = None
    start = time.perf_counter()
    try:
        with tracer.span(INDUCE_ROOT) if tracer else nullcontext():
            grammar = gramtree.induction.induce_grammar(
                corpus, ratio=workload.ratio, max_height=workload.max_height
            )
    except (gramtree.LanguageTooLargeError, gramtree.InternalInvariantError) as exc:
        result["errors"].append(f"{type(exc).__name__}: {exc}")
    result["op_end"] = time.perf_counter()
    result["op_s"] = result["op_end"] - start
    result["rss_mib"] = peak_rss_mib(include_children=False)
    result["cache_stats"] = cache_stats(result["caches"])
    result["attempted"] = 1
    if grammar is None:
        result["failed"] = 1
        return
    result["failures"] += check_induced(grammar, corpus)
    result["sha"] = sha256(gramtree.to_tracery(grammar))
    if job["quality"] and not result["failures"]:
        result["quality"] = quality(grammar, language.sentences)
    result["failed"] = 1 if result["failures"] else 0


def run_sweep(gramtree, workload, job, plan, tracer, result) -> None:
    seed = workload.config_seed(job["seed"])
    result["corpus_sha"] = sha256(json.dumps([synthetic_grammar(s) for s in workload.grammar_seeds]) + f"|{seed}")
    result["warm_caches"] = warm_caches(result["caches"])

    reports, failed = [], 0
    start = time.perf_counter()
    with tracer.span(SWEEP_ROOT) if tracer else nullcontext():
        for grammar_seed, reference, sizes in plan:
            config = gramtree.ExperimentConfig(sample_sizes=sizes, runs=workload.runs, seed=seed)
            try:
                reports.append(gramtree.run_experiment(
                    reference, config, name=f"synthetic-{grammar_seed}", workers=job["workers"]
                ))
            except (gramtree.LanguageTooLargeError, gramtree.InternalInvariantError) as exc:
                result["errors"].append(f"synthetic-{grammar_seed}: {type(exc).__name__}: {exc}")
                failed += len(sizes) * workload.runs
    result["op_end"] = time.perf_counter()
    result["op_s"] = result["op_end"] - start
    result["rss_mib"] = peak_rss_mib(include_children=True)
    result["cache_stats"] = cache_stats(result["caches"])

    totals = {"rules": 0, "in_lg": 0, "not_in_lg": 0, "not_in_lg_exact": True}
    for report in reports:
        for size in report.grammars[0].sizes:
            totals["rules"] += size.median_rules
            totals["in_lg"] += size.median_in_lg
            totals["not_in_lg"] += size.median_not_in_lg
            for metrics in size.runs:
                if metrics.not_in_lg != 0 or metrics.in_lg < size.sample_size:
                    failed += 1
                    result["failures"].append(
                        f"{report.grammars[0].name} n={size.sample_size}: "
                        f"in_lg {metrics.in_lg}, not_in_lg {metrics.not_in_lg}"
                    )
    result["attempted"] = sum(len(sizes) for _, _, sizes in plan) * workload.runs
    result["failed"] = failed
    result["cells"] = result["attempted"]
    result["sha"] = sha256(gramtree.format_report(gramtree.merge_reports(reports), "json"))
    result["quality"] = totals


def warm_caches(caches: dict[str, object]) -> list[str]:
    return [name for name, function in caches.items() if function.cache_info().currsize]


def cache_stats(caches: dict[str, object]) -> dict[str, tuple[int, int]]:
    stats = {}
    for function in caches.values():
        info = function.cache_info()
        stats[function.__qualname__] = (info.hits, info.misses)
    return stats


def main() -> int:
    job = json.loads(sys.stdin.read())
    workload = from_json(job["workload"])
    result = {"errors": [], "failures": [], "quality": None, "sha": None, "cells": 1,
              "layers": None, "missing": []}
    sys.path.insert(0, str(ROOT / "src"))
    start = time.perf_counter()
    import gramtree

    result["import_s"] = time.perf_counter() - start
    result["caches"] = cached_functions()
    tracer = Tracer() if job["traced"] else None
    if tracer:
        tracer.install()
    build, operate = (build_induce, run_induce) if workload.kind == "induce" else (build_sweep, run_sweep)
    start = time.perf_counter()
    inputs = build(gramtree, workload, job)
    result["build_s"] = time.perf_counter() - start
    if job.get("setup_only"):
        print(json.dumps({"import_s": result["import_s"], "build_s": result["build_s"]}))
        return 0
    operate(gramtree, workload, job, inputs, tracer, result)
    if tracer:
        tracer.restore()
        metrics, missing = layer_metrics(tracer.spans, result["cache_stats"])
        result["layers"] = metrics
        result["missing"] = sorted(set(missing) | set(tracer.missing_hooks))
        if job.get("spans_path"):
            tracer.write(job["spans_path"])
    if result["warm_caches"]:
        result["failures"].append("warm package caches before the timed call: " + ", ".join(result["warm_caches"]))
        result["failed"] = result["attempted"]
    del result["caches"]
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
