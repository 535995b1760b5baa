"""Benchmark for cold-state grammar induction and the evaluation sweep.

    python3 bench/run.py --workload induce-deep --seed 0 --seconds 36 --trace 0

Run from the root of a checkout. Every timed package call runs in a fresh
interpreter (``job.py``), because the package's module-level caches make a
warm repeat in one process about ten times faster than what a caller pays
for a new corpus. Within ``--seconds`` the benchmark starts cold jobs one
after another, never in parallel, and reports medians.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` alternates
untraced and traced jobs and reports the per-layer metrics. Output is
human-readable lines followed by one JSON object on the last line.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import asdict
from pathlib import Path

from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
PACKAGE = ROOT / "src" / "gramtree"
SPANS_DIR = ROOT / ".bench_out"

# A run must end within 180 s; no job starts a timeout past this point.
DEADLINE_S = 170.0

# Cold interpreters that only import the package and build the inputs, run
# before each timed job of an untraced run. One set-up takes tens of
# milliseconds and this host's speed swings by half within seconds, so
# setup_s is the median of several spread over the whole window.
SETUP_PROBES = 3

END_TO_END = {"setup_s": "s", "induce_s": "s", "sweep_s": "s", "peak_rss_mb": "MiB"}
QUALITY = ("rules", "in_lg", "not_in_lg")
PER_LAYER = (
    "tree.learn_s", "tree.learn_self_s", "tree.pairs_scored", "tree.pairs_merged",
    "tree.pairs_used_ratio", "tree.prune_s", "tree.height", "tree.leaves", "tree.self_s",
    "merge.merge_templates_s", "merge.merge_templates_calls", "merge.distance_calls",
    "merge.distance_cache_hit_ratio", "merge.merge_all_s", "merge.merge_all_calls",
    "merge.merge_all_cache_hit_ratio", "merge.self_s",
    "induction.merge_similar_slots_s", "induction.merge_similar_slots_calls",
    "induction.slots_before", "induction.slots_after", "induction.collapse_s",
    "induction.collapse_self_s", "induction.extract_s", "induction.iterations", "induction.self_s",
    "grammar.enumerate_s", "grammar.enumerated_sentences",
    "host.calib_s", "trace.overhead_frac",
)
LAYERS = ("tree", "merge", "induction", "evaluation")
STAGES = ("tree.learn_s", "tree.prune_s", "induction.extract_s", "induction.merge_similar_slots_s",
          "induction.collapse_s")
# Reported by traced sweeps only: no other workload runs the harness.
SWEEP_ONLY = ("evaluation.cell_s_p50", "evaluation.cell_s_p90", "evaluation.self_s",
              "evaluation.parallel_efficiency")


def calibrate() -> float:
    """Seconds for a fixed pure-Python loop: tells a slow host from slow code."""
    start = time.perf_counter()
    total = 0
    for i in range(2_000_000):
        total += i & 7
    return time.perf_counter() - start


def commit() -> str:
    done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def source_digest() -> str:
    """SHA-256 of the package source. A benchmark checkout is often an
    exported tree without ``.git``, where the commit reads "unknown"; the
    digest still tells runs of different code apart."""
    digest = hashlib.sha256()
    for path in sorted(PACKAGE.rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def launch(job: dict, run_start: float) -> dict:
    """Run one cold job to completion and return its result."""
    spawned = time.perf_counter()
    failed = {"attempted": 1, "failed": 1, "failures": [], "quality": None, "sha": None, "missing": []}
    # A session of its own, so that a timeout also ends the job's pool workers.
    process = subprocess.Popen(
        [sys.executable, str(BENCH / "job.py")], cwd=ROOT, start_new_session=True,
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    try:
        stdout, stderr = process.communicate(json.dumps(job), timeout=max(1.0, DEADLINE_S - (spawned - run_start)))
    except subprocess.TimeoutExpired:
        os.killpg(process.pid, signal.SIGKILL)
        process.communicate()
        return {**failed, "errors": ["job timed out"]}
    if process.returncode != 0:
        return {**failed, "errors": [f"job exited {process.returncode}: {stderr.strip()[-2000:]}"]}
    result = json.loads(stdout.strip().splitlines()[-1])
    if "op_end" in result:
        result["job_s"] = result["op_end"] - spawned
    return result


def percentile_note(samples: list[float]) -> str:
    """The highest percentile with at least ten samples above it, if any."""
    ordered = sorted(samples)
    for p in (99, 90, 75, 50):
        rank = -(-p * len(ordered) // 100)
        if len(ordered) - rank >= 10:
            return f"p{p} {ordered[rank - 1]:.4f}"
    return "no percentile has ten samples above it"


def plan(workload, base: dict, trace: int):
    """(jobs, minimum count) for one run: an endless job stream and how many
    must run before the time window may end it."""
    if workload.kind == "induce" and not trace:
        # Cycle the corpora; the minimum repeats corpus 0 for the SHA check.
        jobs = ({**base, "corpus": i % workload.corpora, "quality": i == 0} for i in itertools.count())
        return jobs, workload.corpora + 1
    if workload.kind == "induce":
        pair = [base, {**base, "traced": True, "quality": True}]
        return itertools.cycle(pair), 4
    if not trace:
        return itertools.repeat(base), 3
    serial = {**base, "workers": 1}
    return itertools.cycle([base, serial, {**serial, "traced": True}]), 3


def run(workload, seed: int, seconds: float, trace: int, emit=print) -> dict:
    run_start = time.perf_counter()
    calib = calibrate()
    emit(f"host nproc={len(os.sched_getaffinity(0))} python={platform.python_version()} "
         f"commit={commit()} src_sha256={source_digest()} host.calib_s={calib:.4f}")
    SPANS_DIR.mkdir(exist_ok=True)

    base = {"workload": asdict(workload), "seed": seed, "corpus": 0, "traced": False,
            "quality": False, "workers": getattr(workload, "workers", 1)}
    probe = {**base, "setup_only": True}
    jobs, minimum = plan(workload, base, trace)
    setups: list[dict] = []
    results: list[tuple[dict, dict]] = []
    rounds: list[float] = []  # wall time of each job with its set-up probes
    window_start = time.perf_counter()
    for job in jobs:
        elapsed = time.perf_counter() - window_start
        if len(results) >= minimum and elapsed + statistics.median(rounds) > seconds:
            break
        if time.perf_counter() - run_start > DEADLINE_S:
            break
        round_start = time.perf_counter()
        if not trace:
            setups += [launch(probe, run_start) for _ in range(SETUP_PROBES)]
        if job["traced"]:
            job = {**job, "spans_path": str(SPANS_DIR / f"{workload.name}-seed{seed}-job{len(results)}.jsonl")}
        result = launch(job, run_start)
        results.append((job, result))
        rounds.append(time.perf_counter() - round_start)
        emit(describe(len(results), job, result))

    ok = [(job, r) for job, r in results if "op_s" in r]
    attempted = sum(r["attempted"] for _, r in results)
    failed = sum(r["failed"] for _, r in results)
    failed += sha_mismatches(ok, emit)
    for job, r in results:
        for problem in r["errors"] + r["failures"]:
            emit(f"FAILED {problem}")
    for r in setups:
        if "import_s" not in r:
            emit(f"FAILED set-up: {r['errors'][0]}")
    attempted += len(setups)
    failed += sum("import_s" not in r for r in setups)
    setups = [r for r in setups if "import_s" in r]
    quality = next((r["quality"] for _, r in ok if r["quality"]), None)
    if quality:
        bound = "" if quality["not_in_lg_exact"] else " (lower bound: language over the cap)"
        emit("quality " + " ".join(f"{k}={quality[k]} count" for k in QUALITY) + bound)
    emit(f"metric fail_frac = {failed / max(attempted, 1):.4f} ratio ({failed} of {attempted} operations)")

    if trace:
        metrics = layer_summary(workload, ok, calib, emit)
    else:
        metrics = end_to_end(workload, setups, ok, emit)
    return {
        "correct": failed == 0 and bool(ok),
        "attempted": max(attempted, 1),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def describe(index: int, job: dict, r: dict) -> str:
    if "op_s" not in r:
        return f"job {index} corpus={job['corpus']} FAILED"
    return (f"job {index} corpus={job['corpus']} workers={job['workers']} traced={int(job['traced'])} "
            f"import={r['import_s']:.4f} s build={r['build_s']:.4f} s op={r['op_s']:.4f} s job={r['job_s']:.4f} s "
            f"rss={r['rss_mib']:.1f} MiB corpus_sha256={r['corpus_sha'][:16]} sha256={r['sha']}")


def sha_mismatches(ok: list[tuple[dict, dict]], emit) -> int:
    """Jobs whose output differs from the first job on the same input."""
    first: dict[int, str] = {}
    bad = 0
    for job, r in ok:
        expected = first.setdefault(job["corpus"], r["sha"])
        if r["sha"] != expected:
            bad += r["attempted"]
            emit(f"FAILED corpus {job['corpus']}: output sha256 {r['sha']} differs from {expected}")
    return bad


def corpus_mean(ok: list[tuple[dict, dict]], value) -> float:
    """Mean over corpora of each corpus's median ``value(job, result)``, so
    that which corpora a run happened to repeat does not move the result."""
    by_corpus: dict[int, list[float]] = {}
    for job, r in ok:
        by_corpus.setdefault(job["corpus"], []).append(value(job, r))
    return statistics.fmean(statistics.median(values) for values in by_corpus.values())


def end_to_end(workload, setups: list[dict], ok: list[tuple[dict, dict]], emit) -> dict:
    if not ok or not setups:
        return {}
    setup = statistics.median(r["import_s"] + r["build_s"] for r in setups)
    metrics = {"setup_s": (setup, "s")}
    emit(f"metric setup_s = {setup:.4f} s (median of {len(setups)} cold set-ups; median import "
         f"{statistics.median(r['import_s'] for r in setups):.4f} s, median input build "
         f"{statistics.median(r['build_s'] for r in setups):.4f} s)")
    if workload.kind == "induce":
        # induce_s is the call; sweep_s is the whole cold job, as a command-
        # line caller sees it: interpreter start to holding the grammar.
        def induce(job, r): return r["op_s"]
        def sweep(job, r): return r["job_s"]
    else:
        # sweep_s is the sweep; induce_s is the pool's wall time per cell.
        def induce(job, r): return r["op_s"] * job["workers"] / r["cells"]
        def sweep(job, r): return r["op_s"]
    corpora = len({job["corpus"] for job, _ in ok})
    how = "median" if corpora == 1 else f"mean over {corpora} corpora of per-corpus medians"
    for name, value in (("induce_s", induce), ("sweep_s", sweep), ("peak_rss_mb", lambda job, r: r["rss_mib"])):
        samples = [value(job, r) for job, r in ok]
        metrics[name] = (corpus_mean(ok, value), END_TO_END[name])
        emit(f"metric {name} = {metrics[name][0]:.4f} {END_TO_END[name]} "
             f"({how}; {len(samples)} samples; {percentile_note(samples)})")
    return metrics


def layer_summary(workload, ok: list[tuple[dict, dict]], calib: float, emit) -> dict:
    traced = [r for job, r in ok if job["traced"]]
    plain = [r for job, r in ok if not job["traced"] and job["workers"] == 1]
    measured: dict[str, tuple[list[float], str]] = {}
    for r in traced:
        for name, (value, unit) in r["layers"].items():
            measured.setdefault(name, ([], unit))[0].append(value)
    collected = {name: (statistics.median(values), unit) for name, (values, unit) in measured.items()}
    collected["host.calib_s"] = (calib, "s")
    if traced and plain:
        overhead = statistics.median(r["op_s"] for r in traced) / statistics.median(r["op_s"] for r in plain)
        collected["trace.overhead_frac"] = (overhead - 1.0, "ratio")
    pool = [r["op_s"] for job, r in ok if job["workers"] > 1]
    if pool and plain:
        efficiency = statistics.median(r["op_s"] for r in plain) / (workload.workers * statistics.median(pool))
        collected["evaluation.parallel_efficiency"] = (efficiency, "ratio")

    if traced:
        op = statistics.median(r["op_s"] for r in traced)
        for label, names in (("stage", STAGES), ("self-time", [f"{layer}.self_s" for layer in LAYERS])):
            shares = ", ".join(f"{name} {collected[name][0] / op:.1%}" for name in names if name in collected)
            emit(f"{label} shares of the traced call ({op:.4f} s): {shares}")
    missing = sorted({m for r in traced for m in r["missing"]} | (set(PER_LAYER) - set(collected)))
    if missing:
        emit("missing (hook gone or never fired): " + ", ".join(missing))
    for name in PER_LAYER + SWEEP_ONLY:
        if name in collected:
            value, unit = collected[name]
            emit(f"layer {name} = {value:.6g} {unit}")
    return {name: collected[name] for name in PER_LAYER if name in collected}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (PACKAGE / "__init__.py").is_file():
        print(f"error: package source not found at {PACKAGE}", file=sys.stderr)
        return 2
    result = run(WORKLOADS[args.workload], args.seed, args.seconds, args.trace)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
