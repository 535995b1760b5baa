"""Span tracing at the package's module boundaries, from outside the package.

``Tracer.install`` rebinds public names in the package's modules to
wrappers that record one span per call: name, start, end, parent span and
an optional summary of the arguments or result. Spans stay in memory until
``write`` dumps them. ``layer_metrics`` folds spans into per-layer numbers;
a metric whose hook was not installed (the name is gone) or never fired is
reported as missing, never as 0.
"""

from __future__ import annotations

import importlib
import json
import math
import statistics
import time
from contextlib import contextmanager


def _tree_shape(node) -> tuple[int, int]:
    """(height in edges, leaf count) of a template tree."""
    height, leaves = 0, 0
    stack = [(node, 0)]
    while stack:
        current, depth = stack.pop()
        if current.children:
            stack.extend((child, depth + 1) for child in current.children)
        else:
            leaves += 1
            height = max(height, depth)
    return height, leaves


def _slot_counts(args, result) -> tuple[int, int]:
    return len(args[0]), len(result[0])


# (module, attribute, summary of (args, result) kept on the span)
HOOKS = (
    ("gramtree.induction", "learn_template_tree", lambda args, result: _tree_shape(result)),
    ("gramtree.induction", "prune_redundant_children", None),
    ("gramtree.induction", "extract_slot_values", None),
    ("gramtree.induction", "merge_similar_slots", _slot_counts),
    ("gramtree.induction", "collapse_tree", None),
    ("gramtree.induction", "merge_all", None),
    ("gramtree.tree", "distance", None),
    ("gramtree.tree", "merge_templates", None),
    ("gramtree.merge", "distance", None),
    ("gramtree.merge", "merge_templates", None),
    ("gramtree.grammar", "enumerate_language", lambda args, result: len(result.sentences)),
    ("gramtree.evaluation", "induce_grammar", None),
)

# Spans the benchmark opens around the timed call itself.
INDUCE_ROOT = "bench.induce"
SWEEP_ROOT = "bench.sweep"

LEARN = "induction.learn_template_tree"
PRUNE = "induction.prune_redundant_children"
EXTRACT = "induction.extract_slot_values"
MERGE_SLOTS = "induction.merge_similar_slots"
COLLAPSE = "induction.collapse_tree"
MERGE_ALL = "induction.merge_all"
TREE_DISTANCE = "tree.distance"
TREE_MERGE = "tree.merge_templates"
MERGE_DISTANCE = "merge.distance"
MERGE_MERGE = "merge.merge_templates"
ENUMERATE = "grammar.enumerate_language"
CELL = "evaluation.induce_grammar"

# The layer whose code runs in each span's own (self) time.
LAYER_OF = {
    LEARN: "tree",
    PRUNE: "tree",
    TREE_DISTANCE: "merge",
    TREE_MERGE: "merge",
    MERGE_DISTANCE: "merge",
    MERGE_MERGE: "merge",
    MERGE_ALL: "merge",
    EXTRACT: "induction",
    MERGE_SLOTS: "induction",
    COLLAPSE: "induction",
    CELL: "induction",
    INDUCE_ROOT: "induction",
    ENUMERATE: "grammar",
    SWEEP_ROOT: "evaluation",
}


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.missing_hooks: list[str] = []
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def install(self) -> None:
        for module_name, attr, summary in HOOKS:
            module = importlib.import_module(module_name)
            name = f"{module_name.rsplit('.', 1)[-1]}.{attr}"
            original = getattr(module, attr, None)
            if not callable(original):
                self.missing_hooks.append(name)
                continue
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(name, original, summary))

    def restore(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def _wrap(self, name, function, summary):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            span = [name, clock(), 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = function(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if summary is not None:
                span[4] = summary(args, result)
            return result

        return traced

    @contextmanager
    def span(self, name: str):
        span = [name, time.perf_counter(), 0.0, self._stack[-1] if self._stack else -1, None]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        try:
            yield
        finally:
            span[2] = time.perf_counter()
            self._stack.pop()

    def write(self, path: str) -> None:
        """One JSON array per line: name, start, end, parent line (-1 for a
        root, lines counted from 0) and the span's summary or null."""
        with open(path, "w", encoding="utf-8") as out:
            for span in self.spans:
                out.write(json.dumps(span) + "\n")


def layer_metrics(spans: list[list], cache_stats: dict[str, tuple[int, int]]) -> tuple[dict, list[str]]:
    """Per-layer metrics ``{name: (value, unit)}`` plus the names missing.

    ``cache_stats`` maps a cached function's name to its (hits, misses).
    """
    count = len(spans)
    duration = [s[2] - s[1] for s in spans]
    covered = [0.0] * count
    root = list(range(count))
    induction = [-1] * count
    for i, (name, _, _, parent, _) in enumerate(spans):
        if parent >= 0:
            covered[parent] += duration[i]
            root[i] = root[parent]
            induction[i] = induction[parent]
        if name in (INDUCE_ROOT, CELL):
            induction[i] = i
    own = [duration[i] - covered[i] for i in range(count)]
    by_name: dict[str, list[int]] = {}
    for i, span in enumerate(spans):
        by_name.setdefault(span[0], []).append(i)

    def fired(name: str) -> list[int]:
        return by_name.get(name, [])

    def total(name: str) -> float:
        return sum(duration[i] for i in fired(name))

    def first_slot_counts() -> list[tuple[int, int]]:
        firsts: dict[int, tuple[int, int]] = {}
        for i in fired(MERGE_SLOTS):
            firsts.setdefault(induction[i], spans[i][4])
        return list(firsts.values())

    in_op = [i for i in range(count) if spans[root[i]][0] in (INDUCE_ROOT, SWEEP_ROOT)]

    def layer_self(layer: str) -> float:
        return sum(own[i] for i in in_op if LAYER_OF.get(spans[i][0]) == layer)

    cell_times = sorted(duration[i] for i in fired(CELL))
    metrics: dict[str, tuple[float, str]] = {}
    missing: list[str] = []

    def put(metric: str, unit: str, needs: tuple[str, ...], compute) -> None:
        if all(fired(name) for name in needs):
            metrics[metric] = (compute(), unit)
        else:
            missing.append(metric)

    put("tree.learn_s", "s", (LEARN,), lambda: total(LEARN))
    put("tree.learn_self_s", "s", (LEARN,), lambda: sum(own[i] for i in fired(LEARN)))
    put("tree.pairs_scored", "count", (TREE_DISTANCE,), lambda: len(fired(TREE_DISTANCE)))
    put("tree.pairs_merged", "count", (TREE_MERGE,), lambda: len(fired(TREE_MERGE)))
    put("tree.pairs_used_ratio", "ratio", (TREE_DISTANCE, TREE_MERGE),
        lambda: len(fired(TREE_MERGE)) / len(fired(TREE_DISTANCE)))
    put("tree.prune_s", "s", (PRUNE,), lambda: total(PRUNE))
    put("tree.height", "count", (LEARN,), lambda: max(spans[i][4][0] for i in fired(LEARN)))
    put("tree.leaves", "count", (LEARN,), lambda: sum(spans[i][4][1] for i in fired(LEARN)))
    put("tree.self_s", "s", (LEARN, PRUNE), lambda: layer_self("tree"))

    put("merge.merge_templates_s", "s", (MERGE_MERGE,), lambda: total(MERGE_MERGE))
    put("merge.merge_templates_calls", "count", (MERGE_MERGE,), lambda: len(fired(MERGE_MERGE)))
    put("merge.distance_calls", "count", (TREE_DISTANCE, MERGE_DISTANCE),
        lambda: len(fired(TREE_DISTANCE)) + len(fired(MERGE_DISTANCE)))
    put("merge.merge_all_s", "s", (MERGE_ALL,), lambda: total(MERGE_ALL))
    put("merge.merge_all_calls", "count", (MERGE_ALL,), lambda: len(fired(MERGE_ALL)))
    put("merge.self_s", "s", (TREE_DISTANCE, MERGE_MERGE), lambda: layer_self("merge"))
    for metric, cached in (("merge.distance_cache_hit_ratio", "distance"),
                           ("merge.merge_all_cache_hit_ratio", "merge_all")):
        hits, misses = cache_stats.get(cached, (0, 0))
        if hits + misses:
            metrics[metric] = (hits / (hits + misses), "ratio")
        else:
            missing.append(metric)

    put("induction.merge_similar_slots_s", "s", (MERGE_SLOTS,), lambda: total(MERGE_SLOTS))
    put("induction.merge_similar_slots_calls", "count", (MERGE_SLOTS,), lambda: len(fired(MERGE_SLOTS)))
    put("induction.slots_before", "count", (MERGE_SLOTS,), lambda: sum(b for b, _ in first_slot_counts()))
    put("induction.slots_after", "count", (MERGE_SLOTS,), lambda: sum(a for _, a in first_slot_counts()))
    put("induction.collapse_s", "s", (COLLAPSE,), lambda: total(COLLAPSE))
    put("induction.collapse_self_s", "s", (COLLAPSE,), lambda: sum(own[i] for i in fired(COLLAPSE)))
    put("induction.extract_s", "s", (EXTRACT,), lambda: total(EXTRACT))
    put("induction.iterations", "count", (COLLAPSE,), lambda: len(fired(COLLAPSE)))
    put("induction.self_s", "s", (EXTRACT, MERGE_SLOTS, COLLAPSE), lambda: layer_self("induction"))

    put("grammar.enumerate_s", "s", (ENUMERATE,), lambda: total(ENUMERATE))
    put("grammar.enumerated_sentences", "count", (ENUMERATE,),
        lambda: sum(spans[i][4] for i in fired(ENUMERATE)))

    # Only the evaluation harness calls induce_grammar through this name.
    if cell_times:
        metrics["evaluation.cell_s_p50"] = (statistics.median(cell_times), "s")
        metrics["evaluation.cell_s_p90"] = (cell_times[math.ceil(0.9 * len(cell_times)) - 1], "s")
        metrics["evaluation.self_s"] = (layer_self("evaluation"), "s")
    return metrics, missing
