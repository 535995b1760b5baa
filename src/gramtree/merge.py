"""Most specific common generalisation of two templates.

The merge aligns two templates (tokens match on text, slots match slots)
and turns every maximal run of unmatched elements into a single inserted
slot. The alignment is exact: a dynamic program with affine gap costs
(Gotoh, 1982) finds the most matches, then the smallest ``s_m - l_m``, then
the fewest slots, and a forward walk over its tables takes the leftmost
such alignment. A merge may not be longer than both inputs; only in the
rare case that the best alignment breaks that bound does a capped
enumeration of alignments by descending size take over, ending at the
single slot that covers both inputs.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from heapq import heappop, heappush
from itertools import count
from typing import Iterator, Sequence

from .template import (
    Element,
    Slot,
    Template,
    Token,
    canonical_key,
    match_keys,
    slot_count,
    slot_ids,
    token_count,
)

# Alignments per size that the length-bound fallback tries.
ALIGNMENT_CAP = 64

Coverage = dict[int, tuple[Element, ...]]
Pairs = tuple[tuple[int, int], ...]
Keys = tuple[str | None, ...]


@dataclass(frozen=True, eq=False)
class MergeResult:
    """A merged template plus, per input, what each of its slots covers."""

    merged: Template
    alignments: tuple[Coverage, Coverage]


def merge_templates(t1: Template, t2: Template) -> MergeResult:
    """Merge two templates into their most specific common generalisation.

    Both inputs are recoverable from the result by substituting each slot
    with the element run recorded for it in ``alignments``.
    """
    flipped = canonical_key(t2) < canonical_key(t1)
    if flipped:
        t1, t2 = t2, t1
    pairs, _ = _alignment(t1, t2)
    elements, cov1, cov2 = _build(t1.elements, t2.elements, pairs)
    return MergeResult(Template(tuple(elements)), (cov2, cov1) if flipped else (cov1, cov2))


@lru_cache(maxsize=1 << 15)
def distance(t1: Template, t2: Template) -> int:
    """Merge-based distance: max(l1, l2) - l_m + s_m - min(s1, s2).

    ``l_m`` and ``s_m`` are counted on the alignment; the merge is not built.
    """
    if canonical_key(t2) < canonical_key(t1):
        t1, t2 = t2, t1
    _, slots_minus_tokens, _ = _rank(*_alignment(t1, t2), match_keys(t1))
    return (
        max(token_count(t1), token_count(t2))
        + slots_minus_tokens
        - min(slot_count(t1), slot_count(t2))
    )


@lru_cache(maxsize=1 << 15)
def _alignment(t1: Template, t2: Template) -> tuple[Pairs, int]:
    """The merge alignment of two templates, ``t1`` first in canonical order.

    Returns the matched ``(i, j)`` element index pairs, ascending, and the
    number of gaps (maximal runs of unmatched elements) between them.
    """
    a, b = t1.elements, t2.elements
    n, m = len(a), len(b)

    # Identical ends never hurt a best alignment that meets the length
    # bound; trimming them keeps the DP quadratic only in the differing core.
    lo = 0
    while lo < n and lo < m and a[lo] == b[lo]:
        lo += 1
    hi = 0
    while hi < n - lo and hi < m - lo and a[n - 1 - hi] == b[m - 1 - hi]:
        hi += 1

    ka, kb = match_keys(t1)[lo : n - hi], match_keys(t2)[lo : m - hi]

    def untrimmed(core: Pairs) -> Pairs:
        return (
            tuple((i, i) for i in range(lo))
            + tuple((i + lo, j + lo) for i, j in core)
            + tuple((n - hi + k, m - hi + k) for k in range(hi))
        )

    core = _best_alignment(ka, kb)
    gaps = _gap_count(core, len(ka), len(kb))
    if len(core) + gaps <= max(len(ka), len(kb)):
        return untrimmed(core), gaps
    # Under the length bound an identical end may be better left unmatched,
    # so the whole templates are tried too; they win only when strictly
    # better.
    core, gaps = _bounded_alignment(ka, kb)
    trimmed = (untrimmed(core), gaps)
    keys = match_keys(t1)
    whole = _bounded_alignment(keys, match_keys(t2))
    return whole if _rank(*whole, keys) < _rank(*trimmed, keys) else trimmed


def _best_alignment(ka: Keys, kb: Keys) -> Pairs:
    """The leftmost of the best alignments of two match-key sequences.

    Elements align iff their keys (token text, or None for a slot) are
    equal. One integer score orders alignments: each match is worth ``w1``,
    more than any cost, and the costs rank the merge's ``s_m - l_m``, then
    its slot count: a matched slot costs ``2 * w2 + 1``, a gap ``w2 + 1``.
    The length bound on merges is not applied here.
    """
    n, m = len(ka), len(kb)
    w2 = n + m + 2
    w1 = (2 * (n + m) + 2) * w2
    gap = w2 + 1
    values = [w1 - 2 * w2 - 1 if x is None else w1 for x in ka]

    # f[i][j]: best score of aligning ka[i:] with kb[j:] at the start or just
    # after a match. g_row[j] holds the same score inside a gap, whose cost
    # is paid when it closes; only the row below is kept. Opening a gap at
    # (i, j) scores as being inside one there.
    f = [[-gap] * (m + 1) for _ in range(n + 1)]
    f[n][m] = 0
    g_next = [-gap] * (m + 1)
    for i in range(n - 1, -1, -1):
        x, value = ka[i], values[i]
        f_row, f_next = f[i], f[i + 1]
        g_row = [-gap] * (m + 1)
        carry = -gap
        for j in range(m - 1, -1, -1):
            in_gap = g_next[j] if g_next[j] >= carry else carry
            if x == kb[j]:
                here = value + f_next[j + 1]
                f_row[j] = here if here > in_gap else in_gap
                if here - gap > in_gap:
                    in_gap = here - gap
            else:
                f_row[j] = in_gap
            g_row[j] = carry = in_gap
        g_next = g_row

    # Walk forward taking, at every step, the first match in lexicographic
    # order that still completes a best alignment: the next pair, else the
    # first one past a gap.
    positions: dict[str | None, list[int]] = {}
    for q, y in enumerate(kb):
        positions.setdefault(y, []).append(q)
    pairs: list[tuple[int, int]] = []
    i = j = 0
    for _ in range(-(-f[0][0] // w1)):  # the matches of every best alignment
        if ka[i] == kb[j] and values[i] + f[i + 1][j + 1] == f[i][j]:
            p, q = i, j
        else:
            want = f[i][j] + gap
            p, q = next(
                (p, q)
                for p in range(i, n)
                for q in positions.get(ka[p], ())
                if q >= j and values[p] + f[p + 1][q + 1] == want
            )
        pairs.append((p, q))
        i, j = p + 1, q + 1
    return tuple(pairs)


def _gap_count(core: Pairs, n: int, m: int) -> int:
    """Maximal runs of unmatched elements around the matched pairs."""
    gaps = 0
    i = j = 0
    for p, q in core:
        if p > i or q > j:
            gaps += 1
        i, j = p + 1, q + 1
    return gaps + (i < n or j < m)


def _rank(pairs: Pairs, gaps: int, ka: Keys) -> tuple[int, int, int]:
    """Sort key of an alignment, best first.

    Most matches, then the merge's least ``s_m - l_m``, then its fewest
    slots ``s_m``.
    """
    slots = sum(1 for i, _ in pairs if ka[i] is None) + gaps
    return (-len(pairs), 2 * slots - len(pairs) - gaps, slots)


def _bounded_alignment(ka: Keys, kb: Keys) -> tuple[Pairs, int]:
    """Best alignment whose merge is no longer than the longer input.

    Tries alignments by descending size, the leftmost ``ALIGNMENT_CAP`` of
    each size, and degrades to the single slot covering both inputs.
    """
    room = max(len(ka), len(kb))
    dp = _lcs_table(ka, kb)
    for size in range(dp[0][0], 0, -1):
        best: tuple[tuple[int, int, int], Pairs, int] | None = None
        for core in _matchings_of_size(dp, ka, kb, size):
            gaps = _gap_count(core, len(ka), len(kb))
            if size + gaps > room:
                continue
            rank = _rank(core, gaps, ka)
            if best is None or rank < best[0]:
                best = (rank, core, gaps)
        if best is not None:
            return best[1], best[2]
    return (), 1


def _fresh_base(a: tuple[Element, ...], b: tuple[Element, ...]) -> int:
    ids = [e.uid for e in a if isinstance(e, Slot)]
    ids += [e.uid for e in b if isinstance(e, Slot)]
    return max(ids, default=-1) + 1


def _build(
    a: tuple[Element, ...],
    b: tuple[Element, ...],
    pairs: Pairs,
) -> tuple[list[Element], Coverage, Coverage]:
    """Turn one alignment into a merged element list plus slot coverages."""
    fresh = count(_fresh_base(a, b))
    elements: list[Element] = []
    cov1: Coverage = {}
    cov2: Coverage = {}

    def emit_gap(run1: tuple[Element, ...], run2: tuple[Element, ...]) -> None:
        if run1 or run2:
            uid = next(fresh)
            elements.append(Slot(uid))
            cov1[uid] = run1
            cov2[uid] = run2

    i = j = 0
    for mi, mj in pairs:
        emit_gap(a[i:mi], b[j:mj])
        x, y = a[mi], b[mj]
        if isinstance(x, Token):
            elements.append(x)
        else:
            assert isinstance(y, Slot)
            uid = x.uid if x.uid == y.uid and x.uid not in cov1 else next(fresh)
            elements.append(Slot(uid))
            cov1[uid] = (x,)
            cov2[uid] = (y,)
        i, j = mi + 1, mj + 1
    emit_gap(a[i:], b[j:])
    return elements, cov1, cov2


def _lcs_table(ka: Keys, kb: Keys) -> list[list[int]]:
    """dp[i][j] = longest common subsequence length of ka[i:], kb[j:].

    Inputs are per-element match keys (token text, or None for a slot);
    elements align iff their keys are equal.
    """
    n, m = len(ka), len(kb)
    dp = [[0] * (m + 1) for _ in range(n + 1)]
    for i in range(n - 1, -1, -1):
        row, below = dp[i], dp[i + 1]
        x = ka[i]
        for j in range(m - 1, -1, -1):
            here = below[j] if below[j] >= row[j + 1] else row[j + 1]
            if x == kb[j] and below[j + 1] + 1 > here:
                here = below[j + 1] + 1
            row[j] = here
    return dp


def _matchings_of_size(
    dp: list[list[int]],
    ka: Keys,
    kb: Keys,
    size: int,
    cap: int = ALIGNMENT_CAP,
) -> list[Pairs]:
    """All alignments of exactly ``size`` matches, leftmost first, capped."""
    n, m = len(ka), len(kb)
    results: list[Pairs] = []
    acc: list[tuple[int, int]] = []

    def walk(i: int, j: int, need: int) -> None:
        if len(results) >= cap:
            return
        if need == 0:
            results.append(tuple(acc))
            return
        for i2 in range(i, n):
            if dp[i2][j] < need:
                break
            x = ka[i2]
            row_next = dp[i2 + 1]
            for j2 in range(j, m):
                if dp[i2][j2] < need:
                    break
                if x == kb[j2] and row_next[j2 + 1] >= need - 1:
                    acc.append((i2, j2))
                    walk(i2 + 1, j2 + 1, need - 1)
                    acc.pop()
                    if len(results) >= cap:
                        return

    walk(0, 0, size)
    return results


def remap_new_slots(
    merged: Template,
    sources: Sequence[Template],
    fresh_ids: Iterator[int],
) -> Template:
    """Re-id the slots of ``merged`` that were not inherited from ``sources``.

    Merging assigns locally fresh ids; callers that maintain a pool of
    templates use this to keep slot ids unique across the whole pool.
    """
    inherited = {uid for t in sources for uid in slot_ids(t)}
    mapping: dict[int, int] = {}
    elements: list[Element] = []
    for e in merged.elements:
        if isinstance(e, Slot) and e.uid not in inherited:
            if e.uid not in mapping:
                mapping[e.uid] = next(fresh_ids)
            elements.append(Slot(mapping[e.uid]))
        else:
            elements.append(e)
    return Template(tuple(elements))


@lru_cache(maxsize=1 << 12)
def merge_all(templates: tuple[Template, ...]) -> Template:
    """Fold templates into one by repeatedly merging the closest pair.

    Ties break on canonical template order, then insertion order. Slot ids
    inherited from the inputs survive; inserted slots get ids above every
    input id, assigned deterministically, so the result is a pure function
    of the input tuple.
    """
    if not templates:
        raise ValueError("merge_all requires at least one template")
    fresh = count(max((uid for t in templates for uid in slot_ids(t)), default=-1) + 1)
    alive: dict[int, Template] = dict(enumerate(templates))
    heap: list[tuple[int, tuple, tuple, int, int]] = []

    def push_pairs(seq: int, others: Sequence[int]) -> None:
        t = alive[seq]
        k = canonical_key(t)
        for other in others:
            u = alive[other]
            ku = canonical_key(u)
            kmin, kmax = (k, ku) if k <= ku else (ku, k)
            heappush(heap, (distance(t, u), kmin, kmax, min(seq, other), max(seq, other)))

    seqs = list(alive)
    for pos, seq in enumerate(seqs):
        push_pairs(seq, seqs[pos + 1 :])

    next_seq = len(templates)
    while len(alive) > 1:
        _, _, _, s1, s2 = heappop(heap)
        if s1 not in alive or s2 not in alive:
            continue
        merged = merge_templates(alive[s1], alive[s2]).merged
        merged = remap_new_slots(merged, (alive[s1], alive[s2]), fresh)
        del alive[s1], alive[s2]
        alive[next_seq] = merged
        push_pairs(next_seq, [s for s in alive if s != next_seq])
        next_seq += 1
    return next(iter(alive.values()))
