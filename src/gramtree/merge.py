"""Most specific common generalisation of two templates.

The merge aligns two templates (tokens match on text, slots match slots)
and turns every maximal run of unmatched elements into a single inserted
slot. The alignment is exact: a dynamic program with affine gap costs
(Gotoh, 1982) finds the most matches, then the smallest ``s_m - l_m``, then
the fewest slots, and a forward walk over its tables takes the leftmost
such alignment. A merge may not be longer than both inputs; in the rare
case that the best alignment breaks that bound, the same program, with the
merge elements still allowed as a budget, finds the best one that keeps it.
Both are exact on every input: no count of alignments is capped.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from heapq import heappop, heappush
from itertools import count
from math import inf
from typing import Callable, Hashable, Iterator, Sequence

from .template import (
    Element,
    Slot,
    Template,
    Token,
    slot_count,
    slot_ids,
    token_count,
)

Coverage = dict[int, tuple[Element, ...]]
Pairs = tuple[tuple[int, int], ...]
Keys = tuple[str | None, ...]
Score = Callable[[int, int, int], int]


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
    flipped = t2.canonical_key < t1.canonical_key
    if flipped:
        t1, t2 = t2, t1
    pairs, _ = _alignment(t1, t2)
    elements, cov1, cov2 = _build(t1.elements, t2.elements, pairs)
    return MergeResult(Template(tuple(elements)), (cov2, cov1) if flipped else (cov1, cov2))


# Cached because collapse re-scores the pairs that tree learning scored.
@lru_cache(maxsize=1 << 15)
def distance(t1: Template, t2: Template) -> int:
    """Merge-based distance: max(l1, l2) - l_m + s_m - min(s1, s2).

    ``l_m`` and ``s_m`` are counted on the alignment; the merge is not built.
    """
    if t2.canonical_key < t1.canonical_key:
        t1, t2 = t2, t1
    _, slots_minus_tokens, _ = _rank(*_alignment(t1, t2), t1.match_keys)
    return (
        max(token_count(t1), token_count(t2))
        + slots_minus_tokens
        - min(slot_count(t1), slot_count(t2))
    )


def distance_lower_bound(t1: Template, t2: Template) -> int:
    """A cheap lower bound on ``distance(t1, t2)``, symmetric in its inputs.

    ``L``, the longest common subsequence of the two token sequences (slots
    removed), bounds the merge's tokens: ``l_m <= L``. If ``L`` is below
    ``top = max(l1, l2)``, some token is unmatched and forces a gap, and every
    gap is a slot of the merge. So ``distance >= top - L + (L < top) -
    min(s1, s2)``; the length-bounded alignment only lowers ``l_m``. ``L``
    comes from the bit-parallel LCS-length recurrence over Python ints
    (Allison & Dix, 1986; Hyyrö, 2004): one pass over the shorter sequence,
    with the longer one's positions as bits.
    """
    l1, l2 = token_count(t1), token_count(t2)
    if l1 < l2:
        t1, t2, l1, l2 = t2, t1, l2, l1
    masks = t1.token_masks
    full = (1 << l1) - 1
    v = full  # the zero bits of v count the LCS so far
    for key in t2.match_keys:
        if key is not None:
            u = v & masks.get(key, 0)
            v = ((v + u) | (v - u)) & full
    lcs = l1 - v.bit_count()
    return l1 - lcs + (lcs < l1) - min(slot_count(t1), slot_count(t2))


# Cached because collapse re-scores the pairs that tree learning scored.
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

    ka, kb = t1.match_keys[lo : n - hi], t2.match_keys[lo : m - hi]

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
    core, gaps = _bounded_alignment(ka, kb)
    trimmed = (untrimmed(core), gaps)
    if lo == hi == 0:
        return trimmed
    # Under the length bound an identical end may be better left unmatched
    # (`a b b b a a a <B> <A>` against `b <A> b b <A> a <A> <B> <A>`: an `a`
    # matches in place of the end `<B>`), so the whole templates are tried
    # too; they win only when strictly better.
    keys = t1.match_keys
    whole = _bounded_alignment(keys, t2.match_keys)
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
    _, gap, values = _weights(ka, m)

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

    return _forward_walk(ka, kb, values, gap, lambda i, j, r: f[i][j], room=0)


def _weights(ka: Keys, m: int) -> tuple[int, int, list[int]]:
    """The score weights of ``_best_alignment``: ``w1``, ``gap`` and each key's match value."""
    w2 = len(ka) + m + 2
    w1 = (2 * (len(ka) + m) + 2) * w2
    return w1, w2 + 1, [w1 - 2 * w2 - 1 if x is None else w1 for x in ka]


def _forward_walk(ka: Keys, kb: Keys, values: list[int], gap: int, score: Score, room: int) -> Pairs:
    """The leftmost best alignment, read forward off a filled score table.

    ``score(i, j, r)`` is the best score of aligning ``ka[i:]`` with
    ``kb[j:]`` in at most ``r`` merge elements (a match uses one, a gap one
    more); it is positive iff a match remains. Every step takes the first
    match in lexicographic order that still completes a best alignment: the
    next pair, else the first one past a gap.
    """
    positions: dict[str | None, list[int]] = {}
    for q, y in enumerate(kb):
        positions.setdefault(y, []).append(q)
    pairs: list[tuple[int, int]] = []
    i = j = 0
    r = room
    while (want := score(i, j, r)) > 0:
        if ka[i] == kb[j] and values[i] + score(i + 1, j + 1, r - 1) == want:
            p, q, r = i, j, r - 1
        else:
            p, q = next(
                (p, q)
                for p in range(i, len(ka))
                for q in positions.get(ka[p], ())
                if q >= j and values[p] + score(p + 1, q + 1, r - 2) == want + gap
            )
            r -= 2
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
    """The exact best alignment whose merge is no longer than the longer input.

    The program of ``_best_alignment`` with a budget, the merge elements
    still allowed: a match or a gap uses one. A cell holds the Pareto front
    of ``(elements, -score)`` over its sub-alignments, fewest elements first.
    """
    n, m = len(ka), len(kb)
    room = max(n, m)
    w1, gap, values = _weights(ka, m)

    def front(options: list[tuple[int, int]], floor: int) -> list[tuple[int, int]]:
        # Every path reaches the cell with at least ``floor`` elements left,
        # so of the options within ``floor`` only the best one counts.
        kept: list[tuple[int, int]] = []
        for used, loss in sorted(options):
            if not kept or loss < kept[-1][1]:
                if used <= floor:
                    kept.clear()
                kept.append((used, loss))
        return kept

    # f and g as in _best_alignment, as fronts; a gap uses its element where
    # it closes. A path uses at most 2 * min(i, j) elements before (i, j).
    last_gap = [(1, gap)]
    f = [[last_gap] * (m + 1) for _ in range(n + 1)]
    f[n][m] = [(0, 0)]
    g_next = [last_gap] * (m + 1)
    for i in range(n - 1, -1, -1):
        x, value = ka[i], values[i]
        f_row, f_next = f[i], f[i + 1]
        g_row = [last_gap] * (m + 1)
        carry = last_gap
        for j in range(m - 1, -1, -1):
            floor = room - 2 * min(i, j)
            below = g_next[j]
            in_gap = below if below is carry else front(below + carry, floor)
            if x == kb[j]:
                after = f_next[j + 1]
                here = [(used + 1, loss - value) for used, loss in after]
                f_row[j] = front(in_gap + here, floor)
                here = [(used + 2, loss - value + gap) for used, loss in after]
                in_gap = front(in_gap + here, floor)
            else:
                f_row[j] = in_gap
            g_row[j] = carry = in_gap
        g_next = g_row

    def score(i: int, j: int, r: int) -> int:
        # The best score within ``r`` elements, or one below every real score.
        return -min((loss for used, loss in f[i][j] if used <= r), default=(n + m + 2) * w1)

    core = _forward_walk(ka, kb, values, gap, score, room)
    return core, _gap_count(core, n, m)


def _build(
    a: tuple[Element, ...],
    b: tuple[Element, ...],
    pairs: Pairs,
) -> tuple[list[Element], Coverage, Coverage]:
    """Turn one alignment into a merged element list plus slot coverages."""
    fresh = count(max((e.uid for e in a + b if isinstance(e, Slot)), default=-1) + 1)
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


class PairQueue:
    """The closest pairs of live templates, scored lazily (lazy greedy; Minoux, 1978).

    ``add`` queues a template against every live one with
    ``distance_lower_bound``. ``pop`` computes a pair's exact ``score`` only
    when its entry reaches the top with both ids still in ``live``, and
    drops the entries of ids that are gone unscored, so most queued pairs
    are never scored. An id deleted from ``live`` and added again brings
    back its entries not yet dropped.

    Pairs come out in ``(value, canonical keys, ids)`` order, the smaller
    id first, and ``score`` sees them in id order. At equal value every
    bound sorts before every exact entry, so an exact entry on top is the
    closest live pair, and the bounds before it were all scored or dropped,
    in whatever order: bounds break ties on queue order alone.
    """

    def __init__(self, score: Callable[[Template, Template], int]) -> None:
        self.live: dict[Hashable, Template] = {}
        self._score = score
        # (bound, 0, queued, older id, newer id) or (value, 1, kmin, kmax, min id, max id)
        self._heap: list[tuple] = []
        self._queued = count()

    def add(self, ident: Hashable, template: Template) -> None:
        """Make ``template`` live as ``ident`` and queue it against every live template."""
        heap, queued = self._heap, self._queued
        for other, t in self.live.items():
            heappush(heap, (distance_lower_bound(t, template), 0, next(queued), other, ident))
        self.live[ident] = template

    def pop(self, limit: float = inf) -> tuple[int, Hashable, Hashable] | None:
        """The closest live pair ``(value, id, id)`` within ``limit``, ids ascending, or None."""
        heap, live = self._heap, self.live
        while heap and heap[0][0] <= limit:
            entry = heappop(heap)
            a, b = entry[-2], entry[-1]
            if a not in live or b not in live:
                continue
            if entry[1]:
                return entry[0], a, b
            if b < a:
                a, b = b, a
            t, u = live[a], live[b]
            k, ku = t.canonical_key, u.canonical_key
            kmin, kmax = (k, ku) if k <= ku else (ku, k)
            heappush(heap, (self._score(t, u), 1, kmin, kmax, a, b))
        return None


# Cached because each induction round's collapse recalculates mostly the same child tuples.
@lru_cache(maxsize=1 << 12)
def merge_all(templates: tuple[Template, ...]) -> Template:
    """Fold templates into one by repeatedly merging the closest pair.

    The closest pair comes from a :class:`PairQueue`: ties break on
    canonical template order, then insertion order. Slot ids inherited from
    the inputs survive; inserted slots get ids above every input id,
    assigned deterministically, so the result is a pure function of the
    input tuple.
    """
    if not templates:
        raise ValueError("merge_all requires at least one template")
    fresh = count(max((uid for t in templates for uid in slot_ids(t)), default=-1) + 1)
    seqs = count()
    queue = PairQueue(distance)
    for t in templates:
        queue.add(next(seqs), t)
    live = queue.live
    while len(live) > 1:
        _, s1, s2 = queue.pop()
        pair = (live.pop(s1), live.pop(s2))
        queue.add(next(seqs), remap_new_slots(merge_templates(*pair).merged, pair, fresh))
    return next(iter(live.values()))
