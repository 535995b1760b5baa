"""Most specific common generalisation of two templates.

The merge aligns two templates (tokens match on text, slots match slots)
and turns every maximal run of unmatched elements into a single inserted
slot. The alignment is exact: a dynamic program with affine gap costs
(Gotoh, 1982) finds the most matches, then the smallest ``s_m - l_m``, then
the fewest slots, and a forward walk over its tables takes the leftmost
such alignment and counts its gaps. A merge may not be longer than both
inputs. The program's best score encodes the counts of a best alignment,
so the distance builds no alignment where that bound holds. Where it
breaks, the same program, with the merge elements as a budget, finds the
best alignment that keeps it: on the whole templates, and on their
differing core too where the whole one leaves an identical end unmatched.
Both are exact on every input: no count of alignments is capped.

Scores read only match keys, so the queue scores slot-blind shapes and the
distance memo hits on pairs that differ only in slot ids. The program fills
only the diagonals a max-match alignment can use, from one bit-parallel LCS.

Tree learning and ``merge_all`` merge the pairs a ``PairQueue`` pops; a pop
takes both templates. The queue bounds each new template against all queued
ones in one packed LCS pass and scores a pair only when its bound is on top.
It keeps each template's shape and counts, and packs its token bit masks
from the match keys: a template itself keeps none of them.
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
    remap_new_slots,
    slot_count,
    slot_ids,
    token_count,
)

Coverage = dict[int, tuple[Element, ...]]
Pairs = tuple[tuple[int, int], ...]
Alignment = tuple[Pairs, int]  # matched (i, j) pairs, ascending, and the runs of unmatched elements
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
# ``PairQueue`` passes a pair's shapes, so pairs that differ only in slot
# ids hit, and in the merge's order: a length-bound pair's score and merge
# read one bounded alignment.
@lru_cache(maxsize=1 << 15)
def distance(t1: Template, t2: Template) -> int:
    """Merge-based distance: max(l1, l2) - l_m + s_m - min(s1, s2).

    ``l_m`` and ``s_m`` are read off the best score of the alignment
    program, which encodes the rank of every best alignment; neither the
    alignment nor the merge is built. Where a best alignment breaks the
    length bound, the rank is that of the whole templates' bounded
    alignment, the best within the bound. Only match keys are read:
    templates score as their shapes.
    """
    keys = t1.match_keys
    lo, hi = _trimmed_ends(keys, t2.match_keys)
    ka, kb = keys[lo : len(keys) - hi], t2.match_keys[lo : len(t2) - hi]
    w1, gap, values = _weights(ka, len(kb))
    for row in _score_rows(ka, kb, values, gap):
        pass
    if (counts := _counts(row[0], w1, gap, max(len(ka), len(kb)))) is None:
        _, slots_minus_tokens, _ = _rank(*_alignment(t1, t2, bounded=True), keys)
    else:
        matches, slots, gaps = counts
        slots += keys[:lo].count(None) + keys[len(keys) - hi :].count(None)
        slots_minus_tokens = 2 * slots - (matches + lo + hi) - gaps
    return (
        max(token_count(t1), token_count(t2))
        + slots_minus_tokens
        - min(slot_count(t1), slot_count(t2))
    )


# Cached because collapse re-merges the pairs that tree learning merged,
# and a length-bound pair's score and merge both read its shapes' bounded
# alignment.
@lru_cache(maxsize=1 << 15)
def _alignment(t1: Template, t2: Template, bounded: bool = False) -> Alignment:
    """The merge alignment of two templates, ``t1`` first in canonical order.

    With ``bounded``, the length-bounded alignment of the whole templates.
    """
    if bounded:
        return _bounded_alignment(t1.match_keys, t2.match_keys)
    n, m = len(t1), len(t2)
    lo, hi = _trimmed_ends(t1.elements, t2.elements)
    keys = t1.match_keys
    ka, kb = keys[lo : n - hi], t2.match_keys[lo : m - hi]

    def untrimmed(core: Pairs) -> Pairs:
        return (
            tuple((i, i) for i in range(lo))
            + tuple((i + lo, j + lo) for i, j in core)
            + tuple((n - hi + k, m - hi + k) for k in range(hi))
        )

    w1, gap, values = _weights(ka, len(kb))
    f = list(_score_rows(ka, kb, values, gap))[::-1]
    if _counts(f[0][0], w1, gap, max(len(ka), len(kb))) is not None:
        core, gaps = _forward_walk(ka, kb, values, gap, lambda i, j, r: f[i][j], room=0)
        return untrimmed(core), gaps
    # Under the length bound an identical end may be better left unmatched
    # (`a b b b a a a <B> <A>` against `b <A> b b <A> a <A> <B> <A>`: an `a`
    # matches in place of the end `<B>`), so the whole templates go first.
    # If their alignment matches every end in place it is also the core's:
    # both are leftmost best, and ranks differ by a constant on such
    # alignments. Else the core's wins unless the whole one is strictly better.
    whole = _alignment(_shape(t1), _shape(t2), bounded=True)
    if whole[0][:lo] + whole[0][len(whole[0]) - hi :] == untrimmed(()):
        return whole
    core, gaps = _bounded_alignment(ka, kb)
    trimmed = (untrimmed(core), gaps)
    return whole if _rank(*whole, keys) < _rank(*trimmed, keys) else trimmed


def _shape(template: Template) -> Template:
    """The template with every slot as ``Slot(0)``, or itself if that changes nothing.

    The distance reads only match keys, so it keys its memo on shapes:
    templates that differ only in slot ids share one score.
    """
    slot = Slot(0)
    elements = tuple([slot if isinstance(e, Slot) else e for e in template.elements])
    return template if elements == template.elements else Template(elements)


def _trimmed_ends(a: Sequence, b: Sequence) -> tuple[int, int]:
    """Lengths of the identical prefix and suffix of two sequences.

    Ends with identical match keys never hurt a best alignment that meets
    the length bound; trimming them keeps the DP quadratic only in the
    differing core.
    """
    n, m = len(a), len(b)
    lo = 0
    while lo < n and lo < m and a[lo] == b[lo]:
        lo += 1
    hi = 0
    while hi < n - lo and hi < m - lo and a[n - 1 - hi] == b[m - 1 - hi]:
        hi += 1
    return lo, hi


def _score_rows(ka: Keys, kb: Keys, values: list[int], gap: int) -> Iterator[list[int]]:
    """The rows of the alignment score table, bottom up: f[n], ..., f[0].

    f[i][j]: best score of aligning ka[i:] with kb[j:] at the start or just
    after a match. g_row[j] holds the same score inside a gap, whose cost
    is paid when it closes; only the row below is kept. Opening a gap at
    (i, j) scores as being inside one there.

    A best alignment has ``M`` matches, the LCS of the keys, so it keeps to
    the diagonals ``-(m - M) <= i - j <= n - M`` (Ukkonen, 1985), the band
    filled. Other cells keep ``-gap``, a gap to the end, a lower bound:
    every cell on a best path holds its exact score.
    """
    n, m = len(ka), len(kb)
    masks: dict[str | None, int] = {}
    for q, y in enumerate(kb):
        masks[y] = masks.get(y, 0) | 1 << q
    above = m - _lcs_bits(ka, masks, (1 << m) - 1).bit_count()  # m - M
    below = n - m + above  # n - M
    f_next = [-gap] * m + [0]
    yield f_next
    g_next = [-gap] * (m + 1)
    for i in range(n - 1, -1, -1):
        x, value = ka[i], values[i]
        f_row = [-gap] * (m + 1)
        g_row = [-gap] * (m + 1)
        carry = -gap
        for j in range(min(m - 1, i + above), max(-1, i - below - 1), -1):
            in_gap = g_next[j]
            if in_gap < carry:
                in_gap = carry
            if x == kb[j]:
                here = value + f_next[j + 1]
                f_row[j] = here if here > in_gap else in_gap
                if here - gap > in_gap:
                    in_gap = here - gap
            else:
                f_row[j] = in_gap
            g_row[j] = carry = in_gap
        yield f_row
        f_next, g_next = f_row, g_row


def _lcs_bits(keys: Keys, masks: dict[str | None, int], full: int) -> int:
    """Bit-parallel LCS of ``keys`` with each sequence packed in ``masks`` (Hyyrö, 2004).

    ``masks`` maps a key to its positions, bits of ``full``. Each sequence's
    bits of the result count its LCS with ``keys``.
    """
    v = full
    for key in keys:
        if mask := masks.get(key):
            u = v & mask
            v = ((v + u) | (v - u)) & full
    return full ^ v


def _weights(ka: Keys, m: int) -> tuple[int, int, list[int]]:
    """The score weights: ``w1``, ``gap`` and each key's match value.

    Elements align iff their keys (token text, or None for a slot) are
    equal. One integer score orders alignments: each match is worth ``w1``,
    more than any cost, and the costs rank the merge's ``s_m - l_m``, then
    its slot count: a matched slot costs ``2 * w2 + 1``, a gap ``w2 + 1``.
    """
    w2 = len(ka) + m + 2
    w1 = (2 * (len(ka) + m) + 2) * w2
    return w1, w2 + 1, [w1 - 2 * w2 - 1 if x is None else w1 for x in ka]


def _counts(best: int, w1: int, gap: int, room: int) -> tuple[int, int, int] | None:
    """``(matches, slots, gaps)`` of a best alignment, or None if its merge is longer than ``room``.

    The best score is matches * w1 - cost with 0 <= cost < w1 and
    cost = w2 * (slots + matched slots) + slots, where w2 = gap - 1 is more
    than the merge's slots: its gaps plus its matched slots.
    """
    matches = -(-best // w1)
    slots_and_matched_slots, slots = divmod(matches * w1 - best, gap - 1)
    gaps = 2 * slots - slots_and_matched_slots
    return None if matches + gaps > room else (matches, slots, gaps)


def _forward_walk(ka: Keys, kb: Keys, values: list[int], gap: int, score: Score, room: int) -> Alignment:
    """The leftmost best alignment and its gaps, read forward off a filled score table.

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
    i = j = gaps = 0
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
            gaps += 1
        pairs.append((p, q))
        i, j = p + 1, q + 1
    return tuple(pairs), gaps + (i < len(ka) or j < len(kb))


def _rank(pairs: Pairs, gaps: int, ka: Keys) -> tuple[int, int, int]:
    """Sort key of an alignment, best first.

    Most matches, then the merge's least ``s_m - l_m``, then its fewest
    slots ``s_m``.
    """
    slots = sum(1 for i, _ in pairs if ka[i] is None) + gaps
    return (-len(pairs), 2 * slots - len(pairs) - gaps, slots)


def _bounded_alignment(ka: Keys, kb: Keys) -> Alignment:
    """The exact best alignment whose merge is no longer than the longer input.

    The alignment program with a budget, the merge elements still allowed:
    a match or a gap uses one. A cell holds the Pareto front of
    ``(elements, -score)`` over its sub-alignments, fewest elements first.
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

    # f and g as in _score_rows, as fronts; a gap uses its element where
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

    return _forward_walk(ka, kb, values, gap, score, room)


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


_POPCOUNTS = bytes(byte.bit_count() for byte in range(256))


class PairQueue:
    """Live templates by id, and their closest pairs (lazy greedy; Minoux, 1978).

    ``add`` queues a template against every live one with a lower bound on
    their distance. ``pop`` takes the closest live pair, whose ids stop
    being live. It scores a pair exactly only when its entry reaches the
    top with both templates live and drops unscored the entries of ones
    taken or added again since: most pairs are never scored, none twice.

    The bound: ``L``, the longest common subsequence of the two token
    sequences (slots removed), bounds the merge's tokens, ``l_m <= L``. If
    ``L`` is below ``top = max(l1, l2)``, some token is unmatched and forces
    a gap, and every gap is a slot of the merge. So ``distance >= top - L +
    (L < top) - min(s1, s2)``; the length-bounded alignment only lowers
    ``l_m``. All the ``L`` of a new template come from one ``_lcs_bits``
    pass, with the token masks of every queued template packed side by
    side in one int (Hyyrö, Fredriksson & Navarro, 2005). A field
    is ``8 * width`` bits and its top bit stays zero, so no carry crosses
    into the next field. Fields are widened when a longer template arrives
    and repacked when dead ones outnumber the live.

    One heap holds both kinds of entry. A bound entry groups the live
    templates that an add bounds alike against the new one: ``(bound, 0,
    sequence number, field, others)``. A scored pair is ``(value, 1,
    canonical keys, ids, sequence numbers)``, the smaller id first.
    ``score`` sees the two shapes in their templates' canonical order, so
    pairs that differ only in slot ids score alike. Bounds sort before
    scored pairs of equal value, so every bound at a value is scored or
    dropped before a pair at that value comes out: a scored pair on top is
    the closest live pair.
    Pairs come out in ``(value, canonical keys, ids)`` order.
    """

    def __init__(self, score: Callable[[Template, Template], int]) -> None:
        self._score = score
        # One field per add: (sequence number, id, template, tokens, slots, shape).
        self._seqs = count()
        self._live: dict[Hashable, int] = {}  # live id -> the sequence number of its add
        self._alive: set[int] = set()  # the sequence numbers of the live fields
        self._fields: list[tuple] = []  # in packed order
        self._width = 1  # bytes per packed field
        self._masks: dict[str, int] = {}  # token text -> its packed positions
        self._full = 0  # every packed token position
        self._heap: list[tuple] = []  # bound groups and scored pairs

    def __len__(self) -> int:
        return len(self._live)

    def __contains__(self, ident: Hashable) -> bool:
        return ident in self._live

    def __iter__(self) -> Iterator[Hashable]:
        return iter(self._live)

    def add(self, ident: Hashable, template: Template) -> None:
        """Make ``template`` live as ``ident`` and queue it against every live template.

        ``ident`` must not be live: an id comes back only after a pop took it.
        """
        tokens, slots = token_count(template), slot_count(template)
        field = (next(self._seqs), ident, template, tokens, slots, _shape(template))
        if tokens >= 8 * self._width or len(self._fields) > 2 * len(self._live):
            self._repack(max(self._width, tokens // 8 + 1))
        fields, width = self._fields, self._width
        # A field's LCS is the popcount of its bytes.
        lcs_bits = _lcs_bits(template.match_keys, self._masks, self._full)
        popcounts = lcs_bits.to_bytes(len(fields) * width, "little").translate(_POPCOUNTS)
        lcs_counts = map(sum, zip(*(popcounts[k::width] for k in range(width))))
        alive = self._alive
        groups: dict[int, list[tuple]] = {}
        for other, lcs in zip(fields, lcs_counts):
            if other[0] in alive:
                top = tokens if tokens > other[3] else other[3]
                bound = top - lcs + (lcs < top) - (slots if slots < other[4] else other[4])
                groups.setdefault(bound, []).append(other)
        for bound, others in groups.items():
            heappush(self._heap, (bound, 0, field[0], field, others))
        self._pack(field)
        alive.add(field[0])
        self._live[ident] = field[0]

    def pop(self, limit: float = inf) -> tuple[int, Hashable, Hashable] | None:
        """Take the closest live pair ``(value, id, id)`` within ``limit``, ids ascending, or None."""
        heap, alive = self._heap, self._alive
        while heap and heap[0][0] <= limit:
            entry = heappop(heap)
            if entry[1]:
                value, _, _, _, id1, id2, seq1, seq2 = entry
                if seq1 in alive and seq2 in alive:
                    alive.difference_update((seq1, seq2))
                    del self._live[id1], self._live[id2]
                    return value, id1, id2
            elif entry[2] in alive:
                field = entry[3]
                for other in entry[4]:
                    if other[0] in alive:
                        f1, f2 = (other, field) if other[1] < field[1] else (field, other)
                        t, u = f1[5], f2[5]
                        k, ku = f1[2].canonical_key, f2[2].canonical_key
                        if ku < k:
                            t, u, k, ku = u, t, ku, k
                        heappush(heap, (self._score(t, u), 1, k, ku, f1[1], f2[1], f1[0], f2[0]))
        return None

    def _pack(self, field: tuple) -> None:
        """Append ``field``, the positions of each token text among its tokens at the next offset."""
        offset = 8 * self._width * len(self._fields)
        own: dict[str, int] = {}
        for i, text in enumerate([k for k in field[2].match_keys if k is not None]):
            own[text] = own.get(text, 0) | 1 << i
        masks = self._masks
        for text, mask in own.items():
            masks[text] = masks.get(text, 0) | mask << offset
        self._full |= ((1 << field[3]) - 1) << offset
        self._fields.append(field)

    def _repack(self, width: int) -> None:
        """Pack the live fields again, ``width`` bytes each."""
        fields = [f for f in self._fields if f[0] in self._alive]
        self._fields, self._width, self._masks, self._full = [], width, {}, 0
        for field in fields:
            self._pack(field)


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
    pool = list(templates)  # a template's id is its index
    queue = PairQueue(distance)
    for ident, t in enumerate(pool):
        queue.add(ident, t)
    while len(queue) > 1:
        _, i, j = queue.pop()
        pair = (pool[i], pool[j])
        pool.append(remap_new_slots(merge_templates(*pair).merged, pair, fresh))
        queue.add(len(pool) - 1, pool[-1])
    return pool[-1]
