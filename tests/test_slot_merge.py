"""Incremental slot merging against the eager reference.

``merge_similar_slots`` keeps qualifying pairs in a heap and rescores only
the pairs of slots whose value sets a merge changed. The eager loop below
rescores and re-sorts every pair after each merge; both must make the
same merges in the same order.
"""

import random

import pytest

import gramtree.induction
from gramtree.induction import (
    _jaccard,
    _merge_keeps_acyclic,
    _retire,
    extract_slot_values,
    merge_similar_slots,
)
from gramtree.template import Slot, Token
from gramtree.tree import learn_template_tree, prune_redundant_children

from conftest import deep_corpus

RATIOS = (0.0, 0.25, 0.5, 1.0)


def eager_merge_similar_slots(values, ratio):
    values = {uid: set(vs) for uid, vs in values.items()}
    replacement = {}
    while True:
        uids = sorted(values)
        candidates = sorted(
            (-overlap, a, b)
            for i, a in enumerate(uids)
            for b in uids[i + 1 :]
            if (overlap := _jaccard(values[a], values[b])) >= ratio
        )
        chosen = next(((a, b) for _, a, b in candidates if _merge_keeps_acyclic(values, a, b)), None)
        if chosen is None:
            return values, replacement
        keep, drop = chosen
        values[keep] |= values[drop]
        _retire(values, replacement, drop, keep)


def value(*parts):
    return tuple(Slot(p) if isinstance(p, int) else Token(p) for p in parts)


def random_values(rng):
    """2-9 slots; values of 0-2 elements, words or (one in five) slot references.

    References may point at the slot itself or at a slot without values,
    and a value set may be empty.
    """
    uids = rng.sample(range(12), rng.randint(2, 9))

    def element():
        return Slot(rng.choice(uids + [99])) if rng.random() < 0.2 else Token(rng.choice("abc"))

    return {
        uid: {tuple(element() for _ in range(rng.randint(0, 2))) for _ in range(rng.randint(0, 4))}
        for uid in uids
    }


@pytest.mark.parametrize("ratio", RATIOS)
def test_merge_matches_the_eager_reference(ratio):
    rng = random.Random(2007)
    merges = 0
    for _ in range(400):
        values = random_values(rng)
        result = merge_similar_slots(values, ratio)
        assert result == eager_merge_similar_slots(values, ratio), values
        merges += len(result[1])
    assert merges > 150


def test_merge_rescores_pairs_whose_values_were_rewritten():
    # Merging 1 into 0 rewrites slot 2's value <1> to <0>. Slots 2 and 3 do
    # not touch the kept slot, but their overlap rises from 1/3 to 1.
    values = {
        0: {value("x"), value("y")},
        1: {value("x"), value("y")},
        2: {value(1), value("z")},
        3: {value(0), value("z")},
    }
    expected = ({0: {value("x"), value("y")}, 2: {value(0), value("z")}}, {1: 0, 3: 2})
    assert eager_merge_similar_slots(values, 1.0) == expected
    assert merge_similar_slots(values, 1.0) == expected


def test_merge_takes_the_next_pair_when_the_guard_rejects_the_top_one():
    # (0, 1) overlaps 3/4, but slot 0 holds "x <1>": the union would derive
    # itself. (2, 3) overlaps 2/3 and is merged; (0, 1) stays rejected.
    values = {
        0: {value("x", 1), value("s"), value("t"), value("u")},
        1: {value("s"), value("t"), value("u")},
        2: {value("p"), value("q")},
        3: {value("p"), value("q"), value("r")},
    }
    assert not _merge_keeps_acyclic(values, 0, 1)
    for ratio in (0.5, 0.25):
        merged, replacement = merge_similar_slots(values, ratio)
        assert replacement == {3: 2}
        assert (merged, replacement) == eager_merge_similar_slots(values, ratio)


def test_merge_scores_few_pairs(monkeypatch):
    # The eager loop scores all s(s-1)/2 pairs after every merge (19k-31k
    # on corpus seeds 0-2); the index scores a few hundred in all.
    values = extract_slot_values(prune_redundant_children(learn_template_tree(deep_corpus(60))))
    calls = 0

    def counted(a, b):
        nonlocal calls
        calls += 1
        return _jaccard(a, b)

    monkeypatch.setattr(gramtree.induction, "_jaccard", counted)
    _, replacement = merge_similar_slots(values, 0.5)
    s = len(values)
    assert replacement
    assert 0 < calls <= s * (s - 1) // 2
