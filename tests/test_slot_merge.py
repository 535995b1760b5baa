"""Incremental slot merging and its acyclicity guard against eager references.

``merge_similar_slots`` keeps qualifying pairs in a heap of
``(-overlap, a, b)`` and rescores only the pairs of the slots a merge
changed: the kept slot and the slots ``_retire`` rewrote. Its value index
is add-only, and a popped pair counts only if both slots are live and its
overlap is the live one. The eager loop below rescores and re-sorts every
pair after each merge; both must make the same merges in the same order.

``_merge_keeps_acyclic`` searches only from the merged slot. The
whole-graph guard below contracts the pair and looks for a cycle anywhere;
on an acyclic map both must decide every pair alike. It and grammar
emission share one walk, ``_reachable``, checked below against a plain
recursive search.
"""

import random

import pytest

import gramtree.induction
from gramtree.errors import InternalInvariantError
from gramtree.induction import (
    _emit_grammar,
    _jaccard,
    _merge_keeps_acyclic,
    _reachable,
    _retire,
    _rewrite_value,
    extract_slot_values,
    merge_similar_slots,
)
from gramtree.grammar import reference_order
from gramtree.template import Slot, Token
from gramtree.tree import learn_template_tree, prune_redundant_children

from conftest import deep_corpus, template

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
        _retire(values, replacement, drop, keep, list(values))


def references(vs, uid):
    """The slots ``vs`` references, discounting the self-alias ``(<uid>,)``."""
    return {e.uid for v in vs if v != (Slot(uid),) for e in v if isinstance(e, Slot)}


def reference_graph(values):
    return {uid: references(vs, uid) for uid, vs in values.items()}


def whole_graph_keeps_acyclic(values, keep, drop):
    """Contract ``drop`` into ``keep`` and check the whole reference graph."""
    graph = reference_graph({uid: vs for uid, vs in values.items() if uid not in (keep, drop)})
    graph = {uid: {keep if ref == drop else ref for ref in refs} for uid, refs in graph.items()}
    merged = {_rewrite_value(v, {drop: keep}) for v in values[keep] | values[drop]}
    graph[keep] = references(merged, keep)
    return reference_order(graph)[1] is None


def value(*parts):
    return tuple(Slot(p) if isinstance(p, int) else Token(p) for p in parts)


def random_values(rng, ref_rate=0.2):
    """2-9 slots; values of 0-2 elements, words or (a share ``ref_rate``) slot references.

    References may point at the slot itself or at a slot without values,
    and a value set may be empty.
    """
    uids = rng.sample(range(12), rng.randint(2, 9))

    def element():
        return Slot(rng.choice(uids + [99])) if rng.random() < ref_rate else Token(rng.choice("abc"))

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


def test_merge_takes_a_queued_pair_whose_slots_were_both_rewritten():
    # Merging 1 into 0 rewrites "a <1>" to "a <0>" in slots 2 and 3. Their
    # overlap stays 1/3, so the entry queued before the merge and the one
    # scored after it are the same choice.
    values = {
        0: {value("x"), value("y")},
        1: {value("x"), value("y")},
        2: {value("a", 1), value("b")},
        3: {value("a", 1), value("c")},
    }
    expected = (
        {0: {value("x"), value("y")}, 2: {value("a", 0), value("b"), value("c")}},
        {1: 0, 3: 2},
    )
    assert eager_merge_similar_slots(values, 0.25) == expected
    assert merge_similar_slots(values, 0.25) == expected


def test_merge_finds_a_pair_through_a_slot_listed_under_a_lost_value():
    # Merging 1 into 0 rewrites slot 2's "a <1>" to "a <0>"; the index still
    # lists slot 2 under "a <1>" and now under "a <0>" too. Merging 4 into 0
    # then rewrites slot 3 to "a <0>", where it finds slot 2. The pair
    # (1, 4) is still queued when slot 1 is gone.
    values = {
        0: {value("x"), value("y")},
        1: {value("x"), value("y")},
        4: {value("x"), value("y")},
        2: {value("a", 1), value("p")},
        3: {value("a", 4), value("q")},
    }
    expected = (
        {0: {value("x"), value("y")}, 2: {value("a", 0), value("p"), value("q")}},
        {1: 0, 4: 0, 3: 2},
    )
    assert eager_merge_similar_slots(values, 0.25) == expected
    assert merge_similar_slots(values, 0.25) == expected


def test_merge_skips_a_queued_pair_whose_overlap_fell():
    # (2, 3) is queued at 2/4. Merging 1 into 0 folds "a <1>" into "a <0>"
    # in both slots: their overlap falls to 1/3, and (2, 5) rises from 2/5
    # to 2/4, tying the old entry. Merging 5 into 2 then takes (2, 3) to
    # 1/4, below the ratio; taking the old entry first would merge 3 into
    # 2 as well.
    values = {
        0: {value("x"), value("y")},
        1: {value("x"), value("y")},
        2: {value("a", 1), value("a", 0), value("p"), value("q")},
        3: {value("a", 1), value("a", 0)},
        5: {value("p"), value("q"), value("r")},
    }
    expected_replacement = {1: 0, 5: 2}
    assert eager_merge_similar_slots(values, 0.3)[1] == expected_replacement
    assert merge_similar_slots(values, 0.3) == eager_merge_similar_slots(values, 0.3)


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


def test_guard_matches_the_whole_graph_reference():
    rng = random.Random(2009)
    pairs = rejected = 0
    for _ in range(4000):
        values = random_values(rng, ref_rate=0.35)
        if reference_order(reference_graph(values))[1] is not None:
            continue
        for keep in values:
            for drop in values:
                if keep < drop:
                    expected = whole_graph_keeps_acyclic(values, keep, drop)
                    got = _merge_keeps_acyclic(values, keep, drop)
                    assert got == expected, (values, keep, drop)
                    pairs += 1
                    rejected += not expected
    assert pairs > 20000 and rejected > 2000, (pairs, rejected)


def test_guard_discounts_the_dropped_slots_self_reference():
    # The union holds (<8>,), which the merge turns into the self-alias
    # (<3>,); the kept slot's rewrite must reach it.
    values = {3: {value()}, 8: {value(), value(8)}}
    assert _merge_keeps_acyclic(values, 3, 8)
    assert merge_similar_slots(values, 0.5) == ({3: {value(), value(3)}}, {8: 3})
    assert merge_similar_slots(values, 0.5) == eager_merge_similar_slots(values, 0.5)


def test_a_self_reference_elsewhere_does_not_block_a_merge():
    values = {
        0: {value("a"), value("b")},
        1: {value("a"), value("b")},
        2: {value(2), value("c")},
    }
    # Without slot 2's self-reference the guard accepts the merge.
    assert merge_similar_slots({**values, 2: {value("c")}}, 0.5)[1] == {1: 0}
    assert merge_similar_slots(values, 0.5)[1] == {1: 0}


def plain_reachable(values, uid, found):
    """Add ``uid`` and every slot its values reference, recursively, to ``found``."""
    if uid not in found:
        found.add(uid)
        for ref in {e.uid for v in values.get(uid, ()) for e in v if isinstance(e, Slot)}:
            plain_reachable(values, ref, found)
    return found


def test_reachable_matches_the_recursive_search():
    # Random maps hold cycles, self-references and references to slot 99,
    # which has no values.
    rng = random.Random(1971)
    dangling = 0
    for _ in range(3000):
        values = random_values(rng, ref_rate=0.35)
        roots = rng.choices([*values, 99], k=rng.randint(0, 3))
        expected = set()
        for uid in roots:
            plain_reachable(values, uid, expected)
        walked = list(_reachable(values, list(roots)))
        assert len(walked) == len(set(walked)) and set(walked) == expected, (values, roots)
        dangling += 99 in expected
    assert dangling > 500


def test_emission_rejects_a_reachable_slot_without_values():
    values = {0: {value("x"), value(1)}, 2: {value("y")}}
    with pytest.raises(InternalInvariantError, match="slot B has no extracted values"):
        _emit_grammar(template("a", 0), values)
    # Slot 3 is unreachable from the root, so its missing values do not matter.
    grammar = _emit_grammar(template("a", 2), {**values, 4: {value(3)}})
    assert set(grammar.rules) == {"origin", "A"}
