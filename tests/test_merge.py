"""Merge and distance tests, checked against a brute-force oracle.

The oracle enumerates every monotone matching by recursion, keeps the
maximal ones, builds merged templates the same way the definition reads,
and minimises the distance formula directly. It shares no code with the
DP implementation.
"""

import random

import pytest

from gramtree.merge import (
    _alignment,
    _bounded_alignment,
    _counts,
    _rank,
    _score_rows,
    _trimmed_ends,
    _weights,
    distance,
    merge_all,
    merge_templates,
)
from gramtree.template import (
    Slot,
    Template,
    Token,
    format_template,
    render,
    slot_count,
    token_count,
    tokenize,
)

from conftest import distance_lower_bound, random_template, template


def brute_force_merge_stats(t1: Template, t2: Template):
    """(l_m, s_m) of the distance-minimising admissible merge."""
    a, b = t1.elements, t2.elements

    def key(e):
        return e.text if isinstance(e, Token) else None

    matchings = []

    def rec(i, j, acc):
        matchings.append(list(acc))
        for i2 in range(i, len(a)):
            for j2 in range(j, len(b)):
                if key(a[i2]) == key(b[j2]):
                    acc.append((i2, j2))
                    rec(i2 + 1, j2 + 1, acc)
                    acc.pop()

    rec(0, 0, [])
    for size in range(max(len(m) for m in matchings), -1, -1):
        candidates = []
        for m in matchings:
            if len(m) != size:
                continue
            tokens = sum(1 for i, _ in m if isinstance(a[i], Token))
            matched_slots = size - tokens
            gaps = 0
            pi = pj = 0
            for i, j in m + [(len(a), len(b))]:
                if i > pi or j > pj:
                    gaps += 1
                pi, pj = i + 1, j + 1
            if size + gaps > max(len(a), len(b)):
                continue
            candidates.append((tokens, matched_slots + gaps))
        if candidates:
            return min(candidates, key=lambda c: (c[1] - c[0], c[1]))
    return (0, 0)  # both inputs empty


def brute_force_distance(t1: Template, t2: Template) -> int:
    l_m, s_m = brute_force_merge_stats(t1, t2)
    return (
        max(token_count(t1), token_count(t2))
        - l_m
        + s_m
        - min(slot_count(t1), slot_count(t2))
    )


# --- frozen examples, expected values computed with the oracle -------------


def test_distance_one_token_apart():
    # oracle: max(2,2) - 1 + 1 - 0
    assert brute_force_distance(template("hello world"), template("hello people")) == 2
    assert distance(template("hello world"), template("hello people")) == 2


def test_distance_no_overlap():
    # oracle: empty LCS, merged is one slot: max(2,2) - 0 + 1 - 0
    assert brute_force_distance(template("hello world"), template("hi people")) == 3
    assert distance(template("hello world"), template("hi people")) == 3


def test_distance_reflexive():
    for t in (template("a b c"), template("x", 0, "y"), Template()):
        assert distance(t, t) == 0


def test_merge_inserts_slot_for_divergence():
    result = merge_templates(template("hello world"), template("hello people"))
    merged = result.merged
    assert token_count(merged) == 1 and slot_count(merged) == 1
    assert merged.elements[0] == Token("hello")
    uid = merged.elements[1].uid
    assert result.alignments[0][uid] == (Token("world"),)
    assert result.alignments[1][uid] == (Token("people"),)


def test_merge_breaks_ties_leftmost():
    # Matching "a" to either "a" of t2 leaves two gaps; the leftmost wins.
    result = merge_templates(template("a"), template("b a b a b"))
    first, token, second = result.merged.elements
    assert token == Token("a")
    assert result.alignments[1][first.uid] == (Token("b"),)
    assert result.alignments[1][second.uid] == (Token("b"), Token("a"), Token("b"))


def test_merge_prefix_divergence():
    merged = merge_templates(template("hello world"), template("hi world")).merged
    assert isinstance(merged.elements[0], Slot)
    assert merged.elements[1] == Token("world")


def test_merge_identical_is_identity():
    t = template("a", 3, "b")
    result = merge_templates(t, t)
    assert result.merged == t


def test_merge_crossed_slots_degrades_to_single_slot():
    # "hi <X>" with "<Y> hi": the 3-element interleaving is overgeneral
    # and discarded, leaving one slot.
    result = merge_templates(template("hi", 0), template(1, "hi"))
    assert len(result.merged) == 1 and slot_count(result.merged) == 1
    uid = result.merged.elements[0].uid
    assert result.alignments[0][uid] == (Token("hi"), Slot(0))
    assert result.alignments[1][uid] == (Slot(1), Token("hi"))


def test_merge_shared_slot_id_is_kept():
    merged = merge_templates(template("hello", 7), template("hi", 7)).merged
    assert len(merged) == 2
    assert isinstance(merged.elements[0], Slot)
    assert merged.elements[1] == Slot(7)


def test_merge_slot_pair_stays_two_elements():
    merged = merge_templates(template("hello", 0), template("hi", 1)).merged
    assert len(merged) == 2 and slot_count(merged) == 2


def test_merge_empty_cases():
    assert merge_templates(Template(), Template()).merged == Template()
    result = merge_templates(Template(), template("a b"))
    assert len(result.merged) == 1 and slot_count(result.merged) == 1


def test_merge_longer_against_prefix():
    merged = merge_templates(template("hello world"), template("hello")).merged
    assert merged.elements[0] == Token("hello")
    assert len(merged) == 2 and slot_count(merged) == 1


def test_substituting_alignments_recovers_inputs():
    t1 = template("the quick brown fox")
    t2 = template("the lazy fox")
    result = merge_templates(t1, t2)
    for source, coverage in zip((t1, t2), result.alignments):
        assignment = {uid: tuple(e for e in run if isinstance(e, Token)) for uid, run in coverage.items()}
        assert render(result.merged, assignment) == render(source, {})


def test_merged_token_count_bounded_by_shorter_input():
    t1, t2 = template("a b c d"), template("b d")
    merged = merge_templates(t1, t2).merged
    assert token_count(merged) <= min(token_count(t1), token_count(t2))


def test_distance_matches_oracle_on_small_templates():
    # exhaustive-ish sweep over short token sequences from a tiny alphabet
    words = ["a", "b", "c"]
    pool = [
        template(" ".join(combo))
        for n in range(0, 3)
        for combo in _product(words, n)
    ]
    pool += [template("a", 0), template(1, "b"), template("a", 2, "b")]
    for t1 in pool:
        for t2 in pool:
            assert distance(t1, t2) == brute_force_distance(t1, t2), (str(t1), str(t2))


# The best alignment of this pair breaks the length bound.
LENGTH_BOUND_PAIR = (template(0, 1, 1, 0, "w0", 1, 1), template("w1", 0, "w0", 0, 1, 0, 0))


def test_merge_and_distance_match_oracle_on_random_templates():
    # Up to 6 elements from 3 words and 3 slot ids shared between both
    # sides; crossed pairs such as "hi <X>" / "<Y> hi" break the length
    # bound and take the length-bounded program. The fixed pair has 99
    # alignments of 4 matches: the best within the bound among the leftmost
    # 64 gives 6 slots and distance 2, the best of all 5 slots and 1.
    rng = random.Random(2009)
    randoms = [(random_template(rng), random_template(rng)) for _ in range(500)]
    for t1, t2 in [LENGTH_BOUND_PAIR] + randoms:
        merged = merge_templates(t1, t2).merged
        assert (token_count(merged), slot_count(merged)) == brute_force_merge_stats(t1, t2), (
            str(t1),
            str(t2),
        )
        assert distance(t1, t2) == brute_force_distance(t1, t2), (str(t1), str(t2))


def test_merge_finds_fewest_slots_among_many_longest_alignments():
    # More than 64 longest alignments: the best of the leftmost 64 has 6
    # slots, the best of all 5.
    t1 = tokenize(
        "the old king of the high castle and the knight of the rose of the land"
        " of the dead met the dragon in the hall of the the end"
    )
    t2 = tokenize(
        "the queen of the north of the high castle and the knight of the west met"
        " the the dragon in the great hall of the kingdom"
    )
    merged = merge_templates(t1, t2).merged
    assert slot_count(merged) == 5
    assert format_template(merged, ascii_slots=True) == (
        "the <A> of the high castle and the knight of the <B> the <C> the dragon"
        " in the <D> hall of the <E>"
    )
    assert distance(t1, t2) == 16


def test_distance_lower_bound_is_a_symmetric_lower_bound():
    # 0-16 elements from 1-4 words and 3 slot ids: many repeated tokens,
    # crossed slots and length-bound fallbacks.
    rng = random.Random(1986)
    words = ("a", "b", "c", "d")
    pairs = [LENGTH_BOUND_PAIR]
    for _ in range(10_000):
        vocabulary = words[: rng.randint(1, 4)]
        pairs.append(tuple(random_template(rng, vocabulary, max_len=16) for _ in range(2)))
    for t1, t2 in pairs:
        bound = distance_lower_bound(t1, t2)
        assert bound <= distance(t1, t2), (str(t1), str(t2))
        assert bound == distance_lower_bound(t2, t1), (str(t1), str(t2))


def test_distance_lower_bound_is_exact_on_sentences_one_edit_apart():
    # LCS 3 of 4 tokens: one gap, so 4 - 3 + 1 - 0, the exact distance.
    t1, t2 = template("the cat sat down"), template("the dog sat down")
    assert distance_lower_bound(t1, t2) == distance(t1, t2) == 2
    assert distance_lower_bound(t1, t1) == distance(t1, t1) == 0
    # Slots are left out of the LCS: 3 - 2 + 1 - 0, below the distance 3.
    t1, t2 = template("a", 0, "b"), template("a b c")
    assert (distance_lower_bound(t1, t2), distance(t1, t2)) == (2, 3)


def breaks_length_bound(t1: Template, t2: Template) -> bool:
    """Whether the best alignment of the differing cores is longer than both."""
    if t2.canonical_key < t1.canonical_key:
        t1, t2 = t2, t1
    lo, hi = _trimmed_ends(t1.elements, t2.elements)
    ka, kb = t1.match_keys[lo : len(t1) - hi], t2.match_keys[lo : len(t2) - hi]
    w1, gap, values = _weights(ka, len(kb))
    *_, row = _score_rows(ka, kb, values, gap)
    return _counts(row[0], w1, gap, max(len(ka), len(kb))) is None


def alignment_distance(t1: Template, t2: Template) -> int:
    """The distance counted on the merge alignment itself."""
    if t2.canonical_key < t1.canonical_key:
        t1, t2 = t2, t1
    _, slots_minus_tokens, _ = _rank(*_alignment.__wrapped__(t1, t2), t1.match_keys)
    return (
        max(token_count(t1), token_count(t2))
        + slots_minus_tokens
        - min(slot_count(t1), slot_count(t2))
    )


def test_distance_read_off_the_score_matches_the_alignment():
    # Up to 14 elements from 1-4 words and 3 slot ids; identical ends are
    # common, and a few hundred pairs break the length bound.
    rng = random.Random(2020)
    pairs = [LENGTH_BOUND_PAIR]
    for _ in range(20_000):
        vocabulary = ("a", "b", "c", "d")[: rng.randint(1, 4)]
        pairs.append(tuple(random_template(rng, vocabulary, max_len=14) for _ in range(2)))
    fallbacks = 0
    for t1, t2 in pairs:
        assert distance.__wrapped__(t1, t2) == alignment_distance(t1, t2), (str(t1), str(t2))
        fallbacks += breaks_length_bound(t1, t2)
    assert fallbacks > 200


def test_fallback_keeps_the_core_alignment_unless_the_whole_one_is_strictly_better():
    # Both pairs break the length bound, and the bounded alignment of the
    # whole templates leaves an identical end unmatched: the trailing <C>
    # in a tie, where the core's alignment is kept, and the leading <B>
    # where that is strictly better than matching it.
    cases = [
        (template(0, 1, "a", 2), template(2, "a", 0, 2), ((0, 0), (2, 1)), ((2, 1), (3, 3))),
        (template(1, 1, "c"), template(1, "c", "a"), ((2, 1),), ((2, 1),)),
    ]
    for t1, t2, whole, expected in cases:
        assert t1.canonical_key < t2.canonical_key and breaks_length_bound(t1, t2)
        assert _bounded_alignment(t1.match_keys, t2.match_keys)[0] == whole
        assert _alignment.__wrapped__(t1, t2)[0] == expected
        merged = merge_templates(t1, t2).merged
        assert (token_count(merged), slot_count(merged)) == brute_force_merge_stats(t1, t2)
        assert distance(t1, t2) == brute_force_distance(t1, t2)


def _product(words, n):
    if n == 0:
        return [()]
    return [(w, *rest) for w in words for rest in _product(words, n - 1)]


def test_merge_symmetry_up_to_renaming():
    pairs = [
        (template("hello world"), template("hi world")),
        (template("a b c"), template("a c")),
        (template("x", 0), template(1, "x")),
        (template("a", 0, "b"), template("a c b")),
    ]
    for t1, t2 in pairs:
        assert (
            merge_templates(t1, t2).merged.canonical_key
            == merge_templates(t2, t1).merged.canonical_key
        )
        assert distance(t1, t2) == distance(t2, t1)


def test_merge_all_four_sentences():
    merged = merge_all(
        (
            template("hello world"),
            template("hello people"),
            template("hi world"),
            template("hi people"),
        )
    )
    assert len(merged) == 2 and slot_count(merged) == 2


def test_merge_all_single():
    t = template("only one")
    assert merge_all((t,)) == t


def test_merge_all_requires_input():
    with pytest.raises(ValueError):
        merge_all(())
