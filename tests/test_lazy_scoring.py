"""Lazy closest-pair scoring against eager references.

``learn_template_tree`` and ``merge_all`` take their closest pairs from one
``PairQueue``, which queues pairs with a lower bound and computes exact
distances only for pairs whose bound reaches the top of its heap. The
eager loops below score every queued pair exactly, as both did before; the
lazy ones must pick the same pairs in the same order. The queue itself is
checked against an eager scan of its live pairs, and its packed bounds
against the per-pair bound.
"""

import itertools
import random
from collections import Counter
from heapq import heappop, heappush
from itertools import count

import gramtree.merge
import gramtree.tree
from gramtree.merge import (
    PairQueue,
    _alignment,
    _trimmed_ends,
    distance,
    merge_all,
    merge_templates,
    remap_new_slots,
)
from gramtree.template import Template, normalize_sentence, slot_ids, tokenize
from gramtree.tree import TemplateTreeNode, learn_template_tree, tree_equal

from conftest import deep_corpus, distance_lower_bound, random_template, template
from test_merge import breaks_length_bound


def eager_learn(texts) -> TemplateTreeNode:
    fresh_ids = count()
    active = {}
    for text in sorted({normalize_sentence(t) for t in texts}):
        active[tokenize(text).canonical_key] = TemplateTreeNode(tokenize(text), leaf_text=text)
    heap = []

    def enqueue(k1, k2):
        heappush(heap, (distance(active[k1].template, active[k2].template), tuple(sorted((k1, k2)))))

    for k1, k2 in itertools.combinations(sorted(active), 2):
        enqueue(k1, k2)
    while len(active) > 1:
        batch, d_min = [], None
        while heap and (d_min is None or heap[0][0] <= d_min):
            d, pair = heappop(heap)
            if pair[0] in active and pair[1] in active:
                d_min = d
                batch.append(pair)
        fresh = {}
        for k1, k2 in batch:
            if k1 in active and k2 in active:
                n1, n2 = active.pop(k1), active.pop(k2)
                merged = merge_templates(n1.template, n2.template).merged
                merged = remap_new_slots(merged, (n1.template, n2.template), fresh_ids)
                key = merged.canonical_key
                node = active.get(key) or fresh.setdefault(key, TemplateTreeNode(merged))
                node.children.extend((n1, n2))
        for key in sorted(fresh):
            existing = list(active)
            active[key] = fresh[key]
            for other in existing:
                enqueue(key, other)
    return next(iter(active.values()))


def eager_merge_all(templates: tuple[Template, ...]) -> Template:
    fresh = count(max((uid for t in templates for uid in slot_ids(t)), default=-1) + 1)
    alive = dict(enumerate(templates))
    heap = []

    def push_pairs(seq, others):
        for other in others:
            t, u = alive[seq], alive[other]
            keys = sorted((t.canonical_key, u.canonical_key))
            heappush(heap, (distance(t, u), *keys, min(seq, other), max(seq, other)))

    for pos, seq in enumerate(list(alive)):
        push_pairs(seq, list(alive)[pos + 1 :])
    next_seq = len(templates)
    while len(alive) > 1:
        *_, s1, s2 = heappop(heap)
        if s1 in alive and s2 in alive:
            pair = (alive.pop(s1), alive.pop(s2))
            alive[next_seq] = remap_new_slots(merge_templates(*pair).merged, pair, fresh)
            push_pairs(next_seq, [s for s in alive if s != next_seq])
            next_seq += 1
    return next(iter(alive.values()))


def widest(node: TemplateTreeNode) -> int:
    return max([len(node.children)] + [widest(c) for c in node.children])


def test_lazy_learning_matches_the_eager_reference():
    # Few words and short sentences: many distance ties, and merges that
    # come out as one shape share a node (more than two children).
    rng = random.Random(1978)
    shared = 0
    for _ in range(300):
        words = ("a", "b", "c", "d")[: rng.randint(2, 4)]
        corpus = [
            " ".join(rng.choices(words, k=rng.randint(0, 6))) for _ in range(rng.randint(1, 25))
        ]
        lazy = learn_template_tree(corpus)
        assert tree_equal(lazy, eager_learn(corpus)), corpus
        shared += widest(lazy) > 2
    assert shared > 10


def test_lazy_merge_all_matches_the_eager_reference():
    rng = random.Random(1978)
    for _ in range(500):
        words = ("a", "b", "c", "d")[: rng.randint(1, 4)]
        templates = tuple(
            random_template(rng, words, max_len=8) for _ in range(rng.randint(1, 8))
        )
        assert merge_all(templates) == eager_merge_all(templates), [str(t) for t in templates]


def test_learning_computes_few_exact_distances(monkeypatch):
    # 60 sentences of the benchmark's 4-slot grammar. Eager scoring needs
    # more than n(n-1)/2 = 1,770 exact distances; lazy scoring about 500.
    corpus = deep_corpus(60)
    calls = 0

    def counted(t1, t2):
        nonlocal calls
        calls += 1
        return distance(t1, t2)

    monkeypatch.setattr(gramtree.tree, "distance", counted)
    learn_template_tree(corpus)
    assert 0 < calls < 60 * 59 // 4


def test_merge_all_computes_few_exact_distances(monkeypatch):
    # The 60 leaves of the corpus above: eager scoring needs all 1,770
    # pairs and then every merge result against the rest; lazy about 400.
    templates = tuple(tokenize(text) for text in deep_corpus(60))
    calls = 0

    def counted(t1, t2):
        nonlocal calls
        calls += 1
        return distance(t1, t2)

    monkeypatch.setattr(gramtree.merge, "distance", counted)
    merge_all.cache_clear()
    merge_all(templates)
    assert 0 < calls < 60 * 59 // 4


def test_learning_builds_alignments_only_to_merge(monkeypatch):
    # distance reads its counts off the alignment score: of the pairs
    # scored, only those whose best alignment breaks the length bound get
    # an alignment built, and merging builds the rest.
    corpus = deep_corpus(60)
    merges, scored, fallbacks = 0, set(), set()

    def counted_merge(t1, t2):
        nonlocal merges
        merges += 1
        return merge_templates(t1, t2)

    def counted_distance(t1, t2):
        scored.add(frozenset((t1, t2)))
        if breaks_length_bound(t1, t2):
            fallbacks.add(frozenset((t1, t2)))
        return distance(t1, t2)

    monkeypatch.setattr(gramtree.tree, "merge_templates", counted_merge)
    monkeypatch.setattr(gramtree.tree, "distance", counted_distance)
    distance.cache_clear()
    _alignment.cache_clear()
    learn_template_tree(corpus)
    assert 0 < _alignment.cache_info().misses <= merges + len(fallbacks) < len(scored) // 4


def test_fallback_pairs_run_the_bounded_program_once_unless_an_end_is_unmatched(monkeypatch):
    # A pair whose best alignment breaks the length bound runs the bounded
    # program on the whole templates, and on their differing core only
    # where the whole alignment leaves an identical end unmatched.
    corpus = deep_corpus(60)
    calls, fallbacks = 0, set()
    bounded = gramtree.merge._bounded_alignment

    def counted_bounded(ka, kb):
        nonlocal calls
        calls += 1
        return bounded(ka, kb)

    def counted_distance(t1, t2):
        if breaks_length_bound(t1, t2):
            fallbacks.add(tuple(sorted((t1, t2), key=lambda t: t.canonical_key)))
        return distance(t1, t2)

    monkeypatch.setattr(gramtree.merge, "_bounded_alignment", counted_bounded)
    monkeypatch.setattr(gramtree.tree, "distance", counted_distance)
    distance.cache_clear()
    _alignment.cache_clear()
    learn_template_tree(corpus)
    unmatched = 0
    for t1, t2 in fallbacks:
        n, m = len(t1), len(t2)
        lo, hi = _trimmed_ends(t1.elements, t2.elements)
        ends = tuple((k, k) for k in range(lo)) + tuple((n - hi + k, m - hi + k) for k in range(hi))
        pairs, _ = bounded(t1.match_keys, t2.match_keys)
        unmatched += pairs[:lo] + pairs[len(pairs) - hi :] != ends
    assert 0 < calls <= len(fallbacks) + unmatched < 2 * len(fallbacks)


def count_tables_and_shape_pairs(monkeypatch, module):
    """Counters of score tables filled, merges, and unordered shape pairs scored."""
    counts = {"tables": 0, "merges": 0, "shapes": set()}
    score_rows, merge = gramtree.merge._score_rows, gramtree.merge.merge_templates

    def counted_rows(*args):
        counts["tables"] += 1
        return score_rows(*args)

    def counted_merge(t1, t2):
        counts["merges"] += 1
        return merge(t1, t2)

    def counted_distance(t1, t2):
        counts["shapes"].add(frozenset((t1.shape, t2.shape)))
        return distance(t1, t2)

    monkeypatch.setattr(gramtree.merge, "_score_rows", counted_rows)
    monkeypatch.setattr(module, "merge_templates", counted_merge)
    monkeypatch.setattr(module, "distance", counted_distance)
    distance.cache_clear()
    _alignment.cache_clear()
    merge_all.cache_clear()
    return counts


def test_learning_fills_one_score_table_per_shape_pair_or_merge(monkeypatch):
    # The queue scores slot-blind shapes in one order, so pairs that differ
    # only in slot ids share one distance; a length-bound pair takes its
    # rank from the bounded program, filling no second table; each merge
    # fills one.
    counts = count_tables_and_shape_pairs(monkeypatch, gramtree.tree)
    learn_template_tree(deep_corpus(60))
    assert 0 < counts["tables"] <= len(counts["shapes"]) + counts["merges"]


def test_merge_all_fills_one_score_table_per_shape_pair_or_merge(monkeypatch):
    # merge_all's ids are list positions, not canonical keys: the queue
    # still passes each shape pair in canonical order.
    counts = count_tables_and_shape_pairs(monkeypatch, gramtree.merge)
    merge_all(tuple(tokenize(text) for text in deep_corpus(60)))
    assert 0 < counts["tables"] <= len(counts["shapes"]) + counts["merges"]


def queue_order(templates, i, j):
    """The eager sort key of the live pair ``{i, j}``, ids ascending."""
    i, j = min(i, j), max(i, j)
    keys = sorted((templates[i].canonical_key, templates[j].canonical_key))
    return (distance(templates[i], templates[j]), *keys, i, j)


def test_queue_pops_pairs_in_eager_order():
    # Few words, so shapes repeat and ties run down to the ids; ids are
    # added out of order, a pop takes both ids of its pair, and taken ids
    # come back with their old template or a new one. Every two live ids
    # were queued against each other when the later of them was added.
    rng = random.Random(1978)
    scored = queued = readded = 0

    def counted(t1, t2):
        nonlocal scored
        scored += 1
        return distance(t1, t2)

    for _ in range(200):
        words = ("a", "b", "c")[: rng.randint(1, 3)]
        ids = rng.sample(range(1000), 40)
        queue = PairQueue(counted)
        templates, taken = {}, set()

        def add(ident, t):
            nonlocal queued
            templates[ident] = t
            queued += len(queue)
            queue.add(ident, t)

        for _ in range(rng.randint(2, 10)):
            add(ids.pop(), random_template(rng, words, max_len=5))
        for _ in range(60):
            live = set(queue)
            assert len(queue) == len(live) and all(ident in queue for ident in live)
            pairs = itertools.combinations(live, 2)
            eager = min((queue_order(templates, *p) for p in pairs), default=None)
            limit = rng.choice((float("inf"), rng.randint(0, 4)))
            popped = queue.pop(limit)
            if eager is None or eager[0] > limit:
                assert popped is None
                assert set(queue) == live
            else:
                assert popped == (eager[0], *eager[-2:])
                assert set(queue) == live - set(popped[1:])
                taken.update(popped[1:])
            if taken and rng.random() < 0.2:
                ident = rng.choice(sorted(taken))
                taken.discard(ident)
                readded += 1
                add(ident, rng.choice((templates[ident], random_template(rng, words, max_len=5))))
            elif ids and rng.random() < 0.5:
                add(ids.pop(), random_template(rng, words, max_len=5))
    assert 0 < scored < queued
    assert readded > 1000


def live_entries(queue):
    """``(id pair, value, exact)`` of each queued pair whose two templates are live."""
    alive = queue._alive
    entries = []
    for value, exact, *rest in queue._heap:
        if exact:
            *_, id1, id2, seq1, seq2 = rest
            if seq1 in alive and seq2 in alive:
                entries.append((frozenset((id1, id2)), value, True))
        else:
            _, field, others = rest
            for other in others:
                if field[0] in alive and other[0] in alive:
                    entries.append((frozenset((field[1], other[1])), value, False))
    return entries


def test_packed_bounds_match_the_per_pair_bound():
    # Random adds, pops and re-adds of taken ids: templates with no tokens
    # or only slots, templates too long for the fields packed so far (a
    # widen), and runs of pops (a repack). A pop replaces the bounds it
    # scores with exact entries, so every live pair must have exactly one
    # entry: a bound equal to the per-pair bound, or an exact one equal to
    # distance.
    rng = random.Random(2005)
    widened = repacked = exact = 0
    for _ in range(150):
        words = ("a", "b", "c", "d")[: rng.randint(1, 4)]
        queue = PairQueue(distance)
        templates, taken, fresh = {}, [], count()
        for _ in range(rng.randint(1, 50)):
            roll = rng.random()
            if len(queue) > 1 and roll < 0.35:
                popped = queue.pop(rng.choice((float("inf"), rng.randint(0, 3))))
                if popped is not None:
                    taken.extend(popped[1:])
                continue
            if taken and roll < 0.5:
                ident = taken.pop(rng.randrange(len(taken)))
            else:
                ident = next(fresh)
            if ident in templates and rng.random() < 0.5:
                t = templates[ident]
            else:
                t = rng.choice((
                    random_template(rng, words, max_len=rng.choice((4, 10, 40))),
                    Template(),
                    template(*rng.choices((0, 1, 2), k=rng.randint(1, 3))),
                ))
            templates[ident] = t
            width, packed = queue._width, len(queue._fields)
            queue.add(ident, t)
            widened += queue._width > width
            repacked += len(queue._fields) <= packed
        entries = live_entries(queue)
        live = {ident: templates[ident] for ident in queue}
        assert Counter(pair for pair, _, _ in entries) == Counter(
            frozenset(p) for p in itertools.combinations(live, 2)
        )
        for pair, value, is_exact in entries:
            t, u = (live[ident] for ident in pair)
            assert value == (distance(t, u) if is_exact else distance_lower_bound(t, u))
            exact += is_exact
        for a, b in itertools.combinations(live, 2):
            assert distance_lower_bound(live[a], live[b]) <= distance(live[a], live[b])
    assert widened > 50 and repacked > 100 and exact > 100


def test_queue_drops_the_entries_of_an_id_added_again():
    # Ids 0 and 1 are taken as the closest pair, then added again far
    # apart: the entry of their old pair must not come out.
    a_b, a_c, far, near_far = (tokenize(text) for text in ("a b", "a c", "x y z", "x y z w v"))
    queue = PairQueue(distance)
    for ident, t in enumerate((a_b, a_c, far)):
        queue.add(ident, t)
    assert queue.pop() == (distance(a_b, a_c), 0, 1)
    assert list(queue) == [2] and 0 not in queue
    queue.add(1, near_far)
    queue.add(0, a_b)
    assert sorted(queue) == [0, 1, 2]
    assert distance(far, near_far) > distance(a_b, a_c)  # the old pair would come out first
    assert queue.pop() == (distance(far, near_far), 1, 2)
    assert list(queue) == [0] and queue.pop() is None
