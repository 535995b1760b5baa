"""Lazy closest-pair scoring against eager references.

``learn_template_tree`` and ``merge_all`` queue pairs with a lower bound and
compute exact distances only at the top of the heap. The eager loops below
score every queued pair exactly, as both did before; the lazy ones must
pick the same pairs in the same order.
"""

import itertools
import random
from heapq import heappop, heappush
from itertools import count

import gramtree.tree
from gramtree.merge import distance, merge_all, merge_templates, remap_new_slots
from gramtree.template import Template, normalize_sentence, slot_ids, tokenize
from gramtree.tree import TemplateTreeNode, learn_template_tree, tree_equal

from conftest import deep_corpus, random_template


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
