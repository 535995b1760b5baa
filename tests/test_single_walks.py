"""One walk per job, against the earlier code that wrote each walk twice.

The merge alignment's two programs share one forward walk, collapse is one
walk of the tree, the slot fixpoint stops when simplification changes
nothing, and tree equality up to slot ids compares two shape keys. The
references below are the earlier forms: a walk per program, three tree
walks per collapse pass repeated until nothing changes, value-set
snapshots, and a bijection walk. Each pair must agree exactly, on whole
inductions too. Collapse needs a closed slot replacement, one whose targets
are never replaced themselves; the slot merge and the slot fixpoint are
checked to return one. Collapse's instantiation check is one forward pass
against a memoised recursion over the parent, and retiring a slot rewrites
only the value sets that reference it, against a rewrite of every set.
"""

import random
from collections import Counter
from itertools import count

import pytest

from gramtree import induction
from gramtree.errors import InternalInvariantError
from gramtree.grammar import to_tracery
from gramtree.induction import (
    MAX_PASSES,
    _is_instantiation,
    _retire,
    _rewrite_value,
    _simplify,
    _slot_fixpoint,
    collapse_tree,
    extract_slot_values,
    induce_grammar,
    merge_similar_slots,
    value_key,
)
from gramtree.merge import _alignment, _gap_count, _rank, merge_all, remap_new_slots
from gramtree.template import Slot, Template, Token, slot_ids
from gramtree.tree import (
    TemplateTreeNode,
    copy_tree,
    learn_template_tree,
    max_slot_id,
    prune_redundant_children,
    tree_equal,
    tree_equal_up_to_slot_ids,
)

from conftest import deep_corpus, random_template, template
from test_merge import LENGTH_BOUND_PAIR


# ---------------------------------------------------------------------------
# merge alignment: each program with its own forward walk


def reference_alignment(t1, t2, bounded_calls):
    a, b = t1.elements, t2.elements
    n, m = len(a), len(b)
    lo = 0
    while lo < n and lo < m and a[lo] == b[lo]:
        lo += 1
    hi = 0
    while hi < n - lo and hi < m - lo and a[n - 1 - hi] == b[m - 1 - hi]:
        hi += 1
    ka, kb = t1.match_keys[lo : n - hi], t2.match_keys[lo : m - hi]

    def untrimmed(core):
        return (
            tuple((i, i) for i in range(lo))
            + tuple((i + lo, j + lo) for i, j in core)
            + tuple((n - hi + k, m - hi + k) for k in range(hi))
        )

    core = reference_best(ka, kb)
    gaps = _gap_count(core, len(ka), len(kb))
    if len(core) + gaps <= max(len(ka), len(kb)):
        return untrimmed(core), gaps
    bounded_calls.append((t1, t2))
    core, gaps = reference_bounded(ka, kb)
    trimmed = (untrimmed(core), gaps)
    if lo == hi == 0:
        return trimmed
    keys = t1.match_keys
    whole = reference_bounded(keys, t2.match_keys)
    return whole if _rank(*whole, keys) < _rank(*trimmed, keys) else trimmed


def reference_best(ka, kb):
    n, m = len(ka), len(kb)
    w2 = n + m + 2
    w1 = (2 * (n + m) + 2) * w2
    gap = w2 + 1
    values = [w1 - 2 * w2 - 1 if x is None else w1 for x in ka]
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

    positions = {}
    for q, y in enumerate(kb):
        positions.setdefault(y, []).append(q)
    pairs = []
    i = j = 0
    for _ in range(-(-f[0][0] // w1)):
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


def reference_bounded(ka, kb):
    n, m = len(ka), len(kb)
    room = max(n, m)
    w2 = n + m + 2
    w1 = (2 * (n + m) + 2) * w2
    gap = w2 + 1
    values = [w1 - 2 * w2 - 1 if x is None else w1 for x in ka]

    def front(options, floor):
        kept = []
        for used, loss in sorted(options):
            if not kept or loss < kept[-1][1]:
                if used <= floor:
                    kept.clear()
                kept.append((used, loss))
        return kept

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

    def score(i, j, r):
        return -min((loss for used, loss in f[i][j] if used <= r), default=(n + m + 2) * w1)

    pairs = []
    i = j = 0
    r = room
    for _ in range(-(-score(0, 0, r) // w1)):
        want = score(i, j, r)
        if ka[i] == kb[j] and values[i] + score(i + 1, j + 1, r - 1) == want:
            p, q, r = i, j, r - 1
        else:
            p, q = next(
                (p, q)
                for p in range(i, n)
                for q in range(j, m)
                if ka[p] == kb[q] and values[p] + score(p + 1, q + 1, r - 2) == want + gap
            )
            r -= 2
        pairs.append((p, q))
        i, j = p + 1, q + 1
    core = tuple(pairs)
    return core, _gap_count(core, n, m)


def test_alignment_matches_the_two_walk_reference():
    # Crossed pairs such as "a <X>" / "<Y> a" break the length bound and
    # take the bounded program; a small vocabulary makes them common.
    rng = random.Random(2009)
    pairs = [LENGTH_BOUND_PAIR]
    for _ in range(4_000):
        words = ("a", "b", "c", "d")[: rng.randint(1, 4)]
        pairs.append(tuple(random_template(rng, words, max_len=rng.choice((6, 12))) for _ in range(2)))
    bounded_calls = []
    for t1, t2 in pairs:
        if t2.canonical_key < t1.canonical_key:
            t1, t2 = t2, t1
        expected = reference_alignment(t1, t2, bounded_calls)
        assert _alignment.__wrapped__(t1, t2) == expected, (str(t1), str(t2))
    assert len(bounded_calls) > 50


# ---------------------------------------------------------------------------
# tree equality up to slot ids: a bijection walk


def reference_equal_up_to_slot_ids(a, b):
    forward, backward = {}, {}

    def walk(x, y):
        if x.leaf_text != y.leaf_text or len(x.children) != len(y.children):
            return False
        if len(x.template) != len(y.template):
            return False
        for p, q in zip(x.template.elements, y.template.elements):
            if type(p) is not type(q):
                return False
            if isinstance(p, Token):
                if p.text != q.text:
                    return False
            elif forward.setdefault(p.uid, q.uid) != q.uid or backward.setdefault(q.uid, p.uid) != p.uid:
                return False
        return all(walk(cx, cy) for cx, cy in zip(x.children, y.children))

    return walk(a, b)


def random_slotted_tree(rng, depth):
    if depth == 0 or rng.random() < 0.3:
        text = rng.choice(("a", "b", "a b", None))
        return TemplateTreeNode(template(text or ""), leaf_text=text)
    children = [random_slotted_tree(rng, depth - 1) for _ in range(rng.randint(1, 3))]
    return TemplateTreeNode(random_template(rng, ("a", "b"), max_len=5), children)


def nodes(tree):
    yield tree
    for child in tree.children:
        yield from nodes(child)


def relabelled(tree, mapping):
    out = copy_tree(tree)
    for node in nodes(out):
        node.template = Template(
            tuple(Slot(mapping.get(e.uid, e.uid)) if isinstance(e, Slot) else e for e in node.template.elements)
        )
    return out


def variants(rng, tree):
    """A consistently renamed copy, then copies with one id merged, one
    leaf text swapped, one child dropped, and one node's last child moved
    up to follow it, which keeps the pre-order of the nodes."""
    ids = sorted({e.uid for node in nodes(tree) for e in node.template.elements if isinstance(e, Slot)})
    shuffled = rng.sample(range(10, 10 + len(ids)), len(ids))
    yield relabelled(tree, dict(zip(ids, shuffled)))
    if len(ids) > 1:
        a, b = rng.sample(ids, 2)
        yield relabelled(tree, {a: b})
    swapped = copy_tree(tree)
    leaves = [node for node in nodes(swapped) if node.is_leaf]
    rng.choice(leaves).leaf_text = rng.choice(("a", "b", "c", None))
    yield swapped
    dropped = copy_tree(tree)
    parents = [node for node in nodes(dropped) if node.children]
    if parents:
        parent = rng.choice(parents)
        del parent.children[rng.randrange(len(parent.children))]
        yield dropped
    regrafted = copy_tree(tree)
    grafts = [(node, i) for node in nodes(regrafted) for i, child in enumerate(node.children) if child.children]
    if grafts:
        node, i = rng.choice(grafts)
        node.children.insert(i + 1, node.children[i].children.pop())
        yield regrafted


def test_tree_equal_up_to_slot_ids_matches_the_bijection_walk():
    rng = random.Random(75)
    outcomes = set()
    trees = [random_slotted_tree(rng, rng.randint(0, 4)) for _ in range(600)]
    for tree, other in zip(trees, trees[1:]):
        renamed, *changed = variants(rng, tree)
        assert tree_equal_up_to_slot_ids(tree, renamed)
        for candidate in [renamed, *changed, other]:
            for x, y in ((tree, candidate), (candidate, tree)):
                expected = reference_equal_up_to_slot_ids(x, y)
                assert tree_equal_up_to_slot_ids(x, y) == expected
                outcomes.add(expected)
    assert outcomes == {True, False}


# ---------------------------------------------------------------------------
# collapse: three tree walks per pass


def reference_collapse(tree, values, replacement):
    root = copy_tree(tree)
    value_ids = [uid for uid in values] + [
        e.uid for vs in values.values() for v in vs for e in v if isinstance(e, Slot)
    ]
    fresh = count(max([max_slot_id(root)] + value_ids, default=-1) + 1)

    def apply_replacement(node):
        changed = False
        rewritten = Template(tuple(_rewrite_value(node.template.elements, replacement)))
        if rewritten != node.template:
            node.template = rewritten
            changed = True
        for child in node.children:
            changed |= apply_replacement(child)
        return changed

    def collapse_pass(node):
        changed = False
        i = 0
        while i < len(node.children):
            child = node.children[i]
            if not child.is_leaf and _is_instantiation(node.template, child.template, values):
                node.children[i : i + 1] = child.children
                changed = True
                continue
            i += 1
        for child in node.children:
            changed |= collapse_pass(child)
        return changed

    def recalculate(node):
        changed = False
        for child in node.children:
            changed |= recalculate(child)
        if not node.is_leaf:
            child_templates = tuple(c.template for c in node.children)
            candidate = merge_all(child_templates)
            if candidate.canonical_key != node.template.canonical_key:
                node.template = remap_new_slots(candidate, child_templates, fresh)
                changed = True
        return changed

    for _ in range(MAX_PASSES):
        changed = apply_replacement(root)
        changed |= collapse_pass(root)
        changed |= recalculate(root)
        if not changed:
            return root
    raise InternalInvariantError("collapse did not reach a fixpoint")


def outcome(function, *args):
    try:
        return function(*args)
    except InternalInvariantError as exc:
        return type(exc)


def same_outcome(x, y):
    if isinstance(x, TemplateTreeNode) and isinstance(y, TemplateTreeNode):
        return tree_equal(x, y)
    return x == y


def learned_inputs(seed, n):
    """Learned trees with their fixpoint values and replacement, plus
    perturbed values and random replacements over the tree's slot ids."""
    rng = random.Random(seed)
    for _ in range(n):
        words = ("w0", "w1", "w2")[: rng.randint(2, 3)]
        corpus = [" ".join(rng.choices(words, k=rng.randint(1, 6))) for _ in range(rng.randint(2, 14))]
        tree = prune_redundant_children(learn_template_tree(corpus))
        values, replacement = _slot_fixpoint(extract_slot_values(tree), rng.choice((0.0, 0.5, 1.0)))
        yield tree, values, replacement
        ids = sorted({e.uid for node in nodes(tree) for e in node.template.elements if isinstance(e, Slot)})
        perturbed = {uid: set(vs) for uid, vs in values.items()}
        for uid in rng.sample(sorted(perturbed), min(2, len(perturbed))):
            perturbed[uid].add(tuple(Token(w) for w in rng.choices(words, k=rng.randint(0, 2))))
        yield tree, perturbed, replacement
        if len(ids) > 1:
            targets = rng.sample(ids, rng.randint(1, len(ids) - 1))
            sources = [uid for uid in ids if uid not in targets]
            closed = {uid: rng.choice(targets) for uid in rng.sample(sources, rng.randint(0, len(sources)))}
            yield tree, values, closed


def test_collapse_matches_the_three_walk_reference():
    cases = 0
    for tree, values, replacement in learned_inputs(403, 250):
        expected = outcome(reference_collapse, tree, values, replacement)
        assert same_outcome(outcome(collapse_tree, tree, values, replacement), expected)
        cases += 1
    assert cases > 700


def test_collapse_rejects_a_replacement_that_is_not_closed():
    # Slot 1 is both a target and replaced: one walk would leave a 1 behind
    # that a second walk would turn into 2.
    tree = prune_redundant_children(learn_template_tree(["w0 w1", "w1 w1 w0", "w0"]))
    with pytest.raises(ValueError, match="not closed"):
        collapse_tree(tree, extract_slot_values(tree), {0: 1, 1: 2})


def random_corpus(rng):
    words = ("w0", "w1", "w2", "w3", "w4", "w5")[: rng.randint(2, 6)]
    return [" ".join(rng.choices(words, k=rng.randint(1, 6))) for _ in range(rng.randint(2, 14))]


def test_induction_matches_the_multi_pass_collapse(monkeypatch):
    rng = random.Random(1117)
    runs = [(deep_corpus(60, seed), 0.5, None) for seed in range(4)]
    runs += [(random_corpus(rng), rng.choice((0.0, 0.5, 1.0)), rng.choice((None, 2, 3))) for _ in range(200)]

    def induced(corpus, ratio, max_height):
        return to_tracery(induce_grammar(corpus, ratio=ratio, max_height=max_height))

    expected = [outcome(induced, *run) for run in runs]
    monkeypatch.setattr(induction, "collapse_tree", reference_collapse)
    assert [outcome(induced, *run) for run in runs] == expected
    assert sum(isinstance(e, str) for e in expected) > 190


# ---------------------------------------------------------------------------
# slot fixpoint: value-set snapshots around each pass


def reference_slot_fixpoint(values, ratio):
    combined = {}

    def fold(new):
        for old, target in list(combined.items()):
            combined[old] = new.get(target, target)
        for old, target in new.items():
            if old not in combined:
                combined[old] = target

    for _ in range(MAX_PASSES):
        before = {uid: frozenset(vs) for uid, vs in values.items()}
        values, merged_repl = merge_similar_slots(values, ratio)
        fold(merged_repl)
        simplified_repl = {}
        values, _ = _simplify(values, simplified_repl)
        fold(simplified_repl)
        unchanged = (
            not merged_repl
            and not simplified_repl
            and before == {uid: frozenset(vs) for uid, vs in values.items()}
        )
        if unchanged:
            return values, combined
    raise InternalInvariantError("slot merge/simplify fixpoint did not converge")


def random_values(rng):
    ids = range(rng.randint(1, 7))
    elements = [Token("x"), Token("y"), Token("z")] + [Slot(uid) for uid in ids]
    return {
        uid: {tuple(rng.choices(elements, k=rng.randint(0, 2))) for _ in range(rng.randint(0, 4))}
        for uid in ids
    }


def is_closed(replacement):
    return replacement.keys().isdisjoint(replacement.values())


@pytest.mark.parametrize("ratio", [0.0, 0.3, 0.5, 1.0])
def test_slot_merges_return_closed_replacements_and_stop_for_good(ratio):
    # The one-walk collapse needs a closed replacement, and the slot
    # fixpoint stops when simplification changes nothing only because a
    # second merge pass over the values of the first merges nothing.
    rng = random.Random(529)
    chained = 0
    for _ in range(500):
        values = random_values(rng)
        after, replacement = merge_similar_slots(values, ratio)
        assert is_closed(replacement), values
        assert merge_similar_slots(after, ratio) == (after, {}), values
        _, combined = _slot_fixpoint(values, ratio)
        assert is_closed(combined), values
        chained += len(combined) > 1
    assert chained > 40


@pytest.mark.parametrize("ratio", [0.0, 0.3, 0.5, 1.0])
def test_slot_fixpoint_matches_the_snapshot_reference(ratio):
    rng = random.Random(361)
    for _ in range(500):
        values = random_values(rng)
        expected = outcome(reference_slot_fixpoint, values, ratio)
        assert outcome(_slot_fixpoint, values, ratio) == expected, values


# ---------------------------------------------------------------------------
# instantiation check and retire: a recursive matcher, whole-map rewrites


def reference_is_instantiation(parent, child, values):
    if not set(slot_ids(parent)) & set(slot_ids(child)):
        return False
    p, c = parent.elements, child.elements
    seen = set()

    def match(pi, ci):
        if (pi, ci) in seen:
            return False
        if pi == len(p):
            return ci == len(c)
        e = p[pi]
        if isinstance(e, Token):
            ok = ci < len(c) and c[ci] == e and match(pi + 1, ci + 1)
        else:
            ok = ci < len(c) and c[ci] == e and match(pi + 1, ci + 1)
            if not ok:
                ok = any(
                    c[ci : ci + len(value)] == value and match(pi + 1, ci + len(value))
                    for value in values.get(e.uid, ())
                )
        if not ok:
            seen.add((pi, ci))
        return ok

    return match(0, 0)


def reference_retire(values, replacement, old, new):
    del values[old]
    for source, target in list(replacement.items()):
        if target == old:
            replacement[source] = new
    replacement[old] = new
    for uid in list(values):
        values[uid] = {_rewrite_value(v, {old: new}) for v in values[uid]}


def instantiation_case(rng):
    """A parent over slots 0-2, known values for some of them, and a child
    that mostly fills the parent's slots with known values or keeps them."""
    words = ("a", "b", "c")[: rng.randint(1, 3)]
    parent = random_template(rng, words, max_len=7)
    values = {
        uid: {random_template(rng, words, max_len=2).elements for _ in range(rng.randint(1, 3))}
        for uid in rng.sample(range(3), rng.randint(0, 3))
    }
    if rng.random() < 0.2:
        return parent, random_template(rng, words, max_len=9), values
    parts = []
    for e in parent.elements:
        known = sorted(values.get(e.uid, ()), key=value_key) if isinstance(e, Slot) else ()
        if known and rng.random() < 0.6:
            parts.extend(rng.choice(known))
        elif isinstance(e, Slot) and rng.random() < 0.1:
            parts.extend(random_template(rng, words, max_len=2).elements)
        else:
            parts.append(e)
    return parent, Template(tuple(parts)), values


def test_instantiation_check_matches_the_recursive_reference():
    rng = random.Random(1440)
    outcomes = Counter()
    for _ in range(6000):
        parent, child, values = instantiation_case(rng)
        expected = reference_is_instantiation(parent, child, values)
        assert _is_instantiation(parent, child, values) == expected, (parent, child, values)
        outcomes[expected] += 1
    assert min(outcomes.values()) > 1500, outcomes


def test_retire_matches_the_whole_map_rewrite():
    rng = random.Random(162)
    rewrites = 0
    for _ in range(2000):
        values = random_values(rng)
        if len(values) < 2:
            continue
        old, new = rng.sample(sorted(values), 2)
        # earlier retirements: ids past the live ones, aimed at live slots
        replacement = {10 + k: rng.choice(sorted(values)) for k in range(rng.randint(0, 3))}
        got = ({uid: set(vs) for uid, vs in values.items()}, dict(replacement))
        expected = ({uid: set(vs) for uid, vs in values.items()}, dict(replacement))
        rewritten = _retire(*got, old, new)
        reference_retire(*expected, old, new)
        assert got == expected, (values, replacement, old, new)
        assert rewritten == {uid for uid, vs in expected[0].items() if vs != values[uid]}
        assert [list(m) for m in got] == [list(m) for m in expected]
        rewrites += any(Slot(old) in v for uid, vs in values.items() if uid != old for v in vs)
    assert rewrites > 300
