import copy
import pickle
import random
from collections import Counter
from itertools import count

import pytest

import gramtree.tree
from gramtree.template import Template, Token, format_template, normalize_sentence, slot_count, slot_ids
from gramtree.tree import (
    TemplateTreeNode,
    copy_tree,
    format_tree,
    leaf_texts,
    learn_template_tree,
    limit_height,
    max_slot_id,
    prune_redundant_children,
    tree_equal,
    tree_height,
    walk,
)

from conftest import DERIVED_KEYS, TWO_BY_TWO, FIG1_SENTENCES, deep_corpus, filled_keys, random_template, template


def leaf(text: str) -> TemplateTreeNode:
    return TemplateTreeNode(template(text), leaf_text=text)


def test_learn_two_by_two_structure():
    root = learn_template_tree(TWO_BY_TWO)
    # root is a two-element, all-slot template over two intermediate nodes
    assert len(root.template) == 2 and slot_count(root.template) == 2
    mid_keys = {c.template.canonical_key for c in root.children}
    expected = {
        template("hello", 0).canonical_key,
        template(0, "world").canonical_key,
        template("hi", 0).canonical_key,
        template(0, "people").canonical_key,
    }
    assert mid_keys <= expected
    assert leaf_texts(root) == frozenset(TWO_BY_TWO)
    assert tree_height(root) == 2


def test_learn_single_sentence():
    root = learn_template_tree(["solo"])
    assert root.is_leaf and root.leaf_text == "solo"
    assert root.template == template("solo")


def test_learn_empty_set_is_an_error():
    with pytest.raises(ValueError):
        learn_template_tree([])


@pytest.mark.parametrize("texts", ["hello", b"hello"], ids=["str", "bytes"])
def test_learn_rejects_a_bare_string(texts):
    with pytest.raises(TypeError, match="collection of sentences"):
        learn_template_tree(texts)


@pytest.mark.parametrize("texts", [[1, "a b"], [None], [b"a b", "c"]], ids=["int", "None", "bytes"])
def test_learn_rejects_a_sentence_that_is_not_a_str(texts):
    with pytest.raises(TypeError, match=f"must be a str, not {type(texts[0]).__name__}$"):
        learn_template_tree(texts)


def test_learn_dedupes_and_normalises():
    root = learn_template_tree(["a  b", "a b", " a b "])
    assert root.is_leaf and root.leaf_text == "a b"


def test_learn_fig1_height_and_leaves():
    root = learn_template_tree(sorted(FIG1_SENTENCES))
    assert leaf_texts(root) == FIG1_SENTENCES
    assert tree_height(root) <= 3


def test_learn_is_deterministic():
    texts = ["b x", "a x", "a y", "c z", "b y"]
    first = format_tree(learn_template_tree(texts))
    for _ in range(3):
        assert format_tree(learn_template_tree(list(reversed(texts)))) == first


def test_generalisation_invariant():
    from gramtree.induction import _align_child

    def check(node):
        for child in node.children:
            _align_child(node.template, child.template)  # raises if not derivable
            check(child)

    check(learn_template_tree(["x a", "x b", "y a", "z c d", "z c e"]))


def test_prune_subset_coverage():
    roots_children = [
        TemplateTreeNode(template("n", 0), [leaf("one"), leaf("two")]),
        TemplateTreeNode(template("n", 1), [leaf("one")]),
        TemplateTreeNode(template("n", 2), [leaf("two")]),
    ]
    root = TemplateTreeNode(template(9), roots_children)
    pruned = prune_redundant_children(root)
    assert len(pruned.children) == 1
    assert leaf_texts(pruned.children[0]) == {"one", "two"}
    assert leaf_texts(pruned) == {"one", "two"}


def test_prune_partition_untouched():
    root = TemplateTreeNode(
        template(9),
        [
            TemplateTreeNode(template("n", 0), [leaf("one"), leaf("two")]),
            TemplateTreeNode(template("n", 1), [leaf("three")]),
        ],
    )
    pruned = prune_redundant_children(root)
    assert len(pruned.children) == 2


def test_prune_leaf_is_noop():
    pruned = prune_redundant_children(leaf("alone"))
    assert pruned.is_leaf and pruned.leaf_text == "alone"


def test_prune_diamond_shape():
    # the classic 4-middle diamond: each leaf text appears under two parents
    mids = [
        TemplateTreeNode(template("hello", 0), [leaf("hello world"), leaf("hello people")]),
        TemplateTreeNode(template(1, "world"), [leaf("hello world"), leaf("hi world")]),
        TemplateTreeNode(template("hi", 2), [leaf("hi world"), leaf("hi people")]),
        TemplateTreeNode(template(3, "people"), [leaf("hello people"), leaf("hi people")]),
    ]
    root = TemplateTreeNode(template(4), mids)
    pruned = prune_redundant_children(root)
    assert len(pruned.children) == 2
    assert leaf_texts(pruned) == frozenset(TWO_BY_TWO)


def test_limit_height_noop_when_within_bound():
    root = learn_template_tree(TWO_BY_TWO)
    limited = limit_height(root, 2)
    assert tree_height(limited) == 2
    assert format_tree(limited) == format_tree(root)


def test_limit_height_flattens_to_one():
    root = learn_template_tree(TWO_BY_TWO)
    limited = limit_height(root, 1)
    assert tree_height(limited) == 1
    assert all(c.is_leaf for c in limited.children)
    assert leaf_texts(limited) == frozenset(TWO_BY_TWO)


def test_limit_height_contracts_chain_middle():
    chain = TemplateTreeNode(
        template(0),
        [
            TemplateTreeNode(
                template(1),
                [TemplateTreeNode(template(2), [leaf("a"), leaf("b")])],
            )
        ],
    )
    assert tree_height(chain) == 3
    limited = limit_height(chain, 2)
    assert tree_height(limited) == 2
    assert leaf_texts(limited) == {"a", "b"}
    # the middle level was contracted, the root kept
    assert limited.template == template(0)


def test_limit_height_validates_bound():
    with pytest.raises(ValueError):
        limit_height(leaf("x"), 0)


@pytest.mark.parametrize("height", [2.0, True, "2"])
def test_heights_that_are_not_ints_are_rejected_before_learning(monkeypatch, height):
    def queue(*args):
        raise AssertionError("the tree was learned before the height was checked")

    with pytest.raises(ValueError, match="max_height"):
        limit_height(leaf("x"), height)
    monkeypatch.setattr(gramtree.tree, "PairQueue", queue)
    with pytest.raises(ValueError, match="max_height"):
        learn_template_tree(["a b", "a c"], max_height=height)


def test_learn_applies_max_height():
    root = learn_template_tree(sorted(FIG1_SENTENCES), max_height=2)
    assert tree_height(root) <= 2
    assert leaf_texts(root) == FIG1_SENTENCES


def test_format_tree_marks_leaves():
    root = learn_template_tree(["a b", "a c"])
    dump = format_tree(root, ascii_slots=True)
    lines = dump.splitlines()
    assert lines[0].startswith("a <")
    assert lines[1].startswith("  ") and lines[1].endswith("*")
    assert len(lines) == 3


# Reference copies of the earlier rescanning loops: contract the deepest,
# then leftmost, internal node until the height fits, and prune to a
# fixpoint. The one-pass versions must build the same trees.


def contract_until_it_fits(root: TemplateTreeNode, max_height: int) -> TemplateTreeNode:
    root = copy_tree(root)
    while tree_height(root) > max_height:
        parent, target = deepest_internal(root)
        idx = parent.children.index(target)
        parent.children[idx : idx + 1] = target.children
    return root


def deepest_internal(root: TemplateTreeNode) -> tuple[TemplateTreeNode, TemplateTreeNode]:
    best = None
    counter = count()

    def walk(node, depth):
        nonlocal best
        for child in node.children:
            if child.is_leaf:
                continue
            key = (-(depth + 1), next(counter))
            if best is None or key < best[0]:
                best = (key, node, child)
            walk(child, depth + 1)

    walk(root, 0)
    return best[1], best[2]


def prune_to_fixpoint(node: TemplateTreeNode) -> TemplateTreeNode:
    root = copy_tree(node)

    def prune(node):
        while True:
            changed = False
            indexed = sorted(
                enumerate(node.children), key=lambda ic: (len(leaf_texts(ic[1])), ic[0])
            )
            for _, child in indexed:
                if child not in node.children:
                    continue
                others = [c for c in node.children if c is not child]
                if not others:
                    continue
                if leaf_texts(child) <= frozenset().union(*(leaf_texts(c) for c in others)):
                    node.children.remove(child)
                    changed = True
            if not changed:
                break
        for child in node.children:
            prune(child)

    prune(root)
    return root


def random_tree(rng: random.Random, height: int, texts: list, tall=True) -> TemplateTreeNode:
    """A random tree with leaf texts from ``texts``, of height ``height`` if ``tall``."""
    if height == 0 or (not tall and rng.random() < 0.4):
        text = rng.choice(texts)
        return TemplateTreeNode(template(text or ""), leaf_text=text)
    width = rng.randint(1, 3)
    spine = rng.randrange(width)
    children = [random_tree(rng, height - 1, texts, i == spine) for i in range(width)]
    return TemplateTreeNode(random_template(rng), children)


def random_trees(seed: int, n: int):
    rng = random.Random(seed)
    for k in range(n):
        # Half the trees draw from a few leaf texts, so that siblings cover
        # each other; the others mostly have distinct texts. A leaf without
        # text reaches no sentence.
        pool = 4 if k % 2 else 200
        texts = [f"w{i}" for i in range(pool)] + [None]
        yield random_tree(rng, rng.randint(0, 9), texts)


def test_limit_height_matches_contracting_until_it_fits():
    contracted = 0
    for tree in random_trees(2009, 200):
        for max_height in range(1, 9):
            expected = contract_until_it_fits(tree, max_height)
            limited = limit_height(tree, max_height)
            assert tree_equal(limited, expected), format_tree(tree)
            assert tree_height(limited) <= max_height
            contracted += tree_height(tree) > max_height
    assert contracted > 500


def test_limit_height_leaves_its_input_alone():
    tree = next(random_trees(7, 1))
    before = copy_tree(tree)
    limit_height(tree, 1)
    assert tree_equal(tree, before)


def test_prune_matches_the_fixpoint_reference():
    removed = 0
    for tree in random_trees(4036, 400):
        expected = prune_to_fixpoint(tree)
        pruned = prune_redundant_children(tree)
        assert tree_equal(pruned, expected), format_tree(tree)
        assert leaf_texts(pruned) == leaf_texts(tree)
        removed += not tree_equal(pruned, tree)
    assert removed > 100


def test_prune_computes_each_leaf_set_once(monkeypatch):
    # A root over 60 distinct leaves: one leaf set per child. Rescanning
    # the siblings for every child takes 60 + 60 * 60 = 3,660 calls.
    calls = 0

    def counted(node):
        nonlocal calls
        calls += 1
        return leaf_texts(node)

    monkeypatch.setattr(gramtree.tree, "leaf_texts", counted)
    root = TemplateTreeNode(template(0), [leaf(f"w{i}") for i in range(60)])
    pruned = prune_redundant_children(root)
    assert len(pruned.children) == 60
    assert calls <= 120


def test_learned_children_partition_their_leaves():
    # A pop takes two live templates, whose subtrees share no leaf, and
    # limit_height hands a node its own subtree's leaves: so the children
    # of every learned node split its leaves, and pruning finds nothing.
    rng = random.Random(1978)
    corpora = [deep_corpus(40, seed) for seed in range(4)]
    for _ in range(150):
        words = ("a", "b", "c", "d")[: rng.randint(2, 4)]
        corpora.append(
            [" ".join(rng.choices(words, k=rng.randint(0, 6))) for _ in range(rng.randint(1, 25))]
        )
    for corpus in corpora:
        for height in (None, 1, 2, 3):
            root = learn_template_tree(corpus, max_height=height)
            assert leaf_texts(root) == set(map(normalize_sentence, corpus))
            stack = [root]
            while stack:
                node = stack.pop()
                if node.children:
                    leaves = [leaf_texts(child) for child in node.children]
                    assert sum(map(len, leaves)) == len(frozenset().union(*leaves))
                    assert frozenset().union(*leaves) == leaf_texts(node)
                    stack.extend(node.children)
            assert tree_equal(prune_redundant_children(root), root)


# Reference copies of the recursive passes that the pre-order walk replaced.
# The walk-based passes must give the same results.


def recursive_preorder(node: TemplateTreeNode, depth: int = 0):
    yield node, depth
    for child in node.children:
        yield from recursive_preorder(child, depth + 1)


def reference_leaf_texts(node: TemplateTreeNode) -> frozenset:
    if node.is_leaf:
        return frozenset(() if node.leaf_text is None else (node.leaf_text,))
    return frozenset().union(*(reference_leaf_texts(c) for c in node.children))


def reference_tree_height(node: TemplateTreeNode) -> int:
    if node.is_leaf:
        return 0
    return 1 + max(reference_tree_height(c) for c in node.children)


def reference_tree_equal(a: TemplateTreeNode, b: TemplateTreeNode) -> bool:
    return (
        a.template == b.template
        and a.leaf_text == b.leaf_text
        and len(a.children) == len(b.children)
        and all(reference_tree_equal(x, y) for x, y in zip(a.children, b.children))
    )


def reference_max_slot_id(node: TemplateTreeNode) -> int:
    own = max(slot_ids(node.template), default=-1)
    return max([own] + [reference_max_slot_id(c) for c in node.children])


def reference_format_tree(node: TemplateTreeNode, ascii_slots: bool = False) -> str:
    lines = []

    def visit(n, depth):
        text = format_template(n.template, ascii_slots=ascii_slots)
        lines.append("  " * depth + text + (" *" if n.is_leaf else ""))
        for c in n.children:
            visit(c, depth + 1)

    visit(node, 0)
    return "\n".join(lines)


def trees_for_the_walk():
    yield from random_trees(1121, 300)
    for seed in range(3):
        yield learn_template_tree(deep_corpus(40, seed))


def test_walk_is_the_recursive_preorder():
    for tree in trees_for_the_walk():
        walked = [(id(node), depth) for node, depth in walk(tree)]
        assert walked == [(id(node), depth) for node, depth in recursive_preorder(tree)]


def test_walk_follows_children_replaced_before_it_resumes():
    tree = learn_template_tree(["a b", "a c", "d e", "d f"])
    lone = leaf("g")
    seen = []
    for node, depth in walk(tree):
        seen.append((node, depth))
        if depth == 0:
            node.children = [lone]
    assert seen == [(tree, 0), (lone, 1)]


def test_walk_passes_match_the_recursive_references():
    for tree in trees_for_the_walk():
        assert leaf_texts(tree) == reference_leaf_texts(tree)
        assert tree_height(tree) == reference_tree_height(tree)
        assert max_slot_id(tree) == reference_max_slot_id(tree)
        for ascii_slots in (False, True):
            assert format_tree(tree, ascii_slots) == reference_format_tree(tree, ascii_slots)
    # Only leaves contribute their text.
    odd = TemplateTreeNode(template(0), [leaf("a")], leaf_text="b")
    assert leaf_texts(odd) == reference_leaf_texts(odd) == {"a"}


def test_tree_equal_matches_the_reference_on_one_change():
    rng = random.Random(2009)
    changed = Counter()
    for tree in trees_for_the_walk():
        assert tree_equal(tree, copy_tree(tree)) and reference_tree_equal(tree, copy_tree(tree))
        for change in ("template", "leaf_text", "children"):
            other = copy_tree(tree)
            depth = rng.randint(0, tree_height(other))
            node = rng.choice([n for n, d in recursive_preorder(other) if d == depth])
            if change == "template":
                node.template = Template(node.template.elements + (Token("z"),))
            elif change == "leaf_text":
                node.leaf_text = (node.leaf_text or "") + "!"
            elif node.children and rng.random() < 0.5:
                node.children.pop(rng.randrange(len(node.children)))
            else:
                node.children.insert(rng.randint(0, len(node.children)), leaf("z"))
            assert not reference_tree_equal(tree, other)
            assert not tree_equal(tree, other) and not tree_equal(other, tree)
            changed[change, depth > 0] += 1
    assert min(changed.values()) > 20, changed


def test_a_learned_tree_shares_one_token_per_word():
    root = learn_template_tree(deep_corpus(40))
    tokens: dict[str, Token] = {}
    leaves = 0
    for node, _ in walk(root):
        leaves += not node.children
        for e in node.template.elements:
            if isinstance(e, Token):
                assert tokens.setdefault(e.text, e) is e, e.text
    assert leaves == 40
    # The table lives for one call: a second learning makes its own tokens.
    again = learn_template_tree(deep_corpus(40))
    assert again.template.elements[0] == root.template.elements[0]
    assert again.template.elements[0] is not root.template.elements[0]


@pytest.mark.parametrize("clone", [lambda t: pickle.loads(pickle.dumps(t)), copy.deepcopy])
def test_copied_trees_are_equal_and_recompute_the_derived_keys(clone):
    root = learn_template_tree(deep_corpus(20))
    for node, _ in walk(root):
        for name in DERIVED_KEYS:
            getattr(node.template, name)
    twin = clone(root)
    assert tree_equal(twin, root)
    for (node, _), (original, _) in zip(walk(twin), walk(root)):
        assert filled_keys(node.template) <= {"_hash"}
        assert [getattr(node.template, k) for k in DERIVED_KEYS] == [getattr(original.template, k) for k in DERIVED_KEYS]
