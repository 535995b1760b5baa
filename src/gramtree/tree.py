"""Template tree learning.

A template tree is learned bottom-up: all distinct input sentences start as
leaves, and the closest pair of parentless templates is repeatedly merged
until a single root remains. Every merge records the merged nodes as
children of the node holding the merge result. The parentless templates
live in a :class:`gramtree.merge.PairQueue`: a pop takes the closest pair.

Every whole-tree pass that can run in pre-order (pruning, height limiting,
comparison, formatting, and slot-value extraction in
:mod:`gramtree.induction`) is a loop over :func:`walk`. Only
:func:`copy_tree` and the collapse, which recalculates bottom-up, recurse.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from itertools import count
from math import inf
from typing import Iterable, Iterator

from .errors import is_positive_int
from .merge import PairQueue, distance, merge_templates
from .template import Template, Token, format_template, normalize_sentence, remap_new_slots, slot_ids


@dataclass(eq=False)
class TemplateTreeNode:
    """A node of a template tree.

    Leaves carry the original (whitespace-normalised) input sentence in
    ``leaf_text`` and a slot-free template; internal nodes carry templates
    that generalise every descendant. Node equality is identity; use
    :func:`tree_equal` for structural comparison.
    """

    template: Template
    children: list[TemplateTreeNode] = field(default_factory=list)
    leaf_text: str | None = None

    @property
    def is_leaf(self) -> bool:
        return not self.children


def walk(node: TemplateTreeNode) -> Iterator[tuple[TemplateTreeNode, int]]:
    """Every node of ``node``'s subtree in pre-order, with its depth below ``node``.

    A node's children are read only when the walk resumes after yielding
    the node, so a pass may replace them first and the walk follows the
    new ones.
    """
    yield node, 0
    stack = [iter(node.children)]
    while stack:
        for node in stack[-1]:
            yield node, len(stack)
            if node.children:
                stack.append(iter(node.children))
                break
        else:
            stack.pop()


def leaf_texts(node: TemplateTreeNode) -> frozenset[str]:
    """The set of leaf sentences reachable from ``node``."""
    return frozenset(
        n.leaf_text for n, _ in walk(node) if not n.children and n.leaf_text is not None
    )


def tree_height(node: TemplateTreeNode) -> int:
    """Height in edges; a lone leaf has height 0."""
    return max(depth for _, depth in walk(node))


def copy_tree(node: TemplateTreeNode) -> TemplateTreeNode:
    return TemplateTreeNode(
        node.template, [copy_tree(c) for c in node.children], node.leaf_text
    )


def tree_equal(a: TemplateTreeNode, b: TemplateTreeNode) -> bool:
    # Child counts in pre-order fix the shape, so the walks pair node with node.
    return all(
        x.template == y.template
        and x.leaf_text == y.leaf_text
        and len(x.children) == len(y.children)
        for (x, _), (y, _) in zip(walk(a), walk(b))
    )


def tree_equal_up_to_slot_ids(a: TemplateTreeNode, b: TemplateTreeNode) -> bool:
    """Structural equality under one consistent slot-id bijection.

    Recalculation mints fresh ids for unchanged shapes; this is the
    equality that detects such a fixpoint.
    """
    return _shape_key(a) == _shape_key(b)


def _shape_key(tree: TemplateTreeNode) -> list:
    """Pre-order ``(leaf_text, child count)`` per node, then its elements:
    token texts, and slot ids numbered by first occurrence in the tree."""
    order: dict[int, int] = {}
    key: list = []
    for node, _ in walk(tree):
        key.append((node.leaf_text, len(node.children)))
        for e in node.template.elements:
            key.append(e.text if isinstance(e, Token) else order.setdefault(e.uid, len(order)))
    return key


def max_slot_id(node: TemplateTreeNode) -> int:
    """Largest slot id used anywhere in the tree, or -1."""
    return max((uid for n, _ in walk(node) for uid in slot_ids(n.template)), default=-1)


def format_tree(node: TemplateTreeNode, ascii_slots: bool = False) -> str:
    """Indented dump, one node per line, leaves suffixed with ``*``."""
    return "\n".join(
        "  " * depth
        + format_template(n.template, ascii_slots=ascii_slots)
        + (" *" if n.is_leaf else "")
        for n, depth in walk(node)
    )


def learn_template_tree(
    texts: Iterable[str],
    max_height: int | None = None,
) -> TemplateTreeNode:
    """Learn a template tree from input sentences.

    Duplicates (after whitespace normalisation) are dropped. A round pops
    the closest pair of active templates, which takes both, and merges it,
    then does so with each pair at that distance, in lexicographic order.
    The round's merge results are then enqueued; those that come out
    syntactically identical share one node.

    Args:
        texts: input sentences, at least one.
        max_height: optional bound applied with :func:`limit_height`.

    Raises:
        TypeError: ``texts`` is a ``str`` or ``bytes``, not a collection of
            sentences, or one of its items is not a ``str``.
        ValueError: on an empty input set, or a ``max_height`` that is not an int >= 1.
    """
    if isinstance(texts, (str, bytes)):
        raise TypeError(f"texts must be a collection of sentences, not one {type(texts).__name__}")
    distinct = sorted({normalize_sentence(t) for t in texts})
    if not distinct:
        raise ValueError("cannot learn a template tree from an empty input set")
    if max_height is not None:
        _check_height(max_height)

    fresh_ids = count()
    queue = PairQueue(distance)
    nodes: dict[tuple, TemplateTreeNode] = {}  # the latest node of each canonical key
    # One Token per word: every leaf, and every template built from leaves, shares it.
    tokens = {word: Token(word) for text in distinct for word in text.split()}
    for text in distinct:
        leaf = TemplateTreeNode(Template(tuple([tokens[word] for word in text.split()])), leaf_text=text)
        nodes[leaf.template.canonical_key] = leaf
        queue.add(leaf.template.canonical_key, leaf.template)

    while len(queue) > 1:
        d_min, fresh = inf, {}
        while (pair := queue.pop(d_min)) is not None:
            d_min, k1, k2 = pair
            n1, n2 = nodes[k1], nodes[k2]
            result = merge_templates(n1.template, n2.template)
            merged = remap_new_slots(result.merged, (n1.template, n2.template), fresh_ids)
            key = merged.canonical_key
            node = nodes[key] if key in queue else fresh.setdefault(key, TemplateTreeNode(merged))
            node.children.extend((n1, n2))

        for key in sorted(fresh):
            nodes[key] = fresh[key]
            queue.add(key, fresh[key].template)

    root = nodes[next(iter(queue))]
    if max_height is not None:
        root = limit_height(root, max_height)
    return root


def prune_redundant_children(node: TemplateTreeNode) -> TemplateTreeNode:
    """Drop children whose descendant leaves are all covered by their siblings.

    Children are examined once each, in ascending number of descendant
    leaves (least general first), top-down. A child kept when examined stays
    uncovered, since later removals only shrink its siblings' union.
    """
    root = copy_tree(node)
    for parent, _ in walk(root):
        leaves = [leaf_texts(c) for c in parent.children]
        # leaf text -> number of remaining children that reach it
        reach = Counter(text for texts in leaves for text in texts)
        dropped: set[int] = set()
        for i in sorted(range(len(leaves)), key=lambda i: (len(leaves[i]), i)):
            if len(leaves) - len(dropped) > 1 and all(reach[t] > 1 for t in leaves[i]):
                dropped.add(i)
                reach.subtract(leaves[i])
        parent.children = [c for i, c in enumerate(parent.children) if i not in dropped]
    return root


def _check_height(max_height: int) -> None:
    if not is_positive_int(max_height):
        raise ValueError(f"max_height must be an int >= 1, got {max_height!r}")


def limit_height(root: TemplateTreeNode, max_height: int) -> TemplateTreeNode:
    """Cut the tree to height ``max_height`` in one pass.

    Every internal node at depth ``max_height - 1`` gets the leaves of its
    subtree, left to right, as its children; nothing above that depth
    changes. This is the tree that repeatedly contracting the deepest, then
    leftmost, internal non-root node until the height fits gives: while the
    tree is too tall the deepest internal node lies at depth >= max_height,
    every internal node at depth >= max_height has a leaf below depth
    max_height and so is contracted before the height fits, and it is
    contracted before its ancestors, at its original depth. Leaves are
    never touched, so the leaf set is preserved. The input is not modified.
    """
    _check_height(max_height)
    root = copy_tree(root)
    for node, depth in walk(root):
        if depth == max_height - 1 and node.children:
            node.children = [n for n, _ in walk(node) if not n.children]
    return root
