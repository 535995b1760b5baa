"""Template tree learning.

A template tree is learned bottom-up: all distinct input sentences start as
leaves, and the closest pair of parentless templates is repeatedly merged
until a single root remains. Every merge records the merged nodes as
children of the node holding the merge result. The closest pairs come from
:class:`gramtree.merge.PairQueue`, which scores them lazily.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from itertools import count
from typing import Iterable

from .merge import PairQueue, distance, merge_templates, remap_new_slots
from .template import Template, Token, format_template, normalize_sentence, slot_ids, tokenize


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


def leaf_texts(node: TemplateTreeNode) -> frozenset[str]:
    """The set of leaf sentences reachable from ``node``."""
    if node.is_leaf:
        return frozenset(() if node.leaf_text is None else (node.leaf_text,))
    return frozenset().union(*(leaf_texts(c) for c in node.children))


def tree_height(node: TemplateTreeNode) -> int:
    """Height in edges; a lone leaf has height 0."""
    if node.is_leaf:
        return 0
    return 1 + max(tree_height(c) for c in node.children)


def copy_tree(node: TemplateTreeNode) -> TemplateTreeNode:
    return TemplateTreeNode(
        node.template, [copy_tree(c) for c in node.children], node.leaf_text
    )


def tree_equal(a: TemplateTreeNode, b: TemplateTreeNode) -> bool:
    return (
        a.template == b.template
        and a.leaf_text == b.leaf_text
        and len(a.children) == len(b.children)
        and all(tree_equal(x, y) for x, y in zip(a.children, b.children))
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

    def walk(node: TemplateTreeNode) -> None:
        key.append((node.leaf_text, len(node.children)))
        for e in node.template.elements:
            key.append(e.text if isinstance(e, Token) else order.setdefault(e.uid, len(order)))
        for child in node.children:
            walk(child)

    walk(tree)
    return key


def max_slot_id(node: TemplateTreeNode) -> int:
    """Largest slot id used anywhere in the tree, or -1."""
    own = max(slot_ids(node.template), default=-1)
    return max([own] + [max_slot_id(c) for c in node.children])


def format_tree(node: TemplateTreeNode, ascii_slots: bool = False) -> str:
    """Indented dump, one node per line, leaves suffixed with ``*``."""
    lines: list[str] = []

    def walk(n: TemplateTreeNode, depth: int) -> None:
        text = format_template(n.template, ascii_slots=ascii_slots)
        lines.append("  " * depth + text + (" *" if n.is_leaf else ""))
        for c in n.children:
            walk(c, depth + 1)

    walk(node, 0)
    return "\n".join(lines)


def learn_template_tree(
    texts: Iterable[str],
    max_height: int | None = None,
) -> TemplateTreeNode:
    """Learn a template tree from input sentences.

    Duplicates (after whitespace normalisation) are dropped. Each round
    takes every minimally distant pair of active templates, in lexicographic
    order, merges those whose members were not already consumed this round,
    and enqueues the merge results against the remaining active templates.
    Merge results that come out syntactically identical share one node.

    Args:
        texts: input sentences, at least one.
        max_height: optional bound applied with :func:`limit_height`.

    Raises:
        ValueError: on an empty input set.
    """
    distinct = sorted({normalize_sentence(t) for t in texts})
    if not distinct:
        raise ValueError("cannot learn a template tree from an empty input set")
    if max_height is not None and max_height < 1:
        raise ValueError(f"max_height must be >= 1, got {max_height}")

    fresh_ids = count()
    queue = PairQueue(distance)
    nodes: dict[tuple, TemplateTreeNode] = {}  # the latest node of each canonical key
    for text in distinct:
        leaf = TemplateTreeNode(tokenize(text), leaf_text=text)
        nodes[leaf.template.canonical_key] = leaf
        queue.add(leaf.template.canonical_key, leaf.template)
    live = queue.live

    while len(live) > 1:
        band = [queue.pop()]
        while (pair := queue.pop(band[0][0])) is not None:
            band.append(pair)

        fresh: dict[tuple, TemplateTreeNode] = {}
        for _, k1, k2 in band:
            if k1 not in live or k2 not in live:
                continue  # a member was merged away earlier this round
            del live[k1], live[k2]
            n1, n2 = nodes[k1], nodes[k2]
            result = merge_templates(n1.template, n2.template)
            merged = remap_new_slots(result.merged, (n1.template, n2.template), fresh_ids)
            key = merged.canonical_key
            if key in live:
                nodes[key].children.extend((n1, n2))
            elif key in fresh:
                fresh[key].children.extend((n1, n2))
            else:
                fresh[key] = TemplateTreeNode(merged, [n1, n2])

        for key in sorted(fresh):
            nodes[key] = fresh[key]
            queue.add(key, fresh[key].template)

    root = nodes[next(iter(live))]
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
    _prune(root)
    return root


def _prune(node: TemplateTreeNode) -> None:
    leaves = [leaf_texts(c) for c in node.children]
    # leaf text -> number of remaining children that reach it
    reach = Counter(text for texts in leaves for text in texts)
    dropped: set[int] = set()
    for i in sorted(range(len(leaves)), key=lambda i: (len(leaves[i]), i)):
        if len(leaves) - len(dropped) > 1 and all(reach[t] > 1 for t in leaves[i]):
            dropped.add(i)
            reach.subtract(leaves[i])
    node.children = [c for i, c in enumerate(node.children) if i not in dropped]
    for child in node.children:
        _prune(child)


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
    if max_height < 1:
        raise ValueError(f"max_height must be >= 1, got {max_height}")
    root = copy_tree(root)
    level = [root]
    for _ in range(max_height - 1):
        level = [c for node in level for c in node.children]
    for node in level:
        node.children = _leaves_below(node)
    return root


def _leaves_below(node: TemplateTreeNode) -> list[TemplateTreeNode]:
    """The leaves of ``node``'s subtree, left to right; none for a leaf."""
    found, stack = [], node.children[::-1]
    while stack:
        node = stack.pop()
        if node.is_leaf:
            found.append(node)
        stack.extend(reversed(node.children))
    return found
