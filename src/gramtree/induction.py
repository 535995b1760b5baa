"""From template tree to grammar.

The pipeline learns a template tree, prunes redundant children, then
alternates between a slot-value fixpoint (extract values, merge similar
slots on Jaccard overlap, simplify value sets) and a tree collapse
(substitute slot replacements, delete children that are instantiations of
their parent, recalculate templates) until the tree stops changing. The
surviving root template and slot values become the grammar.
"""

from __future__ import annotations

from collections import defaultdict
from heapq import heappop, heappush
from itertools import accumulate, count
from typing import Iterable, Iterator

from .errors import InternalInvariantError, is_ratio
from .grammar import (
    Grammar,
    NonTerminal,
    Production,
    Symbol,
    Terminal,
    check_nonrecursive,
    production_text,
)
from .merge import merge_all
from .template import (
    Element,
    Slot,
    Template,
    Token,
    element_key,
    format_template,
    remap_new_slots,
    rewrite_slots,
    slot_ids,
    slot_label,
)
from .tree import (
    TemplateTreeNode,
    copy_tree,
    learn_template_tree,
    max_slot_id,
    prune_redundant_children,
    tree_equal_up_to_slot_ids,
    walk,
)

DEFAULT_RATIO = 0.5
MAX_PASSES = 100

Value = tuple[Element, ...]
SlotValues = dict[int, set[Value]]
SlotReplacement = dict[int, int]


def value_key(value: Value) -> tuple:
    return tuple(element_key(e) for e in value)


# ---------------------------------------------------------------------------
# slot value extraction


def extract_slot_values(tree: TemplateTreeNode) -> SlotValues:
    """Collect, per slot id, every child run the slot covers anywhere.

    Each child of a slotted node is aligned against the node's template;
    the run of child elements covered by each slot occurrence is recorded
    as one value (possibly the empty run).

    Raises:
        InternalInvariantError: a child is not derivable from its parent.
    """
    values: SlotValues = {}
    for node, _ in walk(tree):
        if not node.is_leaf and slot_ids(node.template):
            for child in node.children:
                for uid, run in _align_child(node.template, child.template):
                    values.setdefault(uid, set()).add(run)
    return values


def _align_child(parent: Template, child: Template) -> list[tuple[int, Value]]:
    """Match ``child`` against ``parent``, returning per-slot covered runs.

    Parent tokens must match child tokens literally; each parent slot
    covers zero or more child elements. Among valid alignments the number
    of slots covering a non-empty run is maximised, then earlier slots
    take longer runs.
    """
    p, c = parent.elements, child.elements
    np_, nc = len(p), len(c)
    positions: dict[str | None, list[int]] = {}
    for ci, key in enumerate(child.match_keys):
        positions.setdefault(key, []).append(ci)

    # best[pi][ci] = max count of non-empty slot assignments matching
    # p[pi:] against c[ci:], or -1 when impossible.
    best = [[-1] * (nc + 1) for _ in range(np_ + 1)]
    best[np_][nc] = 0
    for pi in range(np_ - 1, -1, -1):
        e, below = p[pi], best[pi + 1]
        if isinstance(e, Token):
            row = best[pi]
            for ci in positions.get(e.text, ()):
                row[ci] = below[ci + 1]
        else:
            # An empty run scores below[ci]; a non-empty one 1 + after[ci],
            # the best below[k] for k > ci.
            after = [*accumulate(below[:0:-1], max)][::-1] + [-1]
            best[pi] = [b if a < 0 or b > a else a + 1 for b, a in zip(below, after)]
    if best[0][0] < 0:
        raise InternalInvariantError(
            f"child {format_template(child)!r} is not derivable from "
            f"parent {format_template(parent)!r}"
        )

    assignments: list[tuple[int, Value]] = []
    pi = ci = 0
    while pi < np_:
        e = p[pi]
        if isinstance(e, Token):
            pi, ci = pi + 1, ci + 1
            continue
        # The longest run whose rest scores one less, else the empty run.
        target, length = best[pi][ci], 0
        if target:
            try:
                length = nc - ci - best[pi + 1][:ci:-1].index(target - 1)
            except ValueError:
                pass
        assignments.append((e.uid, c[ci : ci + length]))
        ci += length
        pi += 1
    return assignments


# ---------------------------------------------------------------------------
# slot merging and simplification


def _retire(
    values: SlotValues, replacement: SlotReplacement, old: int, new: int, referrers: Iterable[int]
) -> set[int]:
    """Drop slot ``old`` for ``new`` from the values, the replacement and every reference.

    Only the ``referrers`` that reference ``old`` are rebuilt; the others
    must not reference it. Returns the slots it rebuilt.
    """
    del values[old]
    for source, target in replacement.items():
        if target == old:
            replacement[source] = new
    replacement[old] = new
    ref = Slot(old)
    rewritten = {uid for uid in referrers if uid in values and any(ref in v for v in values[uid])}
    for uid in rewritten:
        values[uid] = {rewrite_slots(v, {old: new}) for v in values[uid]}
    return rewritten


def _jaccard(a: set[Value], b: set[Value]) -> float:
    union = len(a | b)
    return len(a & b) / union if union else 1.0


def _references(vs: Iterable[Value], skipped: Iterable[Value] = ()) -> list[int]:
    return [e.uid for v in vs if v not in skipped for e in v if isinstance(e, Slot)]


def _merge_keeps_acyclic(values: SlotValues, keep: int, drop: int) -> bool:
    """Would unioning ``drop`` into ``keep`` keep slot references acyclic?

    A merge can close a cycle only through the merged slot, so the search
    fails if the union's references, less the self-aliases ``(<keep>,)`` and
    ``(<drop>,)`` that simplification drops, reach ``keep`` or ``drop``.
    """
    frontier = _references(values[keep] | values[drop], {(Slot(keep),), (Slot(drop),)})
    return {keep, drop}.isdisjoint(_reachable(values, frontier))


def _reachable(values: SlotValues, frontier: list[int]) -> Iterator[int]:
    """Each slot in ``frontier`` (consumed) or reachable from it through slot values, once.

    A slot without values is yielded but not followed."""
    seen: set[int] = set()
    while frontier:
        uid = frontier.pop()
        if uid not in seen:
            seen.add(uid)
            yield uid
            if uid in values:
                frontier += _references(values[uid])


def merge_similar_slots(values: SlotValues, ratio: float) -> tuple[SlotValues, SlotReplacement]:
    """Greedily union slots whose value sets overlap enough.

    The pair with the highest Jaccard overlap >= ratio is merged first
    (ties on slot-id order), the union kept under the lower id, and all
    references to the removed id rewritten. A merge that would make the
    slot reference graph cyclic (and hence the grammar recursive) is
    skipped; ``_merge_keeps_acyclic`` searches only from the merged slot.

    Overlaps are scored incrementally. Above ratio 0 only slots that share
    a value can qualify, so a slot's partners come from an index of value
    to slots (the candidate filter of all-pairs similarity search; Bayardo,
    Ma & Srikant, 2007); at ratio 0 every other slot is a partner. A merge
    changes only the kept slot and the slots ``_retire`` rewrote, so only
    their pairs are scored again. The index is add-only: a slot stays
    listed under the values it lost, but those name the retired slot, so
    no live slot looks them up. ``_retire`` checks only the kept slot and
    the slots that a second add-only index lists as having referenced the
    dropped one. A popped pair counts only if both slots are live and its
    overlap is the live one: a pair whose overlap changed was scored again,
    and a stale entry with an unchanged overlap sits where the fresh one
    does. The merges and their order are those of rescoring every pair
    after each merge.
    """
    if not is_ratio(ratio):
        raise ValueError(f"ratio must be within [0, 1], got {ratio}")
    values = {uid: set(vs) for uid, vs in values.items()}
    replacement: SlotReplacement = {}
    # value -> slots that have held it; all empty sets share the key None,
    # since two empty sets overlap fully, and at ratio 0, where every pair
    # qualifies, every slot is filed under None alone
    holders: defaultdict[Value | None, set[int]] = defaultdict(set)
    referrers: defaultdict[int, set[int]] = defaultdict(set)  # slot -> slots that named it
    heap: list[tuple[float, int, int]] = []

    def keys(uid: int) -> Iterable[Value | None]:
        return (values[uid] or (None,)) if ratio > 0.0 else (None,)

    def index(uids: Iterable[int]) -> None:
        for uid in uids:
            for key in keys(uid):
                holders[key].add(uid)
            for ref in _references(values[uid]):
                referrers[ref].add(uid)

    def score(pairs: set[tuple[int, int]]) -> None:
        for a, b in pairs:
            if (overlap := _jaccard(values[a], values[b])) >= ratio:
                heappush(heap, (-overlap, a, b))

    index(values)
    score({(a, b) for group in holders.values() for a in group for b in group if a < b})
    while heap:
        # A rejected pair is dropped: its path from keep or drop back to one
        # of them survives later merges, which contract the reference graph,
        # until a merge changes either slot and scores the pair again.
        negative, keep, drop = heappop(heap)
        if (
            keep in values
            and drop in values
            and _jaccard(values[keep], values[drop]) == -negative
            and _merge_keeps_acyclic(values, keep, drop)
        ):
            values[keep] |= values[drop]
            dirty = _retire(values, replacement, drop, keep, referrers[drop] | {keep}) | {keep}
            index(dirty)
            score({
                (a, b) if a < b else (b, a)
                for a in dirty
                for key in keys(a)
                for b in holders[key]
                if b != a and b in values
            })
    return values, replacement


def simplify_slot_values(values: SlotValues) -> SlotValues:
    """Apply the three value-set reduction rules until nothing changes.

    A single-element value ``[<k>]`` counts as slot membership: such
    self-references are dropped, values reachable through a referenced
    slot are dropped, and a slot whose value set is exactly ``{[<k>]}``
    is replaced by ``k`` everywhere.
    """
    simplified, _ = _simplify(values, {})
    return simplified


def _slot_ref(value: Value) -> int | None:
    if len(value) == 1 and isinstance(value[0], Slot):
        return value[0].uid
    return None


def _warn(message: str, *args: object) -> None:
    """Log a warning; ``logging`` loads here, not on ``import gramtree``."""
    import logging

    logging.getLogger(__name__).warning(message, *args)


def _simplify(values: SlotValues, replacement: SlotReplacement) -> tuple[SlotValues, bool]:
    """``simplify_slot_values``, retiring aliases into ``replacement``, plus
    whether anything changed."""
    values = {uid: set(vs) for uid, vs in values.items()}
    for rounds in count():
        changed = False

        # Self-references never contribute; an emptied set degrades to ε.
        for uid in sorted(values):
            if (Slot(uid),) in values[uid]:
                values[uid].discard((Slot(uid),))
                changed = True
                if not values[uid]:
                    _warn("slot %s only referenced itself; keeping ε", slot_label(uid))
                    values[uid].add(())

        # Drop values already reachable through a referenced slot, but
        # never empty a value set outright.
        for uid in sorted(values):
            referenced = {
                ref for v in values[uid]
                if (ref := _slot_ref(v)) is not None and ref != uid and ref in values
            }
            if not referenced:
                continue
            removable = {
                v for v in values[uid]
                if any(v in values[ref] for ref in referenced)
            }
            if removable:
                if removable == values[uid]:
                    kept = max(removable, key=value_key)
                    removable = removable - {kept}
                    _warn("all values of slot %s are covered; keeping %r", slot_label(uid), kept)
                if removable:
                    values[uid] -= removable
                    changed = True

        # A slot whose only value is another slot is an alias.
        for uid in sorted(values):
            if len(values[uid]) == 1:
                ref = _slot_ref(next(iter(values[uid])))
                if ref is not None and ref != uid and ref in values:
                    _retire(values, replacement, uid, ref, values)
                    changed = True

        if not changed:
            return values, rounds > 0


def _slot_fixpoint(values: SlotValues, ratio: float) -> tuple[SlotValues, SlotReplacement]:
    """Alternate merge_similar_slots and simplification to a joint fixpoint.

    Returns the values and a closed replacement: no target is also a key.
    """
    combined: SlotReplacement = {}
    for _ in range(MAX_PASSES):
        values, merged = merge_similar_slots(values, ratio)
        # A merge retires only live slots, never a key of ``combined``; the
        # aliases are retired into ``combined``, which redirects its entries.
        combined = {old: merged.get(target, target) for old, target in combined.items()} | merged
        values, simplified = _simplify(values, combined)
        # A merge pass leaves nothing for a second one to merge, so only a
        # change by simplification calls for another round.
        if not simplified:
            return values, combined
    raise InternalInvariantError("slot merge/simplify fixpoint did not converge")


# ---------------------------------------------------------------------------
# tree collapsing


def collapse_tree(
    tree: TemplateTreeNode,
    values: SlotValues,
    replacement: SlotReplacement,
) -> TemplateTreeNode:
    """Simplify the tree with known slot values in one walk.

    The walk applies the slot replacement to every template, deletes any
    child whose template is the parent's with some other slots filled by
    known values, attaching its children to the parent, and recalculates
    every template bottom-up as the closest-pair merge of its children's
    templates (kept verbatim when the result is structurally unchanged).
    The replacement must be closed, so applying it once is final; the
    induction loop, not collapse, repeats until the tree stops changing.

    Raises:
        ValueError: a replacement target is also a replaced slot.
    """
    if not replacement.keys().isdisjoint(replacement.values()):
        raise ValueError(f"slot replacement is not closed: {replacement}")
    root = copy_tree(tree)
    value_ids = [*values, *_references(v for vs in values.values() for v in vs)]
    fresh = count(max([max_slot_id(root)] + value_ids, default=-1) + 1)
    _replace_template(root, replacement)
    _collapse(root, values, replacement, fresh)
    return root


def _replace_template(node: TemplateTreeNode, replacement: SlotReplacement) -> None:
    rewritten = Template(rewrite_slots(node.template.elements, replacement))
    if rewritten != node.template:
        node.template = rewritten


def _collapse(
    node: TemplateTreeNode,
    values: SlotValues,
    replacement: SlotReplacement,
    fresh: Iterator[int],
) -> None:
    """Collapse below ``node``, whose template is already replaced.

    A child's template is replaced as the child is examined, so children
    spliced up from a collapsed child are replaced too. The collapse checks
    read templates from before recalculation; ``node`` is recalculated last,
    from its children's final templates.
    """
    i = 0
    while i < len(node.children):
        child = node.children[i]
        _replace_template(child, replacement)
        if not child.is_leaf and _is_instantiation(node.template, child.template, values):
            node.children[i : i + 1] = child.children
            continue
        i += 1
    for child in node.children:
        _collapse(child, values, replacement, fresh)
    if not node.is_leaf:
        child_templates = tuple(c.template for c in node.children)
        candidate = merge_all(child_templates)
        if candidate.canonical_key != node.template.canonical_key:
            node.template = remap_new_slots(candidate, child_templates, fresh)


def _is_instantiation(parent: Template, child: Template, values: SlotValues) -> bool:
    """True when ``child`` keeps at least one of ``parent``'s slots and is
    obtainable from ``parent`` by filling other slots with known values.

    One forward pass over ``parent`` keeps the set of child positions where
    a match of the parent's prefix can end, so no recursion grows with the
    template's length.
    """
    if set(slot_ids(parent)).isdisjoint(slot_ids(child)):
        return False
    c = child.elements
    ends = {0}
    for e in parent.elements:
        # a token, or a slot kept verbatim
        step = {ci + 1 for ci in ends if ci < len(c) and c[ci] == e}
        if isinstance(e, Slot):
            for value in values.get(e.uid, ()):
                step.update(ci + len(value) for ci in ends if c[ci : ci + len(value)] == value)
        if not step:
            return False
        ends = step
    return len(c) in ends


# ---------------------------------------------------------------------------
# grammar induction


def induce_grammar(
    texts: Iterable[str],
    ratio: float = DEFAULT_RATIO,
    max_height: int | None = None,
) -> Grammar:
    """Induce a non-recursive grammar from example sentences.

    Args:
        texts: input sentences (deduplicated, whitespace-normalised).
        ratio: Jaccard threshold for merging similar slots, in [0, 1].
        max_height: optional template tree height bound.

    Returns:
        A grammar whose ``origin`` rule is the root template and whose
        other rules are the surviving slots' value sets.

    Raises:
        TypeError: ``texts`` is a ``str`` or ``bytes``, or one of its items
            is not a ``str``.
        ValueError: ``ratio`` is not an int or float within [0, 1], or
            ``max_height`` is not an int >= 1.
    """
    if not is_ratio(ratio):
        raise ValueError(f"ratio must be within [0, 1], got {ratio}")
    tree = learn_template_tree(texts, max_height=max_height)
    tree = prune_redundant_children(tree)
    for _ in range(MAX_PASSES):
        values = extract_slot_values(tree)
        values, replacement = _slot_fixpoint(values, ratio)
        collapsed = collapse_tree(tree, values, replacement)
        if tree_equal_up_to_slot_ids(collapsed, tree):
            # Converged (recalculation may have re-minted ids for the same
            # shape). The value map matches this iteration's tree once the
            # replacement is applied to its root.
            root = Template(rewrite_slots(tree.template.elements, replacement))
            return _emit_grammar(root, values)
        tree = collapsed
    raise InternalInvariantError("induction pipeline did not reach a fixpoint")


def _emit_grammar(root_template: Template, values: SlotValues) -> Grammar:
    reachable = sorted(_reachable(values, [*slot_ids(root_template)]))
    for uid in reachable:
        if uid not in values:
            raise InternalInvariantError(f"slot {slot_label(uid)} has no extracted values")
    names = {uid: slot_label(rank) for rank, uid in enumerate(reachable)}

    def symbols(elements: Iterable[Element]) -> Production:
        out: list[Symbol] = []
        for element in elements:
            if isinstance(element, Token):
                out.append(Terminal(element.text))
            else:
                out.append(NonTerminal(names[element.uid]))
        return tuple(out)

    rules: dict[str, tuple[Production, ...]] = {
        "origin": (symbols(root_template.elements),)
    }
    for uid in reachable:
        productions = [symbols(value) for value in values[uid]]
        rules[names[uid]] = tuple(sorted(productions, key=production_text))

    grammar = Grammar("origin", rules)
    check = check_nonrecursive(grammar)
    if not check.ok:
        raise InternalInvariantError(
            "induced grammar is recursive: " + " -> ".join(check.cycle)
        )
    return grammar
