import copy
import gc
import logging
import random

import pytest

from gramtree import induction
from gramtree.errors import InternalInvariantError
from gramtree.grammar import enumerate_language, rule_count, to_tracery
from gramtree.induction import (
    DEFAULT_RATIO,
    _align_child,
    collapse_tree,
    extract_slot_values,
    induce_grammar,
    merge_similar_slots,
    simplify_slot_values,
)
from gramtree.merge import _alignment, distance, merge_all
from gramtree.template import Slot, Template, Token, format_template, slot_count
from gramtree.tree import (
    TemplateTreeNode,
    leaf_texts,
    learn_template_tree,
    prune_redundant_children,
    tree_equal,
)

from conftest import TWO_BY_TWO, FIG1_SENTENCES, deep_corpus, random_template, run_python, template
from test_slot_merge import random_values


def leaf(text):
    return TemplateTreeNode(template(text), leaf_text=text)


def value(*parts):
    elements = []
    for part in parts:
        if isinstance(part, int):
            elements.append(Slot(part))
        else:
            elements.extend(Token(w) for w in part.split())
    return tuple(elements)


def diamond_tree():
    """The 2x2 diamond with slots B=0, C=1, D=2, E=3 and root slot A=4."""
    mids = [
        TemplateTreeNode(template("hello", 0), [leaf("hello world"), leaf("hello people")]),
        TemplateTreeNode(template(1, "world"), [leaf("hello world"), leaf("hi world")]),
        TemplateTreeNode(template("hi", 2), [leaf("hi world"), leaf("hi people")]),
        TemplateTreeNode(template(3, "people"), [leaf("hello people"), leaf("hi people")]),
    ]
    return TemplateTreeNode(template(4), mids)


def test_extract_diamond_slot_values():
    values = extract_slot_values(diamond_tree())
    assert values[0] == {value("world"), value("people")}
    assert values[1] == {value("hello"), value("hi")}
    assert values[2] == {value("world"), value("people")}
    assert values[3] == {value("hello"), value("hi")}
    assert values[4] == {
        value("hello", 0),
        value(1, "world"),
        value("hi", 2),
        value(3, "people"),
    }


def test_extract_single_leaf_is_empty():
    assert extract_slot_values(leaf("nothing here")) == {}


def test_extract_epsilon_value():
    root = TemplateTreeNode(
        template("hello", 0, "people"),
        [leaf("hello people"), leaf("hello dear people")],
    )
    values = extract_slot_values(root)
    assert values[0] == {(), value("dear")}


def test_extract_prefers_nonempty_assignments():
    root = TemplateTreeNode(template(0, 1), [leaf("hello world")])
    values = extract_slot_values(root)
    assert values[0] == {value("hello")}
    assert values[1] == {value("world")}


def test_extract_overgeneral_middle_slot():
    # parent <H> <T> <G> over the two origin shapes: the middle slot picks
    # up "there," from one child and the value set pair covers epsilon
    greet = TemplateTreeNode(
        template(0, 1, 2),
        [
            TemplateTreeNode(template(0, "there,", 3), [leaf("hi there, alice")]),
            TemplateTreeNode(template(0, 4), [leaf("hi world")]),
        ],
    )
    values = extract_slot_values(greet)
    assert value("there,") in values[1]
    assert () in values[1] | values[2]


def test_extract_raises_on_non_derivable_child():
    broken = TemplateTreeNode(template("a", 0, "b"), [leaf("a x c")])
    with pytest.raises(InternalInvariantError):
        extract_slot_values(broken)


def align_all_lengths(parent: Template, child: Template):
    """Reference ``_align_child`` that tries every run length in each slot row."""
    p, c = parent.elements, child.elements
    np_, nc = len(p), len(c)
    best = [[-1] * (nc + 1) for _ in range(np_ + 1)]
    best[np_][nc] = 0
    for pi in range(np_ - 1, -1, -1):
        e, row, below = p[pi], best[pi], best[pi + 1]
        for ci in range(nc, -1, -1):
            if isinstance(e, Token):
                if ci < nc and c[ci] == e:
                    row[ci] = below[ci + 1]
                continue
            for length in range(0, nc - ci + 1):
                if below[ci + length] >= 0:
                    row[ci] = max(row[ci], below[ci + length] + (1 if length else 0))
    if best[0][0] < 0:
        raise InternalInvariantError("not derivable")
    assignments = []
    pi = ci = 0
    while pi < np_:
        e = p[pi]
        if isinstance(e, Token):
            pi, ci = pi + 1, ci + 1
            continue
        for length in range(nc - ci, -1, -1):
            rest = best[pi + 1][ci + length]
            if rest >= 0 and rest + (1 if length else 0) == best[pi][ci]:
                assignments.append((e.uid, tuple(c[ci : ci + length])))
                ci += length
                break
        pi += 1
    return assignments


def test_align_child_matches_the_all_lengths_reference():
    rng = random.Random(2009)
    derivable = 0
    for _ in range(3000):
        words = ("a", "b", "c")[: rng.randint(1, 3)]
        parent = random_template(rng, words, max_len=7)
        if rng.random() < 0.7:
            # fill each slot with a short run, or keep it
            parts = []
            for e in parent.elements:
                if isinstance(e, Token):
                    parts.append(e)
                else:
                    parts.extend(random_template(rng, words, max_len=3).elements)
            child = Template(tuple(parts))
        else:
            child = random_template(rng, words, max_len=9)
        case = f"{format_template(parent)!r} / {format_template(child)!r}"
        try:
            expected = align_all_lengths(parent, child)
        except InternalInvariantError:
            with pytest.raises(InternalInvariantError):
                _align_child(parent, child)
            continue
        assert _align_child(parent, child) == expected, case
        derivable += 1
    assert 1500 < derivable < 3000


def test_merge_identical_value_sets():
    values = {
        0: {value("world"), value("people")},
        2: {value("world"), value("people")},
    }
    merged, replacement = merge_similar_slots(values, 1.0)
    assert replacement == {2: 0}
    assert merged == {0: {value("world"), value("people")}}


def test_merge_disjoint_sets_never_merge_at_one():
    values = {0: {value("a")}, 1: {value("b")}}
    merged, replacement = merge_similar_slots(values, 1.0)
    assert replacement == {} and len(merged) == 2


def test_merge_at_half_jaccard():
    values = {
        0: {value("a"), value("b"), value("c")},
        1: {value("b"), value("c"), value("d")},
    }
    merged, replacement = merge_similar_slots(values, 0.5)  # overlap 2/4
    assert replacement == {1: 0}
    assert merged[0] == {value("a"), value("b"), value("c"), value("d")}


def test_merge_rewrites_references():
    values = {
        0: {value("x")},
        1: {value("x")},
        2: {value(1)},
    }
    merged, replacement = merge_similar_slots(values, 1.0)
    assert replacement == {1: 0}
    assert merged[2] == {value(0)}


def test_merge_count_grows_as_threshold_drops():
    values = {
        0: {value("a"), value("b"), value("c")},
        1: {value("b"), value("c"), value("d")},
        2: {value("x")},
        3: {value("x"), value("y")},
    }
    counts = [
        len(merge_similar_slots(values, ratio)[1])
        for ratio in (1.0, 0.5, 0.25, 0.0)
    ]
    assert counts == sorted(counts)
    assert counts[0] == 0 and counts[-1] == 3


def test_merge_skips_cycle_creating_unions():
    # slot 1 occurs inside one of slot 0's values; identifying them would
    # make the grammar recursive, so the union must not happen even though
    # the overlap qualifies
    values = {
        0: {value("x", 1), value("shared")},
        1: {value("shared"), value("other")},
    }
    merged, replacement = merge_similar_slots(values, 0.25)
    assert replacement == {}
    assert set(merged) == {0, 1}


def test_simplify_removes_covered_value():
    values = {
        0: {value(1), value("cat"), value("bird")},
        1: {value("cat"), value("dog")},
    }
    out = simplify_slot_values(values)
    assert out[0] == {value(1), value("bird")}  # "cat" reachable via slot 1
    assert out[1] == {value("cat"), value("dog")}


def test_simplify_covered_removal_cascades_to_alias():
    # once "cat" is dropped, slot 0 is a pure alias of slot 1 and disappears
    values = {
        0: {value(1), value("cat")},
        1: {value("cat"), value("dog")},
        2: {value(0), value("x")},
    }
    out = simplify_slot_values(values)
    assert 0 not in out
    assert out[2] == {value(1), value("x")}


def test_simplify_removes_self_reference():
    values = {0: {value(0), value("word")}}
    assert simplify_slot_values(values)[0] == {value("word")}


def test_simplify_replaces_singleton_alias():
    values = {
        0: {value(1)},
        1: {value("a"), value("b")},
        2: {value(0), value("c")},
    }
    out = simplify_slot_values(values)
    assert 0 not in out
    assert out[2] == {value(1), value("c")}


def test_simplify_is_idempotent():
    values = {
        0: {value(1), value("cat"), value(0)},
        1: {value("cat"), value("dog")},
        2: {value(1)},
    }
    once = simplify_slot_values(values)
    assert simplify_slot_values(once) == once


def test_simplify_emptiness_guard(caplog):
    # every value of slot 0 is covered through the other referenced slot,
    # which would empty the set; one value must survive, with a warning
    values = {
        0: {value(1), value(2)},
        1: {value(2), value("x")},
        2: {value(1), value("y")},
    }
    with caplog.at_level(logging.WARNING):
        out = simplify_slot_values(values)
    assert any("covered" in record.message for record in caplog.records)
    assert out[1] == {value(2), value("x")}
    assert out[2] == {value(1), value("y")}
    assert 0 not in out  # survivor was an alias, replaced afterwards


def test_collapse_diamond_with_known_root():
    # Diamond with root already two slots; D->B and E->C replacements known.
    tree = diamond_tree()
    tree.template = template(1, 0)  # <C> <B>
    values = {
        0: {value("world"), value("people")},
        1: {value("hello"), value("hi")},
    }
    collapsed = collapse_tree(tree, values, {2: 0, 3: 1})
    assert all(c.is_leaf for c in collapsed.children)
    assert leaf_texts(collapsed) == frozenset(TWO_BY_TWO)
    assert slot_count(collapsed.template) == 2 and len(collapsed.template) == 2


def test_collapse_single_node_unchanged():
    single = leaf("hello there")
    collapsed = collapse_tree(single, {}, {})
    assert tree_equal(collapsed, single)


def test_collapse_contracts_filled_chain():
    # child equals parent with slot 0 filled by the known value "hello"
    inner = TemplateTreeNode(
        template("hello x", 1),
        [leaf("hello x a"), leaf("hello x b")],
    )
    root = TemplateTreeNode(template(0, "x", 1), [inner, leaf("hi x c")])
    values = {
        0: {value("hello"), value("hi")},
        1: {value("a"), value("b"), value("c")},
    }
    collapsed = collapse_tree(root, values, {})
    assert leaf_texts(collapsed) == {"hello x a", "hello x b", "hi x c"}
    assert all(c.is_leaf for c in collapsed.children)


def test_collapse_a_long_template_without_recursion():
    # The parent and its child hold <A> w x1200, 1,201 elements: the child
    # keeps slot 0 and is deleted. A check that recursed once per element
    # raised RecursionError here.
    words = " ".join(["w"] * 1200)
    child = TemplateTreeNode(template(0, words), [leaf("x " + words), leaf("y " + words)])
    root = TemplateTreeNode(template(0, words), [child])
    collapsed = collapse_tree(root, {0: {value("x"), value("y")}}, {})
    assert [c.template for c in collapsed.children] == [template("x " + words), template("y " + words)]
    assert len(collapsed.template) == 1201


def test_collapse_is_idempotent():
    tree = diamond_tree()
    tree.template = template(1, 0)
    values = {
        0: {value("world"), value("people")},
        1: {value("hello"), value("hi")},
    }
    collapsed = collapse_tree(tree, values, {2: 0, 3: 1})
    again = collapse_tree(collapsed, values, {2: 0, 3: 1})
    assert tree_equal(collapsed, again)


def test_slot_functions_leave_their_inputs_unchanged():
    # The slot fixpoint passes each step's input on, and the benchmark
    # counts a merge's slots before it from the map it passed in.
    tree = prune_redundant_children(learn_template_tree(deep_corpus(60)))
    tree_before = copy.deepcopy(tree)
    values = extract_slot_values(tree)
    assert tree_equal(tree, tree_before)
    rng = random.Random(15)
    for ratio, given in [(0.5, values)] + [(k % 5 / 4, random_values(rng)) for k in range(200)]:
        before = copy.deepcopy(given)
        merged, _ = merge_similar_slots(given, ratio)
        assert given == before
        merged_before = copy.deepcopy(merged)
        simplify_slot_values(merged)
        assert merged == merged_before
    merged, replacement = merge_similar_slots(values, 0.5)
    simplified = simplify_slot_values(merged)
    before = copy.deepcopy((simplified, replacement))
    collapse_tree(tree, simplified, replacement)
    assert tree_equal(tree, tree_before)
    assert (simplified, replacement) == before


def test_induce_two_by_two():
    grammar = induce_grammar(TWO_BY_TWO, ratio=1.0)
    language = enumerate_language(grammar)
    assert language.sentences == frozenset(TWO_BY_TWO)
    origin = grammar.rules["origin"][0]
    assert len(origin) == 2 and rule_count(grammar) == 5


def test_induce_single_sentence():
    grammar = induce_grammar(["just one line"])
    assert rule_count(grammar) == 1
    assert enumerate_language(grammar).sentences == {"just one line"}


def test_induce_fig1_exact():
    from gramtree.grammar import NonTerminal, Terminal

    grammar = induce_grammar(sorted(FIG1_SENTENCES), ratio=1.0, max_height=2)
    assert enumerate_language(grammar).sentences == FIG1_SENTENCES
    assert rule_count(grammar) == 8
    # downstream recalculation settles on the natural two-slot template
    (origin,) = grammar.rules["origin"]
    shape = [s.text if isinstance(s, Terminal) else None for s in origin]
    assert shape == ["I", "like", "putting", None, "on", "my", None]


def test_induce_is_deterministic():
    texts = ["u v a", "u v b", "w v a", "w v b", "u z c"]
    first = to_tracery(induce_grammar(texts, ratio=0.5))
    assert to_tracery(induce_grammar(list(reversed(texts)), ratio=0.5)) == first


def test_induce_does_not_depend_on_process_state():
    # The merge caches outlive a call; warm them with overlapping corpora
    # first, then compare against a fresh interpreter.
    corpus = sorted(FIG1_SENTENCES)
    for other in (TWO_BY_TWO, corpus[:6], corpus[3:], corpus[::2]):
        induce_grammar(other)
    script = (
        "import sys; from gramtree import induce_grammar, to_tracery; "
        "sys.stdout.write(to_tracery(induce_grammar(sys.stdin.read().splitlines())))"
    )
    assert run_python(script, stdin="\n".join(corpus)) == to_tracery(induce_grammar(corpus))


def test_induce_does_not_depend_on_the_hash_seed():
    # The slot merge walks sets of values and slot ids, whose order follows
    # the string hash; its merges, and so the grammar, must not.
    corpus = deep_corpus(30)
    values = extract_slot_values(prune_redundant_children(learn_template_tree(corpus)))
    assert merge_similar_slots(values, DEFAULT_RATIO)[1]
    script = (
        "import sys; from gramtree import induce_grammar, to_tracery; "
        "sys.stdout.write(to_tracery(induce_grammar(sys.stdin.read().splitlines())))"
    )
    first, second = (
        run_python(script, stdin="\n".join(corpus), PYTHONHASHSEED=seed) for seed in ("0", "1")
    )
    assert first == second


def test_induce_covers_training_data():
    texts = ["the red cat", "the blue cat", "the red dog", "a red cat"]
    grammar = induce_grammar(texts, ratio=0.5)
    language = enumerate_language(grammar).sentences
    assert frozenset(texts) <= language


@pytest.mark.parametrize("texts", ["hello", b"hello"], ids=["str", "bytes"])
def test_induce_rejects_a_bare_string(texts):
    # Iterated, "hello" would be five one-letter sentences.
    with pytest.raises(TypeError, match="collection of sentences"):
        induce_grammar(texts)


@pytest.mark.parametrize("texts", [[1, "a b"], [None], [b"a b", "c"]], ids=["int", "None", "bytes"])
def test_induce_rejects_a_sentence_that_is_not_a_str(texts):
    with pytest.raises(TypeError, match=f"must be a str, not {type(texts[0]).__name__}$"):
        induce_grammar(texts)


def test_learned_trees_and_grammars_are_freed_by_reference_counting():
    # No template refers back to itself, so once the merge caches are
    # cleared nothing of a learning or an induction waits for the cyclic
    # collector.
    corpus = deep_corpus(40)
    gc.collect()
    gc.disable()
    try:
        for run in (learn_template_tree, induce_grammar):
            result = run(corpus)
            del result
            for cache in (distance, _alignment, merge_all):
                cache.cache_clear()
            assert gc.collect() == 0, run.__name__
    finally:
        gc.enable()


def test_induce_ratio_validation():
    # A bool is not a ratio, and a non-number fails as a bad value, not in the comparison.
    for ratio in (1.5, -0.1, float("nan"), True, "0.5", None):
        with pytest.raises(ValueError, match="ratio"):
            induce_grammar(["a"], ratio=ratio)
        with pytest.raises(ValueError, match="ratio"):
            merge_similar_slots({0: {("x",)}}, ratio)


def test_induce_checks_ratio_before_learning(monkeypatch):
    def learn(*args, **kwargs):
        raise AssertionError("the tree was learned before the ratio was checked")

    monkeypatch.setattr(induction, "learn_template_tree", learn)
    with pytest.raises(ValueError, match="ratio"):
        induce_grammar(["a b", "a c"], ratio=-0.5)


# Eight sentences over two words. At ratio 1.0 collapse closes a slot cycle
# that the slot merge's acyclicity guard cannot see (ROADMAP item 2); at
# ratios 0 and 0.5, and with any height cap from 1 to 3, the grammar comes
# out non-recursive. The two corpora after it are random small-vocabulary
# corpora shrunk to a 1-minimal failing case; each also passes with a height
# cap from 1 to 3.
RECURSIVE_CORPUS = [
    "w0 w0 w0",
    "w0 w0 w0 w0 w1 w1",
    "w0 w0 w0 w0",
    "w0 w0 w0 w1 w1 w0 w1",
    "w0 w1",
    "w0 w1 w0 w0 w1 w1",
    "w1",
    "w1 w0 w0 w0 w0 w0",
]
RECURSIVE_AT_RATIO_0 = [
    "w1 w1", "w2 w0 w1 w3", "w1 w2 w0", "w3", "w3 w3", "w1 w3", "w1 w1 w1 w2",
    "w0 w3 w0 w3 w3 w1", "w1 w0", "w3 w0", "w0 w1 w2 w3", "w1 w3 w3 w0 w1 w0",
]
RECURSIVE_AT_RATIO_3_4 = [
    "w1 w1", "w0 w0 w0 w1 w0 w0 w1", "w0 w1 w0 w0 w0 w1 w0", "w1 w0 w0 w0 w0 w1 w1",
    "w1 w0 w1 w1 w1", "w0 w0 w0 w1 w0 w0", "w0 w1 w0", "w0 w0 w0",
]


def test_small_corpus_at_ratio_half_gives_a_nonrecursive_grammar():
    grammar = induce_grammar(RECURSIVE_CORPUS, ratio=0.5)
    assert frozenset(RECURSIVE_CORPUS) <= enumerate_language(grammar).sentences


def recursive_case(corpus: list[str], ratio: float, cycle: str):
    return pytest.param(
        corpus,
        ratio,
        id=f"ratio-{ratio}",
        marks=pytest.mark.xfail(
            raises=InternalInvariantError,
            strict=True,
            reason=f"known defect (ROADMAP item 2): induced grammar is recursive: {cycle}",
        ),
    )


@pytest.mark.parametrize(
    "corpus, ratio",
    [
        recursive_case(RECURSIVE_CORPUS, 1.0, "B -> C -> B"),
        recursive_case(RECURSIVE_AT_RATIO_0, 0.0, "A -> B -> A"),
        recursive_case(RECURSIVE_AT_RATIO_3_4, 0.75, "B -> E -> B"),
    ],
)
def test_known_defect_recursive_grammar_on_a_small_corpus(corpus, ratio):
    grammar = induce_grammar(corpus, ratio=ratio)
    assert frozenset(corpus) <= enumerate_language(grammar).sentences
