"""Acceptance suite.

Concrete fixtures first (criteria 1-4, 6), then the randomized property
suites (criterion 5), each run over at least 1000 cases. A PASS/FAIL line
per test is printed by the conftest hook.
"""

import json
import random
import time

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from gramtree.evaluation import ExperimentConfig, compare_languages, run_experiment
from gramtree.grammar import (
    NonTerminal,
    check_nonrecursive,
    enumerate_language,
    parse_tracery,
    rule_count,
    to_tracery,
)
from gramtree.induction import (
    collapse_tree,
    extract_slot_values,
    induce_grammar,
    merge_similar_slots,
    simplify_slot_values,
)
from gramtree.merge import distance, merge_templates
from gramtree.template import (
    Slot,
    Template,
    Token,
    normalize_sentence,
    render,
)
from gramtree.tree import (
    format_tree,
    leaf_texts,
    learn_template_tree,
    limit_height,
    prune_redundant_children,
    tree_equal,
)

from conftest import FIG1_JSON, FIG1_SENTENCES, TWO_BY_TWO


# ---------------------------------------------------------------------------
# criteria 1-4 and 6: concrete fixtures with stated tolerances


def test_criterion_1_figure2_fixture():
    started = time.monotonic()
    grammar = induce_grammar(TWO_BY_TWO, ratio=1.0)
    language = enumerate_language(grammar)
    elapsed = time.monotonic() - started

    assert language.sentences == frozenset(TWO_BY_TWO)  # brute-force set equality
    (origin,) = grammar.rules["origin"]
    assert len(origin) == 2 and all(isinstance(s, NonTerminal) for s in origin)
    assert rule_count(grammar) <= 7
    assert elapsed < 1.0


def test_criterion_2_figure1_round_trip():
    started = time.monotonic()
    reference = parse_tracery(FIG1_JSON)
    language = enumerate_language(reference)
    assert language.sentences == FIG1_SENTENCES and len(language.sentences) == 12

    induced = induce_grammar(sorted(language.sentences), ratio=1.0, max_height=2)
    in_lg, not_in_lg = compare_languages(induced, reference)
    elapsed = time.monotonic() - started

    assert (in_lg, not_in_lg) == (12, 0)
    assert rule_count(induced) == 8
    assert elapsed < 1.0


def test_criterion_3_generalisation_from_partial_samples():
    started = time.monotonic()
    reference = parse_tracery(FIG1_JSON)
    config = ExperimentConfig(sample_sizes=(9,), runs=5, ratio=1.0, seed=42)
    report = run_experiment(reference, config)
    elapsed = time.monotonic() - started

    (size,) = report.grammars[0].sizes
    assert size.median_in_lg > 9
    assert sum(1 for m in size.runs if m.in_lg > 9) >= 3
    assert elapsed < 5.0


def _synthetic_grammar(seed: int):
    """A random two-level slot-independent grammar.

    Slot vocabularies are disjoint and slots are separated by anchor
    tokens; two-slot grammars get at least 6 values per slot so that a
    25-example sample fits their language.
    """
    rng = random.Random(seed)
    slots = rng.choice([2, 3, 3, 4])
    minimum_values = 6 if slots == 2 else 3
    rules = {}
    parts = [" ".join(f"s{seed}head{j}" for j in range(rng.randint(1, 2)))]
    for index in range(slots):
        name = f"S{index}"
        rules[name] = [
            " ".join(f"v{seed}n{index}v{v}w{w}" for w in range(rng.randint(1, 2)))
            for v in range(rng.randint(minimum_values, 8))
        ]
        parts.append(f"#{name}#")
        parts.append(" ".join(f"s{seed}sep{index}{j}" for j in range(rng.randint(1, 2))))
    rules["origin"] = " ".join(parts)
    return parse_tracery(json.dumps(rules))


def test_criterion_4_synthetic_scale_substitute():
    started = time.monotonic()
    for index in range(10):
        reference = _synthetic_grammar(1000 + index)
        language = enumerate_language(reference)
        assert not language.truncated and len(language.sentences) <= 10**5
        sizes = tuple(s for s in (25, 50, 100) if s <= len(language.sentences))
        assert sizes, "synthetic grammar too small to sample"
        config = ExperimentConfig(sample_sizes=sizes, runs=5, seed=7)
        report = run_experiment(reference, config, name=f"synthetic-{index}")
        for size in report.grammars[0].sizes:
            for metrics in size.runs:
                assert metrics.not_in_lg == 0
                assert metrics.in_lg >= size.sample_size
    elapsed = time.monotonic() - started
    assert elapsed < 60.0


def test_criterion_6_overgeneralisation_regression():
    reference = parse_tracery(
        json.dumps(
            {
                "origin": ["#Hello# #World#", "#Hello# there, #Name#"],
                "Hello": ["hello", "hi"],
                "World": ["world", "earth"],
                "Name": ["alice", "bob"],
            }
        )
    )
    training = sorted(enumerate_language(reference).sentences)
    induced = induce_grammar(training, ratio=1.0)
    in_lg, not_in_lg = compare_languages(induced, reference)
    assert in_lg == len(training)  # soundness on the training data
    assert not_in_lg > 0  # the overgeneralisation is measured, not prevented


# ---------------------------------------------------------------------------
# criterion 5: property suites, >= 1000 randomized cases each

PROPERTY_SETTINGS = settings(
    max_examples=1000,
    deadline=None,
    derandomize=True,
    suppress_health_check=[
        HealthCheck.too_slow,
        HealthCheck.filter_too_much,
        HealthCheck.data_too_large,
    ],
)

WORDS = ("a", "b", "c", "d")
tokens_st = st.sampled_from(WORDS).map(Token)
slots_st = st.integers(min_value=0, max_value=3).map(Slot)
templates_st = st.lists(st.one_of(tokens_st, slots_st), max_size=6).map(
    lambda es: Template(tuple(es))
)
flat_templates_st = st.lists(tokens_st, max_size=6).map(lambda es: Template(tuple(es)))
sentences_st = st.lists(st.sampled_from(WORDS), min_size=1, max_size=5).map(" ".join)
corpora_st = st.lists(st.one_of(sentences_st, st.just("")), min_size=1, max_size=5)
ratios_st = st.sampled_from([0.0, 0.25, 0.5, 1.0])
heights_st = st.sampled_from([None, 1, 2, 3])
values_st = st.dictionaries(
    st.integers(min_value=0, max_value=4),
    st.sets(
        st.lists(st.one_of(tokens_st, slots_st), max_size=3).map(tuple),
        min_size=1,
        max_size=3,
    ),
    max_size=4,
)


@PROPERTY_SETTINGS
@given(templates_st, templates_st)
def test_criterion_5_distance_properties(t1, t2):
    d = distance(t1, t2)
    assert d >= 0
    assert d == distance(t2, t1)
    assert distance(t1, t1) == 0


@PROPERTY_SETTINGS
@given(flat_templates_st, flat_templates_st)
def test_criterion_5_merge_generalisation_soundness(t1, t2):
    result = merge_templates(t1, t2)
    for source, coverage in zip((t1, t2), result.alignments):
        assignment = {uid: run for uid, run in coverage.items()}
        assert render(result.merged, assignment) == render(source, {})
    assert result.merged.canonical_key == merge_templates(t2, t1).merged.canonical_key


@PROPERTY_SETTINGS
@given(corpora_st, heights_st)
def test_criterion_5_tree_leaf_preservation(corpus, max_height):
    expected = frozenset(normalize_sentence(text) for text in corpus)
    root = learn_template_tree(corpus)
    assert leaf_texts(root) == expected
    pruned = prune_redundant_children(root)
    assert leaf_texts(pruned) == expected
    if max_height is not None:
        assert leaf_texts(limit_height(pruned, max_height)) == expected


@PROPERTY_SETTINGS
@given(corpora_st, ratios_st, heights_st)
def test_criterion_5_induction_soundness(corpus, ratio, max_height):
    grammar = induce_grammar(corpus, ratio=ratio, max_height=max_height)
    language = enumerate_language(grammar, cap=100_000)
    training = {normalize_sentence(text) for text in corpus}
    assert training <= language.sentences


@PROPERTY_SETTINGS
@given(corpora_st, ratios_st)
def test_criterion_5_induced_grammars_non_recursive(corpus, ratio):
    grammar = induce_grammar(corpus, ratio=ratio)
    assert check_nonrecursive(grammar).ok


@PROPERTY_SETTINGS
@given(values_st, corpora_st, ratios_st)
def test_criterion_5_simplify_and_collapse_idempotent(values, corpus, ratio):
    once = simplify_slot_values(values)
    assert simplify_slot_values(once) == once

    tree = prune_redundant_children(learn_template_tree(corpus))
    extracted, replacement = merge_similar_slots(extract_slot_values(tree), ratio)
    extracted = simplify_slot_values(extracted)
    collapsed = collapse_tree(tree, extracted, replacement)
    again = collapse_tree(collapsed, extracted, replacement)
    assert tree_equal(collapsed, again)


@st.composite
def tracery_grammars_st(draw):
    """Random acyclic Tracery sources: rule i may reference rules > i."""
    rule_names = [f"r{i}" for i in range(draw(st.integers(min_value=0, max_value=3)))]

    def body(allowed):
        n_parts = draw(st.integers(min_value=0, max_value=3))
        parts = [
            draw(st.sampled_from(WORDS + tuple(f"#{name}#" for name in allowed)))
            if allowed
            else draw(st.sampled_from(WORDS))
            for _ in range(n_parts)
        ]
        return " ".join(parts)

    grammar = {}
    for index, name in enumerate(rule_names):
        later = rule_names[index + 1 :]
        grammar[name] = [body(later) for _ in range(draw(st.integers(1, 3)))]
    grammar["origin"] = [body(rule_names) for _ in range(draw(st.integers(1, 3)))]
    return json.dumps(grammar)


@PROPERTY_SETTINGS
@given(tracery_grammars_st())
def test_criterion_5_tracery_round_trip_preserves_language(source):
    grammar = parse_tracery(source)
    reparsed = parse_tracery(to_tracery(grammar))
    assert (
        enumerate_language(reparsed, cap=100_000).sentences
        == enumerate_language(grammar, cap=100_000).sentences
    )


_EVAL_REFERENCE = json.dumps(
    {"origin": "#C# mid #B#", "C": ["left0", "left1"], "B": ["right0", "right1"]}
)


@PROPERTY_SETTINGS
@given(corpora_st, ratios_st, st.integers(min_value=0, max_value=10**6))
def test_criterion_5_seeded_determinism_of_learn_induce_eval(corpus, ratio, seed):
    assert format_tree(learn_template_tree(corpus)) == format_tree(
        learn_template_tree(list(reversed(corpus)))
    )
    assert to_tracery(induce_grammar(corpus, ratio=ratio)) == to_tracery(
        induce_grammar(list(reversed(corpus)), ratio=ratio)
    )
    reference = parse_tracery(_EVAL_REFERENCE)
    config = ExperimentConfig(sample_sizes=(2,), runs=2, ratio=ratio, seed=seed)
    assert run_experiment(reference, config, workers=1) == run_experiment(
        reference, config, workers=1
    )
