import json
import random
import re
import tracemalloc
from itertools import product

import pytest

from gramtree.cli import main
from gramtree.errors import GrammarFormatError, RecursiveGrammarError, UnsupportedGrammarError
from gramtree.evaluation import reference_depth
from gramtree.grammar import (
    DEFAULT_CAP,
    Grammar,
    LanguageSet,
    NonTerminal,
    Terminal,
    check_nonrecursive,
    enumerate_language,
    generate_random,
    generate_sentences,
    parse_tracery,
    rule_count,
    to_tracery,
)
from gramtree.induction import induce_grammar
from gramtree.template import normalize_sentence

from conftest import BACKSLASHES, BRACKETS, FIG1_SENTENCES, HASHTAGS, TWO_BY_TWO


def test_parse_fig1(fig1_grammar):
    assert fig1_grammar.start == "origin"
    assert len(fig1_grammar.rules["T"]) == 3
    assert fig1_grammar.rules["T"][2] == (Terminal("soy"), Terminal("sauce"))
    origin = fig1_grammar.rules["origin"][0]
    assert NonTerminal("T") in origin and NonTerminal("F") in origin


def test_parse_single_rule():
    grammar = parse_tracery('{"origin": "hello"}')
    assert enumerate_language(grammar).sentences == {"hello"}


def test_parse_strips_modifiers():
    grammar = parse_tracery(json.dumps({"origin": "#animal.capitalize#", "animal": ["cat"]}))
    assert grammar.rules["origin"][0] == (NonTerminal("animal"),)


def test_parse_abutting_fragments():
    grammar = parse_tracery(json.dumps({"origin": "and#F#x", "F": ["q"]}))
    assert grammar.rules["origin"][0] == (Terminal("and"), NonTerminal("F"), Terminal("x"))


def test_parse_epsilon_alternative():
    grammar = parse_tracery(json.dumps({"origin": "a #T#", "T": ["there", ""]}))
    assert enumerate_language(grammar).sentences == {"a there", "a"}


def test_parse_rejects_bad_json():
    with pytest.raises(GrammarFormatError):
        parse_tracery("{not json")


def test_parse_requires_origin():
    with pytest.raises(GrammarFormatError, match="origin"):
        parse_tracery('{"start": "hello"}')


def test_parse_rejects_undefined_reference():
    with pytest.raises(GrammarFormatError, match="missing"):
        parse_tracery(json.dumps({"origin": "#missing#"}))


def test_parse_rejects_actions():
    with pytest.raises(UnsupportedGrammarError, match="origin"):
        parse_tracery(json.dumps({"origin": "[hero:#name#] #hero#", "name": ["bob"], "hero": ["x"]}))


def test_parse_rejects_unbalanced_hash():
    with pytest.raises(GrammarFormatError, match="unbalanced"):
        parse_tracery(json.dumps({"origin": "a #T# b #", "T": ["x"]}))


def test_parse_reads_escaped_hash_and_backslash():
    # \# and \\ are literal characters, any other backslash is kept, and
    # an escaped '#' neither opens a reference nor counts as unbalanced.
    grammar = parse_tracery(json.dumps({"origin": r"C:\path a\#b \\x\\ #T#", "T": [r"\#"]}))
    assert grammar.rules["origin"][0] == (
        Terminal("C:\\path"),
        Terminal("a#b"),
        Terminal("\\x\\"),
        NonTerminal("T"),
    )
    assert grammar.rules["T"] == ((Terminal("#"),),)


def test_parse_reads_escaped_bracket_as_a_word():
    # \[ is a literal '[' that never opens an action; after an escaped
    # backslash an unescaped '[' still does.
    grammar = parse_tracery(json.dumps({"origin": r"see \[a:b] \[x"}))
    assert grammar.rules["origin"][0] == (Terminal("see"), Terminal("[a:b]"), Terminal("[x"))
    with pytest.raises(UnsupportedGrammarError, match="origin"):
        parse_tracery(json.dumps({"origin": r"see \\[a:b]"}))


def test_parse_rejects_rule_without_alternatives():
    with pytest.raises(GrammarFormatError, match="rule 'B' has no alternatives"):
        parse_tracery(json.dumps({"origin": "a #B#", "B": []}))


def test_to_tracery_round_trip_language(fig1_grammar):
    reparsed = parse_tracery(to_tracery(fig1_grammar))
    assert enumerate_language(reparsed).sentences == enumerate_language(fig1_grammar).sentences


def test_to_tracery_single_rule_is_string():
    grammar = parse_tracery('{"origin": "hello"}')
    assert json.loads(to_tracery(grammar)) == {"origin": "hello"}


def test_to_tracery_induced_round_trip():
    for corpus in (TWO_BY_TWO, HASHTAGS, BACKSLASHES, BRACKETS):
        induced = induce_grammar(corpus, ratio=1.0)
        reparsed = parse_tracery(to_tracery(induced))
        assert reparsed == induced
        assert enumerate_language(reparsed).sentences == frozenset(corpus)


def test_to_tracery_renames_references_to_the_start():
    grammar = Grammar(
        "S",
        {
            "S": ((NonTerminal("A"),),),
            "A": ((Terminal("x"),),),
            "B": ((NonTerminal("S"), Terminal("y")),),
        },
    )
    assert json.loads(to_tracery(grammar)) == {"origin": "#A#", "A": "x", "B": "#origin# y"}
    reparsed = parse_tracery(to_tracery(grammar))
    assert enumerate_language(reparsed).sentences == frozenset({"x"})
    assert reparsed.rules["B"] == ((NonTerminal("origin"), Terminal("y")),)
    assert parse_tracery(to_tracery(reparsed)) == reparsed


def test_to_tracery_rejects_a_second_rule_named_origin():
    grammar = Grammar(
        "S",
        {
            "S": ((NonTerminal("A"),),),
            "A": ((Terminal("x"),),),
            "origin": ((Terminal("y"),),),
            "B": ((NonTerminal("S"),),),
        },
    )
    with pytest.raises(GrammarFormatError, match="'origin' is not the start rule 'S'"):
        to_tracery(grammar)


def test_to_tracery_round_trips_a_reference_with_whitespace():
    grammar = Grammar(
        "origin", {"origin": ((NonTerminal("a b"), Terminal("x")),), "a b": ((Terminal("y"),),)}
    )
    assert json.loads(to_tracery(grammar))["origin"] == "#a b# x"
    assert parse_tracery(to_tracery(grammar)) == grammar


@pytest.mark.parametrize("name", ["a.b", "a#b", "a\\", "x[y:z]", ""])
def test_to_tracery_rejects_a_reference_it_cannot_write(name):
    y = ((Terminal("y"),),)
    grammar = Grammar("origin", {"origin": ((Terminal("x"), NonTerminal(name)),), name: y})
    with pytest.raises(GrammarFormatError, match=re.escape(f"rule 'origin' references {name!r}")):
        to_tracery(grammar)
    # Unreferenced, the same name is only a JSON key and reads back.
    alone = Grammar("origin", {"origin": ((Terminal("x"),),), name: y})
    assert parse_tracery(to_tracery(alone)) == alone


def test_check_nonrecursive_fig1(fig1_grammar):
    check = check_nonrecursive(fig1_grammar)
    assert check.ok
    assert check.order == ("F", "T", "origin")  # post-order over sorted names


def test_check_detects_bracket_language_cycle():
    grammar = Grammar(
        "origin",
        {
            "origin": (
                (NonTerminal("origin"), NonTerminal("origin")),
                (Terminal("("), NonTerminal("origin"), Terminal(")")),
                (),
            )
        },
    )
    check = check_nonrecursive(grammar)
    assert not check.ok
    assert "origin" in check.cycle


def test_check_matches_brute_force_on_random_graphs():
    import random

    def brute_force_has_cycle(edges, nodes):
        def reach(frontier, target, seen):
            for nxt in edges.get(frontier, ()):  # DFS
                if nxt == target:
                    return True
                if nxt not in seen:
                    seen.add(nxt)
                    if reach(nxt, target, seen):
                        return True
            return False

        return any(reach(n, n, set()) for n in nodes)

    rng = random.Random(0)
    for _ in range(200):
        names = [f"n{i}" for i in range(rng.randint(1, 8))]
        edges = {}
        rules = {}
        for name in names:
            targets = [t for t in names if rng.random() < 0.25]
            edges[name] = targets
            rules[name] = (tuple(NonTerminal(t) for t in targets),)
        rules["origin"] = (tuple(NonTerminal(n) for n in names),)
        edges["origin"] = names
        grammar = Grammar("origin", rules)
        check = check_nonrecursive(grammar)
        assert check.ok != brute_force_has_cycle(edges, names + ["origin"])
        if check.ok:
            assert sorted(check.order) == sorted(rules)
            position = {name: i for i, name in enumerate(check.order)}
            for name, targets in edges.items():
                assert all(position[t] < position[name] for t in targets)
        else:
            assert check.order is None
            assert check.cycle[0] == check.cycle[-1]
            for source, target in zip(check.cycle, check.cycle[1:]):
                assert target in edges[source]


# Deeper than Python's default recursion limit of 1000 frames.
CHAIN_LENGTH = 1500


def _chain_tracery(body, length: int = CHAIN_LENGTH) -> str:
    """Tracery JSON for origin -> r0 -> r1 -> ... -> r{length - 1} = "end"."""
    rules = {"origin": "#r0#"}
    rules.update({f"r{i}": body(i) for i in range(length - 1)})
    rules[f"r{length - 1}"] = "end"
    return json.dumps(rules)


def test_deep_chain_grammar_needs_no_recursion(tmp_path, capsys):
    # Each rule either stops or goes one rule deeper.
    text = _chain_tracery(lambda i: [f"w{i}", f"#r{i + 1}#"])
    grammar = parse_tracery(text)
    assert check_nonrecursive(grammar).ok
    language = enumerate_language(grammar).sentences
    assert language == {f"w{i}" for i in range(CHAIN_LENGTH - 1)} | {"end"}
    assert reference_depth(grammar) == CHAIN_LENGTH + 1
    assert set(generate_sentences(grammar, 0, 20)) <= language
    path = tmp_path / "chain.json"
    path.write_text(text, encoding="utf-8")
    assert main(["enumerate", str(path)]) == 0
    assert len(capsys.readouterr().out.splitlines()) == CHAIN_LENGTH

    # One alternative per rule: every sentence expands the whole chain.
    single = parse_tracery(_chain_tracery(lambda i: f"w{i} #r{i + 1}#"))
    sentence = " ".join([f"w{i}" for i in range(CHAIN_LENGTH - 1)] + ["end"])
    assert enumerate_language(single).sentences == {sentence}
    assert generate_sentences(single, 0, 2) == [sentence, sentence]


def test_enumerate_drops_expansions_no_longer_referenced():
    # Rule r_i holds 200 - i sentences of up to 200 - i words, about 1.3
    # million words over all 200 rules; only origin's sentences are returned.
    grammar = parse_tracery(_chain_tracery(lambda i: [f"w{i}", f"w{i} #r{i + 1}#"], length=200))
    tracemalloc.start()
    try:
        language = enumerate_language(grammar)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(language.sentences) == 200 and not language.truncated
    assert peak < 2 * 1024 * 1024


def test_enumerate_fig1(fig1_grammar):
    language = enumerate_language(fig1_grammar)
    assert not language.truncated
    assert language.sentences == FIG1_SENTENCES
    assert "I like putting cheese on my pizza" in language.sentences


def test_enumerate_trivial():
    assert enumerate_language(parse_tracery('{"origin": "hi"}')).sentences == {"hi"}


def test_enumerate_deduplicates_renderings():
    grammar = parse_tracery(json.dumps({"origin": "#T# x #F#", "T": ["a", "a", "b"], "F": ["c", "d"]}))
    assert len(enumerate_language(grammar).sentences) == 4  # not 6


def test_enumerate_truncates_at_cap(fig1_grammar):
    language = enumerate_language(fig1_grammar, cap=5)
    assert language.truncated
    assert len(language.sentences) <= 5
    assert language.sentences <= FIG1_SENTENCES


def _enumerate_language_sorting_every_rule(grammar: Grammar, cap: int) -> LanguageSet:
    """``enumerate_language`` as it was when every rule's expansions were
    sorted, the start rule's too, and the result built from that list;
    restricted to the rules the start rule reaches."""
    reached, stack = set(), [grammar.start]
    while stack:
        name = stack.pop()
        if name not in reached:
            reached.add(name)
            stack += [s.name for p in grammar.rules[name] for s in p if isinstance(s, NonTerminal)]
    order = [name for name in check_nonrecursive(grammar).order if name in reached]
    last_use = {name: position for position, name in enumerate(order)}
    for position, name in enumerate(order):
        for production in grammar.rules[name]:
            for symbol in production:
                if isinstance(symbol, NonTerminal):
                    last_use[symbol.name] = position
    released: dict[int, list[str]] = {}
    for name, position in last_use.items():
        if name != grammar.start:
            released.setdefault(position, []).append(name)

    expansions: dict[str, list[str]] = {}
    truncated = False
    for position, name in enumerate(order):
        seen: set[str] = set()
        rule_truncated = False
        for production in grammar.rules[name]:
            parts = [
                [symbol.text] if isinstance(symbol, Terminal) else expansions[symbol.name]
                for symbol in production
            ]
            for combo in product(*parts):
                sentence = normalize_sentence(" ".join(combo))
                if len(seen) >= cap and sentence not in seen:
                    truncated = True
                    rule_truncated = True
                    break
                seen.add(sentence)
            if rule_truncated:
                break
        expansions[name] = sorted(seen)
        for done in released.get(position, ()):
            del expansions[done]
    return LanguageSet(frozenset(expansions[grammar.start]), truncated)


def _random_acyclic_grammar(rng: random.Random) -> Grammar:
    """Up to 6 rules; a rule references only rules listed after it, and
    the start rule is any of them, so other rules may reference it."""
    names = [f"r{i}" for i in range(rng.randint(1, 6))]

    def symbol(later: list[str]):
        if later and rng.random() < 0.4:
            return NonTerminal(rng.choice(later))
        return Terminal(rng.choice(["a", "b", "c", ""]))

    rules = {
        name: tuple(
            tuple(symbol(names[index + 1 :]) for _ in range(rng.randint(0, 3)))
            for _ in range(rng.randint(1, 3))
        )
        for index, name in enumerate(names)
    }
    return Grammar(rng.choice(names), rules)


def test_enumerate_matches_the_sort_every_rule_version_on_random_grammars():
    rng = random.Random(0)
    start_referenced = truncated = 0
    for _ in range(600):
        grammar = _random_acyclic_grammar(rng)
        cap = rng.choice([1, 2, 3, 5, 8, DEFAULT_CAP])
        expected = _enumerate_language_sorting_every_rule(grammar, cap)
        assert enumerate_language(grammar, cap) == expected
        truncated += expected.truncated
        start_referenced += any(
            NonTerminal(grammar.start) in production
            for productions in grammar.rules.values()
            for production in productions
        )
    assert truncated > 50 and start_referenced > 50


@pytest.mark.parametrize("cap", [1, 3, 4, 7, DEFAULT_CAP])
def test_enumerate_matches_the_sort_every_rule_version_when_the_start_rule_is_read(cap):
    # "wrap" reads origin, but origin does not reach "wrap", so it is not
    # expanded: only origin's own truncation can mark the result.
    grammar = Grammar(
        "origin",
        {
            "origin": ((Terminal("x"), NonTerminal("T")), (NonTerminal("T"), NonTerminal("T"))),
            "T": ((Terminal("a"),), (Terminal("b"),), (Terminal(""),)),
            "wrap": ((NonTerminal("origin"), Terminal("z"), NonTerminal("T")),),
        },
    )
    assert enumerate_language(grammar, cap) == _enumerate_language_sorting_every_rule(grammar, cap)


@pytest.mark.parametrize("cap", [0, -3, 2.5, True])
def test_enumerate_rejects_cap_below_one(fig1_grammar, cap):
    with pytest.raises(ValueError, match="cap"):
        enumerate_language(fig1_grammar, cap=cap)


def test_enumerate_rejects_recursive():
    grammar = Grammar("origin", {"origin": ((NonTerminal("origin"),), ())})
    with pytest.raises(RecursiveGrammarError):
        enumerate_language(grammar)


UNREACHED_RULE = '{"origin": "hi", "X": ["a", "b", "c"]}'


def test_enumerate_expands_only_the_rules_the_start_rule_reaches():
    # "X" would hit the cap of 2, but origin never reads it.
    assert enumerate_language(parse_tracery(UNREACHED_RULE), cap=2) == LanguageSet(frozenset({"hi"}), False)


def test_enumerate_rejects_a_cycle_the_start_rule_does_not_reach():
    grammar = parse_tracery('{"origin": "hi", "X": "#Y#", "Y": ["#X#", "y"]}')
    with pytest.raises(RecursiveGrammarError):
        enumerate_language(grammar)


def test_generate_rejects_recursive():
    grammar = Grammar("origin", {"origin": ((NonTerminal("origin"),), ())})
    with pytest.raises(RecursiveGrammarError):
        generate_sentences(grammar, 0, 1)


@pytest.mark.parametrize("n", [0, -1, True, 1.5, "2"])
def test_generate_rejects_a_count_that_is_not_a_positive_int(fig1_grammar, n):
    with pytest.raises(ValueError, match="n must be >= 1"):
        generate_sentences(fig1_grammar, 0, n)


def test_generate_random_members(fig1_grammar):
    language = enumerate_language(fig1_grammar).sentences
    for seed in range(100):
        assert generate_random(fig1_grammar, seed) in language


def test_generate_random_deterministic(fig1_grammar):
    assert generate_random(fig1_grammar, 7) == generate_random(fig1_grammar, 7)
    assert generate_sentences(fig1_grammar, 3, 5) == generate_sentences(fig1_grammar, 3, 5)


def test_generate_single_production():
    grammar = parse_tracery('{"origin": "only this"}')
    for seed in (0, 1, 99):
        assert generate_random(grammar, seed) == "only this"


def test_generate_covers_language_over_many_seeds(fig1_grammar):
    language = enumerate_language(fig1_grammar).sentences
    drawn = {generate_random(fig1_grammar, seed) for seed in range(10_000)}
    assert drawn == language


def test_rule_count(fig1_grammar):
    assert rule_count(fig1_grammar) == 8
    assert rule_count(parse_tracery('{"origin": "x"}')) == 1
    grammar = parse_tracery(json.dumps({"origin": "#A#", "A": ["cat", "dog"]}))
    assert rule_count(grammar) == 3
