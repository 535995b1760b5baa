r"""Non-recursive context-free grammars with Tracery-style JSON I/O.

Rule bodies reference other rules as ``#name#``; the start symbol is the
rule named ``origin``. Modifier suffixes (``#name.capitalize#``) are
stripped down to the bare name. In a word, ``\#`` stands for ``#``, ``\[``
for ``[`` and ``\\`` for ``\``; any other backslash is literal, and an
escaped ``[`` never opens a Tracery action. Sentences are compared in
whitespace-normalised form throughout.
"""

from __future__ import annotations

import json
import random
import re
from dataclasses import dataclass
from itertools import product
from typing import Hashable, Iterable, Mapping, Union

from .errors import GrammarFormatError, RecursiveGrammarError, UnsupportedGrammarError, is_positive_int
from .template import normalize_sentence

DEFAULT_CAP = 1_000_000

_MARK = re.compile(r"\\[\\#[]|#")  # an escape, or a '#' that opens or closes a reference
_ESCAPE = re.compile(r"\\([\\#[])")
_ACTION = re.compile(r"\[[^\]]*:[^\]]*\]")  # searched for with the escapes taken out


@dataclass(frozen=True)
class Terminal:
    text: str


@dataclass(frozen=True)
class NonTerminal:
    name: str


Symbol = Union[Terminal, NonTerminal]
Production = tuple[Symbol, ...]


@dataclass(frozen=True, eq=True)
class Grammar:
    """start symbol plus a map of rule name -> alternative productions."""

    start: str
    rules: Mapping[str, tuple[Production, ...]]

    def __post_init__(self) -> None:
        object.__setattr__(self, "rules", dict(self.rules))
        if self.start not in self.rules:
            raise GrammarFormatError(f"start symbol {self.start!r} has no rule")
        for name, productions in self.rules.items():
            if not productions:
                raise GrammarFormatError(f"rule {name!r} has no alternatives")
            for production in productions:
                for symbol in production:
                    if isinstance(symbol, NonTerminal) and symbol.name not in self.rules:
                        raise GrammarFormatError(
                            f"rule {name!r} references undefined rule {symbol.name!r}"
                        )


@dataclass(frozen=True)
class LanguageSet:
    """Enumerated sentences; exact iff ``truncated`` is False."""

    sentences: frozenset[str]
    truncated: bool


@dataclass(frozen=True)
class NonrecursionCheck:
    """Result of the acyclicity check: a usable order or a cycle."""

    order: tuple[str, ...] | None
    cycle: tuple[str, ...] | None

    @property
    def ok(self) -> bool:
        return self.cycle is None


def parse_tracery(json_text: str) -> Grammar:
    """Parse a Tracery-style JSON object into a Grammar.

    Values may be a string or a list of strings. Inside ``#name.mod#``
    everything from the first ``.`` is dropped. Text abutting a reference
    becomes its own terminals (bodies are whitespace-tokenised).

    Raises:
        GrammarFormatError: malformed JSON, missing ``origin``, unbalanced
            ``#``, a rule with no alternatives, or a reference to an
            undefined rule.
        UnsupportedGrammarError: Tracery actions like ``[var:...]``.
    """
    try:
        data = json.loads(json_text)
    except json.JSONDecodeError as exc:
        raise GrammarFormatError(f"grammar is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise GrammarFormatError("grammar JSON must be an object of rules")
    if "origin" not in data:
        raise GrammarFormatError("grammar has no 'origin' rule")

    rules: dict[str, tuple[Production, ...]] = {}
    for name, body in data.items():
        alternatives = body if isinstance(body, list) else [body]
        productions = []
        for alternative in alternatives:
            if not isinstance(alternative, str):
                raise GrammarFormatError(
                    f"rule {name!r} has a non-string alternative: {alternative!r}"
                )
            productions.append(_parse_body(name, alternative))
        rules[name] = tuple(productions)
    return Grammar("origin", rules)


def _parse_body(rule_name: str, body: str) -> Production:
    if _ACTION.search(_ESCAPE.sub("", body)):
        raise UnsupportedGrammarError(
            f"rule {rule_name!r} uses unsupported Tracery action syntax: {body!r}"
        )
    marks = [m.start() for m in _MARK.finditer(body) if m.group() == "#"]
    if len(marks) % 2 != 0:
        raise GrammarFormatError(f"rule {rule_name!r} has an unbalanced '#': {body!r}")
    symbols: list[Symbol] = []
    pos = 0
    for start, end in zip(marks[::2], marks[1::2]):
        symbols.extend(_terminals(body[pos:start]))
        name = body[start + 1 : end].split(".", 1)[0]
        if not name:
            raise GrammarFormatError(f"rule {rule_name!r} has an empty reference: {body!r}")
        symbols.append(NonTerminal(name))
        pos = end + 1
    symbols.extend(_terminals(body[pos:]))
    return tuple(symbols)


def _terminals(text: str) -> list[Symbol]:
    if "\\" in text:
        text = _ESCAPE.sub(lambda m: m.group(1), text)
    return [Terminal(word) for word in text.split()]


def to_tracery(grammar: Grammar) -> str:
    """Serialise to the Tracery JSON dialect (inverse of parse_tracery).

    The start rule is emitted first as ``origin``, and so is every reference
    to it; the rest follow in sorted order. Single-alternative rules are
    written as plain strings. Another rule named ``origin``, or a reference
    ``#name#`` cannot hold (``a.b``, ``a#b``), is a ``GrammarFormatError``.
    """
    start = grammar.start
    if start != "origin" and "origin" in grammar.rules:
        raise GrammarFormatError(f"rule 'origin' is not the start rule {start!r}")
    rename = {NonTerminal(start): NonTerminal("origin")}
    payload: dict[str, object] = {}
    for name in [start] + sorted(n for n in grammar.rules if n != start):
        productions = [tuple(rename.get(s, s) for s in p) for p in grammar.rules[name]]
        for ref in sorted({s.name for p in productions for s in p if isinstance(s, NonTerminal)}):
            try:
                ok = _parse_body(name, f"#{ref}#") == (NonTerminal(ref),)
            except UnsupportedGrammarError:  # and GrammarFormatError, its subclass
                ok = False
            if not ok:
                raise GrammarFormatError(f"rule {name!r} references {ref!r}, unwritable as #name#")
        bodies = [production_text(p) for p in productions]
        payload["origin" if name == start else name] = bodies[0] if len(bodies) == 1 else bodies
    return json.dumps(payload, ensure_ascii=False, indent=2)


def production_text(production: Production) -> str:
    r"""A production as a Tracery rule body (``#name#`` for non-terminals).

    ``\``, ``#`` and ``[`` in a terminal are escaped, so ``parse_tracery``
    reads the body back.
    """
    return " ".join(
        s.text.replace("\\", "\\\\").replace("#", "\\#").replace("[", "\\[")
        if isinstance(s, Terminal)
        else f"#{s.name}#"
        for s in production
    )


def reference_order(
    graph: Mapping[Hashable, Iterable[Hashable]],
) -> tuple[tuple | None, tuple | None]:
    """Depth-first post-order of a reference graph, or its first cycle.

    Nodes are visited in key order and their edges in listed order; edges
    to nodes outside the graph are ignored. Returns ``(order, None)``, where
    every node comes after the nodes it references, or ``(None, cycle)``
    with the cycle as a closed path ``(a, ..., a)``. The walk keeps its
    path on an explicit stack, so graph depth is not bounded by Python's
    recursion limit.
    """
    order: list = []
    done: set = set()
    for root in graph:
        if root in done:
            continue
        path = {root: 0}  # node -> position; insertion order is the path
        edges = [iter(graph[root])]
        while edges:
            for ref in edges[-1]:
                if ref in path:
                    return None, (*list(path)[path[ref] :], ref)
                if ref in graph and ref not in done:
                    path[ref] = len(path)
                    edges.append(iter(graph[ref]))
                    break
            else:
                node, _ = path.popitem()
                edges.pop()
                done.add(node)
                order.append(node)
    return tuple(order), None


def check_nonrecursive(grammar: Grammar) -> NonrecursionCheck:
    """Topologically order the rule reference graph, or report a cycle.

    In the returned order every rule precedes the rules that reference it.
    """
    graph = {
        name: dict.fromkeys(
            s.name for p in grammar.rules[name] for s in p if isinstance(s, NonTerminal)
        )
        for name in sorted(grammar.rules)
    }
    return NonrecursionCheck(*reference_order(graph))


def nonrecursive_order(grammar: Grammar) -> tuple[str, ...]:
    """``check_nonrecursive``'s order; a reference cycle raises ``RecursiveGrammarError``."""
    check = check_nonrecursive(grammar)
    if not check.ok:
        raise RecursiveGrammarError(check.cycle)
    return check.order


def enumerate_language(grammar: Grammar, cap: int = DEFAULT_CAP) -> LanguageSet:
    """Enumerate the full language bottom-up over the topological order.

    Every rule's expansion set is capped at ``cap`` distinct sentences;
    hitting the cap sets ``truncated`` (the result is then an incomplete
    subset of the language, not an error).

    Raises:
        ValueError: ``cap`` is not an int >= 1.
        RecursiveGrammarError: the grammar has a reference cycle.
    """
    if not is_positive_int(cap):
        raise ValueError(f"cap must be >= 1 (an int), got {cap!r}")
    order = nonrecursive_order(grammar)
    # A rule's expansions are dropped once the last rule referencing it is
    # done; the start rule's are the result.
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


def generate_random(grammar: Grammar, seed: int) -> str:
    """One random sentence, uniform over alternatives at every expansion."""
    return generate_sentences(grammar, seed, 1)[0]


def generate_sentences(grammar: Grammar, seed: int, n: int) -> list[str]:
    """``n`` seeded random sentences (one generator stream).

    Raises:
        ValueError: ``n`` is not an int >= 1.
        RecursiveGrammarError: the grammar has a reference cycle.
    """
    if not is_positive_int(n):
        raise ValueError(f"n must be >= 1 (an int), got {n!r}")
    nonrecursive_order(grammar)
    rng = random.Random(seed)

    def sentence() -> str:
        words: list[str] = []
        stack: list[Symbol] = [NonTerminal(grammar.start)]
        while stack:
            symbol = stack.pop()
            if isinstance(symbol, Terminal):
                words.append(symbol.text)
            else:
                alternatives = grammar.rules[symbol.name]
                # Reversed, so the leftmost symbol is expanded first and the
                # random draws follow the production's pre-order.
                stack.extend(reversed(alternatives[rng.randrange(len(alternatives))]))
        return normalize_sentence(" ".join(words))

    return [sentence() for _ in range(n)]


def rule_count(grammar: Grammar) -> int:
    """Number of productions after disjunction normalisation."""
    return sum(len(productions) for productions in grammar.rules.values())
