import itertools
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import gramtree
from gramtree import Grammar, parse_tracery
from gramtree.template import Slot, Template, Token, slot_count, token_count


def pytest_runtest_logreport(report):
    """One PASS/FAIL line per acceptance criterion."""
    if report.when != "call" or "test_acceptance" not in report.nodeid:
        return
    name = report.nodeid.split("::")[-1]
    outcome = "PASS" if report.passed else "FAIL"
    print(f"ACCEPTANCE {name}: {outcome}", file=sys.stderr)


FIG1_JSON = json.dumps(
    {
        "origin": "I like putting #T# on my #F#",
        "T": ["cheese", "pineapple", "soy sauce"],
        "F": ["pizza", "salad", "muesli", "sushi"],
    }
)

# The 12 sentences of the dish-topping grammar, written out by hand.
FIG1_SENTENCES = frozenset(
    f"I like putting {t} on my {f}"
    for t in ("cheese", "pineapple", "soy sauce")
    for f in ("pizza", "salad", "muesli", "sushi")
)

TWO_BY_TWO = ["hello world", "hello people", "hi world", "hi people"]

# Words holding the characters that a Tracery rule body must escape.
HASHTAGS = ["I love #python", "I love #rust", "you love #python", "you love #rust"]
BACKSLASHES = ["dir C:\\temp\\", "dir C:\\#1", "ls C:\\temp\\", "ls C:\\#1"]
# Words that read as Tracery actions unless their "[" is escaped.
BRACKETS = ["see [a:b] now", "see [c:d] now", "hear [a:b] now"]

# The benchmark's 4-slot grammar: 10/8/10/6 values, 4,800 sentences.
DEEP_LANGUAGE = sorted(
    f"the a{a} b{b} went to the c{c} with d{d}"
    for a, b, c, d in itertools.product(range(10), range(8), range(10), range(6))
)


def deep_corpus(n: int, seed: int = 0) -> list[str]:
    """``n`` sentences of the 4-slot grammar, sampled as the benchmark does."""
    return random.Random(seed).sample(DEEP_LANGUAGE, n)


@pytest.fixture
def fig1_grammar() -> Grammar:
    return parse_tracery(FIG1_JSON)


def template(*parts) -> Template:
    """Build a template from strings (tokens) and ints (slot ids)."""
    elements = []
    for part in parts:
        if isinstance(part, int):
            elements.append(Slot(part))
        else:
            elements.extend(Token(word) for word in part.split())
    return Template(tuple(elements))


def random_template(rng, words=("a", "b", "c"), max_len=6) -> Template:
    """Up to ``max_len`` elements drawn from ``words`` and the slot ids 0-2."""
    return template(*rng.choices(tuple(words) + (0, 1, 2), k=rng.randint(0, max_len)))


def _gap_count(pairs, n: int, m: int) -> int:
    """Maximal runs of unmatched elements around ascending matched pairs of ``n`` and ``m`` elements."""
    gaps = 0
    i = j = 0
    for p, q in pairs:
        if p > i or q > j:
            gaps += 1
        i, j = p + 1, q + 1
    return gaps + (i < n or j < m)


def distance_lower_bound(t1: Template, t2: Template) -> int:
    """The per-pair lower bound on ``distance`` that ``PairQueue`` packs.

    ``L``, the LCS of the two token sequences, from the bit-parallel
    LCS-length recurrence over Python ints (Allison & Dix, 1986; Hyyrö,
    2004): one pass over the shorter sequence, with the longer one's
    positions as bits. Then ``top - L + (L < top) - min(s1, s2)`` with
    ``top = max(l1, l2)``.
    """
    l1, l2 = token_count(t1), token_count(t2)
    if l1 < l2:
        t1, t2, l1, l2 = t2, t1, l2, l1
    masks = t1.token_masks
    full = (1 << l1) - 1
    v = full  # the zero bits of v count the LCS so far
    for key in t2.match_keys:
        if key is not None:
            u = v & masks.get(key, 0)
            v = ((v + u) | (v - u)) & full
    lcs = l1 - v.bit_count()
    return l1 - lcs + (lcs < l1) - min(slot_count(t1), slot_count(t2))


def run_python(code: str, stdin: str = "", **env: str) -> str:
    """Run ``code`` in a fresh interpreter that imports this gramtree; return stdout."""
    env = {**os.environ, "PYTHONPATH": str(Path(gramtree.__file__).parents[1]), **env}
    done = subprocess.run(
        [sys.executable, "-c", code], input=stdin, env=env, capture_output=True, text=True, check=True
    )
    return done.stdout
