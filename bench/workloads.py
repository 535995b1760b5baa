"""Workload definitions for the benchmark.

Everything here is plain data: the orchestrator (``run.py``) never imports
the package, and each cold job (``job.py``) rebuilds its inputs from a
workload and a seed. The one-line reason each workload exists is recorded
in ``BENCHMARK.json``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

# 4 slots, 10/8/10/6 single-token values: 4,800 short sentences. At n=100
# tree learning takes about 70% of a cold induction and the slot fixpoint
# about 20%; no alignment hits the enumeration cap.
DEEP_GRAMMAR = {
    "origin": "the #A# #B# went to the #C# with #D#",
    "A": [f"a{i}" for i in range(10)],
    "B": [f"b{i}" for i in range(8)],
    "C": [f"c{i}" for i in range(10)],
    "D": [f"d{i}" for i in range(6)],
}

# 7 slots with repeated function words and multi-word values: 3,888
# sentences of 20-40 tokens. Merge alignment dominates.
LONG_GRAMMAR = {
    "origin": "the #A# of the #B# and the #C# of the #D# met the #E# in the #F# of the #G#",
    "A": ["king", "old king", "queen of the north", "the fool"],
    "B": ["castle", "high castle", "realm", "the realm of the sea"],
    "C": ["knight", "knight of the rose", "page"],
    "D": ["east", "west", "land of the dead"],
    "E": ["dragon", "the dragon", "wizard of the tower"],
    "F": ["hall", "great hall", "middle of the night"],
    "G": ["kingdom", "the end", "world"],
}


@dataclass(frozen=True)
class InduceWorkload:
    """Cold ``induce_grammar`` calls on corpora sampled from one grammar.

    A run cycles over ``corpora`` corpora, so that the median time does not
    rest on a single sample's quirks. Corpus ``k`` of a run with seed ``s``
    is ``random.Random(c).sample(sorted(language), n)`` for the corpus seed
    ``c = input_seeds[(s + k) % len(input_seeds)]``.
    """

    name: str
    grammar: dict
    n: int
    ratio: float
    max_height: int | None
    corpora: int
    input_seeds: tuple[int, ...]
    kind: str = "induce"

    def corpus_seed(self, seed: int, corpus: int) -> int:
        return self.input_seeds[(seed + corpus) % len(self.input_seeds)]


@dataclass(frozen=True)
class SweepWorkload:
    """One ``run_experiment`` call per synthetic grammar, in a process pool."""

    name: str
    grammar_seeds: tuple[int, ...]
    sizes: tuple[int, ...]
    runs: int
    workers: int
    input_seeds: tuple[int, ...]
    kind: str = "sweep"

    def config_seed(self, seed: int) -> int:
        """``ExperimentConfig.seed`` of a run with seed ``seed``."""
        return self.input_seeds[seed % len(self.input_seeds)]


# The input seeds a run may draw from. Every input must induce without a
# failed check on the code the benchmark gates, so that a failure reads as a
# change in the program, not as an unlucky draw. Random corpora do not all
# pass: one of the roughly 120 random 200-sentence corpora of DEEP_GRAMMAR
# run so far made the pipeline build a recursive grammar and raise
# InternalInvariantError (the self-test's
# test_known_defect_recursive_grammar_on_a_random_deep_corpus). So each
# workload draws only from a fixed list of seeds, each checked once.
WORKLOADS = {
    w.name: w
    for w in (
        # n=100 and n=40, not 200 and 60: at the larger sizes a call takes
        # 4-5 s, a run holds five to eight of them, and on a shared 2-CPU
        # host the run-to-run spread of induce_s reached 0.29 (deep, ten
        # seeds) and 0.34 (long, five seeds) of the median, above the 0.25
        # bound. The smaller sizes keep each workload's profile.
        InduceWorkload("induce-deep", DEEP_GRAMMAR, n=100, ratio=0.5, max_height=None, corpora=4,
                       input_seeds=tuple(range(32))),
        InduceWorkload("induce-long", LONG_GRAMMAR, n=40, ratio=0.5, max_height=2, corpora=4,
                       input_seeds=tuple(range(32))),
        # The acceptance suite's criterion-4 grammars. Sizes stop at 50 and
        # runs at 3 so that a serial, traced sweep fits one run; the 100-
        # sentence cells alone take about 45 s on a 2-CPU host.
        SweepWorkload(
            "eval-synthetic",
            grammar_seeds=tuple(range(1000, 1010)),
            sizes=(25, 50),
            runs=3,
            workers=2,
            input_seeds=tuple(range(16)),
        ),
    )
}


def from_json(data: dict) -> InduceWorkload | SweepWorkload:
    data = {k: tuple(v) if isinstance(v, list) else v for k, v in data.items()}
    return (InduceWorkload if data["kind"] == "induce" else SweepWorkload)(**data)


def sample_corpus(language: list[str], n: int, seed: int) -> list[str]:
    """The corpus of corpus seed ``seed`` (``language`` sorted)."""
    return random.Random(seed).sample(language, n)


def synthetic_grammar(seed: int) -> dict:
    """A random two-level slot-independent grammar, as Tracery rules.

    The same generator as the acceptance suite's criterion-4 grammars.
    Slot vocabularies are disjoint and slots are separated by anchor
    tokens; two-slot grammars get at least 6 values per slot so that a
    25-example sample fits their language.
    """
    rng = random.Random(seed)
    slots = rng.choice([2, 3, 3, 4])
    minimum_values = 6 if slots == 2 else 3
    rules: dict[str, object] = {}
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
    return rules
