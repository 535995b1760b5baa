"""gramtree: learn compact non-recursive generative grammars from examples.

``import gramtree`` loads only the induction path. The evaluation harness
(``gramtree.evaluation`` and its ten public names, such as
``run_experiment``) loads on first access, and its process pool only when
``run_experiment`` runs cells in parallel. Without a bytecode cache that
keeps about 40 ms and 6 MiB of peak RSS off a cold import (Python 3.11).
"""

import importlib

from .errors import (
    GramtreeError,
    GrammarFormatError,
    InternalInvariantError,
    LanguageTooLargeError,
    RecursiveGrammarError,
    UnsupportedGrammarError,
)
from .grammar import (
    DEFAULT_CAP,
    Grammar,
    LanguageSet,
    NonTerminal,
    NonrecursionCheck,
    Terminal,
    check_nonrecursive,
    enumerate_language,
    generate_random,
    generate_sentences,
    parse_tracery,
    rule_count,
    to_tracery,
)
from .induction import (
    DEFAULT_RATIO,
    collapse_tree,
    extract_slot_values,
    induce_grammar,
    merge_similar_slots,
    simplify_slot_values,
)
from .merge import MergeResult, distance, merge_all, merge_templates
from .template import (
    Slot,
    Template,
    Token,
    format_template,
    normalize_sentence,
    render,
    slot_count,
    slot_label,
    token_count,
    tokenize,
)
from .tree import (
    TemplateTreeNode,
    format_tree,
    leaf_texts,
    learn_template_tree,
    limit_height,
    prune_redundant_children,
    tree_height,
)

__version__ = "0.1.0"

__all__ = [
    "DEFAULT_CAP",
    "DEFAULT_RATIO",
    "EvalReport",
    "ExperimentConfig",
    "Grammar",
    "GrammarFormatError",
    "GrammarResult",
    "GramtreeError",
    "InternalInvariantError",
    "LanguageSet",
    "LanguageTooLargeError",
    "MergeResult",
    "NonTerminal",
    "NonrecursionCheck",
    "RecursiveGrammarError",
    "RunMetrics",
    "SizeResult",
    "Slot",
    "Template",
    "TemplateTreeNode",
    "Terminal",
    "Token",
    "UnsupportedGrammarError",
    "check_nonrecursive",
    "collapse_tree",
    "compare_languages",
    "distance",
    "enumerate_language",
    "extract_slot_values",
    "format_report",
    "format_template",
    "format_tree",
    "generate_random",
    "generate_sentences",
    "induce_grammar",
    "leaf_texts",
    "learn_template_tree",
    "limit_height",
    "merge_all",
    "merge_reports",
    "merge_similar_slots",
    "merge_templates",
    "normalize_sentence",
    "parse_tracery",
    "prune_redundant_children",
    "reference_depth",
    "render",
    "rule_count",
    "run_experiment",
    "simplify_slot_values",
    "slot_count",
    "slot_label",
    "to_tracery",
    "token_count",
    "tokenize",
    "tree_height",
]

# Public names of ``evaluation``, resolved on first access (PEP 562).
_EVALUATION_NAMES = frozenset({
    "EvalReport",
    "ExperimentConfig",
    "GrammarResult",
    "RunMetrics",
    "SizeResult",
    "compare_languages",
    "format_report",
    "merge_reports",
    "reference_depth",
    "run_experiment",
})


def __getattr__(name: str):
    if name == "evaluation" or name in _EVALUATION_NAMES:
        evaluation = importlib.import_module(".evaluation", __name__)
        return evaluation if name == "evaluation" else getattr(evaluation, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *_EVALUATION_NAMES, "evaluation"})
