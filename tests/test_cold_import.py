"""``import gramtree`` loads the induction path only.

The evaluation harness, its process pool and ``logging`` load on first
use; every public name still resolves from the package.
"""

import json

from conftest import run_python

# Modules that only evaluation needs: the harness itself, its pool and its CSV writer.
DEFERRED = ("concurrent.futures", "multiprocessing", "gramtree.evaluation", "csv")

CODE = f"""
import json, sys
import gramtree
loaded = [name for name in {DEFERRED!r} if name in sys.modules]
listed = set(dir(gramtree))
unlisted = [name for name in gramtree.__all__ if name not in listed]
unresolved = [name for name in gramtree.__all__ if getattr(gramtree, name, None) is None]
try:
    gramtree.no_such_name
    unknown = "resolved"
except AttributeError as exc:
    unknown = str(exc)
print(json.dumps({{
    "loaded": loaded,
    "unlisted": unlisted,
    "unresolved": unresolved,
    "evaluation": gramtree.evaluation.__name__,
    "evaluation_listed": "evaluation" in listed,
    "run_experiment": gramtree.run_experiment is gramtree.evaluation.run_experiment,
    "unknown": unknown,
}}))
"""


def test_import_leaves_evaluation_and_the_pool_unloaded():
    assert json.loads(run_python(CODE))["loaded"] == []


def test_import_leaves_logging_unloaded():
    # Only induction's warnings use ``logging``; it loads when one fires.
    assert run_python("import sys, gramtree\nprint('logging' in sys.modules)") == "False\n"


def test_every_public_name_resolves_after_a_cold_import():
    result = json.loads(run_python(CODE))
    assert result["unlisted"] == []
    assert result["unresolved"] == []
    assert result["evaluation"] == "gramtree.evaluation"
    assert result["evaluation_listed"]
    assert result["run_experiment"]
    assert result["unknown"] == "module 'gramtree' has no attribute 'no_such_name'"


def test_star_import_resolves_the_evaluation_names():
    names = json.loads(run_python("import json\nfrom gramtree import *\nprint(json.dumps(sorted(dir())))"))
    assert {"run_experiment", "ExperimentConfig", "format_report"} <= set(names)
