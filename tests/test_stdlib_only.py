"""The runtime is stdlib-only: no third-party import, no declared dependency."""

import ast
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "gramtree"
PYPROJECT = ROOT / "pyproject.toml"


def absolute_imports(path: Path) -> set[str]:
    """Top-level names of the absolute imports in one source file."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


def test_package_imports_only_the_standard_library():
    sources = sorted(PACKAGE.glob("*.py"))
    assert sources
    for path in sources:
        outside = absolute_imports(path) - set(sys.stdlib_module_names)
        assert not outside, f"{path.name} imports {sorted(outside)}"


def test_package_parses_at_the_oldest_supported_python():
    # requires-python is ">=3.10"; this catches newer syntax on a newer interpreter.
    assert 'requires-python = ">=3.10"' in PYPROJECT.read_text()
    for path in sorted(PACKAGE.glob("*.py")):
        ast.parse(path.read_text(), filename=str(path), feature_version=(3, 10))


def test_pyproject_declares_no_runtime_dependency():
    lines = [line.strip() for line in PYPROJECT.read_text().splitlines()]
    assert "dependencies = []" in lines
