"""The package stays numpy + stdlib: every absolute import in
``src/fieldaug`` names a standard-library module or numpy."""

import ast
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "fieldaug"
ALLOWED = set(sys.stdlib_module_names) | {"numpy"}


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_imports_only_stdlib_and_numpy(path):
    names = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module)
    assert sorted({name.split(".")[0] for name in names} - ALLOWED) == []


def test_package_is_found():
    # an empty glob would leave the check above with no cases
    assert (PACKAGE / "__init__.py").is_file()
