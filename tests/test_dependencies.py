"""The package stays numpy + stdlib: every absolute import in
``src/fieldaug`` names a standard-library module or numpy. Nor does any
module read the environment: tuning lives in named constants, so a run's
behaviour is fixed by its code, arguments and input files."""

import ast
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "fieldaug"
ALLOWED = set(sys.stdlib_module_names) | {"numpy"}
# the os names through which a module reads environment variables
ENVIRONMENT = {"environ", "environb", "getenv", "getenvb"}
MODULES = pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)


def _nodes(path):
    return ast.walk(ast.parse(path.read_text(), filename=str(path)))


def _environment_reads(path):
    """Line numbers of ``<module>.environ``-style reads and of ``from os
    import getenv``-style imports."""
    return [node.lineno for node in _nodes(path)
            if isinstance(node, ast.Attribute) and node.attr in ENVIRONMENT
            or isinstance(node, ast.ImportFrom) and node.module == "os"
            and any(alias.name in ENVIRONMENT for alias in node.names)]


@MODULES
def test_imports_only_stdlib_and_numpy(path):
    names = set()
    for node in _nodes(path):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module)
    assert sorted({name.split(".")[0] for name in names} - ALLOWED) == []


@MODULES
def test_reads_no_environment_variable(path):
    assert _environment_reads(path) == []


def test_environment_reads_are_found(tmp_path):
    # the check above sees both spellings of a read
    path = tmp_path / "knob.py"
    path.write_text("import os\nfrom os import getenv\nSIZE = os.environ.get('SIZE')\n")
    assert _environment_reads(path) == [2, 3]


def test_package_is_found():
    # an empty glob would leave the checks above with no cases
    assert (PACKAGE / "__init__.py").is_file()
