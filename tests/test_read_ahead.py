"""A stream reads ahead in one way only: ``rng.prefetch`` is the only code
in ``src/fieldaug`` that gives ``RandomStream._ahead`` values, and
``policy._view_streams`` is the only code that calls it, so the read-ahead
rule of the view streams is the whole of it."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "fieldaug"


def _sites(path):
    """``(kind, "<module>.<function>")`` for each assignment of something
    other than None to an ``_ahead`` attribute ("ahead") and each call of a
    function named ``prefetch`` ("prefetch") in the file at ``path``."""
    module = path.stem
    sites = []

    def visit(node, where):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            where = f"{module}.{node.name}"
        if isinstance(node, ast.Call):
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            if name == "prefetch":
                sites.append(("prefetch", where))
        targets = []
        if isinstance(node, ast.Assign):
            targets = [(target, node.value) for target in node.targets]
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            targets = [(node.target, node.value)]
        while targets:
            target, value = targets.pop()
            if isinstance(target, ast.Tuple):
                # pair the elements when the value is a tuple too
                values = value.elts if isinstance(value, ast.Tuple) else [value] * len(target.elts)
                targets += zip(target.elts, values)
            elif (isinstance(target, ast.Attribute) and target.attr == "_ahead"
                  and not (isinstance(value, ast.Constant) and value.value is None)):
                sites.append(("ahead", where))
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    visit(ast.parse(path.read_text(), filename=str(path)), module)
    return sites


def _package_sites():
    return sorted(site for path in sorted(PACKAGE.glob("*.py")) for site in _sites(path))


def test_one_read_ahead_source():
    assert _package_sites() == [("ahead", "rng.prefetch"), ("prefetch", "policy._view_streams")]


def test_read_ahead_sources_are_found(tmp_path):
    # the check above sees values stored by any function, in plain and tuple
    # assignments, and prefetch called by name or through its module
    path = tmp_path / "sneak.py"
    path.write_text(
        "def fill(stream, row):\n"
        "    stream._ahead = row\n"
        "def fill_both(stream, row):\n"
        "    stream._ahead, stream._read = row, 0\n"
        "def drop(stream):\n"
        "    stream._ahead = None\n"
        "def warm(streams):\n"
        "    rng.prefetch(streams, 8)\n"
        "    prefetch(streams, 8)\n"
    )
    assert sorted(_sites(path)) == [("ahead", "sneak.fill"), ("ahead", "sneak.fill_both"),
                                    ("prefetch", "sneak.warm"), ("prefetch", "sneak.warm")]
