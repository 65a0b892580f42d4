"""A stream reads ahead in one way only: ``rng.prefetch`` is the only code
in ``src/fieldaug`` that gives ``RandomStream._ahead`` values, and
``policy.view_pairs`` is the only code that calls it, so the read-ahead
rule of the view streams is the whole of it. A stream steps in two ways
only: ``RandomStream.next_u64`` is the one scalar xoshiro step and
``rng._lane_pass`` the one array step, so they and ``__init__`` are the
only code that sets the state words. ``rng._lane_passes`` is the one
planner: the only code that calls ``_lane_pass``."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "fieldaug"
STATE_WORDS = ("_s0", "_s1", "_s2", "_s3")


def _sites(path):
    """``(kind, "<module>.<qualified function>")`` for each assignment of
    something other than None to an ``_ahead`` attribute ("ahead"), each
    assignment to a state word attribute ``_s0`` to ``_s3`` ("state"), each
    call of a function named ``prefetch`` ("prefetch") and each call of a
    function named ``_lane_pass`` ("lane_pass") in the file at ``path``."""
    module = path.stem
    sites = []

    def visit(node, where):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            where = f"{where}.{node.name}"
        if isinstance(node, ast.Call):
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            if name in ("prefetch", "_lane_pass"):
                sites.append((name.lstrip("_"), where))
        targets = []
        if isinstance(node, ast.Assign):
            targets = [(target, node.value) for target in node.targets]
        elif isinstance(node, (ast.AnnAssign, ast.AugAssign)) and node.value is not None:
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
            elif isinstance(target, ast.Attribute) and target.attr in STATE_WORDS:
                sites.append(("state", where))
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    visit(ast.parse(path.read_text(), filename=str(path)), module)
    return sites


def _package_sites(kinds):
    return sorted(site for path in sorted(PACKAGE.glob("*.py")) for site in _sites(path)
                  if site[0] in kinds)


def test_one_read_ahead_source():
    assert _package_sites({"ahead", "prefetch"}) == [
        ("ahead", "rng.prefetch"), ("prefetch", "policy.view_pairs")]


def test_one_scalar_step():
    # each function sets the state words once, in one tuple assignment
    assert _package_sites({"state"}) == sorted(
        ("state", where) for where in ("rng.RandomStream.__init__", "rng.RandomStream.next_u64",
                                       "rng._lane_pass") for _ in STATE_WORDS)


def test_one_planner():
    assert _package_sites({"lane_pass"}) == [("lane_pass", "rng._lane_passes")]


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


def test_state_word_sites_are_found(tmp_path):
    # a second scalar step, as a method or a function, in plain, tuple and
    # augmented assignments
    path = tmp_path / "sneak.py"
    path.write_text(
        "class RandomStream:\n"
        "    def _s1_words(self, n):\n"
        "        self._s0, self._s1, self._s2, self._s3 = step(self)\n"
        "def skip(stream):\n"
        "    stream._s2 = 0\n"
        "    stream._s3 ^= 1\n"
        "    stream._ahead = None\n"
    )
    assert sorted(_sites(path)) == sorted(
        [("state", "sneak.RandomStream._s1_words")] * 4 + [("state", "sneak.skip")] * 2)


def test_lane_pass_calls_are_found(tmp_path):
    # a second planner, as a method or a function, calling the lane pass by
    # name or through its module
    path = tmp_path / "sneak.py"
    path.write_text(
        "class Sampler:\n"
        "    def draw(self, streams, out):\n"
        "        rng._lane_pass(streams, out)\n"
        "def plan(streams, out):\n"
        "    _lane_pass(streams, out[:, :32])\n"
        "    _lane_passes(streams, out)\n"
    )
    assert sorted(_sites(path)) == [("lane_pass", "sneak.Sampler.draw"),
                                    ("lane_pass", "sneak.plan")]
