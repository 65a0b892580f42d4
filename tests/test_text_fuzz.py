"""Property tests of the three line-based text loaders: any bytes given as
a policy file load or raise PolicyError, any bytes given as a training
config load or raise a ValueError naming a line, and any bytes given as
an instance set's scores.txt make `eval` exit 0, or exit 2 naming the
file."""

import contextlib
import dataclasses
import io
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fieldaug import cli, metrics as mx
from fieldaug import policy as P
from fieldaug import tinytrain as tt

FUZZ = settings(max_examples=200, deadline=None)


def text_files(keys, values, separators):
    """File bytes: either any bytes, or lines of a key, a separator and a
    value among comments, blank lines and short junk, UTF-8 encoded and
    sometimes with one byte overwritten."""
    line = st.one_of(
        st.builds("".join, st.tuples(st.sampled_from(keys), st.sampled_from(separators),
                                     st.sampled_from(values))),
        st.sampled_from(["", "   ", "# comment", "#", "\t# indented"]),
        st.text(max_size=12),
    )
    lines = st.lists(line, max_size=6).map(lambda ls: "\n".join(ls).encode())

    def overwrite(data, position, byte):
        if not data:
            return bytes([byte])
        position %= len(data)
        return data[:position] + bytes([byte]) + data[position + 1:]

    mutated = st.builds(overwrite, lines, st.integers(0, 255), st.integers(0, 255))
    return st.one_of(st.binary(max_size=64), lines, mutated)


POLICY_BYTES = text_files(
    ["seed", "theta", "soil_bank", "mixing 0.5", "affine 1 scale_min", "gaussian_blur",
     "random_erasing 1 max_rects", "bogus"],
    ["=", " = ", " ", "\t"],
    ["42", "-1", str(2 ** 64), "0.5", "nan", "inf", "", "x", "1 sigma_min=0.2", "9" * 40],
)

CONFIG_BYTES = text_files(
    [f.name for f in dataclasses.fields(tt.TrainConfig)] + ["momentum", ""],
    ["=", " = ", " "],
    ["1", "0", "-1", "2", "0.5", "1e999", "nan", "none", "", "x", "9" * 30],
)

SCORE_BYTES = text_files(
    ["instance_0000.pgm", "instance_0001.pgm", "other.pgm", ""],
    [" ", "  ", "\t", ""],
    ["0.5", "1", "0", "1.5", "-0.1", "nan", "high", ""],
)


@FUZZ
@given(POLICY_BYTES)
@example(b"seed=1\n\xff\n")
@example(b"seed = 42\nmixing 0.5\n")
def test_any_policy_bytes_load_or_raise_policy_error(data):
    try:
        P.load_policy(data)
    except P.PolicyError:
        pass


@FUZZ
@given(CONFIG_BYTES)
@example(b"epochs=2\n\x80\n")
@example(b"epochs=2\nepochs=3\n")
def test_any_config_bytes_load_or_raise_naming_a_line(data):
    try:
        tt.load_train_config(data)
    except ValueError as exc:
        assert re.search(r"line \d+", str(exc)), str(exc)


@pytest.fixture(scope="module")
def instance_sets(tmp_path_factory):
    root = tmp_path_factory.mktemp("eval")
    masks = [np.eye(4, dtype=bool), np.eye(4, dtype=bool)[::-1]]
    mx.save_instance_set(root / "pred", masks, [0.9, 0.4])
    mx.save_instance_set(root / "gt", masks)
    return root


@FUZZ
@given(data=SCORE_BYTES)
@example(data=b"instance_0000.pgm 0.5\ninstance_0001.pgm 0.5\ninstance_0000.pgm 0.7\n")
@example(data=b"instance_0000.pgm 0.5\ninstance_0001.pgm \xff\n")
@example(data=b"# scores\ninstance_0001.pgm  1\ninstance_0000.pgm 0.5\n")
def test_any_scores_bytes_exit_0_or_2_naming_the_file(instance_sets, data):
    scores = instance_sets / "pred" / "scores.txt"
    scores.write_bytes(data)
    stderr = io.StringIO()
    with contextlib.redirect_stderr(stderr):
        code = cli.main([
            "eval", "--task", "instance",
            "--pred", str(instance_sets / "pred"), "--gt", str(instance_sets / "gt"),
            "--csv", str(instance_sets / "metrics.csv"),
            "--manifest", str(instance_sets / "eval.manifest.txt"),
        ])
    assert code in (0, 2)
    if code == 2:
        assert stderr.getvalue().startswith(f"error: {scores}: "), stderr.getvalue()
