"""Property tests of the policy and checkpoint loaders: generated valid
policies round-trip through their text form and apply to any image,
policies of numpy scalars or with line breaks and spaces in their soil
paths round-trip or fail to save, arbitrary overrides either load or
raise PolicyError, and truncated or header-mutated checkpoints raise
CheckpointError, never any other exception."""

import functools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fieldaug import policy as P
from fieldaug import tinytrain as tt
from fieldaug.augment import SoilBank

FUZZ = settings(max_examples=200, deadline=None)

# bytes before the parameter payload: magic, version, dims and step (36),
# config (48) and parameter count (8)
CHECKPOINT_HEADER_BYTES = 36 + 48 + 8


def within(default, bounds):
    """Override values that keep a parameter's bounds from
    ``policy.PARAMETERS``, within 1e6 of zero and at least 1e-6 inside an
    exclusive bound."""
    if isinstance(default, int):
        return st.integers(bounds[">="], 10 ** 6)
    if "in" in bounds:
        low, high = bounds["in"]
        return st.floats(low + 1e-6, high - 1e-3)
    low = bounds[">"] + 1e-6 if ">" in bounds else -1e6
    return st.floats(max(low, bounds.get(">=", low)), bounds.get("<=", 1e6))


def anywhere(default, bounds):
    """Any finite value that keeps a parameter's bounds. The ends, or the
    nearest floats inside an open bound, are drawn often."""
    if isinstance(default, int):
        return st.integers(min_value=bounds[">="])
    low, high = bounds.get("in", (bounds.get(">"), bounds.get("<=")))
    if low is not None:
        low = math.nextafter(low, math.inf)
    low = bounds.get(">=", low)
    if "in" in bounds:
        high = math.nextafter(high, -math.inf)
    ends = [end for end in (low, high) if end is not None]
    return st.one_of(st.sampled_from(ends), st.floats(low, high, allow_nan=False,
                                                      allow_infinity=False))


@st.composite
def ranges(draw, key, default, values):
    """Zero, one or both ends of a range override, consistent with the
    default at the end left out."""
    lo, hi = sorted((draw(values), draw(values)))
    ends = draw(st.sampled_from(["", "min", "max", "both"]))
    if ends == "min":
        return {f"{key}_min": min(lo, default[1])}
    if ends == "max":
        return {f"{key}_max": max(hi, default[0])}
    if ends == "both":
        return {f"{key}_min": lo, f"{key}_max": hi}
    return {}


@st.composite
def valid_params(draw, name, value_strategy=within):
    params = {}
    for key, (default, bounds) in P.PARAMETERS[name].items():
        values = value_strategy(default, bounds)
        if isinstance(default, tuple):
            params.update(draw(ranges(key, default, values)))
        elif draw(st.booleans()):
            params[key] = draw(values)
    return params


@st.composite
def valid_policies(draw):
    names = draw(st.permutations(P.AUGMENTATION_NAMES))
    names = names[:draw(st.integers(0, len(names)))]
    entries = [
        P.PolicyEntry(name, draw(st.integers(0, 1000)) / 1000, draw(valid_params(name)))
        for name in names
    ]
    return P.Policy(
        entries=entries,
        master_seed=draw(st.integers(0, 2 ** 64 - 1)),
        theta=draw(st.floats(allow_nan=False, allow_infinity=False)),
        soil_bank_path=draw(st.from_regex(r"[A-Za-z0-9_./-]{0,20}", fullmatch=True)),
    )


@FUZZ
@given(valid_policies())
def test_policy_text_round_trip(pol):
    assert P.load_policy(P.save_policy(pol)) == pol


def as_scalars(values, types):
    """``values`` converted to one of ``types``, say a Python or a numpy scalar."""
    return st.builds(lambda value, kind: kind(value), values, st.sampled_from(types))


def python_or_numpy(default, bounds):
    """Override values as :func:`within` draws them, as Python or numpy scalars."""
    floats = (float, np.float64, np.float32)
    kinds = (int, np.int64, *floats) if isinstance(default, int) else floats
    return as_scalars(within(default, bounds), kinds)


@st.composite
def scalar_policies(draw):
    """Valid policies but for their soil paths, which may hold line breaks
    and surrounding spaces, with values of any scalar type they admit."""
    floats = functools.partial(as_scalars, types=(float, np.float64))
    names = draw(st.permutations(P.AUGMENTATION_NAMES))
    names = names[:draw(st.integers(0, len(names)))]
    entries = [
        P.PolicyEntry(name, draw(floats(st.integers(0, 1000).map(lambda n: n / 1000))),
                      draw(valid_params(name, python_or_numpy)))
        for name in names
    ]
    return P.Policy(
        entries=entries,
        master_seed=draw(as_scalars(st.integers(0, 2 ** 64 - 1), (int, np.uint64))),
        theta=draw(floats(st.floats(allow_nan=False, allow_infinity=False))),
        soil_bank_path=draw(st.text(st.sampled_from("ab/._=# \t\n\r\x0b\x1c\x85\u2028"),
                                    max_size=6)),
    )


@FUZZ
@given(scalar_policies())
def test_saved_policy_loads_as_itself_or_does_not_save(pol):
    try:
        text = P.save_policy(pol)
    except P.PolicyError:
        return
    assert P.load_policy(text) == pol


@st.composite
def firing_policies(draw):
    """Entries that all fire, with overrides anywhere within the bounds."""
    names = draw(st.permutations(P.AUGMENTATION_NAMES))
    names = names[:draw(st.integers(1, len(names)))]
    entries = [P.PolicyEntry(name, 1.0, draw(valid_params(name, anywhere))) for name in names]
    return P.Policy(entries=entries, master_seed=draw(st.integers(0, 2 ** 64 - 1)))


# the affine corner: both shears at one end and the smallest scale give the
# smallest determinant the bounds admit, 2e-12
CORNER = P.Policy([P.PolicyEntry("affine", 1.0, {
    "scale_min": 0.01, "scale_max": 0.01, "shear_min": -0.99999999, "shear_max": -0.99999999,
})])


@FUZZ
@given(firing_policies(), st.integers(1, 17), st.integers(1, 17), st.integers(0, 2 ** 32 - 1))
@example(CORNER, 17, 17, 0)
@example(CORNER, 1, 1, 0)
def test_policies_within_the_bounds_apply(pol, height, width, seed):
    img = np.random.default_rng(seed).integers(0, 256, (height, width, 3), np.uint8)
    bank = SoilBank([np.full((5, 7, 3), (120, 90, 60), np.uint8)])
    out = P.apply_policy(img, pol, P.RandomStream(pol.master_seed), soil_bank=bank)
    assert out.dtype == np.uint8 and out.shape == img.shape


override_values = st.one_of(
    st.floats().map(repr),
    st.integers(-10 ** 30, 10 ** 30).map(str),
    st.sampled_from([1, 308, 309, 400]).map(lambda digits: "9" * digits),
    st.sampled_from(["", "nan", "-inf", "1e999", "0x10", "1_0", "--1", "=", "1e-400"]),
    st.text(st.characters(blacklist_categories=("Cs", "Zs", "Zl", "Zp", "Cc")), max_size=8),
)


@st.composite
def entry_lines(draw):
    name = draw(st.sampled_from(P.AUGMENTATION_NAMES))
    known = tuple(P._override_defaults(name))
    keys = st.one_of(st.from_regex(r"[a-z_]{1,12}", fullmatch=True), *(
        [st.sampled_from(known)] * 3 if known else []))
    probability = draw(st.sampled_from(["0", "0.5", "1", "1.000", "-0.1", "2", "nan"]))
    overrides = draw(st.lists(st.tuples(keys, override_values), max_size=4))
    return " ".join([name, probability] + [f"{key}={value}" for key, value in overrides])


@FUZZ
@given(entry_lines())
@example("random_erasing 1 max_rects=" + "9" * 400)  # beyond float range
@example("affine 1 translate_frac=" + "9" * 400)
def test_overrides_load_or_raise_policy_error(line):
    try:
        P.load_policy(f"soil_bank=bank\n{line}\n")
    except P.PolicyError:
        pass


def small_checkpoint() -> bytes:
    model = tt.init_model(input_size=2, embed_dim=2, seed=1)
    model.step = 3
    cfg = tt.TrainConfig(batch_size=4, input_size=2, embed_dim=2, max_steps=9)
    return tt.save_checkpoint(tt.make_checkpoint(model, cfg))


CHECKPOINT = small_checkpoint()


def test_unmutated_checkpoint_loads():
    assert tt.load_checkpoint(CHECKPOINT).step == 3


@FUZZ
@given(st.integers(0, len(CHECKPOINT) - 1))
def test_truncated_checkpoint_raises_checkpoint_error(cut):
    with pytest.raises(tt.CheckpointError):
        tt.load_checkpoint(CHECKPOINT[:cut])


@FUZZ
@given(st.integers(0, CHECKPOINT_HEADER_BYTES - 1), st.integers(0, 255))
def test_mutated_header_loads_or_raises_checkpoint_error(offset, value):
    data = bytearray(CHECKPOINT)
    data[offset] = value
    try:
        ckpt = tt.load_checkpoint(bytes(data))
    except tt.CheckpointError:
        return
    ckpt.config.validate()
    tt.model_from_checkpoint(ckpt)
