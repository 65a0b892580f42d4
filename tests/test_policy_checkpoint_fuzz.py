"""Property tests of the policy and checkpoint loaders: generated valid
policies round-trip through their text form, arbitrary overrides either
load or raise PolicyError, and truncated or header-mutated checkpoints
raise CheckpointError, never any other exception."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fieldaug import policy as P
from fieldaug import tinytrain as tt

FUZZ = settings(max_examples=200, deadline=None)

# bytes before the parameter payload: magic, version, dims and step (36),
# config (48) and parameter count (8)
CHECKPOINT_HEADER_BYTES = 36 + 48 + 8

finite = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)
positive = st.floats(1e-6, 1e6, allow_nan=False, allow_infinity=False)


@st.composite
def ranges(draw, prefix, default):
    """Zero, one or both ends of a range override, consistent with the
    default at the end left out."""
    values = positive if prefix in P._POSITIVE_RANGES else finite
    if prefix == "area":
        values = st.floats(1e-6, 1.0)
    lo, hi = sorted((draw(values), draw(values)))
    ends = draw(st.sampled_from(["", "min", "max", "both"]))
    if ends == "min":
        return {f"{prefix}_min": min(lo, default[1])}
    if ends == "max":
        return {f"{prefix}_max": max(hi, default[0])}
    if ends == "both":
        return {f"{prefix}_min": lo, f"{prefix}_max": hi}
    return {}


@st.composite
def valid_params(draw, name):
    params = {}
    for prefix, default in P._RANGES.get(name, ()):
        params.update(draw(ranges(prefix, default)))
    if name == "affine" and draw(st.booleans()):
        params["translate_frac"] = draw(finite)
    if name == "random_erasing":
        if draw(st.booleans()):
            params["min_fraction"] = draw(st.floats(1e-6, 0.499))
        if draw(st.booleans()):
            params["max_rects"] = draw(st.integers(1, 10 ** 6))
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
    known = P._FLOAT_KEYS[name] + P._INT_KEYS.get(name, ())
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
