"""Property tests of the netpbm codecs: round trips, and truncated or
mutated inputs that either decode to a valid array or raise CodecError,
never any other exception."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from fieldaug import imagecore as ic

FUZZ = settings(max_examples=200, deadline=None)


@st.composite
def byte_images(draw, channels=3):
    h = draw(st.integers(1, 9))
    w = draw(st.integers(1, 9))
    shape = (h, w, channels) if channels > 1 else (h, w)
    data = draw(st.binary(min_size=int(np.prod(shape)), max_size=int(np.prod(shape))))
    return np.frombuffer(data, dtype=np.uint8).reshape(shape)


def decode_or_codec_error(load, data: bytes, channels: int) -> None:
    try:
        img = load(data)
    except ic.CodecError:
        return
    assert img.dtype == np.uint8
    assert img.ndim == (3 if channels == 3 else 2)
    assert img.size >= 1


@FUZZ
@given(byte_images())
def test_ppm_round_trip(img):
    assert np.array_equal(ic.load_ppm(ic.save_ppm(img)), img)


@FUZZ
@given(byte_images(channels=1))
def test_pgm_round_trip(gray):
    assert np.array_equal(ic.load_pgm(ic.save_pgm(gray)), gray)


@FUZZ
@given(byte_images(), st.data())
def test_truncated_ppm_raises_codec_error(img, data):
    encoded = ic.save_ppm(img)
    cut = data.draw(st.integers(0, len(encoded) - 1))
    try:
        ic.load_ppm(encoded[:cut])
    except ic.CodecError:
        return
    raise AssertionError(f"truncation at {cut} of {len(encoded)} bytes decoded")


@FUZZ
@given(byte_images(), st.data())
def test_mutated_ppm_decodes_or_raises_codec_error(img, data):
    encoded = bytearray(ic.save_ppm(img))
    header = len(encoded) - img.size
    # mostly header positions, where the parser makes its decisions
    pos = data.draw(st.one_of(st.integers(0, header - 1), st.integers(0, len(encoded) - 1)))
    mutation = data.draw(st.sampled_from(["replace", "insert", "delete"]))
    value = data.draw(st.integers(0, 255))
    if mutation == "replace":
        encoded[pos] = value
    elif mutation == "insert":
        encoded.insert(pos, value)
    else:
        del encoded[pos]
    decode_or_codec_error(ic.load_ppm, bytes(encoded), 3)


@FUZZ
@given(byte_images(channels=1), st.data())
def test_mutated_pgm_decodes_or_raises_codec_error(gray, data):
    encoded = bytearray(ic.save_pgm(gray))
    pos = data.draw(st.integers(0, len(encoded) - 1))
    encoded[pos] = data.draw(st.integers(0, 255))
    decode_or_codec_error(ic.load_pgm, bytes(encoded), 1)


@FUZZ
@given(st.binary(max_size=64))
def test_arbitrary_bytes_decode_or_raise_codec_error(blob):
    decode_or_codec_error(ic.load_ppm, b"P6" + blob, 3)
    decode_or_codec_error(ic.load_pgm, b"P5" + blob, 1)
