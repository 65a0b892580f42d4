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


def reference_token(data: bytes, pos: int, field: str) -> tuple[bytes, int]:
    """The byte-by-byte header tokenizer that ``imagecore._HEADER_TOKEN``
    replaced: skip whitespace and ``#`` comments, then read to whitespace."""
    n = len(data)
    while pos < n:
        c = data[pos:pos + 1]
        if c == b"#":
            while pos < n and data[pos:pos + 1] not in (b"\n", b"\r"):
                pos += 1
        elif c.isspace():
            pos += 1
        else:
            break
    if pos >= n:
        raise ic.CodecError(f"truncated header: missing {field}")
    start = pos
    while pos < n and not data[pos:pos + 1].isspace():
        pos += 1
    return data[start:pos], pos


def reference_header(data: bytes, magic: bytes) -> bytes:
    """``data`` with the header that :func:`reference_token` reads written
    as plain decimal tokens, or the CodecError that reading it raised."""
    if data[:2] != magic:
        return data
    pos, values = 2, []
    for field in ("width", "height", "maxval"):
        token, pos = reference_token(data, pos, field)
        # ASCII decimal only: int() would also take a sign and underscores
        if not token.isdigit():
            raise ic.CodecError(f"invalid {field}: {token!r}")
        values.append(int(token))
    return magic + b" %d %d %d" % tuple(values) + data[pos:]


def outcome(load, make_data):
    """The decoded image's shape and bytes, or the CodecError's message."""
    try:
        img = load(make_data())
    except ic.CodecError as exc:
        return str(exc)
    return img.shape, img.tobytes()


# a whitespace byte, then more whitespace, comments or a byte that is not
# whitespace to bytes.isspace
SPACES = [b" ", b"\t", b"\n", b"\r", b"\x0b", b"\x0c"]
SEPARATORS = st.tuples(st.sampled_from(SPACES), st.lists(st.sampled_from(
    SPACES + [b"#", b"# 1 2\n", b"#x\r", b"\x85"]), max_size=2)).map(
    lambda parts: parts[0] + b"".join(parts[1]))
TOKENS = st.one_of(
    st.sampled_from([b"1", b"2", b"3"]), st.sampled_from([b"1", b"2", b"3"]),
    st.sampled_from([b"255", b"0", b"-1", b"+2", b"1_0", b"02", b"0x1", b"2#", b"#", b"256"]),
    st.binary(max_size=3))


@st.composite
def netpbm_headers(draw):
    """A magic, three tokens after separators (whitespace, comments; at
    times none), one byte after maxval and a payload, often the size the
    tokens ask for."""
    data = draw(st.sampled_from([b"P6", b"P5", b"P3"]))
    tokens = [draw(TOKENS), draw(TOKENS), draw(st.one_of(st.just(b"255"), TOKENS))]
    for token in tokens:
        data += draw(st.one_of(SEPARATORS, SEPARATORS, st.just(b""))) + token
    data += draw(st.sampled_from([b"\n", b" ", b"\r", b"#", b"x", b""]))
    try:
        size = max(0, min(int(tokens[0]) * int(tokens[1]) * (3 if data[1:2] == b"6" else 1), 64))
    except ValueError:
        size = 0
    size = draw(st.sampled_from([size, max(size - 1, 0), size + 1]))
    return data + draw(st.binary(min_size=size, max_size=size))


@settings(max_examples=500, deadline=None)
@given(netpbm_headers())
def test_header_tokens_match_the_byte_by_byte_tokenizer(data):
    # the same image, or the same CodecError message, from either tokenizer
    for load, magic in ((ic.load_ppm, b"P6"), (ic.load_pgm, b"P5")):
        assert outcome(load, lambda: data) == outcome(load, lambda: reference_header(data, magic))
