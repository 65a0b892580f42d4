"""Byte-for-byte checks of the fast resampling, hue, color jitter, blur,
mixing, paste and normalization kernels against straightforward reference
versions of the same float operations.

The references below are the earlier implementations:

- ``reference_rotate_hue``: ``np.select`` over six sector candidates and
  float ``%`` on interleaved (H, W, 3) pixels; ``_rotate_hue`` itself works
  on (3, H, W) channel planes, so its tests transpose in and out;
- ``reference_color_jitter``: the interleaved pipeline with an (H, W, 1)
  luma and ``reference_rotate_hue``;
- ``reference_sample_grid``: four 2-D gathers blended with the fill through
  ``np.where``;
- ``reference_affine_coordinates``: the ``np.meshgrid`` sampling grid of
  ``apply_affine``;
- ``reference_mixing``: ``np.stack`` of the image and its two flips, then a
  three-array fancy-index gather;
- ``reference_paste``: the boolean-indexed paste of ``background_invariance``;
- ``reference_blur_axis``: ``np.pad`` edge replication for the blur borders;
- ``reference_normalize_image``: numpy's ``mean`` and ``std``.

Outputs must match as raw bytes, not just approximately.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fieldaug import augment as A
from fieldaug import imagecore as ic
from fieldaug.rng import RandomStream

SHAPES = ((1, 1), (1, 5), (3, 2), (7, 23))
FUZZ_SHAPES = ((1, 1), (1, 5), (7, 23), (128, 128))


# ---------------------------------------------------------------------------
# reference kernels
# ---------------------------------------------------------------------------

def reference_sample_grid(img, xs, ys, fill):
    h, w = img.shape[:2]
    data = img.astype(np.float64, copy=False)
    fill = np.asarray(fill, dtype=np.float64).reshape(1, 3)
    xs = np.asarray(xs, dtype=np.float64)
    ys = np.asarray(ys, dtype=np.float64)
    shape = xs.shape
    xs = xs.ravel()
    ys = ys.ravel()
    x0 = np.floor(xs)
    y0 = np.floor(ys)
    fx = xs - x0
    fy = ys - y0
    with np.errstate(invalid="ignore"):  # far-out values: any index outside
        x0 = x0.astype(np.int64)
        y0 = y0.astype(np.int64)
    out = np.zeros((xs.size, 3), dtype=np.float64)
    for dx, dy, weight in (
        (0, 0, (1 - fx) * (1 - fy)),
        (1, 0, fx * (1 - fy)),
        (0, 1, (1 - fx) * fy),
        (1, 1, fx * fy),
    ):
        xi = x0 + dx
        yi = y0 + dy
        inside = (xi >= 0) & (xi < w) & (yi >= 0) & (yi < h)
        values = np.where(
            inside[:, None],
            data[np.clip(yi, 0, h - 1), np.clip(xi, 0, w - 1)],
            fill,
        )
        out += weight[:, None] * values
    return out.reshape(shape + (3,))


def reference_rotate_hue(x, hue):
    r, g, b = x[:, :, 0], x[:, :, 1], x[:, :, 2]
    maxc = x.max(axis=2)
    minc = x.min(axis=2)
    delta = maxc - minc
    active = (delta > 0) & (maxc > 0)
    safe_delta = np.where(active, delta, 1.0)
    h6 = np.select(
        [maxc == r, maxc == g],
        [((g - b) / safe_delta) % 6.0, (b - r) / safe_delta + 2.0],
        default=(r - g) / safe_delta + 4.0,
    )
    h = (h6 / 6.0 + hue) % 1.0
    hp = h * 6.0
    sector = np.floor(hp).astype(np.int64) % 6
    c_mid = delta * (1.0 - np.abs(hp % 2.0 - 1.0))
    zeros = np.zeros_like(delta)
    by_sector = [
        (delta, c_mid, zeros),
        (c_mid, delta, zeros),
        (zeros, delta, c_mid),
        (zeros, c_mid, delta),
        (c_mid, zeros, delta),
        (delta, zeros, c_mid),
    ]
    picks = [sector == s for s in range(6)]
    rotated = np.stack(
        [np.select(picks, [by_sector[s][c] for s in range(6)]) + minc for c in range(3)],
        axis=2,
    )
    return np.where(active[:, :, None], rotated, x)


def reference_color_jitter(img, p):
    x = img.astype(np.float64)
    x = x * p.brightness
    mean_luma = float((x @ A._LUMA).mean())
    x = mean_luma + (x - mean_luma) * p.contrast
    luma = (x @ A._LUMA)[:, :, None]
    x = luma + (x - luma) * p.saturation
    return ic.u8_from_float(reference_rotate_hue(x, p.hue))


def reference_mixing(img, rng):
    h, w = img.shape[:2]
    choices = rng.below_many(h * w, 3).reshape(h, w)
    sources = np.stack([img, ic.flip_x(img), ic.flip_y(img)])
    vv, uu = np.ogrid[:h, :w]
    return sources[choices, vv, uu]


def reference_paste(soil, img, mask, dx, dy):
    out = soil.copy()
    h, w = mask.shape
    u_lo, u_hi = max(0, -dx), min(w, w - dx)
    v_lo, v_hi = max(0, -dy), min(h, h - dy)
    if u_hi > u_lo and v_hi > v_lo:
        sub = mask[v_lo:v_hi, u_lo:u_hi]
        out[v_lo + dy:v_hi + dy, u_lo + dx:u_hi + dx][sub] = img[v_lo:v_hi, u_lo:u_hi][sub]
    return out


def reference_affine_coordinates(h, w, p):
    cos_t = math.cos(p.rotation)
    sin_t = math.sin(p.rotation)
    rot = np.array([[cos_t, -sin_t], [sin_t, cos_t]])
    shear = np.array([[1.0, p.shear_x], [p.shear_y, 1.0]])
    inv = np.linalg.inv(p.scale * (rot @ shear))
    cx = (w - 1) / 2.0
    cy = (h - 1) / 2.0
    us, vs = np.meshgrid(np.arange(w, dtype=np.float64), np.arange(h, dtype=np.float64))
    dx = us - cx - p.t_x
    dy = vs - cy - p.t_y
    return inv[0, 0] * dx + inv[0, 1] * dy + cx, inv[1, 0] * dx + inv[1, 1] * dy + cy


def reference_normalize_image(img):
    pixels = img.reshape(-1, 3).astype(np.float64)
    mean = pixels.mean(axis=0)
    std = pixels.std(axis=0)
    out = (img.astype(np.float64) - mean) / (std + ic.NORM_EPS)
    return out.astype(np.float32)


def reference_blur_axis(x, taps, axis):
    r = (len(taps) - 1) // 2
    pad = [(0, 0)] * x.ndim
    pad[axis] = (r, r)
    padded = np.pad(x, pad, mode="edge")
    out = np.zeros(x.shape, dtype=np.float64)
    for i, weight in enumerate(taps):
        sl = [slice(None)] * x.ndim
        sl[axis] = slice(i, i + x.shape[axis])
        out += weight * padded[tuple(sl)]
    return out


def blur_taps(sigma):
    r = math.ceil(3.0 * sigma)
    offsets = np.arange(-r, r + 1, dtype=np.float64)
    taps = np.exp(-(offsets ** 2) / (2.0 * sigma * sigma))
    return taps / taps.sum()


def assert_same_bytes(got, want):
    assert got.dtype == want.dtype
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


# ---------------------------------------------------------------------------
# bilinear sampling
# ---------------------------------------------------------------------------

def edge_coordinates(h, w):
    """Corner and border coordinates, exact last pixels, far outside,
    negative fractional and a few interior points, as an (x, y) grid."""
    def axis_values(n):
        return np.array([
            0.0, n - 1.0, n - 1.0 + 1e-9, n - 0.5, float(n), n + 0.25,
            -0.25, -0.5, -1.0, -1.5, -2.75, -1e-300, 0.5, (n - 1) / 2.0,
            1e6, -1e6, 1e300, -1e300,
        ])
    return np.meshgrid(axis_values(w), axis_values(h))


@pytest.mark.parametrize("h,w", SHAPES)
@pytest.mark.parametrize("fill", [(0.0, 0.0, 0.0), (12.3, 0.7, 254.9), (-3.5, 1e-3, 300.25)])
def test_sample_grid_matches_reference_on_edges(h, w, fill):
    rng = np.random.default_rng(h * 100 + w)
    img = rng.integers(0, 256, size=(h, w, 3), dtype=np.uint8)
    xs, ys = edge_coordinates(h, w)
    fill = np.array(fill)
    assert_same_bytes(
        ic.bilinear_sample_grid(img, xs, ys, fill), reference_sample_grid(img, xs, ys, fill)
    )


@pytest.mark.parametrize("h,w", SHAPES + ((16, 16), (64, 40)))
def test_sample_grid_matches_reference_on_random_coordinates(h, w):
    rng = np.random.default_rng(h * 1000 + w)
    img = rng.integers(0, 256, size=(h, w, 3), dtype=np.uint8)
    fill = img.reshape(-1, 3).mean(axis=0)
    xs = rng.uniform(-3.0, w + 2.0, size=(h, w))
    ys = rng.uniform(-3.0, h + 2.0, size=(h, w))
    assert_same_bytes(
        ic.bilinear_sample_grid(img, xs, ys, fill), reference_sample_grid(img, xs, ys, fill)
    )


def test_sample_grid_keeps_coordinate_shape():
    img = np.full((3, 2, 3), 9, np.uint8)
    xs = np.zeros((2, 5, 4))
    out = ic.bilinear_sample_grid(img, xs, xs, np.zeros(3))
    assert out.shape == (2, 5, 4, 3)
    assert out.flags.c_contiguous


@pytest.mark.parametrize("h,w", SHAPES)
def test_apply_affine_unchanged_on_small_shapes(h, w, monkeypatch):
    rng = np.random.default_rng(7 * h + w)
    img = rng.integers(0, 256, size=(h, w, 3), dtype=np.uint8)
    p = A.AffineParams(1.7, 2.1, 0.4, 0.6, 0.3 * w, -0.2 * h)
    fast = A.apply_affine(img, p)
    monkeypatch.setattr(A, "bilinear_sample_grid", reference_sample_grid)
    assert_same_bytes(fast, A.apply_affine(img, p))


@pytest.mark.parametrize("h,w", ((1, 1), (1, 5), (7, 23), (128, 128)))
@pytest.mark.parametrize("kind", ["zeros", "full", "random"])
def test_apply_affine_fill_is_the_float_channel_mean(h, w, kind, monkeypatch):
    if kind == "random":
        img = np.random.default_rng(h * w).integers(0, 256, size=(h, w, 3), dtype=np.uint8)
    else:
        img = np.full((h, w, 3), 0 if kind == "zeros" else 255, np.uint8)
    fills = []

    def recording_sample_grid(img, xs, ys, fill):
        fills.append(fill)
        return ic.bilinear_sample_grid(img, xs, ys, fill)

    monkeypatch.setattr(A, "bilinear_sample_grid", recording_sample_grid)
    A.apply_affine(img, A.AffineParams(1.1, 0.3, 0.1, 0.0, 1.0, -1.0))
    assert_same_bytes(fills[0], img.reshape(-1, 3).mean(axis=0))


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(FUZZ_SHAPES), st.integers(0, 2 ** 64 - 1))
def test_apply_affine_coordinates_match_meshgrid(shape, seed):
    h, w = shape
    img = np.zeros((h, w, 3), np.uint8)
    p = A.sample_affine(RandomStream(seed), w, h)
    grids = []

    def recording_sample_grid(img, xs, ys, fill):
        grids.append((xs, ys))
        return ic.bilinear_sample_grid(img, xs, ys, fill)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(A, "bilinear_sample_grid", recording_sample_grid)
        A.apply_affine(img, p)
    (xs, ys), = grids
    want_x, want_y = reference_affine_coordinates(h, w, p)
    assert_same_bytes(xs, want_x)
    assert_same_bytes(ys, want_y)


@pytest.mark.parametrize("h,w", SHAPES)
def test_same_size_resize_is_a_copy_equal_to_the_grid_sample(h, w):
    img = np.random.default_rng(h * w).integers(0, 256, size=(h, w, 3), dtype=np.uint8)
    out = ic.bilinear_resize(img, w, h)
    assert out is not img
    assert not np.shares_memory(out, img)
    assert_same_bytes(out, img)
    # the full corner-aligned sample the shortcut skips gives the same bytes
    xs = np.arange(w, dtype=np.float64) if w > 1 else np.zeros(1)
    ys = np.arange(h, dtype=np.float64) if h > 1 else np.zeros(1)
    grid_x, grid_y = np.meshgrid(xs, ys)
    assert_same_bytes(out, ic.u8_from_float(reference_sample_grid(img, grid_x, grid_y, np.zeros(3))))


# ---------------------------------------------------------------------------
# hue rotation
# ---------------------------------------------------------------------------

# the float `%` of the reference at its edges: integers, values just
# below them, signed and tiny zeros, magnitudes with no fraction left, and
# -2**-60, which turns the hue 0 of a red pixel with g == b into 1.0, so
# hp = 6.0 and the reference's `% 6` sends it to sector 0
EDGE_HUES = (-0.0, 0.0, 1e-300, 0.999999999, 1.0, 7.5, -0.5, -1e20, 1e300, -2.0 ** -60)
PIXEL_VALUES = (-40.0, -1.0, -1e-300, -0.0, 0.0, 1e-300, 0.5, 1.0, 17.0, 255.0, 300.0)


def rotate_hue(x, hue):
    """``A._rotate_hue`` on an (H, W, 3) array: it takes and returns
    channel planes."""
    return np.moveaxis(A._rotate_hue(np.moveaxis(x, 2, 0).copy(), hue), 0, 2)


def hue_edge_pixels():
    """Tied maxima in every pairing, all-equal channels, max <= 0, signed
    zeros, and mixed-sign values as they occur after unclamped contrast."""
    values = (-40.0, -0.0, 0.0, 0.5, 17.0, 128.0, 255.0, 300.0)
    pixels = [(a, b, c) for a in values for b in values for c in values]
    return np.array(pixels, dtype=np.float64).reshape(-1, 8, 3)


@pytest.mark.parametrize("hue", [0.05, 0.125, 1.0 / 6.0, 0.5, 0.999, -0.3, 1.7, *EDGE_HUES])
def test_rotate_hue_matches_reference_on_edge_pixels(hue):
    x = hue_edge_pixels()
    assert_same_bytes(rotate_hue(x, hue), reference_rotate_hue(x, hue))


@pytest.mark.parametrize("h,w", SHAPES + ((16, 16),))
def test_rotate_hue_matches_reference_on_random_images(h, w):
    rng = np.random.default_rng(31 * h + w)
    x = rng.uniform(-60.0, 320.0, size=(h, w, 3))
    x[0, 0] = (5.0, 5.0, 1.0)  # red and green tie for the max
    for hue in rng.uniform(0.0, 0.125, size=5):
        assert_same_bytes(rotate_hue(x, hue), reference_rotate_hue(x, hue))


def test_rotate_hue_tie_and_nonpositive_max():
    x = np.array([[[9.0, 9.0, 2.0], [3.0, 7.0, 7.0], [-1.0, -2.0, -3.0], [0.0, 0.0, -5.0]]])
    out = rotate_hue(x, 0.25)
    assert_same_bytes(out, reference_rotate_hue(x, 0.25))
    # max <= 0 has no defined hue and passes through
    assert_same_bytes(out[0, 2:], x[0, 2:])


@settings(max_examples=300, deadline=None)
@given(
    st.sampled_from(((1, 1), (1, 5), (7, 23), (128, 128))),
    st.integers(0, 2 ** 32 - 1),
    st.sampled_from(EDGE_HUES) | st.floats(-2.0, 2.0) | st.floats(-1e300, 1e300),
)
def test_rotate_hue_matches_reference_on_fuzzed_images(shape, seed, hue):
    # half the values from a small set, so that ties, signed zeros and
    # channel maxima <= 0 are common
    rng = np.random.default_rng(seed)
    size = shape + (3,)
    x = np.where(rng.random(size) < 0.5, rng.choice(PIXEL_VALUES, size=size),
                 rng.uniform(-60.0, 320.0, size=size))
    assert_same_bytes(rotate_hue(x, hue), reference_rotate_hue(x, hue))


def byte_image_with_ties(shape, seed):
    """Half the bytes from a small set, so that channel ties, g == b and
    flat regions are common."""
    rng = np.random.default_rng(seed)
    size = shape + (3,)
    return np.where(rng.random(size) < 0.5, rng.choice((0, 17, 128, 255), size=size),
                    rng.integers(0, 256, size=size)).astype(np.uint8)


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(FUZZ_SHAPES),
    st.integers(0, 2 ** 32 - 1),
    st.tuples(*[st.floats(0.0, 3.0)] * 3),
    st.sampled_from(EDGE_HUES) | st.floats(-2.0, 2.0),
)
@example((7, 23), 0, (1.0, 1.0, 1.0), -2.0 ** -60)
def test_color_jitter_matches_reference(shape, seed, factors, hue):
    # contrast and saturation up to 3 push values below 0 and above 255
    p = A.ColorJitterParams(*factors, hue)
    img = byte_image_with_ties(shape, seed)
    assert_same_bytes(A.color_jitter(img, p), reference_color_jitter(img, p))


# ---------------------------------------------------------------------------
# mixing and the background paste
# ---------------------------------------------------------------------------

@settings(max_examples=40, deadline=None)
@given(st.sampled_from(FUZZ_SHAPES), st.integers(0, 2 ** 64 - 1), st.booleans())
def test_mixing_matches_stacked_gather(shape, seed, mirrored_view):
    img = byte_image(shape, seed % 2 ** 32, "random")
    if mirrored_view:  # a non-contiguous input
        img = img[:, ::-1]
    fast, ref = RandomStream(seed), RandomStream(seed)
    assert_same_bytes(A.mixing(img, fast), reference_mixing(img, ref))
    assert fast.next_u64() == ref.next_u64()


class FixedDraws:
    """Stands in for the stream of ``background_invariance``: soil index 0
    and the given pixel shift, so that shifts outside the drawn range can
    be tested too."""

    def __init__(self, dx, dy):
        self.shift = [float(dx), float(dy)]

    def next_below(self, k):
        return 0

    def uniform(self, lo, hi):
        return self.shift.pop(0)


def shift_strategy(n):
    """The ends of the drawn range (W/4 rounded half up), no shift, a
    shift out of the frame on either side, and any shift in [-n, n]."""
    ends = (math.floor(n / 4 + 0.5), math.floor(-n / 4 + 0.5))
    return st.sampled_from(ends + (0, n, -n - 3)) | st.integers(-n, n)


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(FUZZ_SHAPES), st.integers(0, 2 ** 32 - 1),
       st.sampled_from(("random", "all", "none")), st.data())
def test_paste_matches_boolean_indexing(shape, seed, mask_kind, data):
    h, w = shape
    rng = np.random.default_rng(seed)
    img = rng.integers(0, 256, size=(h, w, 3), dtype=np.uint8)
    soil = rng.integers(0, 256, size=(5, 9, 3), dtype=np.uint8)
    mask = {"random": rng.random((h, w)) < 0.5, "all": np.ones((h, w), bool),
            "none": np.zeros((h, w), bool)}[mask_kind]
    dx = data.draw(shift_strategy(w), label="dx")
    dy = data.draw(shift_strategy(h), label="dy")
    got = A.background_invariance(img, A.SoilBank([soil]), FixedDraws(dx, dy), mask=mask)
    want = reference_paste(ic.bilinear_resize(soil, w, h), img, mask, dx, dy)
    assert_same_bytes(got, want)


# ---------------------------------------------------------------------------
# normalization
# ---------------------------------------------------------------------------

def byte_image(shape, seed, kind):
    h, w = shape
    rng = np.random.default_rng(seed)
    if kind == "constant":  # std 0: every output is 0
        return np.full((h, w, 3), rng.integers(0, 256, size=3), np.uint8)
    if kind == "two values":
        return np.where(rng.random((h, w, 1)) < 0.5, 0, 255).astype(np.uint8).repeat(3, axis=2)
    if kind == "narrow":
        return rng.integers(100, 103, size=(h, w, 3), dtype=np.uint8)
    return rng.integers(0, 256, size=(h, w, 3), dtype=np.uint8)


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(((1, 1), (1, 5), (7, 23), (128, 128))),
    st.integers(0, 2 ** 32 - 1),
    st.sampled_from(("random", "constant", "two values", "narrow")),
)
@example((128, 128), 0, "constant")
@example((128, 128), 1, "two values")
def test_normalize_image_matches_mean_and_std(shape, seed, kind):
    img = byte_image(shape, seed, kind)
    assert_same_bytes(ic.normalize_image(img), reference_normalize_image(img))


# Random 128 px images whose float32 output changes when the squared
# deviations are summed pairwise along each channel plane instead of row
# by row. A different std rarely moves a float32 output: of 3,000 seeds,
# 2,621 changed the float64 std and these 3 changed an output.
@pytest.mark.parametrize("seed", [946, 1972, 2327])
def test_normalize_image_sums_squares_row_by_row(seed):
    img = byte_image((128, 128), seed, "random")
    assert_same_bytes(ic.normalize_image(img), reference_normalize_image(img))


# ---------------------------------------------------------------------------
# blur borders
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("h,w", SHAPES)
@pytest.mark.parametrize("sigma", [0.1, 0.7, 2.0, 3.5])
def test_blur_axis_matches_reference(h, w, sigma):
    rng = np.random.default_rng(int(sigma * 10) + h * w)
    x = rng.integers(0, 256, size=(h, w, 3)).astype(np.float64)
    taps = blur_taps(sigma)
    for axis in (0, 1):
        assert_same_bytes(A._blur_axis(x, taps, axis), reference_blur_axis(x, taps, axis))


@pytest.mark.parametrize("h,w", SHAPES)
def test_gaussian_blur_radius_beyond_image_side(h, w, monkeypatch):
    # sigma 3.5 gives radius 11, wider than every side here
    img = np.random.default_rng(h * 3 + w).integers(0, 256, size=(h, w, 3), dtype=np.uint8)
    fast = A.gaussian_blur(img, 3.5)
    monkeypatch.setattr(A, "_blur_axis", reference_blur_axis)
    assert_same_bytes(fast, A.gaussian_blur(img, 3.5))
