"""Byte-for-byte checks of the fast resampling, hue and blur kernels
against straightforward reference versions of the same float operations.

The references below are the earlier implementations: ``np.select`` over
six sector candidates for the hue rotation, four 2-D gathers blended with
the fill through ``np.where`` for bilinear sampling, and ``np.pad`` edge
replication for the blur borders. Outputs must match as raw bytes, not
just approximately.
"""

import math

import numpy as np
import pytest

from fieldaug import augment as A
from fieldaug import imagecore as ic

SHAPES = ((1, 1), (1, 5), (3, 2), (7, 23))


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

def hue_edge_pixels():
    """Tied maxima in every pairing, all-equal channels, max <= 0, signed
    zeros, and mixed-sign values as they occur after unclamped contrast."""
    values = (-40.0, -0.0, 0.0, 0.5, 17.0, 128.0, 255.0, 300.0)
    pixels = [(a, b, c) for a in values for b in values for c in values]
    return np.array(pixels, dtype=np.float64).reshape(-1, 8, 3)


@pytest.mark.parametrize("hue", [0.0, 0.05, 0.125, 1.0 / 6.0, 0.5, 0.999, -0.3, 1.7])
def test_rotate_hue_matches_reference_on_edge_pixels(hue):
    x = hue_edge_pixels()
    assert_same_bytes(A._rotate_hue(x, hue), reference_rotate_hue(x, hue))


@pytest.mark.parametrize("h,w", SHAPES + ((16, 16),))
def test_rotate_hue_matches_reference_on_random_images(h, w):
    rng = np.random.default_rng(31 * h + w)
    x = rng.uniform(-60.0, 320.0, size=(h, w, 3))
    x[0, 0] = (5.0, 5.0, 1.0)  # red and green tie for the max
    for hue in rng.uniform(0.0, 0.125, size=5):
        assert_same_bytes(A._rotate_hue(x, hue), reference_rotate_hue(x, hue))


def test_rotate_hue_tie_and_nonpositive_max():
    x = np.array([[[9.0, 9.0, 2.0], [3.0, 7.0, 7.0], [-1.0, -2.0, -3.0], [0.0, 0.0, -5.0]]])
    out = A._rotate_hue(x, 0.25)
    assert_same_bytes(out, reference_rotate_hue(x, 0.25))
    # max <= 0 has no defined hue and passes through
    assert_same_bytes(out[0, 2:], x[0, 2:])


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
