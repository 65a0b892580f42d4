"""The six field-domain augmentations.

Every augmentation is a pure function of (image, parameter draw): feeding
the same image and the same random stream state produces byte-identical
output. Parameter draw order is fixed and documented per augmentation;
policy-level gating relies on it.

Coordinate convention matches :mod:`fieldaug.imagecore`: u is the column
(x), v is the row (y), arrays index ``img[v, u]``.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass, field

import numpy as np

from .imagecore import (
    _is_finite,
    bilinear_resize,
    bilinear_sample_grid,
    channel_mean,
    ensure_u8,
    flip_x,
    flip_y,
    normalize_image,
    u8_from_float,
)
from .rng import RandomStream
from .vegmask import DEFAULT_THETA, binarize, excess_green, refine_mask, vegetation_fraction

__all__ = [
    "AffineParams",
    "ColorJitterParams",
    "SoilBank",
    "sample_affine",
    "apply_affine",
    "sample_color_jitter",
    "color_jitter",
    "gaussian_blur",
    "mixing",
    "random_erasing",
    "refined_vegetation_mask",
    "background_invariance",
    "build_soil_bank",
    "SCALE_RANGE",
    "ROTATION_RANGE",
    "SHEAR_RANGE",
    "TRANSLATE_FRAC",
    "BRIGHTNESS_RANGE",
    "CONTRAST_RANGE",
    "SATURATION_RANGE",
    "HUE_RANGE",
    "SIGMA_RANGE",
    "ERASE_AREA_RANGE",
    "ERASE_ASPECT_RANGE",
    "ERASE_MIN_FRACTION",
    "ERASE_MAX_RECTS",
    "SOIL_MAX_FRACTION",
]

# Sampling ranges. Scale, rotation, shear, translation fraction, hue and
# blur sigma are fixed by the method; the remaining color ranges are
# conventional defaults and stay configurable through policy files.
SCALE_RANGE = (0.5, 2.0)
ROTATION_RANGE = (-math.pi, math.pi)
SHEAR_RANGE = (0.25, 0.75)
TRANSLATE_FRAC = 0.25

BRIGHTNESS_RANGE = (0.6, 1.4)
CONTRAST_RANGE = (0.6, 1.4)
SATURATION_RANGE = (0.8, 1.2)
HUE_RANGE = (0.0, 0.125)

SIGMA_RANGE = (0.1, 2.0)

ERASE_AREA_RANGE = (0.01, 0.08)
ERASE_ASPECT_RANGE = (0.3, 3.3)
ERASE_MIN_FRACTION = 0.10
ERASE_MAX_RECTS = 100

SOIL_MAX_FRACTION = 0.05

_LUMA = np.array([0.299, 0.587, 0.114])

# Per 60-degree hue sector (columns), the candidate plane of ``_rotate_hue``
# each of R, G, B (rows) reads: 0, the middle value or the chroma, plus minc.
# Column 6 repeats sector 0 for a hue that wraps to exactly 1.0 (hp = 6);
# column 7 passes a pixel without a hue through (its own channels 3, 4, 5).
_HUE_SOURCES = np.array(
    [[2, 1, 0, 0, 1, 2, 2, 3], [1, 2, 2, 1, 0, 0, 1, 4], [0, 0, 1, 2, 2, 1, 0, 5]]
)


def _check_finite(**values: float) -> None:
    """A ValueError naming the first value that is NaN, infinite or an int
    beyond float range, so a kernel fails before any work rather than
    casting NaN pixels to bytes."""
    for name, value in values.items():
        if not _is_finite(value):
            raise ValueError(f"{name} must be finite, got {value}")


# ---------------------------------------------------------------------------
# affine transform
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AffineParams:
    scale: float
    rotation: float
    shear_x: float
    shear_y: float
    t_x: float
    t_y: float


def sample_affine(
    rng: RandomStream,
    width: int,
    height: int,
    scale_range: tuple[float, float] = SCALE_RANGE,
    rotation_range: tuple[float, float] = ROTATION_RANGE,
    shear_range: tuple[float, float] = SHEAR_RANGE,
    translate_frac: float = TRANSLATE_FRAC,
) -> AffineParams:
    """Draw affine parameters, consuming the stream in the fixed order
    scale, rotation, shear_x, shear_y, t_x, t_y."""
    if width < 1 or height < 1:
        raise ValueError("image dimensions must be >= 1")
    return AffineParams(
        scale=rng.uniform(*scale_range),
        rotation=rng.uniform(*rotation_range),
        shear_x=rng.uniform(*shear_range),
        shear_y=rng.uniform(*shear_range),
        t_x=rng.uniform(-translate_frac * width, translate_frac * width),
        t_y=rng.uniform(-translate_frac * height, translate_frac * height),
    )


def _fma(a: float, b: float, c: float) -> float:
    """``a * b + c`` rounded once, as an FMA instruction rounds it
    (``math.fma`` needs Python 3.13): exact integer arithmetic on the
    operands' ratios, then one int division, which CPython rounds
    correctly. An exact zero is +0.0."""
    (na, da), (nb, db), (nc, dc) = a.as_integer_ratio(), b.as_integer_ratio(), c.as_integer_ratio()
    return (na * nb * dc + nc * da * db) / (da * db * dc)


def _affine_inverse(p: AffineParams) -> tuple[float, float, float, float]:
    """The inverse of scale * (rotation @ shear), row-major, in Python
    floats with the bits that numpy's matrix product and LAPACK inverse
    give on OpenBLAS's SkylakeX kernels, whatever the CPU. Each product
    entry is one FMA, then scaled; the inverse is an LU solve with partial
    pivoting against the identity. A ValueError if |det| = |u11 * u22| <
    1e-12."""
    cos_t = math.cos(p.rotation)
    sin_t = math.sin(p.rotation)
    shear = ((1.0, p.shear_x), (p.shear_y, 1.0))
    (a, b), (c, d) = [[p.scale * _fma(r1, shear[1][j], r0 * shear[0][j]) for j in (0, 1)]
                      for r0, r1 in ((cos_t, -sin_t), (sin_t, cos_t))]
    swap = abs(c) > abs(a)
    if swap:
        (a, b), (c, d) = (c, d), (a, b)
    # for finite parameters, a pivot this small (zero too) puts |det| far
    # below 1e-12, and its reciprocal may overflow
    if abs(a) < sys.float_info.min:
        raise ValueError("singular affine matrix")
    l21 = c * (1 / a)
    u22 = d - l21 * b
    if abs(a * u22) < 1e-12:
        raise ValueError("singular affine matrix")
    columns = []
    for y1, y2 in ((0.0, 1.0), (1.0, 0.0)) if swap else ((1.0, 0.0), (0.0, 1.0)):
        x2 = (y2 - l21 * y1) * (1 / u22)
        columns.append((_fma(-b, x2, y1) * (1 / a), x2))
    (i00, i10), (i01, i11) = columns
    return i00, i01, i10, i11


def apply_affine(img: np.ndarray, p: AffineParams) -> np.ndarray:
    """Warp about the image center with scale * rotation * shear, then
    translate. Output keeps the input size; uncovered pixels blend with
    the per-channel mean of the source image."""
    _check_finite(**vars(p))
    img = ensure_u8(img)
    h, w = img.shape[:2]
    i00, i01, i10, i11 = _affine_inverse(p)

    cx = (w - 1) / 2.0
    cy = (h - 1) / 2.0
    dx = np.arange(w, dtype=np.float64) - cx - p.t_x
    dy = (np.arange(h, dtype=np.float64) - cy - p.t_y)[:, None]
    src_x = i00 * dx + i01 * dy + cx
    src_y = i10 * dx + i11 * dy + cy

    sampled = bilinear_sample_grid(img, src_x, src_y, channel_mean(img))
    return u8_from_float(sampled)


# ---------------------------------------------------------------------------
# color jitter
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ColorJitterParams:
    brightness: float
    contrast: float
    saturation: float
    hue: float


def sample_color_jitter(
    rng: RandomStream,
    brightness_range: tuple[float, float] = BRIGHTNESS_RANGE,
    contrast_range: tuple[float, float] = CONTRAST_RANGE,
    saturation_range: tuple[float, float] = SATURATION_RANGE,
    hue_range: tuple[float, float] = HUE_RANGE,
) -> ColorJitterParams:
    """Draw order: brightness, contrast, saturation, hue."""
    return ColorJitterParams(
        brightness=rng.uniform(*brightness_range),
        contrast=rng.uniform(*contrast_range),
        saturation=rng.uniform(*saturation_range),
        hue=rng.uniform(*hue_range),
    )


def _rotate_hue(x: np.ndarray, hue: float) -> np.ndarray:
    """Hue rotation via HSV of (3, H, W) channel planes, returning new
    planes. Pixels whose channel max is <= 0 (possible after unclamped
    contrast) have no defined hue and pass through; they clamp to black at
    byte conversion anyway."""
    r, g, b = x
    maxc = np.maximum(np.maximum(r, g), b)
    minc = np.minimum(np.minimum(r, g), b)
    delta = maxc - minc
    active = (delta > 0) & (maxc > 0)
    safe_delta = np.where(active, delta, 1.0)

    # The float `%` operations are written out exactly: the red-sector hue
    # is in [-1, 1] wherever it is used, so `% 6.0` adds 6 to its negative
    # values; `% 1.0` is `h - floor(h)` and `% 2.0` is `hp - 2 floor(hp / 2)`.
    red = (g - b) / safe_delta
    np.add(red, 6.0, out=red, where=red < 0)
    # in one buffer: h6, then h = h6 / 6.0 + hue wrapped into [0, 1], then hp
    hp = np.where(
        maxc == r,
        red,
        np.where(maxc == g, (b - r) / safe_delta + 2.0, (r - g) / safe_delta + 4.0),
    )
    hp /= 6.0
    hp += hue
    hp -= np.floor(hp)
    hp *= 6.0
    c_mid = delta * (1.0 - np.abs(hp - 2.0 * np.floor(hp / 2.0) - 1.0))
    candidates = np.empty((6,) + r.shape)
    np.add(0.0, minc, out=candidates[0])
    np.add(c_mid, minc, out=candidates[1])
    np.add(delta, minc, out=candidates[2])
    candidates[3:] = x
    # hp is in [0, 6]; an inactive pixel reads column 7 of the table
    column = np.floor(hp).astype(np.intp)
    column[~active] = 7
    flat = (_HUE_SOURCES * r.size).take(column, axis=1)
    flat += np.arange(r.size).reshape(r.shape)
    return candidates.take(flat)


def color_jitter(img: np.ndarray, p: ColorJitterParams) -> np.ndarray:
    """Apply brightness, contrast, saturation, hue in that fixed order.

    All stages run unclamped in float; the single clamp to [0, 255]
    happens at the final byte conversion.
    """
    _check_finite(**vars(p))
    img = ensure_u8(img)
    x = img.astype(np.float64)
    x *= p.brightness

    luma = x @ _LUMA
    mean_luma = float(np.add.reduce(luma, axis=None) / luma.size)
    x -= mean_luma
    x *= p.contrast
    x += mean_luma

    # saturation and hue work on channel planes
    luma = x @ _LUMA
    x = np.subtract(x.transpose(2, 0, 1), luma, order="C")
    x *= p.saturation
    x += luma

    out = u8_from_float(_rotate_hue(x, p.hue))
    return np.ascontiguousarray(out.transpose(1, 2, 0))


# ---------------------------------------------------------------------------
# gaussian blur
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=256)
def _edge_index(r: int, n: int) -> np.ndarray:
    """Positions -r .. n + r - 1 of an axis of length n, clamped to its edges."""
    index = np.minimum(np.maximum(np.arange(-r, n + r), 0), n - 1)
    index.flags.writeable = False
    return index


def _blur_axis(x: np.ndarray, taps: np.ndarray, axis: int) -> np.ndarray:
    r = (len(taps) - 1) // 2
    n = x.shape[axis]
    padded = x.take(_edge_index(r, n), axis=axis)
    out = np.zeros(x.shape, dtype=np.float64)
    product = np.empty(x.shape, dtype=np.float64)
    lead = (slice(None),) * axis
    for i, weight in enumerate(taps):
        out += np.multiply(padded[lead + (slice(i, i + n),)], weight, out=product)
    return out


def gaussian_blur(img: np.ndarray, sigma: float) -> np.ndarray:
    """Separable Gaussian, radius ceil(3*sigma), clamp-to-edge borders,
    horizontal pass then vertical pass."""
    _check_finite(sigma=sigma)
    if sigma <= 0:
        raise ValueError(f"sigma must be positive, got {sigma}")
    img = ensure_u8(img)
    r = math.ceil(3.0 * sigma)
    offsets = np.arange(-r, r + 1, dtype=np.float64)
    taps = np.exp(-(offsets ** 2) / (2.0 * sigma * sigma))
    taps /= np.add.reduce(taps)
    x = img.astype(np.float64)
    x = _blur_axis(x, taps, axis=1)
    x = _blur_axis(x, taps, axis=0)
    return u8_from_float(x)


# ---------------------------------------------------------------------------
# mixing
# ---------------------------------------------------------------------------

def mixing(img: np.ndarray, rng: RandomStream) -> np.ndarray:
    """Per pixel, copy from the image, its x-flip, or its y-flip with equal
    probability. One draw per pixel, row-major order."""
    img = ensure_u8(img)
    h, w = img.shape[:2]
    choices = rng.below_many(h * w, 3)
    # flat index of each pixel's source pixel in the image, its x-flip and
    # its y-flip; choice c of pixel i reads sources.flat[c * h * w + i]
    sources = np.empty((3, h, w), dtype=np.intp)
    sources[0] = np.arange(h * w).reshape(h, w)
    sources[1] = flip_x(sources[0])
    sources[2] = flip_y(sources[0])
    choices *= h * w
    choices += sources[0].ravel()
    return img.reshape(-1, 3).take(sources.take(choices), axis=0).reshape(h, w, 3)


# ---------------------------------------------------------------------------
# random erasing
# ---------------------------------------------------------------------------

def random_erasing(
    img: np.ndarray,
    rng: RandomStream,
    min_fraction: float = ERASE_MIN_FRACTION,
    area_range: tuple[float, float] = ERASE_AREA_RANGE,
    aspect_range: tuple[float, float] = ERASE_ASPECT_RANGE,
    max_rects: int = ERASE_MAX_RECTS,
) -> np.ndarray:
    """Erase rectangles with uniform random bytes until the covered area
    reaches ``min_fraction`` of the image (or the rectangle budget runs
    out). Per rectangle the draw order is area fraction, aspect ratio, x,
    y, then fill bytes row-major R,G,B. Side lengths floor so one
    rectangle never exceeds the top of ``area_range``."""
    if not 0.0 < min_fraction < 0.5:
        raise ValueError(f"min_fraction must be in (0, 0.5), got {min_fraction}")
    img = ensure_u8(img)
    h, w = img.shape[:2]
    total = h * w
    out = img.copy()
    covered = np.zeros((h, w), dtype=bool)
    count = 0  # covered pixels: each rectangle adds those it newly covers

    for _ in range(max_rects):
        area = rng.uniform(*area_range) * total
        aspect = rng.uniform(*aspect_range)
        rw = max(1, min(w, int(math.sqrt(area * aspect))))
        rh = max(1, min(h, int(math.sqrt(area / aspect))))
        x = rng.next_below(w - rw + 1)
        y = rng.next_below(h - rh + 1)
        out[y:y + rh, x:x + rw] = rng.bytes(rh * rw * 3).reshape(rh, rw, 3)
        window = covered[y:y + rh, x:x + rw]
        count += rh * rw - np.add.reduce(window, axis=None)
        window[...] = True
        if count >= min_fraction * total:
            break
    return out


# ---------------------------------------------------------------------------
# background invariance
# ---------------------------------------------------------------------------

@dataclass
class SoilBank:
    """Paste targets; every member passed the low-vegetation admission
    check when the bank was built."""

    images: list = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.images)


def refined_vegetation_mask(img: np.ndarray, theta: float = DEFAULT_THETA) -> np.ndarray:
    """Full mask pipeline: standardize, excess green, threshold, refine."""
    return refine_mask(binarize(excess_green(normalize_image(img)), theta))


def build_soil_bank(
    images, theta: float = DEFAULT_THETA, max_fraction: float = SOIL_MAX_FRACTION
) -> SoilBank:
    """Keep exactly the images whose refined-mask vegetation fraction is
    below ``max_fraction``. An empty result is allowed; consumers check."""
    admitted = [
        img
        for img in images
        if vegetation_fraction(refined_vegetation_mask(img, theta)) < max_fraction
    ]
    return SoilBank(images=admitted)


def background_invariance(
    img: np.ndarray,
    bank: SoilBank,
    rng: RandomStream,
    theta: float = DEFAULT_THETA,
    mask: np.ndarray | None = None,
) -> np.ndarray:
    """Transplant the masked vegetation onto a random soil image.

    Draw order: soil index, dx, dy. The translation draws are continuous
    uniform in [-W/4, W/4] x [-H/4, H/4] and round half up to pixels.
    Source pixels whose target lands outside the image are discarded. An
    all-background mask returns the resized soil image unchanged.
    ``mask``, when given, must be ``refined_vegetation_mask(img, theta)``;
    callers that transplant one image more than once pass it to skip the
    mask pipeline. Anything but a bool (H, W) array raises ValueError.
    """
    img = ensure_u8(img)
    if len(bank) == 0:
        raise ValueError("soil bank is empty")
    h, w = img.shape[:2]

    if mask is None:
        mask = refined_vegetation_mask(img, theta)
    elif getattr(mask, "dtype", None) != bool or mask.shape != (h, w):
        raise ValueError(f"mask must be a bool array of shape {(h, w)}")
    idx = rng.next_below(len(bank))
    dx = math.floor(rng.uniform(-TRANSLATE_FRAC * w, TRANSLATE_FRAC * w) + 0.5)
    dy = math.floor(rng.uniform(-TRANSLATE_FRAC * h, TRANSLATE_FRAC * h) + 0.5)

    out = bilinear_resize(ensure_u8(bank.images[idx]), w, h)
    u_lo, u_hi = max(0, -dx), min(w, w - dx)
    v_lo, v_hi = max(0, -dy), min(h, h - dy)
    if u_hi > u_lo and v_hi > v_lo:
        # repeated over channels: copyto is several times slower with a mask that broadcasts
        sub = mask[v_lo:v_hi, u_lo:u_hi, None].repeat(3, axis=2)
        window = out[v_lo + dy:v_hi + dy, u_lo + dx:u_hi + dx]
        np.copyto(window, img[v_lo:v_hi, u_lo:u_hi], where=sub)
    return out
