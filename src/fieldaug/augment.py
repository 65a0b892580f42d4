"""The six field-domain augmentations.

Every augmentation is a pure function of (image, parameter draw): feeding
the same image and the same random stream state produces byte-identical
output. Parameter draw order is fixed and documented per augmentation;
policy-level gating relies on it.

Coordinate convention matches :mod:`fieldaug.imagecore`: u is the column
(x), v is the row (y), arrays index ``img[v, u]``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .imagecore import (
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

# Per 60-degree hue sector, which of R, G, B take the chroma and which
# take the middle value before minc is added back; the rest take 0.
_TAKES_CHROMA = np.array(
    [[1, 0, 0], [0, 1, 0], [0, 1, 0], [0, 0, 1], [0, 0, 1], [1, 0, 0]], dtype=bool
)
_TAKES_MID = np.array(
    [[0, 1, 0], [1, 0, 0], [0, 0, 1], [0, 1, 0], [1, 0, 0], [0, 0, 1]], dtype=bool
)


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


def apply_affine(img: np.ndarray, p: AffineParams) -> np.ndarray:
    """Warp about the image center with scale * rotation * shear, then
    translate. Output keeps the input size; uncovered pixels blend with
    the per-channel mean of the source image."""
    img = ensure_u8(img)
    h, w = img.shape[:2]
    cos_t = math.cos(p.rotation)
    sin_t = math.sin(p.rotation)
    rot = np.array([[cos_t, -sin_t], [sin_t, cos_t]])
    shear = np.array([[1.0, p.shear_x], [p.shear_y, 1.0]])
    fwd = p.scale * (rot @ shear)
    if abs(np.linalg.det(fwd)) < 1e-12:
        raise ValueError("singular affine matrix")
    inv = np.linalg.inv(fwd)

    cx = (w - 1) / 2.0
    cy = (h - 1) / 2.0
    us, vs = np.meshgrid(np.arange(w, dtype=np.float64), np.arange(h, dtype=np.float64))
    dx = us - cx - p.t_x
    dy = vs - cy - p.t_y
    src_x = inv[0, 0] * dx + inv[0, 1] * dy + cx
    src_y = inv[1, 0] * dx + inv[1, 1] * dy + cy

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
    """Hue rotation via HSV. Pixels whose channel max is <= 0 (possible
    after unclamped contrast) have no defined hue and pass through; they
    clamp to black at byte conversion anyway."""
    r, g, b = x[:, :, 0], x[:, :, 1], x[:, :, 2]
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
    h6 = np.where(
        maxc == r,
        red,
        np.where(maxc == g, (b - r) / safe_delta + 2.0, (r - g) / safe_delta + 4.0),
    )
    h = h6 / 6.0 + hue
    h -= np.floor(h)

    hp = h * 6.0
    sector = np.floor(hp).astype(np.int64) % 6
    c_mid = delta * (1.0 - np.abs(hp - 2.0 * np.floor(hp / 2.0) - 1.0))
    rotated = np.where(
        _TAKES_CHROMA.take(sector, axis=0),
        delta[:, :, None],
        np.where(_TAKES_MID.take(sector, axis=0), c_mid[:, :, None], 0.0),
    ) + minc[:, :, None]
    return np.where(active[:, :, None], rotated, x)


def color_jitter(img: np.ndarray, p: ColorJitterParams) -> np.ndarray:
    """Apply brightness, contrast, saturation, hue in that fixed order.

    All stages run unclamped in float; the single clamp to [0, 255]
    happens at the final byte conversion.
    """
    img = ensure_u8(img)
    x = img.astype(np.float64)

    x = x * p.brightness

    mean_luma = float((x @ _LUMA).mean())
    x = mean_luma + (x - mean_luma) * p.contrast

    luma = (x @ _LUMA)[:, :, None]
    x = luma + (x - luma) * p.saturation

    x = _rotate_hue(x, p.hue)
    return u8_from_float(x)


# ---------------------------------------------------------------------------
# gaussian blur
# ---------------------------------------------------------------------------

def _blur_axis(x: np.ndarray, taps: np.ndarray, axis: int) -> np.ndarray:
    r = (len(taps) - 1) // 2
    n = x.shape[axis]
    padded = x.take(np.clip(np.arange(-r, n + r), 0, n - 1), axis=axis)
    out = np.zeros(x.shape, dtype=np.float64)
    for i, weight in enumerate(taps):
        sl = [slice(None)] * x.ndim
        sl[axis] = slice(i, i + n)
        out += weight * padded[tuple(sl)]
    return out


def gaussian_blur(img: np.ndarray, sigma: float) -> np.ndarray:
    """Separable Gaussian, radius ceil(3*sigma), clamp-to-edge borders,
    horizontal pass then vertical pass."""
    if sigma <= 0:
        raise ValueError(f"sigma must be positive, got {sigma}")
    img = ensure_u8(img)
    r = math.ceil(3.0 * sigma)
    offsets = np.arange(-r, r + 1, dtype=np.float64)
    taps = np.exp(-(offsets ** 2) / (2.0 * sigma * sigma))
    taps /= taps.sum()
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
    choices = rng.below_many(h * w, 3).reshape(h, w)
    sources = np.stack([img, flip_x(img), flip_y(img)])
    vv, uu = np.ogrid[:h, :w]
    return sources[choices, vv, uu]


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

    for _ in range(max_rects):
        area = rng.uniform(*area_range) * total
        aspect = rng.uniform(*aspect_range)
        rw = max(1, min(w, int(math.sqrt(area * aspect))))
        rh = max(1, min(h, int(math.sqrt(area / aspect))))
        x = rng.next_below(w - rw + 1)
        y = rng.next_below(h - rh + 1)
        out[y:y + rh, x:x + rw] = rng.bytes(rh * rw * 3).reshape(rh, rw, 3)
        covered[y:y + rh, x:x + rw] = True
        if covered.sum() >= min_fraction * total:
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
    mask pipeline.
    """
    img = ensure_u8(img)
    if len(bank) == 0:
        raise ValueError("soil bank is empty")
    h, w = img.shape[:2]

    if mask is None:
        mask = refined_vegetation_mask(img, theta)
    idx = rng.next_below(len(bank))
    dx = math.floor(rng.uniform(-TRANSLATE_FRAC * w, TRANSLATE_FRAC * w) + 0.5)
    dy = math.floor(rng.uniform(-TRANSLATE_FRAC * h, TRANSLATE_FRAC * h) + 0.5)

    out = bilinear_resize(ensure_u8(bank.images[idx]), w, h)
    u_lo, u_hi = max(0, -dx), min(w, w - dx)
    v_lo, v_hi = max(0, -dy), min(h, h - dy)
    if u_hi > u_lo and v_hi > v_lo:
        sub = mask[v_lo:v_hi, u_lo:u_hi]
        out[v_lo + dy:v_hi + dy, u_lo + dx:u_hi + dx][sub] = img[v_lo:v_hi, u_lo:u_hi][sub]
    return out
