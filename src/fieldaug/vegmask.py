"""Excess-Green vegetation masking and binary morphology.

The mask pipeline is: standardize the image, take the per-pixel excess
green 2G - R - B, threshold it, then clean the result with a fixed
erode/dilate schedule. Masks are (H, W) bool arrays, True = vegetation.

Morphology window convention (shared with the tests' brute-force oracle):
for a (kw, kh) kernel, output pixel (u, v) reads input offsets
du in [-floor((kw-1)/2), kw-1-floor((kw-1)/2)] and likewise dv, i.e.
even kernels anchor top-left-biased. Out-of-bounds reads are background
for both operators, so border pixels erode away.
"""

from __future__ import annotations

import numpy as np

from .imagecore import ensure_f32, save_pgm, load_pgm

__all__ = [
    "excess_green",
    "binarize",
    "erode",
    "dilate",
    "refine_mask",
    "vegetation_fraction",
    "mask_to_pgm",
    "mask_from_pgm",
]

DEFAULT_THETA = 0.0


def excess_green(norm: np.ndarray) -> np.ndarray:
    """Per-pixel 2G - R - B on a standardized image; float64 field."""
    norm = ensure_f32(norm)
    r = norm[:, :, 0].astype(np.float64)
    g = norm[:, :, 1].astype(np.float64)
    b = norm[:, :, 2].astype(np.float64)
    return 2.0 * g - r - b


def binarize(field: np.ndarray, theta: float = DEFAULT_THETA) -> np.ndarray:
    """Strict threshold: True where field > theta."""
    return np.asarray(field) > theta


def _offsets(k: int) -> tuple[int, int]:
    """First and last offset of a k-wide window under the anchor convention;
    a width that is not an integer, or below 1, is a ValueError."""
    if not isinstance(k, (int, np.integer)):
        raise ValueError(f"kernel dimensions must be integers, got {k!r}")
    if k < 1:
        raise ValueError("kernel dimensions must be >= 1")
    lo = -((k - 1) // 2)
    return lo, lo + k - 1


def _window_axis(mask: np.ndarray, lo: int, hi: int, axis: int, op) -> np.ndarray:
    """``op``-reduce of positions i+lo .. i+hi along ``axis`` into position
    i, reading positions outside the mask as False. Zero padding, then
    shift-doubling: after the loop position j of ``runs`` reduces ``span``
    consecutive padded positions from j, and two (possibly overlapping)
    runs cover each window."""
    def part(start, stop):
        return (slice(None),) * axis + (slice(start, stop),)

    n = mask.shape[axis]
    pad_lo, pad_hi = max(0, -lo), max(0, hi)
    shape = list(mask.shape)
    shape[axis] += pad_lo + pad_hi
    runs = np.zeros(shape, dtype=bool)
    runs[part(pad_lo, pad_lo + n)] = mask
    size, span = hi - lo + 1, 1
    while 2 * span <= size:
        runs = op(runs[part(0, -span)], runs[part(span, None)])
        span *= 2
    first, last = pad_lo + lo, pad_lo + hi - span + 1
    return op(runs[part(first, first + n)], runs[part(last, last + n)])


def _window(mask: np.ndarray, cols: tuple[int, int], rows: tuple[int, int], op) -> np.ndarray:
    """Rectangular window reduction, one axis at a time (exact for AND and
    OR, because out-of-bounds reads are False on both passes)."""
    across = _window_axis(np.asarray(mask, dtype=bool), *cols, 1, op)
    return _window_axis(across, *rows, 0, op)


def erode(mask: np.ndarray, kw: int, kh: int) -> np.ndarray:
    """AND over the rectangular window around each pixel."""
    return _window(mask, _offsets(kw), _offsets(kh), np.logical_and)


def dilate(mask: np.ndarray, kw: int, kh: int) -> np.ndarray:
    """OR over the rectangular window around each pixel."""
    return _window(mask, _offsets(kw), _offsets(kh), np.logical_or)


def refine_mask(mask: np.ndarray) -> np.ndarray:
    """Fixed cleanup schedule: 2 rounds of (2,2) erosion, then 4 rounds of
    (6,6) dilation.

    Computed as one erosion over offsets [0, 2]^2 and one dilation over
    [-8, 12]^2, the sums of the rounds' windows. Composing two rounds equals
    one round over the summed window because every window contains offset
    0: any in-bounds pixel the summed window reaches is reached through an
    in-bounds pixel between it and the output pixel, and any out-of-bounds
    intermediate pixel is itself read by the summed window."""
    out = _window(mask, (0, 2), (0, 2), np.logical_and)
    return _window(out, (-8, 12), (-8, 12), np.logical_or)


def vegetation_fraction(mask: np.ndarray) -> float:
    """Fraction of pixels flagged as vegetation, in [0, 1]."""
    mask = np.asarray(mask, dtype=bool)
    return float(mask.sum()) / mask.size


def mask_to_pgm(mask: np.ndarray) -> bytes:
    """Serialize as binary PGM with values 0/255."""
    return save_pgm(np.where(np.asarray(mask, dtype=bool), 255, 0).astype(np.uint8))


def mask_from_pgm(data: bytes) -> np.ndarray:
    """Decode a binary PGM mask; gray values above 127 are foreground."""
    return load_pgm(data) > 127
