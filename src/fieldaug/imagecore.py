"""Image containers, netpbm codecs, resampling, and normalization.

Images are plain numpy arrays:

* byte image: shape ``(H, W, 3)``, dtype uint8, interleaved R,G,B
* float image: shape ``(H, W, 3)``, dtype float32, unbounded finite reals

Array indexing is ``img[v, u]`` with ``u`` the column (x) and ``v`` the
row (y). Conversion back to bytes clamps to [0, 255] and rounds half away
from zero; that rule is load-bearing for byte-exact reproducibility and
lives in :func:`u8_from_float`.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "CodecError",
    "ensure_u8",
    "ensure_f32",
    "u8_from_float",
    "load_ppm",
    "save_ppm",
    "load_pgm",
    "save_pgm",
    "channel_mean",
    "normalize_image",
    "bilinear_sample",
    "bilinear_sample_grid",
    "bilinear_resize",
    "flip_x",
    "flip_y",
]

NORM_EPS = 1e-8


class CodecError(ValueError):
    """Malformed netpbm payload; the message names the offending field."""


def ensure_u8(img: np.ndarray) -> np.ndarray:
    img = np.asarray(img)
    if img.dtype != np.uint8:
        raise ValueError(f"expected uint8 image, got dtype {img.dtype}")
    if img.ndim != 3 or img.shape[2] != 3:
        raise ValueError(f"expected (H, W, 3) image, got shape {img.shape}")
    if img.shape[0] < 1 or img.shape[1] < 1:
        raise ValueError(f"empty image: shape {img.shape}")
    return img


def ensure_f32(img: np.ndarray) -> np.ndarray:
    img = np.asarray(img)
    if img.dtype != np.float32:
        raise ValueError(f"expected float32 image, got dtype {img.dtype}")
    if img.ndim != 3 or img.shape[2] != 3:
        raise ValueError(f"expected (H, W, 3) image, got shape {img.shape}")
    if not np.all(np.isfinite(img)):
        raise ValueError("float image contains non-finite values")
    return img


def u8_from_float(values: np.ndarray) -> np.ndarray:
    """Clamp to [0, 255], round half away from zero, cast to uint8."""
    clamped = np.clip(np.asarray(values, dtype=np.float64), 0.0, 255.0)
    return np.floor(clamped + 0.5).astype(np.uint8)


# ---------------------------------------------------------------------------
# netpbm codecs (binary P6 / P5, maxval 255)
# ---------------------------------------------------------------------------

def _read_header_token(data: bytes, pos: int, field: str) -> tuple[bytes, int]:
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
        raise CodecError(f"truncated header: missing {field}")
    start = pos
    while pos < n and not data[pos:pos + 1].isspace():
        pos += 1
    return data[start:pos], pos


def _parse_netpbm(data: bytes, magic: bytes, channels: int) -> np.ndarray:
    if data[:2] != magic:
        raise CodecError(f"bad magic: expected {magic.decode()}")
    pos = 2
    dims = []
    for field in ("width", "height", "maxval"):
        token, pos = _read_header_token(data, pos, field)
        try:
            value = int(token)
        except ValueError:
            raise CodecError(f"invalid {field}: {token!r}") from None
        dims.append(value)
    width, height, maxval = dims
    if width < 1:
        raise CodecError(f"invalid width: {width}")
    if height < 1:
        raise CodecError(f"invalid height: {height}")
    if maxval != 255:
        raise CodecError(f"unsupported maxval: {maxval}")
    pos += 1  # single whitespace byte after maxval
    expected = width * height * channels
    payload = data[pos:pos + expected]
    if len(payload) != expected:
        raise CodecError(
            f"truncated pixel data: expected {expected} bytes, got {len(payload)}"
        )
    if len(data) > pos + expected:
        raise CodecError(f"{len(data) - pos - expected} trailing bytes after pixel data")
    arr = np.frombuffer(payload, dtype=np.uint8)
    if channels == 1:
        return arr.reshape(height, width).copy()
    return arr.reshape(height, width, channels).copy()


def load_ppm(data: bytes) -> np.ndarray:
    """Decode a binary P6 PPM (maxval 255) to a byte image, pixel-exact.
    Bytes after the pixel data are rejected, so multi-image files are too."""
    return _parse_netpbm(data, b"P6", 3)


def save_ppm(img: np.ndarray) -> bytes:
    """Canonical P6 encoding, deterministic byte for byte."""
    img = ensure_u8(img)
    h, w = img.shape[:2]
    return b"P6\n%d %d\n255\n" % (w, h) + img.tobytes()


def load_pgm(data: bytes) -> np.ndarray:
    """Decode a binary P5 PGM (maxval 255) to a (H, W) uint8 array; like
    :func:`load_ppm` it rejects bytes after the pixel data."""
    return _parse_netpbm(data, b"P5", 1)


def save_pgm(gray: np.ndarray) -> bytes:
    gray = np.asarray(gray)
    if gray.dtype != np.uint8 or gray.ndim != 2:
        raise ValueError(f"expected (H, W) uint8 array, got {gray.dtype} {gray.shape}")
    h, w = gray.shape
    return b"P5\n%d %d\n255\n" % (w, h) + gray.tobytes()


# ---------------------------------------------------------------------------
# normalization and resampling
# ---------------------------------------------------------------------------

def channel_mean(img: np.ndarray) -> np.ndarray:
    """Per-channel float64 mean of a byte image. Integer sums are exact, so
    this equals ``img.reshape(-1, 3).mean(axis=0)`` byte for byte."""
    h, w = img.shape[:2]
    planes = np.ascontiguousarray(img.reshape(-1, 3).T)
    return planes.sum(axis=1, dtype=np.int64) / (h * w)


def normalize_image(img: np.ndarray) -> np.ndarray:
    """Per-channel standardization (x - mean) / (population std + 1e-8)."""
    img = ensure_u8(img)
    n = img.shape[0] * img.shape[1]
    dev = np.ascontiguousarray(img.reshape(n, 3).T) - channel_mean(img)[:, None]
    # the population std as numpy's std computes it: squared deviations summed
    # row by row down the (N, 3) pixels, a running sum along each plane
    sq = dev * dev
    std = np.sqrt(np.cumsum(sq, axis=1, out=sq)[:, -1] / n)
    out = np.empty(img.shape, dtype=np.float32)
    np.divide(dev, (std + NORM_EPS)[:, None], out=out.reshape(n, 3).T)
    return out


def bilinear_sample_grid(
    img: np.ndarray, xs: np.ndarray, ys: np.ndarray, fill: np.ndarray
) -> np.ndarray:
    """Bilinear interpolation of the four neighbors at each (x, y).

    Neighbors outside [0, w-1] x [0, h-1] contribute ``fill``, so fully
    outside coordinates return the fill value and partial overlap blends
    with it. Returns float64 values of shape ``xs.shape + (3,)``.
    """
    h, w = img.shape[:2]
    # channel planes with a one-pixel border of fill: every clipped
    # neighbor index is in range, and a weight multiplies a whole plane
    padded = np.empty((3, h + 2, w + 2), dtype=np.float64)
    padded[...] = np.asarray(fill, dtype=np.float64).reshape(3, 1, 1)
    padded[:, 1:-1, 1:-1] = np.moveaxis(img, 2, 0)
    planes = padded.reshape(3, -1)

    shape = np.shape(xs)
    xs = np.asarray(xs, dtype=np.float64).ravel()
    ys = np.asarray(ys, dtype=np.float64).ravel()
    x0 = np.floor(xs)
    y0 = np.floor(ys)
    fx = xs - x0
    fy = ys - y0
    wx, wy = (1 - fx, fx), (1 - fy, fy)
    # padded column/row of each neighbor, clipped to [-1, w] x [-1, h] in
    # float so that far-out coordinates cannot overflow the integer cast
    cols = [(np.clip(x0 + d, -1, w) + 1).astype(np.intp) for d in (0, 1)]
    rows = [(np.clip(y0 + d, -1, h) + 1).astype(np.intp) * (w + 2) for d in (0, 1)]

    out = np.zeros((3, xs.size), dtype=np.float64)
    values = np.empty_like(out)
    for dx, dy in ((0, 0), (1, 0), (0, 1), (1, 1)):
        # indices are in range by construction; mode="clip" lets take write
        # into ``values`` without the buffer that mode="raise" needs
        planes.take(rows[dy] + cols[dx], axis=1, out=values, mode="clip")
        values *= wx[dx] * wy[dy]
        out += values
    return np.ascontiguousarray(out.T).reshape(shape + (3,))


def bilinear_sample(img: np.ndarray, x: float, y: float, fill) -> np.ndarray:
    """Single-point bilinear sample; see :func:`bilinear_sample_grid`."""
    return bilinear_sample_grid(
        img, np.array([x]), np.array([y]), np.asarray(fill)
    )[0]


def bilinear_resize(img: np.ndarray, out_w: int, out_h: int) -> np.ndarray:
    """Resize a byte image with corner-aligned bilinear resampling.

    A size-preserving call is the exact identity. Single-row or
    single-column outputs sample the source center along that axis.
    """
    img = ensure_u8(img)
    h, w = img.shape[:2]
    if out_w < 1 or out_h < 1:
        raise ValueError("output dimensions must be >= 1")
    if (out_w, out_h) == (w, h):
        return img.copy()
    if out_w > 1:
        xs = np.arange(out_w, dtype=np.float64) * ((w - 1) / (out_w - 1))
    else:
        xs = np.full(1, (w - 1) / 2.0)
    if out_h > 1:
        ys = np.arange(out_h, dtype=np.float64) * ((h - 1) / (out_h - 1))
    else:
        ys = np.full(1, (h - 1) / 2.0)
    grid_x, grid_y = np.meshgrid(xs, ys)
    sampled = bilinear_sample_grid(img, grid_x, grid_y, np.zeros(3))
    return u8_from_float(sampled)


def flip_x(img: np.ndarray) -> np.ndarray:
    """Mirror about the vertical axis (reverses columns); involution."""
    return np.flip(img, axis=1).copy()


def flip_y(img: np.ndarray) -> np.ndarray:
    """Mirror about the horizontal axis (reverses rows); involution."""
    return np.flip(img, axis=0).copy()
