"""Redundancy-reduction objective on paired embeddings.

Two embedding batches are normalized per dimension over the batch, their
cross-correlation matrix is formed, and the loss pushes that matrix
toward the identity: the diagonal term rewards invariance across views,
the off-diagonal term (weighted by lambda) decorrelates dimensions.

Numeric conventions pinned here so independent implementations agree:
population (biased) std, epsilon 1e-5 added to the std (not variance),
loss reduced by plain sums.
"""

from __future__ import annotations

import numpy as np

from .imagecore import _is_finite

__all__ = [
    "BN_EPS",
    "DEFAULT_LAMBDA",
    "batch_normalize",
    "cross_correlation",
    "bt_loss",
    "bt_loss_grad",
    "finite_diff_check",
    "diag_mean",
    "offdiag_mean_abs",
]

BN_EPS = 1e-5
DEFAULT_LAMBDA = 5e-3
CORR_BOUND_EPS = 1e-6


def _as_batch(z: np.ndarray) -> np.ndarray:
    z = np.asarray(z, dtype=np.float64)
    if z.ndim != 2:
        raise ValueError(f"expected (n, d) batch, got shape {z.shape}")
    if z.shape[0] < 2:
        raise ValueError("batch statistics need n >= 2")
    if not np.all(np.isfinite(z)):
        raise ValueError("batch contains non-finite values")
    return z


def _normalize_cache(z: np.ndarray):
    mean = z.mean(axis=0)
    sigma = z.std(axis=0)  # population std
    denom = sigma + BN_EPS
    return (z - mean) / denom, mean, sigma, denom


def _normalize_backward(g: np.ndarray, y: np.ndarray, sigma: np.ndarray, denom: np.ndarray) -> np.ndarray:
    """Backprop dL/dy -> dL/dz through column standardization.

    dL/dz = (g - mean(g)) / (sigma + eps) - y * mean(g * y) / sigma.
    The asymmetry (denominator derivative carries 1/sigma, not 1/denom)
    comes from eps being added to sigma. Constant columns get the
    subgradient 0 for the sigma term.
    """
    gy_mean = (g * y).mean(axis=0)
    sigma_term = np.where(sigma > 0.0, gy_mean / np.where(sigma > 0.0, sigma, 1.0), 0.0)
    return (g - g.mean(axis=0)) / denom - y * sigma_term


def batch_normalize(z: np.ndarray) -> np.ndarray:
    """Per dimension over the batch: (z - mean) / (population std + 1e-5)."""
    z = _as_batch(z)
    normalized, _, _, _ = _normalize_cache(z)
    return normalized


def cross_correlation(z1n: np.ndarray, z2n: np.ndarray) -> np.ndarray:
    """C = Z1n^T Z2n / n for batch-normalized inputs of equal shape."""
    z1n = _as_batch(z1n)
    z2n = _as_batch(z2n)
    if z1n.shape != z2n.shape:
        raise ValueError(f"shape mismatch: {z1n.shape} vs {z2n.shape}")
    c = z1n.T @ z2n / z1n.shape[0]
    bound = 1.0 + CORR_BOUND_EPS
    if np.abs(c).max() > bound:
        raise ValueError(
            "correlation entries exceed [-1, 1]; inputs must be batch-normalized"
        )
    return c


def bt_loss(c: np.ndarray, lam: float = DEFAULT_LAMBDA) -> float:
    """sum_i (1 - C_ii)^2 + lambda * sum_{i != j} C_ij^2."""
    c = np.asarray(c, dtype=np.float64)
    if c.ndim != 2 or c.shape[0] != c.shape[1]:
        raise ValueError(f"expected square matrix, got shape {c.shape}")
    if not (_is_finite(lam) and lam > 0):
        raise ValueError(f"lambda must be positive and finite, got {lam}")
    diag = np.diag(c)
    return float(((1.0 - diag) ** 2).sum() + lam * ((c - np.diag(diag)) ** 2).sum())


def _bt_core(z1: np.ndarray, z2: np.ndarray, lam: float):
    """Loss (:func:`bt_loss` of C) and gradient of normalize -> cross-correlation
    -> loss for unchecked float64 batches of equal shape. Returns (loss, dZ1, dZ2, C)."""
    n = z1.shape[0]
    y1, _, sigma1, denom1 = _normalize_cache(z1)
    y2, _, sigma2, denom2 = _normalize_cache(z2)
    c = y1.T @ y2 / n
    loss = bt_loss(c, lam)  # checks lam before the gradient uses it
    g_c = 2.0 * lam * c
    np.fill_diagonal(g_c, -2.0 * (1.0 - np.diag(c)))
    gz1 = _normalize_backward(y2 @ g_c.T / n, y1, sigma1, denom1)
    gz2 = _normalize_backward(y1 @ g_c / n, y2, sigma2, denom2)
    return loss, gz1, gz2, c


def bt_loss_grad(
    z1: np.ndarray, z2: np.ndarray, lam: float = DEFAULT_LAMBDA
) -> tuple[np.ndarray, np.ndarray, float]:
    """Analytic gradient of the full chain normalize -> cross-correlation
    -> loss with respect to the raw batches. Returns (dZ1, dZ2, loss)."""
    z1 = _as_batch(z1)
    z2 = _as_batch(z2)
    if z1.shape != z2.shape:
        raise ValueError(f"shape mismatch: {z1.shape} vs {z2.shape}")
    loss, g1, g2, _ = _bt_core(z1, z2, lam)
    return g1, g2, loss


def _max_fd_error(flat, grad, indices, loss_at, h, floor) -> float:
    """Max over ``indices`` of |grad[i] - fd| / max(|grad[i]|, |fd|, floor),
    where fd is the central difference of ``loss_at()`` as ``flat[i]`` is
    moved by +-h in place (and restored)."""
    worst = 0.0
    for i in indices:
        orig = flat[i]
        flat[i] = orig + h
        up = loss_at()
        flat[i] = orig - h
        down = loss_at()
        flat[i] = orig
        fd = (up - down) / (2.0 * h)
        err = abs(grad[i] - fd) / max(abs(grad[i]), abs(fd), floor)
        worst = max(worst, err)
    return worst


def finite_diff_check(
    z1: np.ndarray, z2: np.ndarray, lam: float = DEFAULT_LAMBDA, h: float = 1e-4
) -> float:
    """Max relative error between the analytic gradient and central finite
    differences, denominator max(|analytic|, |fd|, 1e-8). Reported as
    measured, coarse h included."""
    if not (_is_finite(h) and h > 0):
        raise ValueError(f"h must be positive and finite, got {h}")
    z1 = _as_batch(z1).copy()
    z2 = _as_batch(z2).copy()
    g1, g2, _ = bt_loss_grad(z1, z2, lam)

    def loss_at():
        return bt_loss_grad(z1, z2, lam)[2]

    return max(_max_fd_error(z.reshape(-1), g.reshape(-1), range(z.size), loss_at, h, 1e-8)
               for z, g in ((z1, g1), (z2, g2)))


def diag_mean(c: np.ndarray) -> float:
    return float(np.diag(c).mean())


def offdiag_mean_abs(c: np.ndarray) -> float:
    c = np.asarray(c, dtype=np.float64)
    d = c.shape[0]
    if d < 2:
        return 0.0
    off = np.abs(c - np.diag(np.diag(c)))
    return float(off.sum() / (d * (d - 1)))
