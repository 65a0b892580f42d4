"""Ordered, probabilistic augmentation policies with seeded randomness.

A policy is an ordered list of (augmentation, probability, overrides)
entries plus a master seed. Each image view gets its own stream derived
from the master seed and the image index, so outputs are independent of
worker count and processing order.

Within a view's stream the draw discipline is: one gate draw per entry,
always consumed regardless of outcome; parameter draws follow immediately
after a gate that fires. Toggling an entry's probability to 0 therefore
reproduces exactly the runs in which that entry did not fire.

Policy files are line-oriented text::

    # comment lines and blank lines are ignored
    seed=42
    theta=0.0
    soil_bank=path/to/bank
    background_invariance 0.800
    affine 0.800 scale_min=0.5 scale_max=2.0
    ...

Entry lines are ``<name> <probability> [key=value ...]``. Canonical
serialization keeps entry order, prints probabilities with 3 decimals,
and sorts override keys.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import augment
from .rng import RandomStream, derive_seed
from .vegmask import DEFAULT_THETA

__all__ = [
    "PolicyError",
    "PolicyEntry",
    "Policy",
    "AUGMENTATION_NAMES",
    "DEFAULT_PROBABILITIES",
    "default_policy",
    "apply_policy",
    "make_views",
    "load_policy",
    "save_policy",
    "RandomStream",
    "derive_seed",
]

AUGMENTATION_NAMES = (
    "affine",
    "color_jitter",
    "gaussian_blur",
    "mixing",
    "random_erasing",
    "background_invariance",
)

# Application probabilities, and the default order below: background work
# first so color changes cannot corrupt the vegetation mask.
DEFAULT_PROBABILITIES = {
    "color_jitter": 1.0,
    "random_erasing": 1.0,
    "gaussian_blur": 0.9,
    "mixing": 0.9,
    "background_invariance": 0.8,
    "affine": 0.8,
}

DEFAULT_ORDER = (
    "background_invariance",
    "affine",
    "mixing",
    "gaussian_blur",
    "color_jitter",
    "random_erasing",
)

# Sampled ranges per augmentation: key prefix and default range. A policy
# may override either end through ``<prefix>_min`` / ``<prefix>_max``; the
# validator checks the merged range.
_RANGES = {
    "affine": (
        ("scale", augment.SCALE_RANGE), ("rotation", augment.ROTATION_RANGE),
        ("shear", augment.SHEAR_RANGE),
    ),
    "color_jitter": (
        ("brightness", augment.BRIGHTNESS_RANGE), ("contrast", augment.CONTRAST_RANGE),
        ("saturation", augment.SATURATION_RANGE), ("hue", augment.HUE_RANGE),
    ),
    "gaussian_blur": (("sigma", augment.SIGMA_RANGE),),
    "random_erasing": (
        ("area", augment.ERASE_AREA_RANGE), ("aspect", augment.ERASE_ASPECT_RANGE),
    ),
}
_POSITIVE_RANGES = ("scale", "sigma", "area", "aspect")
_SCALAR_KEYS = {"affine": ("translate_frac",), "random_erasing": ("min_fraction",)}
_FLOAT_KEYS = {
    name: tuple(
        f"{prefix}_{end}" for prefix, _ in _RANGES.get(name, ()) for end in ("min", "max")
    ) + _SCALAR_KEYS.get(name, ())
    for name in AUGMENTATION_NAMES
}
_INT_KEYS = {"random_erasing": ("max_rects",)}


class PolicyError(ValueError):
    """Bad policy text or configuration; parse errors carry line numbers."""


@dataclass
class PolicyEntry:
    name: str
    probability: float
    params: dict = field(default_factory=dict)


@dataclass
class Policy:
    entries: list[PolicyEntry]
    master_seed: int = 0
    theta: float = DEFAULT_THETA
    soil_bank_path: str = ""


def default_policy(master_seed: int = 0) -> Policy:
    entries = [PolicyEntry(name, DEFAULT_PROBABILITIES[name]) for name in DEFAULT_ORDER]
    return Policy(entries=entries, master_seed=master_seed)


def _validate_entry(entry: PolicyEntry, line_no: int | None = None) -> None:
    where = f" (line {line_no})" if line_no is not None else ""
    if entry.name not in AUGMENTATION_NAMES:
        raise PolicyError(f"unknown augmentation {entry.name!r}{where}")
    if not 0.0 <= entry.probability <= 1.0:
        raise PolicyError(
            f"probability {entry.probability} out of range [0, 1]{where}"
        )
    allowed = set(_FLOAT_KEYS[entry.name]) | set(_INT_KEYS.get(entry.name, ()))
    for key in entry.params:
        if key not in allowed:
            raise PolicyError(f"unknown parameter {key!r} for {entry.name}{where}")
    if entry.params:  # the defaults pass every check
        _check_params(entry.name, entry.params, where)


def _check_params(name: str, params: dict, where: str) -> None:
    """Overrides are finite, merged ranges are ordered, sigma, scale,
    area and aspect are positive, the erase area is at most 1, and the
    erasing budget is usable."""
    for key, value in params.items():
        if not math.isfinite(value):
            raise PolicyError(f"{key}={value} is not finite{where}")
    for prefix, default in _RANGES.get(name, ()):
        lo, hi = _range(params, f"{prefix}_min", f"{prefix}_max", default)
        if lo > hi:
            raise PolicyError(f"{prefix}_min={lo} exceeds {prefix}_max={hi}{where}")
        if prefix in _POSITIVE_RANGES and lo <= 0:
            raise PolicyError(f"{prefix}_min={lo} must be > 0{where}")
    if name == "random_erasing":
        if params.get("area_max", augment.ERASE_AREA_RANGE[1]) > 1:
            raise PolicyError(f"area_max={params['area_max']} must be <= 1{where}")
        if not 0 < params.get("min_fraction", augment.ERASE_MIN_FRACTION) < 0.5:
            raise PolicyError(f"min_fraction={params['min_fraction']} must be in (0, 0.5){where}")
        if params.get("max_rects", augment.ERASE_MAX_RECTS) < 1:
            raise PolicyError(f"max_rects={params['max_rects']} must be >= 1{where}")


def validate_policy(policy: Policy) -> None:
    seen = set()
    for entry in policy.entries:
        if entry.name in seen:
            raise PolicyError(f"duplicate augmentation {entry.name!r}")
        seen.add(entry.name)
        _validate_entry(entry)
    if not math.isfinite(policy.theta):
        raise PolicyError(f"theta={policy.theta} is not finite")
    if not 0 <= policy.master_seed < 2 ** 64:
        raise PolicyError(f"seed {policy.master_seed} out of u64 range")


# ---------------------------------------------------------------------------
# application
# ---------------------------------------------------------------------------

def _range(params: dict, lo_key: str, hi_key: str, default: tuple[float, float]):
    return (params.get(lo_key, default[0]), params.get(hi_key, default[1]))


def _apply_affine(img, rng, params, theta, bank):
    h, w = img.shape[:2]
    p = augment.sample_affine(
        rng, w, h,
        scale_range=_range(params, "scale_min", "scale_max", augment.SCALE_RANGE),
        rotation_range=_range(params, "rotation_min", "rotation_max", augment.ROTATION_RANGE),
        shear_range=_range(params, "shear_min", "shear_max", augment.SHEAR_RANGE),
        translate_frac=params.get("translate_frac", augment.TRANSLATE_FRAC),
    )
    return augment.apply_affine(img, p)


def _apply_color_jitter(img, rng, params, theta, bank):
    p = augment.sample_color_jitter(
        rng,
        brightness_range=_range(params, "brightness_min", "brightness_max", augment.BRIGHTNESS_RANGE),
        contrast_range=_range(params, "contrast_min", "contrast_max", augment.CONTRAST_RANGE),
        saturation_range=_range(params, "saturation_min", "saturation_max", augment.SATURATION_RANGE),
        hue_range=_range(params, "hue_min", "hue_max", augment.HUE_RANGE),
    )
    return augment.color_jitter(img, p)


def _apply_gaussian_blur(img, rng, params, theta, bank):
    sigma = rng.uniform(*_range(params, "sigma_min", "sigma_max", augment.SIGMA_RANGE))
    return augment.gaussian_blur(img, sigma)


def _apply_mixing(img, rng, params, theta, bank):
    return augment.mixing(img, rng)


def _apply_random_erasing(img, rng, params, theta, bank):
    return augment.random_erasing(
        img, rng,
        min_fraction=params.get("min_fraction", augment.ERASE_MIN_FRACTION),
        area_range=_range(params, "area_min", "area_max", augment.ERASE_AREA_RANGE),
        aspect_range=_range(params, "aspect_min", "aspect_max", augment.ERASE_ASPECT_RANGE),
        max_rects=int(params.get("max_rects", augment.ERASE_MAX_RECTS)),
    )


def _apply_background_invariance(img, rng, params, theta, bank):
    return augment.background_invariance(img, bank, rng, theta)


_APPLIERS = {
    "affine": _apply_affine,
    "color_jitter": _apply_color_jitter,
    "gaussian_blur": _apply_gaussian_blur,
    "mixing": _apply_mixing,
    "random_erasing": _apply_random_erasing,
    "background_invariance": _apply_background_invariance,
}


def apply_policy(
    img: np.ndarray,
    policy: Policy,
    stream: RandomStream,
    soil_bank: augment.SoilBank | None = None,
) -> np.ndarray:
    """Run the policy's entries in order against one image.

    Each entry consumes one gate draw; entries whose gate fires then draw
    their parameters from the same stream and transform the image.
    """
    validate_policy(policy)
    needs_bank = any(e.name == "background_invariance" for e in policy.entries)
    if needs_bank and (soil_bank is None or len(soil_bank) == 0):
        raise PolicyError(
            "policy contains background_invariance but no soil bank is loaded"
        )
    for entry in policy.entries:
        gate = stream.next_float64()
        if gate < entry.probability:
            img = _APPLIERS[entry.name](img, stream, entry.params, policy.theta, soil_bank)
    return img


def make_views(
    img: np.ndarray,
    policy: Policy,
    image_index: int,
    soil_bank: augment.SoilBank | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Produce the two views for one image. View k uses the stream seeded
    with derive(master_seed, 2 * image_index + k)."""
    views = []
    for k in (0, 1):
        stream = RandomStream(derive_seed(policy.master_seed, 2 * image_index + k))
        views.append(apply_policy(img, policy, stream, soil_bank=soil_bank))
    return views[0], views[1]


# ---------------------------------------------------------------------------
# text format
# ---------------------------------------------------------------------------

def load_policy(text: str | bytes) -> Policy:
    if isinstance(text, bytes):
        text = text.decode("utf-8")
    policy = Policy(entries=[])
    seen = set()
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith(("seed=", "theta=", "soil_bank=")):
            key, _, value = line.partition("=")
            if key == "seed":
                try:
                    seed = int(value)
                except ValueError:
                    raise PolicyError(f"invalid seed {value!r} (line {line_no})") from None
                if not 0 <= seed < 2 ** 64:
                    raise PolicyError(f"seed out of u64 range (line {line_no})")
                policy.master_seed = seed
            elif key == "theta":
                try:
                    policy.theta = float(value)
                except ValueError:
                    raise PolicyError(f"invalid theta {value!r} (line {line_no})") from None
                if not math.isfinite(policy.theta):
                    raise PolicyError(f"theta={value} is not finite (line {line_no})")
            else:
                policy.soil_bank_path = value.strip()
            continue
        tokens = line.split()
        if len(tokens) < 2:
            raise PolicyError(f"malformed entry line (line {line_no}): {raw!r}")
        name = tokens[0]
        if name not in AUGMENTATION_NAMES:
            raise PolicyError(f"unknown augmentation {name!r} (line {line_no})")
        if name in seen:
            raise PolicyError(f"duplicate augmentation {name!r} (line {line_no})")
        seen.add(name)
        try:
            probability = float(tokens[1])
        except ValueError:
            raise PolicyError(
                f"invalid probability {tokens[1]!r} (line {line_no})"
            ) from None
        params: dict = {}
        for token in tokens[2:]:
            key, sep, value = token.partition("=")
            if not sep:
                raise PolicyError(f"expected key=value, got {token!r} (line {line_no})")
            if key in _INT_KEYS.get(name, ()):
                try:
                    params[key] = int(value)
                except ValueError:
                    raise PolicyError(
                        f"invalid integer for {key}: {value!r} (line {line_no})"
                    ) from None
            else:
                try:
                    params[key] = float(value)
                except ValueError:
                    raise PolicyError(
                        f"invalid number for {key}: {value!r} (line {line_no})"
                    ) from None
        entry = PolicyEntry(name=name, probability=probability, params=params)
        _validate_entry(entry, line_no)
        policy.entries.append(entry)
    validate_policy(policy)
    return policy


def save_policy(policy: Policy) -> str:
    """Canonical text form; load(save(p)) == p whenever probabilities are
    already 3-decimal values."""
    validate_policy(policy)
    lines = [f"seed={policy.master_seed}", f"theta={policy.theta!r}"]
    if policy.soil_bank_path:
        lines.append(f"soil_bank={policy.soil_bank_path}")
    for entry in policy.entries:
        parts = [entry.name, f"{entry.probability:.3f}"]
        for key in sorted(entry.params):
            value = entry.params[key]
            parts.append(f"{key}={value!r}" if isinstance(value, float) else f"{key}={value}")
        lines.append(" ".join(parts))
    return "\n".join(lines) + "\n"
