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

import functools
import math
import operator
from dataclasses import dataclass, field, replace
from types import MappingProxyType

import numpy as np

from . import augment
from .imagecore import _first_line, _is_finite, _text_lines, ensure_u8
from .rng import SET_STEPS, RandomStream, derive_seed, prefetch, streams_per_pass
from .vegmask import DEFAULT_THETA

__all__ = [
    "PolicyError",
    "PolicyEntry",
    "Policy",
    "Plan",
    "PlanEntry",
    "AUGMENTATION_NAMES",
    "PARAMETERS",
    "DEFAULT_PROBABILITIES",
    "default_policy",
    "compile_policy",
    "ordered_plan",
    "apply_policy",
    "make_views",
    "view_pairs",
    "load_policy",
    "save_policy",
    "RandomStream",
    "derive_seed",
]

# Application probabilities, in the default order: background work first
# so color changes cannot corrupt the vegetation mask.
DEFAULT_PROBABILITIES = {
    "background_invariance": 0.8,
    "affine": 0.8,
    "mixing": 0.9,
    "gaussian_blur": 0.9,
    "color_jitter": 1.0,
    "random_erasing": 1.0,
}

# Each augmentation's parameters as (default, bounds), in the order the
# checks run. A tuple default is a range that a policy overrides through
# ``<key>_min`` / ``<key>_max``; an int default makes an integer key. The
# bounds map a comparison to its limit ("in" is an open interval) and hold
# for a value or for both ends of a range. They keep every kernel finite
# and non-singular at every value they admit, for an image of any size.
PARAMETERS = {
    "affine": {
        # det(scale * rotation * shear) = scale^2 * (1 - shear_x * shear_y),
        # and apply_affine rejects |det| < 1e-12, with det the product of
        # its LU pivots u11 * u22. scale >= 0.01 and |shear| <= 1 - 1e-8
        # give det >= 1e-4 * (1 - (1 - 1e-8)^2) = 1e-4 * 2e-8 = 2e-12; one
        # more 9 of shear (2e-13) or scale 0.005 (5e-13) is singular.
        # scale <= 100 keeps det <= 2e4
        "scale": (augment.SCALE_RANGE, {">": 0, ">=": 0.01, "<=": 100}),
        # a range's width must be finite for uniform() to draw from it;
        # within 1e6 a drawn angle keeps a resolution of about 1e-10
        "rotation": (augment.ROTATION_RANGE, {">=": -1e6, "<=": 1e6}),
        # |shear| <= 1 - 1e-8, derived with scale above
        "shear": (augment.SHEAR_RANGE, {">=": -0.99999999, "<=": 0.99999999}),
        # the inverse warp is at most 1e10 (scale 0.01, det 2e-12), so
        # source coordinates stay below 1e17 times the image width
        "translate_frac": (augment.TRANSLATE_FRAC, {">=": -1e6, "<=": 1e6}),
    },
    # the three factors multiply: a pixel stays below 1e22, and any sum of
    # those over an image is finite; hue is bounded as rotation is
    "color_jitter": {
        "brightness": (augment.BRIGHTNESS_RANGE, {">=": -1e6, "<=": 1e6}),
        "contrast": (augment.CONTRAST_RANGE, {">=": -1e6, "<=": 1e6}),
        "saturation": (augment.SATURATION_RANGE, {">=": -1e6, "<=": 1e6}),
        "hue": (augment.HUE_RANGE, {">=": -1e6, "<=": 1e6}),
    },
    # blur time and memory grow linearly with sigma; 32 is a radius of 96.
    # sigma >= 1e-150 keeps 2 sigma^2 a normal float, so its taps are finite
    "gaussian_blur": {"sigma": (augment.SIGMA_RANGE, {">": 0, ">=": 1e-150, "<=": 32})},
    "mixing": {},
    "random_erasing": {
        "area": (augment.ERASE_AREA_RANGE, {">": 0, "<=": 1}),
        # a rectangle's sides are sqrt(area * aspect) and sqrt(area / aspect)
        "aspect": (augment.ERASE_ASPECT_RANGE, {">": 0, ">=": 1e-6, "<=": 1e6}),
        "min_fraction": (augment.ERASE_MIN_FRACTION, {"in": (0, 0.5)}),
        "max_rects": (augment.ERASE_MAX_RECTS, {">=": 1}),
    },
    "background_invariance": {},
}
AUGMENTATION_NAMES = tuple(PARAMETERS)


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
    entries = [PolicyEntry(name, p) for name, p in DEFAULT_PROBABILITIES.items()]
    return Policy(entries=entries, master_seed=master_seed)


def _override_defaults(name: str) -> dict:
    """Each key a policy entry of ``name`` may set, with its default; none
    for an unknown name."""
    defaults = {}
    for key, (default, _) in PARAMETERS.get(name, {}).items():
        if isinstance(default, tuple):
            defaults[f"{key}_min"], defaults[f"{key}_max"] = default
        else:
            defaults[key] = default
    return defaults


_COMPARE = {
    ">": operator.gt,
    ">=": operator.ge,
    "<=": operator.le,
    "in": lambda value, interval: interval[0] < value < interval[1],
}


def _entry_values(entry: PolicyEntry, where: str = "") -> dict:
    """Check ``entry`` and return each parameter of its augmentation, with
    the overrides merged, as its ``augment`` keyword: a range ``<key>`` is a
    ``(lo, hi)`` tuple named ``<key>_range``. Overrides are known and finite,
    merged ranges are ordered, and both ends of a range, or a single value,
    keep the bounds of their parameter."""
    if entry.name not in AUGMENTATION_NAMES:
        raise PolicyError(f"unknown augmentation {entry.name!r}{where}")
    if not 0.0 <= entry.probability <= 1.0:
        raise PolicyError(f"probability {entry.probability} out of range [0, 1]{where}")
    for key, value in entry.params.items():
        if key not in _override_defaults(entry.name):
            raise PolicyError(f"unknown parameter {key!r} for {entry.name}{where}")
        if not _is_finite(value):
            raise PolicyError(f"{key}={value} is not finite{where}")
    # non-integers as the Python floats they save as; numpy compares a float32 in float32
    params = {k: v if isinstance(v, (int, np.integer)) else float(v) for k, v in entry.params.items()}
    values = {}
    for key, (default, bounds) in PARAMETERS[entry.name].items():
        if isinstance(default, tuple):
            lo = params.get(f"{key}_min", default[0])
            hi = params.get(f"{key}_max", default[1])
            if lo > hi:
                raise PolicyError(f"{key}_min={lo} exceeds {key}_max={hi}{where}")
            values[f"{key}_range"] = (lo, hi)
            ends = (("_min", lo), ("_max", hi))
        else:
            value = params.get(key, default)
            if isinstance(default, int) and value != int(value):
                raise PolicyError(f"{key}={value} is not an integer{where}")
            values[key] = int(value) if isinstance(default, int) else value
            ends = (("", value),)
        for suffix, value in ends:
            for symbol, limit in bounds.items():
                if not _COMPARE[symbol](value, limit):
                    raise PolicyError(f"{key}{suffix}={value} must be {symbol} {limit}{where}")
    return values


@dataclass(frozen=True)
class PlanEntry:
    name: str
    probability: float
    keywords: MappingProxyType  # the merged parameters, see _entry_values

    def __reduce__(self):
        # a mappingproxy does not pickle, and pool workers that are not
        # forked receive their plans pickled
        return _plan_entry, (self.name, self.probability, dict(self.keywords))


def _plan_entry(name: str, probability: float, keywords: dict) -> PlanEntry:
    return PlanEntry(name, probability, MappingProxyType(keywords))


@dataclass(frozen=True)
class Plan:
    """A validated policy with each entry's parameters merged, ready to
    apply to any number of views; ``needs_bank`` is computed from the
    entries, true when background invariance is one."""

    entries: tuple[PlanEntry, ...]
    master_seed: int
    theta: float
    soil_bank_path: str
    needs_bank: bool = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "needs_bank",
                           any(e.name == "background_invariance" for e in self.entries))


def compile_policy(policy: Policy | Plan) -> Plan:
    """Validate ``policy`` and merge its overrides into a frozen plan; a
    plan is returned as it is."""
    if isinstance(policy, Plan):
        return policy
    entries = tuple(
        _plan_entry(e.name, e.probability, values)
        for e, values in zip(policy.entries, validate_policy(policy))
    )
    return Plan(entries, int(policy.master_seed), policy.theta, policy.soil_bank_path)


def ordered_plan(plan: Plan, names) -> Plan:
    """The plan that runs ``names`` in order, each always, with the keywords
    ``plan`` holds for it, or else its defaults; an unknown or repeated name
    fails as it does in a policy."""
    cell = compile_policy(Policy([PolicyEntry(name, 1.0) for name in names],
                                 plan.master_seed, plan.theta, plan.soil_bank_path))
    keywords = {e.name: e.keywords for e in plan.entries}
    entries = tuple(PlanEntry(e.name, 1.0, keywords.get(e.name, e.keywords)) for e in cell.entries)
    return replace(cell, entries=entries)


def validate_policy(policy: Policy, lines: dict | None = None) -> list[dict]:
    """Check ``policy``; return each entry's merged parameters. ``lines``
    maps ``"seed"``, ``"theta"`` and each entry's index to the line of the
    text it was loaded from, and an error names that line."""
    where = {key: f" (line {line_no})" for key, line_no in (lines or {}).items()}
    seen = set()
    merged = []
    for index, entry in enumerate(policy.entries):
        if entry.name in seen:
            raise PolicyError(f"duplicate augmentation {entry.name!r}{where.get(index, '')}")
        seen.add(entry.name)
        merged.append(_entry_values(entry, where.get(index, "")))
    if not _is_finite(policy.theta):
        raise PolicyError(f"theta={policy.theta} is not finite{where.get('theta', '')}")
    path = policy.soil_bank_path
    if path and (path.splitlines() != [path] or path != path.strip()):
        raise PolicyError(f"soil_bank {path!r} has a line break or surrounding whitespace")
    if not isinstance(policy.master_seed, (int, np.integer)):
        raise PolicyError(f"seed {policy.master_seed!r} is not an integer{where.get('seed', '')}")
    if not 0 <= policy.master_seed < 2 ** 64:
        raise PolicyError(f"seed {policy.master_seed} out of u64 range{where.get('seed', '')}")
    return merged


# ---------------------------------------------------------------------------
# application
# ---------------------------------------------------------------------------


def _apply_affine(img, rng, keywords, theta, bank, mask):
    h, w = img.shape[:2]
    return augment.apply_affine(img, augment.sample_affine(rng, w, h, **keywords))


def _apply_color_jitter(img, rng, keywords, theta, bank, mask):
    return augment.color_jitter(img, augment.sample_color_jitter(rng, **keywords))


def _apply_gaussian_blur(img, rng, keywords, theta, bank, mask):
    sigma = rng.uniform(*keywords["sigma_range"])
    return augment.gaussian_blur(img, sigma)


def _apply_mixing(img, rng, keywords, theta, bank, mask):
    return augment.mixing(img, rng)


def _apply_random_erasing(img, rng, keywords, theta, bank, mask):
    return augment.random_erasing(img, rng, **keywords)


def _apply_background_invariance(img, rng, keywords, theta, bank, mask):
    return augment.background_invariance(img, bank, rng, theta, mask=mask and mask())


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
    policy: Policy | Plan,
    stream: RandomStream,
    soil_bank: augment.SoilBank | None = None,
    source_mask=None,
) -> np.ndarray:
    """Run the policy's entries in order against one image.

    Each entry consumes one gate draw; entries whose gate fires then draw
    their parameters from the same stream and transform the image. A
    :class:`Policy` is compiled (and so validated) on every call; callers
    that apply one policy many times pass its :class:`Plan`.
    ``source_mask``, when given, returns the refined vegetation mask of
    ``img``; an entry that fires before any other has changed the image
    receives it, and background invariance uses it.
    ``apply_policy`` prefetches nothing, so on a fresh stream each erasing
    rectangle of 320 or more fill draws makes its own lane pass, and a view
    through :func:`view_pairs`, which prefetches, is faster.
    """
    plan, img = compile_policy(policy), ensure_u8(img)
    if plan.needs_bank and (soil_bank is None or len(soil_bank) == 0):
        raise PolicyError(
            "policy contains background_invariance but no soil bank is loaded"
        )
    source = img
    for entry in plan.entries:
        gate = stream.next_float64()
        if gate < entry.probability:
            mask = source_mask if img is source else None
            img = _APPLIERS[entry.name](img, stream, entry.keywords, plan.theta, soil_bank, mask)
    return img


# Draws prefetched per pixel of a view stream's image: mixing makes one draw per
# pixel, and erasing three fill draws per erased pixel at 10-18% coverage. Plans
# without them draw a few values per view, fewer than a lane pass would save.
PREFETCH_PER_PIXEL = 1.5


def view_pairs(images, policy: Policy | Plan, indices,
               soil_bank: augment.SoilBank | None = None) -> list[tuple[np.ndarray, np.ndarray]]:
    """:func:`make_views` of each ``images[k]`` as image ``indices[k]``. When mixing or
    random erasing can fire, each view stream prefetches PREFETCH_PER_PIXEL draws per pixel
    of its image, in whole lanes. The images go in sets of one prefetch size, as many as
    share one lane pass (one image from 74 px on); a set's streams are made, dropping the
    last set's, then prefetched, so one set's read-ahead is alive at a time."""
    plan, images, indices = compile_policy(policy), [ensure_u8(img) for img in images], list(indices)
    rate = PREFETCH_PER_PIXEL if any(
        e.name in ("mixing", "random_erasing") and e.probability for e in plan.entries) else 0
    by_draws: dict[int, list[int]] = {}
    for k, (img, _) in enumerate(zip(images, indices, strict=True)):
        draws = math.ceil(rate * img.shape[0] * img.shape[1] / SET_STEPS) * SET_STEPS
        by_draws.setdefault(draws, []).append(k)
    pairs = [None] * len(images)
    for draws, ks in by_draws.items():
        per_set = max(1, streams_per_pass(draws) // 2)
        for chunk in (ks[start:start + per_set] for start in range(0, len(ks), per_set)):
            streams = [RandomStream(derive_seed(plan.master_seed, 2 * indices[k] + v))
                       for k in chunk for v in (0, 1)]
            if draws:
                prefetch(streams, draws)
            for j, k in enumerate(chunk):
                pairs[k] = make_views(images[k], plan, indices[k], soil_bank, streams[2 * j:2 * j + 2])
    return pairs


def make_views(
    img: np.ndarray,
    policy: Policy | Plan,
    image_index: int,
    soil_bank: augment.SoilBank | None = None,
    streams: list[RandomStream] | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Produce the two views for one image, view k from ``streams[k]`` of two distinct
    streams; without ``streams``, the one pair of :func:`view_pairs` of ``img``. Both
    views share one refined vegetation mask of ``img``, computed when first needed."""
    if streams is None:
        return view_pairs([img], policy, [image_index], soil_bank)[0]
    if len(streams) != 2 or streams[0] is streams[1]:
        raise ValueError("make_views needs two distinct streams, one per view")
    plan = compile_policy(policy)
    source_mask = functools.cache(lambda: augment.refined_vegetation_mask(img, plan.theta))
    return tuple(apply_policy(img, plan, stream, soil_bank=soil_bank, source_mask=source_mask)
                 for stream in streams)


# ---------------------------------------------------------------------------
# text format
# ---------------------------------------------------------------------------

# each header key's Policy attribute and parser
_HEADER = {"seed": ("master_seed", int), "theta": ("theta", float),
           "soil_bank": ("soil_bank_path", str)}


def load_policy(text: str | bytes) -> Policy:
    """Parse policy text and check it; each error names its line."""
    policy = Policy(entries=[])
    lines: dict = {}  # each header key and entry index -> its line
    for line_no, line in _text_lines(text, PolicyError):
        key, sep, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if sep and key in _HEADER:
            _first_line(lines, key, line_no, PolicyError)
            attr, parse = _HEADER[key]
            try:
                setattr(policy, attr, parse(value))
            except ValueError:
                raise PolicyError(f"invalid {key} {value!r} (line {line_no})") from None
            continue
        tokens = line.split()
        if len(tokens) < 2:
            raise PolicyError(f"malformed entry line (line {line_no}): {line!r}")
        try:
            probability = float(tokens[1])
        except ValueError:
            raise PolicyError(f"invalid probability {tokens[1]!r} (line {line_no})") from None
        params: dict = {}
        for token in tokens[2:]:
            key, sep, value = token.partition("=")
            if not sep:
                raise PolicyError(f"expected key=value, got {token!r} (line {line_no})")
            integer = isinstance(_override_defaults(tokens[0]).get(key), int)
            try:
                params[key] = int(value) if integer else float(value)
            except ValueError:
                kind = "integer" if integer else "number"
                raise PolicyError(f"invalid {kind} for {key}: {value!r} (line {line_no})") from None
        lines[len(policy.entries)] = line_no
        policy.entries.append(PolicyEntry(tokens[0], probability, params))
    validate_policy(policy, lines)
    return policy


def save_policy(policy: Policy) -> str:
    """Canonical text form; load(save(p)) == p whenever probabilities are
    already 3-decimal values."""
    merged = validate_policy(policy)
    lines = [f"seed={int(policy.master_seed)}", f"theta={float(policy.theta)!r}"]
    if policy.soil_bank_path:
        lines.append(f"soil_bank={policy.soil_bank_path}")
    for entry, values in zip(policy.entries, merged):
        parts = [entry.name, f"{entry.probability:.3f}"]
        for key in sorted(entry.params):
            # an integer key as merged, so that 2.0 is written as 2, and any
            # other as a Python float, so that np.float64(0.5) is written as 0.5
            value = values.get(key, entry.params[key])
            parts.append(f"{key}={value}" if type(value) is int else f"{key}={float(value)!r}")
        lines.append(" ".join(parts))
    return "\n".join(lines) + "\n"
