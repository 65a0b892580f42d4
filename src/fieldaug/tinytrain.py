"""Desk-scale self-supervised pretraining loop.

A tiny MLP encoder stands in for a large convolutional backbone; the
projector keeps the reference structure (two linear+batchnorm+ReLU blocks
followed by a linear layer). One layer table, ``_LAYERS``, drives the
parameter layout and the hand-written forward and backward passes over a
single flat float64 parameter vector, so the whole composite gradient can
be checked against finite differences. Training bytes are the same for
the same inputs on one OpenBLAS kernel; the products of forward, backward
and the loss differ in their last bits between kernels (README's
determinism model).

Parameter vector layout, in order, each tensor row-major:

    enc1_w (64 x in_dim), enc1_b (64),
    enc2_w (32 x 64),     enc2_b (32),
    proj1_w (32 x 32), proj1_b (32), proj1_gamma (32), proj1_beta (32),
    proj2_w (32 x 32), proj2_b (32), proj2_gamma (32), proj2_beta (32),
    out_w (D x 32), out_b (D)

with in_dim = input_size * input_size * 3. Linear layers compute
``x @ W.T + b``. Batch norm layers share the loss-side convention
(population std, epsilon added to the std) and keep running mean/std
buffers (EMA, momentum 0.1) outside the parameter vector, in the order
proj1 mean, proj1 std, proj2 mean, proj2 std.
"""

from __future__ import annotations

import itertools
import math
import struct
from dataclasses import dataclass, fields, replace

import numpy as np

from . import twins
from .imagecore import _first_line, _text_lines, bilinear_resize, ensure_u8
from .policy import Plan, Policy, compile_policy, view_pairs
from .augment import SoilBank
from .rng import RandomStream, below_many_many, derive_seed, streams_per_pass

__all__ = [
    "ENC_HIDDEN",
    "ENC_OUT",
    "PROJ_HIDDEN",
    "BN_MOMENTUM",
    "TrainConfig",
    "TinyModel",
    "Checkpoint",
    "CheckpointError",
    "TrainingDiverged",
    "init_model",
    "prepare_batch",
    "view_batches",
    "forward",
    "backward",
    "train_step",
    "pretrain",
    "probe_cross_corr",
    "make_checkpoint",
    "model_from_checkpoint",
    "save_checkpoint",
    "load_checkpoint",
    "model_grad_check",
    "make_synthetic_corpus",
    "make_synthetic_soil",
    "load_train_config",
]

ENC_HIDDEN = 64
ENC_OUT = 32
PROJ_HIDDEN = 32
BN_MOMENTUM = 0.1

CHECKPOINT_MAGIC = b"BTCK"
CHECKPOINT_VERSION = 1


@dataclass
class TrainConfig:
    """Desk-scale defaults; the reference setup's batch 128 / 250 epochs
    shrink to something a CPU finishes in seconds, and plain SGD on the
    tiny MLP wants a much larger learning rate than a full-scale run."""

    batch_size: int = 32
    learning_rate: float = 0.05
    weight_decay: float = 1e-6
    epochs: int = 25
    lam: float = twins.DEFAULT_LAMBDA
    seed: int = 0
    embed_dim: int = 8
    input_size: int = 16
    max_steps: int | None = None

    def validate(self) -> None:
        for name in ("batch_size", "learning_rate", "weight_decay", "epochs",
                     "lam", "embed_dim", "input_size"):
            value = getattr(self, name)
            # ints are finite, and isfinite overflows on those beyond float range
            if value is None or not isinstance(value, int) and not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
            if value <= 0 and not (name == "weight_decay" and value == 0):
                raise ValueError(f"{name} must be positive, got {value}")
        if self.batch_size < 2:
            raise ValueError("batch_size must be >= 2 for batch statistics")
        if self.max_steps is not None and self.max_steps <= 0:
            raise ValueError("max_steps must be positive when set")
        if not 0 <= self.seed < 2 ** 64:
            raise ValueError(f"seed must be in [0, 2**64), got {self.seed}")
        # save_checkpoint packs these fields as unsigned integers this wide
        for name, bits in (("batch_size", 32), ("epochs", 32), ("embed_dim", 32),
                           ("input_size", 32), ("max_steps", 64), ("seed", 64)):
            value = getattr(self, name)
            if value is not None and not isinstance(value, (int, np.integer)):
                raise ValueError(f"{name} must be an integer, got {value}")
            if value is not None and value >= 2 ** bits:
                raise ValueError(f"{name} must be < 2**{bits}, got {value}")


# One row per layer, input to output: name, output width (None: embed_dim),
# batch norm after the linear map, ReLU after that.
_LAYERS = (
    ("enc1", ENC_HIDDEN, False, True),
    ("enc2", ENC_OUT, False, False),
    ("proj1", PROJ_HIDDEN, True, True),
    ("proj2", PROJ_HIDDEN, True, True),
    ("out", None, False, False),
)


def _param_specs(in_dim: int, embed_dim: int):
    specs = []
    for name, width, norm, _ in _LAYERS:
        width = embed_dim if width is None else width
        specs += [(f"{name}_w", (width, in_dim)), (f"{name}_b", (width,))]
        if norm:
            specs += [(f"{name}_gamma", (width,)), (f"{name}_beta", (width,))]
        in_dim = width
    return tuple(specs)


class TinyModel:
    """Encoder + projector over one flat parameter vector (weight sharing
    between the two views is by construction: there is only one storage)."""

    def __init__(self, input_size: int = 16, embed_dim: int = 8,
                 params: np.ndarray | None = None):
        for name, value in (("input_size", input_size), ("embed_dim", embed_dim)):
            if not isinstance(value, (int, np.integer)) or value < 1:
                raise ValueError(f"{name} must be an integer >= 1, got {value!r}")
        self.input_size = int(input_size)
        self.embed_dim = int(embed_dim)
        self.in_dim = self.input_size * self.input_size * 3
        self.specs = _param_specs(self.in_dim, self.embed_dim)
        total = sum(int(np.prod(shape)) for _, shape in self.specs)
        if params is None:
            params = np.zeros(total, dtype=np.float64)
        else:
            params = np.asarray(params, dtype=np.float64)
            if params.shape != (total,):
                raise ValueError(
                    f"parameter vector must have length {total}, got {params.shape}"
                )
            if not np.all(np.isfinite(params)):
                raise ValueError("parameter vector contains non-finite values")
        self.params = params
        self._views: dict[str, np.ndarray] = {}
        offset = 0
        for name, shape in self.specs:
            size = int(np.prod(shape))
            self._views[name] = self.params[offset:offset + size].reshape(shape)
            offset += size
        # running mean and std of each norm layer in turn
        self.running = np.tile([[0.0], [1.0]], (2, PROJ_HIDDEN))
        self.step = 0

    def param(self, name: str) -> np.ndarray:
        return self._views[name]

    @property
    def num_params(self) -> int:
        return self.params.size

    def buffers(self) -> np.ndarray:
        return self.running.flatten()

    def set_buffers(self, buffers: np.ndarray) -> None:
        buffers = np.asarray(buffers, dtype=np.float64)
        if buffers.shape != (self.running.size,):
            raise ValueError(f"expected {self.running.size} buffer values")
        _check_running(buffers)
        self.running = buffers.reshape(self.running.shape).copy()


def _check_running(buffers: np.ndarray) -> None:
    """Running statistics must be finite, and no running std negative:
    eval mode divides by std + epsilon."""
    if not np.all(np.isfinite(buffers)):
        raise ValueError("running statistics contain non-finite values")
    if np.any(buffers.reshape(-1, PROJ_HIDDEN)[1::2] < 0):
        raise ValueError("running std is negative")


def init_model(input_size: int = 16, embed_dim: int = 8, seed: int = 0) -> TinyModel:
    """Seeded init: weights and biases uniform in +-1/sqrt(fan_in), batch
    norm scale 1 and shift 0. Draws consume the stream in parameter
    layout order, row-major within each tensor."""
    model = TinyModel(input_size=input_size, embed_dim=embed_dim)
    rng = RandomStream(seed)
    fan_in = 0
    for name, shape in model.specs:
        view = model.param(name).reshape(-1)
        if name.endswith("_gamma"):
            view[:] = 1.0
        elif name.endswith("_beta"):
            view[:] = 0.0
        else:
            if name.endswith("_w"):
                fan_in = shape[1]
            bound = 1.0 / math.sqrt(fan_in)
            view[:] = rng.uniforms(view.size, -bound, bound)
    return model


# ---------------------------------------------------------------------------
# forward / backward
# ---------------------------------------------------------------------------

def prepare_batch(images, input_size: int) -> np.ndarray:
    """Resize byte images to the model input size and scale to [0, 1];
    returns a flattened (n, in_dim) float64 batch."""
    rows = []
    for img in images:
        img = ensure_u8(img)
        if img.shape[0] != input_size or img.shape[1] != input_size:
            img = bilinear_resize(img, input_size, input_size)
        rows.append(img.reshape(-1))
    batch = np.stack(rows).astype(np.float64)
    batch /= 255.0
    return batch


def view_batches(images, plan: Plan | Policy, indices, input_size: int,
                 soil_bank: SoilBank | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Two prepared view batches: row k of each holds a view of
    ``images[k]`` made by :func:`view_pairs` as image ``indices[k]``."""
    pairs = view_pairs(images, plan, indices, soil_bank)
    return (prepare_batch([v1 for v1, _ in pairs], input_size),
            prepare_batch([v2 for _, v2 in pairs], input_size))


def _as_input(model: TinyModel, batch) -> np.ndarray:
    """Float (n, in_dim) batches only; byte images go through prepare_batch."""
    batch = np.asarray(batch)
    if batch.dtype.kind != "f" or batch.ndim != 2 or batch.shape[1] != model.in_dim:
        raise ValueError(
            f"batch must be float (n, {model.in_dim}), got {batch.dtype} {batch.shape}"
        )
    return batch.astype(np.float64, copy=False)


def _bn_forward(x, gamma, beta, run_mean, run_std, training, update_stats):
    if training:
        xhat, mean, sigma, denom = twins._normalize_cache(x)
        if update_stats:
            run_mean *= 1.0 - BN_MOMENTUM
            run_mean += BN_MOMENTUM * mean
            run_std *= 1.0 - BN_MOMENTUM
            run_std += BN_MOMENTUM * sigma
        cache = (xhat, sigma, denom)
    else:
        xhat = (x - run_mean) / (run_std + twins.BN_EPS)
        cache = (xhat, None, None)
    return gamma * xhat + beta, cache


def _forward_cached(model: TinyModel, x: np.ndarray, training: bool, update_stats: bool):
    """Embeddings and, per layer, (input, pre-ReLU output, norm cache)."""
    p = model.param
    stats = iter(model.running.reshape(-1, 2, PROJ_HIDDEN))
    cache = []
    for name, _, norm, relu in _LAYERS:
        y = x @ p(f"{name}_w").T + p(f"{name}_b")
        bn = None
        if norm:
            y, bn = _bn_forward(y, p(f"{name}_gamma"), p(f"{name}_beta"),
                                *next(stats), training, update_stats)
        cache.append((x, y, bn))
        x = np.maximum(y, 0.0) if relu else y
    return x, cache


def forward(model: TinyModel, batch, training: bool = True) -> np.ndarray:
    """Embed a batch, leaving the running statistics as they are. Training
    mode normalizes with batch statistics, eval mode with the running ones."""
    x = _as_input(model, batch)
    z, _ = _forward_cached(model, x, training=training, update_stats=False)
    return z


def _backward_view(model: TinyModel, cache, g, grads) -> None:
    p = model.param
    for i in reversed(range(len(_LAYERS))):
        name, _, norm, relu = _LAYERS[i]
        x, y, bn = cache[i]
        if relu:
            g = g * (y > 0)
        if norm:
            xhat, sigma, denom = bn
            grads[f"{name}_gamma"] += (g * xhat).sum(axis=0)
            grads[f"{name}_beta"] += g.sum(axis=0)
            g = twins._normalize_backward(g * p(f"{name}_gamma"), xhat, sigma, denom)
        grads[f"{name}_w"] += g.T @ x
        grads[f"{name}_b"] += g.sum(axis=0)
        if i:
            g = g @ p(f"{name}_w")


def _backward_stats(model, x1, x2, lam, update_stats):
    x1 = _as_input(model, x1)
    x2 = _as_input(model, x2)
    if x1.shape[0] != x2.shape[0]:
        raise ValueError("view batches must have equal size")
    if x1.shape[0] < 2:
        raise ValueError("batch statistics need n >= 2")
    z1, cache1 = _forward_cached(model, x1, training=True, update_stats=update_stats)
    z2, cache2 = _forward_cached(model, x2, training=True, update_stats=update_stats)
    loss, gz1, gz2, c = twins._bt_core(z1, z2, lam)

    grads = {name: np.zeros(shape) for name, shape in model.specs}
    _backward_view(model, cache1, gz1, grads)
    _backward_view(model, cache2, gz2, grads)
    flat = np.concatenate([grads[name].reshape(-1) for name, _ in model.specs])
    return loss, flat, twins.diag_mean(c), twins.offdiag_mean_abs(c)


def backward(model: TinyModel, view1, view2,
             lam: float = twins.DEFAULT_LAMBDA) -> tuple[float, np.ndarray]:
    """Loss and the exact gradient of the full composite with respect to
    every parameter. Weight decay is the optimizer's job, not included."""
    loss, grad, _, _ = _backward_stats(model, view1, view2, lam, update_stats=False)
    return loss, grad


class TrainingDiverged(RuntimeError):
    """A step's loss or gradient is not finite. ``step`` is the number of
    steps completed before it; from :func:`pretrain`, ``trace`` holds
    their rows."""

    def __init__(self, step: int, trace=()):
        super().__init__(f"non-finite loss or gradient at step {step}")
        self.step = step
        self.trace = list(trace)


def train_step(model: TinyModel, view1, view2, cfg: TrainConfig):
    """One SGD step with decoupled weight decay, in place. Returns
    (loss, diag_mean, offdiag_mean) of the step's cross-correlation."""
    cfg.validate()
    loss, grad, dmean, omean = _backward_stats(
        model, view1, view2, cfg.lam, update_stats=True
    )
    if not math.isfinite(loss) or not np.all(np.isfinite(grad)):
        raise TrainingDiverged(model.step)
    model.params -= cfg.learning_rate * (grad + cfg.weight_decay * model.params)
    model.step += 1
    return loss, dmean, omean


def probe_cross_corr(model: TinyModel, view1, view2) -> np.ndarray:
    """Cross-correlation of two view batches under batch statistics,
    without touching the running buffers. Used for progress probes."""
    z1 = forward(model, view1, training=True)
    z2 = forward(model, view2, training=True)
    return twins.cross_correlation(twins.batch_normalize(z1), twins.batch_normalize(z2))


# ---------------------------------------------------------------------------
# training loop
# ---------------------------------------------------------------------------

def pretrain(dataset, policy: Policy | Plan, cfg: TrainConfig,
             soil_bank: SoilBank | None = None):
    """Run the self-supervised loop over a byte-image dataset.

    Views for image i in epoch e are derived from global index
    e * len(dataset) + i, so they vary across epochs yet stay independent
    of shuffle order and worker count. Returns (checkpoint, trace) where
    trace rows are (step, loss, diag_mean, offdiag_mean). A step with a
    non-finite loss or gradient raises :class:`TrainingDiverged` carrying
    the trace so far.
    """
    cfg.validate()
    plan = compile_policy(policy)
    n = len(dataset)
    if n < cfg.batch_size:
        raise ValueError(f"dataset has {n} images, smaller than batch size {cfg.batch_size}")
    model = init_model(cfg.input_size, cfg.embed_dim, seed=derive_seed(cfg.seed, 0))
    trace = []

    def batches():
        for epoch in range(cfg.epochs):
            order = list(range(n))
            RandomStream(derive_seed(cfg.seed, 1 + epoch)).shuffle(order)
            for start in range(0, n - cfg.batch_size + 1, cfg.batch_size):
                yield epoch, order[start:start + cfg.batch_size]

    # islice stops before it would shuffle an epoch that runs no step
    for epoch, batch_idx in itertools.islice(batches(), cfg.max_steps):
        x1, x2 = view_batches([dataset[i] for i in batch_idx], plan,
                              [epoch * n + i for i in batch_idx], cfg.input_size, soil_bank)
        try:
            loss, dmean, omean = train_step(model, x1, x2, cfg)
        except TrainingDiverged as exc:
            raise TrainingDiverged(exc.step, trace) from None
        trace.append((model.step, loss, dmean, omean))
    return make_checkpoint(model, cfg), trace


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------

class CheckpointError(ValueError):
    """Unreadable checkpoint payload."""


@dataclass
class Checkpoint:
    """A model's state and its training config, which holds its dims."""
    step: int
    config: TrainConfig
    params: np.ndarray
    buffers: np.ndarray


def make_checkpoint(model: TinyModel, cfg: TrainConfig) -> Checkpoint:
    return Checkpoint(
        step=model.step,
        config=replace(cfg, input_size=model.input_size, embed_dim=model.embed_dim),
        params=model.params.copy(),
        buffers=model.buffers(),
    )


def model_from_checkpoint(ckpt: Checkpoint) -> TinyModel:
    model = TinyModel(ckpt.config.input_size, ckpt.config.embed_dim, params=ckpt.params.copy())
    model.set_buffers(ckpt.buffers)
    model.step = ckpt.step
    return model


def save_checkpoint(ckpt: Checkpoint) -> bytes:
    """Binary layout, little-endian: magic "BTCK", version u32, dims
    (input_size, embed_dim, enc_hidden, enc_out, proj_hidden) u32 each,
    step u64, config (batch u32, epochs u32, max_steps u64 with 0 = none,
    lr f64, wd f64, lambda f64, seed u64), then length-prefixed f64
    parameter and buffer vectors."""
    cfg = ckpt.config
    head = struct.pack(
        "<4sI5IQ", CHECKPOINT_MAGIC, CHECKPOINT_VERSION,
        cfg.input_size, cfg.embed_dim, ENC_HIDDEN, ENC_OUT, PROJ_HIDDEN,
        ckpt.step,
    )
    cfg_blob = struct.pack(
        "<IIQdddQ", cfg.batch_size, cfg.epochs, cfg.max_steps or 0,
        cfg.learning_rate, cfg.weight_decay, cfg.lam, cfg.seed,
    )
    params = np.ascontiguousarray(ckpt.params, dtype="<f8")
    buffers = np.ascontiguousarray(ckpt.buffers, dtype="<f8")
    return (
        head + cfg_blob
        + struct.pack("<Q", params.size) + params.tobytes()
        + struct.pack("<Q", buffers.size) + buffers.tobytes()
    )


def load_checkpoint(data: bytes) -> Checkpoint:
    def take(fmt, offset):
        size = struct.calcsize(fmt)
        if offset + size > len(data):
            raise CheckpointError("truncated checkpoint")
        return struct.unpack_from(fmt, data, offset), offset + size

    (magic, version, input_size, embed_dim, enc_h, enc_o, proj_h, step), pos = take("<4sI5IQ", 0)
    if magic != CHECKPOINT_MAGIC:
        raise CheckpointError(f"bad magic {magic!r}")
    if version != CHECKPOINT_VERSION:
        raise CheckpointError(f"unsupported version {version}")
    if (enc_h, enc_o, proj_h) != (ENC_HIDDEN, ENC_OUT, PROJ_HIDDEN):
        raise CheckpointError(
            f"architecture mismatch: {(enc_h, enc_o, proj_h)} vs "
            f"{(ENC_HIDDEN, ENC_OUT, PROJ_HIDDEN)}"
        )
    (batch, epochs, max_steps, lr, wd, lam, seed), pos = take("<IIQdddQ", pos)
    cfg = TrainConfig(
        batch_size=batch, learning_rate=lr, weight_decay=wd, epochs=epochs,
        lam=lam, seed=seed, embed_dim=embed_dim, input_size=input_size,
        max_steps=max_steps or None,
    )
    try:
        cfg.validate()
    except ValueError as exc:
        raise CheckpointError(f"invalid config: {exc}") from None

    def take_f64s(offset, expected, what):
        (count,), offset = take("<Q", offset)
        if count != expected:
            raise CheckpointError(f"{what} count {count}, expected {expected}")
        end = offset + count * 8
        if end > len(data):
            raise CheckpointError(f"truncated {what} payload")
        return np.frombuffer(data, dtype="<f8", count=count, offset=offset).copy(), end

    param_count = sum(int(np.prod(s)) for _, s in _param_specs(input_size * input_size * 3, embed_dim))
    params, pos = take_f64s(pos, param_count, "parameter")
    buffers, pos = take_f64s(pos, 4 * PROJ_HIDDEN, "buffer")
    if pos != len(data):
        raise CheckpointError(f"{len(data) - pos} trailing bytes")
    if not np.all(np.isfinite(params)):
        raise CheckpointError("invalid parameters: non-finite values")
    try:
        _check_running(buffers)
    except ValueError as exc:
        raise CheckpointError(f"invalid buffers: {exc}") from None

    return Checkpoint(step=step, config=cfg, params=params, buffers=buffers)


# ---------------------------------------------------------------------------
# gradient verification
# ---------------------------------------------------------------------------

# The finite-difference step and error floor of model_grad_check. Steps near
# 1e-4 reach the scale of the norm layers' epsilon, where an ill-conditioned
# column (tiny batch std) puts central differences outside their asymptotic
# regime, so the step is small. Batch norm also cancels constant column
# shifts, which makes many bias gradients exactly zero; finite differences on
# those measure pure cancellation noise (roughly eps * loss / step, about 1e-8
# here) and the floor sits above it.
FD_STEP = 1e-6
FD_FLOOR = 1e-4


def model_grad_check(n: int = 4, input_size: int = 6, embed_dim: int = 4, seed: int = 0,
                     sample_per_block: int | None = None) -> float:
    """Compare the analytic parameter gradient against central finite
    differences, at the default lambda, on a random model and random input views.

    With ``sample_per_block`` set, checks that many seeded random indices
    from every parameter tensor instead of all of them (full sweeps on the
    default encoder are quadratically slow). Returns the max relative
    error with denominator max(|analytic|, |fd|, FD_FLOOR).
    """
    model = init_model(input_size, embed_dim, seed=derive_seed(seed, 0))
    rng = RandomStream(derive_seed(seed, 1))
    in_dim = model.in_dim
    x1 = rng.uniforms(n * in_dim, 0.0, 1.0).reshape(n, in_dim)
    x2 = rng.uniforms(n * in_dim, 0.0, 1.0).reshape(n, in_dim)

    _, grad = backward(model, x1, x2, twins.DEFAULT_LAMBDA)

    def loss_at():
        return twins._bt_core(forward(model, x1), forward(model, x2), twins.DEFAULT_LAMBDA)[0]

    indices: list[int] = []
    offset = 0
    pick = RandomStream(derive_seed(seed, 2))
    for _, shape in model.specs:
        size = int(np.prod(shape))
        if sample_per_block is None or sample_per_block >= size:
            indices.extend(range(offset, offset + size))
        else:
            chosen = set()
            while len(chosen) < sample_per_block:
                chosen.add(offset + pick.next_below(size))
            indices.extend(sorted(chosen))
        offset += size

    return twins._max_fd_error(model.params, grad, indices, loss_at, FD_STEP, FD_FLOOR)


# ---------------------------------------------------------------------------
# synthetic corpora
# ---------------------------------------------------------------------------

def _noise_images(streams: list[RandomStream], size: int, bounds, offsets) -> list[np.ndarray]:
    """One (size, size, 3) uint8 image per stream: ``below_many(size * size
    * 3, bounds)`` of the stream plus ``offsets`` (one value per channel, or
    a row of them per stream), clipped at 255. The streams share lane
    passes, and each pass's draws become images before the next starts."""
    n = size * size * 3
    per = streams_per_pass(n)
    offsets = np.broadcast_to(offsets, (len(streams), 3))
    images = []
    for start in range(0, len(streams), per):
        noise = below_many_many(streams[start:start + per], n, bounds).reshape(-1, size, size, 3)
        noise += offsets[start:start + per, None, None]
        np.minimum(noise, 255, out=noise)
        images.extend(img.astype(np.uint8) for img in noise)
    return images


def _image_streams(count: int, size: int, seed: int) -> list[RandomStream]:
    """The stream of each of ``count`` synthetic images of ``size`` px; a
    negative count or a size below 1 is a ValueError."""
    if count < 0:
        raise ValueError(f"image count must be >= 0, got {count}")
    if size < 1:
        raise ValueError(f"image size must be >= 1, got {size}")
    return [RandomStream(derive_seed(seed, i)) for i in range(count)]


def make_synthetic_soil(count: int, size: int = 16, seed: int = 0) -> list[np.ndarray]:
    """Soil-only candidates for bank building; filter with
    :func:`fieldaug.augment.build_soil_bank` (a minority trip the
    vegetation check by chance and get rejected there).

    Brown per-pixel noise. Fine-grained on purpose: after per-channel
    standardization roughly half the pixels of any non-constant image have
    positive excess green, and only spatially coherent regions survive the
    mask refinement."""
    streams = _image_streams(count, size, seed)
    return _noise_images(streams, size, np.tile((50, 40, 35), size * size), (100, 70, 40))


def make_synthetic_corpus(count: int, size: int = 16, seed: int = 0) -> list[np.ndarray]:
    """Plant-like images: one to three green elliptical blobs over brown
    noise. Deterministic per (seed, index).

    Soil base color, blob color, blob count and blob sizes vary
    independently per image, so a corpus carries several independent
    image-identity factors; self-supervised training can only decorrelate
    embedding dimensions when the data offers that many factors to
    separate.

    Each image's stream draws its base color, its noise, then its blobs;
    streams are independent, so every base is drawn first, the noise of
    many images shares lane passes, and the blobs come last."""
    streams = _image_streams(count, size, seed)
    bases = np.array([(60 + s.next_below(140), 50 + s.next_below(120), 30 + s.next_below(110))
                      for s in streams], dtype=np.int64).reshape(count, 3)
    images = _noise_images(streams, size, 20, bases)
    vv, uu = np.mgrid[0:size, 0:size].astype(np.float64)
    for stream, img in zip(streams, images):
        blob_color = (
            10 + stream.next_below(80),
            90 + stream.next_below(140),
            10 + stream.next_below(80),
        )
        for _ in range(1 + stream.next_below(3)):
            cx = stream.uniform(0, size - 1)
            cy = stream.uniform(0, size - 1)
            ra = stream.uniform(size / 7.0, size / 2.6)
            rb = stream.uniform(size / 7.0, size / 2.6)
            angle = stream.uniform(0.0, math.pi)
            du = uu - cx
            dv = vv - cy
            major = (du * math.cos(angle) + dv * math.sin(angle)) / ra
            minor = (-du * math.sin(angle) + dv * math.cos(angle)) / rb
            inside = major ** 2 + minor ** 2 <= 1.0
            img[inside] = blob_color
    return images


# ---------------------------------------------------------------------------
# config files
# ---------------------------------------------------------------------------

def load_train_config(text: str | bytes) -> TrainConfig:
    """key=value lines, '#' comments; unknown keys rejected with the line
    number."""
    kinds = {f.name: f.type for f in fields(TrainConfig)}  # annotation strings
    cfg = TrainConfig()
    first_line = {}
    for line_no, line in _text_lines(text):
        key, sep, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if not sep or key not in kinds:
            raise ValueError(f"unknown config line {line_no}: {line!r}")
        _first_line(first_line, key, line_no)
        try:
            if kinds[key] == "int | None" and value in ("", "none"):
                setattr(cfg, key, None)
            else:
                setattr(cfg, key, float(value) if kinds[key] == "float" else int(value))
        except ValueError:
            raise ValueError(f"invalid value for {key} (line {line_no}): {value!r}") from None
        # the defaults are valid, so a failure here is this line's value
        try:
            cfg.validate()
        except ValueError as exc:
            raise ValueError(f"{exc} (line {line_no})") from None
    return cfg
