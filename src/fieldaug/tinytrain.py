"""Desk-scale self-supervised pretraining loop.

A tiny MLP encoder stands in for a large convolutional backbone; the
projector keeps the reference structure (two linear+batchnorm+ReLU blocks
followed by a linear layer). Forward and backward passes are written out
by hand over a single flat float64 parameter vector, so the whole
composite gradient can be checked against finite differences and training
is bit-reproducible.

Parameter vector layout, in order, each tensor row-major:

    enc1_w (64 x in_dim), enc1_b (64),
    enc2_w (32 x 64),     enc2_b (32),
    proj1_w (32 x 32), proj1_b (32), proj1_gamma (32), proj1_beta (32),
    proj2_w (32 x 32), proj2_b (32), proj2_gamma (32), proj2_beta (32),
    out_w (D x 32), out_b (D)

with in_dim = input_size * input_size * 3. Linear layers compute
``x @ W.T + b``. Batch norm layers share the loss-side convention
(population std, epsilon added to the std) and keep running mean/std
buffers (EMA, momentum 0.1) outside the parameter vector.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, fields, replace

import numpy as np

from . import twins
from .imagecore import bilinear_resize, ensure_u8
from .policy import Policy, make_views
from .augment import SoilBank
from .rng import RandomStream, derive_seed

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
            if value is None or not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
            if value <= 0 and not (name == "weight_decay" and value == 0):
                raise ValueError(f"{name} must be positive, got {value}")
        if self.batch_size < 2:
            raise ValueError("batch_size must be >= 2 for batch statistics")
        if self.max_steps is not None and self.max_steps <= 0:
            raise ValueError("max_steps must be positive when set")


def _param_specs(in_dim: int, embed_dim: int):
    return (
        ("enc1_w", (ENC_HIDDEN, in_dim)),
        ("enc1_b", (ENC_HIDDEN,)),
        ("enc2_w", (ENC_OUT, ENC_HIDDEN)),
        ("enc2_b", (ENC_OUT,)),
        ("proj1_w", (PROJ_HIDDEN, ENC_OUT)),
        ("proj1_b", (PROJ_HIDDEN,)),
        ("proj1_gamma", (PROJ_HIDDEN,)),
        ("proj1_beta", (PROJ_HIDDEN,)),
        ("proj2_w", (PROJ_HIDDEN, PROJ_HIDDEN)),
        ("proj2_b", (PROJ_HIDDEN,)),
        ("proj2_gamma", (PROJ_HIDDEN,)),
        ("proj2_beta", (PROJ_HIDDEN,)),
        ("out_w", (embed_dim, PROJ_HIDDEN)),
        ("out_b", (embed_dim,)),
    )


class TinyModel:
    """Encoder + projector over one flat parameter vector (weight sharing
    between the two views is by construction: there is only one storage)."""

    def __init__(self, input_size: int = 16, embed_dim: int = 8,
                 params: np.ndarray | None = None):
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
        self.run_mean1 = np.zeros(PROJ_HIDDEN)
        self.run_std1 = np.ones(PROJ_HIDDEN)
        self.run_mean2 = np.zeros(PROJ_HIDDEN)
        self.run_std2 = np.ones(PROJ_HIDDEN)
        self.step = 0

    def param(self, name: str) -> np.ndarray:
        return self._views[name]

    @property
    def num_params(self) -> int:
        return self.params.size

    def buffers(self) -> np.ndarray:
        return np.concatenate(
            [self.run_mean1, self.run_std1, self.run_mean2, self.run_std2]
        )

    def set_buffers(self, buffers: np.ndarray) -> None:
        buffers = np.asarray(buffers, dtype=np.float64)
        if buffers.shape != (4 * PROJ_HIDDEN,):
            raise ValueError(f"expected {4 * PROJ_HIDDEN} buffer values")
        self.run_mean1 = buffers[0:PROJ_HIDDEN].copy()
        self.run_std1 = buffers[PROJ_HIDDEN:2 * PROJ_HIDDEN].copy()
        self.run_mean2 = buffers[2 * PROJ_HIDDEN:3 * PROJ_HIDDEN].copy()
        self.run_std2 = buffers[3 * PROJ_HIDDEN:].copy()


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
        rows.append(img.reshape(-1).astype(np.float64) / 255.0)
    return np.stack(rows)


def _as_input(model: TinyModel, batch) -> np.ndarray:
    if isinstance(batch, np.ndarray) and batch.dtype == np.uint8:
        if batch.ndim != 4 or batch.shape[1:] != (model.input_size, model.input_size, 3):
            raise ValueError(
                f"byte batch must be (n, {model.input_size}, {model.input_size}, 3), "
                f"got {batch.shape}"
            )
        return batch.reshape(batch.shape[0], -1).astype(np.float64) / 255.0
    batch = np.asarray(batch, dtype=np.float64)
    if batch.ndim != 2 or batch.shape[1] != model.in_dim:
        raise ValueError(
            f"float batch must be (n, {model.in_dim}), got {batch.shape}"
        )
    return batch


def _bn_forward(x, gamma, beta, run_mean, run_std, training, update_stats):
    if training:
        mean = x.mean(axis=0)
        sigma = x.std(axis=0)
        denom = sigma + twins.BN_EPS
        xhat = (x - mean) / denom
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
    p = model.param
    a1 = x @ p("enc1_w").T + p("enc1_b")
    r1 = np.maximum(a1, 0.0)
    enc = r1 @ p("enc2_w").T + p("enc2_b")

    q1 = enc @ p("proj1_w").T + p("proj1_b")
    bn1_out, bn1 = _bn_forward(
        q1, p("proj1_gamma"), p("proj1_beta"),
        model.run_mean1, model.run_std1, training, update_stats,
    )
    r2 = np.maximum(bn1_out, 0.0)

    q2 = r2 @ p("proj2_w").T + p("proj2_b")
    bn2_out, bn2 = _bn_forward(
        q2, p("proj2_gamma"), p("proj2_beta"),
        model.run_mean2, model.run_std2, training, update_stats,
    )
    r3 = np.maximum(bn2_out, 0.0)

    z = r3 @ p("out_w").T + p("out_b")
    cache = {
        "x": x, "a1": a1, "r1": r1, "enc": enc,
        "bn1": bn1, "bn1_out": bn1_out, "r2": r2,
        "bn2": bn2, "bn2_out": bn2_out, "r3": r3,
    }
    return z, cache


def forward(model: TinyModel, batch, training: bool = True,
            update_stats: bool = False) -> np.ndarray:
    """Embed a batch. Training mode uses batch statistics in the norm
    layers; eval mode uses the stored running statistics."""
    x = _as_input(model, batch)
    z, _ = _forward_cached(model, x, training=training, update_stats=update_stats)
    return z


def _backward_view(model: TinyModel, cache, gz, grads) -> None:
    p = model.param

    grads["out_w"] += gz.T @ cache["r3"]
    grads["out_b"] += gz.sum(axis=0)
    g = gz @ p("out_w")

    g = g * (cache["bn2_out"] > 0)
    xhat2, sigma2, denom2 = cache["bn2"]
    grads["proj2_gamma"] += (g * xhat2).sum(axis=0)
    grads["proj2_beta"] += g.sum(axis=0)
    g = twins._normalize_backward(g * p("proj2_gamma"), xhat2, sigma2, denom2)

    grads["proj2_w"] += g.T @ cache["r2"]
    grads["proj2_b"] += g.sum(axis=0)
    g = g @ p("proj2_w")

    g = g * (cache["bn1_out"] > 0)
    xhat1, sigma1, denom1 = cache["bn1"]
    grads["proj1_gamma"] += (g * xhat1).sum(axis=0)
    grads["proj1_beta"] += g.sum(axis=0)
    g = twins._normalize_backward(g * p("proj1_gamma"), xhat1, sigma1, denom1)

    grads["proj1_w"] += g.T @ cache["enc"]
    grads["proj1_b"] += g.sum(axis=0)
    g = g @ p("proj1_w")

    grads["enc2_w"] += g.T @ cache["r1"]
    grads["enc2_b"] += g.sum(axis=0)
    g = g @ p("enc2_w")

    g = g * (cache["a1"] > 0)
    grads["enc1_w"] += g.T @ cache["x"]
    grads["enc1_b"] += g.sum(axis=0)


def _loss_head(z1, z2, lam):
    n = z1.shape[0]
    y1, sigma1, denom1 = twins._normalize_cache(z1)
    y2, sigma2, denom2 = twins._normalize_cache(z2)
    c = y1.T @ y2 / n
    diag = np.diag(c)
    loss = float(((1.0 - diag) ** 2).sum() + lam * ((c - np.diag(diag)) ** 2).sum())
    g_c = 2.0 * lam * c
    np.fill_diagonal(g_c, -2.0 * (1.0 - diag))
    gz1 = twins._normalize_backward(y2 @ g_c.T / n, y1, sigma1, denom1)
    gz2 = twins._normalize_backward(y1 @ g_c / n, y2, sigma2, denom2)
    return loss, gz1, gz2, twins.diag_mean(c), twins.offdiag_mean_abs(c)


def _backward_stats(model, x1, x2, lam, update_stats):
    x1 = _as_input(model, x1)
    x2 = _as_input(model, x2)
    if x1.shape[0] != x2.shape[0]:
        raise ValueError("view batches must have equal size")
    if x1.shape[0] < 2:
        raise ValueError("batch statistics need n >= 2")
    z1, cache1 = _forward_cached(model, x1, training=True, update_stats=update_stats)
    z2, cache2 = _forward_cached(model, x2, training=True, update_stats=update_stats)
    loss, gz1, gz2, dmean, omean = _loss_head(z1, z2, lam)

    grads = {name: np.zeros(shape) for name, shape in model.specs}
    _backward_view(model, cache1, gz1, grads)
    _backward_view(model, cache2, gz2, grads)
    flat = np.concatenate([grads[name].reshape(-1) for name, _ in model.specs])
    return loss, flat, dmean, omean


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
    z1 = forward(model, view1, training=True, update_stats=False)
    z2 = forward(model, view2, training=True, update_stats=False)
    return twins.cross_correlation(twins.batch_normalize(z1), twins.batch_normalize(z2))


# ---------------------------------------------------------------------------
# training loop
# ---------------------------------------------------------------------------

def pretrain(dataset, policy: Policy, cfg: TrainConfig,
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
    n = len(dataset)
    if n < cfg.batch_size:
        raise ValueError(f"dataset has {n} images, smaller than batch size {cfg.batch_size}")
    model = init_model(cfg.input_size, cfg.embed_dim, seed=derive_seed(cfg.seed, 0))
    trace = []
    steps_done = 0
    for epoch in range(cfg.epochs):
        order = list(range(n))
        RandomStream(derive_seed(cfg.seed, 1 + epoch)).shuffle(order)
        for start in range(0, n - cfg.batch_size + 1, cfg.batch_size):
            batch_idx = order[start:start + cfg.batch_size]
            views1, views2 = [], []
            for i in batch_idx:
                v1, v2 = make_views(dataset[i], policy, epoch * n + i, soil_bank=soil_bank)
                views1.append(v1)
                views2.append(v2)
            x1 = prepare_batch(views1, cfg.input_size)
            x2 = prepare_batch(views2, cfg.input_size)
            try:
                loss, dmean, omean = train_step(model, x1, x2, cfg)
            except TrainingDiverged as exc:
                raise TrainingDiverged(exc.step, trace) from None
            trace.append((model.step, loss, dmean, omean))
            steps_done += 1
            if cfg.max_steps is not None and steps_done >= cfg.max_steps:
                return make_checkpoint(model, cfg), trace
    return make_checkpoint(model, cfg), trace


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------

class CheckpointError(ValueError):
    """Unreadable checkpoint payload."""


@dataclass
class Checkpoint:
    input_size: int
    embed_dim: int
    step: int
    config: TrainConfig
    params: np.ndarray
    buffers: np.ndarray


def make_checkpoint(model: TinyModel, cfg: TrainConfig) -> Checkpoint:
    return Checkpoint(
        input_size=model.input_size,
        embed_dim=model.embed_dim,
        step=model.step,
        config=replace(cfg),
        params=model.params.copy(),
        buffers=model.buffers(),
    )


def model_from_checkpoint(ckpt: Checkpoint) -> TinyModel:
    model = TinyModel(ckpt.input_size, ckpt.embed_dim, params=ckpt.params.copy())
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
        ckpt.input_size, ckpt.embed_dim, ENC_HIDDEN, ENC_OUT, PROJ_HIDDEN,
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

    (param_count,), pos = take("<Q", pos)
    expected = sum(int(np.prod(s)) for _, s in _param_specs(input_size * input_size * 3, embed_dim))
    if param_count != expected:
        raise CheckpointError(f"parameter count {param_count}, expected {expected}")
    nbytes = param_count * 8
    if pos + nbytes > len(data):
        raise CheckpointError("truncated parameter payload")
    params = np.frombuffer(data, dtype="<f8", count=param_count, offset=pos).copy()
    pos += nbytes

    (buffer_count,), pos = take("<Q", pos)
    if buffer_count != 4 * PROJ_HIDDEN:
        raise CheckpointError(f"buffer count {buffer_count}, expected {4 * PROJ_HIDDEN}")
    nbytes = buffer_count * 8
    if pos + nbytes > len(data):
        raise CheckpointError("truncated buffer payload")
    buffers = np.frombuffer(data, dtype="<f8", count=buffer_count, offset=pos).copy()
    pos += nbytes
    if pos != len(data):
        raise CheckpointError(f"{len(data) - pos} trailing bytes")

    return Checkpoint(
        input_size=input_size, embed_dim=embed_dim, step=step,
        config=cfg, params=params, buffers=buffers,
    )


# ---------------------------------------------------------------------------
# gradient verification
# ---------------------------------------------------------------------------

def model_grad_check(
    n: int = 4,
    input_size: int = 6,
    embed_dim: int = 4,
    lam: float = twins.DEFAULT_LAMBDA,
    h: float = 1e-6,
    seed: int = 0,
    sample_per_block: int | None = None,
    floor: float = 1e-4,
) -> float:
    """Compare the analytic parameter gradient against central finite
    differences on a random model and random input views.

    With ``sample_per_block`` set, checks that many seeded random indices
    from every parameter tensor instead of all of them (full sweeps on the
    default encoder are quadratically slow). Returns the max relative
    error with denominator max(|analytic|, |fd|, floor).

    The defaults are deliberate. Steps near 1e-4 reach the scale of the
    norm layers' epsilon, where an ill-conditioned column (tiny batch std)
    puts central differences outside their asymptotic regime, so h is
    small. Batch norm also cancels constant column shifts, which makes
    many bias gradients exactly zero; finite differences on those measure
    pure cancellation noise (roughly eps * loss / h, about 1e-8 here) and
    the floor sits above it.
    """
    model = init_model(input_size, embed_dim, seed=derive_seed(seed, 0))
    rng = RandomStream(derive_seed(seed, 1))
    in_dim = model.in_dim
    x1 = rng.uniforms(n * in_dim, 0.0, 1.0).reshape(n, in_dim)
    x2 = rng.uniforms(n * in_dim, 0.0, 1.0).reshape(n, in_dim)

    _, grad = backward(model, x1, x2, lam)

    def loss_at():
        z1, _ = _forward_cached(model, x1, training=True, update_stats=False)
        z2, _ = _forward_cached(model, x2, training=True, update_stats=False)
        return _loss_head(z1, z2, lam)[0]

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

    worst = 0.0
    flat = model.params
    for idx in indices:
        orig = flat[idx]
        flat[idx] = orig + h
        up = loss_at()
        flat[idx] = orig - h
        down = loss_at()
        flat[idx] = orig
        fd = (up - down) / (2.0 * h)
        err = abs(grad[idx] - fd) / max(abs(grad[idx]), abs(fd), floor)
        worst = max(worst, err)
    return worst


# ---------------------------------------------------------------------------
# synthetic corpora
# ---------------------------------------------------------------------------

def _soil_base(stream: RandomStream, size: int) -> np.ndarray:
    """Brown per-pixel noise. Fine-grained on purpose: after per-channel
    standardization roughly half the pixels of any non-constant image have
    positive excess green, and only spatially coherent regions survive the
    mask refinement."""
    noise = stream.below_many(size * size * 3, np.tile((50, 40, 35), size * size))
    return (noise.reshape(size, size, 3) + (100, 70, 40)).astype(np.uint8)


def make_synthetic_soil(count: int, size: int = 16, seed: int = 0) -> list[np.ndarray]:
    """Soil-only candidates for bank building; filter with
    :func:`fieldaug.augment.build_soil_bank` (a minority trip the
    vegetation check by chance and get rejected there)."""
    return [_soil_base(RandomStream(derive_seed(seed, i)), size) for i in range(count)]


def make_synthetic_corpus(count: int, size: int = 16, seed: int = 0) -> list[np.ndarray]:
    """Plant-like images: one to three green elliptical blobs over brown
    noise. Deterministic per (seed, index).

    Soil base color, blob color, blob count and blob sizes vary
    independently per image, so a corpus carries several independent
    image-identity factors; self-supervised training can only decorrelate
    embedding dimensions when the data offers that many factors to
    separate."""
    images = []
    for i in range(count):
        stream = RandomStream(derive_seed(seed, i))
        base = (
            60 + stream.next_below(140),
            50 + stream.next_below(120),
            30 + stream.next_below(110),
        )
        noise = stream.below_many(size * size * 3, 20).reshape(size, size, 3)
        img = np.minimum(255, noise + base).astype(np.uint8)
        blob_color = (
            10 + stream.next_below(80),
            90 + stream.next_below(140),
            10 + stream.next_below(80),
        )
        vv, uu = np.mgrid[0:size, 0:size].astype(np.float64)
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
        images.append(img)
    return images


# ---------------------------------------------------------------------------
# config files
# ---------------------------------------------------------------------------

def load_train_config(text: str | bytes) -> TrainConfig:
    """key=value lines, '#' comments; unknown keys rejected with the line
    number."""
    if isinstance(text, bytes):
        text = text.decode("utf-8")
    kinds = {f.name: f.type for f in fields(TrainConfig)}
    cfg = TrainConfig()
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if not sep or key not in kinds:
            raise ValueError(f"unknown config line {line_no}: {raw!r}")
        try:
            if key in ("learning_rate", "weight_decay", "lam"):
                setattr(cfg, key, float(value))
            elif key == "max_steps":
                cfg.max_steps = None if value in ("", "none") else int(value)
            else:
                setattr(cfg, key, int(value))
        except ValueError:
            raise ValueError(f"invalid value for {key} (line {line_no}): {value!r}") from None
        # the defaults are valid, so a failure here is this line's value
        try:
            cfg.validate()
        except ValueError as exc:
            raise ValueError(f"{exc} (line {line_no})") from None
    return cfg
