"""Command-line surface: batch augmentation, soil bank curation,
desk-scale pretraining, gradient verification, benchmarking, the
order-sweep harness, and metric evaluation.

Every run writes a flat key=value manifest (machine-readable, including
failed runs). Exit codes: 0 success, 1 runtime failure, 2 usage or
configuration error. All outputs except bench timings are deterministic
given flags and seeds; image work is distributed over a process pool with
per-image random streams, so worker count never changes the results.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import itertools
import math
import os
import statistics
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import augment, metrics, tinytrain, twins
from .imagecore import CodecError, load_ppm, save_ppm
from .policy import (
    AUGMENTATION_NAMES,
    Policy,
    PolicyEntry,
    PolicyError,
    apply_policy,
    load_policy,
    make_views,
    save_policy,
)
from .rng import RandomStream, derive_seed

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_USAGE = 2

LOSS_GRAD_TOL = 1e-4
MODEL_GRAD_TOL = 1e-3


class UsageError(Exception):
    """Bad flags or configuration; maps to exit code 2."""


# ---------------------------------------------------------------------------
# manifests
# ---------------------------------------------------------------------------

class Manifest:
    def __init__(self, command: str, argv: list[str]):
        self._t0 = time.perf_counter()
        self.pairs: list[tuple[str, str]] = [
            ("command", command),
            ("argv", " ".join(argv)),
        ]

    def add(self, key: str, value) -> None:
        self.pairs.append((key, str(value)))

    def write(self, path: Path, status: str, error: str = "") -> None:
        lines = [f"{k}={v}" for k, v in self.pairs]
        lines.append(f"status={status}")
        if error:
            lines.append(f"error={error}")
        lines.append(f"wall_seconds={time.perf_counter() - self._t0:.6f}")
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# shared helpers
# ---------------------------------------------------------------------------

def _load_policy_and_bank(policy_path: Path, seed_override: int | None,
                          allow_missing_bank: bool = False):
    """Load a policy file plus, when needed, the soil bank it names.
    Relative bank paths resolve against the policy file's directory. With
    ``allow_missing_bank`` a policy that uses background_invariance but
    names no bank loads with bank None (callers synthesize one)."""
    if not policy_path.is_file():
        raise UsageError(f"policy file not found: {policy_path}")
    try:
        pol = load_policy(policy_path.read_text())
    except PolicyError as exc:
        raise UsageError(f"{policy_path}: {exc}") from exc
    if seed_override is not None:
        pol.master_seed = seed_override
    bank = None
    if any(e.name == "background_invariance" for e in pol.entries):
        if not pol.soil_bank_path:
            if allow_missing_bank:
                return pol, None
            raise UsageError(
                f"{policy_path}: policy uses background_invariance but sets no soil_bank"
            )
        bank_dir = Path(pol.soil_bank_path)
        if not bank_dir.is_absolute():
            bank_dir = policy_path.parent / bank_dir
        if not bank_dir.is_dir():
            raise UsageError(f"soil bank directory not found: {bank_dir}")
        images = [load_ppm(p.read_bytes()) for p in sorted(bank_dir.glob("*.ppm"))]
        bank = augment.build_soil_bank(images, pol.theta)
        if len(bank) == 0:
            raise UsageError(f"soil bank {bank_dir} admitted no images")
    return pol, bank


_WORKER_CACHE: dict = {}


def _cached_policy(policy_path: str, seed_override: int | None):
    key = (policy_path, seed_override)
    if key not in _WORKER_CACHE:
        _WORKER_CACHE[key] = _load_policy_and_bank(Path(policy_path), seed_override)
    return _WORKER_CACHE[key]


# glibc mallopt parameters and the values the CLI sets (see _keep_freed_memory)
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
_MMAP_THRESHOLD_BYTES = 32 << 20
_TRIM_THRESHOLD_BYTES = 128 << 20


def _keep_freed_memory() -> None:
    """Make glibc keep freed heap memory for reuse in this process.

    With glibc's defaults blocks above a dynamic threshold are mapped
    afresh and the heap top is trimmed after large frees, so every view's
    temporaries fault their pages in again: about 2,400 minor faults per
    128 px view and 14,000 per 512 px view. Here blocks up to 32 MiB
    (glibc's 64-bit maximum) come from the heap, and the heap top is
    trimmed only when more than 128 MiB of it is free; 64 MiB already
    gives 0 faults per 512 px view, 32 MiB gives 15,000. Both are needed:
    the mmap threshold alone raises the faults to about 3,500 per 128 px
    view, the trim threshold alone leaves 150-400. Does nothing where
    mallopt is missing or refuses the value. Only `main` and the pool
    workers call this, so the library leaves the allocator alone."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    if mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD_BYTES):
        mallopt(_M_TRIM_THRESHOLD, _TRIM_THRESHOLD_BYTES)


def _started(_) -> None:
    """Warm-up task: returns once a worker process is running."""


@contextlib.contextmanager
def _worker_pool(workers: int):
    """A process pool whose workers have all been started, or None when
    the work runs in this process. Timed regions use the pool after this
    returns, so they exclude pool start-up. Workers started by forkserver
    or spawn do not inherit the parent's allocator settings, so each one
    sets them again."""
    if workers <= 1:
        yield None
        return
    with ProcessPoolExecutor(max_workers=workers, initializer=_keep_freed_memory) as pool:
        list(pool.map(_started, range(workers)))
        yield pool


def _pool_map(fn, tasks: list, pool) -> list:
    if pool is None:
        return [fn(t) for t in tasks]
    return list(pool.map(fn, tasks))


def _sorted_ppms(directory: Path) -> list[Path]:
    return sorted(directory.glob("*.ppm"), key=lambda p: p.name)


def _synthesize_bank(size: int, seed: int) -> augment.SoilBank:
    candidates = tinytrain.make_synthetic_soil(32, size=size, seed=derive_seed(seed, 0xBA9C))
    bank = augment.build_soil_bank(candidates)
    if len(bank) == 0:
        raise RuntimeError("synthetic soil generation admitted no images")
    return bank


# ---------------------------------------------------------------------------
# augment
# ---------------------------------------------------------------------------

def _write_views(out_dir: Path, stem: str, views) -> None:
    """Write ``<stem>.v<k>.ppm`` for each view through temp files in
    ``out_dir`` renamed into place once all are written, so a failure
    leaves neither a partial view nor a temp file behind."""
    temps = [out_dir / f".{stem}.v{k}.{os.getpid()}.tmp" for k in range(1, len(views) + 1)]
    try:
        for temp, view in zip(temps, views):
            temp.write_bytes(save_ppm(view))
        for k, temp in enumerate(temps, start=1):
            os.replace(temp, out_dir / f"{stem}.v{k}.ppm")
    finally:
        for temp in temps:
            temp.unlink(missing_ok=True)


def _augment_task(task) -> tuple[str, str]:
    """Views for one input file; any failure is returned as a message
    against the file instead of stopping the other inputs."""
    index, in_path, out_dir, policy_path, seed_override = task
    pol, bank = _cached_policy(policy_path, seed_override)
    in_path = Path(in_path)
    try:
        img = load_ppm(in_path.read_bytes())
        views = make_views(img, pol, index, soil_bank=bank)
        _write_views(Path(out_dir), in_path.stem, views)
    except Exception as exc:  # noqa: BLE001 - reported per file, exit 1
        return in_path.name, f"{type(exc).__name__}: {exc}"
    return in_path.name, ""


def _cmd_augment(args, manifest: Manifest) -> int:
    input_dir = Path(args.input)
    if not input_dir.is_dir():
        raise UsageError(f"input directory not found: {input_dir}")
    policy_path = Path(args.policy)
    # validate before spawning, through the cache that tasks run in this
    # process (or forked from it) reuse, so the soil bank is built once
    pol, _ = _cached_policy(str(policy_path), args.seed)
    out_dir = Path(args.output)
    out_dir.mkdir(parents=True, exist_ok=True)

    files = _sorted_ppms(input_dir)
    manifest.add("input", input_dir)
    manifest.add("output", out_dir)
    manifest.add("policy", policy_path)
    manifest.add("master_seed", pol.master_seed)
    manifest.add("workers", args.workers)
    manifest.add("images", len(files))
    if not files:
        manifest.add("views_written", 0)
        return EXIT_OK

    tasks = [
        (index, str(path), str(out_dir), str(policy_path), args.seed)
        for index, path in enumerate(files)
    ]
    with _worker_pool(args.workers if len(tasks) > 1 else 1) as pool:
        t0 = time.perf_counter()
        results = _pool_map(_augment_task, tasks, pool)
        elapsed = time.perf_counter() - t0

    failures = [(name, err) for name, err in results if err]
    for name, err in failures:
        print(f"error: {name}: {err}", file=sys.stderr)
    done = len(results) - len(failures)
    manifest.add("views_written", 2 * done)
    manifest.add("failed", len(failures))
    manifest.add("images_per_second", f"{done / elapsed:.3f}" if elapsed > 0 else "inf")
    return EXIT_RUNTIME if failures else EXIT_OK


# ---------------------------------------------------------------------------
# soilbank
# ---------------------------------------------------------------------------

def _cmd_soilbank(args, manifest: Manifest) -> int:
    input_dir = Path(args.input)
    if not input_dir.is_dir():
        raise UsageError(f"input directory not found: {input_dir}")
    out_dir = Path(args.output)
    out_dir.mkdir(parents=True, exist_ok=True)

    admitted = []
    failures = 0
    for path in _sorted_ppms(input_dir):
        try:
            img = load_ppm(path.read_bytes())
        except CodecError as exc:
            print(f"error: {path.name}: {exc}", file=sys.stderr)
            failures += 1
            continue
        fraction = augment.vegetation_fraction(
            augment.refined_vegetation_mask(img, args.theta)
        )
        if fraction < args.max_fraction:
            (out_dir / path.name).write_bytes(path.read_bytes())
            admitted.append((path.name, fraction))

    index_lines = [f"{name} {fraction!r}" for name, fraction in admitted]
    (out_dir / "index.txt").write_text("\n".join(index_lines) + "\n" if index_lines else "")
    manifest.add("input", input_dir)
    manifest.add("output", out_dir)
    manifest.add("theta", args.theta)
    manifest.add("max_fraction", args.max_fraction)
    manifest.add("admitted", len(admitted))
    manifest.add("failed", failures)
    return EXIT_RUNTIME if failures else EXIT_OK


# ---------------------------------------------------------------------------
# pretrain
# ---------------------------------------------------------------------------

def _load_dataset(args, cfg: tinytrain.TrainConfig):
    if args.synthetic is not None:
        return tinytrain.make_synthetic_corpus(
            args.synthetic, size=cfg.input_size, seed=derive_seed(cfg.seed, 0xDA7A)
        )
    data_dir = Path(args.data)
    if not data_dir.is_dir():
        raise UsageError(f"data directory not found: {data_dir}")
    images = []
    for path in _sorted_ppms(data_dir):
        try:
            images.append(load_ppm(path.read_bytes()))
        except CodecError as exc:
            raise UsageError(f"{path}: {exc}") from exc
    return images


def _write_trace(path: Path, trace) -> None:
    rows = ["step,loss,diag_mean,offdiag_mean"]
    rows += [f"{s},{l!r},{d!r},{o!r}" for s, l, d, o in trace]
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("\n".join(rows) + "\n")


def _cmd_pretrain(args, manifest: Manifest) -> int:
    cfg = tinytrain.TrainConfig()
    if args.config:
        config_path = Path(args.config)
        if not config_path.is_file():
            raise UsageError(f"config file not found: {config_path}")
        try:
            cfg = tinytrain.load_train_config(config_path.read_text())
        except ValueError as exc:
            raise UsageError(f"{config_path}: {exc}") from exc
    if args.seed is not None:
        cfg.seed = args.seed

    policy_path = Path(args.policy)
    synthetic = args.synthetic is not None
    pol, bank = _load_policy_and_bank(policy_path, None, allow_missing_bank=synthetic)
    if synthetic and bank is None and any(
        e.name == "background_invariance" for e in pol.entries
    ):
        bank = _synthesize_bank(cfg.input_size, cfg.seed)

    dataset = _load_dataset(args, cfg)
    if len(dataset) < cfg.batch_size:
        raise UsageError(
            f"dataset has {len(dataset)} images, batch size is {cfg.batch_size}"
        )

    out_path = Path(args.out)
    trace_path = out_path.with_suffix(out_path.suffix + ".trace.csv")
    manifest.add("dataset_images", len(dataset))
    manifest.add("policy", policy_path)
    try:
        ckpt, trace = tinytrain.pretrain(dataset, pol, cfg, soil_bank=bank)
    except tinytrain.TrainingDiverged as exc:
        # keep the steps that ran; no checkpoint of a diverged model
        _write_trace(trace_path, exc.trace)
        manifest.add("trace_csv", trace_path)
        manifest.add("failed_step", exc.step)
        raise
    out_path.parent.mkdir(parents=True, exist_ok=True)
    out_path.write_bytes(tinytrain.save_checkpoint(ckpt))
    _write_trace(trace_path, trace)

    manifest.add("checkpoint", out_path)
    manifest.add("trace_csv", trace_path)
    manifest.add("steps", ckpt.step)
    for key, value in asdict(cfg).items():
        manifest.add(f"config.{key}", value)
    manifest.add("final_loss", trace[-1][1] if trace else "nan")
    if trace:
        print(f"pretrained {ckpt.step} steps, final loss {trace[-1][1]:.4f}")
    else:
        print("no steps run")
    return EXIT_OK


# ---------------------------------------------------------------------------
# gradcheck
# ---------------------------------------------------------------------------

def _cmd_gradcheck(args, manifest: Manifest) -> int:
    rng = RandomStream(args.seed)
    failed = False

    worst_loss = 0.0
    for trial in range(args.trials):
        n = 4 + rng.next_below(13)
        d = 2 + rng.next_below(7)
        z1 = rng.uniforms(n * d, -1.5, 1.5).reshape(n, d)
        z2 = rng.uniforms(n * d, -1.5, 1.5).reshape(n, d)
        err = twins.finite_diff_check(z1, z2, twins.DEFAULT_LAMBDA, h=1e-4)
        worst_loss = max(worst_loss, err)
        status = "ok" if err < LOSS_GRAD_TOL else "FAIL"
        failed |= status == "FAIL"
        print(f"loss-trial {trial} n={n} d={d} max_rel_err={err:.3e} {status}")

    model_trials = max(1, args.trials // 5)
    worst_model = 0.0
    for trial in range(model_trials):
        err = tinytrain.model_grad_check(
            n=4, input_size=6, embed_dim=4,
            seed=derive_seed(args.seed, 1000 + trial), sample_per_block=40,
        )
        worst_model = max(worst_model, err)
        status = "ok" if err < MODEL_GRAD_TOL else "FAIL"
        failed |= status == "FAIL"
        print(f"model-trial {trial} max_rel_err={err:.3e} {status}")

    manifest.add("trials", args.trials)
    manifest.add("model_trials", model_trials)
    manifest.add("worst_loss_err", f"{worst_loss:.3e}")
    manifest.add("worst_model_err", f"{worst_model:.3e}")
    manifest.add("loss_tolerance", LOSS_GRAD_TOL)
    manifest.add("model_tolerance", MODEL_GRAD_TOL)
    return EXIT_RUNTIME if failed else EXIT_OK


# ---------------------------------------------------------------------------
# bench
# ---------------------------------------------------------------------------

def _bench_task(task) -> None:
    in_path, policy_path, seed_override, index, only_entry = task
    pol, bank = _cached_policy(policy_path, seed_override)
    if only_entry is not None:
        entry = next(e for e in pol.entries if e.name == only_entry)
        pol = Policy(
            entries=[PolicyEntry(entry.name, 1.0, dict(entry.params))],
            master_seed=pol.master_seed,
            theta=pol.theta,
            soil_bank_path=pol.soil_bank_path,
        )
    img = load_ppm(Path(in_path).read_bytes())
    stream = RandomStream(derive_seed(pol.master_seed, index))
    apply_policy(img, pol, stream, soil_bank=bank)


def _cmd_bench(args, manifest: Manifest) -> int:
    input_dir = Path(args.input)
    if not input_dir.is_dir():
        raise UsageError(f"input directory not found: {input_dir}")
    policy_path = Path(args.policy)
    pol, _ = _cached_policy(str(policy_path), args.seed)
    files = _sorted_ppms(input_dir)
    if not files:
        raise UsageError(f"no .ppm images in {input_dir}")

    manifest.add("input", input_dir)
    manifest.add("images", len(files))
    manifest.add("workers", args.workers)
    manifest.add("repeat", args.repeat)

    stages = [e.name for e in pol.entries] + [None]
    print(f"benchmark: {len(files)} images, median of {args.repeat}, "
          f"workers={args.workers}")
    with _worker_pool(args.workers if len(files) > 1 else 1) as pool:
        for stage in stages:
            label = stage if stage is not None else "end_to_end"
            tasks = [
                (str(path), str(policy_path), args.seed, index, stage)
                for index, path in enumerate(files)
            ]
            times = []
            for _ in range(args.repeat):
                t0 = time.perf_counter()
                _pool_map(_bench_task, tasks, pool)
                times.append(time.perf_counter() - t0)
            median = statistics.median(times)
            rate = len(files) / median if median > 0 else float("inf")
            print(f"  {label:22s} {rate:10.2f} images/s  (median {median:.4f}s)")
            manifest.add(f"images_per_second.{label}", f"{rate:.3f}")
            manifest.add(f"median_seconds.{label}", f"{median:.6f}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# order sweep
# ---------------------------------------------------------------------------

def _cell_policy(base: Policy, names: tuple[str, ...]) -> Policy:
    by_name = {e.name: e for e in base.entries}
    entries = []
    for name in names:
        params = dict(by_name[name].params) if name in by_name else {}
        entries.append(PolicyEntry(name, 1.0, params))
    return Policy(
        entries=entries,
        master_seed=base.master_seed,
        theta=base.theta,
        soil_bank_path=base.soil_bank_path,
    )


def _run_cell(dataset, cell: Policy, bank, cfg: tinytrain.TrainConfig):
    ckpt, trace = tinytrain.pretrain(dataset, cell, cfg, soil_bank=bank)
    model = tinytrain.model_from_checkpoint(ckpt)
    probe_n = min(cfg.batch_size, len(dataset))
    views1, views2 = [], []
    for i in range(probe_n):
        v1, v2 = make_views(dataset[i], cell, 10 ** 9 + i, soil_bank=bank)
        views1.append(v1)
        views2.append(v2)
    c = tinytrain.probe_cross_corr(
        model,
        tinytrain.prepare_batch(views1, cfg.input_size),
        tinytrain.prepare_batch(views2, cfg.input_size),
    )
    return (
        trace[-1][1] if trace else float("nan"),
        twins.diag_mean(c),
        twins.offdiag_mean_abs(c),
    )


def _write_grid(path: Path, names, values: dict) -> None:
    header = "first\\second," + ",".join(names)
    rows = [header]
    for a in names:
        row = [a] + [f"{values[(a, b)]!r}" for b in names]
        rows.append(",".join(row))
    path.write_text("\n".join(rows) + "\n")


def _cmd_order_sweep(args, manifest: Manifest) -> int:
    if args.pairs == args.full:
        raise UsageError("exactly one of --pairs / --full is required")
    policy_path = Path(args.policy)
    synthetic = args.synthetic is not None
    base, bank = _load_policy_and_bank(policy_path, args.seed,
                                       allow_missing_bank=synthetic)

    cfg = tinytrain.TrainConfig(
        batch_size=args.batch,
        learning_rate=args.lr,
        lam=args.lam,
        epochs=10 ** 6,
        seed=base.master_seed,
        embed_dim=args.embed_dim,
        input_size=args.input_size,
        max_steps=args.steps,
    )
    if args.full and args.names:
        sweep_names = tuple(n.strip() for n in args.names.split(","))
        for n in sweep_names:
            if n not in AUGMENTATION_NAMES:
                raise UsageError(f"unknown augmentation {n!r} in --names")
    elif args.full:
        sweep_names = tuple(e.name for e in base.entries[:3])
    else:
        sweep_names = AUGMENTATION_NAMES

    dataset = _load_dataset(args, cfg)
    if len(dataset) < cfg.batch_size:
        raise UsageError(
            f"dataset has {len(dataset)} images, batch size is {cfg.batch_size}"
        )
    if bank is None and "background_invariance" in sweep_names:
        bank = _synthesize_bank(cfg.input_size, cfg.seed)

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    manifest.add("mode", "pairs" if args.pairs else "full")
    manifest.add("dataset_images", len(dataset))
    manifest.add("steps", args.steps)
    manifest.add("out_dir", out_dir)

    def proxy_of(loss, dmean, omean):
        return {"offdiag": omean, "loss": loss, "diag": dmean}[args.metric_proxy]

    cells_rows = ["order,loss,diag_mean,offdiag_mean"]
    if args.pairs:
        names = sweep_names
        loss_grid, diag_grid, off_grid = {}, {}, {}
        for a in names:
            for b in names:
                order = (a,) if a == b else (a, b)
                loss, dmean, omean = _run_cell(dataset, _cell_policy(base, order), bank, cfg)
                loss_grid[(a, b)] = loss
                diag_grid[(a, b)] = dmean
                off_grid[(a, b)] = omean
                cells_rows.append(f"{'+'.join(order)},{loss!r},{dmean!r},{omean!r}")
                print(f"cell {a:22s} -> {b:22s} {args.metric_proxy}="
                      f"{proxy_of(loss, dmean, omean):.4f}")
        _write_grid(out_dir / "grid_offdiag.csv", names, off_grid)
        _write_grid(out_dir / "grid_loss.csv", names, loss_grid)
        _write_grid(out_dir / "grid_diag.csv", names, diag_grid)
        manifest.add("cells", len(names) ** 2)
    else:
        count = 0
        for order in itertools.permutations(sweep_names):
            loss, dmean, omean = _run_cell(dataset, _cell_policy(base, order), bank, cfg)
            cells_rows.append(f"{'+'.join(order)},{loss!r},{dmean!r},{omean!r}")
            print(f"order {'+'.join(order)}: {args.metric_proxy}="
                  f"{proxy_of(loss, dmean, omean):.4f}")
            count += 1
        manifest.add("cells", count)
    (out_dir / "cells.csv").write_text("\n".join(cells_rows) + "\n")
    return EXIT_OK


# ---------------------------------------------------------------------------
# eval
# ---------------------------------------------------------------------------

def _paired_names(pred_dir: Path, gt_dir: Path, pattern: str) -> list[str]:
    pred_names = {p.name for p in pred_dir.glob(pattern)}
    gt_names = {p.name for p in gt_dir.glob(pattern)}
    if pred_names != gt_names:
        only_pred = sorted(pred_names - gt_names)[:3]
        only_gt = sorted(gt_names - pred_names)[:3]
        raise UsageError(
            f"prediction/ground-truth mismatch (pred-only {only_pred}, gt-only {only_gt})"
        )
    if not pred_names:
        raise UsageError(f"no files matching {pattern} under {pred_dir}")
    return sorted(pred_names)


def _emit_metrics(values: list[tuple[str, float]], csv_path: str | None,
                  manifest: Manifest) -> None:
    for key, value in values:
        print(f"{key} = {value:.6f}")
        manifest.add(key, f"{value!r}")
    csv_text = "metric,value\n" + "\n".join(f"{k},{v!r}" for k, v in values) + "\n"
    if csv_path:
        Path(csv_path).write_text(csv_text)
    else:
        sys.stdout.write(csv_text)


def _cmd_eval(args, manifest: Manifest) -> int:
    pred_dir = Path(args.pred)
    gt_dir = Path(args.gt)
    for d in (pred_dir, gt_dir):
        if not d.is_dir():
            raise UsageError(f"directory not found: {d}")
    manifest.add("task", args.task)
    manifest.add("pred", pred_dir)
    manifest.add("gt", gt_dir)

    if args.task == "semantic":
        total = np.zeros((metrics.NUM_CLASSES, metrics.NUM_CLASSES), dtype=np.int64)
        for name in _paired_names(pred_dir, gt_dir, "*.pgm"):
            pred = metrics.load_label_map((pred_dir / name).read_bytes())
            gt = metrics.load_label_map((gt_dir / name).read_bytes())
            total += metrics.confusion_matrix(pred, gt)
        ious = metrics.per_class_iou(total)
        values = [("miou", metrics.miou(total))]
        values += [
            (f"iou.{cls}", float(ious[i]))
            for i, cls in enumerate(metrics.CLASS_NAMES)
            if not math.isnan(ious[i])
        ]
        values += [
            ("mean_precision", metrics.mean_precision(total)),
            ("mean_recall", metrics.mean_recall(total)),
        ]
        _emit_metrics(values, args.csv, manifest)
        return EXIT_OK

    # instance task: either one set per directory, or matching subdirectories
    pred_subdirs = sorted(p.name for p in pred_dir.iterdir() if p.is_dir())
    if pred_subdirs:
        gt_subdirs = sorted(p.name for p in gt_dir.iterdir() if p.is_dir())
        if pred_subdirs != gt_subdirs:
            raise UsageError("instance subdirectories do not match between pred and gt")
        pairs = [(pred_dir / n, gt_dir / n) for n in pred_subdirs]
    else:
        pairs = [(pred_dir, gt_dir)]
    aps, ars, dics = [], [], []
    for pred_set_dir, gt_set_dir in pairs:
        pred_masks, pred_scores = metrics.load_instance_set(pred_set_dir)
        gt_masks, _ = metrics.load_instance_set(gt_set_dir)
        ap, ar = metrics.instance_ap_ar(
            pred_masks, gt_masks, pred_scores, iou_threshold=args.iou_threshold
        )
        aps.append(ap)
        ars.append(ar)
        dics.append(metrics.abs_dic(len(pred_masks), len(gt_masks)))
    values = [
        ("ap", float(np.mean(aps))),
        ("ar", float(np.mean(ars))),
        ("abs_dic", float(np.mean(dics))),
    ]
    manifest.add("image_pairs", len(pairs))
    _emit_metrics(values, args.csv, manifest)
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser / dispatch
# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fieldaug",
        description="Deterministic field-image augmentation, desk-scale "
                    "self-supervised pretraining, and segmentation metrics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("augment", help="write two augmented views per input image")
    p.add_argument("--input", required=True, help="directory of .ppm images")
    p.add_argument("--output", required=True, help="output directory for view files")
    p.add_argument("--policy", required=True, help="policy config file")
    p.add_argument("--seed", type=int, default=None, help="override the policy master seed")
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--manifest", default=None)
    p.set_defaults(handler=_cmd_augment)

    p = sub.add_parser("soilbank", help="filter images into a low-vegetation soil bank")
    p.add_argument("--input", required=True)
    p.add_argument("--output", required=True)
    p.add_argument("--theta", type=float, default=0.0)
    p.add_argument("--max-fraction", type=float, default=augment.SOIL_MAX_FRACTION)
    p.add_argument("--manifest", default=None)
    p.set_defaults(handler=_cmd_soilbank)

    p = sub.add_parser("pretrain", help="run the desk-scale self-supervised loop")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--data", help="directory of .ppm images")
    group.add_argument("--synthetic", type=int,
                       help="generate this many synthetic plant images instead "
                            "(also synthesizes a soil bank if the policy names none)")
    p.add_argument("--policy", required=True)
    p.add_argument("--config", default=None, help="TrainConfig key=value file")
    p.add_argument("--out", required=True, help="checkpoint output path")
    p.add_argument("--seed", type=int, default=None, help="override config seed")
    p.add_argument("--manifest", default=None)
    p.set_defaults(handler=_cmd_pretrain)

    p = sub.add_parser("gradcheck", help="verify analytic gradients against finite differences")
    p.add_argument("--trials", type=int, default=20)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--manifest", default=None)
    p.set_defaults(handler=_cmd_gradcheck)

    p = sub.add_parser("bench", help="measure augmentation throughput")
    p.add_argument("--input", required=True)
    p.add_argument("--policy", required=True)
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--repeat", type=int, default=3)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--manifest", default=None)
    p.set_defaults(handler=_cmd_bench)

    p = sub.add_parser("order-sweep",
                       help="train one short run per augmentation ordering and "
                            "report proxy objectives (not the reference mIoU)")
    p.add_argument("--pairs", action="store_true",
                   help="all ordered pairs plus single-augmentation diagonal (6x6 grid)")
    p.add_argument("--full", action="store_true",
                   help="all permutations of --names (default: first 3 policy entries)")
    p.add_argument("--names", default=None, help="comma list of augmentations for --full")
    p.add_argument("--policy", required=True)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--data")
    group.add_argument("--synthetic", type=int)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--steps", type=int, default=30)
    p.add_argument("--batch", type=int, default=16)
    p.add_argument("--embed-dim", type=int, default=8)
    p.add_argument("--input-size", type=int, default=16)
    p.add_argument("--lr", type=float, default=0.1)
    p.add_argument("--lam", type=float, default=0.2)
    p.add_argument("--metric-proxy", choices=("offdiag", "loss", "diag"),
                   default="offdiag",
                   help="proxy highlighted in the per-cell summary lines")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--manifest", default=None)
    p.set_defaults(handler=_cmd_order_sweep)

    p = sub.add_parser("eval", help="evaluate predictions against ground truth")
    p.add_argument("--task", choices=("semantic", "instance"), required=True)
    p.add_argument("--pred", required=True)
    p.add_argument("--gt", required=True)
    p.add_argument("--iou-threshold", type=float, default=0.5)
    p.add_argument("--csv", default=None, help="write the CSV here instead of stdout")
    p.add_argument("--manifest", default=None)
    p.set_defaults(handler=_cmd_eval)

    return parser


def _default_manifest_path(args) -> Path:
    if getattr(args, "manifest", None):
        return Path(args.manifest)
    if args.command == "augment" or args.command == "soilbank":
        return Path(str(Path(args.output)) + ".manifest.txt")
    if args.command == "pretrain":
        return Path(str(Path(args.out)) + ".manifest.txt")
    if args.command == "order-sweep":
        return Path(args.out_dir) / "manifest.txt"
    return Path(f"{args.command}.manifest.txt")


def main(argv: list[str] | None = None) -> int:
    _keep_freed_memory()
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = _build_parser()
    args = parser.parse_args(argv)
    manifest = Manifest(args.command, argv)
    manifest_path = _default_manifest_path(args)
    try:
        code = args.handler(args, manifest)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        manifest.write(manifest_path, "error", str(exc))
        return EXIT_USAGE
    except Exception as exc:  # noqa: BLE001 - manifest must record any failure
        print(f"error: {exc}", file=sys.stderr)
        manifest.write(manifest_path, "error", f"{type(exc).__name__}: {exc}")
        return EXIT_RUNTIME
    manifest.write(manifest_path, "ok" if code == EXIT_OK else "error")
    return code


if __name__ == "__main__":
    raise SystemExit(main())
