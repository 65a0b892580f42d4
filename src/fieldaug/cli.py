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
import functools
import itertools
import math
import os
import sys
import time
from dataclasses import asdict
from pathlib import Path

import numpy as np

# tinytrain (with twins) loads with cli, so every module perfbench's traced
# repeats wrap is loaded by `import fieldaug.cli`; metrics, statistics and
# the process pool are imported where they run
from . import augment, tinytrain, twins
from .imagecore import CodecError, load_ppm, save_ppm
from .policy import (
    AUGMENTATION_NAMES,
    Plan,
    Policy,
    PolicyEntry,
    compile_policy,
    load_policy,
    make_views,
)
from .rng import RandomStream, derive_seed

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_USAGE = 2

LOSS_GRAD_TOL = 1e-4
MODEL_GRAD_TOL = 1e-3


class UsageError(Exception):
    """Bad flags or configuration; maps to exit code 2."""


@contextlib.contextmanager
def _usage(prefix: str = ""):
    """Re-raise a ``ValueError`` from the block as a ``UsageError`` after ``prefix``."""
    try:
        yield
    except ValueError as exc:
        raise UsageError(prefix + str(exc)) from exc


# ---------------------------------------------------------------------------
# manifests
# ---------------------------------------------------------------------------

# a backslash and str.splitlines' line breaks, escaped: a value keeps its line
_ESCAPES = {ord(c): c.encode("unicode_escape").decode()
            for c in "\\\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"}


@functools.cache
def _openblas_probes():
    """The core-name and thread-count functions of the OpenBLAS numpy
    loaded, or None where they cannot be found: in numpy's wheel, the
    scipy-openblas library in ``numpy.libs``."""
    libs = Path(np.__file__).parent.parent / "numpy.libs"
    try:
        name = min(n for n in os.listdir(libs) if n.startswith("libscipy_openblas64_"))
        lib = ctypes.CDLL(str(libs / name))
        probes = lib.scipy_openblas_get_corename64_, lib.scipy_openblas_get_num_threads64_
    except (OSError, ValueError, AttributeError):  # no directory, library or function
        return None
    for probe, restype in zip(probes, (ctypes.c_char_p, ctypes.c_int)):
        probe.argtypes, probe.restype = (), restype
    return probes


def _numeric_environment() -> list[tuple[str, str]]:
    """numpy's version, its BLAS's name and version, and the core and
    thread count that OpenBLAS reports, each "unknown" where it cannot be
    read. Training bytes depend on the core; view bytes do not. numpy's
    build configuration names the core OpenBLAS was built for, not the one
    it picked at load, so the core is asked of the library."""
    core = threads = "unknown"
    if (probes := _openblas_probes()) is not None:
        corename, num_threads = probes
        core, threads = corename().decode(), str(num_threads())
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return [
        ("numpy_version", np.__version__),
        ("blas", " ".join(str(blas[k]) for k in ("name", "version") if blas.get(k)) or "unknown"),
        ("blas_core", core),
        ("blas_threads", threads),
    ]


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
        lines = [f"{k}={v.translate(_ESCAPES)}" for k, v in self.pairs]
        lines.append(f"status={status}")
        if error:
            lines.append(f"error={error.translate(_ESCAPES)}")
        lines.append(f"wall_seconds={time.perf_counter() - self._t0:.6f}")
        _write_files({path: ("\n".join(lines) + "\n").encode()})


# ---------------------------------------------------------------------------
# shared helpers
# ---------------------------------------------------------------------------

def _write_files(files: dict) -> None:
    """Write each path's bytes to a temp file beside it, in its directory
    (made if missing), then rename every temp into place, so a failure
    leaves neither a partial file nor a temp file behind. Every file the
    CLI writes goes through here."""
    temps = {path: path.with_name(f".{path.name}.{os.getpid()}.tmp") for path in files}
    try:
        for directory in {path.parent for path in files}:
            directory.mkdir(parents=True, exist_ok=True)
        for path, data in files.items():
            temps[path].write_bytes(data)
        for path, temp in temps.items():
            os.replace(temp, path)
    finally:
        for temp in temps.values():
            temp.unlink(missing_ok=True)


def _load(path: Path, decode, what: str):
    """``decode`` of the bytes in the file at ``path``. A missing file, or
    a path that is not a regular file, is a usage error naming ``what``,
    and a ``ValueError`` from ``decode`` one naming the path."""
    if not path.is_file():
        fault = "is not a regular file" if path.exists() else "not found"
        raise UsageError(f"{what} {fault}: {path}")
    with _usage(f"{path}: "):
        return decode(path.read_bytes())


def _load_run_policy(policy_path: Path, seed_override: int | None) -> tuple[Policy, Plan]:
    """A policy file and its plan, compiled once, with ``--seed`` replacing
    its master seed when given; loading checked all but the seed."""
    pol = _load(policy_path, load_policy, "policy file")
    if seed_override is not None:
        pol.master_seed = seed_override
    with _usage("--seed: "):
        return pol, compile_policy(pol)


def _soil_bank(policy_path: Path, pol: Policy, needed: bool):
    """The soil bank of a run: None unless it is ``needed``; else the
    directory the policy names, relative to the policy file; else a usage
    error."""
    if not needed:
        return None
    if not pol.soil_bank_path:
        raise UsageError(f"{policy_path}: policy uses background_invariance but sets no soil_bank")
    bank_dir = Path(pol.soil_bank_path)
    if not bank_dir.is_absolute():
        bank_dir = policy_path.parent / bank_dir
    images = _read_ppms(bank_dir)
    if not images:
        raise UsageError(f"soil bank {bank_dir} has no .ppm images")
    bank = augment.build_soil_bank(images, pol.theta)
    if len(bank) == 0:
        raise UsageError(f"soil bank {bank_dir} admitted no images: no image has a vegetation "
                         f"fraction below {augment.SOIL_MAX_FRACTION} at theta {pol.theta}")
    return bank


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


# The plans, by bench stage (None for the whole policy), and the soil bank
# of the command whose tasks run in this process; see _worker_pool.
_RUN: dict = {}


def _start_worker(plans: dict, bank) -> None:
    _keep_freed_memory()
    _RUN.update(plans=plans, bank=bank)


@contextlib.contextmanager
def _worker_pool(workers: int, plans: dict, bank):
    """A process pool whose workers have all been started and hold
    ``plans`` and ``bank`` for the tasks, or None when the tasks run in
    this process, which then holds them until the pool closes. Timed
    regions use the pool after this returns, so they exclude pool
    start-up. Workers started by forkserver or spawn do not inherit the
    parent's allocator settings, so each one sets them again; this
    process's settings are left as they are."""
    if workers <= 1:
        _RUN.update(plans=plans, bank=bank)
        try:
            yield None
        finally:
            _RUN.clear()
        return
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=workers, initializer=_start_worker,
                             initargs=(plans, bank)) as pool:
        list(pool.map(_started, range(workers)))
        yield pool


def _pool_map(fn, tasks: list, pool) -> list:
    if pool is None:
        return [fn(t) for t in tasks]
    return list(pool.map(fn, tasks))


def _check_directory(path: Path) -> None:
    """A usage error naming ``path`` unless it is a directory."""
    if not path.is_dir():
        raise UsageError(f"not a directory: {path}" if path.exists()
                         else f"directory not found: {path}")


def _sorted_ppms(directory: Path) -> list[Path]:
    """The .ppm files in ``directory``, by name; a path that is not a
    directory is a usage error naming it."""
    _check_directory(directory)
    return sorted(directory.glob("*.ppm"), key=lambda p: p.name)


def _read_ppms(directory: Path) -> list[np.ndarray]:
    """Every .ppm image in ``directory``, by name; an unreadable image is
    a usage error naming it."""
    return [_load(path, load_ppm, "image") for path in _sorted_ppms(directory)]


def _image_run(args, manifest: Manifest):
    """The set-up ``augment`` and ``bench`` share: the ``--input`` files,
    the policy and its plan, the soil bank and the worker count."""
    input_dir = Path(args.input)
    files = _sorted_ppms(input_dir)
    policy_path = Path(args.policy)
    pol, plan = _load_run_policy(policy_path, args.seed)
    bank = _soil_bank(policy_path, pol, plan.needs_bank)
    # worker processes worth starting: no more than the inputs or CPUs
    workers = min(args.workers, len(files), os.cpu_count() or 1)
    manifest.add("input", input_dir)
    manifest.add("images", len(files))
    manifest.add("workers", args.workers)
    manifest.add("workers_used", workers)
    manifest.add("policy", policy_path)
    manifest.add("master_seed", plan.master_seed)
    return files, pol, plan, bank, workers


# ---------------------------------------------------------------------------
# augment
# ---------------------------------------------------------------------------

def _augment_task(task) -> tuple[str, str]:
    """Views for one input file; any failure is returned as a message
    against the file instead of stopping the other inputs."""
    index, in_path, out_dir = task
    in_path = Path(in_path)
    try:
        img = load_ppm(in_path.read_bytes())
        views = make_views(img, _RUN["plans"][None], index, soil_bank=_RUN["bank"])
        _write_files({
            Path(out_dir) / f"{in_path.stem}.v{k}.ppm": save_ppm(view)
            for k, view in enumerate(views, start=1)
        })
    except Exception as exc:  # noqa: BLE001 - reported per file, exit 1
        return in_path.name, f"{type(exc).__name__}: {exc}"
    return in_path.name, ""


def _cmd_augment(args, manifest: Manifest) -> int:
    files, _, plan, bank, workers = _image_run(args, manifest)
    out_dir = Path(args.output)
    manifest.add("output", out_dir)
    if not files:
        manifest.add("views_written", 0)
        return EXIT_OK

    tasks = [(index, str(path), str(out_dir)) for index, path in enumerate(files)]
    with _worker_pool(workers, {None: plan}, bank) as pool:
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
    files = _sorted_ppms(input_dir)
    out_dir = Path(args.output)

    admitted = []
    failures = 0
    for path in files:
        data = path.read_bytes()
        try:
            img = load_ppm(data)
        except CodecError as exc:
            print(f"error: {path.name}: {exc}", file=sys.stderr)
            failures += 1
            continue
        fraction = augment.vegetation_fraction(
            augment.refined_vegetation_mask(img, args.theta)
        )
        if fraction < args.max_fraction:
            _write_files({out_dir / path.name: data})
            admitted.append((path.name, fraction))

    index_lines = [f"{name} {fraction!r}\n" for name, fraction in admitted]
    _write_files({out_dir / "index.txt": "".join(index_lines).encode()})
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

def _training_inputs(args, policy_path: Path, pol: Policy, needs_bank: bool,
                     cfg: tinytrain.TrainConfig):
    """The soil bank and the images of a training run, at least a batch of
    them. A ``--synthetic`` run synthesizes its images, and its bank where
    the policy needs one and names none, at the config's input size and
    seed; a ``--data`` run reads its images from that directory."""
    if args.synthetic is not None and needs_bank and not pol.soil_bank_path:
        bank = augment.build_soil_bank(tinytrain.make_synthetic_soil(
            32, size=cfg.input_size, seed=derive_seed(cfg.seed, 0xBA9C)))
        if len(bank) == 0:
            raise RuntimeError("synthetic soil generation admitted no images")
    else:
        bank = _soil_bank(policy_path, pol, needs_bank)
    if args.synthetic is not None:
        images = tinytrain.make_synthetic_corpus(
            args.synthetic, size=cfg.input_size, seed=derive_seed(cfg.seed, 0xDA7A))
    else:
        images = _read_ppms(Path(args.data))
    if len(images) < cfg.batch_size:
        raise UsageError(f"dataset has {len(images)} images, batch size is {cfg.batch_size}")
    return bank, images


def _write_trace(path: Path, trace) -> None:
    rows = ["step,loss,diag_mean,offdiag_mean"]
    rows += [f"{s},{l!r},{d!r},{o!r}" for s, l, d, o in trace]
    _write_files({path: ("\n".join(rows) + "\n").encode()})


def _cmd_pretrain(args, manifest: Manifest) -> int:
    cfg = tinytrain.TrainConfig()
    if args.config:
        cfg = _load(Path(args.config), tinytrain.load_train_config, "config file")
    if args.seed is not None:
        cfg.seed = args.seed
        with _usage("--seed: "):
            cfg.validate()

    policy_path = Path(args.policy)
    pol, plan = _load_run_policy(policy_path, None)
    bank, dataset = _training_inputs(args, policy_path, pol, plan.needs_bank, cfg)

    out_path = Path(args.out)
    trace_path = out_path.with_suffix(out_path.suffix + ".trace.csv")
    manifest.add("dataset_images", len(dataset))
    manifest.add("policy", policy_path)
    try:
        ckpt, trace = tinytrain.pretrain(dataset, plan, cfg, soil_bank=bank)
    except tinytrain.TrainingDiverged as exc:
        # keep the steps that ran; no checkpoint of a diverged model, nor
        # an earlier run's that the new trace does not describe
        out_path.unlink(missing_ok=True)
        _write_trace(trace_path, exc.trace)
        manifest.add("trace_csv", trace_path)
        manifest.add("failed_step", exc.step)
        raise
    _write_files({out_path: tinytrain.save_checkpoint(ckpt)})
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
    with _usage("--seed: "):
        tinytrain.TrainConfig(seed=args.seed).validate()  # a training seed's rule
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
    in_path, index, stage = task
    plan = _RUN["plans"][stage]
    make_views(load_ppm(Path(in_path).read_bytes()), plan, index, _RUN["bank"])


def _cmd_bench(args, manifest: Manifest) -> int:
    import statistics

    files, pol, plan, bank, workers = _image_run(args, manifest)
    if not files:
        raise UsageError(f"no .ppm images in {args.input}")
    # a bad input fails here, naming it; the timed tasks decode again
    for path in files:
        _load(path, load_ppm, "image")
    manifest.add("repeat", args.repeat)

    plans = {e.name: _cell_policy(pol, (e.name,)) for e in plan.entries}
    plans[None] = plan
    print(f"benchmark: {len(files)} images, median of {args.repeat}, "
          f"workers={workers}")
    with _worker_pool(workers, plans, bank) as pool:
        for stage in plans:
            label = stage if stage is not None else "end_to_end"
            tasks = [(str(path), index, stage) for index, path in enumerate(files)]
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

def _cell_policy(base: Policy, names: tuple[str, ...]) -> Plan:
    """The plan that runs ``names`` in order, always, with the overrides
    ``base`` gives them."""
    by_name = {e.name: e for e in base.entries}
    entries = []
    for name in names:
        params = dict(by_name[name].params) if name in by_name else {}
        entries.append(PolicyEntry(name, 1.0, params))
    return compile_policy(Policy(
        entries=entries,
        master_seed=base.master_seed,
        theta=base.theta,
        soil_bank_path=base.soil_bank_path,
    ))


def _run_cell(dataset, cell: Plan, bank, cfg: tinytrain.TrainConfig):
    ckpt, trace = tinytrain.pretrain(dataset, cell, cfg, soil_bank=bank)
    probe_n = min(cfg.batch_size, len(dataset))
    c = tinytrain.probe_cross_corr(
        tinytrain.model_from_checkpoint(ckpt),
        *tinytrain.view_batches(dataset[:probe_n], cell, range(10 ** 9, 10 ** 9 + probe_n),
                                cfg.input_size, bank),
    )
    return (
        trace[-1][1] if trace else float("nan"),
        twins.diag_mean(c),
        twins.offdiag_mean_abs(c),
    )


def _cmd_order_sweep(args, manifest: Manifest) -> int:
    if args.pairs == args.full:
        raise UsageError("exactly one of --pairs / --full is required")
    if args.pairs and args.names is not None:
        raise UsageError("--names applies to --full only; --pairs sweeps all six")
    policy_path = Path(args.policy)
    base, _ = _load_run_policy(policy_path, args.seed)
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
    with _usage():
        cfg.validate()
    if args.names is not None:
        sweep_names = tuple(n.strip() for n in args.names.split(","))
    elif args.full:
        sweep_names = tuple(e.name for e in base.entries[:3])
    else:
        sweep_names = AUGMENTATION_NAMES
    if not sweep_names:
        raise UsageError(f"{policy_path}: policy has no entries to sweep; name them in --names")
    with _usage("--names: "):
        swept = _cell_policy(base, sweep_names)
    bank, dataset = _training_inputs(args, policy_path, base, swept.needs_bank, cfg)

    out_dir = Path(args.out_dir)
    manifest.add("mode", "pairs" if args.pairs else "full")
    manifest.add("dataset_images", len(dataset))
    manifest.add("steps", args.steps)
    manifest.add("out_dir", out_dir)

    # each order to run, with the label of its summary line
    if args.pairs:
        # the single-augmentation cell sits on the grid's diagonal
        orders = {(a,) if a == b else (a, b): f"cell {a:22s} -> {b:22s}"
                  for a in sweep_names for b in sweep_names}
    else:
        orders = {o: f"order {'+'.join(o)}:" for o in itertools.permutations(sweep_names)}
    cells = {}
    for order, label in orders.items():
        cells[order] = _run_cell(dataset, _cell_policy(base, order), bank, cfg)
        print(label + " loss={:.4f} diag={:.4f} offdiag={:.4f}".format(*cells[order]))
    tables = {"cells.csv": ["order,loss,diag_mean,offdiag_mean"]}
    tables["cells.csv"] += [f"{'+'.join(o)}," + ",".join(map(repr, cell))
                            for o, cell in cells.items()]
    if args.pairs:
        # row a, column b holds the cell that runs a, then b
        by_pair = {(o[0], o[-1]): cell for o, cell in cells.items()}
        for column, name in enumerate(("loss", "diag", "offdiag")):
            rows = ["first\\second," + ",".join(sweep_names)]
            rows += [",".join([a] + [f"{by_pair[a, b][column]!r}" for b in sweep_names])
                     for a in sweep_names]
            tables[f"grid_{name}.csv"] = rows
    _write_files({out_dir / name: ("\n".join(rows) + "\n").encode()
                  for name, rows in tables.items()})
    manifest.add("cells", len(cells))
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
        _write_files({Path(csv_path): csv_text.encode()})
    else:
        sys.stdout.write(csv_text)


def _cmd_eval(args, manifest: Manifest) -> int:
    from . import metrics

    pred_dir = Path(args.pred)
    gt_dir = Path(args.gt)
    for d in (pred_dir, gt_dir):
        _check_directory(d)
    manifest.add("task", args.task)
    manifest.add("pred", pred_dir)
    manifest.add("gt", gt_dir)

    if args.task == "semantic":
        total = np.zeros((metrics.NUM_CLASSES, metrics.NUM_CLASSES), dtype=np.int64)
        for name in _paired_names(pred_dir, gt_dir, "*.pgm"):
            pred = _load(pred_dir / name, metrics.load_label_map, "label map")
            gt = _load(gt_dir / name, metrics.load_label_map, "label map")
            with _usage(f"{pred_dir / name}: "):  # the shapes differ
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
        with _usage():
            pred_masks, pred_scores = metrics.load_instance_set(pred_set_dir)
            gt_masks, _ = metrics.load_instance_set(gt_set_dir)
        with _usage(f"{pred_set_dir}: "):  # the sets' mask shapes differ
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

def _at_least_one(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid integer {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _finite(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid number {text!r}") from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be finite, got {text}")
    return value


def _fraction(text: str) -> float:
    value = _finite(text)
    if not 0 < value <= 1:
        raise argparse.ArgumentTypeError(f"must be in (0, 1], got {value}")
    return value


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fieldaug",
        description="Deterministic field-image augmentation, desk-scale "
                    "self-supervised pretraining, and segmentation metrics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # options several subcommands share, each defined once
    manifest = argparse.ArgumentParser(add_help=False)
    manifest.add_argument("--manifest", default=None)
    policy_run = argparse.ArgumentParser(add_help=False)
    policy_run.add_argument("--policy", required=True, help="policy config file")
    policy_run.add_argument("--seed", type=int, default=None,
                            help="override the policy master seed")
    images = argparse.ArgumentParser(add_help=False)
    images.add_argument("--input", required=True, help="directory of .ppm images")
    images.add_argument("--workers", type=_at_least_one, default=1)
    training = argparse.ArgumentParser(add_help=False)
    group = training.add_mutually_exclusive_group(required=True)
    group.add_argument("--data", help="directory of .ppm images")
    group.add_argument("--synthetic", type=_at_least_one,
                       help="generate this many synthetic plant images instead "
                            "(also synthesizes a soil bank if the policy names none)")

    def command(name, handler, summary, parents=()):
        """A subcommand that takes ``--manifest`` and runs ``handler``."""
        p = sub.add_parser(name, help=summary, parents=[*parents, manifest])
        p.set_defaults(handler=handler)
        return p

    p = command("augment", _cmd_augment, "write two augmented views per input image",
                [images, policy_run])
    p.add_argument("--output", required=True, help="output directory for view files")

    p = command("soilbank", _cmd_soilbank, "filter images into a low-vegetation soil bank")
    p.add_argument("--input", required=True)
    p.add_argument("--output", required=True)
    p.add_argument("--theta", type=_finite, default=0.0)
    p.add_argument("--max-fraction", type=_fraction, default=augment.SOIL_MAX_FRACTION)

    p = command("pretrain", _cmd_pretrain, "run the desk-scale self-supervised loop", [training])
    p.add_argument("--policy", required=True)
    p.add_argument("--config", default=None, help="TrainConfig key=value file")
    p.add_argument("--out", required=True, help="checkpoint output path")
    p.add_argument("--seed", type=int, default=None, help="override config seed")

    p = command("gradcheck", _cmd_gradcheck,
                "verify analytic gradients against finite differences")
    p.add_argument("--trials", type=_at_least_one, default=20)
    p.add_argument("--seed", type=int, default=0)

    p = command("bench", _cmd_bench, "measure augmentation throughput", [images, policy_run])
    p.add_argument("--repeat", type=_at_least_one, default=3)

    p = command("order-sweep", _cmd_order_sweep,
                "train one short run per augmentation ordering and report proxy "
                "objectives (not the reference mIoU)", [policy_run, training])
    p.add_argument("--pairs", action="store_true",
                   help="all ordered pairs plus single-augmentation diagonal (6x6 grid)")
    p.add_argument("--full", action="store_true",
                   help="all permutations of --names (default: first 3 policy entries)")
    p.add_argument("--names", default=None, help="comma list of augmentations (--full only)")
    p.add_argument("--out-dir", required=True)
    p.add_argument("--steps", type=int, default=30)
    p.add_argument("--batch", type=int, default=16)
    p.add_argument("--embed-dim", type=int, default=8)
    p.add_argument("--input-size", type=int, default=16)
    p.add_argument("--lr", type=float, default=0.1)
    p.add_argument("--lam", type=float, default=0.2)

    p = command("eval", _cmd_eval, "evaluate predictions against ground truth")
    p.add_argument("--task", choices=("semantic", "instance"), required=True)
    p.add_argument("--pred", required=True)
    p.add_argument("--gt", required=True)
    p.add_argument("--iou-threshold", type=_fraction, default=0.5)
    p.add_argument("--csv", default=None, help="write the CSV here instead of stdout")

    return parser


def _default_manifest_path(args) -> Path:
    if args.manifest:
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
        code, error = args.handler(args, manifest), ""
    except UsageError as exc:
        code, error = EXIT_USAGE, str(exc)
        print(f"error: {exc}", file=sys.stderr)
    except Exception as exc:  # noqa: BLE001 - manifest must record any failure
        code, error = EXIT_RUNTIME, f"{type(exc).__name__}: {exc}"
        print(f"error: {exc}", file=sys.stderr)
    if code != EXIT_USAGE:  # a run rejected at its checks computed nothing
        for key, value in _numeric_environment():
            manifest.add(key, value)
    try:
        manifest.write(manifest_path, "ok" if code == EXIT_OK else "error", error)
    except OSError as exc:
        print(f"error: manifest {manifest_path} not written: {exc}", file=sys.stderr)
        return code or EXIT_RUNTIME
    return code


if __name__ == "__main__":
    raise SystemExit(main())
