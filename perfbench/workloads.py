"""The four fieldaug benchmark workloads, one step of a run per process.

Run as a script, this file performs one step of a benchmark run and prints
one JSON line as the last line of its standard output::

    python3 perfbench/workloads.py '{"action": "prepare", "workload": ..., "seed": 0, "dir": ...}'
    python3 perfbench/workloads.py '{"action": "repeat", "mode": "plain", ...}'

``prepare`` writes the seeded inputs of a CLI workload and warms the
bytecode cache. ``repeat`` runs one timed repeat: set-up, then the timed
calls through a public entry point, then the output digests. Every repeat
runs in a fresh process, so set-up includes the import and the one timed
CLI call is the first in its process: ``cli`` caches a loaded policy and
soil bank between in-process calls, which a user running the command never
benefits from. ``tinytrain.pretrain`` keeps no state between calls, so a
pretrain repeat makes several short timed calls after one set-up, which
gives more throughput samples per run; it makes no call that would end
after the run's measuring time (``end_at``).

Modes of a repeat:

- ``plain``: no tracing; times each timed call for the end-to-end metrics,
  cut into segments by the returns of a few functions (see ``MARKS``).
- ``traced``: wraps public functions of every module (see ``SPANS``) and
  returns per-layer times, calls and bytes per unit of work, plus model
  probes and the cost of one RNG draw.
- ``count``: counts RNG draws, stream initialisations and policy gates
  with per-call wrappers, in a pass that is not timed.

The tests call these functions in-process with smaller sizes.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import re
import resource
import statistics
import sys
import time
from collections import Counter
from pathlib import Path

import spans as spanlib

HERE = Path(__file__).resolve().parent

WORKLOADS = ("pretrain-desk", "pretrain-plain", "augment-field", "soilbank-field")
DEFAULT_SEED = 0

# Work done by one repeat. Fixed, not scaled by time, so that the pinned
# digests describe the same work on every run.
SIZES = {
    # criterion-3 config: 512 images of 16 px, batch 64, lr 0.4, lambda 0.25
    # "calls" pretrain calls run one after another in each repeat's process
    "pretrain-desk": {"corpus": 512, "size": 16, "soil": 24, "batch": 64, "steps": 8, "calls": 8},
    "pretrain-plain": {"corpus": 512, "size": 16, "soil": 24, "batch": 64, "steps": 100, "calls": 4},
    # 16 px soil: at 128 px the per-pixel soil noise survives refinement
    # and no candidate is admitted
    "augment-field": {"images": 8, "size": 128, "soil": 32, "soil_size": 16},
    "soilbank-field": {"soil": 12, "plants": 12, "size": 512},
}

# policy entry names, and the augment functions that implement them
AUGMENTATIONS = (
    "affine", "color_jitter", "gaussian_blur", "mixing", "random_erasing",
    "background_invariance",
)
AUGMENT_FUNCTIONS = (
    "apply_affine", "color_jitter", "gaussian_blur", "mixing", "random_erasing",
    "background_invariance",
)

# (span name, module, attribute, byte count of one call or None)
SPANS = (
    ("policy.make_views", "policy", "make_views", None),
    ("policy.apply_policy", "policy", "apply_policy", None),
    *((f"augment.{name}", "augment", name, None) for name in AUGMENT_FUNCTIONS),
    ("augment.build_soil_bank", "augment", "build_soil_bank", None),
    ("vegmask.refine_mask", "vegmask", "refine_mask", None),
    ("vegmask.excess_green", "vegmask", "excess_green", None),
    ("imagecore.normalize_image", "imagecore", "normalize_image", None),
    ("imagecore.load_ppm", "imagecore", "load_ppm", lambda args, result: len(args[0])),
    ("imagecore.save_ppm", "imagecore", "save_ppm", lambda args, result: len(result)),
    ("imagecore.bilinear_resize", "imagecore", "bilinear_resize", None),
    ("imagecore.bilinear_sample_grid", "imagecore", "bilinear_sample_grid", None),
    ("tinytrain.train_step", "tinytrain", "train_step", None),
    ("tinytrain.prepare_batch", "tinytrain", "prepare_batch", None),
    ("tinytrain.init_model", "tinytrain", "init_model", None),
    ("tinytrain.make_synthetic_corpus", "tinytrain", "make_synthetic_corpus", None),
    ("tinytrain.make_synthetic_soil", "tinytrain", "make_synthetic_soil", None),
    ("cli.main", "cli", "main", None),
)

# Functions whose returns cut an untraced timed call into segments (see
# ``spans.Marks``). Each segment is a fraction of a millisecond or more,
# so the marks add well under 1% to a call.
MARKS = {
    "pretrain-desk": (("tinytrain", "init_model"), ("policy", "apply_policy"),
                      ("tinytrain", "prepare_batch"), ("tinytrain", "train_step")),
    "pretrain-plain": (("tinytrain", "init_model"), ("tinytrain", "prepare_batch"),
                       ("tinytrain", "train_step")),
    "augment-field": (("imagecore", "load_ppm"), ("imagecore", "save_ppm"),
                      *(("augment", name) for name in AUGMENT_FUNCTIONS)),
    "soilbank-field": (("imagecore", "load_ppm"), ("vegmask", "excess_green"),
                       ("vegmask", "refine_mask"), ("augment", "vegetation_fraction")),
}

# Spans that must record calls on each workload; a traced repeat fails
# loudly when one records none.
_PRETRAIN_SPANS = (
    "policy.make_views", "policy.apply_policy", "tinytrain.train_step",
    "tinytrain.prepare_batch", "tinytrain.init_model", "augment.build_soil_bank",
    "tinytrain.make_synthetic_corpus", "tinytrain.make_synthetic_soil",
)
_AUGMENT_SPANS = tuple(f"augment.{name}" for name in AUGMENT_FUNCTIONS) + (
    "vegmask.refine_mask", "vegmask.excess_green",
    "imagecore.normalize_image", "imagecore.bilinear_resize",
    "imagecore.bilinear_sample_grid",
)
EXPECTED_SPANS = {
    "pretrain-desk": _PRETRAIN_SPANS + _AUGMENT_SPANS,
    "pretrain-plain": _PRETRAIN_SPANS,
    "augment-field": ("cli.main", "policy.make_views", "policy.apply_policy",
                      "augment.build_soil_bank", "imagecore.load_ppm",
                      "imagecore.save_ppm") + _AUGMENT_SPANS,
    "soilbank-field": ("cli.main", "imagecore.load_ppm", "vegmask.refine_mask",
                       "vegmask.excess_green", "imagecore.normalize_image"),
}

# Per-layer metrics normalised per unit of work (a step, a view, an image).
PER_UNIT_SELF = (
    "policy.apply_policy", *(f"augment.{name}" for name in AUGMENT_FUNCTIONS),
    "vegmask.refine_mask", "vegmask.excess_green", "imagecore.normalize_image",
    "imagecore.load_ppm", "imagecore.save_ppm", "imagecore.bilinear_resize",
    "imagecore.bilinear_sample_grid", "tinytrain.train_step", "tinytrain.prepare_batch",
    "cli.main",
)
PER_UNIT_CALLS = (
    "policy.apply_policy", *(f"augment.{name}" for name in AUGMENT_FUNCTIONS),
    "vegmask.refine_mask",
)
PER_CALL_MS = (
    "augment.build_soil_bank", "tinytrain.init_model",
    "tinytrain.make_synthetic_corpus", "tinytrain.make_synthetic_soil",
)
BYTES = ("imagecore.load_ppm", "imagecore.save_ppm")


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _fieldaug_modules(every: bool = True) -> dict:
    """The loaded fieldaug modules by short name; with ``every``, first
    load every module the CLI uses."""
    if every:
        import fieldaug.cli  # noqa: F401
    return {name.split(".")[-1]: mod for name, mod in sys.modules.items()
            if name.startswith("fieldaug.")}


# ---------------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------------

def prepare(spec: dict) -> dict:
    """Write the inputs of a CLI workload under ``spec["dir"]`` and import
    the package once, so timed imports read cached bytecode."""
    import fieldaug.cli  # noqa: F401 - caches the bytecode of every module
    import numpy as np
    from fieldaug import imagecore, policy, tinytrain
    from fieldaug.rng import RandomStream, derive_seed

    workload, seed, sizes = spec["workload"], spec["seed"], _sizes(spec)
    root = Path(spec["dir"])
    info: dict = {"environment": environment()}
    if workload == "augment-field":
        images, bank = root / "images", root / "bank"
        images.mkdir(parents=True)
        bank.mkdir()
        corpus = tinytrain.make_synthetic_corpus(
            sizes["images"], sizes["size"], seed=derive_seed(seed, 1))
        for i, img in enumerate(corpus):
            (images / f"img_{i:03d}.ppm").write_bytes(imagecore.save_ppm(img))
        soil = tinytrain.make_synthetic_soil(
            sizes["soil"], sizes["soil_size"], seed=derive_seed(seed, 2))
        for i, img in enumerate(soil):
            (bank / f"soil_{i:03d}.ppm").write_bytes(imagecore.save_ppm(img))
        # The master seed decides which views each entry fires on. It is the
        # same at every workload seed, so every seed does the same
        # augmentation work on its own images. Mixing fires on a view with
        # probability 0.9 and costs one draw per pixel; drawn from the
        # workload seed, the master seed would move the work of a 16-view
        # call by about 8% between seeds.
        pol = policy.default_policy(derive_seed(DEFAULT_SEED, 3))
        pol.soil_bank_path = "bank"
        (root / "default.policy").write_text(policy.save_policy(pol))
    elif workload == "soilbank-field":
        cands = root / "candidates"
        cands.mkdir(parents=True)
        size = sizes["size"]
        stream = RandomStream(derive_seed(seed, 4))
        plants = tinytrain.make_synthetic_corpus(sizes["plants"], 16, seed=derive_seed(seed, 5))
        kinds = ["soil"] * sizes["soil"] + ["plant"] * sizes["plants"]
        stream.shuffle(kinds)
        soil_names = []
        for i, kind in enumerate(kinds):
            name = f"cand_{i:03d}.ppm"
            if kind == "soil":
                # flat soil: constant channels standardize to zero, so
                # nothing is vegetation and the candidate is admitted
                color = (100 + stream.next_below(50), 70 + stream.next_below(40),
                         40 + stream.next_below(35))
                img = np.full((size, size, 3), color, dtype=np.uint8)
                soil_names.append(name)
            else:
                scale = size // 16
                img = np.repeat(np.repeat(plants.pop(), scale, axis=0), scale, axis=1)
            (cands / name).write_bytes(imagecore.save_ppm(img))
        info["soil_names"] = soil_names
    return info


def environment() -> dict:
    import platform
    import numpy as np

    cpu = platform.processor() or platform.machine()
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    blas = {}
    with contextlib.suppress(Exception):
        dep = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: dep.get(k) for k in ("name", "version")}
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def _sizes(spec: dict) -> dict:
    return {**SIZES[spec["workload"]], **spec.get("sizes", {})}


# ---------------------------------------------------------------------------
# instrumentation
# ---------------------------------------------------------------------------

class Instruments:
    """Wrappers for one repeat: segment marks in ``plain`` mode, spans in
    ``traced`` mode, counters in ``count`` mode. ``work()`` marks the start
    of the timed calls."""

    def __init__(self, mode: str, workload: str):
        self.mode = mode
        self.workload = workload
        self.marks = spanlib.Marks()
        self.tracer = spanlib.Tracer()
        self.patches = spanlib.Patches()
        self.counts = {"setup": Counter(), "work": Counter()}
        self._phase = [self.counts["setup"]]

    def install(self) -> None:
        # untraced repeats import nothing beyond what the workload loads
        modules = _fieldaug_modules(every=self.mode != "plain")
        namespaces = spanlib.package_namespaces()
        if self.mode == "plain":
            for module, attr in MARKS[self.workload]:
                original = getattr(modules[module], attr)
                self.patches.replace(original, self.marks.wrap(original), namespaces)
        elif self.mode == "traced":
            for name, module, attr, size in SPANS:
                original = getattr(modules[module], attr)
                self.patches.replace(original, self.tracer.wrap(name, original, size), namespaces)
        else:
            self._install_counters(modules, namespaces)

    def _install_counters(self, modules, namespaces) -> None:
        phase = self._phase
        stream_cls = modules["rng"].RandomStream
        next_u64, init = stream_cls.next_u64, stream_cls.__init__

        def counted_next_u64(stream):
            phase[0]["rng.u64_draws"] += 1
            return next_u64(stream)

        def counted_init(stream, seed):
            phase[0]["rng.stream_inits"] += 1
            init(stream, seed)

        self.patches.replace(next_u64, counted_next_u64, [stream_cls])
        self.patches.replace(init, counted_init, [stream_cls])

        apply_policy = modules["policy"].apply_policy

        def counted_apply_policy(img, policy, *args, **kwargs):
            for entry in policy.entries:
                phase[0][f"gated.{entry.name}"] += 1
            return apply_policy(img, policy, *args, **kwargs)

        self.patches.replace(apply_policy, counted_apply_policy, namespaces)
        for name, applier in list(modules["policy"]._APPLIERS.items()):
            def counted_applier(*args, _name=name, _fn=applier, **kwargs):
                phase[0][f"fired.{_name}"] += 1
                return _fn(*args, **kwargs)
            self.patches.replace(applier, counted_applier, namespaces)

    def work(self) -> None:
        self._phase[0] = self.counts["work"]

    def restore(self) -> None:
        self.patches.restore()


def layer_metrics(tracer: spanlib.Tracer, root: str, units: int) -> dict:
    """Per-layer values of one traced repeat. Per-unit values use only the
    spans inside the timed call; per-call set-up values use all spans."""
    spans = tracer.spans
    inside: set[int] = set()
    for sid, parent, name, _, _ in spans:
        if name == root or parent in inside:
            inside.add(sid)
    timed = spanlib.summarize([s for s in spans if s[0] in inside])
    every = spanlib.summarize(spans)
    empty = {"calls": 0, "total_ns": 0, "self_ns": 0}
    out = {}
    out["policy.make_views.ms"] = timed.get("policy.make_views", empty)["total_ns"] / 1e6 / units
    for name in PER_UNIT_SELF:
        out[f"{name}.self_ms"] = timed.get(name, empty)["self_ns"] / 1e6 / units
    for name in PER_UNIT_CALLS:
        out[f"{name}.calls"] = timed.get(name, empty)["calls"] / units
    for name in PER_CALL_MS:
        row = every.get(name, empty)
        out[f"{name}.ms"] = row["total_ns"] / 1e6 / row["calls"] if row["calls"] else 0.0
    for name in BYTES:
        out[f"{name}.bytes"] = tracer.bytes[name] / units
    train = every.get("tinytrain.train_step", empty)
    out["_train_step_call_ms"] = train["total_ns"] / 1e6 / train["calls"] if train["calls"] else 0.0
    out["trace.coverage"] = spanlib.coverage(spans, root)
    out["_calls"] = {name: row["calls"] for name, row in every.items()}
    return out


def _median_ms(fn, reps: int) -> float:
    times = []
    for _ in range(reps):
        t0 = time.perf_counter_ns()
        fn()
        times.append(time.perf_counter_ns() - t0)
    return statistics.median(times) / 1e6


def model_probes(seed: int, batch: int, size: int, embed: int, lam: float) -> dict:
    """Median times of the public model calls at the workload's batch shape."""
    import numpy as np
    from fieldaug import tinytrain, twins
    from fieldaug.rng import derive_seed

    gen = np.random.default_rng(seed)
    model = tinytrain.init_model(size, embed, seed=derive_seed(seed, 9))
    x1, x2 = gen.random((batch, model.in_dim)), gen.random((batch, model.in_dim))
    z1, z2 = gen.standard_normal((batch, embed)), gen.standard_normal((batch, embed))
    return {
        "tinytrain.forward.ms": _median_ms(lambda: tinytrain.forward(model, x1), 41),
        "tinytrain.backward.ms": _median_ms(lambda: tinytrain.backward(model, x1, x2, lam), 41),
        "twins.bt_loss_grad.ms": _median_ms(lambda: twins.bt_loss_grad(z1, z2, lam), 41),
    }


def draw_ns(seed: int) -> float:
    """Median cost of one scalar ``next_u64`` draw, in nanoseconds."""
    from fieldaug.rng import RandomStream

    draw = RandomStream(seed).next_u64
    per_batch = []
    for _ in range(7):
        t0 = time.perf_counter_ns()
        for _ in range(20000):
            draw()
        per_batch.append((time.perf_counter_ns() - t0) / 20000)
    return statistics.median(per_batch)


# ---------------------------------------------------------------------------
# one timed repeat
# ---------------------------------------------------------------------------

def repeat(spec: dict, t_start: float | None = None) -> dict:
    """Run one repeat of ``spec["workload"]``. ``t_start`` is when set-up
    began (process start when run as a script)."""
    t_start = time.perf_counter() if t_start is None else t_start
    inst = Instruments(spec.get("mode", "plain"), spec["workload"])
    if spec["workload"].startswith("pretrain"):
        result = _pretrain_repeat(spec, inst, t_start)
    else:
        result = _cli_repeat(spec, inst, t_start)
    if inst.mode == "traced":
        if spec.get("trace_file"):
            inst.tracer.write_jsonl(spec["trace_file"])
        calls = result["layers"].pop("_calls")
        silent = [name for name in EXPECTED_SPANS[spec["workload"]] if not calls.get(name)]
        if silent:
            raise RuntimeError(f"traced spans recorded no calls: {', '.join(silent)}")
        result["layers"]["rng.draw_ns"] = draw_ns(spec["seed"])
    if inst.mode == "count":
        result["counts"] = {phase: dict(c) for phase, c in inst.counts.items()}
    return result


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _pretrain_repeat(spec: dict, inst: Instruments, t_start: float) -> dict:
    from fieldaug import augment, policy, tinytrain
    from fieldaug.rng import derive_seed

    workload, seed, sizes = spec["workload"], spec["seed"], _sizes(spec)
    inst.install()
    try:
        corpus = tinytrain.make_synthetic_corpus(
            sizes["corpus"], sizes["size"], seed=derive_seed(seed, 1))
        bank = augment.build_soil_bank(tinytrain.make_synthetic_soil(
            sizes["soil"], sizes["size"], seed=derive_seed(seed, 2)))
        # the plain policy has no entries, so both views are the raw image
        text = (HERE / "desk.policy").read_text() if workload == "pretrain-desk" else ""
        pol = policy.load_policy(text)
        pol.master_seed = derive_seed(seed, 3)
        cfg = tinytrain.TrainConfig(
            batch_size=sizes["batch"], learning_rate=0.4, lam=0.25, epochs=10 ** 6,
            seed=seed, embed_dim=8, input_size=sizes["size"], max_steps=sizes["steps"],
        )
        # the root span of each timed call
        pretrain = inst.tracer.wrap("tinytrain.pretrain", tinytrain.pretrain)
        inst.work()
        setup_s = time.perf_counter() - t_start
        steps, calls, outputs = sizes["steps"], [], None
        # each call trains the same model on the same inputs, so every call
        # must give the same outputs and counts; the counting pass makes one
        for _ in range(1 if inst.mode == "count" else sizes["calls"]):
            inst.marks.times.clear()
            t0 = time.perf_counter_ns()
            try:
                ckpt, trace = pretrain(corpus, pol, cfg, soil_bank=bank)
                done = len(trace)
            except RuntimeError as exc:
                match = re.search(r"non-finite loss or gradient at step (\d+)", str(exc))
                if not match:
                    raise
                ckpt, trace, done = None, None, int(match.group(1))
            t1 = time.perf_counter_ns()
            calls.append([done, (t1 - t0) / 1e9, inst.marks.segments(t0, t1)])
            if trace is None:
                found = {"checkpoint": "aborted", "trace": "aborted"}
            else:
                rows = "".join(f"{s},{l!r},{d!r},{o!r}\n" for s, l, d, o in trace)
                found = {"checkpoint": _sha(tinytrain.save_checkpoint(ckpt)),
                         "trace": _sha(rows.encode())}
            if outputs is None or found == outputs:
                outputs = found
            else:
                outputs = {key: "differs between calls" for key in found}
            # no call that would end after the run's measuring time
            if time.time() + calls[-1][1] > spec.get("end_at", math.inf):
                break
        peak = _peak_rss_mb()
    finally:
        inst.restore()

    done = sum(call[0] for call in calls)
    result = {
        "setup_s": setup_s, "calls": calls,
        "attempted": steps * len(calls), "program_failed": steps * len(calls) - done,
        "bad_keys": [], "peak_rss_mb": peak, "outputs": outputs,
    }
    if inst.mode == "traced":
        result["layers"] = layer_metrics(inst.tracer, "tinytrain.pretrain", max(done, 1))
        result["layers"].update(model_probes(seed, sizes["batch"], sizes["size"], 8, 0.25))
    return result


def _cli_repeat(spec: dict, inst: Instruments, t_start: float) -> dict:
    from fieldaug import cli

    workload = spec["workload"]
    root, out = Path(spec["dir"]), Path(spec["out"])
    manifest = out.parent / (out.name + ".manifest.txt")
    setup_s = time.perf_counter() - t_start
    if workload == "augment-field":
        inputs = root / "images"
        argv = ["augment", "--input", str(inputs), "--output", str(out),
                "--policy", str(root / "default.policy"), "--workers", "1"]
    else:
        inputs = root / "candidates"
        argv = ["soilbank", "--input", str(inputs), "--output", str(out)]
    argv += ["--manifest", str(manifest)]
    names = sorted(p.name for p in inputs.glob("*.ppm"))

    inst.install()
    stderr = io.StringIO()
    try:
        inst.work()
        with contextlib.redirect_stderr(stderr):
            inst.marks.times.clear()
            t0 = time.perf_counter_ns()
            code = cli.main(argv)
            t1 = time.perf_counter_ns()
        peak = _peak_rss_mb()
    finally:
        inst.restore()

    pairs = dict(line.split("=", 1) for line in manifest.read_text().splitlines() if "=" in line)
    reported = set(re.findall(r"^error: ([^:\n]+):", stderr.getvalue(), flags=re.M))
    if workload == "augment-field":
        outputs, bad = view_tree_outputs(out, names)
        units = 2 * len(names)
    else:
        outputs, bad = soilbank_outputs(out, inputs, names, spec.get("soil_names", ()))
        units = len(names)
    bad = sorted(set(bad) | (reported & set(names)))
    manifest_failed = int(pairs.get("failed", "0"))
    program_failed = max(len(bad), manifest_failed, 0 if code == 0 else 1)
    result = {
        "setup_s": setup_s, "calls": [[units, (t1 - t0) / 1e9, inst.marks.segments(t0, t1)]],
        "attempted": len(names), "program_failed": min(program_failed, len(names)),
        "bad_keys": bad, "peak_rss_mb": peak, "outputs": outputs,
    }
    if inst.mode == "traced":
        result["layers"] = layer_metrics(inst.tracer, "cli.main", units)
    return result


# ---------------------------------------------------------------------------
# output digests
# ---------------------------------------------------------------------------

def view_tree_outputs(out: Path, names) -> tuple[dict, list]:
    """One digest per input file, over its two views; inputs whose views
    are missing or malformed are returned as bad."""
    outputs, bad = {}, []
    for name in names:
        stem = name[:-len(".ppm")]
        views = [out / f"{stem}.v1.ppm", out / f"{stem}.v2.ppm"]
        if not all(v.is_file() for v in views):
            outputs[name] = "missing"
            bad.append(name)
            continue
        data = [v.read_bytes() for v in views]
        if not all(d.startswith(b"P6\n") for d in data):
            bad.append(name)
        outputs[name] = _sha(b"".join(_sha(d).encode() for d in data))
    expected = {f"{n[:-4]}.v{k}.ppm" for n in names for k in (1, 2)}
    for extra in sorted(p.name for p in out.iterdir() if p.name not in expected):
        outputs[f"extra:{extra}"] = "present"
    return outputs, bad


def soilbank_outputs(out: Path, inputs: Path, names, soil_names) -> tuple[dict, list]:
    """Per candidate, whether it was admitted; plus ``index.txt``. An
    admitted file that differs from its input, or flat soil that was not
    admitted, is bad."""
    outputs, bad = {}, []
    for name in names:
        copy = out / name
        if copy.is_file():
            outputs[name] = "admitted"
            if copy.read_bytes() != (inputs / name).read_bytes():
                bad.append(name)
        else:
            outputs[name] = "rejected"
            if name in soil_names:
                bad.append(name)
    index = out / "index.txt"
    outputs["index.txt"] = _sha(index.read_bytes()) if index.is_file() else "missing"
    return outputs, bad


def mismatched(outputs: dict, reference: dict) -> list[str]:
    """Keys whose digest differs from the reference, either way round."""
    return sorted(k for k in set(outputs) | set(reference) if outputs.get(k) != reference.get(k))


def failed_ops(workload: str, result: dict, reference: dict | None) -> int:
    """Failed operations of one repeat: what the program reported, plus
    outputs that fail their checks. A pretrain digest mismatch fails every
    step of the repeat; a CLI mismatch fails the files it names, and a
    mismatch of a whole-call output such as ``index.txt`` fails one."""
    bad = set(result["bad_keys"])
    wrong = mismatched(result["outputs"], reference) if reference is not None else []
    if workload.startswith("pretrain"):
        if wrong:
            return result["attempted"]
        return result["program_failed"]
    per_file = {k.split(":", 1)[-1] for k in wrong if k.endswith(".ppm")}
    whole_call = 1 if any(not k.endswith(".ppm") for k in wrong) else 0
    count = max(len(bad | per_file) + whole_call, result["program_failed"])
    return min(count, result["attempted"])


def main(argv: list[str]) -> int:
    t_start = time.perf_counter()
    spec = json.loads(argv[1])
    if spec["action"] == "prepare":
        result = prepare(spec)
    else:
        result = repeat(spec, t_start)
    sys.stdout.write("\n" + json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
