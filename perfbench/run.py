"""Benchmark runner for fieldaug.

    python3 perfbench/run.py --workload pretrain-desk --seed 0 --seconds 28 --trace 0

Runs one workload (or ``all``) as a closed loop with one caller: timed
repeats run one after another, each in a fresh process, so at most two
processes (this runner, idle, and one repeat) exist at a time. BLAS and
OpenMP thread counts are pinned to 1.

With ``--trace 0`` it reports the end-to-end metrics: work units per second
(optimizer steps, written views or screened images) of one whole timed
call, set-up seconds and peak resident memory. Both times are wall-clock.
Throughput takes each segment of the call at its fastest time in the run
(see ``fastest_rate``), and set-up time is the fastest set-up of the run's
repeats, for the same reason; peak memory is the median over the repeats.
With
``--trace 1`` it makes a counting pass, then alternates untraced and
traced repeats, and reports the per-layer metrics plus the tracing
overhead. Every repeat's outputs are checked: at the default seed against
the digests pinned in ``digests.json``, at any seed against the run's
first repeat. The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; the exit code is 0
only when every output is correct.

The runner uses only the standard library; each repeat imports the
package from ``src/`` in its own process.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads as wl

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"

RUN_LIMIT_S = 165.0     # a run must end within 180 s
MIN_PLAIN = 3           # untraced repeats per untraced run, at least

# the per-workload name of units_per_s in the printed lines
UNIT_NAMES = {
    "pretrain-desk": "step_ms",
    "pretrain-plain": "step_ms",
    "augment-field": "views_per_s",
    "soilbank-field": "images_per_s",
}


class WorkerError(RuntimeError):
    pass


def worker_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def call(spec: dict, deadline: float) -> dict:
    """Run one step in a fresh process and return its JSON result."""
    timeout = deadline - time.perf_counter()
    if timeout <= 0:
        raise WorkerError("run time limit reached")
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "workloads.py"), json.dumps(spec)],
            env=worker_env(), cwd=ROOT, capture_output=True, text=True, timeout=timeout,
        )
    except subprocess.TimeoutExpired as exc:
        raise WorkerError(f"{spec['action']} {spec.get('mode', '')} timed out") from exc
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise WorkerError(f"{spec['action']} {spec.get('mode', '')} exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def load_pinned() -> dict:
    pinned = json.loads((HERE / "digests.json").read_text())
    if pinned["sizes"] != wl.SIZES:
        raise WorkerError("digests.json was pinned at other workload sizes")
    return pinned


def plan(trace: bool):
    """Modes of the timed repeats in order: untraced only, or untraced and
    traced alternately."""
    while True:
        yield "plain"
        if trace:
            yield "traced"


def run_workload(workload: str, seed: int, seconds: float, trace: bool, deadline: float) -> dict:
    work = WORK / f"{workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        base = {"workload": workload, "seed": seed, "dir": str(work)}
        info = call({**base, "action": "prepare"}, deadline)
        pinned = load_pinned()["workloads"][workload] if seed == wl.DEFAULT_SEED else None
        base.update(action="repeat", soil_names=info.get("soil_names", []))
        # longest: a whole repeat; one_call: a repeat's set-up and one call
        repeats, longest, one_call = [], 0.0, 0.0
        if trace:
            # the counting pass is slow and not timed: it takes no share of
            # the measuring time
            repeats.append(("count", call({**base, "mode": "count", "out": str(work / "count")},
                                          deadline)))
        end = time.perf_counter() + seconds
        for index, mode in enumerate(plan(trace)):
            plain = sum(1 for m, _ in repeats if m == "plain")
            traced = sum(1 for m, _ in repeats if m == "traced")
            enough = traced >= 1 if trace else plain >= MIN_PLAIN
            now = time.perf_counter()
            # start no repeat that cannot make one timed call within the
            # measuring time; a repeat makes no call that would end after it
            if enough and (now + one_call > end or now + longest > deadline):
                break
            spec = {**base, "mode": mode, "out": str(work / f"out-{index}"),
                    "end_at": time.time() + (end - now)}
            if mode == "traced":
                spec["trace_file"] = str(WORK / f"trace-{workload}-seed{seed}.jsonl")
            t0 = time.perf_counter()
            result = call(spec, deadline)
            took = time.perf_counter() - t0
            repeats.append((mode, result))
            call_s = [c[1] for c in result["calls"]]
            longest = max(longest, took)
            one_call = max(one_call, took - sum(call_s) + max(call_s))
            shutil.rmtree(work / f"out-{index}", ignore_errors=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    reference = pinned if pinned is not None else repeats[0][1]["outputs"]
    attempted = sum(r["attempted"] for _, r in repeats)
    failed = sum(wl.failed_ops(workload, r, reference) for _, r in repeats)
    mismatches = sorted({k for _, r in repeats for k in wl.mismatched(r["outputs"], reference)})
    plain = [r for m, r in repeats if m == "plain"]
    summary = {
        "workload": workload, "seed": seed, "trace": int(trace),
        "repeats": {m: sum(1 for mm, _ in repeats if mm == m) for m in ("plain", "traced", "count")},
        "attempted": attempted, "failed": failed, "mismatched_outputs": mismatches,
        "pinned": pinned is not None, "environment": info["environment"],
        "samples": {
            "units_per_s": unit_rates(plain),
            "setup_s": [r["setup_s"] for r in plain],
            "peak_rss_mb": [r["peak_rss_mb"] for r in plain],
        },
    }
    if trace:
        summary["metrics"] = per_layer(workload, repeats)
        summary["computed"] = ["tinytrain.update.ms", "trace.overhead"]
    else:
        summary["metrics"] = {
            "units_per_s": (fastest_rate(plain), "1/s"),
            "setup_s": (min(summary["samples"]["setup_s"]), "s"),
            "peak_rss_mb": (statistics.median(summary["samples"]["peak_rss_mb"]), "MB"),
        }
    return summary


def unit_rates(results: list[dict]) -> list[float]:
    """Throughput of each timed call: units of work (optimizer steps,
    written views, screened images) divided by the call's wall time."""
    return [units / seconds for r in results for units, seconds, _ in r["calls"]]


def fastest_rate(results: list[dict]) -> float:
    """Throughput of one whole timed call with each of its segments at the
    fastest wall time that segment took in any call of the run.

    Every timed call of a run does the same work, and the marks cut each
    call at the same points (``spans.Marks``), so segment k is the same
    work in every call. The segments cover the whole call, fixed costs
    included. Other tenants of a shared host slow the program in bursts,
    so a short segment is often timed once without them, while a whole
    call rarely is: the sum of the fastest segments is far steadier than
    any statistic of whole calls.
    """
    calls = [(units, segments) for r in results for units, _, segments in r["calls"]]
    units, first = calls[0]
    # a call that differs from the first one is a failure the output
    # checks report; it is left out here
    same = [seg for u, seg in calls if u == units and len(seg) == len(first)]
    fastest = [min(column) for column in zip(*same)]
    return units / (sum(fastest) / 1e9)


def per_layer(workload: str, repeats: list) -> dict:
    traced = [r for m, r in repeats if m == "traced"]
    plain = [r for m, r in repeats if m == "plain"]
    count = next(r for m, r in repeats if m == "count")
    keys = [k for k in traced[0]["layers"] if not k.startswith("_")]
    out = {k: statistics.median(r["layers"][k] for r in traced) for k in keys}

    untraced_rate = statistics.median(unit_rates(plain))
    out["trace.overhead"] = untraced_rate / statistics.median(unit_rates(traced)) - 1.0
    if workload.startswith("pretrain"):
        step_call = statistics.median(r["layers"]["_train_step_call_ms"] for r in traced)
        out["tinytrain.update.ms"] = step_call - out["tinytrain.backward.ms"]
    else:
        for name in ("tinytrain.forward.ms", "tinytrain.backward.ms",
                     "twins.bt_loss_grad.ms", "tinytrain.update.ms"):
            out[name] = 0.0

    work, setup = count["counts"]["work"], count["counts"]["setup"]
    units = max(sum(c[0] for c in count["calls"]), 1)
    for name in wl.AUGMENTATIONS:
        gated = work.get(f"gated.{name}", 0)
        out[f"policy.fire_rate.{name}"] = work.get(f"fired.{name}", 0) / gated if gated else 0.0
    out["rng.u64_draws"] = work.get("rng.u64_draws", 0) / units
    out["rng.stream_inits"] = work.get("rng.stream_inits", 0) / units
    out["rng.setup_u64_draws"] = float(setup.get("rng.u64_draws", 0))
    return {k: (v, layer_unit(k)) for k, v in sorted(out.items())}


def layer_unit(name: str) -> str:
    if name.endswith((".self_ms", ".make_views.ms")):
        return "ms/unit"
    if name.endswith(".ms"):
        return "ms"
    if name.endswith(".bytes"):
        return "B/unit"
    if name.endswith(("calls", "u64_draws", "stream_inits")):
        return "count/unit" if name != "rng.setup_u64_draws" else "count"
    if name.endswith("draw_ns"):
        return "ns"
    return "ratio"


def report(summary: dict) -> None:
    """Human-readable lines; the machine-readable line comes last."""
    workload = summary["workload"]
    print(f"perfbench {workload} seed={summary['seed']} trace={summary['trace']} "
          f"repeats={summary['repeats']}")
    if not summary["trace"]:
        samples = summary["samples"]
        for key, (value, u) in summary["metrics"].items():
            values = samples[key]
            how = {"units_per_s": f"fastest segments of {len(values)} timed calls; whole calls:",
                   "setup_s": f"fastest of {len(values)} repeats;",
                   "peak_rss_mb": f"of {len(values)} repeats:"}[key]
            print(f"  {key:<14} {value:12.4f} {u:<6} {how} median "
                  f"{statistics.median(values):.4f}, range {min(values):.4f}..{max(values):.4f}")
        rate = summary["metrics"]["units_per_s"][0]
        name = UNIT_NAMES[workload]
        if name == "step_ms":
            print(f"  {name:<14} {1000.0 / rate:12.4f} {'ms':<6} per step of a whole pretrain call")
        else:
            print(f"  {name:<14} {rate:12.4f} {'1/s':<6}")
    else:
        for key, (value, u) in summary["metrics"].items():
            label = " (computed)" if key in summary.get("computed", ()) else ""
            print(f"  {key:<44} {value:14.6f} {u}{label}")
    rate = summary["failed"] / summary["attempted"]
    print(f"  error_rate     {rate:12.4f}        {summary['failed']} of {summary['attempted']} "
          f"operations failed")
    check = "pinned digests" if summary["pinned"] else "first repeat of this run"
    state = "mismatch in " + ", ".join(summary["mismatched_outputs"]) if summary["mismatched_outputs"] else "match"
    print(f"  outputs vs {check}: {state}")
    print(f"  environment {json.dumps(summary['environment'], sort_keys=True)}")


def result_line(summaries: list[dict]) -> dict:
    prefix = len(summaries) > 1
    metrics = {}
    for s in summaries:
        for key, (value, unit) in s["metrics"].items():
            metrics[f"{s['workload']}.{key}" if prefix else key] = {"value": value, "unit": unit}
    return {
        "correct": all(s["failed"] == 0 and not s["mismatched_outputs"] for s in summaries),
        "attempted": sum(s["attempted"] for s in summaries),
        "failed": sum(s["failed"] for s in summaries),
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*wl.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=wl.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=28.0,
                        help="measuring time per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 2 ** 63:
        parser.error("--seed must be in [0, 2**63)")
    if not (ROOT / "src" / "fieldaug" / "__init__.py").is_file():
        print(f"error: no fieldaug sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    names = wl.WORKLOADS if args.workload == "all" else (args.workload,)
    summaries = []
    try:
        load_pinned()
        for name in names:
            deadline = time.perf_counter() + RUN_LIMIT_S
            summaries.append(run_workload(name, args.seed, args.seconds, bool(args.trace), deadline))
            report(summaries[-1])
    except (WorkerError, OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    line = result_line(summaries)
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
