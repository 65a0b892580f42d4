"""Tests of the benchmark itself: span arithmetic, segment marks, output
checks, wrapper removal and failure counting.

    python3 -m pytest perfbench/test_perfbench.py
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import spans as spanlib  # noqa: E402
import workloads as wl  # noqa: E402

TINY = {
    "pretrain-plain": {"corpus": 8, "size": 8, "soil": 4, "batch": 4, "steps": 3,
                       "calls": 2},
    "augment-field": {"images": 2, "size": 16, "soil": 8, "soil_size": 16},
    "soilbank-field": {"soil": 1, "plants": 1, "size": 32},
}


def _spec(workload, tmp_path, mode="plain", **extra):
    spec = {"workload": workload, "seed": 5, "dir": str(tmp_path / "in"),
            "out": str(tmp_path / f"out-{mode}"), "mode": mode, "sizes": TINY[workload]}
    spec.update(extra)
    return spec


def test_self_time_on_hand_built_span_tree():
    spans = [
        (0, -1, "root", 0, 100),
        (1, 0, "a", 10, 40),
        (2, 1, "b", 15, 25),
        (3, 0, "c", 50, 70),
        (4, 0, "c", 60, 80),   # overlaps the first "c": the union counts once
    ]
    rows = spanlib.summarize(spans)
    assert rows["root"] == {"calls": 1, "total_ns": 100, "self_ns": 40}
    assert rows["a"] == {"calls": 1, "total_ns": 30, "self_ns": 20}
    assert rows["b"] == {"calls": 1, "total_ns": 10, "self_ns": 10}
    assert rows["c"] == {"calls": 2, "total_ns": 40, "self_ns": 40}
    assert spanlib.coverage(spans, "root") == 0.6


def test_tracer_records_nesting_and_bytes():
    tracer = spanlib.Tracer()
    inner = tracer.wrap("inner", lambda data: data * 2, size=lambda args, result: len(result))
    outer = tracer.wrap("outer", lambda data: inner(data))
    tracer.wrap("root", outer)(b"abc")
    names = {sid: name for sid, _, name, _, _ in tracer.spans}
    parents = {name: names.get(parent) for _, parent, name, _, _ in tracer.spans}
    assert parents == {"root": None, "outer": "root", "inner": "outer"}
    assert tracer.bytes["inner"] == 6


def test_fastest_rate_takes_each_segment_at_its_fastest():
    # two calls of 4 units, cut into three segments (ns); each segment's
    # fastest time is in a different call
    results = [{"calls": [[4, 0.9, [100_000_000, 500_000_000, 300_000_000]]]},
               {"calls": [[4, 0.8, [300_000_000, 200_000_000, 300_000_000]]]}]
    assert run.fastest_rate(results) == 4 / 0.6
    assert run.unit_rates(results) == [4 / 0.9, 4 / 0.8]


def test_marks_cut_untraced_calls_into_segments(tmp_path):
    import fieldaug.cli  # noqa: F401

    namespaces = spanlib.package_namespaces()
    before = spanlib.snapshot(namespaces)
    plain = wl.repeat(_spec("pretrain-plain", tmp_path, mode="plain"))
    assert spanlib.snapshot(namespaces) == before
    steps = TINY["pretrain-plain"]["steps"]
    for units, seconds, segments in plain["calls"]:
        assert units == steps
        # init_model, then prepare_batch twice and train_step once a step
        assert len(segments) == 1 + 1 + 3 * steps
        assert abs(sum(segments) / 1e9 - seconds) < 1e-6


def test_digest_check_rejects_a_one_byte_change(tmp_path):
    names = ["img_000.ppm", "img_001.ppm"]
    for name in names:
        for k in (1, 2):
            (tmp_path / f"{name[:-4]}.v{k}.ppm").write_bytes(b"P6\n1 1\n255\n" + bytes([k, 2, 3]))
    reference, bad = wl.view_tree_outputs(tmp_path, names)
    assert bad == []

    view = tmp_path / "img_001.v2.ppm"
    data = bytearray(view.read_bytes())
    data[-1] ^= 1
    view.write_bytes(bytes(data))
    outputs, bad = wl.view_tree_outputs(tmp_path, names)
    assert wl.mismatched(outputs, reference) == ["img_001.ppm"]
    result = {"outputs": outputs, "bad_keys": bad, "attempted": 2, "program_failed": 0}
    assert wl.failed_ops("augment-field", result, reference) == 1
    assert wl.failed_ops("augment-field", result, outputs) == 0


def test_wrappers_are_removed_after_traced_and_counting_runs(tmp_path):
    import fieldaug.cli  # noqa: F401

    namespaces = spanlib.package_namespaces()
    before = spanlib.snapshot(namespaces)

    spec = _spec("pretrain-plain", tmp_path, mode="traced")
    traced = wl.repeat(spec)
    assert traced["layers"]["policy.apply_policy.calls"] == 2 * TINY["pretrain-plain"]["batch"]
    assert spanlib.snapshot(namespaces) == before

    counted = wl.repeat(_spec("pretrain-plain", tmp_path, mode="count"))
    assert counted["counts"]["work"]["rng.stream_inits"] > 0
    assert spanlib.snapshot(namespaces) == before
    assert counted["outputs"] == traced["outputs"]


def test_error_rate_counts_an_injected_per_file_failure(tmp_path):
    wl.prepare(_spec("augment-field", tmp_path))
    clean = wl.repeat(_spec("augment-field", tmp_path, mode="plain"))
    assert clean["program_failed"] == 0

    (tmp_path / "in" / "images" / "img_bad.ppm").write_bytes(b"P6\n4 4\n255\ntruncated")
    result = wl.repeat(_spec("augment-field", tmp_path, mode="plain", out=str(tmp_path / "again")))
    assert result["attempted"] == 3
    assert result["bad_keys"] == ["img_bad.ppm"]
    assert wl.failed_ops("augment-field", result, None) == 1
    assert wl.failed_ops("augment-field", result, clean["outputs"]) == 1


def test_soilbank_outputs_admit_flat_soil(tmp_path):
    info = wl.prepare(_spec("soilbank-field", tmp_path))
    result = wl.repeat(_spec("soilbank-field", tmp_path, soil_names=info["soil_names"]))
    assert result["program_failed"] == 0
    assert [k for k, v in result["outputs"].items() if v == "admitted"] == info["soil_names"]

