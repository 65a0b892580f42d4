import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import fieldaug
from fieldaug import cli, metrics as mx, tinytrain as tt
from fieldaug.imagecore import save_ppm
from fieldaug.policy import default_policy, save_policy

from conftest import make_plant_image, make_soil_images


def write_corpus(directory, count=4, size=24):
    directory.mkdir(parents=True, exist_ok=True)
    for i in range(count):
        img = make_plant_image(size=size, blob=((4 + i, 12 + i), (6, 14)))
        (directory / f"img_{i:03d}.ppm").write_bytes(save_ppm(img))


def write_bank(directory, count=3, size=24):
    directory.mkdir(parents=True, exist_ok=True)
    for i, img in enumerate(make_soil_images(count, size=size)):
        (directory / f"soil_{i}.ppm").write_bytes(save_ppm(img))


def write_policy(path, bank_dir, seed=7):
    pol = default_policy(seed)
    pol.soil_bank_path = str(bank_dir)
    path.write_text(save_policy(pol))


@pytest.fixture
def workspace(tmp_path):
    write_corpus(tmp_path / "in")
    write_bank(tmp_path / "bank")
    write_policy(tmp_path / "policy.txt", tmp_path / "bank")
    return tmp_path


class TestAugmentCommand:
    def test_writes_two_views_per_image(self, workspace):
        code = cli.main([
            "augment", "--input", str(workspace / "in"),
            "--output", str(workspace / "out"),
            "--policy", str(workspace / "policy.txt"),
        ])
        assert code == 0
        names = sorted(p.name for p in (workspace / "out").iterdir())
        assert names == [
            f"img_{i:03d}.v{k}.ppm" for i in range(4) for k in (1, 2)
        ]
        manifest = (workspace / "out.manifest.txt").read_text()
        assert "status=ok" in manifest and "images=4" in manifest

    def test_worker_count_does_not_change_bytes(self, workspace):
        for workers, out in ((1, "out1"), (2, "out2")):
            assert cli.main([
                "augment", "--input", str(workspace / "in"),
                "--output", str(workspace / out),
                "--policy", str(workspace / "policy.txt"),
                "--workers", str(workers),
            ]) == 0
        for name in sorted(p.name for p in (workspace / "out1").iterdir()):
            a = (workspace / "out1" / name).read_bytes()
            b = (workspace / "out2" / name).read_bytes()
            assert a == b, name

    def test_soil_bank_built_once_and_one_pool(self, workspace, monkeypatch):
        built = []
        build = cli.augment.build_soil_bank

        def counted_build(*args, **kwargs):
            built.append(1)
            return build(*args, **kwargs)

        monkeypatch.setattr(cli.augment, "build_soil_bank", counted_build)
        pools = count_pools(monkeypatch)
        for workers in (1, 2):
            monkeypatch.setattr(cli, "_WORKER_CACHE", {})
            assert cli.main([
                "augment", "--input", str(workspace / "in"),
                "--output", str(workspace / f"out{workers}"),
                "--policy", str(workspace / "policy.txt"),
                "--workers", str(workers),
            ]) == 0
            # one bank per call: worker processes inherit it or build their own
            assert len(built) == 1
            built.clear()
        assert pools == [2]

    def test_missing_policy_is_usage_error(self, workspace, capsys):
        code = cli.main([
            "augment", "--input", str(workspace / "in"),
            "--output", str(workspace / "out"),
            "--policy", str(workspace / "nope.txt"),
        ])
        assert code == 2
        assert "nope.txt" in capsys.readouterr().err

    def test_bad_policy_parameter_is_usage_error(self, workspace, capsys):
        (workspace / "bad.policy").write_text("seed=3\ngaussian_blur 1.0 sigma_min=-1 sigma_max=-0.5\n")
        code = cli.main([
            "augment", "--input", str(workspace / "in"),
            "--output", str(workspace / "out"),
            "--policy", str(workspace / "bad.policy"),
        ])
        assert code == 2
        assert "sigma_min=-1.0 must be > 0 (line 2)" in capsys.readouterr().err
        assert not (workspace / "out").exists()

    def test_empty_input_succeeds_with_zero_outputs(self, workspace):
        (workspace / "empty").mkdir()
        code = cli.main([
            "augment", "--input", str(workspace / "empty"),
            "--output", str(workspace / "out"),
            "--policy", str(workspace / "policy.txt"),
        ])
        assert code == 0
        manifest = (workspace / "out.manifest.txt").read_text()
        assert "images=0" in manifest and "views_written=0" in manifest

    def test_corrupt_file_logged_and_exit_one(self, workspace, capsys):
        (workspace / "in" / "bad.ppm").write_bytes(b"P6\n4 4\n255\nxx")
        code = cli.main([
            "augment", "--input", str(workspace / "in"),
            "--output", str(workspace / "out"),
            "--policy", str(workspace / "policy.txt"),
        ])
        assert code == 1
        assert "bad.ppm" in capsys.readouterr().err
        # good files were still processed
        assert (workspace / "out" / "img_000.v1.ppm").exists()

    @pytest.mark.parametrize("workers", [1, 2])
    def test_any_failure_reported_per_file(self, workspace, capsys, monkeypatch, workers):
        make_views = cli.make_views

        def failing_make_views(img, pol, index, soil_bank=None):
            if index == 1:
                raise RuntimeError("boom")
            return make_views(img, pol, index, soil_bank=soil_bank)

        monkeypatch.setattr(cli, "make_views", failing_make_views)
        code = cli.main([
            "augment", "--input", str(workspace / "in"),
            "--output", str(workspace / "out"),
            "--policy", str(workspace / "policy.txt"),
            "--workers", str(workers),
        ])
        assert code == 1
        assert "error: img_001.ppm: RuntimeError: boom" in capsys.readouterr().err
        # the other inputs' views exist; nothing partial or temporary is left
        names = sorted(p.name for p in (workspace / "out").iterdir())
        assert names == [f"img_{i:03d}.v{k}.ppm" for i in (0, 2, 3) for k in (1, 2)]
        manifest = (workspace / "out.manifest.txt").read_text()
        assert "views_written=6" in manifest and "failed=1" in manifest

    def test_failed_write_leaves_no_partial_views(self, workspace, capsys, monkeypatch):
        calls = []
        save_ppm = cli.save_ppm

        def failing_second_save(img):
            calls.append(1)
            if len(calls) == 2:
                raise OSError("disk full")
            return save_ppm(img)

        monkeypatch.setattr(cli, "save_ppm", failing_second_save)
        code = cli.main([
            "augment", "--input", str(workspace / "in"),
            "--output", str(workspace / "out"),
            "--policy", str(workspace / "policy.txt"),
        ])
        assert code == 1
        assert "error: img_000.ppm: OSError: disk full" in capsys.readouterr().err
        # the first view of img_000 was written to a temp file, then removed
        names = sorted(p.name for p in (workspace / "out").iterdir())
        assert names == [f"img_{i:03d}.v{k}.ppm" for i in (1, 2, 3) for k in (1, 2)]

    def test_seed_flag_changes_views(self, workspace):
        for seed, out in ((1, "s1"), (2, "s2")):
            assert cli.main([
                "augment", "--input", str(workspace / "in"),
                "--output", str(workspace / out),
                "--policy", str(workspace / "policy.txt"),
                "--seed", str(seed),
            ]) == 0
        a = (workspace / "s1" / "img_000.v1.ppm").read_bytes()
        b = (workspace / "s2" / "img_000.v1.ppm").read_bytes()
        assert a != b


class TestSoilbankCommand:
    def test_filters_and_indexes(self, tmp_path):
        write_bank(tmp_path / "in", count=3)
        plant = make_plant_image(size=24, blob=((0, 24), (0, 12)))
        (tmp_path / "in" / "plants.ppm").write_bytes(save_ppm(plant))
        code = cli.main([
            "soilbank", "--input", str(tmp_path / "in"),
            "--output", str(tmp_path / "bank"),
        ])
        assert code == 0
        admitted = sorted(p.name for p in (tmp_path / "bank").glob("*.ppm"))
        assert admitted == ["soil_0.ppm", "soil_1.ppm", "soil_2.ppm"]
        index = (tmp_path / "bank" / "index.txt").read_text()
        assert index.count("\n") == 3 and "plants.ppm" not in index


class TestGradcheckCommand:
    def test_passes_and_reports(self, tmp_path, capsys):
        code = cli.main(["gradcheck", "--trials", "5", "--seed", "3",
                         "--manifest", str(tmp_path / "manifest.txt")])
        out = capsys.readouterr().out
        assert code == 0
        assert out.count("loss-trial") == 5
        assert out.count("model-trial") == 1
        assert "FAIL" not in out


class TestPretrainCommand:
    def test_synthetic_run_writes_artifacts(self, tmp_path):
        config = tmp_path / "train.cfg"
        config.write_text(
            "batch_size=8\nepochs=2\nlearning_rate=0.1\nembed_dim=4\n"
            "input_size=8\nseed=5\nmax_steps=4\n"
        )
        policy = tmp_path / "policy.txt"
        policy.write_text("gaussian_blur 0.9\nrandom_erasing 1.000 min_fraction=0.05\n")
        ckpt_path = tmp_path / "model.ckpt"
        code = cli.main([
            "pretrain", "--synthetic", "16", "--policy", str(policy),
            "--config", str(config), "--out", str(ckpt_path),
        ])
        assert code == 0
        ckpt = tt.load_checkpoint(ckpt_path.read_bytes())
        assert ckpt.step == 4
        trace = (tmp_path / "model.ckpt.trace.csv").read_text().splitlines()
        assert trace[0] == "step,loss,diag_mean,offdiag_mean"
        assert len(trace) == 5
        assert "status=ok" in (tmp_path / "model.ckpt.manifest.txt").read_text()

    def test_synthetic_with_background_synthesizes_bank(self, tmp_path):
        config = tmp_path / "train.cfg"
        config.write_text(
            "batch_size=8\nepochs=1\nlearning_rate=0.1\nembed_dim=4\n"
            "input_size=8\nseed=5\nmax_steps=2\n"
        )
        policy = tmp_path / "policy.txt"
        policy.write_text("background_invariance 1.000\n")
        code = cli.main([
            "pretrain", "--synthetic", "16", "--policy", str(policy),
            "--config", str(config), "--out", str(tmp_path / "m.ckpt"),
        ])
        assert code == 0

    def test_non_finite_config_value_is_usage_error_with_line(self, tmp_path, capsys):
        config = tmp_path / "train.cfg"
        config.write_text("batch_size=8\nlearning_rate=nan\nlam=inf\n")
        policy = tmp_path / "policy.txt"
        policy.write_text("gaussian_blur 0.9\n")
        code = cli.main([
            "pretrain", "--synthetic", "16", "--policy", str(policy),
            "--config", str(config), "--out", str(tmp_path / "m.ckpt"),
        ])
        assert code == 2
        assert "learning_rate must be finite, got nan (line 2)" in capsys.readouterr().err
        assert not (tmp_path / "m.ckpt").exists()

    def test_diverged_run_keeps_partial_trace(self, tmp_path):
        config = tmp_path / "train.cfg"
        config.write_text(
            "batch_size=8\nepochs=5\nlearning_rate=1e200\nembed_dim=4\n"
            "input_size=8\nseed=5\n"
        )
        policy = tmp_path / "policy.txt"
        policy.write_text("gaussian_blur 0.9\n")
        ckpt_path = tmp_path / "model.ckpt"
        with np.errstate(all="ignore"):
            code = cli.main([
                "pretrain", "--synthetic", "16", "--policy", str(policy),
                "--config", str(config), "--out", str(ckpt_path),
            ])
        assert code == 1
        assert not ckpt_path.exists()
        trace = (tmp_path / "model.ckpt.trace.csv").read_text().splitlines()
        assert trace[0] == "step,loss,diag_mean,offdiag_mean"
        assert [row.split(",")[0] for row in trace[1:]] == ["1"]
        manifest = (tmp_path / "model.ckpt.manifest.txt").read_text().splitlines()
        assert "failed_step=1" in manifest
        assert "status=error" in manifest
        assert "error=TrainingDiverged: non-finite loss or gradient at step 1" in manifest

    def test_dataset_smaller_than_batch_is_usage_error(self, tmp_path):
        policy = tmp_path / "policy.txt"
        policy.write_text("gaussian_blur 0.9\n")
        code = cli.main([
            "pretrain", "--synthetic", "4", "--policy", str(policy),
            "--out", str(tmp_path / "m.ckpt"),
        ])
        assert code == 2


def count_pools(monkeypatch) -> list:
    """Record every process pool the CLI constructs."""
    pools = []

    class CountingPool(cli.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            pools.append(kwargs.get("max_workers"))
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(cli, "ProcessPoolExecutor", CountingPool)
    return pools


# Counts the minor page faults per view of a second `augment` call in a
# fresh process, so that the allocator starts at its defaults (the inputs
# are written by the test process). In "main" mode the first `cli.main`
# call sets the allocator; "task" mode runs the same per-file work
# without it.
_FAULTS_SCRIPT = """
import resource, sys
from pathlib import Path
from fieldaug import cli
mode, root, outputs = sys.argv[1], Path(sys.argv[2]), Path(sys.argv[3])
inputs = sorted((root / "in").glob("*.ppm"))

def augment(out):
    if mode == "main":
        assert cli.main(["augment", "--input", str(root / "in"), "--output",
                         str(outputs / out), "--policy", str(root / "p.policy")]) == 0
        return
    (outputs / out).mkdir()
    for i, path in enumerate(inputs):
        task = (i, str(path), str(outputs / out), str(root / "p.policy"), None)
        assert cli._augment_task(task)[1] == ""

augment("warm")
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
augment("out")
print((resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / (2 * len(inputs)))
"""


def faults_per_view(mode: str, inputs, outputs) -> float:
    env = {k: v for k, v in os.environ.items() if not k.startswith("MALLOC_")}
    src = str(Path(fieldaug.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", _FAULTS_SCRIPT, mode, str(inputs), str(outputs)],
        env=env, capture_output=True, text=True, timeout=300, check=True,
    )
    return float(done.stdout)


@pytest.fixture(scope="module")
def field_inputs(tmp_path_factory):
    """Four 128 px images, a 16 px soil bank and the default policy."""
    root = tmp_path_factory.mktemp("field")
    (root / "in").mkdir()
    (root / "bank").mkdir()
    for i, img in enumerate(tt.make_synthetic_corpus(4, size=128, seed=1)):
        (root / "in" / f"img_{i}.ppm").write_bytes(save_ppm(img))
    for i, img in enumerate(tt.make_synthetic_soil(32, size=16, seed=2)):
        (root / "bank" / f"soil_{i}.ppm").write_bytes(save_ppm(img))
    write_policy(root / "p.policy", "bank")
    return root


glibc_only = pytest.mark.skipif(platform.libc_ver()[0] != "glibc",
                                reason="glibc allocator settings")


class TestFreedMemory:
    @glibc_only
    def test_cli_views_do_not_fault_after_warm_up(self, field_inputs, tmp_path):
        assert faults_per_view("main", field_inputs, tmp_path) < 100

    @glibc_only
    def test_importing_and_using_the_library_keeps_allocator_defaults(self, field_inputs,
                                                                      tmp_path):
        # the same per-file work with `cli` imported but `main` never
        # called faults every temporary in again
        assert faults_per_view("task", field_inputs, tmp_path) > 1000

    def test_pool_workers_set_the_allocator(self, monkeypatch):
        initializers = []

        class RecordingPool(cli.ProcessPoolExecutor):
            def __init__(self, *args, **kwargs):
                initializers.append(kwargs.get("initializer"))
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(cli, "ProcessPoolExecutor", RecordingPool)
        with cli._worker_pool(2) as pool:
            assert pool is not None
        assert initializers == [cli._keep_freed_memory]


class TestBenchCommand:
    def test_one_pool_for_every_stage_and_repeat(self, workspace, monkeypatch):
        pools = count_pools(monkeypatch)
        code = cli.main([
            "bench", "--input", str(workspace / "in"),
            "--policy", str(workspace / "policy.txt"),
            "--repeat", "3", "--workers", "2",
            "--manifest", str(workspace / "bench.manifest.txt"),
        ])
        assert code == 0
        assert pools == [2]

    def test_reports_stage_rates(self, workspace, capsys):
        code = cli.main([
            "bench", "--input", str(workspace / "in"),
            "--policy", str(workspace / "policy.txt"),
            "--repeat", "1",
            "--manifest", str(workspace / "bench.manifest.txt"),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "end_to_end" in out
        manifest = (workspace / "bench.manifest.txt").read_text()
        assert "images_per_second.end_to_end=" in manifest
        assert "images_per_second.gaussian_blur=" in manifest


class TestOrderSweepCommand:
    def test_full_mode_with_two_names(self, tmp_path):
        policy = tmp_path / "policy.txt"
        policy.write_text(
            "gaussian_blur 0.9 sigma_min=0.1 sigma_max=0.5\n"
            "random_erasing 1.000 min_fraction=0.05\n"
        )
        code = cli.main([
            "order-sweep", "--full", "--names", "gaussian_blur,random_erasing",
            "--policy", str(policy), "--synthetic", "8",
            "--out-dir", str(tmp_path / "sweep"),
            "--steps", "2", "--batch", "4", "--embed-dim", "4", "--input-size", "8",
        ])
        assert code == 0
        cells = (tmp_path / "sweep" / "cells.csv").read_text().splitlines()
        assert cells[0] == "order,loss,diag_mean,offdiag_mean"
        assert len(cells) == 3  # two permutations
        assert "status=ok" in (tmp_path / "sweep" / "manifest.txt").read_text()

    def test_requires_exactly_one_mode(self, tmp_path):
        policy = tmp_path / "policy.txt"
        policy.write_text("gaussian_blur 0.9\n")
        code = cli.main([
            "order-sweep", "--policy", str(policy), "--synthetic", "8",
            "--out-dir", str(tmp_path / "sweep"),
        ])
        assert code == 2


class TestEvalCommand:
    def test_semantic_metrics(self, tmp_path, rng):
        (tmp_path / "pred").mkdir()
        (tmp_path / "gt").mkdir()
        gt = rng.integers(0, 3, size=(12, 12)).astype(np.uint8)
        pred = gt.copy()
        pred[0, :6] = (pred[0, :6] + 1) % 3
        (tmp_path / "pred" / "a.pgm").write_bytes(mx.save_label_map(pred))
        (tmp_path / "gt" / "a.pgm").write_bytes(mx.save_label_map(gt))
        code = cli.main([
            "eval", "--task", "semantic",
            "--pred", str(tmp_path / "pred"), "--gt", str(tmp_path / "gt"),
            "--csv", str(tmp_path / "metrics.csv"),
            "--manifest", str(tmp_path / "eval.manifest.txt"),
        ])
        assert code == 0
        csv_text = (tmp_path / "metrics.csv").read_text()
        assert csv_text.startswith("metric,value")
        expected = mx.miou(mx.confusion_matrix(pred, gt))
        line = [l for l in csv_text.splitlines() if l.startswith("miou,")][0]
        assert float(line.split(",")[1]) == pytest.approx(expected)

    def test_instance_metrics(self, tmp_path, rng):
        masks = [rng.random((10, 10)) < 0.3 for _ in range(2)]
        mx.save_instance_set(tmp_path / "pred", masks)
        mx.save_instance_set(tmp_path / "gt", masks + [rng.random((10, 10)) < 0.3])
        code = cli.main([
            "eval", "--task", "instance",
            "--pred", str(tmp_path / "pred"), "--gt", str(tmp_path / "gt"),
            "--csv", str(tmp_path / "metrics.csv"),
            "--manifest", str(tmp_path / "eval.manifest.txt"),
        ])
        assert code == 0
        lines = dict(
            l.split(",") for l in
            (tmp_path / "metrics.csv").read_text().splitlines()[1:]
        )
        assert float(lines["ap"]) == 1.0
        assert float(lines["ar"]) == pytest.approx(2 / 3)
        assert float(lines["abs_dic"]) == 1.0

    def test_name_mismatch_is_usage_error(self, tmp_path):
        (tmp_path / "pred").mkdir()
        (tmp_path / "gt").mkdir()
        (tmp_path / "pred" / "a.pgm").write_bytes(mx.save_label_map(np.zeros((2, 2), np.uint8)))
        (tmp_path / "gt" / "b.pgm").write_bytes(mx.save_label_map(np.zeros((2, 2), np.uint8)))
        code = cli.main([
            "eval", "--task", "semantic",
            "--pred", str(tmp_path / "pred"), "--gt", str(tmp_path / "gt"),
            "--manifest", str(tmp_path / "eval.manifest.txt"),
        ])
        assert code == 2


class TestManifestOnFailure:
    def test_error_manifest_written(self, tmp_path):
        manifest = tmp_path / "m.txt"
        code = cli.main([
            "augment", "--input", str(tmp_path / "missing"),
            "--output", str(tmp_path / "out"),
            "--policy", str(tmp_path / "nope.txt"),
            "--manifest", str(manifest),
        ])
        assert code == 2
        text = manifest.read_text()
        assert "status=error" in text and "error=" in text
