import argparse
import concurrent.futures
import functools
import json
import multiprocessing
import os
import platform
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import fieldaug
from fieldaug import cli, metrics as mx, tinytrain as tt
from fieldaug.imagecore import load_ppm, save_ppm
from fieldaug.policy import default_policy, load_policy, make_views, save_policy

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

    def test_workers_started_by_spawn_write_the_same_bytes(self, workspace, monkeypatch):
        # a spawned worker receives the plan and soil bank pickled
        spawn = multiprocessing.get_context("spawn")
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", functools.partial(
            concurrent.futures.ProcessPoolExecutor, mp_context=spawn))
        for workers in (1, 2):
            assert cli.main([
                "augment", "--input", str(workspace / "in"),
                "--output", str(workspace / f"out{workers}"),
                "--policy", str(workspace / "policy.txt"),
                "--workers", str(workers),
            ]) == 0
        out1, out2 = workspace / "out1", workspace / "out2"
        names = sorted(p.name for p in out1.iterdir())
        assert names == sorted(p.name for p in out2.iterdir())
        for name in names:
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name

    def test_policy_edited_between_calls_is_read_again(self, workspace):
        policy = workspace / "edited.policy"
        for seed, text in ((1, "seed=1\ngaussian_blur 1.0\n"), (2, "seed=2\nmixing 1.0\n")):
            policy.write_text(text)
            out = workspace / f"out{seed}"
            assert cli.main([
                "augment", "--input", str(workspace / "in"),
                "--output", str(out), "--policy", str(policy),
            ]) == 0
            assert f"master_seed={seed}" in (workspace / f"out{seed}.manifest.txt").read_text()
            for index, path in enumerate(sorted((workspace / "in").glob("*.ppm"))):
                views = make_views(load_ppm(path.read_bytes()), load_policy(text), index)
                for k, view in enumerate(views, start=1):
                    assert (out / f"{path.stem}.v{k}.ppm").read_bytes() == save_ppm(view)

    def test_soil_bank_built_once_and_one_pool(self, workspace, monkeypatch):
        built = []
        build = cli.augment.build_soil_bank

        def counted_build(*args, **kwargs):
            built.append(1)
            return build(*args, **kwargs)

        monkeypatch.setattr(cli.augment, "build_soil_bank", counted_build)
        pools = count_pools(monkeypatch)
        for workers in (1, 2):
            assert cli.main([
                "augment", "--input", str(workspace / "in"),
                "--output", str(workspace / f"out{workers}"),
                "--policy", str(workspace / "policy.txt"),
                "--workers", str(workers),
            ]) == 0
            # one bank per call, handed to the worker processes
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

    def test_out_of_range_seed_is_usage_error(self, workspace, capsys):
        code = cli.main([
            "augment", "--input", str(workspace / "in"),
            "--output", str(workspace / "out"),
            "--policy", str(workspace / "policy.txt"),
            "--seed", "-1",
        ])
        assert code == 2
        assert capsys.readouterr().err == "error: --seed: seed -1 out of u64 range\n"
        assert not (workspace / "out").exists()

    @pytest.mark.parametrize("flags", [[], ["--seed", "5"]], ids=["policy-seed", "seed-flag"])
    def test_policy_walked_once_after_load(self, workspace, monkeypatch, flags):
        # loading checks each entry, naming its line; the run then compiles
        # the policy once, with or without --seed
        checks = []
        entry_values = fieldaug.policy._entry_values

        def counted(entry, where=""):
            checks.append(where)
            return entry_values(entry, where)

        monkeypatch.setattr(fieldaug.policy, "_entry_values", counted)
        assert cli.main([
            "augment", "--input", str(workspace / "in"),
            "--output", str(workspace / "out"),
            "--policy", str(workspace / "policy.txt"), *flags,
        ]) == 0
        assert checks.count("") == len(default_policy().entries)

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

    def test_corrupt_soil_bank_file_is_usage_error_naming_it(self, workspace, capsys):
        bad = workspace / "bank" / "bad.ppm"
        bad.write_bytes(b"not an image")
        code = cli.main([
            "augment", "--input", str(workspace / "in"),
            "--output", str(workspace / "out"),
            "--policy", str(workspace / "policy.txt"),
        ])
        assert code == 2
        assert f"error: {bad}: bad magic" in capsys.readouterr().err
        assert not (workspace / "out").exists()

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

    def test_each_candidate_read_once(self, tmp_path, monkeypatch):
        write_bank(tmp_path / "in", count=3)
        reads = []
        read_bytes = Path.read_bytes

        def counted(path):
            reads.append(path.name)
            return read_bytes(path)

        monkeypatch.setattr(Path, "read_bytes", counted)
        assert cli.main(["soilbank", "--input", str(tmp_path / "in"),
                         "--output", str(tmp_path / "bank")]) == 0
        assert sorted(reads) == ["soil_0.ppm", "soil_1.ppm", "soil_2.ppm"]
        assert sorted(p.name for p in (tmp_path / "bank").glob("*.ppm")) == sorted(reads)

    def test_bank_admitted_again_at_load_names_the_rule(self, tmp_path, capsys):
        # soilbank takes any --max-fraction; a run that loads the bank admits
        # its images again at the policy's theta and SOIL_MAX_FRACTION
        write_corpus(tmp_path / "in", count=6)
        assert cli.main(["soilbank", "--input", str(tmp_path / "in"), "--output",
                         str(tmp_path / "bank"), "--max-fraction", "1.0"]) == 0
        assert len(list((tmp_path / "bank").glob("*.ppm"))) == 6
        write_policy(tmp_path / "policy.txt", tmp_path / "bank")
        capsys.readouterr()
        assert cli.main(["augment", "--input", str(tmp_path / "in"), "--output",
                         str(tmp_path / "out"), "--policy", str(tmp_path / "policy.txt")]) == 2
        assert capsys.readouterr().err == (
            f"error: soil bank {tmp_path / 'bank'} admitted no images: no image has a "
            "vegetation fraction below 0.05 at theta 0.0\n")
        assert not (tmp_path / "out").exists()


class TestInputDirectory:
    @pytest.mark.parametrize("command", ["augment", "soilbank", "bench"])
    def test_missing_directory_named(self, workspace, capsys, command):
        missing = workspace / "missing"
        argv = [command, "--input", str(missing), "--manifest", str(workspace / "m.txt")]
        if command != "soilbank":
            argv += ["--policy", str(workspace / "policy.txt")]
        if command != "bench":
            argv += ["--output", str(workspace / "out")]
        assert cli.main(argv) == 2
        assert capsys.readouterr().err == f"error: directory not found: {missing}\n"
        assert not (workspace / "out").exists()

    @pytest.mark.parametrize("command", ["augment", "soilbank", "bench"])
    def test_file_given_as_directory_named(self, workspace, capsys, command):
        image = workspace / "in" / "img_000.ppm"
        argv = [command, "--input", str(image), "--manifest", str(workspace / "m.txt")]
        if command != "soilbank":
            argv += ["--policy", str(workspace / "policy.txt")]
        if command != "bench":
            argv += ["--output", str(workspace / "out")]
        assert cli.main(argv) == 2
        assert capsys.readouterr().err == f"error: not a directory: {image}\n"
        assert not (workspace / "out").exists()

    def test_policy_that_is_not_a_file_named(self, workspace, capsys):
        # a directory (or a device such as /dev/null) exists but holds no policy
        argv = ["augment", "--input", str(workspace / "in"), "--output", str(workspace / "out"),
                "--policy", str(workspace / "bank"), "--manifest", str(workspace / "m.txt")]
        assert cli.main(argv) == 2
        assert capsys.readouterr().err == (
            f"error: policy file is not a regular file: {workspace / 'bank'}\n")
        assert not (workspace / "out").exists()


class TestGradcheckCommand:
    def test_passes_and_reports(self, tmp_path, capsys):
        code = cli.main(["gradcheck", "--trials", "5", "--seed", "3",
                         "--manifest", str(tmp_path / "manifest.txt")])
        out = capsys.readouterr().out
        assert code == 0
        assert out.count("loss-trial") == 5
        assert out.count("model-trial") == 1
        assert "FAIL" not in out

    @pytest.mark.parametrize("seed", [-1, 2 ** 64, 99999999999999999999999])
    def test_seed_out_of_range_is_usage_error(self, tmp_path, capsys, seed):
        manifest = tmp_path / "manifest.txt"
        code = cli.main(["gradcheck", "--trials", "1", "--seed", str(seed),
                         "--manifest", str(manifest)])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: --seed: seed must be in [0, 2**64), got {seed}\n"
        assert "status=error" in manifest.read_text().splitlines()


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

    @pytest.mark.parametrize("seed_line, flags, message", [
        ("seed=-1\n", [], "seed must be in [0, 2**64), got -1 (line 2)"),
        ("", ["--seed", str(2 ** 64)],
         "--seed: seed must be in [0, 2**64), got 18446744073709551616"),
        ("", ["--seed", "-1"], "--seed: seed must be in [0, 2**64), got -1"),
    ])
    def test_seed_save_checkpoint_cannot_pack_is_usage_error(self, tmp_path, capsys,
                                                             seed_line, flags, message):
        config = tmp_path / "train.cfg"
        config.write_text(
            "batch_size=8\n" + seed_line + "epochs=1\nembed_dim=4\ninput_size=8\nmax_steps=2\n"
        )
        policy = tmp_path / "policy.txt"
        policy.write_text("gaussian_blur 0.9\n")
        code = cli.main([
            "pretrain", "--synthetic", "16", "--policy", str(policy),
            "--config", str(config), "--out", str(tmp_path / "m.ckpt"), *flags,
        ])
        assert code == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "m.ckpt").exists()
        assert not (tmp_path / "m.ckpt.trace.csv").exists()

    def test_diverged_run_removes_an_earlier_checkpoint(self, tmp_path):
        policy = tmp_path / "policy.txt"
        policy.write_text("gaussian_blur 0.9\n")
        ckpt_path = tmp_path / "model.ckpt"
        base = "batch_size=8\nepochs=5\nembed_dim=4\ninput_size=8\nseed=5\n"
        for name, extra in (("good.cfg", "max_steps=2\n"), ("bad.cfg", "learning_rate=1e200\n")):
            (tmp_path / name).write_text(base + extra)
        argv = ["pretrain", "--synthetic", "16", "--policy", str(policy), "--out", str(ckpt_path)]
        assert cli.main(argv + ["--config", str(tmp_path / "good.cfg")]) == 0
        # the checkpoint went through a temp file that is gone
        assert sorted(p.name for p in tmp_path.iterdir() if p.name.startswith((".", "model"))) == [
            "model.ckpt", "model.ckpt.manifest.txt", "model.ckpt.trace.csv",
        ]
        with np.errstate(all="ignore"):
            assert cli.main(argv + ["--config", str(tmp_path / "bad.cfg")]) == 1
        assert not ckpt_path.exists()
        manifest = (tmp_path / "model.ckpt.manifest.txt").read_text().splitlines()
        assert "failed_step=1" in manifest

    def test_failed_checkpoint_write_keeps_the_earlier_checkpoint(self, tmp_path, monkeypatch):
        policy = tmp_path / "policy.txt"
        policy.write_text("gaussian_blur 0.9\n")
        ckpt_path = tmp_path / "model.ckpt"
        argv = ["pretrain", "--synthetic", "16", "--policy", str(policy), "--out", str(ckpt_path)]
        for seed in (5, 6):
            (tmp_path / f"{seed}.cfg").write_text(
                f"batch_size=8\nembed_dim=4\ninput_size=8\nmax_steps=2\nseed={seed}\n"
            )
        assert cli.main(argv + ["--config", str(tmp_path / "5.cfg")]) == 0
        first = ckpt_path.read_bytes()

        def failing_replace(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(os, "replace", failing_replace)
        assert cli.main(argv + ["--config", str(tmp_path / "6.cfg")]) == 1
        assert ckpt_path.read_bytes() == first
        assert not [p.name for p in tmp_path.iterdir() if p.name.endswith(".tmp")]

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

    class CountingPool(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            pools.append(kwargs.get("max_workers"))
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", CountingPool)
    return pools


# Counts the minor page faults per view of a second `augment` call in a
# fresh process, so that the allocator starts at its defaults (the inputs
# are written by the test process). In "main" mode the first `cli.main`
# call sets the allocator; "task" mode runs the same per-file work in
# this process, through the one-worker pool, without it.
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
    pol, plan = cli._load_run_policy(root / "p.policy", None)
    with cli._worker_pool(1, {None: plan}, cli._soil_bank(root / "p.policy", pol, True)):
        for i, path in enumerate(inputs):
            assert cli._augment_task((i, str(path), str(outputs / out)))[1] == ""

augment("warm")
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
augment("out")
print((resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / (2 * len(inputs)))
"""


def run_fresh(script: str, *args) -> str:
    """The standard output of ``script`` run in a fresh Python process
    that imports this package, with glibc's allocator at its defaults."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("MALLOC_")}
    src = str(Path(fieldaug.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", script, *map(str, args)],
        env=env, capture_output=True, text=True, timeout=300, check=True,
    )
    return done.stdout


def faults_per_view(mode: str, inputs, outputs) -> float:
    return float(run_fresh(_FAULTS_SCRIPT, mode, inputs, outputs))


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

        class RecordingPool(concurrent.futures.ProcessPoolExecutor):
            def __init__(self, *args, **kwargs):
                initializers.append((kwargs.get("initializer"), kwargs.get("initargs")))
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
        with cli._worker_pool(2, {}, None) as pool:
            assert pool is not None
        [(initializer, initargs)] = initializers
        # run the recorded initializer here, with the allocator call counted
        calls = []
        monkeypatch.setattr(cli, "_keep_freed_memory", lambda: calls.append(1))
        monkeypatch.setattr(cli, "_RUN", {})
        initializer(*initargs)
        assert calls == [1]


# Imports `fieldaug.cli` in a fresh process, where nothing else has loaded
# a module yet, runs each command of argv[2], and prints, as its last
# line, which modules of argv[1] are loaded after the import and after
# each command.
_LOADED_SCRIPT = """
import json, sys
from fieldaug import cli
names, commands = json.loads(sys.argv[1]), json.loads(sys.argv[2])
seen = [["import", 0, [name for name in names if name in sys.modules]]]
for argv in commands:
    code = cli.main(argv)
    seen.append([argv[0], code, [name for name in names if name in sys.modules]])
print(json.dumps(seen))
"""

# what only other commands, or a pool of more than one worker, run
NOT_IMPORTED_BY_AUGMENT = ("fieldaug.metrics", "statistics", "concurrent.futures.process",
                           "multiprocessing")


class TestImportsOnlyWhatRuns:
    def test_augment_and_soilbank_load_no_module_they_do_not_run(self, workspace):
        write_corpus(workspace / "one", count=1, size=16)
        label_map = mx.save_label_map(np.zeros((4, 4), np.uint8))
        for side in ("pred", "gt"):
            (workspace / side).mkdir()
            (workspace / side / "a.pgm").write_bytes(label_map)

        def at(name):
            return str(workspace / name)

        commands = [
            ["augment", "--input", at("one"), "--output", at("views"),
             "--policy", at("policy.txt"), "--workers", "1"],
            ["soilbank", "--input", at("bank"), "--output", at("soil")],
            # the control: eval loads the metrics module
            ["eval", "--task", "semantic", "--pred", at("pred"), "--gt", at("gt"),
             "--csv", at("m.csv")],
        ]
        for argv in commands:
            argv += ["--manifest", at(f"{argv[0]}.manifest.txt")]
        out = run_fresh(_LOADED_SCRIPT, json.dumps(NOT_IMPORTED_BY_AUGMENT), json.dumps(commands))
        seen = json.loads(out.splitlines()[-1])
        assert seen == [["import", 0, []], ["augment", 0, []], ["soilbank", 0, []],
                        ["eval", 0, ["fieldaug.metrics"]]]
        assert len(list((workspace / "views").glob("*.ppm"))) == 2


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

    def test_times_both_views_of_each_image(self, workspace, monkeypatch):
        calls = []
        monkeypatch.setattr(cli, "make_views",
                            lambda img, plan, index, bank: calls.append(index)
                            or make_views(img, plan, index, bank))
        assert cli.main([
            "bench", "--input", str(workspace / "in"),
            "--policy", str(workspace / "policy.txt"), "--repeat", "2",
            "--manifest", str(workspace / "bench.manifest.txt"),
        ]) == 0
        images = len(list((workspace / "in").glob("*.ppm")))
        stages = len(load_policy((workspace / "policy.txt").read_text()).entries) + 1
        assert sorted(calls) == sorted(list(range(images)) * 2 * stages)

    def test_corrupt_input_is_usage_error_before_any_timing(self, workspace, capsys):
        bad = workspace / "in" / "bad.ppm"
        bad.write_bytes(b"P6\n4 4\n255\nxx")
        code = cli.main([
            "bench", "--input", str(workspace / "in"),
            "--policy", str(workspace / "policy.txt"), "--repeat", "1",
            "--manifest", str(workspace / "bench.manifest.txt"),
        ])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {bad}: ")


class TestSharedOptions:
    SHARED = {
        "--manifest": ("augment", "soilbank", "pretrain", "gradcheck", "bench", "order-sweep",
                       "eval"),
        "--policy": ("augment", "bench", "order-sweep"),
        "--seed": ("augment", "bench", "order-sweep"),
        "--input": ("augment", "bench"),
        "--workers": ("augment", "bench"),
        "--data": ("pretrain", "order-sweep"),
        "--synthetic": ("pretrain", "order-sweep"),
    }

    @pytest.mark.parametrize("flag", SHARED)
    def test_each_shared_option_is_one_action(self, flag):
        # one definition: the same argparse action in every subcommand sharing it
        [commands] = [a.choices for a in cli._build_parser()._actions
                      if isinstance(a, argparse._SubParsersAction)]
        assert len(commands) == 7
        actions = [commands[name]._option_string_actions[flag] for name in self.SHARED[flag]]
        assert all(action is actions[0] for action in actions)


class TestCountFlags:
    @pytest.mark.parametrize("argv", [
        ["bench", "--repeat", "0"],
        ["bench", "--repeat", "-1"],
        ["bench", "--workers", "0"],
        ["augment", "--workers", "0", "--output", "out"],
        ["augment", "--workers", "-3", "--output", "out"],
        # gradcheck takes no --input or --policy; the bad count fails first
        ["gradcheck", "--trials", "0"],
        ["gradcheck", "--trials", "-3"],
        ["pretrain", "--synthetic", "0", "--out", "model.ckpt"],
        ["pretrain", "--synthetic", "-5", "--out", "model.ckpt"],
        ["order-sweep", "--full", "--synthetic", "-5", "--out-dir", "sweep"],
    ])
    def test_counts_below_one_rejected_before_any_output(self, workspace, capsys, argv):
        argv = argv + ["--input", str(workspace / "in"), "--policy", str(workspace / "policy.txt")]
        with pytest.raises(SystemExit) as info:
            cli.main(argv)
        assert info.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "must be at least 1" in captured.err

    @pytest.mark.parametrize("command", ["augment", "bench"])
    @pytest.mark.parametrize("requested, cpus, used", [
        (1000, 3, 3), (1000, 64, 4), (2, 64, 2), (1, 64, 1),
    ])
    def test_pool_size_clamped_to_inputs_and_cpus(self, workspace, monkeypatch,
                                                  command, requested, cpus, used):
        started = []

        class InlinePool:
            """Stands in for the process pool, so no process is started."""

            def __init__(self, max_workers, initializer, initargs):
                started.append(max_workers)
                initializer(*initargs)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
        monkeypatch.setattr(cli, "_RUN", {})
        monkeypatch.setattr(cli.os, "cpu_count", lambda: cpus)
        manifest = workspace / f"{command}.manifest.txt"
        argv = [command, "--input", str(workspace / "in"), "--policy",
                str(workspace / "policy.txt"), "--workers", str(requested),
                "--manifest", str(manifest)]
        if command == "augment":
            argv += ["--output", str(workspace / "out")]
        else:
            argv += ["--repeat", "1"]
        assert cli.main(argv) == 0
        assert started == ([used] if used > 1 else [])
        lines = manifest.read_text().splitlines()
        assert f"workers={requested}" in lines and f"workers_used={used}" in lines


    @pytest.mark.parametrize("flags, message", [
        (["--batch", "1"], "batch_size must be >= 2"),
        (["--steps", "0"], "max_steps must be positive"),
        (["--lr", "nan"], "learning_rate must be finite, got nan"),
        (["--names", "gaussian_blur,gaussian_blur"], "--names: duplicate augmentation 'gaussian_blur'"),
        # the policy names no soil bank, and only --synthetic runs make one
        (["--names", "background_invariance"], "uses background_invariance but sets no soil_bank"),
    ])
    def test_order_sweep_flags_rejected_at_load(self, workspace, capsys, flags, message):
        self._assert_sweep_rejected_at_load(
            workspace, capsys, ["--full", "--names", "gaussian_blur", *flags], message)

    def test_order_sweep_pairs_rejects_names_at_load(self, workspace, capsys):
        # this policy names a soil bank, so every other check passes
        self._assert_sweep_rejected_at_load(
            workspace, capsys, ["--pairs", "--names", "gaussian_blur"],
            "--names applies to --full only", workspace / "policy.txt")

    @staticmethod
    def _assert_sweep_rejected_at_load(workspace, capsys, flags, message, policy=None):
        if policy is None:
            policy = workspace / "blur.policy"
            policy.write_text("gaussian_blur 0.9\n")
        out_dir = workspace / "sweep"
        code = cli.main([
            "order-sweep", "--policy", str(policy),
            "--data", str(workspace / "in"), "--out-dir", str(out_dir),
            "--steps", "2", "--batch", "4", "--embed-dim", "4", "--input-size", "8", *flags,
        ])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert message in captured.err
        # nothing but the error manifest is written
        assert [p.name for p in out_dir.iterdir()] == ["manifest.txt"]
        assert "status=error" in (out_dir / "manifest.txt").read_text()


class TestNumericFlags:
    @pytest.mark.parametrize("flag, value, message", [
        ("--theta", "nan", "must be finite"),
        ("--theta", "-inf", "must be finite"),
        ("--max-fraction", "nan", "must be finite"),
        ("--max-fraction", "0", r"must be in \(0, 1\]"),
        ("--max-fraction", "1.5", r"must be in \(0, 1\]"),
        ("--max-fraction", "x", "invalid number"),
    ])
    def test_soilbank_flags_rejected_at_parse(self, workspace, capsys, flag, value, message):
        self._assert_rejected(capsys, ["soilbank", "--input", str(workspace / "in"),
                                       "--output", str(workspace / "bank_out"), f"{flag}={value}"],
                              message)
        assert not (workspace / "bank_out").exists()

    @pytest.mark.parametrize("value, message", [
        ("nan", "must be finite"), ("0", r"must be in \(0, 1\]"),
        ("-0.5", r"must be in \(0, 1\]"), ("1.01", r"must be in \(0, 1\]"),
    ])
    def test_eval_iou_threshold_rejected_at_parse(self, tmp_path, capsys, value, message):
        masks = [np.eye(4, dtype=bool)]
        mx.save_instance_set(tmp_path / "pred", masks)
        mx.save_instance_set(tmp_path / "gt", masks)
        self._assert_rejected(capsys, ["eval", "--task", "instance", "--pred", str(tmp_path / "pred"),
                                       "--gt", str(tmp_path / "gt"), f"--iou-threshold={value}"],
                              message)

    def test_closed_ends_accepted(self):
        parser = cli._build_parser()
        args = parser.parse_args(["soilbank", "--input", "i", "--output", "o",
                                  "--theta=-1e300", "--max-fraction", "1"])
        assert (args.theta, args.max_fraction) == (-1e300, 1.0)
        args = parser.parse_args(["eval", "--task", "instance", "--pred", "p", "--gt", "g",
                                  "--iou-threshold", "1"])
        assert args.iou_threshold == 1.0

    @staticmethod
    def _assert_rejected(capsys, argv, message):
        with pytest.raises(SystemExit) as info:
            cli.main(argv)
        assert info.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert re.search(message, captured.err)


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

    def test_uses_the_bank_the_policy_names_without_background_entry(self, workspace,
                                                                      monkeypatch):
        policy = workspace / "blur.policy"
        policy.write_text(f"soil_bank={workspace / 'bank'}\ngaussian_blur 0.9\n")
        banks = []
        build = cli.augment.build_soil_bank

        def recorded_build(images, *args, **kwargs):
            banks.append([img.shape for img in images])
            return build(images, *args, **kwargs)

        monkeypatch.setattr(cli.augment, "build_soil_bank", recorded_build)
        assert cli.main([
            "order-sweep", "--full", "--names", "background_invariance",
            "--policy", str(policy), "--synthetic", "8",
            "--out-dir", str(workspace / "sweep"),
            "--steps", "2", "--batch", "4", "--embed-dim", "4", "--input-size", "8",
        ]) == 0
        # the three 24 px images of the named bank, not 32 synthetic ones
        assert banks == [[(24, 24, 3)] * 3]

    def test_empty_names_is_usage_error(self, tmp_path, capsys):
        policy = tmp_path / "policy.txt"
        policy.write_text("gaussian_blur 0.9\nmixing 0.9\n")
        code = cli.main([
            "order-sweep", "--full", "--names", "", "--policy", str(policy),
            "--synthetic", "8", "--out-dir", str(tmp_path / "sweep"),
        ])
        assert code == 2
        assert capsys.readouterr().err == "error: --names: unknown augmentation ''\n"
        assert not (tmp_path / "sweep" / "cells.csv").exists()

    def test_summary_line_prints_every_proxy(self, tmp_path, capsys):
        policy = tmp_path / "policy.txt"
        policy.write_text("gaussian_blur 0.9\nmixing 0.9\n")
        assert cli.main([
            "order-sweep", "--full", "--policy", str(policy), "--synthetic", "8",
            "--out-dir", str(tmp_path / "sweep"),
            "--steps", "2", "--batch", "4", "--embed-dim", "4", "--input-size", "8",
        ]) == 0
        lines = capsys.readouterr().out.splitlines()
        cells = (tmp_path / "sweep" / "cells.csv").read_text().splitlines()[1:]
        assert len(lines) == len(cells) == 2
        for line, cell in zip(lines, cells):
            order, loss, diag, offdiag = cell.split(",")
            assert line == (f"order {order}: loss={float(loss):.4f} diag={float(diag):.4f} "
                            f"offdiag={float(offdiag):.4f}")

    def test_nothing_to_sweep_is_usage_error_before_loading(self, tmp_path, capsys,
                                                            monkeypatch):
        policy = tmp_path / "policy.txt"
        policy.write_text("seed=1\n")
        monkeypatch.setattr(cli, "_load_dataset", lambda *a: pytest.fail("dataset loaded"))
        monkeypatch.setattr(cli, "_soil_bank", lambda *a: pytest.fail("soil bank loaded"))
        out_dir = tmp_path / "sweep"
        assert cli.main(["order-sweep", "--full", "--policy", str(policy), "--synthetic", "64",
                         "--steps", "2", "--out-dir", str(out_dir)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"error: {policy}: policy has no entries to sweep; "
                                "name them in --names\n")
        assert [p.name for p in out_dir.iterdir()] == ["manifest.txt"]
        assert "status=error" in (out_dir / "manifest.txt").read_text()

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


    @staticmethod
    def _semantic_pair(tmp_path, pred, gt):
        for name, data in (("pred", pred), ("gt", gt)):
            (tmp_path / name).mkdir()
            (tmp_path / name / "a.pgm").write_bytes(data)
        return ["eval", "--task", "semantic", "--pred", str(tmp_path / "pred"),
                "--gt", str(tmp_path / "gt"), "--manifest", str(tmp_path / "eval.manifest.txt")]

    def test_corrupt_label_map_is_usage_error_naming_it(self, tmp_path, capsys):
        good = mx.save_label_map(np.zeros((4, 4), np.uint8))
        argv = self._semantic_pair(tmp_path, good, b"P5\n4 4\n255\nxx")
        assert cli.main(argv) == 2
        assert capsys.readouterr().err.startswith(f"error: {tmp_path / 'gt' / 'a.pgm'}: ")

    def test_shape_mismatch_is_usage_error_naming_it(self, tmp_path, capsys):
        argv = self._semantic_pair(tmp_path, mx.save_label_map(np.zeros((4, 4), np.uint8)),
                                   mx.save_label_map(np.zeros((5, 4), np.uint8)))
        assert cli.main(argv) == 2
        assert capsys.readouterr().err == (
            f"error: {tmp_path / 'pred' / 'a.pgm'}: shape mismatch: pred (4, 4) vs gt (5, 4)\n")

    def test_corrupt_instance_mask_is_usage_error_naming_it(self, tmp_path, capsys):
        masks = [np.eye(4, dtype=bool)]
        mx.save_instance_set(tmp_path / "pred", masks)
        mx.save_instance_set(tmp_path / "gt", masks)
        bad = tmp_path / "gt" / "instance_0000.pgm"
        bad.write_bytes(b"not a mask")
        code = cli.main([
            "eval", "--task", "instance", "--pred", str(tmp_path / "pred"),
            "--gt", str(tmp_path / "gt"), "--manifest", str(tmp_path / "eval.manifest.txt"),
        ])
        assert code == 2
        assert capsys.readouterr().err.startswith(f"error: {bad}: bad magic")

    @staticmethod
    def _instance_argv(tmp_path):
        return ["eval", "--task", "instance", "--pred", str(tmp_path / "pred"),
                "--gt", str(tmp_path / "gt"), "--manifest", str(tmp_path / "eval.manifest.txt")]

    def test_unscored_set_of_mixed_shapes_is_usage_error_naming_it(self, tmp_path, capsys):
        mx.save_instance_set(tmp_path / "pred", [np.eye(4, dtype=bool), np.eye(5, dtype=bool)])
        mx.save_instance_set(tmp_path / "gt", [np.eye(4, dtype=bool)])
        assert cli.main(self._instance_argv(tmp_path)) == 2
        assert capsys.readouterr().err == (
            f"error: {tmp_path / 'pred'}: instance masks must share dimensions\n")

    def test_pred_gt_shape_mismatch_is_usage_error_naming_the_pred_set(self, tmp_path, capsys):
        mx.save_instance_set(tmp_path / "pred", [np.eye(4, dtype=bool)])
        mx.save_instance_set(tmp_path / "gt", [np.eye(5, dtype=bool)])
        assert cli.main(self._instance_argv(tmp_path)) == 2
        assert capsys.readouterr().err == (
            f"error: {tmp_path / 'pred'}: mask shape mismatch: (4, 4) vs (5, 5)\n")

    def test_score_out_of_range_is_usage_error_naming_the_scores_file(self, tmp_path, capsys):
        mx.save_instance_set(tmp_path / "pred", [np.eye(4, dtype=bool)])
        mx.save_instance_set(tmp_path / "gt", [np.eye(4, dtype=bool)])
        scores = tmp_path / "pred" / "scores.txt"
        scores.write_text("instance_0000.pgm 1.5\n")
        assert cli.main(self._instance_argv(tmp_path)) == 2
        assert capsys.readouterr().err == f"error: {scores}: score 1.5 out of [0, 1]\n"

    @pytest.mark.parametrize("text, message", [
        (b"instance_0000.pgm 0.5\n# again\ninstance_0000.pgm  0.7\n",
         "instance_0000.pgm set twice, first on line 1 (line 3)"),
        (b"instance_0000.pgm 0.5\n\ninstance_0001.pgm \xff\n", "not UTF-8 (line 3)"),
        (b"instance_0000.pgm high\n", "bad score line 1: 'instance_0000.pgm high'"),
        # lines that name no mask of the set: no name at all, and a missing file
        (b"instance_0000.pgm 0.5\n0.7\n", "score line 2 names no mask: '0.7'"),
        (b"instance_0000.pgm 0.5\nnot-a-mask.pgm 0.9\n",
         "score line 2 names no mask: 'not-a-mask.pgm 0.9'"),
    ])
    def test_bad_scores_file_is_usage_error_naming_it_and_the_line(self, tmp_path, capsys,
                                                                     text, message):
        mx.save_instance_set(tmp_path / "pred", [np.eye(4, dtype=bool)])
        mx.save_instance_set(tmp_path / "gt", [np.eye(4, dtype=bool)])
        scores = tmp_path / "pred" / "scores.txt"
        scores.write_bytes(text)
        assert cli.main(self._instance_argv(tmp_path)) == 2
        assert capsys.readouterr().err == f"error: {scores}: {message}\n"


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

    @pytest.mark.parametrize("char", ["\\", "\n", "\r", "\x0b", "\x0c", "\x1c", "\x1d",
                                      "\x1e", "\x85", "\u2028", "\u2029"])
    def test_values_stay_on_their_lines(self, tmp_path, char):
        # a directory name holding a line break cannot add or split a line
        # (str.splitlines breaks at each of these but the backslash)
        manifest = tmp_path / "m.txt"
        missing = tmp_path / f"x{char}failed=0"
        code = cli.main(["augment", "--input", str(missing), "--output", str(tmp_path / "out"),
                         "--policy", str(tmp_path / "policy.txt"), "--manifest", str(manifest)])
        assert code == 2
        lines = manifest.read_text(encoding="utf-8").splitlines()
        assert [line.split("=", 1)[0] for line in lines] == [
            "command", "argv", "status", "error", "wall_seconds"]
        escaped = str(missing).encode("unicode_escape").decode()
        assert escaped in lines[1] and escaped in lines[3]


class TestNumericEnvironment:
    """Manifests record what a run's bytes can depend on beyond its inputs."""

    KEYS = ("numpy_version", "blas", "blas_core", "blas_threads")

    @staticmethod
    def recorded(manifest: Path) -> dict:
        pairs = dict(line.split("=", 1) for line in manifest.read_text().splitlines())
        return {key: pairs.get(key) for key in TestNumericEnvironment.KEYS}

    def test_augment_pretrain_and_order_sweep_record_it(self, workspace):
        policy = workspace / "blur.policy"
        policy.write_text("gaussian_blur 0.9\nrandom_erasing 1.0\n")
        small = ["--synthetic", "8", "--policy", str(policy)]
        config = workspace / "train.cfg"
        config.write_text("batch_size=4\nembed_dim=4\ninput_size=8\nmax_steps=1\n")
        runs = {
            "augment": ["augment", "--input", str(workspace / "in"),
                        "--output", str(workspace / "views"),
                        "--policy", str(workspace / "policy.txt")],
            "pretrain": ["pretrain", *small, "--config", str(config),
                         "--out", str(workspace / "m.ckpt")],
            "order-sweep": ["order-sweep", "--full", "--names", "gaussian_blur", *small,
                            "--out-dir", str(workspace / "sweep"), "--steps", "1",
                            "--batch", "4", "--embed-dim", "4", "--input-size", "8"],
        }
        expected = dict(cli._numeric_environment())
        assert expected["numpy_version"] == np.__version__
        for command, argv in runs.items():
            manifest = workspace / f"{command}.manifest.txt"
            assert cli.main(argv + ["--manifest", str(manifest)]) == 0, command
            assert self.recorded(manifest) == expected, command

    def test_unknown_where_numpy_has_no_readable_openblas(self, workspace, monkeypatch):
        # no numpy.libs directory beside numpy, and no BLAS in its build config
        monkeypatch.setattr(cli, "_openblas_probes",
                            functools.cache(cli._openblas_probes.__wrapped__))
        monkeypatch.setattr(cli.np, "__file__", str(workspace / "numpy" / "__init__.py"))
        monkeypatch.setattr(cli.np, "show_config", lambda mode: {})
        manifest = workspace / "m.txt"
        assert cli.main(["soilbank", "--input", str(workspace / "bank"),
                         "--output", str(workspace / "soil"), "--manifest", str(manifest)]) == 0
        assert self.recorded(manifest) == {"numpy_version": np.__version__, "blas": "unknown",
                                           "blas_core": "unknown", "blas_threads": "unknown"}


class TestInterruptedWrite:
    """A write that fails partway leaves neither a partial target nor a
    temp file, and an earlier file at the target stays as it was."""

    @pytest.fixture
    def failing_write(self, monkeypatch):
        def half_then_fail(path, data):
            with open(path, "wb") as f:
                f.write(data[:len(data) // 2])
            raise OSError("disk full")

        monkeypatch.setattr(Path, "write_bytes", half_then_fail)

    WRITES = {
        "manifest": lambda path: cli.Manifest("pretrain", ["--out", "m.ckpt"]).write(path, "ok"),
        "trace": lambda path: cli._write_trace(path, [(1, 0.5, 0.25, 0.125), (2, 0.4, 0.3, 0.1)]),
    }

    @pytest.mark.parametrize("kind", sorted(WRITES))
    @pytest.mark.parametrize("earlier", [None, b"earlier run\n"], ids=["new", "replaced"])
    def test_no_partial_target_and_no_temp_file(self, tmp_path, failing_write, kind, earlier):
        target = tmp_path / "out" / f"run.{kind}"
        if earlier is not None:
            target.parent.mkdir()
            with open(target, "wb") as f:
                f.write(earlier)
        with pytest.raises(OSError, match="disk full"):
            self.WRITES[kind](target)
        assert [p.name for p in target.parent.iterdir()] == ([target.name] if earlier else [])
        if earlier is not None:
            assert target.read_bytes() == earlier
