import numpy as np
import pytest

from fieldaug import tinytrain as tt
from fieldaug.augment import build_soil_bank
from fieldaug.policy import Policy, PolicyEntry


def small_model(seed=0):
    return tt.init_model(input_size=4, embed_dim=4, seed=seed)


def small_batch(model, n=4, seed=1):
    rng = np.random.default_rng(seed)
    return rng.random((n, model.in_dim))


def tiny_policy(seed=0):
    return Policy(
        entries=[
            PolicyEntry("gaussian_blur", 0.9, {"sigma_min": 0.1, "sigma_max": 0.6}),
            PolicyEntry("random_erasing", 1.0, {"min_fraction": 0.03}),
        ],
        master_seed=seed,
    )


class TestModel:
    def test_zero_parameters_zero_embeddings(self):
        model = tt.TinyModel(input_size=4, embed_dim=4)
        x = np.full((3, model.in_dim), 0.7)
        assert np.all(tt.forward(model, x) == 0.0)

    def test_parameter_count_matches_layout(self):
        model = tt.TinyModel(input_size=4, embed_dim=4)
        in_dim = 4 * 4 * 3
        expected = (
            64 * in_dim + 64 + 32 * 64 + 32
            + (32 * 32 + 32 + 32 + 32) * 2
            + 4 * 32 + 4
        )
        assert model.num_params == expected

    def test_duplicate_inputs_identical_rows(self):
        model = small_model()
        x = small_batch(model, n=3)
        batch = np.vstack([x, x[0:1]])
        z = tt.forward(model, batch)
        assert np.array_equal(z[0], z[3])

    def test_init_deterministic_bit_exact(self):
        a = small_model(seed=5)
        b = small_model(seed=5)
        assert np.array_equal(a.params, b.params)
        x = small_batch(a)
        assert np.array_equal(tt.forward(a, x), tt.forward(b, x))

    def test_byte_batch_shape_checked(self):
        model = small_model()
        with pytest.raises(ValueError, match="byte batch"):
            tt.forward(model, np.zeros((2, 5, 5, 3), np.uint8))

    def test_weight_sharing_single_storage(self):
        # both views read the same flat vector; the named views are
        # windows into it, never copies
        model = small_model()
        for name, _ in model.specs:
            assert np.shares_memory(model.param(name), model.params)

    def test_eval_mode_uses_running_stats(self):
        model = small_model()
        x1, x2 = small_batch(model, seed=2), small_batch(model, seed=3)
        cfg = tt.TrainConfig(batch_size=4, input_size=4, embed_dim=4, learning_rate=0.01)
        before = tt.forward(model, x1, training=False).copy()
        tt.train_step(model, x1, x2, cfg)
        after = tt.forward(model, x1, training=False)
        assert not np.array_equal(before, after)


class TestBackward:
    def test_gradient_matches_finite_differences_full(self):
        err = tt.model_grad_check(n=4, input_size=4, embed_dim=2, seed=0)
        assert err < 1e-3

    def test_gradient_sampled_many_seeds(self):
        for seed in range(3):
            err = tt.model_grad_check(
                n=4, input_size=6, embed_dim=4, seed=seed, sample_per_block=30
            )
            assert err < 1e-3

    def test_lambda_scales_only_offdiagonal_part(self):
        model = small_model()
        x1, x2 = small_batch(model, seed=2), small_batch(model, seed=3)
        g = {lam: tt.backward(model, x1, x2, lam=lam)[1] for lam in (0.05, 0.1, 0.15)}
        step_a = g[0.1] - g[0.05]
        step_b = g[0.15] - g[0.1]
        assert np.allclose(step_a, step_b, atol=1e-12)

    def test_batch_size_must_match(self):
        model = small_model()
        with pytest.raises(ValueError, match="equal size"):
            tt.backward(model, small_batch(model, n=4), small_batch(model, n=5))


class TestTrainStep:
    def test_zero_learning_rate_keeps_parameters(self):
        model = small_model()
        x1, x2 = small_batch(model, seed=2), small_batch(model, seed=3)
        cfg = tt.TrainConfig(batch_size=4, input_size=4, embed_dim=4,
                             learning_rate=1e-300, weight_decay=0.0)
        before = model.params.copy()
        tt.train_step(model, x1, x2, cfg)
        assert np.allclose(model.params, before, atol=1e-290)

    def test_descent_at_some_learning_rate(self):
        x1 = None
        for lr in (1e-2, 1e-3, 1e-4):
            model = small_model(seed=3)
            x1, x2 = small_batch(model, seed=2), small_batch(model, seed=3)
            loss0, _, _ = tt.train_step(
                model, x1, x2,
                tt.TrainConfig(batch_size=4, input_size=4, embed_dim=4,
                               learning_rate=lr, weight_decay=0.0),
            )
            loss1, _ = tt.backward(model, x1, x2)
            if loss1 < loss0:
                return
        pytest.fail("no tested learning rate decreased the loss")

    def test_non_finite_loss_aborts_with_diagnostic(self):
        model = small_model()
        model.step = 6
        model.params[0] = np.inf
        x1, x2 = small_batch(model, seed=2), small_batch(model, seed=3)
        cfg = tt.TrainConfig(batch_size=4, input_size=4, embed_dim=4, learning_rate=0.01)
        with np.errstate(invalid="ignore"), pytest.raises(RuntimeError, match="non-finite") as info:
            tt.train_step(model, x1, x2, cfg)
        assert isinstance(info.value, tt.TrainingDiverged)
        assert str(info.value) == "non-finite loss or gradient at step 6"
        assert info.value.step == 6 and info.value.trace == []

    def test_two_runs_identical(self):
        runs = []
        for _ in range(2):
            model = small_model(seed=7)
            x1, x2 = small_batch(model, seed=2), small_batch(model, seed=3)
            cfg = tt.TrainConfig(batch_size=4, input_size=4, embed_dim=4, learning_rate=0.05)
            for _ in range(3):
                tt.train_step(model, x1, x2, cfg)
            runs.append(model.params.copy())
        assert np.array_equal(runs[0], runs[1])


class TestPretrain:
    def test_dataset_smaller_than_batch_rejected(self):
        corpus = tt.make_synthetic_corpus(4, size=8, seed=0)
        cfg = tt.TrainConfig(batch_size=8, input_size=8, embed_dim=4)
        with pytest.raises(ValueError, match="smaller than batch"):
            tt.pretrain(corpus, tiny_policy(), cfg)

    def test_short_run_trace_and_reload(self):
        corpus = tt.make_synthetic_corpus(12, size=8, seed=1)
        cfg = tt.TrainConfig(batch_size=4, input_size=8, embed_dim=4,
                             learning_rate=0.05, epochs=2, seed=9)
        ckpt, trace = tt.pretrain(corpus, tiny_policy(3), cfg)
        assert ckpt.step == len(trace) == 6
        assert all(np.isfinite(loss) for _, loss, _, _ in trace)
        steps = [row[0] for row in trace]
        assert steps == sorted(steps)

        model = tt.model_from_checkpoint(ckpt)
        probe = tt.prepare_batch(corpus[:4], 8)
        direct = tt.forward(model, probe, training=False)
        reloaded = tt.model_from_checkpoint(
            tt.load_checkpoint(tt.save_checkpoint(ckpt))
        )
        assert np.array_equal(direct, tt.forward(reloaded, probe, training=False))

    def test_max_steps_cuts_training(self):
        corpus = tt.make_synthetic_corpus(12, size=8, seed=1)
        cfg = tt.TrainConfig(batch_size=4, input_size=8, embed_dim=4,
                             learning_rate=0.05, epochs=50, max_steps=5, seed=9)
        ckpt, trace = tt.pretrain(corpus, tiny_policy(3), cfg)
        assert ckpt.step == 5 and len(trace) == 5

    def test_divergence_keeps_the_trace_so_far(self):
        corpus = tt.make_synthetic_corpus(12, size=8, seed=1)
        cfg = tt.TrainConfig(batch_size=4, input_size=8, embed_dim=4,
                             learning_rate=1e200, epochs=5, seed=9)
        with np.errstate(all="ignore"), pytest.raises(tt.TrainingDiverged) as info:
            tt.pretrain(corpus, tiny_policy(3), cfg)
        exc = info.value
        assert str(exc) == f"non-finite loss or gradient at step {exc.step}"
        assert exc.step == len(exc.trace) == 1
        assert [row[0] for row in exc.trace] == [1]
        assert np.isfinite(exc.trace[0][1])

    def test_bit_reproducible(self):
        corpus = tt.make_synthetic_corpus(8, size=8, seed=2)
        cfg = tt.TrainConfig(batch_size=4, input_size=8, embed_dim=4,
                             learning_rate=0.05, epochs=2, seed=4)
        a, _ = tt.pretrain(corpus, tiny_policy(1), cfg)
        b, _ = tt.pretrain(corpus, tiny_policy(1), cfg)
        assert np.array_equal(a.params, b.params)


class TestCheckpointCodec:
    def test_round_trip_bit_identical(self):
        model = small_model(seed=3)
        model.step = 41
        model.run_mean1[:] = np.linspace(-1, 1, 32)
        cfg = tt.TrainConfig(input_size=4, embed_dim=4, max_steps=17)
        ckpt = tt.make_checkpoint(model, cfg)
        back = tt.load_checkpoint(tt.save_checkpoint(ckpt))
        assert np.array_equal(back.params, ckpt.params)
        assert np.array_equal(back.buffers, ckpt.buffers)
        assert back.step == 41
        assert back.config == cfg

    def test_truncated_rejected(self):
        blob = tt.save_checkpoint(tt.make_checkpoint(small_model(), tt.TrainConfig(input_size=4, embed_dim=4)))
        with pytest.raises(tt.CheckpointError, match="truncated"):
            tt.load_checkpoint(blob[:-4])

    def test_bad_magic_rejected(self):
        blob = tt.save_checkpoint(tt.make_checkpoint(small_model(), tt.TrainConfig(input_size=4, embed_dim=4)))
        with pytest.raises(tt.CheckpointError, match="magic"):
            tt.load_checkpoint(b"XXXX" + blob[4:])

    def test_version_mismatch_rejected(self):
        blob = bytearray(tt.save_checkpoint(tt.make_checkpoint(small_model(), tt.TrainConfig(input_size=4, embed_dim=4))))
        blob[4] = 99
        with pytest.raises(tt.CheckpointError, match="version"):
            tt.load_checkpoint(bytes(blob))

    @pytest.mark.parametrize("config", [
        {"batch_size": 1, "learning_rate": -3.0},
        {"learning_rate": float("nan")},
        {"lam": float("inf")},
        {"epochs": 0},
        {"weight_decay": -1e-6},
    ])
    def test_invalid_config_rejected(self, config):
        ckpt = tt.make_checkpoint(small_model(), tt.TrainConfig(input_size=4, embed_dim=4))
        for key, value in config.items():
            setattr(ckpt.config, key, value)
        with pytest.raises(tt.CheckpointError, match="invalid config"):
            tt.load_checkpoint(tt.save_checkpoint(ckpt))

    def test_trailing_bytes_rejected(self):
        blob = tt.save_checkpoint(tt.make_checkpoint(small_model(), tt.TrainConfig(input_size=4, embed_dim=4)))
        with pytest.raises(tt.CheckpointError, match="trailing"):
            tt.load_checkpoint(blob + b"\x00")


class TestSyntheticData:
    def test_corpus_deterministic_shapes(self):
        a = tt.make_synthetic_corpus(5, size=12, seed=3)
        b = tt.make_synthetic_corpus(5, size=12, seed=3)
        assert len(a) == 5
        for x, y in zip(a, b):
            assert x.shape == (12, 12, 3) and x.dtype == np.uint8
            assert np.array_equal(x, y)

    def test_corpus_contains_green(self):
        images = tt.make_synthetic_corpus(8, size=16, seed=1)
        greens = [img[:, :, 1].astype(int).max() for img in images]
        assert max(greens) >= 120

    def test_soil_bank_buildable(self):
        soil = tt.make_synthetic_soil(16, size=16, seed=5)
        bank = build_soil_bank(soil)
        assert len(bank) >= 1


class TestTrainConfigText:
    def test_round_trip_values(self):
        text = (
            "batch_size=8\nlearning_rate=0.25\nweight_decay=0.0\n"
            "epochs=3\nlam=0.2\nseed=12\nembed_dim=4\ninput_size=8\nmax_steps=40\n"
        )
        cfg = tt.load_train_config(text)
        assert cfg == tt.TrainConfig(
            batch_size=8, learning_rate=0.25, weight_decay=0.0, epochs=3,
            lam=0.2, seed=12, embed_dim=4, input_size=8, max_steps=40,
        )

    def test_comments_and_none(self):
        cfg = tt.load_train_config("# cfg\nmax_steps=none\n")
        assert cfg.max_steps is None

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="line 1"):
            tt.load_train_config("momentum=0.9\n")

    def test_bad_value_rejected(self):
        with pytest.raises(ValueError, match="epochs"):
            tt.load_train_config("epochs=three\n")

    def test_validation(self):
        with pytest.raises(ValueError, match="batch_size"):
            tt.TrainConfig(batch_size=1).validate()

    @pytest.mark.parametrize("name", ["learning_rate", "weight_decay", "lam"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_values_rejected(self, name, value):
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            tt.TrainConfig(**{name: value}).validate()

    def test_non_finite_text_rejected_with_line(self):
        with pytest.raises(ValueError, match=r"learning_rate must be finite, got nan \(line 2\)"):
            tt.load_train_config("# cfg\nlearning_rate=nan\nlam=inf\n")
        with pytest.raises(ValueError, match=r"lam must be finite, got inf \(line 1\)"):
            tt.load_train_config("lam=inf\n")

    def test_invalid_value_reported_with_line(self):
        with pytest.raises(ValueError, match=r"batch_size must be >= 2 .*\(line 3\)"):
            tt.load_train_config("epochs=2\n\nbatch_size=1\n")
