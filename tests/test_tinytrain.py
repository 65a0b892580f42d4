import dataclasses
import math
import tracemalloc
import typing
import weakref

import numpy as np
import pytest

from fieldaug import policy as P
from fieldaug import tinytrain as tt
from fieldaug import twins as tw
from fieldaug.augment import build_soil_bank
from fieldaug.policy import Policy, PolicyEntry
from fieldaug.rng import RandomStream, derive_seed


def small_model(seed=0):
    return tt.init_model(input_size=4, embed_dim=4, seed=seed)


def small_batch(model, n=4, seed=1):
    rng = np.random.default_rng(seed)
    return rng.random((n, model.in_dim))


def reference_forward(model, x, training):
    """The network written out layer by layer: two encoder layers, then
    linear+norm+ReLU twice and a linear output."""
    p = model.param
    mean1, std1, mean2, std2 = model.buffers().reshape(4, tt.PROJ_HIDDEN)

    def norm(q, gamma, beta, run_mean, run_std):
        if training:
            xhat = (q - q.mean(axis=0)) / (q.std(axis=0) + tw.BN_EPS)
        else:
            xhat = (q - run_mean) / (run_std + tw.BN_EPS)
        return gamma * xhat + beta

    r1 = np.maximum(x @ p("enc1_w").T + p("enc1_b"), 0.0)
    enc = r1 @ p("enc2_w").T + p("enc2_b")
    q1 = enc @ p("proj1_w").T + p("proj1_b")
    r2 = np.maximum(norm(q1, p("proj1_gamma"), p("proj1_beta"), mean1, std1), 0.0)
    q2 = r2 @ p("proj2_w").T + p("proj2_b")
    r3 = np.maximum(norm(q2, p("proj2_gamma"), p("proj2_beta"), mean2, std2), 0.0)
    return r3 @ p("out_w").T + p("out_b")


def tiny_policy(seed=0):
    return Policy(
        entries=[
            PolicyEntry("gaussian_blur", 0.9, {"sigma_min": 0.1, "sigma_max": 0.6}),
            PolicyEntry("random_erasing", 1.0, {"min_fraction": 0.03}),
        ],
        master_seed=seed,
    )


class TestModel:
    @pytest.mark.parametrize("build, input_size, embed_dim, name", [
        (tt.init_model, 0, 8, "input_size"), (tt.TinyModel, -1, 8, "input_size"),
        (tt.init_model, 4, 0, "embed_dim"), (tt.TinyModel, 2.5, 4, "input_size"),
    ])
    def test_dimension_not_a_positive_integer_is_value_error(self, build, input_size,
                                                             embed_dim, name):
        with pytest.raises(ValueError, match=rf"^{name} must be an integer >= 1"):
            build(input_size, embed_dim)

    def test_numpy_integer_dimensions(self):
        model = tt.TinyModel(np.int64(2), np.int32(3))
        assert (model.input_size, model.embed_dim, model.in_dim) == (2, 3, 12)

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

    def test_specs_pin_the_documented_layout(self):
        model = tt.TinyModel(input_size=4, embed_dim=5)
        assert model.specs == (
            ("enc1_w", (64, 48)), ("enc1_b", (64,)),
            ("enc2_w", (32, 64)), ("enc2_b", (32,)),
            ("proj1_w", (32, 32)), ("proj1_b", (32,)),
            ("proj1_gamma", (32,)), ("proj1_beta", (32,)),
            ("proj2_w", (32, 32)), ("proj2_b", (32,)),
            ("proj2_gamma", (32,)), ("proj2_beta", (32,)),
            ("out_w", (5, 32)), ("out_b", (5,)),
        )

    @pytest.mark.parametrize("training", [True, False])
    def test_forward_matches_layer_by_layer_reference(self, training):
        model = small_model(seed=4)
        rng = np.random.default_rng(6)
        # non-trivial statistics in both norm layers, stds kept positive
        model.set_buffers(rng.normal(size=4 * tt.PROJ_HIDDEN) ** 2 + 0.1)
        x = small_batch(model, n=5)
        assert np.array_equal(tt.forward(model, x, training=training),
                              reference_forward(model, x, training))

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
        # image batches go through prepare_batch, even at the input size
        model = small_model()
        for batch in (np.zeros((2, 4, 4, 3), np.uint8), np.zeros((2, 4, 4, 3))):
            with pytest.raises(ValueError, match=r"batch must be float \(n, 48\)"):
                tt.forward(model, batch)

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

    def test_train_step_moves_every_buffer_row(self):
        model = small_model()
        x1, x2 = small_batch(model, seed=2), small_batch(model, seed=3)
        cfg = tt.TrainConfig(batch_size=4, input_size=4, embed_dim=4, learning_rate=0.01)
        before = model.buffers().reshape(4, tt.PROJ_HIDDEN)
        tt.train_step(model, x1, x2, cfg)
        after = model.buffers().reshape(4, tt.PROJ_HIDDEN)
        # mean and std rows of both norm layers
        assert np.all((after != before).any(axis=1))


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

    def test_public_step_still_validates(self):
        model = small_model()
        x1, x2 = small_batch(model, seed=2), small_batch(model, seed=3)
        cfg = tt.TrainConfig(batch_size=4, input_size=4, embed_dim=4, learning_rate=-1.0)
        with pytest.raises(ValueError, match="learning_rate must be positive"):
            tt.train_step(model, x1, x2, cfg)

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

    def test_policy_validated_once_per_run(self, monkeypatch):
        checks = []
        validate_policy = P.validate_policy
        monkeypatch.setattr(P, "validate_policy",
                            lambda pol: checks.append("policy") or validate_policy(pol))
        corpus = tt.make_synthetic_corpus(12, size=8, seed=1)
        cfg = tt.TrainConfig(batch_size=4, input_size=8, embed_dim=4,
                             learning_rate=0.05, epochs=2, seed=9)
        _, trace = tt.pretrain(corpus, tiny_policy(3), cfg)
        assert len(trace) == 6  # 6 steps of 4 images, 48 views
        assert checks == ["policy"]

    def test_policy_validated_once_per_view_batch(self, monkeypatch):
        checks = []
        validate_policy = P.validate_policy
        monkeypatch.setattr(P, "validate_policy",
                            lambda pol: checks.append("policy") or validate_policy(pol))
        images = tt.make_synthetic_corpus(5, size=8, seed=1)
        tt.view_batches(images, tiny_policy(3), range(5), 8)
        assert checks == ["policy"]

    def test_bit_reproducible(self):
        corpus = tt.make_synthetic_corpus(8, size=8, seed=2)
        cfg = tt.TrainConfig(batch_size=4, input_size=8, embed_dim=4,
                             learning_rate=0.05, epochs=2, seed=4)
        a, _ = tt.pretrain(corpus, tiny_policy(1), cfg)
        b, _ = tt.pretrain(corpus, tiny_policy(1), cfg)
        assert np.array_equal(a.params, b.params)


# (buffer index, value): one NaN mean, and a running std of -5 in each norm layer
BAD_BUFFERS = [
    (3, float("nan")),
    (tt.PROJ_HIDDEN + 5, -5.0),
    (3 * tt.PROJ_HIDDEN + 1, -5.0),
    (2 * tt.PROJ_HIDDEN, float("inf")),
]


class TestViewBatches:
    # mixed shapes: each image's streams prefetch for its own size
    @pytest.mark.parametrize("indices, shapes", [
        ([5, 0, 3], [(12, 12)] * 3),
        ([10 ** 9, 10 ** 9 + 1, 10 ** 9 + 2], [(12, 12)] * 3),
        ([7, 2, 0, 9], [(12, 12), (20, 9), (5, 30), (1, 1)]),
    ], ids=["training", "probe", "mixed-shapes"])
    def test_equals_the_per_image_loop(self, indices, shapes, soil_bank):
        size = max(max(shape) for shape in shapes)
        corpus = tt.make_synthetic_corpus(len(shapes), size=size, seed=4)
        images = [img[:h, :w] for img, (h, w) in zip(corpus, shapes)]
        plan = P.compile_policy(P.default_policy(3))
        got = tt.view_batches(images, plan, indices, 8, soil_bank)
        views1, views2 = [], []
        for img, index in zip(images, indices):
            v1, v2 = P.make_views(img, plan, index, soil_bank=soil_bank)
            views1.append(v1)
            views2.append(v2)
        for x, views in zip(got, (views1, views2)):
            expected = tt.prepare_batch(views, 8)
            assert x.shape == expected.shape and x.tobytes() == expected.tobytes()
        # and, before the resize, each view is its own policy run on a fresh stream
        pairs = P.view_pairs(images, plan, indices, soil_bank)
        for img, index, pair in zip(images, indices, pairs, strict=True):
            for v, view in enumerate(pair):
                stream = RandomStream(derive_seed(plan.master_seed, 2 * index + v))
                want = P.apply_policy(img, plan, stream, soil_bank)
                assert view.shape == want.shape and view.tobytes() == want.tobytes()

    def test_sets_prefetch_their_own_size_one_at_a_time(self, monkeypatch, soil_bank):
        # a stream set holds images of one prefetch size, as many as share a
        # lane pass: 4 streams of 8,000 draws at 73 px, one image from 74 px
        # on. Each set's read-ahead is freed before the next set's prefetch.
        sizes = [16, 128, 73, 16, 73, 128, 73, 16]
        corpus = tt.make_synthetic_corpus(len(sizes), size=128, seed=4)
        images = [img[:size, :size] for img, size in zip(corpus, sizes)]
        prefetch, sets, alive = P.prefetch, [], []

        def spy(streams, n):
            assert all(ref() is None for ref in alive)
            prefetch(streams, n)
            sets.append((len(streams), n))
            alive.append(weakref.ref(streams[0]._ahead.base))

        monkeypatch.setattr(P, "prefetch", spy)
        tt.view_batches(images, P.default_policy(3), range(len(sizes)), 8, soil_bank)
        assert sorted(sets) == [(2, 8000), (2, 24576), (2, 24576), (4, 8000), (6, 384)]

    def test_indices_must_parallel_the_images(self):
        images = tt.make_synthetic_corpus(3, size=8)
        with pytest.raises(ValueError):
            tt.view_batches(images, tiny_policy(), [0, 1], 8)


class TestCheckpointCodec:
    def test_round_trip_bit_identical(self):
        model = small_model(seed=3)
        model.step = 41
        buffers = np.linspace(-1, 1, 4 * tt.PROJ_HIDDEN).reshape(4, -1)
        buffers[1::2] += 2  # running std rows may not be negative
        model.set_buffers(buffers.ravel())
        cfg = tt.TrainConfig(input_size=4, embed_dim=4, max_steps=17)
        ckpt = tt.make_checkpoint(model, cfg)
        back = tt.load_checkpoint(tt.save_checkpoint(ckpt))
        assert np.array_equal(back.params, ckpt.params)
        assert np.array_equal(back.buffers, ckpt.buffers)
        assert back.step == 41
        assert back.config == cfg

    def test_config_takes_the_model_dims_and_round_trips(self):
        ckpt = tt.make_checkpoint(tt.init_model(6, 4), tt.TrainConfig())
        assert (ckpt.config.input_size, ckpt.config.embed_dim) == (6, 4)
        back = tt.load_checkpoint(tt.save_checkpoint(ckpt))
        assert back.config == ckpt.config
        model = tt.model_from_checkpoint(back)
        assert (model.input_size, model.embed_dim) == (6, 4)

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

    @pytest.mark.parametrize("index, value", BAD_BUFFERS)
    def test_bad_running_statistics_rejected(self, index, value):
        model = small_model()
        ckpt = tt.make_checkpoint(model, tt.TrainConfig(input_size=4, embed_dim=4))
        ckpt.buffers[index] = value
        with pytest.raises(tt.CheckpointError, match="invalid buffers"):
            tt.load_checkpoint(tt.save_checkpoint(ckpt))
        with pytest.raises(ValueError):
            model.set_buffers(ckpt.buffers)
        assert np.array_equal(model.buffers(), tt.TinyModel(4, 4).buffers())

    def test_non_finite_parameters_rejected(self):
        ckpt = tt.make_checkpoint(small_model(), tt.TrainConfig(input_size=4, embed_dim=4))
        ckpt.params[7] = float("nan")
        with pytest.raises(tt.CheckpointError, match="invalid parameters"):
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

    # 42 streams of a 16 px image share a lane pass, so these counts fill
    # one pass, straddle the edge of the first and second, and fill 13
    @pytest.mark.parametrize("count, size", [
        (1, 16), (41, 16), (42, 16), (43, 16), (85, 16), (512, 16), (3, 128), (5, 8),
    ])
    @pytest.mark.parametrize("make, oracle", [
        (tt.make_synthetic_corpus, "oracle_corpus"), (tt.make_synthetic_soil, "oracle_soil"),
    ])
    def test_each_image_equals_its_own_stream(self, make, oracle, count, size):
        # image i depends only on stream i, whatever the count
        seed = 7
        got = make(count, size, seed=seed)
        want = getattr(self, oracle)(count, size, seed)
        assert len(got) == count
        for i, (a, b) in enumerate(zip(got, want)):
            assert a.dtype == np.uint8 and a.shape == (size, size, 3) and a.flags.owndata, i
            assert np.array_equal(a, b), i

    @pytest.mark.parametrize("make", [tt.make_synthetic_corpus, tt.make_synthetic_soil])
    def test_negative_count_is_value_error(self, make):
        with pytest.raises(ValueError, match=r"^image count must be >= 0, got -5$"):
            make(-5, 8)
        assert make(0, 8) == []
        for size in (0, -2):
            with pytest.raises(ValueError, match=rf"^image size must be >= 1, got {size}$"):
                make(3, size)
        with pytest.raises(ValueError, match=r"^image count must be an integer, got 2\.5$"):
            make(2.5, 4)
        with pytest.raises(ValueError, match=r"^image size must be an integer, got 1\.5$"):
            make(2, 1.5)

    def test_corpus_numpy_peak_stays_small(self):
        # a stream set's draws become images pass by pass; holding all
        # 512 x 768 draws at once would peak near 10 MB
        tt.make_synthetic_corpus(4, 16)
        tracemalloc.start()
        try:
            tt.make_synthetic_corpus(512, 16)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2.5e6

    # one stream at a time, in each image's draw order
    @staticmethod
    def oracle_corpus(count, size, seed):
        images = []
        for i in range(count):
            stream = RandomStream(derive_seed(seed, i))
            base = (60 + stream.next_below(140), 50 + stream.next_below(120),
                    30 + stream.next_below(110))
            noise = stream.below_many(size * size * 3, 20).reshape(size, size, 3)
            img = np.minimum(255, noise + base).astype(np.uint8)
            blob_color = (10 + stream.next_below(80), 90 + stream.next_below(140),
                          10 + stream.next_below(80))
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
                img[major ** 2 + minor ** 2 <= 1.0] = blob_color
            images.append(img)
        return images

    @staticmethod
    def oracle_soil(count, size, seed):
        images = []
        for i in range(count):
            stream = RandomStream(derive_seed(seed, i))
            noise = stream.below_many(size * size * 3, np.tile((50, 40, 35), size * size))
            images.append((noise.reshape(size, size, 3) + (100, 70, 40)).astype(np.uint8))
        return images


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

    def test_keys_parse_the_same_when_field_types_are_real_types(self, monkeypatch):
        # a dataclass field's .type is its annotation's text only under
        # `from __future__ import annotations`; parsing must not depend on it
        fields = dataclasses.fields(tt.TrainConfig)
        hints = typing.get_type_hints(tt.TrainConfig)
        for field in fields:
            monkeypatch.setattr(field, "type", hints[field.name])
        cfg = tt.TrainConfig(batch_size=8, learning_rate=0.25, weight_decay=0.0, epochs=3,
                             lam=0.2, seed=12, embed_dim=4, input_size=8, max_steps=40)
        text = "".join(f"{field.name}={getattr(cfg, field.name)}\n" for field in fields)
        assert tt.load_train_config(text) == cfg
        for unset in ("none", ""):
            assert tt.load_train_config(f"max_steps={unset}\n").max_steps is None

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="line 1"):
            tt.load_train_config("momentum=0.9\n")

    def test_spaces_comments_and_blank_lines(self):
        cfg = tt.load_train_config(b"  # desk run\n\n epochs = 3 \r\n\tlam=0.5\n")
        assert (cfg.epochs, cfg.lam) == (3, 0.5)

    def test_byte_that_is_not_utf8_names_its_line(self):
        with pytest.raises(ValueError) as info:
            tt.load_train_config(b"epochs=2\nseed=\x80\n")
        assert str(info.value) == "not UTF-8 (line 2)"

    def test_repeated_key_names_second_line(self):
        with pytest.raises(ValueError) as info:
            tt.load_train_config("epochs=2\n# again\nepochs=3\n")
        assert str(info.value) == "epochs set twice, first on line 1 (line 3)"

    def test_bad_value_rejected(self):
        with pytest.raises(ValueError, match="epochs"):
            tt.load_train_config("epochs=three\n")

    def test_validation(self):
        with pytest.raises(ValueError, match="batch_size"):
            tt.TrainConfig(batch_size=1).validate()

    @pytest.mark.parametrize("name", ["learning_rate", "weight_decay", "lam"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf"),
                                       pytest.param(10 ** 400, id="10**400")])
    def test_non_finite_values_rejected(self, name, value):
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            tt.TrainConfig(**{name: value}).validate()

    def test_non_finite_text_rejected_with_line(self):
        with pytest.raises(ValueError, match=r"learning_rate must be finite, got nan \(line 2\)"):
            tt.load_train_config("# cfg\nlearning_rate=nan\nlam=inf\n")
        with pytest.raises(ValueError, match=r"lam must be finite, got inf \(line 1\)"):
            tt.load_train_config("lam=inf\n")

    @pytest.mark.parametrize("name, value, message", [
        ("seed", -1, r"seed must be in \[0, 2\*\*64\), got -1"),
        ("seed", 2 ** 64, r"seed must be in \[0, 2\*\*64\), got 18446744073709551616"),
        ("batch_size", 2 ** 32, r"batch_size must be < 2\*\*32, got 4294967296"),
        ("epochs", 2 ** 32, r"epochs must be < 2\*\*32"),
        ("embed_dim", 2 ** 32, r"embed_dim must be < 2\*\*32"),
        ("input_size", 2 ** 32, r"input_size must be < 2\*\*32"),
        ("max_steps", 2 ** 64, r"max_steps must be < 2\*\*64"),
    ])
    def test_values_save_checkpoint_cannot_pack_rejected(self, name, value, message):
        with pytest.raises(ValueError, match=message):
            tt.TrainConfig(**{name: value}).validate()

    @pytest.mark.parametrize("name, value", [
        ("batch_size", 2.5), ("epochs", 3.0), ("embed_dim", 4.0), ("input_size", 8.5),
        ("seed", 1.5), ("max_steps", 2.5),
    ])
    def test_non_integer_values_rejected(self, name, value):
        with pytest.raises(ValueError, match=f"{name} must be an integer, got {value}"):
            tt.TrainConfig(**{name: value}).validate()

    def test_largest_packable_values_round_trip(self):
        cfg = tt.TrainConfig(batch_size=2 ** 32 - 1, epochs=2 ** 32 - 1, max_steps=2 ** 64 - 1,
                             seed=2 ** 64 - 1, input_size=4, embed_dim=4)
        cfg.validate()
        ckpt = tt.load_checkpoint(tt.save_checkpoint(tt.make_checkpoint(small_model(), cfg)))
        assert ckpt.config == cfg

    def test_huge_integer_text_rejected_with_line(self):
        with pytest.raises(ValueError, match=r"batch_size must be < 2\*\*32, got 9+ \(line 2\)"):
            tt.load_train_config("# cfg\nbatch_size=" + "9" * 400 + "\n")
        with pytest.raises(ValueError, match=r"seed must be in .* \(line 1\)"):
            tt.load_train_config("seed=-1\n")

    def test_invalid_value_reported_with_line(self):
        with pytest.raises(ValueError, match=r"batch_size must be >= 2 .*\(line 3\)"):
            tt.load_train_config("epochs=2\n\nbatch_size=1\n")
