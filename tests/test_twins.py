import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fieldaug import twins as tw


def naive_cross_correlation(z1n, z2n):
    n, d = z1n.shape
    c = np.zeros((d, d))
    for i in range(d):
        for j in range(d):
            total = 0.0
            for b in range(n):
                total += z1n[b, i] * z2n[b, j]
            c[i, j] = total / n
    return c


class TestBatchNormalize:
    def test_already_standardized_nearly_unchanged(self, rng):
        z = rng.standard_normal((64, 3))
        z = (z - z.mean(0)) / z.std(0)
        out = tw.batch_normalize(z)
        assert np.abs(out - z).max() < 1e-4

    def test_constant_column_becomes_zero(self):
        z = np.ones((8, 2))
        z[:, 1] = np.arange(8)
        out = tw.batch_normalize(z)
        assert np.all(out[:, 0] == 0.0)

    def test_output_statistics(self, rng):
        z = rng.standard_normal((8, 4)) * 5 + 3
        out = tw.batch_normalize(z)
        assert np.abs(out.mean(0)).max() < 1e-7
        assert np.abs(out.std(0) - 1.0).max() < 1e-3

    def test_needs_two_rows(self):
        with pytest.raises(ValueError, match="n >= 2"):
            tw.batch_normalize(np.ones((1, 3)))

    def test_rejects_non_finite(self):
        z = np.ones((4, 2))
        z[0, 0] = np.nan
        with pytest.raises(ValueError, match="finite"):
            tw.batch_normalize(z)


class TestCrossCorrelation:
    def test_self_correlation_diag_near_one(self, rng):
        z = tw.batch_normalize(rng.standard_normal((32, 5)))
        c = tw.cross_correlation(z, z)
        assert np.abs(np.diag(c) - 1.0).max() < 1e-3

    def test_anti_correlation(self, rng):
        z = tw.batch_normalize(rng.standard_normal((32, 5)))
        c = tw.cross_correlation(z, -z)
        assert np.abs(np.diag(c) + 1.0).max() < 1e-3

    def test_matches_naive_sum(self, rng):
        z1 = tw.batch_normalize(rng.standard_normal((4, 3)))
        z2 = tw.batch_normalize(rng.standard_normal((4, 3)))
        c = tw.cross_correlation(z1, z2)
        assert np.abs(c - naive_cross_correlation(z1, z2)).max() < 1e-10

    def test_diag_equals_std_shrinkage(self, rng):
        z = rng.standard_normal((64, 4)) * np.array([0.5, 1.0, 2.0, 10.0])
        zn = tw.batch_normalize(z)
        c = tw.cross_correlation(zn, zn)
        sigma = z.std(axis=0)
        expected = (sigma / (sigma + tw.BN_EPS)) ** 2
        assert np.abs(np.diag(c) - expected).max() < 1e-9

    def test_shape_mismatch(self, rng):
        z1 = tw.batch_normalize(rng.standard_normal((8, 3)))
        z2 = tw.batch_normalize(rng.standard_normal((8, 4)))
        with pytest.raises(ValueError, match="mismatch"):
            tw.cross_correlation(z1, z2)

    def test_unnormalized_input_rejected(self, rng):
        z = rng.standard_normal((8, 3)) * 50 + 100
        with pytest.raises(ValueError, match="normalized"):
            tw.cross_correlation(z, z)


class TestLoss:
    def test_identity_is_zero(self):
        assert tw.bt_loss(np.eye(6)) == 0.0

    def test_zero_matrix_gives_dimension(self):
        for d in (1, 3, 8):
            assert tw.bt_loss(np.zeros((d, d))) == float(d)

    def test_hand_case(self):
        c = np.array([[1.0, 0.5], [0.5, 1.0]])
        assert abs(tw.bt_loss(c, 5e-3) - 0.0025) < 1e-12

    def test_nonnegative_and_zero_only_at_identity(self, rng):
        for _ in range(20):
            c = rng.uniform(-1, 1, size=(4, 4))
            value = tw.bt_loss(c)
            assert value >= 0.0
            if not np.allclose(c, np.eye(4)):
                assert value > 0.0

    def test_affine_in_lambda_with_offdiagonal_slope(self, rng):
        c = rng.uniform(-1, 1, size=(5, 5))
        off_sq = (c ** 2).sum() - (np.diag(c) ** 2).sum()
        lam = 0.125
        assert tw.bt_loss(c, 2 * lam) - tw.bt_loss(c, lam) == pytest.approx(lam * off_sq)

    def test_column_permutation_invariance(self, rng):
        z1 = rng.standard_normal((16, 5))
        z2 = rng.standard_normal((16, 5))
        perm = rng.permutation(5)
        a = tw.bt_loss_grad(z1, z2)[2]
        b = tw.bt_loss_grad(z1[:, perm], z2[:, perm])[2]
        assert a == pytest.approx(b, rel=1e-12)

    @settings(max_examples=100, deadline=None)
    @given(n=st.integers(2, 12), d=st.integers(1, 6), seed=st.integers(0, 2 ** 32 - 1),
           lam=st.floats(1e-6, 10.0))
    def test_gradient_path_loss_is_bt_loss(self, n, d, seed, lam):
        rng = np.random.default_rng(seed)
        z1 = rng.standard_normal((n, d))
        z2 = rng.standard_normal((n, d))
        loss, _, _, c = tw._bt_core(z1, z2, lam)
        assert tw.bt_loss(c, lam) == loss

    def test_rejects_non_square(self):
        with pytest.raises(ValueError, match="square"):
            tw.bt_loss(np.zeros((2, 3)))

    def test_rejects_bad_lambda(self):
        with pytest.raises(ValueError, match="lambda"):
            tw.bt_loss(np.eye(2), 0.0)

    @pytest.mark.parametrize("lam", [np.nan, np.inf, -np.inf, 0.0])
    def test_rejects_lambda_not_positive_and_finite(self, lam):
        z = np.random.default_rng(0).standard_normal((4, 2))
        with pytest.raises(ValueError, match="lambda must be positive and finite"):
            tw.bt_loss(np.eye(2), lam)
        with pytest.raises(ValueError, match="lambda must be positive and finite"):
            tw.bt_loss_grad(z, z[::-1], lam)


class TestGradient:
    def test_matches_finite_differences(self, rng):
        worst = 0.0
        for _ in range(10):
            n = int(rng.integers(4, 17))
            d = int(rng.integers(2, 9))
            z1 = rng.standard_normal((n, d))
            z2 = rng.standard_normal((n, d))
            worst = max(worst, tw.finite_diff_check(z1, z2, h=1e-4))
        assert worst < 1e-4

    def test_invariance_gradient_vanishes_at_identity_correlation(self):
        # orthogonal sign patterns give exactly standardized, exactly
        # decorrelated columns; C is then identity up to the epsilon
        # shrinkage and the invariance pull is O(eps)
        z = np.array([
            [1.0, 1.0],
            [1.0, -1.0],
            [-1.0, 1.0],
            [-1.0, -1.0],
        ])
        g1, g2, loss = tw.bt_loss_grad(z, z, lam=1e-12)
        assert loss < 1e-8
        assert np.abs(g1).max() < 1e-4
        assert np.abs(g2).max() < 1e-4

    def test_swap_symmetry(self, rng):
        z1 = rng.standard_normal((8, 4))
        z2 = rng.standard_normal((8, 4))
        g1, g2, loss = tw.bt_loss_grad(z1, z2)
        h2, h1, loss_swapped = tw.bt_loss_grad(z2, z1)
        assert loss == pytest.approx(loss_swapped, rel=1e-12)
        assert np.allclose(g1, h1)
        assert np.allclose(g2, h2)

    def test_shape_mismatch(self, rng):
        with pytest.raises(ValueError, match="mismatch"):
            tw.bt_loss_grad(rng.standard_normal((4, 2)), rng.standard_normal((4, 3)))


class TestFiniteDiffCheck:
    def test_coarse_h_reported_honestly(self, rng):
        z1 = rng.standard_normal((6, 3))
        z2 = rng.standard_normal((6, 3))
        fine = tw.finite_diff_check(z1, z2, h=1e-4)
        coarse = tw.finite_diff_check(z1, z2, h=1.0)
        assert coarse > fine
        assert coarse > 1e-4

    def test_rejects_bad_h(self, rng):
        z = rng.standard_normal((4, 2))
        for h in (0.0, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="^h must be positive"):
                tw.finite_diff_check(z, z, h=h)


class TestHelpers:
    def test_diag_and_offdiag_means(self):
        c = np.array([[1.0, 0.2, -0.2], [0.4, 0.5, 0.0], [0.0, -0.4, 0.0]])
        assert tw.diag_mean(c) == pytest.approx(0.5)
        assert tw.offdiag_mean_abs(c) == pytest.approx((0.2 + 0.2 + 0.4 + 0.0 + 0.0 + 0.4) / 6)
