import numpy as np
import pytest

from fieldaug import vegmask as vm
from fieldaug.imagecore import normalize_image


def brute_force_morph(mask, kw, kh, op):
    """Per-pixel window loop with the documented anchor convention;
    out-of-bounds reads are background."""
    h, w = mask.shape
    du0 = -((kw - 1) // 2)
    dv0 = -((kh - 1) // 2)
    out = np.zeros_like(mask)
    for v in range(h):
        for u in range(w):
            values = []
            for dv in range(dv0, dv0 + kh):
                for du in range(du0, du0 + kw):
                    uu, vv = u + du, v + dv
                    if 0 <= uu < w and 0 <= vv < h:
                        values.append(bool(mask[vv, uu]))
                    else:
                        values.append(False)
            out[v, u] = all(values) if op == "erode" else any(values)
    return out


def brute_force_refine(mask):
    out = mask.copy()
    for _ in range(2):
        out = brute_force_morph(out, 2, 2, "erode")
    for _ in range(4):
        out = brute_force_morph(out, 6, 6, "dilate")
    return out


class TestExcessGreen:
    def test_zero_channels(self):
        norm = np.zeros((2, 2, 3), np.float32)
        assert np.all(vm.excess_green(norm) == 0.0)

    def test_direct_formula(self):
        norm = np.zeros((1, 1, 3), np.float32)
        norm[0, 0] = (-1.0, 2.0, -1.0)
        assert vm.excess_green(norm)[0, 0] == 6.0

    def test_matches_pixel_loop(self, rng):
        img = rng.integers(0, 256, size=(9, 13, 3), dtype=np.uint8)
        norm = normalize_image(img)
        field = vm.excess_green(norm)
        for v in range(9):
            for u in range(13):
                r, g, b = (float(norm[v, u, 0]), float(norm[v, u, 1]), float(norm[v, u, 2]))
                assert abs(field[v, u] - (2.0 * g - r - b)) < 1e-10


class TestBinarize:
    def test_all_below(self):
        assert not vm.binarize(np.full((3, 3), -1.0), 0.0).any()

    def test_strict_boundary(self):
        field = np.zeros((2, 2))
        assert not vm.binarize(field, 0.0).any()

    def test_matches_comparison(self, rng):
        field = rng.normal(size=(6, 6))
        theta = 0.3
        assert np.array_equal(vm.binarize(field, theta), field > theta)

    def test_monotone_in_theta(self, rng):
        field = rng.normal(size=(8, 8))
        low = vm.binarize(field, -0.5)
        high = vm.binarize(field, 0.5)
        assert not (high & ~low).any()


class TestMorphology:
    def test_dilate_all_zero(self):
        mask = np.zeros((5, 5), bool)
        assert not vm.dilate(mask, 3, 3).any()

    def test_dilate_single_pixel_3x3(self):
        mask = np.zeros((7, 7), bool)
        mask[3, 3] = True
        out = vm.dilate(mask, 3, 3)
        expected = np.zeros((7, 7), bool)
        expected[2:5, 2:5] = True
        assert np.array_equal(out, expected)

    def test_dilate_clips_at_border(self):
        mask = np.zeros((4, 4), bool)
        mask[0, 0] = True
        out = vm.dilate(mask, 3, 3)
        expected = np.zeros((4, 4), bool)
        expected[0:2, 0:2] = True
        assert np.array_equal(out, expected)

    def test_erode_dilate_contains_original(self):
        mask = np.zeros((9, 9), bool)
        mask[4, 4] = True
        grown = vm.dilate(mask, 3, 3)
        back = vm.erode(grown, 3, 3)
        assert back[4, 4]

    @pytest.mark.parametrize("kw,kh", [(2, 2), (3, 3), (6, 6), (3, 2), (1, 4)])
    def test_matches_brute_force(self, rng, kw, kh):
        mask = rng.random((11, 8)) < 0.4
        assert np.array_equal(vm.erode(mask, kw, kh), brute_force_morph(mask, kw, kh, "erode"))
        assert np.array_equal(vm.dilate(mask, kw, kh), brute_force_morph(mask, kw, kh, "dilate"))

    def test_kernel_larger_than_image(self):
        mask = np.ones((3, 3), bool)
        assert not vm.erode(mask, 7, 7).any()
        assert vm.dilate(mask, 7, 7).all()

    def test_erosion_anti_extensive_dilation_extensive(self, rng):
        mask = rng.random((10, 10)) < 0.5
        eroded = vm.erode(mask, 3, 3)
        dilated = vm.dilate(mask, 3, 3)
        assert not (eroded & ~mask).any()
        assert not (mask & ~dilated).any()

    def test_monotone_in_input(self, rng):
        small = rng.random((8, 8)) < 0.3
        large = small | (rng.random((8, 8)) < 0.3)
        assert not (vm.erode(small, 2, 2) & ~vm.erode(large, 2, 2)).any()
        assert not (vm.dilate(small, 2, 2) & ~vm.dilate(large, 2, 2)).any()

    def test_invalid_kernel(self):
        with pytest.raises(ValueError):
            vm.erode(np.zeros((3, 3), bool), 0, 2)
        for op in (vm.erode, vm.dilate):
            with pytest.raises(ValueError, match=r"^kernel dimensions must be >= 1$"):
                op(np.zeros((3, 3), bool), 2, 0)
            with pytest.raises(ValueError, match=r"^kernel dimensions must be integers, got 1\.5$"):
                op(np.zeros((3, 3), bool), 1.5, 2)


class TestRefineMask:
    def test_all_zero(self):
        assert not vm.refine_mask(np.zeros((10, 10), bool)).any()

    def test_isolated_pixel_removed(self):
        mask = np.zeros((20, 20), bool)
        mask[10, 10] = True
        assert not vm.refine_mask(mask).any()

    def test_solid_block_survives_and_grows(self):
        mask = np.zeros((40, 40), bool)
        mask[10:30, 10:30] = True
        refined = vm.refine_mask(mask)
        assert refined.sum() > mask.sum()
        assert refined[12:28, 12:28].all()
        assert np.array_equal(refined, brute_force_refine(mask))

    def test_matches_composition_oracle(self, rng):
        masks = [rng.random((16, 16)) < 0.45 for _ in range(3)]
        masks += [rng.random(shape) < 0.8 for shape in [(1, 39), (39, 1), (7, 23), (33, 14)]]
        masks.append(rng.random((512, 512)) < 0.45)
        for mask in masks:
            assert np.array_equal(vm.refine_mask(mask), brute_force_refine(mask))


class TestVegetationFraction:
    def test_extremes(self):
        assert vm.vegetation_fraction(np.zeros((4, 4), bool)) == 0.0
        assert vm.vegetation_fraction(np.ones((4, 4), bool)) == 1.0

    def test_count(self):
        mask = np.zeros((10, 10), bool)
        mask.reshape(-1)[:7] = True
        assert vm.vegetation_fraction(mask) == pytest.approx(0.07)


class TestMaskPgm:
    def test_round_trip(self, rng):
        mask = rng.random((6, 7)) < 0.5
        assert np.array_equal(vm.mask_from_pgm(vm.mask_to_pgm(mask)), mask)
