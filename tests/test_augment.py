import math

import numpy as np
import pytest

from fieldaug import augment as au
from fieldaug.imagecore import bilinear_resize, flip_x, flip_y
from fieldaug.rng import RandomStream
from fieldaug.vegmask import vegetation_fraction

from conftest import make_plant_image, make_soil_images


class TestSampleAffine:
    def test_fields_inside_ranges(self):
        rng = RandomStream(1)
        for _ in range(200):
            p = au.sample_affine(rng, 32, 24)
            assert 0.5 <= p.scale <= 2.0
            assert -math.pi <= p.rotation <= math.pi
            assert 0.25 <= p.shear_x <= 0.75
            assert 0.25 <= p.shear_y <= 0.75
            assert -8.0 <= p.t_x <= 8.0
            assert -6.0 <= p.t_y <= 6.0

    def test_deterministic(self):
        assert au.sample_affine(RandomStream(9), 16, 16) == au.sample_affine(RandomStream(9), 16, 16)

    def test_empirical_range_coverage(self):
        rng = RandomStream(5)
        draws = [au.sample_affine(rng, 100, 100) for _ in range(10000)]
        # every field approaches its endpoints within 2% of the range width
        cases = [
            ([p.scale for p in draws], 0.5, 2.0),
            ([p.rotation for p in draws], -math.pi, math.pi),
            ([p.shear_x for p in draws], 0.25, 0.75),
            ([p.shear_y for p in draws], 0.25, 0.75),
            ([p.t_x for p in draws], -25.0, 25.0),
            ([p.t_y for p in draws], -25.0, 25.0),
        ]
        for values, lo, hi in cases:
            slack = 0.02 * (hi - lo)
            assert min(values) < lo + slack
            assert max(values) > hi - slack


class TestApplyAffine:
    def test_identity_parameters(self, random_image):
        p = au.AffineParams(1.0, 0.0, 0.0, 0.0, 0.0, 0.0)
        assert np.array_equal(au.apply_affine(random_image, p), random_image)

    def test_pure_translation(self, random_image):
        p = au.AffineParams(1.0, 0.0, 0.0, 0.0, 1.0, 0.0)
        out = au.apply_affine(random_image, p)
        assert np.array_equal(out[:, 1:], random_image[:, :-1])

    def test_rotation_pi_is_double_flip(self, random_image):
        p = au.AffineParams(1.0, math.pi, 0.0, 0.0, 0.0, 0.0)
        out = au.apply_affine(random_image, p)
        expected = flip_x(flip_y(random_image))
        assert np.abs(out.astype(int) - expected.astype(int)).max() <= 1

    def test_singular_matrix_rejected(self, random_image):
        p = au.AffineParams(1.0, 0.0, 1.0, 1.0, 0.0, 0.0)  # det(shear) = 0
        with pytest.raises(ValueError, match="singular"):
            au.apply_affine(random_image, p)


class TestColorJitter:
    def test_identity_parameters(self, random_image):
        p = au.ColorJitterParams(1.0, 1.0, 1.0, 0.0)
        out = au.color_jitter(random_image, p)
        assert np.abs(out.astype(int) - random_image.astype(int)).max() <= 1

    def test_zero_brightness_is_black(self, random_image):
        out = au.color_jitter(random_image, au.ColorJitterParams(0.0, 1.0, 1.0, 0.0))
        assert out.max() == 0

    def test_hue_rotation_red_to_green(self):
        red = np.zeros((2, 2, 3), np.uint8)
        red[:, :, 0] = 255
        out = au.color_jitter(red, au.ColorJitterParams(1.0, 1.0, 1.0, 1.0 / 3.0))
        assert np.abs(out.astype(int) - [0, 255, 0]).max() <= 1

    def test_hue_full_turn_is_identity(self, random_image):
        # hue 0.999... approximates a full turn back to the original
        out = au.color_jitter(random_image, au.ColorJitterParams(1.0, 1.0, 1.0, 1.0 - 1e-12))
        assert np.abs(out.astype(int) - random_image.astype(int)).max() <= 1

    def test_sampler_ranges(self):
        rng = RandomStream(2)
        for _ in range(200):
            p = au.sample_color_jitter(rng)
            assert 0.6 <= p.brightness <= 1.4
            assert 0.6 <= p.contrast <= 1.4
            assert 0.8 <= p.saturation <= 1.2
            assert 0.0 <= p.hue <= 0.125


class TestGaussianBlur:
    def test_constant_image_fixed_exactly(self):
        img = np.full((9, 9, 3), 201, np.uint8)
        assert np.array_equal(au.gaussian_blur(img, 1.7), img)

    def test_near_delta_kernel(self, random_image):
        out = au.gaussian_blur(random_image, 0.1)
        assert np.abs(out.astype(int) - random_image.astype(int)).max() <= 1

    def test_brightness_preserved(self, rng):
        # smooth image so edge clamping changes little
        base = rng.integers(100, 156, size=(8, 8, 3), dtype=np.uint8)
        img = bilinear_resize(base, 64, 64)
        out = au.gaussian_blur(img, 2.0)
        before = img.astype(np.float64).sum()
        after = out.astype(np.float64).sum()
        assert abs(after - before) / before < 0.005

    def test_invalid_sigma(self, random_image):
        with pytest.raises(ValueError, match="sigma"):
            au.gaussian_blur(random_image, 0.0)


class TestMixing:
    def test_constant_image_unchanged(self):
        img = np.full((8, 8, 3), 55, np.uint8)
        assert np.array_equal(au.mixing(img, RandomStream(1)), img)

    def test_provenance_exhaustive(self, random_image):
        out = au.mixing(random_image, RandomStream(3))
        candidates = (random_image, flip_x(random_image), flip_y(random_image))
        ok = np.zeros(random_image.shape[:2], bool)
        for c in candidates:
            ok |= (out == c).all(axis=2)
        assert ok.all()

    def test_deterministic(self, random_image):
        a = au.mixing(random_image, RandomStream(8))
        b = au.mixing(random_image, RandomStream(8))
        assert np.array_equal(a, b)


class TestRandomErasing:
    def replay_rectangles(self, shape, seed, min_fraction, area_range=au.ERASE_AREA_RANGE,
                          aspect_range=au.ERASE_ASPECT_RANGE, max_rects=au.ERASE_MAX_RECTS):
        """Independent replay of the documented draw order; returns the
        coverage union."""
        h, w = shape
        rng = RandomStream(seed)
        covered = np.zeros((h, w), bool)
        for _ in range(max_rects):
            area = rng.uniform(*area_range) * h * w
            aspect = rng.uniform(*aspect_range)
            rw = max(1, min(w, int(math.sqrt(area * aspect))))
            rh = max(1, min(h, int(math.sqrt(area / aspect))))
            x = rng.next_below(w - rw + 1)
            y = rng.next_below(h - rh + 1)
            for _ in range(rh * rw * 3):
                rng.next_byte()
            covered[y:y + rh, x:x + rw] = True
            if covered.sum() >= min_fraction * h * w:
                break
        return covered

    def test_coverage_and_untouched_pixels(self, rng):
        img = rng.integers(0, 256, size=(32, 32, 3), dtype=np.uint8)
        seed = 77
        out = au.random_erasing(img, RandomStream(seed), 0.1)
        covered = self.replay_rectangles((32, 32), seed, 0.1)
        assert covered.mean() >= 0.1
        outside = ~covered
        assert np.array_equal(out[outside], img[outside])

    def test_single_rectangle_cannot_reach_min_fraction(self):
        # floor-based side lengths keep one rectangle at or below the top
        # of the area range, so min_fraction > 0.08 always needs several
        rng = RandomStream(4)
        total = 32 * 32
        for _ in range(2000):
            area = rng.uniform(*au.ERASE_AREA_RANGE) * total
            aspect = rng.uniform(*au.ERASE_ASPECT_RANGE)
            rw = max(1, min(32, int(math.sqrt(area * aspect))))
            rh = max(1, min(32, int(math.sqrt(area / aspect))))
            assert rw * rh <= au.ERASE_AREA_RANGE[1] * total

    def test_min_fraction_validation(self, random_image):
        for bad in (0.0, 0.5, -0.1, 0.9):
            with pytest.raises(ValueError, match="min_fraction"):
                au.random_erasing(random_image, RandomStream(1), bad)

    def test_deterministic(self, random_image):
        a = au.random_erasing(random_image, RandomStream(5), 0.1)
        b = au.random_erasing(random_image, RandomStream(5), 0.1)
        assert np.array_equal(a, b)


class TestBackgroundInvariance:
    def test_empty_bank_rejected(self, plant_image):
        with pytest.raises(ValueError, match="empty"):
            au.background_invariance(plant_image, au.SoilBank(), RandomStream(1))

    @pytest.mark.parametrize("kind", ["uint8", "one column"])
    def test_mask_must_be_bool_of_image_shape(self, plant_image, soil_bank, kind):
        # a 0/1 uint8 mask would index pixels by number, and an (H, 1)
        # mask would broadcast across the columns
        mask = au.refined_vegetation_mask(plant_image)
        mask = mask.astype(np.uint8) if kind == "uint8" else mask[:, :1]
        with pytest.raises(ValueError, match="mask must be"):
            au.background_invariance(plant_image, soil_bank, RandomStream(3), mask=mask)

    def test_all_background_mask_returns_soil(self, soil_bank):
        # constant brown image: normalization zeroes it, the mask is empty
        img = np.full((24, 24, 3), (120, 90, 60), np.uint8)
        seed = 9
        out = au.background_invariance(img, soil_bank, RandomStream(seed))
        idx = RandomStream(seed).next_below(len(soil_bank))
        expected = bilinear_resize(soil_bank.images[idx], 24, 24)
        assert np.array_equal(out, expected)

    def test_provenance_soil_or_translated_source(self, plant_image, soil_bank):
        seed = 21
        out = au.background_invariance(plant_image, soil_bank, RandomStream(seed))
        replay = RandomStream(seed)
        idx = replay.next_below(len(soil_bank))
        dx = math.floor(replay.uniform(-6.0, 6.0) + 0.5)
        dy = math.floor(replay.uniform(-6.0, 6.0) + 0.5)
        soil = bilinear_resize(soil_bank.images[idx], 24, 24)
        mask = au.refined_vegetation_mask(plant_image)
        h, w = out.shape[:2]
        for v in range(h):
            for u in range(w):
                su, sv = u - dx, v - dy
                from_source = (
                    0 <= su < w and 0 <= sv < h and mask[sv, su]
                    and np.array_equal(out[v, u], plant_image[sv, su])
                )
                from_soil = np.array_equal(out[v, u], soil[v, u])
                assert from_source or from_soil

    def test_pasted_area_matches_clipped_mask(self, plant_image, soil_bank):
        seed = 21
        out = au.background_invariance(plant_image, soil_bank, RandomStream(seed))
        replay = RandomStream(seed)
        idx = replay.next_below(len(soil_bank))
        dx = math.floor(replay.uniform(-6.0, 6.0) + 0.5)
        dy = math.floor(replay.uniform(-6.0, 6.0) + 0.5)
        mask = au.refined_vegetation_mask(plant_image)
        h, w = mask.shape
        clipped = 0
        for v in range(h):
            for u in range(w):
                if mask[v, u] and 0 <= u + dx < w and 0 <= v + dy < h:
                    clipped += 1
        soil = bilinear_resize(soil_bank.images[idx], 24, 24)
        pasted = (out != soil).any(axis=2).sum()
        # pasted pixels can only be fewer if source pixels equal soil pixels
        assert pasted <= clipped
        assert pasted >= clipped - 5


class TestSoilBank:
    def test_constant_brown_all_admitted(self):
        images = make_soil_images(4)
        bank = au.build_soil_bank(images)
        assert len(bank) == 4

    def test_half_green_rejected(self):
        img = make_plant_image(size=20, blob=((0, 20), (0, 10)))
        bank = au.build_soil_bank([img])
        assert len(bank) == 0
        assert vegetation_fraction(au.refined_vegetation_mask(img)) >= 0.5

    def test_order_invariant(self):
        images = make_soil_images(3) + [make_plant_image()]
        a = au.build_soil_bank(images)
        b = au.build_soil_bank(list(reversed(images)))
        assert len(a) == len(b) == 3
