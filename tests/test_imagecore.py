import re

import numpy as np
import pytest

from fieldaug import imagecore as ic


class TestPpmCodec:
    def test_basic_decode(self):
        data = b"P6\n2 1\n255\n" + bytes([255, 0, 0, 0, 255, 0])
        img = ic.load_ppm(data)
        assert img.shape == (1, 2, 3)
        assert tuple(img[0, 0]) == (255, 0, 0)
        assert tuple(img[0, 1]) == (0, 255, 0)

    def test_header_with_comments_and_whitespace(self):
        data = b"P6 # comment\n # another\n 2\t1 \n255\n" + bytes(6)
        img = ic.load_ppm(data)
        assert img.shape == (1, 2, 3)

    def test_unsupported_maxval(self):
        with pytest.raises(ic.CodecError, match="maxval"):
            ic.load_ppm(b"P6\n1 1\n65535\n\x00\x00")

    def test_bad_magic(self):
        with pytest.raises(ic.CodecError, match="magic"):
            ic.load_ppm(b"P5\n1 1\n255\n\x00")

    def test_truncated_payload(self):
        with pytest.raises(ic.CodecError, match="truncated pixel data"):
            ic.load_ppm(b"P6\n2 2\n255\n\x00\x00\x00")

    def test_invalid_width(self):
        with pytest.raises(ic.CodecError, match="width"):
            ic.load_ppm(b"P6\nx 1\n255\n\x00\x00\x00")

    @pytest.mark.parametrize("header, message", [
        (b"P6 +1 1_0 0255\n", "invalid width: b'+1'"),
        (b"P6 10 1_0 255\n", "invalid height: b'1_0'"),
        (b"P6 10 1 -255\n", "invalid maxval: b'-255'"),
    ])
    def test_header_numbers_are_ascii_decimal(self, header, message):
        # int() would take a sign and underscores
        with pytest.raises(ic.CodecError, match=f"^{re.escape(message)}$"):
            ic.load_ppm(header + bytes(30))

    def test_header_numbers_may_have_leading_zeros(self):
        assert ic.load_ppm(b"P6 010 01 0255\n" + bytes(30)).shape == (1, 10, 3)

    def test_trailing_bytes_rejected(self, random_image):
        with pytest.raises(ic.CodecError, match="7 trailing bytes"):
            ic.load_ppm(ic.save_ppm(random_image) + b"garbage")
        # a second image appended is trailing data too
        with pytest.raises(ic.CodecError, match="trailing"):
            ic.load_ppm(ic.save_ppm(random_image) * 2)

    def test_canonical_encoding(self):
        black = np.zeros((1, 1, 3), np.uint8)
        assert ic.save_ppm(black) == b"P6\n1 1\n255\n\x00\x00\x00"

    def test_round_trip_random(self, rng):
        for h, w in ((1, 1), (1, 5), (7, 3), (16, 16)):
            img = rng.integers(0, 256, size=(h, w, 3), dtype=np.uint8)
            assert np.array_equal(ic.load_ppm(ic.save_ppm(img)), img)

    def test_save_then_load_save_is_fixed_point(self, random_image):
        once = ic.save_ppm(random_image)
        assert ic.save_ppm(ic.load_ppm(once)) == once

    def test_encoded_length(self, rng):
        img = rng.integers(0, 256, size=(64, 64, 3), dtype=np.uint8)
        data = ic.save_ppm(img)
        header = b"P6\n64 64\n255\n"
        assert len(data) == len(header) + 12288


class TestPgmCodec:
    def test_round_trip(self, rng):
        gray = rng.integers(0, 256, size=(5, 9), dtype=np.uint8)
        assert np.array_equal(ic.load_pgm(ic.save_pgm(gray)), gray)

    def test_bad_magic(self):
        with pytest.raises(ic.CodecError, match="magic"):
            ic.load_pgm(b"P6\n1 1\n255\n\x00\x00\x00")

    def test_trailing_bytes_rejected(self):
        data = ic.save_pgm(np.zeros((2, 3), np.uint8)) + b"\n"
        with pytest.raises(ic.CodecError, match="1 trailing bytes"):
            ic.load_pgm(data)


class TestByteConversion:
    def test_round_half_away_from_zero(self):
        values = np.array([0.4, 0.5, 1.5, 2.5, 254.5, 255.4, -3.0, 300.0])
        out = ic.u8_from_float(values)
        assert out.tolist() == [0, 1, 2, 3, 255, 255, 0, 255]

    def test_identity_on_integers(self, random_image):
        assert np.array_equal(ic.u8_from_float(random_image.astype(np.float64)), random_image)


class TestNormalize:
    def test_constant_gray_is_all_zero(self):
        img = np.full((4, 4, 3), 128, np.uint8)
        assert np.all(ic.normalize_image(img) == 0.0)

    def test_two_pixel_hand_case(self):
        img = np.zeros((1, 2, 3), np.uint8)
        img[0, 1] = 255
        norm = ic.normalize_image(img)
        assert np.allclose(norm[0, 0], -1.0, atol=1e-6)
        assert np.allclose(norm[0, 1], 1.0, atol=1e-6)

    def test_output_statistics(self, rng):
        for _ in range(5):
            img = rng.integers(0, 256, size=(12, 9, 3), dtype=np.uint8)
            flat = ic.normalize_image(img).reshape(-1, 3).astype(np.float64)
            assert np.abs(flat.mean(axis=0)).max() < 1e-4
            assert np.abs(flat.std(axis=0) - 1.0).max() < 1e-3

    def test_rejects_wrong_dtype(self):
        with pytest.raises(ValueError, match="uint8"):
            ic.normalize_image(np.zeros((2, 2, 3), np.float32))


class TestBilinear:
    def test_integer_coordinates_exact(self, random_image):
        h, w = random_image.shape[:2]
        for v in (0, 3, h - 1):
            for u in (0, 5, w - 1):
                out = ic.bilinear_sample(random_image, u, v, (0, 0, 0))
                assert np.array_equal(out, random_image[v, u].astype(np.float64))

    def test_fully_outside_returns_fill(self, random_image):
        fill = (7.0, 8.0, 9.0)
        assert np.array_equal(ic.bilinear_sample(random_image, -10, -10, fill), fill)
        assert np.array_equal(ic.bilinear_sample(random_image, 100, 2, fill), fill)

    def test_midpoint_interpolation(self):
        img = np.zeros((1, 2, 3), np.uint8)
        img[0, 0, 0] = 10
        img[0, 1, 0] = 20
        out = ic.bilinear_sample(img, 0.5, 0.0, (0, 0, 0))
        assert np.allclose(out, (15, 0, 0))

    def test_partial_overlap_blends_with_fill(self):
        img = np.full((2, 2, 3), 100, np.uint8)
        out = ic.bilinear_sample(img, -0.5, 0.0, (0.0, 0.0, 0.0))
        assert np.allclose(out, (50, 50, 50))

    def test_grid_matches_scalar(self, random_image, rng):
        xs = rng.uniform(-2, 18, size=10)
        ys = rng.uniform(-2, 18, size=10)
        grid = ic.bilinear_sample_grid(random_image, xs, ys, np.array([1.0, 2.0, 3.0]))
        for i in range(10):
            single = ic.bilinear_sample(random_image, xs[i], ys[i], (1.0, 2.0, 3.0))
            assert np.allclose(grid[i], single)


class TestResize:
    def test_same_size_is_identity(self, random_image):
        h, w = random_image.shape[:2]
        assert np.array_equal(ic.bilinear_resize(random_image, w, h), random_image)

    def test_corners_align(self, random_image):
        out = ic.bilinear_resize(random_image, 31, 9)
        assert np.array_equal(out[0, 0], random_image[0, 0])
        assert np.array_equal(out[-1, -1], random_image[-1, -1])

    def test_upscale_constant(self):
        img = np.full((2, 3, 3), 42, np.uint8)
        out = ic.bilinear_resize(img, 10, 8)
        assert out.shape == (8, 10, 3)
        assert np.all(out == 42)

    @pytest.mark.parametrize("size", [(3.7, 2), (3, 2.2), (3.0, 2), (np.float64(3), 2), ("3", 2)])
    def test_rejects_sizes_that_are_not_integers(self, size):
        with pytest.raises(ValueError, match="must be integers"):
            ic.bilinear_resize(np.zeros((5, 7, 3), np.uint8), *size)

    def test_numpy_integer_sizes(self, random_image):
        out = ic.bilinear_resize(random_image, np.int64(31), np.uint8(9))
        assert np.array_equal(out, ic.bilinear_resize(random_image, 31, 9))


class TestFlips:
    def test_involutions(self, random_image):
        assert np.array_equal(ic.flip_x(ic.flip_x(random_image)), random_image)
        assert np.array_equal(ic.flip_y(ic.flip_y(random_image)), random_image)

    def test_flip_x_on_row(self):
        img = np.zeros((1, 2, 3), np.uint8)
        img[0, 0] = (1, 2, 3)
        img[0, 1] = (4, 5, 6)
        out = ic.flip_x(img)
        assert tuple(out[0, 0]) == (4, 5, 6)
        assert tuple(out[0, 1]) == (1, 2, 3)

    def test_flip_y_on_column(self):
        img = np.zeros((2, 1, 3), np.uint8)
        img[0, 0] = (1, 2, 3)
        img[1, 0] = (4, 5, 6)
        out = ic.flip_y(img)
        assert tuple(out[0, 0]) == (4, 5, 6)
        assert tuple(out[1, 0]) == (1, 2, 3)

    def test_multiset_preserved(self, random_image):
        flat = np.sort(random_image.reshape(-1))
        assert np.array_equal(np.sort(ic.flip_x(random_image).reshape(-1)), flat)
        assert np.array_equal(np.sort(ic.flip_y(random_image).reshape(-1)), flat)
