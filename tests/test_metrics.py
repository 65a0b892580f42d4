import re

import numpy as np
import pytest

from fieldaug import metrics as mx
from fieldaug import vegmask as vm
from fieldaug.imagecore import save_pgm


def hand_case_cm():
    """TP=50, FP=25, FN=25 for every class."""
    cm = np.diag([50, 50, 50])
    cm[0, 1] = 25
    cm[1, 2] = 25
    cm[2, 0] = 25
    return cm


class TestConfusionMatrix:
    def test_perfect_prediction_is_diagonal(self, rng):
        gt = rng.integers(0, 3, size=(8, 8))
        cm = mx.confusion_matrix(gt, gt)
        assert np.array_equal(cm, np.diag(np.diag(cm)))
        assert cm.sum() == 64

    def test_all_soil_vs_all_crop(self):
        pred = np.zeros((10, 10), np.int64)
        gt = np.ones((10, 10), np.int64)
        cm = mx.confusion_matrix(pred, gt)
        assert cm[1, 0] == 100
        assert cm.sum() == 100

    def test_matches_pixel_loop(self, rng):
        pred = rng.integers(0, 3, size=(7, 9))
        gt = rng.integers(0, 3, size=(7, 9))
        cm = mx.confusion_matrix(pred, gt)
        manual = np.zeros((3, 3), np.int64)
        for v in range(7):
            for u in range(9):
                manual[gt[v, u], pred[v, u]] += 1
        assert np.array_equal(cm, manual)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            mx.confusion_matrix(np.zeros((2, 2), int), np.zeros((3, 3), int))

    def test_invalid_ids(self):
        with pytest.raises(ValueError, match="class ids"):
            mx.confusion_matrix(np.full((2, 2), 3), np.zeros((2, 2), int))

    @pytest.mark.parametrize("bad", [1.5, 0.2, -0.5, np.nan, np.inf, -np.inf])
    def test_non_integral_float_ids_rejected(self, bad):
        # a float label is a class id only when it is a finite integer: no
        # truncation to a class, and no cast warning for NaN
        pred = np.array([[1.0, bad]])
        with pytest.raises(ValueError, match="class ids must be integers"):
            mx.confusion_matrix(pred, np.array([[1, 0]]))
        with pytest.raises(ValueError, match="class ids must be integers"):
            mx.confusion_matrix(np.array([[1, 0]]), pred)

    @pytest.mark.parametrize("bad", [np.array([[1 + 0j, 0]]), np.array([[1, 2j]]),
                                     np.array([["1", "0"]]), np.array([[1, None]], dtype=object),
                                     np.array([[1, 0]], dtype=object)],
                             ids=["complex-real", "complex", "string", "none", "object"])
    def test_ids_of_other_kinds_rejected(self, bad):
        # only bool, integer and float maps hold class ids; a complex id is
        # not truncated to its real part, nor a string parsed
        with pytest.raises(ValueError, match="class ids must be integers"):
            mx.confusion_matrix(bad, np.array([[1, 0]]))
        with pytest.raises(ValueError, match="class ids must be integers"):
            mx.confusion_matrix(np.array([[1, 0]]), bad)

    @pytest.mark.parametrize("shape", [(0, 4), (3, 0), (0, 0)])
    def test_empty_maps_count_no_pixels(self, shape):
        for dtype in (np.int64, np.float64, bool):
            cm = mx.confusion_matrix(np.zeros(shape, dtype), np.zeros(shape, dtype))
            assert cm.shape == (3, 3) and not cm.any()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64, bool, np.uint8, np.int64])
    def test_integral_floats_bools_and_integers_accepted(self, dtype):
        pred = np.array([[0, 1], [1, 0]]).astype(dtype)
        gt = np.array([[0, 1], [0, 0]])
        assert np.array_equal(mx.confusion_matrix(pred, gt), [[2, 1, 0], [0, 1, 0], [0, 0, 0]])


class TestIouMetrics:
    def test_perfect_miou(self, rng):
        gt = rng.integers(0, 3, size=(6, 6))
        assert mx.miou(mx.confusion_matrix(gt, gt)) == 1.0

    def test_hand_case_exactly_half(self):
        cm = hand_case_cm()
        assert np.allclose(mx.per_class_iou(cm), 0.5)
        assert mx.miou(cm) == 0.5

    def test_absent_class_excluded(self):
        cm = np.array([[40, 10, 0], [5, 45, 0], [0, 0, 0]])
        ious = mx.per_class_iou(cm)
        assert np.isnan(ious[2])
        expected = (40 / 55 + 45 / 60) / 2
        assert mx.miou(cm) == pytest.approx(expected)

    def test_all_absent_is_error(self):
        with pytest.raises(ValueError, match="undefined"):
            mx.miou(np.zeros((3, 3), int))

    def test_miou_bounds(self, rng):
        for _ in range(10):
            pred = rng.integers(0, 3, size=(5, 5))
            gt = rng.integers(0, 3, size=(5, 5))
            value = mx.miou(mx.confusion_matrix(pred, gt))
            assert 0.0 <= value <= 1.0

    def test_miou_one_only_for_perfect_prediction(self, rng):
        gt = rng.integers(0, 3, size=(6, 6))
        pred = gt.copy()
        pred[0, 0] = (pred[0, 0] + 1) % 3
        assert mx.miou(mx.confusion_matrix(pred, gt)) < 1.0

    def test_mean_precision_recall(self):
        cm = np.array([[8, 2, 0], [1, 9, 0], [0, 0, 0]])
        # precision: col sums 9, 11; recall: row sums 10, 10
        assert mx.mean_precision(cm) == pytest.approx((8 / 9 + 9 / 11) / 2)
        assert mx.mean_recall(cm) == pytest.approx((8 / 10 + 9 / 10) / 2)

    def test_empty_prediction_column_counts_zero(self):
        cm = np.array([[5, 0, 0], [5, 0, 0], [0, 0, 0]])
        # class 1 present in gt, never predicted: precision contribution 0
        assert mx.mean_precision(cm) == pytest.approx((5 / 10 + 0.0) / 2)

    @pytest.mark.parametrize("cm, precision, recall", [
        # class 2 predicted once, never in ground truth: an empty row
        ([[4, 1, 1], [2, 3, 0], [0, 0, 0]], (4 / 6 + 3 / 4 + 0) / 3, (4 / 6 + 3 / 5 + 0) / 3),
        # class 1 in ground truth, never predicted: an empty column
        ([[4, 0, 2], [3, 0, 1], [0, 0, 5]], (4 / 7 + 0 + 5 / 8) / 3, (4 / 6 + 0 + 5 / 5) / 3),
        # class 2 absent from both: averaged over two classes
        ([[5, 1, 0], [2, 6, 0], [0, 0, 0]], (5 / 7 + 6 / 7) / 2, (5 / 6 + 6 / 8) / 2),
    ], ids=["empty-row", "empty-column", "absent-class"])
    def test_precision_and_recall_edge_cases(self, cm, precision, recall):
        assert mx.mean_precision(np.array(cm)) == pytest.approx(precision, rel=1e-15)
        assert mx.mean_recall(np.array(cm)) == pytest.approx(recall, rel=1e-15)

    def test_all_absent_rejected(self):
        with pytest.raises(ValueError, match="precision undefined"):
            mx.mean_precision(np.zeros((3, 3)))
        with pytest.raises(ValueError, match="recall undefined"):
            mx.mean_recall(np.zeros((3, 3)))


def disk_mask(shape, cv, cu, radius):
    vv, uu = np.mgrid[0:shape[0], 0:shape[1]]
    return (vv - cv) ** 2 + (uu - cu) ** 2 <= radius ** 2


class TestInstanceMatching:
    def test_identical_sets(self):
        masks = [disk_mask((20, 20), 5, 5, 3), disk_mask((20, 20), 14, 14, 4)]
        assert mx.instance_ap_ar(masks, masks) == (1.0, 1.0)

    def test_one_perfect_of_two(self):
        gt = [disk_mask((20, 20), 5, 5, 3), disk_mask((20, 20), 14, 14, 4)]
        pred = [gt[0]]
        ap, ar = mx.instance_ap_ar(pred, gt)
        assert (ap, ar) == (1.0, 0.5)

    def test_empty_conventions(self):
        mask = disk_mask((8, 8), 4, 4, 2)
        assert mx.instance_ap_ar([], []) == (1.0, 1.0)
        assert mx.instance_ap_ar([], [mask]) == (0.0, 0.0)
        assert mx.instance_ap_ar([mask], []) == (0.0, 1.0)

    def test_score_order_decides_matches(self):
        gt = [disk_mask((20, 20), 8, 8, 4)]
        good = disk_mask((20, 20), 8, 8, 4)
        bad = disk_mask((20, 20), 8, 9, 4)  # also above threshold but worse
        # the higher-scored prediction grabs the ground truth first
        ap, ar = mx.instance_ap_ar([bad, good], gt, pred_scores=[0.9, 0.1])
        assert (ap, ar) == (0.5, 1.0)

    def test_antitone_in_threshold(self, rng):
        shape = (16, 16)
        pred = [disk_mask(shape, 5, 5, 4), disk_mask(shape, 10, 11, 3)]
        gt = [disk_mask(shape, 5, 6, 4), disk_mask(shape, 11, 11, 3)]
        last_ap, last_ar = 1.0, 1.0
        for threshold in (0.1, 0.3, 0.5, 0.7, 0.9):
            ap, ar = mx.instance_ap_ar(pred, gt, iou_threshold=threshold)
            assert ap <= last_ap and ar <= last_ar
            last_ap, last_ar = ap, ar

    def test_scores_validated(self):
        mask = disk_mask((8, 8), 4, 4, 2)
        with pytest.raises(ValueError, match="score"):
            mx.instance_ap_ar([mask], [mask], pred_scores=[1.5])

    def test_crafted_three_instance_greedy_vs_optimal(self):
        # greedy grabs the middle ground truth with the first prediction
        # and strands the second; optimal matches both
        shape = (1, 12)
        gt = [np.zeros(shape, bool), np.zeros(shape, bool)]
        gt[0][0, 0:6] = True
        gt[1][0, 4:10] = True
        pred = [np.zeros(shape, bool), np.zeros(shape, bool)]
        pred[0][0, 1:8] = True   # overlaps both, prefers gt[1]
        pred[1][0, 4:11] = True  # only overlaps gt[1] enough
        greedy_ap, greedy_ar = mx.instance_ap_ar(pred, gt, iou_threshold=0.5)
        optimal = mx.optimal_match_count(pred, gt, iou_threshold=0.5)
        greedy_matched = round(greedy_ar * len(gt))
        assert optimal - greedy_matched in (0, 1)

    def test_greedy_never_beats_optimal_random_suite(self, rng):
        mismatches = 0
        for case in range(60):
            shape = (12, 12)
            n_pred = int(rng.integers(0, 5))
            n_gt = int(rng.integers(0, 5))
            pred = [disk_mask(shape, rng.integers(2, 10), rng.integers(2, 10), rng.integers(2, 5))
                    for _ in range(n_pred)]
            gt = [disk_mask(shape, rng.integers(2, 10), rng.integers(2, 10), rng.integers(2, 5))
                  for _ in range(n_gt)]
            ap, ar = mx.instance_ap_ar(pred, gt)
            optimal = mx.optimal_match_count(pred, gt)
            greedy = round(ar * n_gt) if n_gt else 0
            assert greedy <= optimal
            mismatches += int(greedy != optimal)
        # greedy is near-optimal on small sets; discrepancies stay rare
        assert mismatches <= 6


class TestAbsDic:
    def test_values(self):
        assert mx.abs_dic(5, 5) == 0
        assert mx.abs_dic(2, 8) == 6

    def test_triangle_inequality(self, rng):
        for _ in range(50):
            a, b, c = (int(x) for x in rng.integers(0, 40, size=3))
            assert mx.abs_dic(a, c) <= mx.abs_dic(a, b) + mx.abs_dic(b, c)

    def test_dataset_mean(self):
        pairs = [(3, 5), (7, 7), (0, 4)]
        mean = sum(mx.abs_dic(p, g) for p, g in pairs) / len(pairs)
        assert mean == pytest.approx(2.0)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            mx.abs_dic(-1, 2)


class TestLabelMapIO:
    def test_round_trip(self, rng):
        labels = rng.integers(0, 3, size=(5, 7)).astype(np.uint8)
        assert np.array_equal(mx.load_label_map(mx.save_label_map(labels)), labels)

    def test_invalid_id_rejected_on_load(self):
        from fieldaug.imagecore import save_pgm
        bad = save_pgm(np.full((2, 2), 9, np.uint8))
        with pytest.raises(ValueError, match="valid ids"):
            mx.load_label_map(bad)

    def test_invalid_id_rejected_on_save(self):
        with pytest.raises(ValueError, match="class ids"):
            mx.save_label_map(np.full((2, 2), 7))


class TestInstanceSetIO:
    def test_round_trip_with_scores(self, tmp_path, rng):
        masks = [rng.random((6, 6)) < 0.4 for _ in range(3)]
        scores = [0.9, 0.5, 0.1]
        mx.save_instance_set(tmp_path / "set", masks, scores)
        loaded, loaded_scores = mx.load_instance_set(tmp_path / "set")
        assert len(loaded) == 3
        for a, b in zip(loaded, masks):
            assert np.array_equal(a, b)
        assert loaded_scores == scores

    def test_unscored_set(self, tmp_path, rng):
        masks = [rng.random((4, 4)) < 0.5 for _ in range(2)]
        mx.save_instance_set(tmp_path / "set", masks)
        loaded, scores = mx.load_instance_set(tmp_path / "set")
        assert scores is None and len(loaded) == 2

    def test_masks_travel_in_the_vegmask_codec(self, tmp_path, rng):
        masks = [rng.random((5, 7)) < 0.5 for _ in range(2)]
        mx.save_instance_set(tmp_path / "set", masks)
        files = sorted((tmp_path / "set").glob("*.pgm"))
        assert [f.read_bytes() for f in files] == [vm.mask_to_pgm(m) for m in masks]
        # gray values either side of the codec's threshold
        gray = save_pgm(np.resize(np.array([0, 127, 128, 255], np.uint8), (5, 7)))
        files[1].write_bytes(gray)
        loaded, _ = mx.load_instance_set(tmp_path / "set")
        assert np.array_equal(loaded[0], masks[0])
        assert np.array_equal(loaded[1], vm.mask_from_pgm(gray))

    def test_unreadable_mask_named(self, tmp_path, rng):
        mx.save_instance_set(tmp_path / "set", [rng.random((4, 4)) < 0.5] * 2)
        bad = tmp_path / "set" / "instance_0001.pgm"
        bad.write_bytes(b"not a mask")
        with pytest.raises(ValueError, match=re.escape(f"{bad}: bad magic")):
            mx.load_instance_set(tmp_path / "set")

    def test_missing_score_rejected(self, tmp_path, rng):
        masks = [rng.random((4, 4)) < 0.5 for _ in range(2)]
        mx.save_instance_set(tmp_path / "set", masks, [0.5, 0.25])
        (tmp_path / "set" / "scores.txt").write_text("instance_0000.pgm 0.5\n")
        with pytest.raises(ValueError, match="no score"):
            mx.load_instance_set(tmp_path / "set")
