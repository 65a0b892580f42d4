"""Segmentation evaluation: pixel-wise mIoU over soil/crop/weed, instance
AP/AR by greedy mask matching, and absolute difference in count.

Semantic label maps use class ids 0 = soil, 1 = crop, 2 = weed and travel
as binary PGM files with the id as the gray value. Instance sets are a
directory of binary PGM masks plus an optional ``scores.txt`` with
``<filename> <score>`` lines.

The AP/AR here is a single-threshold precision/recall over greedy
matching, not a threshold-averaged protocol; an exhaustive optimal
matcher for small instance counts is exported as the cross-check.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .imagecore import _first_line, _text_lines, load_pgm, save_pgm
from .vegmask import mask_from_pgm, mask_to_pgm

__all__ = [
    "NUM_CLASSES",
    "CLASS_NAMES",
    "confusion_matrix",
    "per_class_iou",
    "miou",
    "mean_precision",
    "mean_recall",
    "mask_iou",
    "instance_ap_ar",
    "optimal_match_count",
    "abs_dic",
    "load_label_map",
    "save_label_map",
    "load_instance_set",
    "save_instance_set",
]

NUM_CLASSES = 3
CLASS_NAMES = ("soil", "crop", "weed")


def _as_label_map(labels: np.ndarray) -> np.ndarray:
    labels = np.asarray(labels)
    if labels.ndim != 2:
        raise ValueError(f"expected (H, W) label map, got shape {labels.shape}")
    kind = labels.dtype.kind
    if kind not in "biuf" or (
            kind == "f" and not (np.isfinite(labels) & (np.floor(labels) == labels)).all()):
        raise ValueError("class ids must be integers")
    if labels.size and (labels.min() < 0 or labels.max() >= NUM_CLASSES):
        raise ValueError(f"class ids must be in [0, {NUM_CLASSES})")
    return labels.astype(np.int64)


def confusion_matrix(pred: np.ndarray, gt: np.ndarray) -> np.ndarray:
    """3x3 counts; entry (i, j) = pixels with ground truth i, prediction j."""
    pred = _as_label_map(pred)
    gt = _as_label_map(gt)
    if pred.shape != gt.shape:
        raise ValueError(f"shape mismatch: pred {pred.shape} vs gt {gt.shape}")
    joint = NUM_CLASSES * gt.reshape(-1) + pred.reshape(-1)
    return np.bincount(joint, minlength=NUM_CLASSES ** 2).reshape(NUM_CLASSES, NUM_CLASSES)


def _present(cm: np.ndarray) -> np.ndarray:
    """Classes appearing in ground truth or prediction."""
    return (cm.sum(axis=1) + cm.sum(axis=0)) > 0


def per_class_iou(cm: np.ndarray) -> np.ndarray:
    """IoU_c = TP / (TP + FP + FN); NaN for classes absent from both."""
    cm = np.asarray(cm, dtype=np.float64)
    tp = np.diag(cm)
    denom = cm.sum(axis=1) + cm.sum(axis=0) - tp
    out = np.full(NUM_CLASSES, np.nan)
    present = _present(cm)
    out[present] = tp[present] / denom[present]
    return out


def miou(cm: np.ndarray) -> float:
    """Mean IoU over the classes present in prediction or ground truth."""
    ious = per_class_iou(cm)
    present = ~np.isnan(ious)
    if not present.any():
        raise ValueError("all classes absent; mIoU undefined")
    return float(ious[present].mean())


def _mean_rate(cm: np.ndarray, axis: int, what: str) -> float:
    """Mean over present classes of TP over the sum along ``axis``."""
    cm = np.asarray(cm, dtype=np.float64)
    present = _present(cm)
    if not present.any():
        raise ValueError(f"all classes absent; {what} undefined")
    total = cm.sum(axis=axis)
    per = np.where(total > 0, np.diag(cm) / np.where(total > 0, total, 1.0), 0.0)
    return float(per[present].mean())


def mean_precision(cm: np.ndarray) -> float:
    """Mean over present classes of TP / (TP + FP); empty prediction
    columns contribute 0."""
    return _mean_rate(cm, 0, "precision")


def mean_recall(cm: np.ndarray) -> float:
    """Mean over present classes of TP / (TP + FN); empty ground-truth
    rows contribute 0."""
    return _mean_rate(cm, 1, "recall")


# ---------------------------------------------------------------------------
# instances
# ---------------------------------------------------------------------------

def mask_iou(a: np.ndarray, b: np.ndarray) -> float:
    a = np.asarray(a, dtype=bool)
    b = np.asarray(b, dtype=bool)
    if a.shape != b.shape:
        raise ValueError(f"mask shape mismatch: {a.shape} vs {b.shape}")
    union = np.logical_or(a, b).sum()
    if union == 0:
        return 0.0
    return float(np.logical_and(a, b).sum()) / float(union)


def _check_instances(masks, scores) -> None:
    shape = None
    for m in masks:
        m = np.asarray(m)
        if shape is None:
            shape = m.shape
        elif m.shape != shape:
            raise ValueError("instance masks must share dimensions")
    if scores is not None:
        if len(scores) != len(masks):
            raise ValueError("scores must parallel the masks")
        for s in scores:
            if not 0.0 <= s <= 1.0:
                raise ValueError(f"score {s} out of [0, 1]")


def instance_ap_ar(
    pred_masks,
    gt_masks,
    pred_scores=None,
    iou_threshold: float = 0.5,
) -> tuple[float, float]:
    """Greedy matching in descending score order (input order when
    unscored): each prediction takes the unmatched ground-truth mask of
    highest IoU if that IoU reaches the threshold.

    AP = matched / |pred|, AR = matched / |gt|. Conventions for empty
    sets: both empty -> (1, 1); no predictions -> (0, 0); no ground truth
    with predictions -> (0, 1) (nothing to recall, nothing matched).
    """
    _check_instances(pred_masks, pred_scores)
    _check_instances(gt_masks, None)
    n_pred, n_gt = len(pred_masks), len(gt_masks)
    if n_pred == 0 and n_gt == 0:
        return 1.0, 1.0
    if n_pred == 0:
        return 0.0, 0.0
    if n_gt == 0:
        return 0.0, 1.0

    if pred_scores is not None:
        order = sorted(range(n_pred), key=lambda i: -pred_scores[i])
    else:
        order = list(range(n_pred))

    taken = [False] * n_gt
    matched = 0
    for i in order:
        best_iou = 0.0
        best_j = -1
        for j in range(n_gt):
            if taken[j]:
                continue
            iou = mask_iou(pred_masks[i], gt_masks[j])
            if iou > best_iou:
                best_iou = iou
                best_j = j
        if best_j >= 0 and best_iou >= iou_threshold:
            taken[best_j] = True
            matched += 1
    return matched / n_pred, matched / n_gt


def optimal_match_count(pred_masks, gt_masks, iou_threshold: float = 0.5) -> int:
    """Maximum number of one-to-one matches with IoU >= threshold, by
    exhaustive search. Only sensible for small instance counts; this is
    the oracle the greedy matcher is compared against."""
    n_pred, n_gt = len(pred_masks), len(gt_masks)
    edges = [
        [mask_iou(pred_masks[i], gt_masks[j]) >= iou_threshold for j in range(n_gt)]
        for i in range(n_pred)
    ]

    def best(i: int, taken: int) -> int:
        if i == n_pred:
            return 0
        top = best(i + 1, taken)
        for j in range(n_gt):
            if edges[i][j] and not taken & (1 << j):
                top = max(top, 1 + best(i + 1, taken | (1 << j)))
        return top

    return best(0, 0)


def abs_dic(pred_count: int, gt_count: int) -> int:
    """Absolute difference in count."""
    if pred_count < 0 or gt_count < 0:
        raise ValueError("counts must be non-negative")
    return abs(int(pred_count) - int(gt_count))


# ---------------------------------------------------------------------------
# file formats
# ---------------------------------------------------------------------------

def save_label_map(labels: np.ndarray) -> bytes:
    return save_pgm(_as_label_map(labels).astype(np.uint8))


def load_label_map(data: bytes) -> np.ndarray:
    labels = load_pgm(data)
    if labels.max() >= NUM_CLASSES:
        raise ValueError(
            f"label map contains id {int(labels.max())}, valid ids are 0..{NUM_CLASSES - 1}"
        )
    return labels


def load_instance_set(directory) -> tuple[list[np.ndarray], list[float] | None]:
    """Read ``*.pgm`` masks in sorted filename order; values > 127 are
    foreground, and an unreadable mask raises ``ValueError`` naming it, as
    masks of different shapes do the directory. A ``scores.txt`` must score
    every mask once within [0, 1], and nothing else, or the error names it."""
    directory = Path(directory)
    mask_paths = sorted(directory.glob("*.pgm"))
    masks = []
    for p in mask_paths:
        try:
            masks.append(mask_from_pgm(p.read_bytes()))
        except ValueError as exc:
            raise ValueError(f"{p}: {exc}") from None
    if len({m.shape for m in masks}) > 1:
        raise ValueError(f"{directory}: instance masks must share dimensions")
    scores_path = directory / "scores.txt"
    if not scores_path.exists():
        return masks, None
    table = dict.fromkeys(p.name for p in mask_paths)  # each mask name -> its score
    lines: dict = {}  # each mask name -> its line
    try:
        for line_no, line in _text_lines(scores_path.read_bytes()):
            name, _, value = line.rpartition(" ")
            name = name.strip()
            if name not in table:
                raise ValueError(f"score line {line_no} names no mask: {line!r}")
            _first_line(lines, name, line_no)
            try:
                table[name] = float(value)
            except ValueError:
                raise ValueError(f"bad score line {line_no}: {line!r}") from None
        scores = list(table.values())
        if None in scores:
            raise ValueError(f"no score for {mask_paths[scores.index(None)].name}")
        _check_instances(masks, scores)  # each score in [0, 1]
    except ValueError as exc:
        raise ValueError(f"{scores_path}: {exc}") from None
    return masks, scores


def save_instance_set(directory, masks, scores=None) -> None:
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    names = []
    for i, mask in enumerate(masks):
        name = f"instance_{i:04d}.pgm"
        (directory / name).write_bytes(mask_to_pgm(mask))
        names.append(name)
    if scores is not None:
        _check_instances(masks, scores)
        lines = [f"{name} {score!r}" for name, score in zip(names, scores)]
        (directory / "scores.txt").write_text("\n".join(lines) + "\n")
