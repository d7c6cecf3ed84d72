"""Seeded toy datasets: labeled 2-D points and 2x2 binary images.

All generators draw from ``numpy.random.default_rng`` (the 64-bit PCG64
generator), so identical seeds reproduce identical datasets bit for bit,
and every CSV written here carries its generation parameters in header
comments instead of timestamps.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Dataset:
    """Feature rows with one integer label per row."""

    features: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        features = np.asarray(self.features, dtype=float)
        labels = np.asarray(self.labels, dtype=int)
        if features.ndim != 2 or labels.ndim != 1:
            raise ValueError("features must be 2-D and labels 1-D")
        if features.shape[0] != labels.shape[0]:
            raise ValueError("features and labels disagree on the sample count")
        object.__setattr__(self, "features", features)
        object.__setattr__(self, "labels", labels)

    def __len__(self) -> int:
        return int(self.labels.size)


def zero_one_labels(labels) -> bool:
    """Whether every label is 0 or 1 (an empty set of labels is)."""
    labels = np.asarray(labels)
    return bool(np.all((labels == 0) | (labels == 1)))


def circle_dataset(n: int, seed: int) -> Dataset:
    """Points uniform on [-1, 1]^2, labeled +1 outside x1^2 + x2^2 = 1/2.

    The signal fraction converges to 1 - pi/8 (about 0.607).
    """
    rng = np.random.default_rng(seed)
    points = rng.uniform(-1.0, 1.0, size=(n, 2))
    labels = np.where(points[:, 0] ** 2 + points[:, 1] ** 2 > 0.5, 1, -1)
    return Dataset(points, labels)


def band_dataset(n: int, seed: int, probability_rule: str = "min") -> Dataset:
    """Points uniform on [-1, 1]^2 with noisy labels from (x1 + x2)^2.

    A point is labeled +2 with probability ``min(1, (x1 + x2)^2)`` and -2
    otherwise, so the classes overlap except along the diagonal.  The
    ``"max"`` rule (probability ``max(1, ...)``, which labels every point
    +2) is kept selectable for comparison but is not the default.
    """
    if probability_rule not in ("min", "max"):
        raise ValueError("probability_rule must be 'min' or 'max'")
    rng = np.random.default_rng(seed)
    points = rng.uniform(-1.0, 1.0, size=(n, 2))
    squared = (points[:, 0] + points[:, 1]) ** 2
    if probability_rule == "min":
        prob = np.minimum(1.0, squared)
    else:
        prob = np.maximum(1.0, squared)
    draws = rng.uniform(size=n)
    labels = np.where(draws < prob, 2, -2)
    return Dataset(points, labels)


def pixel_images() -> Dataset:
    """All 16 images on a 2x2 binary grid, ordered by their 4-bit code.

    Features are (p00, p01, p10, p11) with p<row><column>; the label is 1
    exactly when some column has both pixels set — 7 of the 16 images.
    """
    codes = np.arange(16)
    features = np.stack([(codes >> b) & 1 for b in range(4)], axis=1)
    p00, p01, p10, p11 = features.T
    labels = ((p00 & p10) | (p01 & p11)).astype(int)
    return Dataset(features.astype(float), labels)


def balanced_pixel_split(seed: int) -> tuple[Dataset, Dataset]:
    """Balanced 5+5 train / 2+2 test split of the 2x2 images.

    All 7 signal images are used; 7 of the 9 background images are chosen
    seeded, then each group is shuffled and split 5/2.
    """
    full = pixel_images()
    rng = np.random.default_rng(seed)
    signal = np.nonzero(full.labels == 1)[0]
    background = np.nonzero(full.labels == 0)[0]
    background = rng.permutation(background)[:7]
    signal = rng.permutation(signal)
    background = rng.permutation(background)
    train_rows = np.concatenate([signal[:5], background[:5]])
    test_rows = np.concatenate([signal[5:7], background[5:7]])
    train = Dataset(full.features[train_rows], full.labels[train_rows])
    test = Dataset(full.features[test_rows], full.labels[test_rows])
    return train, test


def write_dataset_csv(path, dataset: Dataset, header: dict | None = None):
    """Write samples as CSV with ``# key = value`` comment headers.

    Every row is formatted with one ``%`` template: ``%d`` cells when all
    features are integral, else ``%.17g`` (repr-exact, so identical datasets
    serialize byte-identically), then ``%d`` for the label.
    """
    features = dataset.features
    width = features.shape[1]
    cell = "%d" if np.all(features == np.round(features)) else "%.17g"
    template = ",".join([cell] * width + ["%d"]) + "\n"
    names = ["x1", "x2"] if width == 2 else [f"f{i}" for i in range(width)]
    if width == 4:
        names = ["p00", "p01", "p10", "p11"]
    lines = [f"# {key} = {value}\n" for key, value in (header or {}).items()]
    lines.append(",".join(names + ["label"]) + "\n")
    lines.extend(
        template % (*row, label) for row, label in zip(features.tolist(), dataset.labels.tolist())
    )
    with open(path, "w", encoding="ascii") as handle:
        handle.write("".join(lines))
