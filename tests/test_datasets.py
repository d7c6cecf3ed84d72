"""Tests for the seeded toy datasets."""

import numpy as np
import pytest

from aqtrain.datasets import (
    Dataset,
    balanced_pixel_split,
    band_dataset,
    circle_dataset,
    pixel_images,
    write_dataset_csv,
    zero_one_labels,
)


class TestCircleDataset:
    def test_labels_match_radius_rule(self):
        data = circle_dataset(500, seed=3)
        radii = np.sum(data.features**2, axis=1)
        assert np.array_equal(data.labels, np.where(radii > 0.5, 1, -1))

    def test_signal_fraction_near_geometric_value(self):
        # Area outside the circle of radius sqrt(1/2) is 1 - pi/8.
        data = circle_dataset(4000, seed=11)
        assert np.mean(data.labels > 0) == pytest.approx(1 - np.pi / 8, abs=0.05)

    def test_points_inside_square(self):
        data = circle_dataset(200, seed=0)
        assert np.all(np.abs(data.features) <= 1.0)

    def test_seed_determinism(self):
        first = circle_dataset(50, seed=7)
        second = circle_dataset(50, seed=7)
        assert np.array_equal(first.features, second.features)
        assert np.array_equal(first.labels, second.labels)
        assert not np.array_equal(first.features, circle_dataset(50, seed=8).features)


class TestBandDataset:
    def test_label_values(self):
        data = band_dataset(300, seed=1)
        assert set(np.unique(data.labels)) <= {-2, 2}

    def test_saturated_region_always_signal(self):
        # (x1 + x2)^2 >= 1 makes the signal probability exactly one.
        data = band_dataset(5000, seed=5)
        saturated = (data.features[:, 0] + data.features[:, 1]) ** 2 >= 1.0
        assert saturated.sum() > 100
        assert np.all(data.labels[saturated] == 2)

    def test_shell_signal_probability(self):
        # Near |x1 + x2| = 0.5 the signal probability is about 0.25.
        data = band_dataset(200_000, seed=9)
        sums = np.abs(data.features[:, 0] + data.features[:, 1])
        shell = (sums >= 0.49) & (sums <= 0.51)
        assert shell.sum() > 1000
        fraction = np.mean(data.labels[shell] == 2)
        assert fraction == pytest.approx(0.25, abs=0.05)

    def test_max_rule_labels_everything_signal(self):
        data = band_dataset(400, seed=2, probability_rule="max")
        assert np.all(data.labels == 2)

    def test_rejects_unknown_rule(self):
        with pytest.raises(ValueError):
            band_dataset(10, seed=0, probability_rule="median")

    def test_seed_determinism(self):
        first = band_dataset(80, seed=13)
        second = band_dataset(80, seed=13)
        assert np.array_equal(first.features, second.features)
        assert np.array_equal(first.labels, second.labels)


class TestPixelImages:
    def test_all_sixteen_images(self):
        data = pixel_images()
        assert data.labels.size == 16
        assert len({tuple(row) for row in data.features.astype(int)}) == 16

    def test_exactly_seven_signal_images(self):
        assert int(pixel_images().labels.sum()) == 7

    def test_label_is_full_column_indicator(self):
        data = pixel_images()
        for row, label in zip(data.features.astype(int), data.labels):
            p00, p01, p10, p11 = row
            expected = 1 if (p00 and p10) or (p01 and p11) else 0
            assert label == expected

    def test_split_is_balanced_and_disjoint(self):
        train, test = balanced_pixel_split(seed=4)
        assert train.labels.size == 10 and test.labels.size == 4
        assert int(np.sum(train.labels == 1)) == 5
        assert int(np.sum(train.labels == 0)) == 5
        assert int(np.sum(test.labels == 1)) == 2
        assert int(np.sum(test.labels == 0)) == 2
        train_rows = {tuple(row) for row in train.features.astype(int)}
        test_rows = {tuple(row) for row in test.features.astype(int)}
        assert not train_rows & test_rows

    def test_split_determinism(self):
        one = balanced_pixel_split(seed=21)
        two = balanced_pixel_split(seed=21)
        for left, right in zip(one, two):
            assert np.array_equal(left.features, right.features)
            assert np.array_equal(left.labels, right.labels)


def _read_back(path):
    """Header values, column names and the numeric table of a written CSV."""
    lines = path.read_text(encoding="ascii").splitlines()
    header = dict(line[2:].split(" = ", 1) for line in lines if line.startswith("# "))
    table = np.loadtxt(path, delimiter=",", skiprows=len(header) + 1, ndmin=2)
    return header, lines[len(header)].split(","), table


class TestCsvRoundTrip:
    def test_float_features_round_trip(self, tmp_path):
        data = band_dataset(40, seed=6)
        path = tmp_path / "band.csv"
        write_dataset_csv(path, data, header={"seed": 6, "kind": "band"})
        header, names, table = _read_back(path)
        assert names == ["x1", "x2", "label"]
        assert np.array_equal(table[:, :-1], data.features)
        assert np.array_equal(table[:, -1].astype(int), data.labels)
        assert header == {"seed": "6", "kind": "band"}

    def test_integer_features_round_trip(self, tmp_path):
        train, _ = balanced_pixel_split(seed=1)
        path = tmp_path / "pixels.csv"
        write_dataset_csv(path, train, header={"seed": 1})
        header, names, table = _read_back(path)
        assert names == ["p00", "p01", "p10", "p11", "label"]
        assert np.array_equal(table[:, :-1], train.features)
        assert np.array_equal(table[:, -1].astype(int), train.labels)
        assert header == {"seed": "1"}

    def test_rewrite_is_byte_identical(self, tmp_path):
        data = circle_dataset(25, seed=17)
        first = tmp_path / "a.csv"
        second = tmp_path / "b.csv"
        write_dataset_csv(first, data, header={"seed": 17})
        write_dataset_csv(second, circle_dataset(25, seed=17), header={"seed": 17})
        assert first.read_bytes() == second.read_bytes()

    @pytest.mark.parametrize(
        "features",
        [
            [[0.1, -0.0], [1e-300, -2.5e17], [5e-324, 1.0 / 3.0]],
            [[0.0, -0.0], [1e20, -3.0], [7.0, 2.0**60]],
        ],
        ids=["float", "integral"],
    )
    def test_rows_match_per_cell_formatting(self, tmp_path, features):
        # the row template writes what formatting each cell on its own does
        data = Dataset(np.array(features), np.array([1, -2, 0]))
        integral = np.all(data.features == np.round(data.features))
        path = tmp_path / "cells.csv"
        write_dataset_csv(path, data)
        expected = ["x1,x2,label"]
        for row, label in zip(data.features, data.labels):
            cells = [str(int(v)) if integral else f"{v:.17g}" for v in row]
            expected.append(",".join(cells + [str(int(label))]))
        assert path.read_text(encoding="ascii") == "\n".join(expected) + "\n"


class TestZeroOneLabels:
    @pytest.mark.parametrize(
        "labels, expected",
        [([0, 1, 1, 0], True), ([1, 1], True), ([], True), ([2, -2, 2], False), ([0, 1, 2], False)],
    )
    def test_accepts_only_zero_and_one(self, labels, expected):
        assert zero_one_labels(np.array(labels, dtype=int)) is expected


class TestDatasetValidation:
    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            Dataset(np.zeros((3, 2)), np.zeros(4, dtype=int))

    def test_flat_features_rejected(self):
        with pytest.raises(ValueError):
            Dataset(np.zeros(3), np.zeros(3, dtype=int))
