"""Metrics: exact hand cases, identities, permutation invariance."""

import numpy as np
import pytest

from evidkit.errors import DimensionMismatch, Empty
from evidkit.metrics import (
    confusion,
    contour_grid,
    ece,
    error_rate,
    mean_ignorance,
    seg_scores,
)


class TestErrorRate:
    def test_perfect(self):
        assert error_rate([0, 1, 1], [0, 1, 1]) == 0.0

    def test_all_wrong(self):
        assert error_rate([1, 0], [0, 1]) == 1.0

    def test_hand_case(self):
        preds = [0] * 10
        labels = [0] * 7 + [1] * 3
        assert error_rate(preds, labels) == pytest.approx(0.3)

    def test_empty(self):
        with pytest.raises(Empty):
            error_rate([], [])


class TestMeanIgnorance:
    def test_all_vacuous(self):
        masses = np.array([[0.0, 0.0, 1.0]] * 5)
        assert mean_ignorance(masses) == 1.0

    def test_all_bayesian(self):
        masses = np.array([[0.3, 0.7, 0.0], [1.0, 0.0, 0.0]])
        assert mean_ignorance(masses) == 0.0

    def test_mixed(self):
        masses = np.array([[0.5, 0.3, 0.2], [0.1, 0.3, 0.6]])
        assert mean_ignorance(masses) == pytest.approx(0.4)

    def test_empty(self):
        with pytest.raises(Empty):
            mean_ignorance(np.empty((0, 3)))


class TestSegScores:
    def test_identical_masks(self):
        mask = np.array([[1, 0], [1, 1]])
        s = seg_scores(mask, mask)
        assert (s.dice, s.sensitivity, s.precision) == (1.0, 1.0, 1.0)
        assert not s.degenerate

    def test_disjoint_masks(self):
        pred = np.array([1, 1, 0, 0])
        true = np.array([0, 0, 1, 1])
        s = seg_scores(pred, true)
        assert (s.dice, s.sensitivity, s.precision) == (0.0, 0.0, 0.0)

    def test_hand_counts(self):
        # TP=6, FP=2, FN=2 -> all three scores 0.75
        pred = np.array([1] * 8 + [0] * 2)
        true = np.array([1] * 6 + [0] * 2 + [1] * 2)
        s = seg_scores(pred, true)
        assert s.counts.tp == 6 and s.counts.fp == 2 and s.counts.fn == 2
        assert s.dice == pytest.approx(0.75)
        assert s.sensitivity == pytest.approx(0.75)
        assert s.precision == pytest.approx(0.75)

    def test_both_empty_flagged(self):
        s = seg_scores(np.zeros(4), np.zeros(4))
        assert s.dice == 1.0 and s.degenerate

    def test_harmonic_mean_identity(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            pred = rng.integers(0, 2, size=50)
            true = rng.integers(0, 2, size=50)
            s = seg_scores(pred, true)
            if s.degenerate or s.precision + s.sensitivity == 0:
                continue
            hm = 2 * s.precision * s.sensitivity / (s.precision + s.sensitivity)
            assert abs(s.dice - hm) < 1e-12

    def test_counts_total(self):
        c = confusion(np.array([1, 0, 1]), np.array([1, 1, 0]))
        assert c.total == 3


class TestEce:
    def test_perfectly_calibrated_bins(self):
        # within each bin, confidence equals the empirical accuracy exactly
        conf = np.array([0.75, 0.75, 0.75, 0.75, 0.25, 0.25, 0.25, 0.25])
        preds = np.array([1, 1, 1, 1, 1, 1, 1, 1])
        # 3 of 4 correct in the 0.75 bin, 1 of 4 in the 0.25 bin
        truth = np.array([1, 1, 1, 0, 1, 0, 0, 0])
        report = ece(conf, preds, truth)
        assert report.ece == 0.0

    def test_confident_and_wrong(self):
        conf = np.ones(10)
        preds = np.zeros(10)
        truth = np.ones(10)
        assert ece(conf, preds, truth).ece == 1.0

    def test_two_bin_hand_case(self):
        conf = np.array([0.9, 0.9, 0.3, 0.3])
        preds = np.array([1, 1, 1, 1])
        truth = np.array([1, 0, 1, 0])
        # bin (0.8, 0.9]: acc 0.5, conf 0.9; bin (0.2, 0.3]: acc 0.5, conf 0.3
        report = ece(conf, preds, truth)
        assert report.ece == pytest.approx(0.5 * 0.4 + 0.5 * 0.2)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(8)
        conf = rng.uniform(size=200)
        preds = rng.integers(0, 2, size=200)
        truth = rng.integers(0, 2, size=200)
        base = ece(conf, preds, truth).ece
        for _ in range(100):
            p = rng.permutation(200)
            assert ece(conf[p], preds[p], truth[p]).ece == pytest.approx(base, abs=1e-12)

    def test_bin_edges(self):
        # confidence 0 lands in the first bin; bin count must cover all samples
        report = ece(np.array([0.0, 0.1, 0.100001, 1.0]), np.zeros(4), np.zeros(4))
        assert report.bins[0].count == 2
        assert report.bins[1].count == 1
        assert report.bins[9].count == 1
        assert report.n_samples == 4

    def test_empty(self):
        with pytest.raises(Empty):
            ece(np.array([]), np.array([]), np.array([]))


class TestContourGrid:
    def test_constant_vacuous_model(self):
        class Vacuous:
            n_features = 2

            def masses(self, X):
                out = np.zeros((X.shape[0], 3))
                out[:, 2] = 1.0
                return out

        grid = contour_grid(Vacuous(), (-1, 1), (-1, 1), resolution=8)
        assert grid.masses.shape == (8, 8, 3)
        np.testing.assert_array_equal(grid.masses[:, :, 2], 1.0)
        rows = list(grid.csv_rows())
        assert rows[0] == "x,y,m1,m2,mOmega"
        assert len(rows) == 65

    def test_cells_sum_to_one(self):
        from evidkit.model import EvidentialModel
        from evidkit.rbf import rbf_init_random

        model = EvidentialModel("rbf", rbf_init_random(4, 2, seed=0))
        grid = contour_grid(model, (-2, 2), (-2, 2), resolution=16)
        np.testing.assert_allclose(grid.masses.sum(axis=2), 1.0, atol=1e-12)

    def test_cell_j_i_holds_the_masses_at_xs_i_ys_j(self):
        from evidkit.enn import enn_init_random
        from evidkit.model import EvidentialModel

        model = EvidentialModel("enn", enn_init_random(6, 2, 2, seed=1))
        grid = contour_grid(model, (-2, 3), (-1.5, 2), resolution=5)
        assert np.unique(grid.masses[:, :, 0]).size == 25  # no two cells alike: any reorder shows
        for j, y in enumerate(grid.ys):
            for i, x in enumerate(grid.xs):
                assert grid.masses[j, i].tobytes() == model.masses([x, y])[0].tobytes()

    def test_dimension_check(self):
        from evidkit.model import EvidentialModel
        from evidkit.rbf import rbf_init_random

        model = EvidentialModel("rbf", rbf_init_random(4, 3, seed=0))
        with pytest.raises(DimensionMismatch):
            contour_grid(model, (-1, 1), (-1, 1), resolution=4)
