"""Tests for the Dempster-Shafer core: exact examples, oracles, algebra."""

import math

import numpy as np
import pytest
from helpers import brute_force_combine, dense, random_mass
from hypothesis import given, settings
from hypothesis import strategies as st

from evidkit import dst
from evidkit.errors import (
    EmptyFocal,
    FrameMismatch,
    InvalidFocal,
    NegativeMass,
    OutOfRange,
    TotalConflict,
)


class TestMakeMass:
    def test_already_normalized(self):
        f = dst.Frame(2)
        m = dst.make_mass(f, [(0b01, 0.5), (0b11, 0.5)])
        assert m[0b01] == pytest.approx(0.5)
        assert m[0b11] == pytest.approx(0.5)

    def test_renormalizes(self):
        f = dst.Frame(2)
        m = dst.make_mass(f, [(0b01, 2.0), (0b11, 2.0)])
        assert m[0b01] == pytest.approx(0.5)
        assert m.total() == pytest.approx(1.0, abs=1e-12)

    def test_empty_focal_rejected(self):
        f = dst.Frame(3)
        with pytest.raises(EmptyFocal):
            dst.make_mass(f, [(0, 0.1), (0b001, 0.9)])

    def test_negative_mass_rejected(self):
        f = dst.Frame(2)
        with pytest.raises(NegativeMass):
            dst.make_mass(f, [(0b01, -0.2), (0b11, 1.2)])

    def test_zero_total_rejected(self):
        f = dst.Frame(2)
        with pytest.raises(dst.ZeroTotal):
            dst.make_mass(f, [(0b01, 1e-16)])

    def test_duplicates_accumulate(self):
        f = dst.Frame(2)
        m = dst.make_mass(f, [(0b01, 0.25), (0b01, 0.25), (0b11, 0.5)])
        assert m[0b01] == pytest.approx(0.5)

    def test_frame_size_limit(self):
        with pytest.raises(OutOfRange):
            dst.Frame(17)


class TestVacuous:
    def test_binary(self):
        f = dst.Frame(2)
        m = dst.vacuous(f)
        assert m.masses == {0b11: 1.0}

    def test_singleton_frame(self):
        f = dst.Frame(1)
        assert dst.vacuous(f).masses == {0b1: 1.0}

    def test_neutral_element(self):
        f = dst.Frame(3)
        rng = np.random.default_rng(7)
        for _ in range(20):
            m = random_mass(f, rng)
            c = dst.combine_dempster(dst.vacuous(f), m)
            assert c.focal_sets() == m.focal_sets()
            for a in m.focal_sets():
                assert abs(c[a] - m[a]) < 1e-12


class TestDiscount:
    def test_full_trust_is_identity(self):
        f = dst.Frame(2)
        m = dst.make_mass(f, [(0b01, 0.6), (0b11, 0.4)])
        d = dst.discount(m, 1.0)
        assert d.masses == pytest.approx(m.masses)

    def test_zero_trust_is_vacuous(self):
        f = dst.Frame(2)
        m = dst.make_mass(f, [(0b01, 0.6), (0b11, 0.4)])
        assert dst.discount(m, 0.0).masses == {0b11: pytest.approx(1.0)}

    def test_half(self):
        f = dst.Frame(2)
        m = dst.make_mass(f, [(0b01, 0.6), (0b11, 0.4)])
        d = dst.discount(m, 0.5)
        assert d[0b01] == pytest.approx(0.3, abs=1e-12)
        assert d[0b11] == pytest.approx(0.7, abs=1e-12)

    def test_out_of_range(self):
        f = dst.Frame(2)
        with pytest.raises(OutOfRange):
            dst.discount(dst.vacuous(f), 1.5)


class TestSimpleMass:
    def test_zero_weight_is_vacuous(self):
        f = dst.Frame(2)
        m = dst.expand_simple(dst.WeightedSimpleMass(f, 0b01, 0.0))
        assert m.masses == {0b11: pytest.approx(1.0)}

    def test_log2_weight(self):
        f = dst.Frame(2)
        m = dst.expand_simple(dst.WeightedSimpleMass(f, 0b01, math.log(2)))
        assert m[0b01] == pytest.approx(0.5, abs=1e-12)
        assert m[0b11] == pytest.approx(0.5, abs=1e-12)

    def test_invalid_focal(self):
        f = dst.Frame(2)
        with pytest.raises(InvalidFocal):
            dst.WeightedSimpleMass(f, 0b11, 1.0)
        with pytest.raises(InvalidFocal):
            dst.WeightedSimpleMass(f, 0, 1.0)

    def test_combination_adds_weights(self):
        # A^w1 (+) A^w2 = A^(w1+w2)
        rng = np.random.default_rng(11)
        f = dst.Frame(3)
        for _ in range(100):
            focal = int(rng.integers(1, f.full_set))  # proper subset
            w1, w2 = rng.uniform(0, 10, size=2)
            lhs = dst.combine_dempster(
                dst.expand_simple(dst.WeightedSimpleMass(f, focal, w1)),
                dst.expand_simple(dst.WeightedSimpleMass(f, focal, w2)),
            )
            rhs = dst.expand_simple(dst.WeightedSimpleMass(f, focal, w1 + w2))
            for a in set(lhs.focal_sets()) | set(rhs.focal_sets()):
                assert abs(lhs[a] - rhs[a]) < 1e-12


class TestBeliefPlausibility:
    def test_belief_of_frame_is_one(self):
        f = dst.Frame(3)
        rng = np.random.default_rng(3)
        for _ in range(10):
            m = random_mass(f, rng)
            assert dst.belief(m, f.full_set) == pytest.approx(1.0, abs=1e-12)
            assert dst.belief(m, 0) == 0.0

    def test_vacuous_belief(self):
        f = dst.Frame(2)
        assert dst.belief(dst.vacuous(f), 0b01) == 0.0
        assert dst.plausibility(dst.vacuous(f), 0b01) == pytest.approx(1.0)

    def test_belief_hand_case(self):
        f = dst.Frame(3)
        m = dst.make_mass(f, [(0b001, 0.3), (0b011, 0.5), (0b111, 0.2)])
        assert dst.belief(m, 0b011) == pytest.approx(0.8, abs=1e-12)

    def test_plausibility_hand_case(self):
        f = dst.Frame(2)
        m = dst.make_mass(f, [(0b01, 0.3), (0b10, 0.3), (0b11, 0.4)])
        assert dst.plausibility(m, 0b01) == pytest.approx(0.7, abs=1e-12)

    def test_duality_random(self):
        f = dst.Frame(4)
        rng = np.random.default_rng(5)
        for _ in range(50):
            m = random_mass(f, rng)
            for subset in range(f.full_set + 1):
                pl = dst.plausibility(m, subset)
                bel_c = dst.belief(m, f.full_set & ~subset)
                assert abs(pl - (1.0 - bel_c)) < 1e-12

    def test_frame_mismatch(self):
        f = dst.Frame(2)
        with pytest.raises(FrameMismatch):
            dst.belief(dst.vacuous(f), 0b111)


class TestCombine:
    def test_total_conflict(self):
        f = dst.Frame(2)
        m1 = dst.make_mass(f, [(0b01, 1.0)])
        m2 = dst.make_mass(f, [(0b10, 1.0)])
        with pytest.raises(TotalConflict):
            dst.combine_dempster(m1, m2)
        assert dst.conflict(m1, m2) == pytest.approx(1.0)

    def test_hand_case(self):
        f = dst.Frame(2)
        m1 = dst.make_mass(f, [(0b01, 0.5), (0b11, 0.5)])
        m2 = dst.make_mass(f, [(0b10, 0.5), (0b11, 0.5)])
        assert dst.conflict(m1, m2) == pytest.approx(0.25)
        c = dst.combine_dempster(m1, m2)
        assert c[0b01] == pytest.approx(1 / 3, abs=1e-12)
        assert c[0b10] == pytest.approx(1 / 3, abs=1e-12)
        assert c[0b11] == pytest.approx(1 / 3, abs=1e-12)

    def test_conflict_with_vacuous_is_zero(self):
        f = dst.Frame(3)
        rng = np.random.default_rng(9)
        for _ in range(10):
            assert dst.conflict(random_mass(f, rng), dst.vacuous(f)) == 0.0

    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_matches_brute_force(self, k):
        f = dst.Frame(k)
        rng = np.random.default_rng(100 + k)
        for _ in range(200):
            m1, m2 = random_mass(f, rng), random_mass(f, rng)
            expected, kappa = brute_force_combine(f, dense(m1), dense(m2))
            assert abs(dst.conflict(m1, m2) - kappa) < 1e-12
            if expected is None:
                with pytest.raises(TotalConflict):
                    dst.combine_dempster(m1, m2)
                continue
            got = dense(dst.combine_dempster(m1, m2))
            assert np.max(np.abs(got - expected)) < 1e-12

    def test_commutative_associative(self):
        rng = np.random.default_rng(42)
        for trial in range(200):
            f = dst.Frame(int(rng.integers(2, 5)))
            m1, m2, m3 = (random_mass(f, rng) for _ in range(3))
            try:
                ab = dst.combine_dempster(m1, m2)
                ba = dst.combine_dempster(m2, m1)
                assert np.max(np.abs(dense(ab) - dense(ba))) < 1e-10
                left = dst.combine_dempster(ab, m3)
                right = dst.combine_dempster(m1, dst.combine_dempster(m2, m3))
            except TotalConflict:
                continue
            assert np.max(np.abs(dense(left) - dense(right))) < 1e-10

    def test_frame_mismatch(self):
        with pytest.raises(FrameMismatch):
            dst.combine_dempster(dst.vacuous(dst.Frame(2)), dst.vacuous(dst.Frame(3)))


class TestPignistic:
    def test_vacuous_is_uniform(self):
        p = dst.pignistic(dst.vacuous(dst.Frame(2)))
        np.testing.assert_allclose(p, [0.5, 0.5])

    def test_bayesian_unchanged(self):
        f = dst.Frame(3)
        m = dst.make_mass(f, [(0b001, 0.2), (0b010, 0.3), (0b100, 0.5)])
        np.testing.assert_allclose(dst.pignistic(m), [0.2, 0.3, 0.5], atol=1e-12)

    def test_hand_case(self):
        f = dst.Frame(2)
        m = dst.make_mass(f, [(0b01, 0.4), (0b11, 0.6)])
        np.testing.assert_allclose(dst.pignistic(m), [0.7, 0.3], atol=1e-12)

    def test_sums_to_one(self):
        f = dst.Frame(4)
        rng = np.random.default_rng(21)
        for _ in range(50):
            assert dst.pignistic(random_mass(f, rng)).sum() == pytest.approx(1.0, abs=1e-12)


def singleton_scores(m, measure):
    return [measure(m, m.frame.singleton(k)) for k in range(m.frame.size)]


HURWICZ_XI = 0.3  # optimism index: weight of plausibility against belief
RULES = {
    "max-belief": lambda m: singleton_scores(m, dst.belief),
    "max-plausibility": lambda m: singleton_scores(m, dst.plausibility),
    "hurwicz": lambda m: [(1.0 - HURWICZ_XI) * b + HURWICZ_XI * p for b, p in
                          zip(singleton_scores(m, dst.belief), singleton_scores(m, dst.plausibility))],
    "pignistic": lambda m: list(dst.pignistic(m)),
}


def decide(m, rule: str) -> int:
    """Class index a decision rule picks; ties break toward the lowest index.
    `EvidentialModel.predict` relies on these rules agreeing."""
    return int(np.argmax(RULES[rule](m)))


class TestDecide:
    def test_dominant_singleton(self):
        f = dst.Frame(2)
        m = dst.make_mass(f, [(0b01, 0.6), (0b11, 0.4)])
        for rule in RULES:
            assert decide(m, rule) == 0

    def test_vacuous_ties_to_lowest(self):
        for rule in RULES:
            assert decide(dst.vacuous(dst.Frame(2)), rule) == 0

    def test_rules_agree_on_singleton_plus_frame_masses(self):
        # When every focal set is a singleton or the frame, all four rules
        # rank the classes identically.
        rng = np.random.default_rng(33)
        for _ in range(100):
            k = int(rng.integers(2, 5))
            f = dst.Frame(k)
            entries = [(f.singleton(j), rng.uniform(0.01, 1.0)) for j in range(k)]
            entries.append((f.full_set, rng.uniform(0.01, 1.0)))
            m = dst.make_mass(f, entries)
            decisions = {decide(m, rule) for rule in RULES}
            assert len(decisions) == 1


@st.composite
def mass_functions(draw, k=3):
    frame = dst.Frame(k)
    n = draw(st.integers(min_value=1, max_value=4))
    entries = []
    for _ in range(n):
        focal = draw(st.integers(min_value=1, max_value=frame.full_set))
        weight = draw(st.floats(min_value=0.01, max_value=1.0, allow_nan=False))
        entries.append((focal, weight))
    return dst.make_mass(frame, entries)


class TestAlgebraicProperties:
    @given(mass_functions())
    @settings(max_examples=200, deadline=None)
    def test_every_mass_is_normalized(self, m):
        assert abs(m.total() - 1.0) < 1e-12
        assert 0 not in m.masses
        assert all(v > 0 for v in m.masses.values())

    @given(mass_functions(), mass_functions())
    @settings(max_examples=200, deadline=None)
    def test_combination_normalized_and_commutative(self, m1, m2):
        try:
            c = dst.combine_dempster(m1, m2)
        except TotalConflict:
            return
        assert abs(c.total() - 1.0) < 1e-12
        c2 = dst.combine_dempster(m2, m1)
        for a in set(c.focal_sets()) | set(c2.focal_sets()):
            assert abs(c[a] - c2[a]) < 1e-10

    @given(mass_functions(), st.floats(min_value=0.0, max_value=1.0, allow_nan=False))
    @settings(max_examples=100, deadline=None)
    def test_discount_moves_mass_to_frame(self, m, s):
        d = dst.discount(m, s)
        omega = m.frame.full_set
        assert d[omega] >= m[omega] - 1e-12
        assert abs(d.total() - 1.0) < 1e-12

