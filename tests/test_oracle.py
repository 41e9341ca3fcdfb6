"""Lattice-point multiplier-ideal oracle and its self-checks."""

import random
from fractions import Fraction as F

import pytest

from vallab import (INFINITY, DimensionCapError, DimensionMismatchError,
                    MonomialIdeal, Ray, ZeroIdealError,
                    controlled_growth_check, howald_multiplier,
                    jumping_number_oracle, lct_mixed, newton_polyhedron)

from conftest import rand_ideal


def ideal(*gens):
    return MonomialIdeal.from_exponents(list(gens))


CUSP = ideal((2, 0), (0, 3))


def _refuse(*args, **kwargs):
    raise AssertionError("the oracle must not call this")


class TestHowaldMultiplier:
    def test_small_coefficient_unit(self):
        assert howald_multiplier(CUSP, F(1, 2)).ideal.is_unit

    def test_at_lct_proper(self):
        result = howald_multiplier(CUSP, F(5, 6))
        assert not result.ideal.is_unit
        assert result.ideal.generators == ((0, 1), (1, 0))

    def test_xy_at_one(self):
        assert howald_multiplier(ideal((1, 1)), 1).ideal.generators == ((1, 1),)

    def test_witness_slacks_positive(self):
        result = howald_multiplier(CUSP, F(7, 6))
        newt = newton_polyhedron(CUSP)
        for beta, slacks in result.witness.items():
            assert all(s > 0 for s in slacks)
            shifted = tuple(b + 1 for b in beta)
            assert newt.contains(
                tuple(F(s, 1) / F(7, 6) for s in shifted), strict=True)

    def test_frontier_fails_strictness(self, rng):
        # minimal generators are really minimal: dropping any coordinate
        # exits the strict interior
        for _ in range(10):
            n = rng.choice([1, 2, 3])
            a = rand_ideal(rng, n, max_exp=3)
            c = F(rng.randint(1, 5), rng.randint(1, 3))
            newt = newton_polyhedron(a)
            result = howald_multiplier(a, c)
            for beta in result.ideal.generators:
                for j in range(n):
                    if beta[j] == 0:
                        continue
                    dropped = list(beta)
                    dropped[j] -= 1
                    point = tuple(F(b + 1) / c for b in dropped)
                    assert not newt.contains(point, strict=True)

    def test_unit_ideal(self):
        result = howald_multiplier(MonomialIdeal.unit(2), F(3, 2))
        assert result.ideal.is_unit

    def test_zero_rejected(self):
        with pytest.raises(ZeroIdealError):
            howald_multiplier(MonomialIdeal.zero(2), 1)

    def test_dimension_cap(self):
        big = MonomialIdeal.from_exponents([(1,) * 5])
        with pytest.raises(DimensionCapError):
            howald_multiplier(big, 1)

    def test_subadditivity(self, rng):
        for _ in range(8):
            n = rng.choice([1, 2])
            a = rand_ideal(rng, n, max_exp=3)
            s = F(rng.randint(1, 4), rng.randint(1, 3))
            t = F(rng.randint(1, 4), rng.randint(1, 3))
            joint = howald_multiplier(a, s + t).ideal
            split = howald_multiplier(a, s).ideal.product(
                howald_multiplier(a, t).ideal)
            assert split.contains_ideal(joint)

    def test_contains_ideal_at_one(self, rng):
        for _ in range(10):
            n = rng.choice([1, 2, 3])
            a = rand_ideal(rng, n, max_exp=3)
            assert howald_multiplier(a, 1).ideal.contains_ideal(a)


class TestJumpingNumberOracle:
    def test_plain_lct(self):
        assert jumping_number_oracle(MonomialIdeal.unit(2), CUSP) == F(5, 6)

    def test_weighted(self):
        assert jumping_number_oracle(ideal((1, 0)), CUSP) == F(4, 3)

    def test_xy_pair(self):
        assert jumping_number_oracle(ideal((1, 1)), ideal((1, 1))) == 2

    def test_unit_target(self):
        assert jumping_number_oracle(ideal((1, 0)),
                                     MonomialIdeal.unit(2)) == INFINITY

    def test_scaling_in_powers(self, rng):
        for _ in range(6):
            n = rng.choice([1, 2])
            q = rand_ideal(rng, n, proper=False, max_exp=2)
            a = rand_ideal(rng, n, max_exp=2)
            base = jumping_number_oracle(q, a)
            for m in (2, 3):
                assert jumping_number_oracle(q, a.power(m)) * m == base

    def test_membership_boundary_semantics(self):
        # containment holds strictly below the jumping number, fails at it
        value = jumping_number_oracle(ideal((1, 0)), CUSP)
        below = howald_multiplier(CUSP, value - F(1, 100)).ideal
        at = howald_multiplier(CUSP, value).ideal
        assert below.contains_ideal(ideal((1, 0)))
        assert not at.contains_ideal(ideal((1, 0)))

    def test_independent_of_the_engine(self, monkeypatch):
        monkeypatch.setattr("vallab.jumping.lct_mixed", _refuse)
        monkeypatch.setattr("vallab.jumping.lct_mixed_graded", _refuse)
        assert jumping_number_oracle(ideal((1, 0)), CUSP) == F(4, 3)

    def test_builds_no_multiplier_ideal(self, monkeypatch):
        monkeypatch.setattr("vallab.oracle.howald_multiplier", _refuse)
        assert jumping_number_oracle(ideal((1, 0)), CUSP) == F(4, 3)

    def test_large_exponents_answer_at_once(self):
        q = ideal((300, 300, 300))
        a = ideal((2, 0, 0), (0, 2, 0), (0, 0, 2))
        assert jumping_number_oracle(q, a) == F(903, 2)

    def test_mixed_dimensions_rejected(self):
        with pytest.raises(DimensionMismatchError):
            jumping_number_oracle(ideal((1, 0)), ideal((1, 1, 1)))

    def test_dimension_cap(self):
        big = MonomialIdeal.from_exponents([(1,) * 5])
        with pytest.raises(DimensionCapError):
            jumping_number_oracle(big, big)


class TestLatticeAgreesWithFacetFormula:
    """howald_multiplier's lattice search, probed around the jumping number.

    The probes are every facet crossing and every engine ray ratio up to
    the jumping number, plus the midpoints between consecutive ones:
    containment must hold strictly below the value and fail at it.
    """

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_containment_flips_at_the_jumping_number(self, n):
        rng = random.Random(4400 + n)
        for _ in range(30):
            q = rand_ideal(rng, n, proper=False, max_exp=3)
            a = rand_ideal(rng, n, max_exp=3)
            value = jumping_number_oracle(q, a)
            crossings = {F(sum(v * (e + 1) for v, e in zip(nu, m)), off)
                         for m in q.generators
                         for nu, off in newton_polyhedron(a).nontrivial_facets}
            ratios = {cert.ratio(0) for cert in
                      lct_mixed(q, 0, None, a).certificates.values()
                      if cert.va > 0}
            probes = []
            previous = F(0)
            for cand in sorted(c for c in crossings | ratios if c <= value):
                probes += [(previous + cand) / 2, cand]
                previous = cand
            assert probes[-1] == value
            for p in probes:
                assert howald_multiplier(a, p).ideal.contains_ideal(q) == \
                    (p < value), (q, a, p)


class TestEngineOracleAgreement:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_random_pairs(self, n):
        rng = random.Random(5150 + n)
        for _ in range(12):
            q = rand_ideal(rng, n, proper=False, max_exp=3)
            a = rand_ideal(rng, n, max_exp=3)
            assert lct_mixed(q, 0, None, a).value == \
                jumping_number_oracle(q, a)


class TestControlledGrowth:
    def test_cusp_ray(self):
        report = controlled_growth_check(CUSP, [Ray((3, 2))],
                                         [1, 2, 3, 6])
        assert report.all_positive

    def test_xy(self):
        report = controlled_growth_check(ideal((1, 1)), [Ray((1, 1))], [1, 2])
        assert report.all_positive

    def test_unit_vacuous(self):
        report = controlled_growth_check(MonomialIdeal.unit(2),
                                         [Ray((1, 0)), Ray((1, 1))], [1, 2])
        assert report.all_positive
        assert all(e.lhs == 0 for e in report.entries)

    def test_exact_slack_values(self):
        report = controlled_growth_check(CUSP, [Ray((3, 2))], [1, 2])
        by_t = {e.t: e for e in report.entries}
        assert by_t[1].lhs == by_t[1].slack + by_t[1].rhs
        assert all(e.slack > 0 for e in report.entries)
