"""Zhou certificates, the membership cone, and the singularity order."""

from fractions import Fraction as F

import pytest

from vallab import (MonomialIdeal, NormalizationError, Ordering, Ray, ValSeq,
                    WeightVector, asymptotic_membership, example_zhou_data,
                    howald_multiplier, lct_mixed_graded, power_sandwich,
                    singularity_compare, val_membership, value_on_ideal,
                    zhou_rescale)

from conftest import rand_ideal, rand_positive_weights


def ideal(*gens):
    return MonomialIdeal.from_exponents(list(gens))


W = WeightVector.of
Q_X = ideal((1, 0))
CUSP = ideal((2, 0), (0, 3))


class TestZhouRescale:
    def test_weighted_example(self):
        cert = zhou_rescale(W(F(1, 2), F(1, 3)), Q_X)
        assert cert.scale == F(4, 3)
        assert cert.normalized.alpha == (F(3, 8), F(1, 4))
        assert cert.lct_check == 1
        assert cert.discrepancy_identity == (F(5, 8), F(5, 8))
        assert cert.nonproportional_minimizers == ()

    def test_trivial_q(self):
        cert = zhou_rescale(W(1, 1), MonomialIdeal.unit(2))
        assert cert.scale == 2
        assert cert.normalized.alpha == (F(1, 2), F(1, 2))
        assert cert.discrepancy_identity == (1, 1)

    def test_already_normalized(self):
        cert = zhou_rescale(W(F(1, 4), F(1, 2)), Q_X)
        assert cert.scale == 1
        assert cert.normalized.alpha == (F(1, 4), F(1, 2))
        assert cert.discrepancy_identity == (F(3, 4), F(3, 4))

    def test_identity_holds_randomly(self, rng):
        from vallab import log_discrepancy
        for _ in range(20):
            n = rng.choice([1, 2, 3])
            alpha = rand_positive_weights(rng, n)
            q = rand_ideal(rng, n, proper=False)
            cert = zhou_rescale(alpha, q)
            a, one_minus = cert.discrepancy_identity
            assert a == one_minus
            assert a + value_on_ideal(cert.normalized, q) == 1
            assert log_discrepancy(cert.normalized) == a

    def test_refuses_nonunique_minimizer(self, monkeypatch):
        # unreachable for genuine monomial data (see README uniqueness
        # argument), so exercise the refusal path on a doctored result
        import vallab.zhou as zhou_mod
        from vallab import NonUniqueMinimizerError
        real = zhou_mod.lct_mixed_graded

        def doctored(q, lam, qprime, seq):
            result = real(q, lam, qprime, seq)
            rays = result.minimizing_rays + (Ray((1, 1)),)
            return type(result)(result.value, result.lam, rays,
                                result.certificates, result.lambda_bound)

        monkeypatch.setattr(zhou_mod, "lct_mixed_graded", doctored)
        with pytest.raises(NonUniqueMinimizerError) as exc:
            zhou_rescale(W(F(1, 2), F(1, 3)), Q_X)
        assert Ray((1, 1)) in exc.value.rays

    def test_rescaling_law(self):
        # lct^q(ValSeq(alpha/c)) * c = lct^q(ValSeq(alpha)): halving the
        # weights doubles every member index of the valuation sequence
        alpha = W(F(1, 2), F(1, 3))
        base = lct_mixed_graded(Q_X, 0, None, ValSeq(alpha)).value
        for c in (F(2), F(3, 2), F(7, 5)):
            scaled = lct_mixed_graded(
                Q_X, 0, None, ValSeq(alpha.scale(1 / c))).value
            assert scaled * c == base


class TestValMembership:
    def test_normalized_is_member(self):
        assert val_membership(W(F(3, 8), F(1, 4)), Q_X) is True

    def test_unnormalized_is_not(self):
        assert val_membership(W(F(1, 2), F(1, 3)), Q_X) is False

    def test_large_q_keeps_out(self):
        assert val_membership(W(1, 1), ideal((3, 3))) is False

    def test_cone_scaling(self, rng):
        # membership holds iff the scale from zhou_rescale is <= 1
        for _ in range(15):
            n = rng.choice([2, 3])
            alpha = rand_positive_weights(rng, n)
            q = rand_ideal(rng, n, proper=False)
            cert = zhou_rescale(alpha, q)
            assert val_membership(alpha, q) == (cert.scale <= 1)


class TestExampleZhouData:
    def test_worked_pair(self):
        q = example_zhou_data(W(F(1, 4), F(1, 2)), (2, 1))
        assert q.generators == ((1, 0),)

    def test_all_ones_gives_unit(self):
        q = example_zhou_data(W(F(1, 2), F(1, 2)), (1, 1))
        assert q.is_unit

    def test_normalization_gate(self):
        assert example_zhou_data(W(F(1, 3), F(1, 3)), (2, 1)).generators \
            == ((1, 0),)
        with pytest.raises(NormalizationError):
            example_zhou_data(W(F(1, 3), F(1, 2)), (2, 1))

    def test_three_variables(self):
        alpha = W(F(1, 6), F(1, 6), F(1, 3))
        q = example_zhou_data(alpha, (2, 2, 1))
        assert q.generators == ((1, 1, 0),)


class TestSingularityCompare:
    def test_more_singular(self):
        r = singularity_compare(ideal((2, 0), (0, 2)), ideal((1, 0), (0, 1)))
        assert r.order is Ordering.MORE_SINGULAR
        assert r.witnesses

    def test_incomparable(self):
        r = singularity_compare(ideal((1, 0)), ideal((0, 1)))
        assert r.order is Ordering.INCOMPARABLE
        assert set(r.witnesses) == {Ray((1, 0)), Ray((0, 1))}

    def test_equal(self):
        a = ideal((2, 0), (0, 3))
        assert singularity_compare(a, a).order is Ordering.EQUAL

    def test_partial_order_properties(self, rng):
        ideals = [rand_ideal(rng, 2, max_exp=3) for _ in range(10)]
        for a in ideals:
            assert singularity_compare(a, a).order is Ordering.EQUAL
        for a in ideals:
            for b in ideals:
                ab = singularity_compare(a, b).order
                ba = singularity_compare(b, a).order
                if ab is Ordering.MORE_SINGULAR:
                    assert ba is Ordering.LESS_SINGULAR
                if ab is Ordering.EQUAL:
                    assert ba is Ordering.EQUAL
        import itertools
        for a, b, c in itertools.islice(
                itertools.permutations(ideals, 3), 60):
            if singularity_compare(a, b).order is Ordering.MORE_SINGULAR \
                    and singularity_compare(b, c).order is \
                    Ordering.MORE_SINGULAR:
                assert singularity_compare(a, c).order is \
                    Ordering.MORE_SINGULAR

    def test_agrees_with_multiplier_containment(self, rng):
        ts = [F(1, 2), F(1), F(3, 2), F(2)]
        for _ in range(10):
            a = rand_ideal(rng, 2, max_exp=3)
            b = rand_ideal(rng, 2, max_exp=3)
            order = singularity_compare(a, b).order
            if order in (Ordering.MORE_SINGULAR, Ordering.EQUAL):
                for t in ts:
                    assert howald_multiplier(b, t).ideal.contains_ideal(
                        howald_multiplier(a, t).ideal)
            if order in (Ordering.LESS_SINGULAR, Ordering.EQUAL):
                for t in ts:
                    assert howald_multiplier(a, t).ideal.contains_ideal(
                        howald_multiplier(b, t).ideal)


class TestSingularityCompareGraded:
    def test_valseq_scaling(self):
        from vallab import ValSeq, singularity_compare_graded
        alpha = W(F(1, 2), F(1, 3))
        halved = ValSeq(alpha.scale(F(1, 2)))  # values double: more singular
        r = singularity_compare_graded(halved, ValSeq(alpha))
        assert r.order is Ordering.MORE_SINGULAR
        assert singularity_compare_graded(ValSeq(alpha),
                                          ValSeq(alpha)).order is \
            Ordering.EQUAL

    def test_enlargement_never_more_singular(self, rng):
        from vallab import EnlargedSeq, ValSeq, singularity_compare_graded
        for _ in range(10):
            alpha = rand_positive_weights(rng, 2)
            qp = rand_ideal(rng, 2, max_exp=3)
            beta = F(rng.randint(1, 5), rng.randint(1, 2))
            base = ValSeq(alpha)
            enlarged = EnlargedSeq(base, qp, beta)
            order = singularity_compare_graded(enlarged, base).order
            assert order in (Ordering.LESS_SINGULAR, Ordering.EQUAL)

    def test_powers_agrees_with_ideal_compare(self, rng):
        from vallab import PowersSeq, singularity_compare_graded
        for _ in range(10):
            a = rand_ideal(rng, 2, max_exp=3)
            b = rand_ideal(rng, 2, max_exp=3)
            assert singularity_compare_graded(
                PowersSeq(a), PowersSeq(b)).order is \
                singularity_compare(a, b).order


class TestAsymptoticMembership:
    def test_below_threshold(self):
        assert asymptotic_membership(Q_X, 1, CUSP) is True

    def test_at_jumping_number_fails(self):
        assert asymptotic_membership(Q_X, F(4, 3), CUSP) is False

    def test_plain_lct_boundary(self):
        assert asymptotic_membership(MonomialIdeal.unit(2), F(5, 6), CUSP) \
            is False

    def test_matches_oracle_on_random_fixtures(self, rng):
        for _ in range(15):
            n = rng.choice([1, 2, 3])
            q = rand_ideal(rng, n, proper=False)
            a = rand_ideal(rng, n, max_exp=3)
            lam = F(rng.randint(1, 8), rng.randint(1, 4))
            asymptotic_membership(q, lam, a)  # raises CrossCheckError if not


class TestPowerSandwich:
    def test_weighted_example(self):
        report = power_sandwich(W(F(1, 2), F(1, 3)), Q_X, 5)
        assert report.gamma_k == F(10, 3)
        assert report.lower == F(1, 2)
        assert report.gamma_k / 5 == F(2, 3)
        assert report.upper == F(2, 3)
        assert report.upper_is_equality

    def test_trivial_q(self):
        report = power_sandwich(W(1, 1), MonomialIdeal.unit(2), 3)
        assert report.gamma_k == 2
        assert report.lower == 0 and report.upper == F(2, 3)

    def test_xy_single_power(self):
        report = power_sandwich(W(1, 1), ideal((1, 1)), 1)
        assert report.gamma_k == 4
        assert report.lower == 2 and report.upper == 4

    def test_random_sandwich(self, rng):
        for _ in range(12):
            n = rng.choice([1, 2, 3])
            alpha = rand_positive_weights(rng, n)
            q = rand_ideal(rng, n, proper=False, max_exp=3)
            k = rng.randint(1, 10)
            report = power_sandwich(alpha, q, k)
            assert report.holds and report.upper_is_equality
