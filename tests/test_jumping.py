"""Mixed jumping numbers: exact values, certificates, identities."""

import random
from fractions import Fraction as F

import pytest

import vallab.jumping
from vallab import (INFINITY, EnlargedSeq, MonomialIdeal,
                    NegativityViolationError, NotAMinimizerError, PowersSeq,
                    Ray, ValSeq, WeightVector, compute_transfer_check,
                    is_finite, lct_mixed, lct_mixed_graded, tian_function,
                    value_on_graded, value_on_ideal)
from vallab.scalars import as_rat

from conftest import rand_ideal, rand_positive_weights, rand_weights


def ideal(*gens):
    return MonomialIdeal.from_exponents(list(gens))


W = WeightVector.of
CUSP = ideal((2, 0), (0, 3))
Q_X = ideal((1, 0))
Q_Y = ideal((0, 1))
UNIT2 = MonomialIdeal.unit(2)


class TestLctMixed:
    def test_plain_lct_cusp(self):
        r = lct_mixed(UNIT2, 0, None, CUSP)
        assert r.value == F(5, 6)
        assert r.minimizing_rays == (Ray((3, 2)),)

    def test_q_x_cusp(self):
        r = lct_mixed(Q_X, 0, None, CUSP)
        assert r.value == F(4, 3)
        assert r.minimizing_rays == (Ray((3, 2)),)
        # the coordinate rays have v(a) = 0 and are excluded
        assert all(cert.va == 0 for ray, cert in r.certificates.items()
                   if ray != Ray((3, 2)))

    def test_negative_lambda(self):
        r = lct_mixed(Q_X, F(-1, 4), Q_Y, CUSP)
        assert r.value == F(5, 4)
        assert r.minimizing_rays == (Ray((3, 2)),)

    def test_unit_target_is_infinite(self):
        r = lct_mixed(Q_X, 0, None, UNIT2)
        assert r.value == INFINITY
        assert r.minimizing_rays == ()
        assert not is_finite(r.value)

    def test_lambda_bound_is_exact(self):
        # eps0 = 1 here (ray (0,1): (A + vq)/vq' = 1); just above passes,
        # at and below raises
        r = lct_mixed(Q_X, F(-99, 100), Q_Y, CUSP)
        assert r.lambda_bound == 1
        assert r.value == F(8 - F(99, 100) * 2, 6)
        with pytest.raises(NegativityViolationError) as exc:
            lct_mixed(Q_X, -1, Q_Y, CUSP)
        assert exc.value.ray is not None
        with pytest.raises(NegativityViolationError):
            lct_mixed(Q_X, F(-5, 4), Q_Y, CUSP)

    def test_certificate_soundness(self):
        r = lct_mixed(Q_X, F(-1, 4), Q_Y, CUSP)
        for ray in r.minimizing_rays:
            cert = r.certificates[ray]
            assert cert.ratio(r.lam) == r.value
        for ray, cert in r.certificates.items():
            if cert.va > 0:
                assert cert.ratio(r.lam) >= r.value


class TestLctMixedGraded:
    def test_valseq_closed_form(self):
        r = lct_mixed_graded(Q_X, 0, None, ValSeq(W(F(1, 2), F(1, 3))))
        assert r.value == F(4, 3)
        assert r.minimizing_rays == (Ray((3, 2)),)

    def test_valseq_trivial_q(self):
        r = lct_mixed_graded(UNIT2, 0, None, ValSeq(W(1, 1)))
        assert r.value == 2

    @pytest.mark.parametrize("beta,expected,ray", [
        (F(4), F(1), (3, 2)),
        (F(3), F(13, 12), (9, 8)),
    ])
    def test_enlarged_threshold(self, beta, expected, ray):
        seq = EnlargedSeq(ValSeq(W(F(3, 8), F(1, 4))), Q_Y, beta)
        r = lct_mixed_graded(Q_X, 0, None, seq)
        assert r.value == expected
        assert r.minimizing_rays == (Ray(ray),)

    def test_powers_equals_ideal_lct(self, rng):
        for _ in range(15):
            n = rng.choice([1, 2, 3])
            q = rand_ideal(rng, n, proper=False)
            a = rand_ideal(rng, n)
            assert lct_mixed_graded(q, 0, None, PowersSeq(a)).value == \
                lct_mixed(q, 0, None, a).value

    def test_valseq_value_is_A_plus_vq(self, rng):
        # monomial closed form: the valuation sequence of val_alpha has
        # jumping number A(alpha) + v_alpha(q), attained only on alpha's ray
        from vallab import log_discrepancy, value_on_ideal
        for _ in range(15):
            n = rng.choice([2, 3])
            alpha = rand_positive_weights(rng, n)
            q = rand_ideal(rng, n, proper=False)
            r = lct_mixed_graded(q, 0, None, ValSeq(alpha))
            assert r.value == log_discrepancy(alpha) + \
                value_on_ideal(alpha, q)
            assert r.minimizing_rays == (Ray.from_vector(alpha.alpha),)


class TestIdentities:
    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_power_scaling(self, m, rng):
        for _ in range(6):
            n = rng.choice([1, 2, 3])
            q = rand_ideal(rng, n, proper=False)
            a = rand_ideal(rng, n, max_exp=3)
            assert lct_mixed(q, 0, None, a.power(m)).value * m == \
                lct_mixed(q, 0, None, a).value

    def test_monotone_under_inclusion(self, rng):
        for _ in range(12):
            n = rng.choice([1, 2, 3])
            q = rand_ideal(rng, n, proper=False)
            a = rand_ideal(rng, n)
            b = a.plus(rand_ideal(rng, n))  # a subset of b
            assert b.contains_ideal(a)
            va = lct_mixed(q, 0, None, a).value
            vb = lct_mixed(q, 0, None, b).value
            assert va <= vb or (va == INFINITY and vb == INFINITY)

    def test_sum_rule(self, rng):
        for _ in range(12):
            n = rng.choice([1, 2, 3])
            q1 = rand_ideal(rng, n, proper=False)
            q2 = rand_ideal(rng, n, proper=False)
            a = rand_ideal(rng, n)
            lhs = lct_mixed(q1.plus(q2), 0, None, a).value
            assert lhs == min(lct_mixed(q1, 0, None, a).value,
                              lct_mixed(q2, 0, None, a).value)


class TestComputeTransfer:
    def test_plain_cusp(self):
        report = compute_transfer_check(W(3, 2), UNIT2, 0, None,
                                        PowersSeq(CUSP))
        assert report.lhs == report.rhs == 5

    def test_weighted_minimizer(self):
        report = compute_transfer_check(W(F(1, 2), F(1, 3)), Q_X, 0, None,
                                        PowersSeq(CUSP))
        assert report.lhs == report.rhs == F(4, 3)
        assert report.seq_value == 1

    def test_not_a_minimizer(self):
        with pytest.raises(NotAMinimizerError):
            compute_transfer_check(W(1, 1), UNIT2, 0, None, PowersSeq(CUSP))

    def test_unit_sequence_refused(self):
        with pytest.raises(NotAMinimizerError):
            compute_transfer_check(W(1, 1), UNIT2, 0, None,
                                   PowersSeq(MonomialIdeal.unit(2)))

    def test_random_minimizers_transfer(self, rng):
        hits = 0
        while hits < 8:
            n = rng.choice([2, 3])
            q = rand_ideal(rng, n, proper=False)
            a = rand_ideal(rng, n, max_exp=3)
            base = lct_mixed_graded(q, 0, None, PowersSeq(a))
            for ray in base.minimizing_rays:
                alpha = W(*[F(c) for c in ray.direction])
                report = compute_transfer_check(alpha, q, 0, None,
                                                PowersSeq(a))
                assert report.equal
                hits += 1

    def test_transfer_with_mixing_weight(self):
        # (3,2) still minimizes the mixed objective for small lambda
        report = compute_transfer_check(W(3, 2), Q_X, F(1, 2), Q_Y,
                                        PowersSeq(CUSP))
        assert report.equal
        assert report.lhs == report.seq_value * report.seq_lct
        report = compute_transfer_check(W(3, 2), Q_X, F(-1, 4), Q_Y,
                                        PowersSeq(CUSP))
        assert report.equal


class TestSupOverTruncations:
    """m * lct(member_m) climbs to the sequence value from below."""

    def test_valseq_truncations(self):
        from vallab import truncate
        alpha = W(F(3, 8), F(1, 4))
        seq = ValSeq(alpha)
        limit = lct_mixed_graded(Q_X, 0, None, seq).value
        assert limit == 1
        values = {}
        for m in (1, 2, 4, 8, 16):
            member = truncate(seq, m)
            values[m] = m * lct_mixed(Q_X, 0, None, member).value
            assert values[m] <= limit
        # doubling is monotone because member_2m contains member_m squared
        assert values[1] <= values[2] <= values[4] <= values[8] <= values[16]
        assert values[8] == limit  # 8 clears both weight denominators

    def test_enlarged_truncations(self):
        from vallab import truncate
        seq = EnlargedSeq(ValSeq(W(F(3, 8), F(1, 4))), Q_Y, F(4))
        limit = lct_mixed_graded(Q_X, 0, None, seq).value
        values = [m * lct_mixed(Q_X, 0, None, truncate(seq, m)).value
                  for m in (1, 2, 4, 8, 16)]
        assert all(v <= limit for v in values)
        assert all(a <= b for a, b in zip(values, values[1:]))
        assert values[-1] == limit


# ---------------------------------------------------------------------------
# Fraction reference: every weight times exponent term as a Fraction, the
# evaluation the engine used before integer rays were summed in integers.


def reference_value_on_ideal(alpha, ideal):
    weights = alpha.alpha if isinstance(alpha, WeightVector) else tuple(alpha)
    return min(sum(as_rat(a) * b for a, b in zip(weights, g))
               for g in ideal.generators)


def reference_value_on_graded(gamma, seq):
    weights = gamma.alpha if isinstance(gamma, WeightVector) else \
        tuple(as_rat(c) for c in gamma)
    if isinstance(seq, PowersSeq):
        return reference_value_on_ideal(weights, seq.base)
    if isinstance(seq, ValSeq):
        return min(weights[i] / seq.alpha.alpha[i] for i in seq.alpha.support)
    return min(seq.beta * reference_value_on_ideal(weights, seq.qprime),
               reference_value_on_graded(weights, seq.base))


class TestAgainstFractionEvaluation:
    @staticmethod
    def _cases(rng, n):
        for k in range(12):
            q = rand_ideal(rng, n, max_exp=3, proper=False)
            qprime = None if k % 4 == 0 else \
                rand_ideal(rng, n, max_exp=3, proper=k % 4 != 1)
            a = rand_ideal(rng, n, max_exp=3, proper=k % 6 != 5)
            val = ValSeq(rand_weights(rng, n, allow_zero=True))
            beta = F(rng.randint(1, 5), rng.randint(1, 4))
            seq = [PowersSeq(a), val,
                   EnlargedSeq(val, rand_ideal(rng, n, max_exp=3), beta),
                   EnlargedSeq(PowersSeq(a), rand_ideal(rng, n, max_exp=2),
                               beta)][k % 4]
            yield q, qprime, seq

    @staticmethod
    def _assert_fraction(*values):
        assert all(isinstance(v, F) for v in values), values

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_engine_matches_the_fraction_reference(self, n, monkeypatch):
        rng = random.Random(6100 + n)
        lams_seen = set()
        for q, qprime, seq in self._cases(rng, n):
            with monkeypatch.context() as m:
                m.setattr(vallab.jumping, "value_on_ideal",
                          reference_value_on_ideal)
                m.setattr(vallab.jumping, "value_on_graded",
                          reference_value_on_graded)
                probe = lct_mixed_graded(q, 0, qprime, seq)
                bound = probe.lambda_bound
                lams = [F(0), F(rng.randint(1, 7), rng.randint(1, 3)),
                        -bound / 2 if bound is not None else F(-1)]
                expected = [lct_mixed_graded(q, lam, qprime, seq)
                            for lam in lams]
            for lam, ref in zip(lams, expected):
                lams_seen.add((lam > 0) - (lam < 0))
                got = lct_mixed_graded(q, lam, qprime, seq)
                assert got.value == ref.value
                assert got.minimizing_rays == ref.minimizing_rays
                assert got.lambda_bound == ref.lambda_bound
                assert got.certificates == ref.certificates
                if not got.is_infinite:
                    self._assert_fraction(got.value)
                for cert in got.certificates.values():
                    self._assert_fraction(cert.log_disc, cert.vq,
                                          cert.vqprime, cert.va)
            if not probe.is_infinite:
                f = tian_function(q, qprime or MonomialIdeal.unit(n), seq)
                for piece in f.pieces:
                    self._assert_fraction(piece.slope, piece.intercept)
                    if piece.start is not None:
                        self._assert_fraction(piece.start)
            for ray in probe.certificates:
                d = ray.direction
                for gamma in (d, tuple(map(F, d)), WeightVector.of(*d)):
                    got = (value_on_ideal(gamma, q), value_on_graded(gamma, seq))
                    self._assert_fraction(*got)
                    assert got == (reference_value_on_ideal(gamma, q),
                                   reference_value_on_graded(gamma, seq))
        assert lams_seen == {-1, 0, 1}

    def test_rational_and_zero_weights(self):
        rng = random.Random(6200)
        for n in (1, 2, 3, 4):
            for _ in range(10):
                alpha = rand_weights(rng, n, allow_zero=True)
                a = rand_ideal(rng, n, proper=False)
                seq = EnlargedSeq(ValSeq(alpha), a, F(3, 2))
                for gamma in (alpha, alpha.alpha,
                              tuple(int(x * 60) for x in alpha.alpha)):
                    got = (value_on_ideal(gamma, a), value_on_graded(gamma, seq))
                    self._assert_fraction(*got)
                    assert got == (reference_value_on_ideal(gamma, a),
                                   reference_value_on_graded(gamma, seq))
