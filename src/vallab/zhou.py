"""Zhou-valuation certificates, the membership cone, and the induced
singularity order.

A monomial valuation val_alpha is certified as a Zhou valuation related
to q by rescaling it so that its valuation sequence has jumping number
exactly 1 and then checking that the minimum is attained only on the ray
of alpha: when only positive multiples of a valuation compute the
jumping number of its own sequence, maximality follows.  Refusal
(NonUniqueMinimizerError) is not a disproof.
"""

import enum
from dataclasses import dataclass
from fractions import Fraction
from .errors import (CrossCheckError, DimensionMismatchError,
                     NonUniqueMinimizerError, NormalizationError)
from .geometry import Ray, critical_rays
from .ideals import MonomialIdeal, WeightVector
from .jumping import lct_mixed, lct_mixed_graded
from .oracle import howald_multiplier
from .scalars import as_rat, is_finite
from .valuations import (PowersSeq, ValSeq, log_discrepancy, value_on_graded,
                         value_on_ideal)


@dataclass(frozen=True)
class ZhouCertificate:
    """Proof data that a rescaled monomial valuation is Zhou related to q.

    ``scale`` is c = A(alpha) + v_alpha(q); ``normalized`` is alpha / c.
    ``lct_check`` is the recomputed jumping number of the normalized
    valuation sequence (must be 1), ``discrepancy_identity`` the pair
    (A(normalized), 1 - v_normalized(q)) (must be equal), and
    ``nonproportional_minimizers`` must be empty.
    """

    original: WeightVector
    scale: Fraction
    normalized: WeightVector
    lct_check: Fraction
    discrepancy_identity: tuple
    nonproportional_minimizers: tuple = ()


def zhou_rescale(alpha: WeightVector, q: MonomialIdeal) -> ZhouCertificate:
    """Rescale val_alpha to a certified Zhou valuation related to q."""
    q.require_nonzero("certificate ideal q")
    if alpha.dim != q.dim:
        raise DimensionMismatchError("weights do not match ideal dimension")
    c = log_discrepancy(alpha) + value_on_ideal(alpha, q)
    normalized = alpha.scale(Fraction(1) / c)

    result = lct_mixed_graded(q, 0, None, ValSeq(normalized))
    if result.value != 1:
        raise CrossCheckError(
            f"normalized jumping number is {result.value}, expected 1")
    alpha_ray = Ray.from_vector(normalized.alpha)
    strangers = tuple(r for r in result.minimizing_rays if r != alpha_ray)
    if strangers:
        raise NonUniqueMinimizerError(
            "certificate refused: non-proportional minimizing rays "
            + ", ".join(map(str, strangers)), rays=strangers)
    if alpha_ray not in result.minimizing_rays:
        raise CrossCheckError("the normalized ray does not attain its own "
                              "jumping number")

    a_norm = log_discrepancy(normalized)
    identity = (a_norm, 1 - value_on_ideal(normalized, q))
    if identity[0] != identity[1]:
        raise CrossCheckError(
            f"log-discrepancy identity fails: A = {identity[0]}, "
            f"1 - v(q) = {identity[1]}")
    return ZhouCertificate(alpha, c, normalized, result.value, identity)


def val_membership(alpha: WeightVector, q: MonomialIdeal) -> bool:
    """Membership in the cone {v : lct^q(a_seq^v) <= 1}."""
    q.require_nonzero("membership ideal q")
    result = lct_mixed_graded(q, 0, None, ValSeq(alpha))
    return is_finite(result.value) and result.value <= 1


def example_zhou_data(alpha: WeightVector, k) -> MonomialIdeal:
    """The worked monomial family: q = (z^(k-1)) for sum alpha_i k_i = 1.

    Checks the normalization identity exactly and asserts that
    zhou_rescale returns scale 1 for the constructed q.
    """
    k = tuple(int(v) for v in k)
    if len(k) != alpha.dim:
        raise DimensionMismatchError("k does not match weight dimension")
    if any(v < 1 for v in k):
        raise ValueError("k entries must be positive integers")
    total = sum(a * v for a, v in zip(alpha.alpha, k))
    if total != 1:
        raise NormalizationError(
            f"sum alpha_i k_i = {total} != 1; rescale alpha first")
    q = MonomialIdeal.from_exponents([tuple(v - 1 for v in k)])
    cert = zhou_rescale(alpha, q)
    if cert.scale != 1:
        raise CrossCheckError(f"expected scale 1, got {cert.scale}")
    return q


class Ordering(enum.Enum):
    MORE_SINGULAR = "MORE_SINGULAR"
    LESS_SINGULAR = "LESS_SINGULAR"
    EQUAL = "EQUAL"
    INCOMPARABLE = "INCOMPARABLE"


@dataclass(frozen=True)
class ComparisonResult:
    order: Ordering
    witnesses: tuple  # rays with a strict value gap, one per direction


def singularity_compare(a: MonomialIdeal,
                        aprime: MonomialIdeal) -> ComparisonResult:
    """Order two ideals by Newton-polyhedron containment.

    ``MORE_SINGULAR`` means Newt(a) is contained in Newt(a'),
    equivalently v_gamma(a) >= v_gamma(a') on every ray of the joint
    refinement; the witnesses carry a strict inequality.  This is the
    comparison of the power sequences of the two ideals.
    """
    return singularity_compare_graded(
        PowersSeq(a.require_nonzero("compared ideal")),
        PowersSeq(aprime.require_nonzero("compared ideal")))


def singularity_compare_graded(seq_a, seq_b) -> ComparisonResult:
    """The singularity order of graded sequences, via values at critical rays.

    Both asymptotic value functions are piecewise-linear minima, so
    comparing them on the extreme rays of their joint refinement decides
    the comparison everywhere on the orthant.
    """
    if seq_a.dim != seq_b.dim:
        raise DimensionMismatchError("sequence dimensions differ")
    rays = critical_rays([seq_a.linear_forms(), seq_b.linear_forms()],
                         seq_a.dim)
    above = []
    below = []
    for ray in rays:
        va = value_on_graded(ray.direction, seq_a)
        vb = value_on_graded(ray.direction, seq_b)
        if va > vb:
            above.append(ray)
        elif va < vb:
            below.append(ray)
    if not above and not below:
        return ComparisonResult(Ordering.EQUAL, ())
    if not below:
        return ComparisonResult(Ordering.MORE_SINGULAR, tuple(above))
    if not above:
        return ComparisonResult(Ordering.LESS_SINGULAR, tuple(below))
    return ComparisonResult(Ordering.INCOMPARABLE, (above[0], below[0]))


def asymptotic_membership(q: MonomialIdeal, lam, a: MonomialIdeal) -> bool:
    """q contained in the asymptotic multiplier ideal at coefficient lam.

    True iff lct^q(a-powers) > lam.  The answer is recomputed through
    the lattice oracle (q against J(lam * a)); disagreement raises
    CrossCheckError.
    """
    lam = as_rat(lam)
    if lam <= 0:
        raise ValueError("membership coefficient must be positive")
    engine = lct_mixed(q, 0, None, a)
    answer = engine.value > lam
    oracle_answer = howald_multiplier(a, lam).ideal.contains_ideal(q)
    if answer != oracle_answer:
        raise CrossCheckError(
            f"engine says lct = {engine.value} (membership {answer}) but "
            f"lattice containment says {oracle_answer} at lambda = {lam}")
    return answer


@dataclass(frozen=True)
class SandwichReport:
    """gamma(k) = lct^(q^k)(ValSeq(alpha)) against its two-sided bound."""

    k: int
    gamma_k: Fraction
    vq: Fraction
    log_disc: Fraction

    @property
    def lower(self):
        return self.vq

    @property
    def upper(self):
        return self.vq + self.log_disc / self.k

    @property
    def holds(self):
        return self.lower <= self.gamma_k / self.k <= self.upper

    @property
    def upper_is_equality(self):
        return self.gamma_k == self.log_disc + self.k * self.vq


def power_sandwich(alpha: WeightVector, q: MonomialIdeal,
                   k: int) -> SandwichReport:
    """Two-sided approximation of v(q) through q-power jumping numbers."""
    k = int(k)
    if k < 1:
        raise ValueError("power must be a positive integer")
    q.require_nonzero("sandwich ideal q")
    gamma_k = lct_mixed_graded(q.power(k), 0, None, ValSeq(alpha)).value
    report = SandwichReport(k, gamma_k, value_on_ideal(alpha, q),
                            log_discrepancy(alpha))
    if not report.holds:
        raise CrossCheckError(
            f"sandwich bound fails: {report.lower} <= {gamma_k}/{k} <= "
            f"{report.upper}")
    return report


__all__ = [
    "ZhouCertificate",
    "zhou_rescale",
    "val_membership",
    "example_zhou_data",
    "Ordering",
    "ComparisonResult",
    "singularity_compare",
    "singularity_compare_graded",
    "asymptotic_membership",
    "SandwichReport",
    "power_sandwich",
]
