"""Mixed jumping numbers of monomial ideals and graded sequences.

The engine computes

    lct(q, lam * q'; a_eff) = min over rays gamma of
        (sum(gamma) + v_gamma(q) + lam * v_gamma(q')) / den(gamma)

where den is the asymptotic value of a graded sequence (v_gamma(a) for
the powers of an ideal a, the case :func:`lct_mixed`), and the rays run
over the extreme rays of the common refinement of the normal fans of
all participating data (:func:`vallab.geometry.critical_rays`).
Minimizing over those rays is exact: on every cone of the refinement
numerator and denominator are linear, so the ratio is minimized at an
extreme ray, provided the numerator is nonnegative at every candidate
ray.  For lam >= 0 that is automatic; for lam < 0 the engine computes
the largest eps such that the numerator stays positive at all candidate
rays and rejects lam <= -eps, which makes the standing positivity
assumption checkable per query.

The value is infinity exactly when no candidate ray gives the
denominator a positive value (the unit ideal / trivial sequence).
"""

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

from .errors import (DimensionMismatchError, NegativityViolationError,
                     NotAMinimizerError)
from .geometry import Ray, critical_rays
from .ideals import MonomialIdeal, WeightVector
from .scalars import INFINITY, as_rat, is_finite
from .valuations import (GradedSeq, PowersSeq, ValSeq, value_on_graded,
                         value_on_ideal)


@dataclass(frozen=True)
class RayCertificate:
    """Exact ingredients of one candidate ray's ratio."""

    log_disc: Fraction
    vq: Fraction
    vqprime: Fraction
    va: Fraction

    def numerator(self, lam):
        return self.log_disc + self.vq + as_rat(lam) * self.vqprime

    def ratio(self, lam):
        return self.numerator(lam) / self.va


@dataclass(frozen=True)
class LctResult:
    """A mixed jumping number with its minimizing rays and certificates.

    ``lambda_bound`` is the exact positivity bound eps0: the query stays
    well-posed for every mixing weight lam > -eps0 (None when unbounded).
    """

    value: object  # Fraction or INFINITY
    lam: Fraction
    minimizing_rays: tuple
    certificates: dict = field(repr=False)
    lambda_bound: Optional[Fraction] = None

    @property
    def is_infinite(self):
        return not is_finite(self.value)


def lct_mixed_graded(q: MonomialIdeal, lam, qprime: Optional[MonomialIdeal],
                     seq) -> LctResult:
    """Mixed jumping number lct(q, lam * q'; seq) of a graded sequence."""
    if not isinstance(seq, GradedSeq):
        raise TypeError(f"not a graded sequence: {seq!r}")
    dims = {o.dim for o in (q, qprime, seq) if o is not None}
    if len(dims) > 1:
        raise DimensionMismatchError(f"mixed ambient dimensions {sorted(dims)}")
    n = dims.pop()
    lam = as_rat(lam)
    q.require_nonzero("jumping-number ideal q")
    qprime = MonomialIdeal.unit(n) if qprime is None else qprime
    qprime.require_nonzero("mixing ideal q'")

    families = [q.generators, qprime.generators, seq.linear_forms()]
    rays = critical_rays(families, n)

    certificates = {}
    bound = None
    for ray in rays:
        cert = RayCertificate(
            log_disc=Fraction(sum(ray.direction)),
            vq=value_on_ideal(ray.direction, q),
            vqprime=value_on_ideal(ray.direction, qprime),
            va=value_on_graded(ray.direction, seq),
        )
        certificates[ray] = cert
        if cert.vqprime > 0:
            b = (cert.log_disc + cert.vq) / cert.vqprime
            bound = b if bound is None else min(bound, b)

    if lam < 0:
        for ray, cert in certificates.items():
            if cert.numerator(lam) <= 0:
                raise NegativityViolationError(
                    f"numerator {cert.numerator(lam)} <= 0 at ray {ray} for "
                    f"lambda = {lam}; query requires lambda > "
                    f"{-bound if bound is not None else '-infinity'}",
                    ray=ray)

    ratios = {ray: cert.ratio(lam) for ray, cert in certificates.items()
              if cert.va > 0}
    if not ratios:
        return LctResult(INFINITY, lam, (), certificates, bound)

    value = min(ratios.values())
    minimizers = tuple(sorted(ray for ray, ratio in ratios.items()
                              if ratio == value))
    return LctResult(value, lam, minimizers, certificates, bound)


def lct_mixed(q: MonomialIdeal, lam, qprime: Optional[MonomialIdeal],
              a: MonomialIdeal) -> LctResult:
    """Mixed jumping number lct(q, lam * q'; a) of a monomial ideal.

    An ideal enters only through its powers: lct(q, lam q'; a) is the
    jumping number of the sequence a^m.
    """
    return lct_mixed_graded(q, lam, qprime,
                            PowersSeq(a.require_nonzero("ideal a")))


@dataclass(frozen=True)
class TransferReport:
    """Both sides of lct(q, lam q'; ValSeq(alpha)) = v_alpha(seq) * lct(q, lam q'; seq)."""

    lhs: Fraction
    rhs: Fraction
    seq_value: Fraction
    seq_lct: Fraction

    @property
    def equal(self):
        return self.lhs == self.rhs


def compute_transfer_check(alpha: WeightVector, q: MonomialIdeal, lam,
                           qprime: Optional[MonomialIdeal],
                           seq) -> TransferReport:
    """Check the compute-transfer identity for a minimizing valuation.

    Requires val_alpha to attain the mixed jumping number of ``seq``
    (its ray must be a reported minimizer); raises NotAMinimizerError
    otherwise.
    """
    base = lct_mixed_graded(q, lam, qprime, seq)
    alpha_ray = Ray.from_vector(alpha.alpha)
    if alpha_ray not in base.minimizing_rays:
        raise NotAMinimizerError(
            f"val_{alpha.alpha} does not attain the jumping number "
            f"{base.value} (minimizers: "
            f"{', '.join(map(str, base.minimizing_rays)) or 'none'})")
    lhs = lct_mixed_graded(q, lam, qprime, ValSeq(alpha)).value
    seq_value = value_on_graded(alpha, seq)
    rhs = seq_value * base.value
    return TransferReport(lhs, rhs, seq_value, base.value)


__all__ = [
    "RayCertificate",
    "LctResult",
    "TransferReport",
    "lct_mixed",
    "lct_mixed_graded",
    "compute_transfer_check",
]
