"""Tian functions t -> lct(q, t*q'; a_seq) as exact piecewise-linear data.

Each candidate ray gamma with positive denominator contributes the line

    t -> (sum(gamma) + v_gamma(q) + t * v_gamma(q')) / den(gamma)

and the Tian function is the pointwise minimum of these lines on the
domain (-eps0, +infinity), eps0 being the exact positivity bound of the
query.  The envelope is computed by a slope-sorted sweep: lines are
deduplicated per slope keeping the smaller intercept, processed in
decreasing slope order, and crossings that would precede the running
piece start pop the stack.  The result has strictly decreasing slopes
(concavity) and nonnegative slopes (monotonicity).
"""

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .errors import DomainError, InfiniteLctError
from .ideals import MonomialIdeal, WeightVector
from .jumping import lct_mixed_graded
from .scalars import as_rat
from .valuations import ValSeq, value_on_ideal


@dataclass(frozen=True)
class Piece:
    """One linear piece: value = slope * t + intercept from ``start`` on."""

    start: Optional[Fraction]  # None on the first piece of an unbounded domain
    slope: Fraction
    intercept: Fraction

    def value(self, t):
        return self.slope * t + self.intercept


@dataclass(frozen=True)
class PLConcave:
    """Concave increasing piecewise-linear function on (domain_min, +inf)."""

    domain_min: Optional[Fraction]  # exclusive; None means -infinity
    pieces: tuple

    def _locate(self, t):
        t = as_rat(t)
        if self.domain_min is not None and t <= self.domain_min:
            raise DomainError(f"t = {t} outside domain ({self.domain_min}, inf)")
        idx = 0
        for k, piece in enumerate(self.pieces):
            if piece.start is not None and t >= piece.start:
                idx = k
        return idx

    def value_at(self, t):
        return self.pieces[self._locate(t)].value(as_rat(t))

    def slopes_at(self, t):
        """One-sided (left, right) slopes at an interior point."""
        t = as_rat(t)
        k = self._locate(t)
        piece = self.pieces[k]
        if piece.start is not None and t == piece.start:
            if k == 0:
                raise DomainError(f"t = {t} is the domain boundary")
            return self.pieces[k - 1].slope, piece.slope
        return piece.slope, piece.slope

    @property
    def slope_at_infinity(self):
        return self.pieces[-1].slope

    def is_linear_from(self, t0):
        """No breakpoint strictly beyond t0."""
        t0 = as_rat(t0)
        return all(p.start is None or p.start <= t0 for p in self.pieces)


def lower_envelope(lines, domain_min):
    """Exact lower envelope of (slope, intercept) lines, clipped left.

    Equal-slope lines keep the smaller intercept.  Returns the piece
    list of the pointwise minimum on (domain_min, +inf).
    """
    best = {}
    for slope, intercept in lines:
        slope, intercept = as_rat(slope), as_rat(intercept)
        if slope not in best or intercept < best[slope]:
            best[slope] = intercept
    ordered = sorted(best.items(), key=lambda si: si[0], reverse=True)

    stack = []  # (start or None, slope, intercept)
    for slope, intercept in ordered:
        cross = None
        while stack:
            s0, sl0, c0 = stack[-1]
            cross = (intercept - c0) / (sl0 - slope)
            if s0 is not None and cross <= s0:
                stack.pop()
                cross = None
                continue
            break
        stack.append((cross, slope, intercept))

    pieces = [Piece(s, sl, c) for s, sl, c in stack]
    if domain_min is not None:
        visible = []
        for k, piece in enumerate(pieces):
            nxt = pieces[k + 1].start if k + 1 < len(pieces) else None
            if nxt is not None and nxt <= domain_min:
                continue
            visible.append(piece)
        pieces = [Piece(domain_min, visible[0].slope, visible[0].intercept)]
        pieces += visible[1:]
    return tuple(pieces)


def tian_function(q: MonomialIdeal, qprime: MonomialIdeal, seq) -> PLConcave:
    """The exact Tian function of a graded sequence.

    Raises InfiniteLctError when lct^q of the sequence is infinite (no
    candidate ray sees the sequence), since the function would be
    identically infinite.
    """
    probe = lct_mixed_graded(q, 0, qprime, seq)
    if probe.is_infinite:
        raise InfiniteLctError("Tian function of a sequence with infinite lct")
    lines = []
    for cert in probe.certificates.values():
        if cert.va > 0:
            lines.append((cert.vqprime / cert.va,
                          (cert.log_disc + cert.vq) / cert.va))
    domain_min = None if probe.lambda_bound is None else -probe.lambda_bound
    return PLConcave(domain_min, lower_envelope(lines, domain_min))


def slope_report(f: PLConcave):
    """(left slope at 0, right slope at 0, slope of the final piece)."""
    if f.domain_min is not None and f.domain_min >= 0:
        raise DomainError("t = 0 is not interior to the Tian domain")
    left, right = f.slopes_at(Fraction(0))
    return left, right, f.slope_at_infinity


@dataclass(frozen=True)
class CriterionVerdict:
    """Outcome of the finite-family Zhou test.

    A PASS is evidence over the supplied family only; the underlying
    characterization quantifies over every nonzero ideal.  For monomial
    weight vectors the closed form makes a PASS provable (see README),
    but the verdict still records the qualifier.
    """

    passed: bool
    reason: str
    failing_index: Optional[int] = None
    note: str = ("finite-family evidence only; the criterion quantifies "
                 "over all nonzero ideals")


def zhou_criterion(alpha: WeightVector, q: MonomialIdeal,
                   test_family) -> CriterionVerdict:
    """Test lct = 1 plus linearity/differentiability over a test family."""
    if not test_family:
        raise ValueError("test family must be nonempty")
    seq = ValSeq(alpha)
    base = lct_mixed_graded(q, 0, None, seq)
    if base.is_infinite:
        raise InfiniteLctError("criterion needs a finite jumping number")
    if base.value != 1:
        return CriterionVerdict(False, f"lct != 1 (got {base.value})")
    for k, qprime in enumerate(test_family):
        f = tian_function(q, qprime, seq)
        if not f.is_linear_from(0):
            return CriterionVerdict(
                False, f"Tian function not linear on [0, inf) for family "
                       f"member {k}", k)
        left, right, _ = slope_report(f)
        if left != right:
            return CriterionVerdict(
                False, f"Tian function has a kink at t = 0 for family "
                       f"member {k}", k)
        expected = value_on_ideal(alpha, qprime)
        if left != expected:
            return CriterionVerdict(
                False, f"slope {left} != v_alpha(q') = {expected} for "
                       f"family member {k}", k)
    return CriterionVerdict(True, "lct = 1 and every Tian function in the "
                                  "family is linear with the valuation slope")


def default_test_family(n) -> list:
    """Variables, products of two variables, and the maximal ideal."""
    family = []
    for i in range(n):
        e = [0] * n
        e[i] = 1
        family.append(MonomialIdeal.from_exponents([tuple(e)]))
    for i in range(n):
        for j in range(i, n):
            e = [0] * n
            e[i] += 1
            e[j] += 1
            family.append(MonomialIdeal.from_exponents([tuple(e)]))
    maximal = [tuple(int(k == i) for k in range(n)) for i in range(n)]
    family.append(MonomialIdeal.from_exponents(maximal))
    return family


__all__ = [
    "Piece",
    "PLConcave",
    "lower_envelope",
    "tian_function",
    "slope_report",
    "zhou_criterion",
    "CriterionVerdict",
    "default_test_family",
]
