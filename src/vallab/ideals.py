"""Monomial ideals and monomial-valuation weight vectors.

A monomial ideal in n variables is stored as its minimal generating
antichain of exponent vectors (tuples of nonnegative ints, sorted
lexicographically).  The unit ideal is generated by the zero exponent;
an empty generator set denotes the zero ideal, which most operations
reject.
"""

from dataclasses import dataclass
from itertools import product as iter_product

from .errors import DimensionMismatchError, ZeroIdealError
from .scalars import as_rat

ExponentVector = tuple  # tuple[int, ...], one entry per variable


def dominates(beta, gamma):
    """Componentwise beta >= gamma."""
    return all(b >= g for b, g in zip(beta, gamma))


def minimal_antichain(points):
    """Minimal elements of a finite set of exponent vectors, sorted."""
    keep = []
    # in lexicographic order every point dominating another comes after it
    for p in sorted(set(points)):
        if not any(dominates(p, q) for q in keep):
            keep.append(p)
    return tuple(keep)


@dataclass(frozen=True)
class MonomialIdeal:
    """Minimal antichain of exponent vectors generating a monomial ideal."""

    generators: tuple
    dim: int

    @staticmethod
    def from_exponents(exps, dim=None):
        exps = [tuple(int(e) for e in beta) for beta in exps]
        if dim is None:
            if not exps:
                raise ZeroIdealError("zero ideal needs an explicit dimension")
            dim = len(exps[0])
        if dim < 1:
            raise DimensionMismatchError("ambient dimension must be >= 1")
        for beta in exps:
            if len(beta) != dim:
                raise DimensionMismatchError(
                    f"exponent {beta} has length {len(beta)}, expected {dim}")
            if any(e < 0 for e in beta):
                raise ValueError(f"negative exponent in {beta}")
        return MonomialIdeal(minimal_antichain(exps), dim)

    @staticmethod
    def unit(dim):
        return MonomialIdeal(((0,) * dim,), dim)

    @staticmethod
    def zero(dim):
        return MonomialIdeal((), dim)

    @property
    def is_zero(self):
        return not self.generators

    @property
    def is_unit(self):
        return self.generators == ((0,) * self.dim,)

    def require_nonzero(self, what="ideal"):
        if self.is_zero:
            raise ZeroIdealError(f"{what} must be nonzero")
        return self

    def contains_monomial(self, beta):
        if len(beta) != self.dim:
            raise DimensionMismatchError("exponent length != ambient dimension")
        return any(dominates(tuple(beta), g) for g in self.generators)

    def contains_ideal(self, other):
        """self >= other as ideals: every generator of other lies in self."""
        if other.dim != self.dim:
            raise DimensionMismatchError("ideal dimensions differ")
        return all(self.contains_monomial(g) for g in other.generators)

    def product(self, other):
        if other.dim != self.dim:
            raise DimensionMismatchError("ideal dimensions differ")
        if self.is_zero or other.is_zero:
            return MonomialIdeal.zero(self.dim)
        gens = {tuple(a + b for a, b in zip(g, h))
                for g in self.generators for h in other.generators}
        return MonomialIdeal(minimal_antichain(gens), self.dim)

    def power(self, m):
        if m < 0:
            raise ValueError("power must be nonnegative")
        result = MonomialIdeal.unit(self.dim)
        for _ in range(m):
            result = result.product(self)
        return result

    def plus(self, other):
        """Ideal sum: union of the generator sets."""
        if other.dim != self.dim:
            raise DimensionMismatchError("ideal dimensions differ")
        return MonomialIdeal(
            minimal_antichain(self.generators + other.generators), self.dim)

    def __str__(self):
        if self.is_zero:
            return "0"
        names = variable_names(self.dim)
        return ", ".join(monomial_str(g, names) for g in self.generators)


@dataclass(frozen=True)
class WeightVector:
    """Nonzero nonnegative rational weights defining a monomial valuation."""

    alpha: tuple  # tuple[Fraction, ...]

    @staticmethod
    def of(*weights):
        if len(weights) == 1 and isinstance(weights[0], (list, tuple)):
            weights = tuple(weights[0])
        alpha = tuple(as_rat(w) for w in weights)
        if not alpha:
            raise DimensionMismatchError("weight vector must be nonempty")
        if any(a < 0 for a in alpha):
            raise ValueError("weights must be nonnegative")
        if all(a == 0 for a in alpha):
            raise ValueError("weight vector must be nonzero")
        return WeightVector(alpha)

    @property
    def dim(self):
        return len(self.alpha)

    @property
    def support(self):
        return tuple(i for i, a in enumerate(self.alpha) if a > 0)

    def scale(self, c):
        c = as_rat(c)
        if c <= 0:
            raise ValueError("scale factor must be positive")
        return WeightVector(tuple(a * c for a in self.alpha))


def variable_names(dim):
    """x, y, z for dim <= 3; x1..xn otherwise."""
    if dim <= 3:
        return ("x", "y", "z")[:dim]
    return tuple(f"x{i + 1}" for i in range(dim))


def monomial_str(beta, names):
    parts = [f"{v}^{e}" if e > 1 else v for v, e in zip(names, beta) if e > 0]
    return "*".join(parts) if parts else "1"


def staircase(bounds, least):
    """Minimal lattice points of an upward-closed region, sorted.

    The region holds (p, t) for every prefix p in the box
    prod_i [0, bounds[i]] with ``least(p)`` not None and t >= least(p).
    ``least`` must be nonincreasing in p, with upward-closed feasible
    prefixes, and the box must hold the prefix of every minimal point.
    Then (p, least(p)) is minimal exactly when lowering any positive
    entry of p changes ``least``, so no pairwise filter is needed.
    """
    for p in iter_product(*(range(b + 1) for b in bounds)):
        t = least(p)
        if t is not None and all(
                e == 0 or least(p[:i] + (e - 1,) + p[i + 1:]) != t
                for i, e in enumerate(p)):
            yield p + (t,)

