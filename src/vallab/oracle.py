"""Independent multiplier-ideal oracle for monomial ideals.

The multiplier ideal of a monomial ideal at coefficient c is monomial,
generated by the exponents beta such that beta + (1,...,1) lies in the
topological interior of c * Newt(a) (Howald's theorem).  The interior
test is a strict inequality against every facet, coordinate facets
included; boundary points are excluded, which matches the jumping-number
convention min{lambda : q not contained in J(a^lambda)}.

Everything here is decided by exact lattice searches and facet slacks,
with no reference to the ray-minimization engine, so agreement between
:func:`jumping_number_oracle` and :func:`vallab.jumping.lct_mixed` is a
genuine cross-validation.
"""

from dataclasses import dataclass
from fractions import Fraction

from .config import require_within_cap
from .errors import DimensionMismatchError
from .geometry import newton_polyhedron
from .ideals import MonomialIdeal, staircase
from .ideals import minimal_antichain  # noqa: F401 -- perfbench traces it
from .scalars import INFINITY, as_rat, floor_rat
from .valuations import value_on_ideal


@dataclass(frozen=True)
class MultiplierIdealResult:
    """J(c * a) with per-generator facet slacks as the witness."""

    coefficient: Fraction
    ideal: MonomialIdeal
    witness: dict  # generator -> tuple of exact positive facet slacks


def _strict_lower_bound(x):
    """Least nonnegative integer strictly greater than the rational x."""
    return max(0, floor_rat(x) + 1)


def howald_multiplier(a: MonomialIdeal, c) -> MultiplierIdealResult:
    """The multiplier ideal J(c * a) of a monomial ideal, exactly.

    Minimal generators are found by a bounded lattice search: a minimal
    generator beta has, for each coordinate j, some facet (nu, off) with
    nu_j > 0 and beta_j <= c * off / nu_j (otherwise beta - e_j would
    still pass the interior test), which gives a provable search box.
    Over that box :func:`vallab.ideals.staircase` walks the prefixes of
    the first n-1 coordinates and emits only the minimal generators, so
    the candidates are never filtered pairwise.
    """
    c = as_rat(c)
    if c <= 0:
        raise ValueError("multiplier coefficient must be positive")
    a.require_nonzero("multiplier-ideal argument")
    n = a.dim
    require_within_cap(n)

    facets = newton_polyhedron(a).nontrivial_facets  # none for the unit
    bounds = []
    for j in range(n):
        per_facet = [floor_rat(c * off / nu[j]) for nu, off in facets if nu[j] > 0]
        bounds.append(max(per_facet) if per_facet else 0)

    def least(prefix):
        lower = 0
        for nu, off in facets:
            partial = sum(nu[j] * (prefix[j] + 1) for j in range(n - 1)) + nu[-1]
            need = c * off - partial  # nu[-1] * beta_n must exceed this
            if nu[-1] == 0:
                if need >= 0:
                    return None
            else:
                lower = max(lower, _strict_lower_bound(need / nu[-1]))
        return lower

    gens = tuple(staircase(bounds[:-1], least))
    ideal = MonomialIdeal(gens, n)
    witness = {}
    for beta in gens:
        shifted = tuple(b + 1 for b in beta)
        witness[beta] = tuple(
            sum(nu[j] * shifted[j] for j in range(n)) - c * off
            for nu, off in facets)
    return MultiplierIdealResult(c, ideal, witness)


def jumping_number_oracle(q: MonomialIdeal, a: MonomialIdeal):
    """min{lambda : q not contained in J(a^lambda)}, or INFINITY for unit a.

    By Howald's theorem q lies in J(c * a) iff every generator m of q has
    m + (1,...,1) strictly inside c * Newt(a), so the value is the least
    facet-crossing threshold <nu, m + 1> / off over the generators m of q
    and the nontrivial facets (nu, off) of Newt(a).
    """
    q.require_nonzero("jumping-number ideal q")
    a.require_nonzero("jumping-number ideal a")
    if a.is_unit:
        return INFINITY
    if q.dim != a.dim:
        raise DimensionMismatchError(
            f"mixed ambient dimensions {sorted({q.dim, a.dim})}")
    require_within_cap(a.dim)
    facets = newton_polyhedron(a).nontrivial_facets
    return min(Fraction(sum(v * (e + 1) for v, e in zip(nu, m)), off)
               for m in q.generators for nu, off in facets)


@dataclass(frozen=True)
class GrowthEntry:
    ray: object
    t: Fraction
    lhs: Fraction      # v_gamma(b_t) / t
    rhs: Fraction      # v_gamma(b_T)/T - A_gamma / t
    slack: Fraction


@dataclass(frozen=True)
class GrowthReport:
    entries: tuple

    @property
    def all_positive(self):
        return all(e.slack > 0 for e in self.entries)


def controlled_growth_check(a: MonomialIdeal, rays, t_values) -> GrowthReport:
    """Controlled-growth slacks of the multiplier system b_t = J(t * a).

    For each listed ray gamma and time t the report records
    v_gamma(b_t)/t against v_gamma(b_T)/T - A_gamma/t, where T is the
    largest listed time (standing in for the asymptotic value); all
    slacks must come out positive.
    """
    a.require_nonzero("growth-check ideal")
    ts = sorted(as_rat(t) for t in t_values)
    if not ts or ts[0] <= 0:
        raise ValueError("t values must be positive")
    t_max = ts[-1]
    b = {t: howald_multiplier(a, t).ideal for t in ts}

    entries = []
    for ray in rays:
        log_disc = Fraction(sum(ray.direction))
        v_top = value_on_ideal(ray.direction, b[t_max]) / t_max
        for t in ts:
            lhs = value_on_ideal(ray.direction, b[t]) / t
            rhs = v_top - log_disc / t
            entries.append(GrowthEntry(ray, t, lhs, rhs, lhs - rhs))
    return GrowthReport(tuple(entries))


__all__ = [
    "MultiplierIdealResult",
    "howald_multiplier",
    "jumping_number_oracle",
    "controlled_growth_check",
    "GrowthReport",
    "GrowthEntry",
]
