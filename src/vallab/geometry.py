"""Exact polyhedral geometry for monomial data.

Two workhorses live here; ``newton_polyhedron`` is built on
``critical_rays``.

``critical_rays`` enumerates the extreme rays of the common refinement
of the nonnegative orthant by the hyperplanes {f_i = f_j} for every pair
of linear forms within each input family.  On each cone of that
refinement each family has a single minimizing member, so every
piecewise-linear minimum built from the families is linear there; any
ratio of two such minima is therefore minimized at one of the returned
rays (mediant inequality).  This is the reduction from "infimum over all
valuations" to a finite minimum in the monomial setting.

``newton_polyhedron`` computes the facet inequalities of
conv(generators) + R^n_{>=0}.  A facet normal is orthogonal to n-1
independent vectors among the differences of its active generators and
the coordinate directions it does not use, so it is a critical ray of
the one family of generator forms.  Each critical ray is kept when its
active generators and active coordinate rays span an (n-1)-dimensional
face, so the surviving list is exactly the facet list.

Everything is exact; no floats anywhere.
"""

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import gcd

from .config import require_within_cap
from .ideals import MonomialIdeal, minimal_antichain


# ---------------------------------------------------------------------------
# exact linear algebra on small matrices


def _echelon(rows):
    """Row-reduce a list of Fraction tuples; returns (pivot_cols, rows)."""
    rows = [list(map(Fraction, r)) for r in rows]
    if not rows:
        return [], []
    ncols = len(rows[0])
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = rows[r][c]
        rows[r] = [x / inv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return pivots, rows[:r]


def matrix_rank(rows):
    pivots, _ = _echelon(rows)
    return len(pivots)


def kernel_basis(rows, ncols):
    """Basis of {x : M x = 0} for the row matrix M, as Fraction tuples."""
    if not rows:
        return [tuple(Fraction(int(i == j)) for j in range(ncols))
                for i in range(ncols)]
    pivots, red = _echelon(rows)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        vec = [Fraction(0)] * ncols
        vec[fc] = Fraction(1)
        for row, pc in zip(red, pivots):
            vec[pc] = -row[fc]
        basis.append(tuple(vec))
    return basis


def primitive(vector):
    """Canonical primitive integer vector spanning the same ray.

    Clears denominators and divides by the gcd.  The sign is kept as
    given; callers orient separately.
    """
    fracs = [Fraction(v) for v in vector]
    denom_lcm = 1
    for f in fracs:
        denom_lcm = denom_lcm * f.denominator // gcd(denom_lcm, f.denominator)
    ints = [int(f * denom_lcm) for f in fracs]
    g = 0
    for v in ints:
        g = gcd(g, abs(v))
    if g == 0:
        raise ValueError("zero vector has no primitive representative")
    return tuple(v // g for v in ints)


def _sign_canonical(vector):
    """Primitive vector with first nonzero entry positive (for dedup)."""
    p = primitive(vector)
    lead = next(v for v in p if v != 0)
    return tuple(-v for v in p) if lead < 0 else p


# ---------------------------------------------------------------------------
# rays


@dataclass(frozen=True, order=True)
class Ray:
    """Primitive nonnegative integer direction of a monomial valuation."""

    direction: tuple

    @staticmethod
    def from_vector(vector):
        p = primitive(vector)
        if all(v <= 0 for v in p):
            p = tuple(-v for v in p)
        if any(v < 0 for v in p):
            raise ValueError(f"ray direction {p} has mixed signs")
        return Ray(p)

    @property
    def dim(self):
        return len(self.direction)

    def __str__(self):
        return "(" + ",".join(str(v) for v in self.direction) + ")"


def proportional(u, v):
    """Do two nonzero nonnegative vectors span the same ray?"""
    return _sign_canonical(u) == _sign_canonical(v)


# ---------------------------------------------------------------------------
# Newton polyhedra


@dataclass(frozen=True)
class NewtonPolyhedron:
    """conv(generators) + nonnegative orthant, by generators and facets.

    Facets are (normal, offset) pairs with primitive nonnegative integer
    normals: the polyhedron is {u >= 0 : <normal, u> >= offset for all
    facets}.  Coordinate inequalities u_i >= 0 appear in the list only
    when they are genuine facets.
    """

    generators: tuple
    dim: int
    facets: tuple  # ((normal tuple, offset int), ...)

    @property
    def nontrivial_facets(self):
        return tuple((nu, off) for nu, off in self.facets if off > 0)

    def contains(self, point, strict=False):
        """Membership test; ``strict`` tests the topological interior."""
        for i, x in enumerate(point):
            if x < 0 or (strict and x <= 0):
                return False
        for nu, off in self.facets:
            val = sum(n * x for n, x in zip(nu, point))
            if val < off or (strict and val <= off):
                return False
        return True


@lru_cache(maxsize=64)
def newton_polyhedron(ideal: MonomialIdeal) -> NewtonPolyhedron:
    """Facet description of the Newton polyhedron of a monomial ideal.

    Candidate normals are the critical rays of the generator forms, so
    the dimension cap applies.  Results are memoized because one ideal
    is asked for its polyhedron several times in a row: by each J(t a)
    of one ``controlled_growth_check`` call, and by repeated oracle
    queries on one denominator.  That reuse is short-range, so the
    cache is small and its memory stays bounded.
    """
    ideal.require_nonzero("ideal of a Newton polyhedron")
    gens = ideal.generators
    n = ideal.dim

    units = [tuple(Fraction(int(i == j)) for j in range(n)) for i in range(n)]
    facets = []
    for ray in critical_rays([gens], n):  # sorted and distinct
        nu = ray.direction
        offset = min(sum(c * g for c, g in zip(nu, b)) for b in gens)
        active = [g for g in gens
                  if sum(c * x for c, x in zip(nu, g)) == offset]
        span = [tuple(a - b for a, b in zip(g, active[0])) for g in active[1:]]
        span += [units[i] for i in range(n) if nu[i] == 0]
        if matrix_rank(span) == n - 1:
            facets.append((nu, offset))
    return NewtonPolyhedron(gens, n, tuple(facets))


# ---------------------------------------------------------------------------
# critical rays of a family refinement


def critical_rays(linear_form_families, dimension):
    """Extreme rays of the orthant refined by within-family form ties.

    ``linear_form_families`` is a list of families, each a nonempty list
    of rational linear forms given by coefficient tuples.  The splitting
    hyperplanes are {f = g} for every pair f, g within one family.  The
    returned rays are primitive, deduplicated, and sorted
    lexicographically, so identical inputs give identical output.
    """
    n = int(dimension)
    if n < 1:
        raise ValueError("dimension must be >= 1")
    require_within_cap(n)
    for fam in linear_form_families:
        if not fam:
            raise ValueError("each linear-form family must be nonempty")

    normals = {_sign_canonical(tuple(Fraction(int(i == j)) for j in range(n)))
               for i in range(n)}
    for family in linear_form_families:
        forms = []
        seen = set()
        for f in family:
            t = tuple(Fraction(c) for c in f)
            if len(t) != n:
                raise ValueError("linear form length != dimension")
            if t not in seen:
                seen.add(t)
                forms.append(t)
        for f, g in combinations(forms, 2):
            diff = tuple(a - b for a, b in zip(f, g))
            if any(d != 0 for d in diff):
                normals.add(_sign_canonical(diff))

    rays = set()
    for subset in combinations(sorted(normals), n - 1):
        kernel = kernel_basis(list(subset), n)
        if len(kernel) != 1:
            continue
        d = primitive(kernel[0])
        if all(v <= 0 for v in d):
            d = tuple(-v for v in d)
        if all(v >= 0 for v in d):
            rays.add(Ray(d))
    return sorted(rays)


__all__ = [
    "Ray",
    "NewtonPolyhedron",
    "newton_polyhedron",
    "critical_rays",
    "primitive",
    "proportional",
    "minimal_antichain",
    "matrix_rank",
    "kernel_basis",
]
