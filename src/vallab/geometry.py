"""Exact polyhedral geometry for monomial data.

Two workhorses live here, ``critical_rays`` and ``newton_polyhedron``.
They are separate derivations; both take their normals as integer
cross products (``kernel_basis``).

``critical_rays`` enumerates the extreme rays of the common refinement
of the nonnegative orthant by the hyperplanes {f_i = f_j} for every pair
of linear forms within each input family.  On each cone of that
refinement each family has a single minimizing member, so every
piecewise-linear minimum built from the families is linear there; any
ratio of two such minima is therefore minimized at one of the returned
rays (mediant inequality).  This is the reduction from "infimum over all
valuations" to a finite minimum in the monomial setting.

``newton_polyhedron`` computes the facet inequalities of
conv(generators) + R^n_{>=0}.  A facet contains some generators g_1..g_s
and the coordinate directions its normal does not use, and n-1 of those
span it: s-1 differences g_k - g_1 and n-s unit vectors.  Their cross
product, when nonzero, nonnegative and supporting every generator, is
therefore a facet normal, and every facet arises this way.

Everything is exact; no floats anywhere.
"""

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import gcd, lcm

from .config import require_within_cap
from .ideals import MonomialIdeal, minimal_antichain


# ---------------------------------------------------------------------------
# integer linear algebra on small matrices


def _det(rows):
    """Determinant of a square integer matrix by Bareiss elimination.

    Every intermediate entry is a minor of the input, so each division
    is exact and no fractions appear.
    """
    m = [list(r) for r in rows]
    sign, prev = 1, 1
    for k in range(len(m) - 1):
        if not m[k][k]:
            swap = next((i for i in range(k + 1, len(m)) if m[i][k]), None)
            if swap is None:
                return 0
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        pivot = m[k][k]
        for row in m[k + 1:]:
            for j in range(k + 1, len(m)):
                row[j] = (row[j] * pivot - row[k] * m[k][j]) // prev
        prev = pivot
    return sign * m[-1][-1] if m else 1


def kernel_basis(rows, n):
    """Generalized cross product of n-1 integer rows of length n.

    Entry i is det[rows; e_i], the signed minor of the rows with column
    i deleted.  The vector is orthogonal to every row; it is zero
    exactly when the rows are linearly dependent, and otherwise it is a
    basis of their one-dimensional kernel.
    """
    return tuple((-1) ** (n - 1 + i) * _det([r[:i] + r[i + 1:] for r in rows])
                 for i in range(n))


def _nonnegative_ray(vector):
    """The primitive nonnegative multiple of an integer vector, or None
    when the vector is zero or has entries of both signs."""
    g = gcd(*vector)
    if g == 0:
        return None
    if all(v <= 0 for v in vector):
        g = -g
    p = tuple(v // g for v in vector)
    return p if all(v >= 0 for v in p) else None


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
    """Nonzero integer vector divided by its gcd, first nonzero entry
    positive (for dedup)."""
    g = gcd(*vector)
    if next(v for v in vector if v) < 0:
        g = -g
    return tuple(v // g for v in vector)


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

    Candidate normals are the cross products of s-1 generator
    differences and n-s unit vectors, sum_s C(k, s) C(n, s) of them for
    k generators, so the dimension cap applies.
    Results are memoized because one ideal is asked for its polyhedron
    several times in a row: by each J(t a) of one
    ``controlled_growth_check`` call, and by repeated oracle queries on
    one denominator.  That reuse is short-range, so the cache is small
    and its memory stays bounded.
    """
    ideal.require_nonzero("ideal of a Newton polyhedron")
    gens = ideal.generators
    n = ideal.dim
    require_within_cap(n)

    units = [tuple(int(i == j) for j in range(n)) for i in range(n)]
    facets = {}
    for s in range(1, min(n, len(gens)) + 1):
        for face in combinations(gens, s):
            diffs = [tuple(a - b for a, b in zip(g, face[0])) for g in face[1:]]
            for free in combinations(units, n - s):
                nu = _nonnegative_ray(kernel_basis(diffs + list(free), n))
                if nu is None or nu in facets:
                    continue
                offset = sum(c * x for c, x in zip(nu, face[0]))
                if all(sum(c * x for c, x in zip(nu, g)) >= offset
                       for g in gens):
                    facets[nu] = offset
    return NewtonPolyhedron(gens, n, tuple(sorted(facets.items())))


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

    normals = {tuple(int(i == j) for j in range(n)) for i in range(n)}
    for family in linear_form_families:
        forms = [tuple(Fraction(c) for c in f) for f in family]
        if any(len(f) != n for f in forms):
            raise ValueError("linear form length != dimension")
        scale = 1
        for f in forms:
            for c in f:
                scale = lcm(scale, c.denominator)
        ints = {tuple(int(c * scale) for c in f) for f in forms}
        for f, g in combinations(ints, 2):
            normals.add(_sign_canonical(tuple(a - b for a, b in zip(f, g))))

    rays = set()
    for subset in combinations(sorted(normals), n - 1):
        ray = _nonnegative_ray(kernel_basis(subset, n))
        if ray is not None:
            rays.add(Ray(ray))
    return sorted(rays)


__all__ = [
    "Ray",
    "NewtonPolyhedron",
    "newton_polyhedron",
    "critical_rays",
    "primitive",
    "minimal_antichain",
    "kernel_basis",
]
