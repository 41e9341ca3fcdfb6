"""Exact polyhedral geometry for monomial data.

Two workhorses live here, ``critical_rays`` and ``newton_polyhedron``.
They are separate derivations; both take their normals as integer
cross products (``kernel_basis``), built by Laplace expansion over
index tables made once per dimension, with no division.

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


@lru_cache(maxsize=None)
def _laplace_tables(n):
    """Index tables of the Laplace expansion of n-1 rows of length n.

    Level k lists, for each k-subset S of the columns (in
    ``combinations`` order), the terms (column j, sign, index of S - {j}
    in level k-1) that expand the minor of the first k rows on S along
    row k.  ``entries`` gives entry i of the cross product as a sign and
    the index of the (n-1)-subset that omits column i.
    """
    index = {(): 0}
    levels = []
    for k in range(1, n):
        subsets = list(combinations(range(n), k))
        levels.append(tuple(
            tuple((s[p], (-1) ** (k - 1 + p), index[s[:p] + s[p + 1:]])
                  for p in range(k))
            for s in subsets))
        index = {s: i for i, s in enumerate(subsets)}
    entries = tuple(((-1) ** (n - 1 + i),
                     index[tuple(c for c in range(n) if c != i)])
                    for i in range(n))
    return tuple(levels), entries


def kernel_basis(rows, n):
    """Generalized cross product of n-1 integer rows of length n.

    Entry i is det[rows; e_i], the signed minor of the rows with column
    i deleted.  The vector is orthogonal to every row; it is zero
    exactly when the rows are linearly dependent, and otherwise it is a
    basis of their one-dimensional kernel.

    All n minors come from one Laplace expansion, one row at a time:
    the minors of the first k rows on every k-subset of the columns are
    sums of products of row k with minors of the first k-1 rows, over
    index tables made once per n.  There is no division.  A call takes
    under n 2^(n-1) products: faster than one Bareiss elimination per
    minor up to n = 6, slower from n = 7, which only a ``VALLAB_DIM_CAP``
    of 7 or more admits.  The tables hold as many index triples and are
    kept for every n seen until the process ends, so both the cost of a
    call and that memory grow as n 2^n whatever the number of rows to
    cross: about 10^7 products per call and triples kept at n = 20.
    """
    levels, entries = _laplace_tables(n)
    minors = [1]
    for row, level in zip(rows, levels):
        minors = [sum([sign * row[j] * minors[s] for j, sign, s in terms])
                  for terms in level]
    return tuple([sign * minors[s] for sign, s in entries])


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


def newton_polyhedron(ideal: MonomialIdeal) -> NewtonPolyhedron:
    """Facet description of the Newton polyhedron of a monomial ideal.

    Candidate normals are the cross products of s-1 generator
    differences and n-s unit vectors, sum_s C(k, s) C(n, s) of them for
    k generators, so the dimension cap applies, on every call.
    Results are memoized because one ideal is asked for its polyhedron
    several times in a row: by each J(t a) of one
    ``controlled_growth_check`` call, and by repeated oracle queries on
    one denominator.  That reuse is short-range, so the cache is small
    and its memory stays bounded.  ``cache_clear`` and ``cache_info``
    are those of the cache.
    """
    ideal.require_nonzero("ideal of a Newton polyhedron")
    require_within_cap(ideal.dim)
    return _newton_facets(ideal)


@lru_cache(maxsize=64)
def _newton_facets(ideal):
    gens = ideal.generators
    n = ideal.dim
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


newton_polyhedron.cache_clear = _newton_facets.cache_clear
newton_polyhedron.cache_info = _newton_facets.cache_info


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
        forms = [f if all(isinstance(c, int) for c in f)
                 else tuple(Fraction(c) for c in f) for f in family]
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
