"""Newton polyhedra and critical-ray enumeration."""

import random
from fractions import Fraction
from itertools import combinations

import pytest

import vallab.geometry
from vallab import (DimensionCapError, EnlargedSeq, MonomialIdeal, PowersSeq,
                    Ray, ValSeq, ZeroIdealError, critical_rays,
                    howald_multiplier, jumping_number_oracle,
                    newton_polyhedron)
from vallab.geometry import kernel_basis, primitive

from conftest import rand_ideal, rand_weights


def ideal(*gens):
    return MonomialIdeal.from_exponents(list(gens))


# ---------------------------------------------------------------------------
# Fraction Gauss-Jordan reference: the rational linear algebra that the
# integer cross products of vallab.geometry replaced.


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


def fraction_kernel(rows, ncols):
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


def bareiss_cross(rows, n):
    """Generalized cross product, one Bareiss determinant per entry."""
    return tuple((-1) ** (n - 1 + i) * _det([r[:i] + r[i + 1:] for r in rows])
                 for i in range(n))


def canonical(v):
    """Primitive vector with first nonzero entry positive."""
    p = primitive(v)
    return p if next(x for x in p if x) > 0 else tuple(-x for x in p)


def proportional(u, v):
    """Do two nonzero vectors span the same line?"""
    return canonical(u) == canonical(v)


def reference_critical_rays(families, n):
    """The rational enumeration: sign-canonical differences of the
    Fraction forms of each family plus the unit vectors, then one
    Fraction kernel per (n-1)-subset."""
    normals = {tuple(Fraction(int(i == j)) for j in range(n))
               for i in range(n)}
    for family in families:
        forms = {tuple(Fraction(c) for c in f) for f in family}
        for f, g in combinations(forms, 2):
            normals.add(canonical(tuple(a - b for a, b in zip(f, g))))
    rays = set()
    for subset in combinations(sorted(map(canonical, normals)), n - 1):
        kernel = fraction_kernel(list(subset), n)
        if len(kernel) != 1:
            continue
        d = primitive(kernel[0])
        if all(v <= 0 for v in d):
            d = tuple(-v for v in d)
        if all(v >= 0 for v in d):
            rays.add(Ray(d))
    return sorted(rays)


class TestNewtonPolyhedron:
    def test_cusp_facets(self):
        newt = newton_polyhedron(ideal((2, 0), (0, 3)))
        assert set(newt.facets) == {((3, 2), 6), ((1, 0), 0), ((0, 1), 0)}

    def test_unit_ideal_is_full_orthant(self):
        newt = newton_polyhedron(MonomialIdeal.unit(2))
        assert set(newt.facets) == {((1, 0), 0), ((0, 1), 0)}
        assert newt.nontrivial_facets == ()

    def test_principal_xy_translate(self):
        newt = newton_polyhedron(ideal((1, 1)))
        assert set(newt.facets) == {((1, 0), 1), ((0, 1), 1)}

    def test_zero_ideal_rejected(self):
        with pytest.raises(ZeroIdealError):
            newton_polyhedron(MonomialIdeal.zero(2))

    def test_dimension_one(self):
        newt = newton_polyhedron(MonomialIdeal.from_exponents([(3,), (5,)]))
        assert newt.facets == (((1,), 3),)

    @staticmethod
    def _staircase_facets_2d(gens):
        """Independent 2D derivation via the lower convex chain.

        Antichain generators sorted by x have strictly decreasing y; the
        extreme ones form the lower chain (pop middles on non-left
        turns).  Facets are the chain edges plus the two axis bounds,
        which are always faces of conv(gens) + orthant in 2D.
        """
        pts = sorted(gens)
        hull = []
        for p in pts:
            while len(hull) >= 2:
                (ax, ay), (bx, by) = hull[-2], hull[-1]
                cross = (bx - ax) * (p[1] - ay) - (by - ay) * (p[0] - ax)
                if cross <= 0:
                    hull.pop()
                else:
                    break
            hull.append(p)
        facets = {((1, 0), min(g[0] for g in gens)),
                  ((0, 1), min(g[1] for g in gens))}
        for (x1, y1), (x2, y2) in zip(hull, hull[1:]):
            nu = primitive((y1 - y2, x2 - x1))
            facets.add((nu, nu[0] * x1 + nu[1] * y1))
        return facets

    @pytest.mark.parametrize("seed", range(12))
    def test_random_2d_against_staircase(self, seed):
        rng = random.Random(900 + seed)
        a = rand_ideal(rng, 2, max_exp=5, max_gens=4, proper=False)
        assert set(newton_polyhedron(a).facets) == \
            self._staircase_facets_2d(a.generators)

    @pytest.mark.parametrize("seed", range(8))
    def test_facet_properties_random(self, seed):
        rng = random.Random(4100 + seed)
        n = rng.choice([2, 3])
        a = rand_ideal(rng, n, max_exp=4, max_gens=4)
        newt = newton_polyhedron(a)
        for nu, off in newt.facets:
            assert all(v >= 0 for v in nu) and any(v > 0 for v in nu)
            assert min(sum(c * g for c, g in zip(nu, b))
                       for b in a.generators) == off
        # every generator satisfies every facet, some generator is active
        for nu, off in newt.facets:
            assert any(sum(c * g for c, g in zip(nu, b)) == off
                       for b in a.generators)
        # membership agrees with componentwise domination on lattice points
        for g in a.generators:
            assert newt.contains(g)
            shifted = tuple(x + 1 for x in g)
            assert newt.contains(shifted)

    @staticmethod
    def _facets_from_difference_subsets(gens, n):
        """Facets from the reference critical rays of the generator forms
        (kernels of (n-1)-subsets of the unit vectors and the
        sign-canonical generator differences), each kept by rank."""
        def dot(u, v):
            return sum(a * b for a, b in zip(u, v))

        units = [tuple(int(i == j) for j in range(n)) for i in range(n)]
        facets = {}
        for ray in reference_critical_rays([gens], n):
            nu = ray.direction
            offset = min(dot(nu, g) for g in gens)
            active = [g for g in gens if dot(nu, g) == offset]
            span = [tuple(a - b for a, b in zip(g, active[0]))
                    for g in active[1:]]
            span += [units[i] for i in range(n) if nu[i] == 0]
            if matrix_rank(span) == n - 1:
                facets[nu] = offset
        return tuple(sorted(facets.items()))

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_facets_match_the_difference_subsets(self, n):
        rng = random.Random(4300 + n)
        ideals = [MonomialIdeal.unit(n)]
        ideals += [rand_ideal(rng, n, max_exp=4, max_gens=8, proper=False)
                   for _ in range(20)]
        for a in ideals:
            assert newton_polyhedron(a).facets == \
                self._facets_from_difference_subsets(a.generators, n)

    def test_oracle_facets_do_not_use_the_engine_arrangement(
            self, monkeypatch):
        cases = [(ideal((2, 0), (0, 3)), ideal((1, 0))),
                 (ideal((3, 0, 1), (0, 2, 0), (1, 1, 4)), ideal((0, 0, 1))),
                 (ideal((2, 0, 0, 1), (0, 3, 1, 0), (1, 1, 1, 1)),
                  ideal((1, 0, 0, 0)))]
        newton_polyhedron.cache_clear()
        expected = [(newton_polyhedron(a), jumping_number_oracle(q, a),
                     howald_multiplier(a, Fraction(7, 5)))
                    for a, q in cases]

        def refuse(*args, **kwargs):
            raise AssertionError("Newton facets must not run critical_rays")

        monkeypatch.setattr(vallab.geometry, "critical_rays", refuse)
        newton_polyhedron.cache_clear()
        try:
            for (a, q), (newt, jn, mult) in zip(cases, expected):
                assert newton_polyhedron(a) == newt
                assert jumping_number_oracle(q, a) == jn
                assert howald_multiplier(a, Fraction(7, 5)) == mult
        finally:
            newton_polyhedron.cache_clear()

    def test_dimension_cap(self, monkeypatch):
        a = ideal((1, 2, 0, 0, 1), (0, 0, 3, 1, 0))
        with pytest.raises(DimensionCapError):
            newton_polyhedron(a)
        monkeypatch.setenv("VALLAB_DIM_CAP", "5")
        try:
            facets = newton_polyhedron(a).facets
        finally:
            newton_polyhedron.cache_clear()
        assert ((0, 0, 0, 1, 1), 1) in facets
        assert ((0, 3, 2, 0, 0), 6) in facets

    def test_cap_is_checked_on_a_cache_hit(self, monkeypatch):
        a = ideal((1, 2, 0, 0, 1), (0, 0, 3, 1, 0))
        newton_polyhedron.cache_clear()
        try:
            monkeypatch.setenv("VALLAB_DIM_CAP", "5")
            facets = newton_polyhedron(a).facets
            assert newton_polyhedron(a).facets == facets
            monkeypatch.delenv("VALLAB_DIM_CAP")
            with pytest.raises(DimensionCapError):
                newton_polyhedron(a)
            info = newton_polyhedron.cache_info()
            assert (info.hits, info.misses, info.currsize) == (1, 1, 1)
        finally:
            newton_polyhedron.cache_clear()

    def test_3d_box_corner(self):
        newt = newton_polyhedron(
            MonomialIdeal.from_exponents([(1, 1, 1)]))
        assert set(newt.facets) == {((1, 0, 0), 1), ((0, 1, 0), 1),
                                    ((0, 0, 1), 1)}

    def test_3d_simplex(self):
        newt = newton_polyhedron(
            MonomialIdeal.from_exponents([(2, 0, 0), (0, 2, 0), (0, 0, 2)]))
        assert ((1, 1, 1), 2) in set(newt.facets)


class TestCriticalRays:
    def test_cusp_split(self):
        rays = critical_rays([[(2, 0), (0, 3)]], 2)
        assert [r.direction for r in rays] == [(0, 1), (1, 0), (3, 2)]

    def test_constant_family_no_split(self):
        rays = critical_rays([[(1, 1)]], 2)
        assert [r.direction for r in rays] == [(0, 1), (1, 0)]

    def test_joint_families(self):
        rays = critical_rays([[(2, 0), (0, 3), (3, 0), (0, 2)]], 2)
        assert [r.direction for r in rays] == [
            (0, 1), (1, 0), (1, 1), (2, 3), (3, 2)]

    def test_two_separate_families_no_cross_pairs(self):
        rays = critical_rays([[(2, 0), (0, 3)], [(3, 0), (0, 2)]], 2)
        assert [r.direction for r in rays] == [(0, 1), (1, 0), (2, 3), (3, 2)]

    def test_deterministic(self):
        fams = [[(2, 0, 1), (0, 3, 0)], [(1, 1, 1)]]
        assert critical_rays(fams, 3) == critical_rays(fams, 3)

    def test_rays_primitive_and_nonnegative(self):
        rays = critical_rays([[(4, 6), (6, 4), (0, 0)]], 2)
        from math import gcd
        for r in rays:
            assert all(v >= 0 for v in r.direction)
            assert gcd(*r.direction) == 1

    def test_dimension_cap(self, monkeypatch):
        with pytest.raises(DimensionCapError):
            critical_rays([[(1,) * 5]], 5)
        # the environment override admits the larger dimension
        monkeypatch.setenv("VALLAB_DIM_CAP", "5")
        rays = critical_rays([[(1,) * 5]], 5)
        assert len(rays) == 5

    def test_cap_has_no_per_call_override(self):
        import inspect

        import vallab
        functions = [getattr(vallab, name) for name in vallab.__all__
                     if inspect.isfunction(getattr(vallab, name))]
        assert len(functions) > 20
        assert [f.__name__ for f in functions
                if "dim_cap" in inspect.signature(f).parameters] == []

    def test_dimension_one(self):
        assert critical_rays([[(7,), (2,)]], 1) == [Ray((1,))]

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_matches_the_fraction_enumeration(self, n):
        rng = random.Random(5300 + n)
        for _ in range(15):
            a = rand_ideal(rng, n, max_exp=3, max_gens=4, proper=False)
            val = ValSeq(rand_weights(rng, n, allow_zero=True))
            beta = Fraction(rng.randint(1, 5), rng.randint(1, 4))
            enl = EnlargedSeq(val, rand_ideal(rng, n, max_exp=3), beta)
            families = [
                list(a.generators),
                val.linear_forms(),
                enl.linear_forms(),
                PowersSeq(a).linear_forms() + val.linear_forms(),
                # duplicate forms and the zero form
                val.linear_forms() * 2 + [(0,) * n],
                # one constant form: no splitting hyperplane
                [rng.choice(enl.linear_forms())],
            ]
            chosen = rng.sample(families, rng.randint(1, 3))
            assert critical_rays(chosen, n) == \
                reference_critical_rays(chosen, n)

    def test_minimizing_member_constant_per_cone_2d(self):
        # between consecutive rays (sorted by angle) the minimizing form of
        # each family must not change: check at cone midpoints vs endpoints
        fams = [[(2, 0), (0, 3)], [(1, 1), (3, 0)]]
        rays = critical_rays(fams, 2)
        by_angle = sorted(rays, key=lambda r: (r.direction[1], -r.direction[0])
                          if r.direction[0] else (10**9, 0))

        def minimizers(fam, gamma):
            vals = [sum(Fraction(c) * x for c, x in zip(f, gamma))
                    for f in fam]
            low = min(vals)
            return {i for i, v in enumerate(vals) if v == low}

        for r1, r2 in zip(by_angle, by_angle[1:]):
            mid = tuple(a + b for a, b in zip(r1.direction, r2.direction))
            for fam in fams:
                common = minimizers(fam, r1.direction) & \
                    minimizers(fam, r2.direction)
                assert minimizers(fam, mid) <= common or \
                    minimizers(fam, mid) >= common


class TestLinearAlgebra:
    def test_kernel_of_single_form(self):
        assert kernel_basis([(2, -3)], 2) in [(3, 2), (-3, -2)]

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_cross_product_against_the_fraction_kernel(self, n):
        rng = random.Random(5100 + n)
        for trial in range(150):
            rows = [tuple(rng.randint(-3, 3) for _ in range(n))
                    for _ in range(n - 1)]
            if trial % 3 == 0 and n > 2:
                # the last row becomes an integer combination of the first two
                c, d = rng.randint(-2, 2), rng.randint(-2, 2)
                second = rows[1] if n > 3 else (0,) * n
                rows[-1] = tuple(c * x + d * y
                                 for x, y in zip(rows[0], second))
            cross = kernel_basis(rows, n)
            assert all(isinstance(v, int) for v in cross) and len(cross) == n
            reference = fraction_kernel(rows, n)
            if len(reference) > 1:
                assert cross == (0,) * n
                continue
            assert all(sum(a * b for a, b in zip(cross, r)) == 0
                       for r in rows)
            assert proportional(cross, reference[0])

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7])
    def test_cross_product_equals_the_bareiss_minors(self, n):
        rng = random.Random(5200 + n)
        zero = 0
        for trial in range(200):
            bound = 10 ** 6 if trial % 2 else 3
            rows = [tuple(rng.randint(-bound, bound) for _ in range(n))
                    for _ in range(n - 1)]
            kind = trial % 8
            if kind == 1 and n > 2:
                rows[-1] = rows[0]
            elif kind == 3 and n > 3:
                c, d = rng.randint(-bound, bound), rng.randint(-bound, bound)
                rows[-1] = tuple(c * x + d * y
                                 for x, y in zip(rows[0], rows[1]))
            elif kind == 5:
                # sparse rows: zero pivots force row swaps in the reference
                rows = [tuple(x if rng.random() < 0.3 else 0 for x in r)
                        for r in rows]
            elif kind == 7 and n > 1:
                rows[rng.randrange(n - 1)] = (0,) * n
            cross = kernel_basis(rows, n)
            assert cross == bareiss_cross(rows, n)
            zero += cross == (0,) * n
        assert zero > 0 or n == 1

    def test_rank(self):
        assert matrix_rank([(1, 0, 0), (0, 1, 0), (1, 1, 0)]) == 2
        assert matrix_rank([]) == 0

    def test_primitive_and_proportional(self):
        assert primitive((Fraction(1, 2), Fraction(1, 3))) == (3, 2)
        assert proportional((Fraction(1, 2), Fraction(1, 3)), (3, 2))
        assert not proportional((1, 2), (2, 1))

    def test_ray_from_vector_rejects_mixed_signs(self):
        with pytest.raises(ValueError):
            Ray.from_vector((1, -1))
