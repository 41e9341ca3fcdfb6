"""Newton polyhedra and critical-ray enumeration."""

import random
from fractions import Fraction
from itertools import combinations

import pytest

from vallab import (DimensionCapError, MonomialIdeal, Ray, ZeroIdealError,
                    critical_rays, newton_polyhedron)
from vallab.geometry import kernel_basis, matrix_rank, primitive, proportional

from conftest import rand_ideal


def ideal(*gens):
    return MonomialIdeal.from_exponents(list(gens))


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
        """Facets from the kernels of (n-1)-subsets of the unit vectors and
        the sign-canonical generator differences, each kept by rank."""
        def canonical(v):
            p = primitive(v)
            return p if next(x for x in p if x) > 0 else tuple(-x for x in p)

        def dot(u, v):
            return sum(a * b for a, b in zip(u, v))

        units = [tuple(int(i == j) for j in range(n)) for i in range(n)]
        directions = sorted(
            {canonical(tuple(a - b for a, b in zip(g, h)))
             for g, h in combinations(gens, 2)} | set(units))
        facets = {}
        for subset in combinations(directions, n - 1):
            kernel = kernel_basis(list(subset), n)
            if len(kernel) != 1:
                continue
            nu = primitive(kernel[0])
            nu = tuple(-v for v in nu) if all(v <= 0 for v in nu) else nu
            if any(v < 0 for v in nu):
                continue
            offset = min(dot(nu, g) for g in gens)
            active = [g for g in gens if dot(nu, g) == offset]
            span = [tuple(a - b for a, b in zip(g, active[0]))
                    for g in active[1:]]
            span += [units[i] for i in range(n) if nu[i] == 0]
            if matrix_rank(span) == n - 1:
                facets[nu] = offset
        return tuple(sorted(facets.items()))

    @pytest.mark.parametrize("n", [3, 4])
    def test_facets_match_the_difference_subsets(self, n):
        rng = random.Random(4300 + n)
        for _ in range(20):
            a = rand_ideal(rng, n, max_exp=4, max_gens=5, proper=False)
            assert newton_polyhedron(a).facets == \
                self._facets_from_difference_subsets(a.generators, n)

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
        basis = kernel_basis([(2, -3)], 2)
        assert len(basis) == 1
        assert primitive(basis[0]) in [(3, 2), (-3, -2)]

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
