"""Monomial-ideal primitives against their definitions."""

import random
from fractions import Fraction as F
from itertools import product
from math import ceil, floor, prod

import pytest

from vallab import (MonomialIdeal, howald_multiplier, newton_polyhedron,
                    valuation_ideal)
from vallab.ideals import dominates, minimal_antichain, staircase

from conftest import rand_ideal, rand_weights


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_minimal_antichain_is_the_set_of_minimal_points(n):
    rng = random.Random(3100 + n)
    for _ in range(40):
        points = [tuple(rng.randint(0, 4) for _ in range(n))
                  for _ in range(rng.randint(0, 25))]
        points += rng.sample(points, rng.randint(0, len(points)))
        rng.shuffle(points)
        brute = sorted({p for p in points
                        if not any(q != p and dominates(p, q)
                                   for q in points)})
        assert minimal_antichain(points) == tuple(brute)


# ---------------------------------------------------------------------------
# the staircase walk against the enumeration it replaced: one candidate per
# prefix of the search box, then the pairwise minimal_antichain filter


def _box(facets, c, n):
    return [max((floor(c * off / nu[j]) for nu, off in facets if nu[j] > 0),
                default=0) for j in range(n)]


def _filtered_box_multiplier(a, c):
    """Generators and witness of J(c a), and whether a prefix was infeasible."""
    n = a.dim
    facets = newton_polyhedron(a).nontrivial_facets
    if not facets:
        return {(0,) * n: ()}, False
    bounds = _box(facets, c, n)
    candidates, infeasible = [], False
    for prefix in product(*(range(b + 1) for b in bounds[:-1])):
        lower, feasible = 0, True
        for nu, off in facets:
            need = c * off - nu[-1] - sum(
                nu[j] * (prefix[j] + 1) for j in range(n - 1))
            if nu[-1] == 0:
                feasible = feasible and need < 0
            else:
                lower = max(lower, floor(need / nu[-1]) + 1)
        if feasible:
            candidates.append(prefix + (lower,))
        infeasible = infeasible or not feasible
    witness = {beta: tuple(sum(v * (b + 1) for v, b in zip(nu, beta)) - c * off
                           for nu, off in facets)
               for beta in minimal_antichain(candidates)}
    return witness, infeasible


def _filtered_box_valuation_ideal(alpha, m):
    n, supp, weights = alpha.dim, alpha.support, alpha.alpha
    bounds = [ceil(m / weights[i]) for i in supp]
    candidates = []
    for prefix in product(*(range(b + 1) for b in bounds[:-1])):
        need = m - sum(weights[i] * e for i, e in zip(supp, prefix))
        beta = [0] * n
        for i, e in zip(supp, prefix):
            beta[i] = e
        beta[supp[-1]] = ceil(need / weights[supp[-1]]) if need > 0 else 0
        candidates.append(tuple(beta))
    return minimal_antichain(candidates)


def _crossing(rng, a):
    """A coefficient at which some m + (1,...,1) lies on a facet of c Newt(a)."""
    nu, off = rng.choice(newton_polyhedron(a).nontrivial_facets)
    m = [rng.randint(0, 3) for _ in nu]
    return F(sum(v * (e + 1) for v, e in zip(nu, m)), off)


class TestStaircase:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_minimal_points_of_an_upward_closed_set(self, n):
        rng = random.Random(3300 + n)
        for _ in range(40):
            gens = [tuple(rng.randint(0, 5) for _ in range(n))
                    for _ in range(rng.randint(1, 6))]

            def least(p):
                above = [g[-1] for g in gens if dominates(p, g[:-1])]
                return min(above) if above else None

            bounds = [max(g[j] for g in gens) for j in range(n - 1)]
            assert tuple(staircase(bounds, least)) == minimal_antichain(gens)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_howald_multiplier_matches_the_filtered_box(self, n):
        rng = random.Random(3400 + n)
        cases = [(MonomialIdeal.unit(n), F(3, 2))]
        while len(cases) < 30:
            a = rand_ideal(rng, n, max_exp=3, max_gens=4)
            c = _crossing(rng, a) if rng.random() < 0.5 else \
                F(rng.randint(1, 24), rng.randint(1, 3))
            bounds = _box(newton_polyhedron(a).nontrivial_facets, c, n)
            if prod(b + 1 for b in bounds[:-1]) <= 400:
                cases.append((a, c))
        saw_infeasible = False
        for a, c in cases:
            witness, infeasible = _filtered_box_multiplier(a, c)
            result = howald_multiplier(a, c)
            assert result.ideal.generators == tuple(witness)
            assert result.witness == witness
            saw_infeasible = saw_infeasible or infeasible
        assert saw_infeasible == (n > 1)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_valuation_ideal_matches_the_filtered_box(self, n):
        rng = random.Random(3500 + n)
        saw_zero_weight = False
        for _ in range(30):
            alpha = rand_weights(rng, n, max_den=3, allow_zero=True)
            if rng.random() < 0.5:  # m on a value of val_alpha
                beta = [rng.randint(0, 2) for _ in range(n)]
                m = sum(w * e for w, e in zip(alpha.alpha, beta))
            else:
                m = F(rng.randint(1, 12), 4)
            m = m if m > 0 else F(1)
            saw_zero_weight = saw_zero_weight or 0 in alpha.alpha
            assert valuation_ideal(alpha, m).generators == \
                _filtered_box_valuation_ideal(alpha, m)
        assert saw_zero_weight == (n > 1)
