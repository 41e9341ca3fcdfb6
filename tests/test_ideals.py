"""Monomial-ideal primitives against their definitions."""

import random

import pytest

from vallab.ideals import dominates, minimal_antichain


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
