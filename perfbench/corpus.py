"""Seeded raw inputs: exponent lists, weights, mixing weights, CLI text.

Everything returned here is plain data (tuples of ints, Fractions and
strings); the workloads turn it into vallab objects.  Each round of a
workload draws from its own ``random.Random`` keyed by the workload
name, the seed and the round label, so the same seed always gives the
same inputs and the warm-up round ("w0") never shares a stream with
timed rounds (0, 1, ...).
"""

import random
from fractions import Fraction

from checks import safe_negative_bound


def round_rng(workload, seed, label):
    return random.Random(f"{workload}:{seed}:{label}")


def _dominates(a, b):
    return all(x >= y for x, y in zip(a, b))


def _layer_point(rng, n, degree):
    cuts = sorted(rng.randint(0, degree) for _ in range(n - 1))
    return tuple(b - a for a, b in zip([0] + cuts, cuts + [degree]))


def staircase(rng, n, count, degree=None):
    """An antichain of exactly ``count`` exponent vectors.

    In the plane (two or more points): distinct x exponents rising while
    distinct y exponents fall.  Otherwise points start on the layer
    sum = degree
    (so they are pairwise incomparable), then each is pushed up one
    coordinate when that keeps the antichain, which bends the staircase
    off the simplex.
    """
    degree = max(count - 1, n) if degree is None else degree
    if n == 2 and count > 1:
        xs = sorted(rng.sample(range(degree + 2), count))
        ys = sorted(rng.sample(range(degree + 2), count), reverse=True)
        return tuple(zip(xs, ys))
    points = set()
    while len(points) < count:
        points.add(_layer_point(rng, n, degree))
    points = sorted(points)
    for i, p in enumerate(points):
        j = rng.randrange(n)
        bumped = p[:j] + (p[j] + rng.randint(1, 2),) + p[j + 1:]
        if not any(_dominates(bumped, other)
                   for k, other in enumerate(points) if k != i):
            points[i] = bumped
    return tuple(points)


def diagonal(d):
    n = len(d)
    return tuple(tuple(d[i] if i == j else 0 for j in range(n))
                 for i in range(n))


def small_ideal(rng, n, max_gens=2, degree=3):
    return staircase(rng, n, rng.randint(1, max_gens), degree)


def weights(rng, n):
    return tuple(Fraction(rng.randint(1, 6), rng.randint(1, 6))
                 for _ in range(n))


def positive_lambda(rng):
    return Fraction(rng.randint(1, 8), rng.randint(1, 4))


def negative_lambda(rng, qprime):
    """A mixing weight inside (-1 / min ||m'||_inf, 0), where no ray's
    numerator can reach zero."""
    return -safe_negative_bound(qprime) * Fraction(rng.randint(1, 3), 4)


def product_gens(a, b):
    return tuple(sorted({tuple(x + y for x, y in zip(g, h))
                         for g in a for h in b}))


# ---------------------------------------------------------------------------
# text forms for the CLI


def monomial_text(m):
    names = ("x", "y", "z")
    parts = [f"{v}^{e}" if e > 1 else v for v, e in zip(names, m) if e > 0]
    return "*".join(parts) if parts else "1"


def ideal_text(gens):
    return ", ".join(monomial_text(m) for m in gens)


def rat_text(x):
    x = Fraction(x)
    return str(x.numerator) if x.denominator == 1 else \
        f"{x.numerator}/{x.denominator}"


def weights_text(alpha):
    return ",".join(rat_text(a) for a in alpha)


def tree_path(rng, steps):
    """Valuative-tree steps: skewness rising from 1, multiplicity 1 then
    multiplied by 2 or 3 at each step (so divisibility holds)."""
    path, skew, mult = [], Fraction(1), 1
    for k in range(steps):
        skew += Fraction(rng.randint(1, 5), rng.randint(1, 4))
        if k > 0:
            mult *= rng.choice((2, 3))
        path.append((skew, mult))
    return tuple(path)


def path_text(path):
    return ",".join(f"{rat_text(s)}:{m}" for s, m in path)
