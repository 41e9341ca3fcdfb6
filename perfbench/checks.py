"""Independent reference computations for the benchmark's output checks.

Nothing here imports vallab.  Every function works on raw exponent
tuples, rational weights and plain ``Fraction`` arithmetic, so a check
compares vallab against a derivation made apart from it, never against a
copy of an earlier output.

Denominator specs describe what an lct divides by:

* ``("ideal", gens)``: v_gamma(a) = min over generators of <gamma, m>;
* ``("pow", gens)``: the same values for the power sequence of a;
* ``("val", alpha)``: v_gamma(ValSeq(alpha)) = min_i gamma_i / alpha_i;
* ``("enl", base, gens, beta)``: min(beta * v_gamma(q'), v_gamma(base)).
"""

from fractions import Fraction
from itertools import product
from math import floor, gcd


class CheckFailed(Exception):
    """An output disagrees with the reference computation."""


def require(condition, message):
    if not condition:
        raise CheckFailed(message)


def rat(text):
    """Parse the CLI's exact rationals; None for "infinity" and "-infinity"."""
    if text in ("infinity", "-infinity"):
        return None
    return Fraction(text)


def dot(gamma, m):
    return sum(g * e for g, e in zip(gamma, m))


def v_ideal(gamma, gens):
    return min(dot(gamma, m) for m in gens)


def v_den(gamma, den):
    kind = den[0]
    if kind in ("ideal", "pow"):
        return Fraction(v_ideal(gamma, den[1]))
    if kind == "val":
        alpha = den[1]
        return min(Fraction(g) / a for g, a in zip(gamma, alpha) if a > 0)
    if kind == "enl":
        _, base, gens, beta = den
        return min(beta * v_ideal(gamma, gens), v_den(gamma, base))
    raise ValueError(f"unknown denominator {kind!r}")


def ray_ratio(gamma, q, lam, qprime, den):
    """(sum(gamma) + v(q) + lam * v(q')) / den(gamma), or None if den = 0."""
    d = v_den(gamma, den)
    if d <= 0:
        return None
    num = sum(gamma) + v_ideal(gamma, q)
    if qprime is not None:
        num += lam * v_ideal(gamma, qprime)
    return Fraction(num) / d


# Box edge of the fixed ray sample per dimension: every primitive
# nonnegative integer vector with entries up to the edge.
_SAMPLE_EDGE = {1: 1, 2: 6, 3: 3, 4: 2}
_SAMPLES = {}


def sample_rays(n):
    if n not in _SAMPLES:
        edge = _SAMPLE_EDGE[n]
        rays = []
        for gamma in product(range(edge + 1), repeat=n):
            g = 0
            for c in gamma:
                g = gcd(g, c)
            if g == 1:
                rays.append(gamma)
        _SAMPLES[n] = tuple(rays)
    return _SAMPLES[n]


def check_lct(value, minimizers, q, lam, qprime, den, n):
    """The value is attained at each minimizer and beaten by no sample ray."""
    require(value is not None, "lct is infinite for a proper denominator")
    require(len(minimizers) > 0, "no minimizing ray reported")
    for ray in minimizers:
        r = ray_ratio(tuple(ray), q, lam, qprime, den)
        require(r == value, f"ratio {r} at minimizer {tuple(ray)} != {value}")
    for gamma in sample_rays(n):
        r = ray_ratio(gamma, q, lam, qprime, den)
        require(r is None or r >= value,
                f"sample ray {gamma} gives {r} < reported lct {value}")


def log_disc(alpha):
    return sum(alpha, Fraction(0))


def valseq_lct(alpha, q, lam=0, qprime=None):
    """lct(q, lam q'; ValSeq(alpha)) = A + v_alpha(q) + lam v_alpha(q')."""
    value = log_disc(alpha) + v_ideal(alpha, q)
    if qprime is not None:
        value += lam * v_ideal(alpha, qprime)
    return value


def safe_negative_bound(qprime):
    """1 / min over m' of ||m'||_inf: every lam > -bound keeps A + v(q)
    + lam v(q') positive, since v_gamma(q') <= ||m'||_inf * sum(gamma)."""
    return Fraction(1, min(max(m) for m in qprime))


# ---------------------------------------------------------------------------
# diagonal ideals a = (x_1^d_1, ..., x_n^d_n): closed forms


def diag_in_multiplier(beta, d, c):
    """x^beta in J(c a)  iff  sum (beta_i + 1) / d_i > c."""
    return sum(Fraction(b + 1, di) for b, di in zip(beta, d)) > c


def diag_multiplier(d, c):
    """Minimal generators of J(c * (x_i^d_i)), by direct enumeration."""
    n = len(d)
    c = Fraction(c)
    bounds = [floor(c * di) for di in d[:-1]]
    gens = set()
    for prefix in product(*(range(b + 1) for b in bounds)):
        rest = c - sum(Fraction(p + 1, di) for p, di in zip(prefix, d))
        last = max(0, floor(d[-1] * rest))
        beta = prefix + (last,)
        minimal = True
        for i in range(n - 1):
            if beta[i] > 0:
                lower = beta[:i] + (beta[i] - 1,) + beta[i + 1:]
                if diag_in_multiplier(lower, d, c):
                    minimal = False
                    break
        if minimal:
            gens.add(beta)
    return gens


def diag_threshold(q, d):
    """Jumping number of q against (x_i^d_i): min_m sum (m_i + 1) / d_i."""
    return min(sum(Fraction(e + 1, di) for e, di in zip(m, d)) for m in q)


def growth_entries(d, rays, ts):
    """(ray, t, lhs, rhs, slack) rows of the controlled-growth report."""
    ts = sorted(Fraction(t) for t in ts)
    top = ts[-1]
    values = {t: diag_multiplier(d, t) for t in ts}
    rows = []
    for ray in rays:
        v_top = Fraction(v_ideal(ray, values[top])) / top
        for t in ts:
            lhs = Fraction(v_ideal(ray, values[t])) / t
            rhs = v_top - Fraction(sum(ray)) / t
            rows.append((tuple(ray), t, lhs, rhs, lhs - rhs))
    return rows


# ---------------------------------------------------------------------------
# 2-dimensional valuative-tree paths: steps ((skewness, multiplicity), ...)


def tree_a_disc(steps, t):
    """A(t) = 2 + sum m_j (min(t, a_j) - a_{j-1}) over steps below t."""
    value, start = Fraction(2), Fraction(1)
    for skew, mult in steps:
        if t <= start:
            break
        value += mult * (min(t, skew) - start)
        start = skew
    return value


def tree_min_n(steps):
    """Least integer above max |m(t) t - A(t)|, which is constant per
    segment and equals -1 at the root."""
    gaps = [Fraction(-1)]
    for skew, mult in steps:
        gaps.append(mult * skew - tree_a_disc(steps, skew))
    return floor(max(abs(g) for g in gaps)) + 1


def tree_sigma(steps, n, t):
    target = steps[-1][0] if steps else Fraction(1)
    return (tree_a_disc(steps, t) + n) / t * target
