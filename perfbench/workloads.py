"""The four workloads, built round by round from seeded raw inputs.

A round is a fixed list of operation slots; only the drawn inputs change
between rounds and seeds, so every round attempts the same kinds of
operation in the same proportions.  Each ``Op`` calls one public vallab
function through its module attribute (looked up at call time, so the
traced mode sees its wrappers) and carries a check that runs after the
call, outside the timed region.
"""

import importlib
import io
import itertools
import json
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from fractions import Fraction

import vallab
from vallab import (EnlargedSeq, MonomialIdeal, PowersSeq, ValSeq,
                    WeightVector)

import corpus as C
from checks import (check_lct, diag_multiplier, diag_threshold,
                    growth_entries, log_disc, rat, ray_ratio, require,
                    safe_negative_bound, sample_rays, tree_a_disc, tree_min_n,
                    tree_sigma, v_ideal, valseq_lct)

J = vallab.jumping
O = vallab.oracle
T = vallab.tian
Z = vallab.zhou


@dataclass
class Op:
    kind: str
    dim: int
    call: object            # () -> result
    check: object           # (result, memo) -> None; raises CheckFailed
    deadline: float = None  # seconds; only the known-fault operation has one


class Context:
    """Per-run generator state: the denominators already handed out.

    It starts with the known-fault denominator, which every oracle round
    repeats, so no drawn denominator can find it in the Newton cache.
    """

    def __init__(self):
        self.used = {FAULT_D}

    def fresh(self, draw):
        """Draw until the result is new to this run (warm-up included).

        ``draw(widen)`` is told, in hundreds, how many draws came back
        used, so a long run widens its range instead of repeating inputs.
        """
        for tries in itertools.count():
            value = draw(tries // 100)
            if value not in self.used:
                self.used.add(value)
                return value


def ideal(gens):
    return MonomialIdeal.from_exponents(gens)


def finite(value):
    return value if vallab.is_finite(value) else None


def build_den(den):
    kind = den[0]
    if kind == "ideal":
        return ideal(den[1])
    if kind == "pow":
        return PowersSeq(ideal(den[1]))
    if kind == "val":
        return ValSeq(WeightVector.of(*den[1]))
    if kind == "enl":
        return EnlargedSeq(build_den(den[1]), ideal(den[2]), den[3])
    raise ValueError(kind)


# ---------------------------------------------------------------------------
# engine-lct


# Generator counts of a per dimension.  Every plane size is present, so
# that the cheap plane calls are about two thirds of a round and the
# median falls inside their cluster rather than at its edge.
ENGINE_SIZES = {2: (2, 3, 4, 5, 6, 7, 8), 3: (2, 5, 8), 4: (2, 4, 6)}


def lct_op(n, q, lam, qprime, den, relation=None):
    """lct_mixed (ideal) or lct_mixed_graded (sequence) with its checks.

    ``relation`` is (memo key, role): role "base" records the value,
    "equal" and "not_below" compare against the recorded base.
    """
    q_i = ideal(q)
    qp_i = ideal(qprime) if qprime is not None else None
    target = build_den(den)
    if den[0] == "ideal":
        def call():
            return J.lct_mixed(q_i, lam, qp_i, target)
    else:
        def call():
            return J.lct_mixed_graded(q_i, lam, qp_i, target)

    def check(result, memo):
        value = finite(result.value)
        check_lct(value, [r.direction for r in result.minimizing_rays],
                  q, lam, qprime, den, n)
        if den[0] == "val" and lam >= 0:
            require(value == valseq_lct(den[1], q, lam, qprime),
                    f"ValSeq lct {value} != A + v(q) + lam v(q')")
        if relation is not None:
            key, role = relation
            if role == "base":
                memo[key] = value
            elif role == "equal":
                require(value == memo[key],
                        f"PowersSeq lct {value} != ideal lct {memo[key]}")
            else:
                require(value >= memo[key],
                        f"enlarged lct {value} < base lct {memo[key]}")

    kind = "lct." + ("ideal" if den[0] == "ideal" else "graded")
    return Op(kind, n, call, check)


def engine_round(rng, ctx):
    ops = []
    for n, sizes in ENGINE_SIZES.items():
        for g in sizes:
            a = C.staircase(rng, n, g, degree=g + n)
            q, qp = C.small_ideal(rng, n), C.small_ideal(rng, n)
            key = ("pow", n, g)
            ops.append(lct_op(n, q, 0, None, ("ideal", a), (key, "base")))
            ops.append(lct_op(n, q, 0, None, ("pow", a), (key, "equal")))
            ops.append(lct_op(n, q, C.positive_lambda(rng), qp, ("ideal", a)))
            ops.append(lct_op(n, q, C.negative_lambda(rng, qp), qp,
                              ("ideal", a)))
        q, qp, qpp = (C.small_ideal(rng, n) for _ in range(3))
        alpha = C.weights(rng, n)
        ops.append(lct_op(n, q, C.positive_lambda(rng), qp, ("val", alpha)))
        ops.append(lct_op(n, q, C.negative_lambda(rng, qp), qp,
                          ("val", alpha)))
        beta = Fraction(rng.randint(1, 6), rng.randint(1, 3))
        key = ("enl-val", n)
        ops.append(lct_op(n, q, 0, None, ("val", alpha), (key, "base")))
        ops.append(lct_op(n, q, 0, None, ("enl", ("val", alpha), qpp, beta),
                          (key, "not_below")))
        a = C.staircase(rng, n, 3, degree=n + 2)
        key = ("enl-pow", n)
        ops.append(lct_op(n, q, 0, None, ("pow", a), (key, "base")))
        ops.append(lct_op(n, q, 0, None, ("enl", ("pow", a), qpp, beta),
                          (key, "not_below")))
    return ops


# ---------------------------------------------------------------------------
# oracle-lattice

# The known fault: the oracle materializes J(c a) over a lattice box of
# about 2 * 10^5 points per containment probe and then compares them
# pairwise, so this call does not finish.  Its inputs do not depend on
# the seed and it is attempted once per round, so its failures are a
# fixed share of every run.
FAULT_Q = ((300, 300, 300),)
FAULT_D = (2, 2, 2)
FAULT_VALUE = Fraction(903, 2)
FAULT_DEADLINE_S = 0.1

# (dimension, slots, exponent range of a diagonal denominator); the
# eight n = 3 slots put the median among operations of similar cost.
JN_SLOTS = ((2, 4, (2, 40)), (3, 8, (3, 9)))

# (dimension, exponent range of a diagonal denominator, coefficient range);
# the ranges are narrow because the cost grows with the square of the
# generator count.
MULT_SLOTS = (
    (2, (8, 14), (2, 4)),       # tens of generators
    (2, (45, 55), (5, 5)),      # about 250
    (2, (45, 55), (5, 5)),
    (2, (190, 210), (5, 5)),    # about 1,000
    (3, (3, 5), (2, 3)),        # tens
    (3, (5, 7), (3, 3)),        # about 150
)


def _diag(ctx, rng, n, lo, hi):
    return ctx.fresh(
        lambda widen: tuple(rng.randint(lo, hi + widen) for _ in range(n)))


def oracle_jn_diag(n, q, d):
    q_i, a_i = ideal(q), ideal(C.diagonal(d))

    def check(value, memo):
        require(value == diag_threshold(q, d),
                f"oracle jn {value} != closed form {diag_threshold(q, d)}")

    return Op("oracle.jn", n, lambda: O.jumping_number_oracle(q_i, a_i), check)


def oracle_jn_stair(n, q, a):
    q_i, a_i = ideal(q), ideal(a)

    def check(value, memo):
        engine = J.lct_mixed(q_i, 0, None, a_i).value
        require(value == engine, f"oracle jn {value} != engine lct {engine}")
        for gamma in sample_rays(n):
            r = ray_ratio(gamma, q, 0, None, ("ideal", a))
            require(r is None or value <= r,
                    f"sample ray {gamma} gives {r} < {value}")

    return Op("oracle.jn", n, lambda: O.jumping_number_oracle(q_i, a_i), check)


def oracle_mult(n, d, c):
    a_i = ideal(C.diagonal(d))

    def check(result, memo):
        got = set(result.ideal.generators)
        want = diag_multiplier(d, c)
        require(got == want, f"J({c} a) for a = diag{d}: {len(got)} "
                             f"generators, closed form has {len(want)}")

    return Op("oracle.multiplier", n, lambda: O.howald_multiplier(a_i, c),
              check)


def oracle_membership(n, q, d, lam):
    q_i, a_i = ideal(q), ideal(C.diagonal(d))
    expected = diag_threshold(q, d) > lam

    def check(answer, memo):
        require(answer == expected, f"membership {answer} != {expected}")

    return Op("oracle.membership", n,
              lambda: Z.asymptotic_membership(q_i, lam, a_i), check)


def oracle_growth(n, d, rays, ts):
    a_i = ideal(C.diagonal(d))
    ray_objs = [vallab.Ray(r) for r in rays]

    def check(report, memo):
        got = [(e.ray.direction, e.t, e.lhs, e.rhs, e.slack)
               for e in report.entries]
        require(got == growth_entries(d, rays, ts),
                "growth entries differ from the closed form")

    return Op("oracle.growth", n,
              lambda: O.controlled_growth_check(a_i, ray_objs, ts), check)


def oracle_fault():
    q_i, a_i = ideal(FAULT_Q), ideal(C.diagonal(FAULT_D))

    def check(value, memo):
        require(value == FAULT_VALUE, f"known-fault jn {value} != 903/2")

    return Op("oracle.fault", 3, lambda: O.jumping_number_oracle(q_i, a_i),
              check, deadline=FAULT_DEADLINE_S)


def oracle_round(rng, ctx):
    ops = []
    jn_diag = []
    for n, slots, (lo, hi) in JN_SLOTS:
        for _ in range(slots):
            d = _diag(ctx, rng, n, lo, hi)
            q = C.small_ideal(rng, n)
            jn_diag.append((n, q, d))
            ops.append(oracle_jn_diag(n, q, d))
        for _ in range(2):
            count = rng.randint(3, 6)
            a = ctx.fresh(lambda widen: C.staircase(rng, n, count,
                                                    count + 2 + widen))
            ops.append(oracle_jn_stair(n, C.small_ideal(rng, n), a))
    for n, (lo, hi), (clo, chi) in MULT_SLOTS:
        d = _diag(ctx, rng, n, lo, hi)
        c = Fraction(rng.randint(2 * clo, 2 * chi), 2)
        ops.append(oracle_mult(n, d, c))
    # Repeated denominators: membership and growth reuse a from the jn
    # slots above, so newton_polyhedron serves them from its cache.
    for n, q, d in jn_diag[::3]:
        lct = diag_threshold(q, d)
        lam = lct + Fraction(rng.choice((-1, 1)), rng.randint(2, 6))
        if lam <= 0:
            lam = lct / 2
        ops.append(oracle_membership(n, q, d, lam))
    for n, q, d in jn_diag[1::6]:
        rays = [r for r in sample_rays(n) if all(r)][:2]
        top = 8 if n == 2 else 4    # J(t a) at n = 3 grows like t^2
        ts = sorted({Fraction(rng.randint(1, top), 2) for _ in range(3)})
        ops.append(oracle_growth(n, d, rays, ts))
    ops.append(oracle_fault())
    return ops


# ---------------------------------------------------------------------------
# sequences-zhou


def _normalized(alpha, q):
    scale = log_disc(alpha) + v_ideal(alpha, q)
    return tuple(a / scale for a in alpha)


def seq_tian(n, q, qprime, den):
    q_i, qp_i, seq = ideal(q), ideal(qprime), build_den(den)

    def check(f, memo):
        slopes = [p.slope for p in f.pieces]
        require(all(s >= 0 for s in slopes), "Tian function decreases")
        require(all(a > b for a, b in zip(slopes, slopes[1:])),
                "Tian slopes not strictly decreasing (not concave)")
        for t in (Fraction(0), Fraction(1), Fraction(3)):
            value = f.value_at(t)
            if den[0] == "val":
                want = valseq_lct(den[1], q, t, qprime)
                require(value == want, f"Tian({t}) = {value} != {want}")
            for gamma in sample_rays(n):
                r = ray_ratio(gamma, q, t, qprime, den)
                require(r is None or value <= r,
                        f"Tian({t}) = {value} above ray {gamma} ({r})")

    return Op("tian.function", n, lambda: T.tian_function(q_i, qp_i, seq),
              check)


def seq_rescale(n, alpha, q):
    w, q_i = WeightVector.of(*alpha), ideal(q)
    scale = log_disc(alpha) + v_ideal(alpha, q)

    def check(cert, memo):
        require(cert.scale == scale, f"scale {cert.scale} != A + v(q)")
        require(cert.normalized.alpha == _normalized(alpha, q),
                "normalized weights != alpha / scale")
        require(cert.lct_check == 1, "normalized lct != 1")

    return Op("zhou.rescale", n, lambda: Z.zhou_rescale(w, q_i), check)


def seq_criterion(n, alpha, q):
    w, q_i = WeightVector.of(*_normalized(alpha, q)), ideal(q)

    def check(verdict, memo):
        require(verdict.passed, f"criterion fails for normalized alpha: "
                                f"{verdict.reason}")

    return Op("zhou.criterion", n,
              lambda: T.zhou_criterion(w, q_i, T.default_test_family(n)),
              check)


def seq_membership(n, alpha, q):
    w, q_i = WeightVector.of(*alpha), ideal(q)
    expected = valseq_lct(alpha, q) <= 1

    def check(member, memo):
        require(member == expected, f"val_membership {member} != {expected}")

    return Op("zhou.membership", n, lambda: Z.val_membership(w, q_i), check)


def seq_sandwich(n, alpha, q, k):
    w, q_i = WeightVector.of(*alpha), ideal(q)
    expected = log_disc(alpha) + k * v_ideal(alpha, q)

    def check(report, memo):
        require(report.gamma_k == expected,
                f"gamma({k}) = {report.gamma_k} != A + k v(q) = {expected}")

    return Op("zhou.sandwich", n, lambda: Z.power_sandwich(w, q_i, k), check)


def seq_transfer(n, alpha, q, lam, qprime, c):
    w, q_i, qp_i = WeightVector.of(*alpha), ideal(q), ideal(qprime)
    seq = ValSeq(WeightVector.of(*(c * a for a in alpha)))
    expected = valseq_lct(alpha, q, lam, qprime)

    def check(report, memo):
        require(report.equal, "transfer identity fails")
        require(report.lhs == expected, f"transfer lhs {report.lhs} != "
                                        f"A + v(q) + lam v(q')")

    return Op("jumping.transfer", n,
              lambda: J.compute_transfer_check(w, q_i, lam, qp_i, seq), check)


def seq_compare(n, a, b, graded):
    """(a*b, a) must be MORE_SINGULAR and (a, a*b) LESS_SINGULAR; for
    sequences ``a`` and ``b`` are already the two sides."""
    if graded:
        left, right = build_den(a), build_den(b)
        fn = "singularity_compare_graded"
    else:
        left, right = ideal(C.product_gens(a, b)), ideal(a)
        fn = "singularity_compare"

    def op(x, y, want):
        def check(result, memo):
            require(result.order.value == want,
                    f"{fn} gives {result.order.value}, expected {want}")
        return Op("zhou.compare", n, lambda: getattr(Z, fn)(x, y), check)

    return [op(left, right, "MORE_SINGULAR"), op(right, left, "LESS_SINGULAR")]


def sequences_round(rng, ctx):
    ops = []
    for n in (2, 3):
        q, qp = C.small_ideal(rng, n), C.small_ideal(rng, n)
        alpha = C.weights(rng, n)
        ops.append(seq_tian(n, q, qp, ("val", alpha)))
        ops.append(seq_tian(n, q, qp, ("pow", C.staircase(rng, n, 3))))
        ops.append(seq_rescale(n, alpha, q))
        ops.append(seq_criterion(n, alpha, q))
        ops.append(seq_membership(n, alpha, q))
        ops.append(seq_membership(n, _normalized(alpha, q), q))
        q2 = C.small_ideal(rng, n, max_gens=5 - n)
        ops.append(seq_sandwich(n, alpha, q2, rng.randint(1, 10)))
        lam = C.positive_lambda(rng)
        c = Fraction(rng.randint(1, 5), rng.randint(1, 5))
        ops.append(seq_transfer(n, alpha, q, lam, qp, c))
        a = C.staircase(rng, n, rng.randint(2, 4))
        ops += seq_compare(n, a, C.small_ideal(rng, n), graded=False)
        scale = Fraction(rng.randint(4, 9), rng.randint(1, 3))
        ops += seq_compare(n, ("val", alpha),
                           ("val", tuple(scale * x for x in alpha)),
                           graded=True)
    return ops


# ---------------------------------------------------------------------------
# cli-readme


def cli_op(kind, dim, argv, check, dim_flag=False):
    """``dim_flag`` passes --dim, which seeded inputs need: an ideal that
    happens not to use its last variable would otherwise shrink the
    ambient dimension."""
    cli = importlib.import_module("vallab.cli")
    if dim_flag:
        argv = ["--dim", str(dim)] + argv

    def call():
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            status = cli.run(argv)
        return status, out.getvalue(), err.getvalue()

    def full_check(result, memo):
        status, out, err = result
        require(status == 0, f"vallab {' '.join(argv)} exited {status}: {err}")
        check(out if kind == "tian-tsv" else json.loads(out))

    return Op("cli." + kind, dim, call, full_check)


def cli_lct(q, den, lam=0, qprime=None, dim_flag=False):
    n = len(q[0])
    argv = ["lct", "--q", C.ideal_text(q)]
    if qprime is not None:
        argv += ["--qprime", C.ideal_text(qprime)]
    if lam != 0:
        argv.append(f"--lambda={C.rat_text(lam)}")
    if den[0] == "ideal":
        argv += ["--a", C.ideal_text(den[1])]
    else:
        argv += ["--seq", _seq_text(den)]

    def check(doc):
        value = rat(doc["value"])
        check_lct(value, doc["rays"], q, lam, qprime, den, n)
        if "oracle" in doc:
            require(rat(doc["oracle"]) == value, "oracle field != value")
        if den[0] == "val" and lam >= 0:
            require(value == valseq_lct(den[1], q, lam, qprime),
                    "ValSeq lct != closed form")

    return cli_op("lct", n, argv, check, dim_flag)


def _seq_text(den):
    if den[0] == "val":
        return "val:" + C.weights_text(den[1])
    if den[0] == "pow":
        return "pow:" + C.ideal_text(den[1])
    return (f"enl:{_seq_text(den[1])};{C.ideal_text(den[2])};"
            f"{C.rat_text(den[3])}")


def _tsv_value(text, t):
    rows = [line.split("\t") for line in text.strip().split("\n")[1:]]
    start, value, slope = rows[0]
    for row in rows:
        if row[0] != "-infinity" and Fraction(row[0]) <= t:
            start, value, slope = row
    return Fraction(value) + Fraction(slope) * (t - Fraction(start))


def cli_tian(q, qprime, alpha, tsv):
    argv = ["tian", "--q", C.ideal_text(q), "--qprime", C.ideal_text(qprime),
            "--seq", "val:" + C.weights_text(alpha)]
    if tsv:
        argv += ["--format", "tsv"]

    def check(doc):
        for t in (Fraction(0), Fraction(1), Fraction(5, 2)):
            want = valseq_lct(alpha, q, t, qprime)
            if tsv:
                got = _tsv_value(doc, t)
            else:
                piece = [p for p in doc["pieces"] if rat(p["start"]) is None
                         or rat(p["start"]) <= t][-1]
                got = rat(piece["slope"]) * t + rat(piece["intercept"])
            require(got == want, f"Tian({t}) = {got} != {want}")

    return cli_op("tian-tsv" if tsv else "tian", len(alpha), argv, check)


def cli_zhou(sub, alpha, q):
    argv = ["zhou", sub, "--alpha", C.weights_text(alpha),
            "--q", C.ideal_text(q)]
    lct = valseq_lct(alpha, q)

    def check(doc):
        if sub == "rescale":
            require(rat(doc["scale"]) == lct, "scale != A + v(q)")
            require(tuple(map(rat, doc["normalized"])) ==
                    _normalized(alpha, q), "normalized != alpha / scale")
        elif sub == "test":
            require(doc["verdict"] == ("PASS" if lct == 1 else "FAIL"),
                    f"verdict {doc['verdict']} with lct {lct}")
        else:
            require(doc["member"] == (lct <= 1), "membership != (lct <= 1)")

    return cli_op("zhou-" + sub, len(alpha), argv, check)


def cli_compare(a, aprime, want, dim_flag=False):
    argv = ["compare", "--a", C.ideal_text(a),
            "--aprime", C.ideal_text(aprime)]

    def check(doc):
        require(doc["order"] == want, f"order {doc['order']} != {want}")

    return cli_op("compare", len(a[0]), argv, check, dim_flag)


def cli_enlarge(q, qprime, alpha, beta):
    argv = ["enlarge-check", "--q", C.ideal_text(q), "--qprime",
            C.ideal_text(qprime), "--seq", "val:" + C.weights_text(alpha),
            "--beta", C.rat_text(beta)]
    threshold = 1 / Fraction(v_ideal(alpha, qprime))
    seq_value = min(beta * v_ideal(alpha, qprime), 1)

    def check(doc):
        require(rat(doc["threshold"]) == threshold, "threshold != 1 / v(q')")
        require(doc["beta_at_least_threshold"] == (beta >= threshold),
                "threshold comparison wrong")
        require(rat(doc["seq_value"]) == seq_value, "seq_value wrong")
        if beta >= threshold:
            require(rat(doc["lct"]) == valseq_lct(alpha, q),
                    "enlarged lct != base lct above the threshold")

    return cli_op("enlarge-check", len(alpha), argv, check)


def cli_tree(sub, path, t=None, n=None, samples=None):
    argv = ["tree", sub, "--seq", C.path_text(path)]
    if sub == "a-disc":
        argv += ["--t", C.rat_text(t)]
    if sub == "sigma":
        argv += ["--n", C.rat_text(n), "--samples",
                 ",".join(C.rat_text(s) for s in samples)]

    def check(doc):
        if sub == "a-disc":
            require(rat(doc["A"]) == tree_a_disc(path, t), "A(t) wrong")
        elif sub == "min-n":
            require(doc["N"] == tree_min_n(path), "least N wrong")
            require(doc["sigma_decreasing_at_N"], "N does not certify")
        elif sub == "zv1":
            require(doc["member"] == (path[-1][1] == 1), "ZV(1) wrong")
        else:
            got = [(rat(a), rat(b)) for a, b in doc["profile"]]
            want = [(s, tree_sigma(path, n, s)) for s in samples]
            require(got == want, "sigma profile wrong")

    return cli_op("tree-" + sub, 2, argv, check)


def cli_oracle_jn(q, d):
    argv = ["oracle", "jn", "--q", C.ideal_text(q),
            "--a", C.ideal_text(C.diagonal(d))]

    def check(doc):
        require(rat(doc["value"]) == diag_threshold(q, d), "oracle jn wrong")

    return cli_op("oracle-jn", len(d), argv, check)


def cli_oracle_mult(d, c):
    argv = ["oracle", "mult", "--a", C.ideal_text(C.diagonal(d)),
            "--c", C.rat_text(c)]

    def check(doc):
        got = {tuple(g) for g in doc["generators"]}
        require(got == diag_multiplier(d, c), "multiplier generators wrong")

    return cli_op("oracle-mult", len(d), argv, check)


def cli_oracle_growth(d, rays, ts):
    argv = ["oracle", "growth", "--a", C.ideal_text(C.diagonal(d)),
            "--rays", ";".join(",".join(map(str, r)) for r in rays),
            "--t-values", ",".join(C.rat_text(t) for t in ts)]

    def check(doc):
        got = [(tuple(e["ray"]), rat(e["t"]), rat(e["lhs"]), rat(e["rhs"]),
                rat(e["slack"])) for e in doc["entries"]]
        require(got == growth_entries(d, rays, ts), "growth entries wrong")

    return cli_op("oracle-growth", len(d), argv, check)


def cli_sandwich(alpha, q, k):
    argv = ["sandwich", "--alpha", C.weights_text(alpha), "--q",
            C.ideal_text(q), "--k", str(k)]
    gamma_k = log_disc(alpha) + k * v_ideal(alpha, q)

    def check(doc):
        require(rat(doc["gamma_k"]) == gamma_k, "gamma_k != A + k v(q)")
        require(doc["holds"] and doc["upper_is_equality"], "sandwich flags")

    return cli_op("sandwich", len(alpha), argv, check)


F = Fraction
X, Y = ((1, 0),), ((0, 1),)


def readme_ops():
    """Every CLI example of the top-level README, in its order."""
    val = (F(3, 8), F(1, 4))
    return [
        cli_lct(X, ("ideal", C.diagonal((2, 3)))),
        cli_lct(X, ("ideal", C.diagonal((2, 3))), F(-1, 4), Y),
        cli_lct(X, ("enl", ("val", val), Y, F(4)), 0),
        cli_tian(X, Y, val, tsv=True),
        cli_zhou("rescale", (F(1, 2), F(1, 3)), X),
        cli_zhou("test", val, X),
        cli_zhou("membership", val, X),
        cli_compare(C.diagonal((2, 2)), C.diagonal((1, 1)), "MORE_SINGULAR"),
        cli_enlarge(X, Y, val, F(4)),
        cli_tree("a-disc", ((F(3, 2), 1), (F(2), 2)), t=F(2)),
        cli_tree("min-n", ((F(3, 2), 1), (F(2), 2))),
        cli_tree("zv1", ((F(3, 2), 1),)),
        cli_tree("sigma", ((F(2), 1),), n=F(0),
                 samples=(F(1), F(3, 2), F(2))),
        cli_oracle_jn(X, (2, 3)),
        cli_oracle_mult((2, 3), F(5, 6)),
        cli_oracle_growth((2, 3), [(3, 2)], (F(1), F(2), F(3), F(6))),
        cli_sandwich((F(1, 2), F(1, 3)), X, 5),
    ]


def cli_round(rng, ctx):
    ops = readme_ops()
    for n in (2, 3):
        q, qp = C.small_ideal(rng, n), C.small_ideal(rng, n)
        d = tuple(rng.randint(2, 7) for _ in range(n))
        alpha = C.weights(rng, n)
        ops.append(cli_lct(q, ("ideal", C.diagonal(d)), dim_flag=True))
        ops.append(cli_lct(q, ("ideal", C.staircase(rng, n, 3)),
                           C.positive_lambda(rng), qp, dim_flag=True))
        lam = -safe_negative_bound(qp) / 2
        ops.append(cli_lct(q, ("val", alpha), lam, qp, dim_flag=True))
        ops.append(cli_tian(q, qp, alpha, tsv=(n == 3)))
        a = C.staircase(rng, n, 2)
        ops.append(cli_compare(C.product_gens(a, C.small_ideal(rng, n)), a,
                               "MORE_SINGULAR", dim_flag=True))
        ops.append(cli_compare(a, a, "EQUAL", dim_flag=True))
    path = C.tree_path(rng, rng.randint(1, 3))
    target = path[-1][0]
    ops.append(cli_tree("a-disc", path, t=(1 + target) / 2))
    ops.append(cli_tree("min-n", path))
    ops.append(cli_tree("zv1", path))
    ops.append(cli_tree("sigma", path, n=F(rng.randint(0, 3)),
                        samples=(F(1), (1 + target) / 2, target)))
    return ops


WORKLOADS = {
    "engine-lct": engine_round,
    "oracle-lattice": oracle_round,
    "sequences-zhou": sequences_round,
    "cli-readme": cli_round,
}
