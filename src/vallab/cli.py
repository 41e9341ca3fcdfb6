"""Command-line front end.

Parses monomial ideals, weight vectors, and sequence descriptors, runs
one engine command, and emits a JSON document (or TSV for Tian-function
plot data) with every rational serialized exactly as "p/q".  Exit
status: 0 success, 2 parse error, 3 domain error (the violated
predicate is named on stderr), 4 internal cross-check failure, which is
always a bug.

Sequence descriptors:  pow:<ideal> | val:<weights> | enl:<seq>;<ideal>;<beta>
Approximation paths:   alpha:mult,alpha:mult,...  (e.g. "3/2:1,2:2")
Ideals:                "x^2, y^3", "x*y", "1"; variables x,y,z for
                       dimension <= 3, x1..xn beyond; "-" reads stdin.
"""

import argparse
import json
import re
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache

from .config import require_within_cap
from .errors import (CrossCheckError, DimensionMismatchError,
                     MixedVariableSetsError, ParseError, VallabError)
from .geometry import Ray
from .ideals import MonomialIdeal, WeightVector, monomial_str, variable_names
from .jumping import lct_mixed, lct_mixed_graded
from .oracle import (controlled_growth_check, howald_multiplier,
                     jumping_number_oracle)
from .scalars import as_rat, format_rat
from .tian import default_test_family, slope_report, tian_function, \
    zhou_criterion
from .tree2d import (ApproxSeq2D, a_disc_2d, min_zhou_N, sigma_profile,
                     zv1_member)
from .valuations import EnlargedSeq, PowersSeq, ValSeq, value_on_graded, \
    value_on_ideal
from .zhou import (power_sandwich, singularity_compare, val_membership,
                   zhou_rescale)

_FACTOR_RE = re.compile(r"([a-zA-Z])(\d*)(?:\^(-?\d+))?\Z")


def _scan_monomial(term, base_offset):
    """One monomial -> sparse {index: exponent} plus its variable style."""
    sparse = {}
    style = None
    pos = 0
    for factor in term.split("*"):
        stripped = factor.strip()
        offset = base_offset + pos + factor.index(stripped) if stripped else \
            base_offset + pos
        pos += len(factor) + 1
        if not stripped:
            raise ParseError(f"empty factor at byte {offset}", offset)
        if stripped == "1":
            continue
        match = _FACTOR_RE.match(stripped)
        if not match:
            raise ParseError(f"cannot parse factor {stripped!r} at byte "
                             f"{offset}", offset)
        letter, digits, exponent = match.groups()
        exponent = int(exponent) if exponent is not None else 1
        if exponent < 0:
            raise ParseError(f"negative exponent in {stripped!r} at byte "
                             f"{offset}", offset)
        if digits:
            if letter != "x":
                raise ParseError(f"indexed variables are x1..xn, got "
                                 f"{stripped!r} at byte {offset}", offset)
            index, this_style = int(digits) - 1, "indexed"
            if index < 0:
                raise ParseError(f"variable index starts at 1 at byte "
                                 f"{offset}", offset)
        else:
            if letter not in "xyz":
                raise ParseError(f"named variables are x, y, z, got "
                                 f"{stripped!r} at byte {offset}", offset)
            index, this_style = "xyz".index(letter), "named"
        if style is None:
            style = this_style
        elif style != this_style:
            raise MixedVariableSetsError(
                f"mixed named and indexed variables at byte {offset}", offset)
        sparse[index] = sparse.get(index, 0) + exponent
    return sparse, style


def scan_ideal(text):
    """All monomials of an ideal string -> (sparse list, needed dim, style)."""
    if not text.strip():
        raise ParseError("empty ideal text", 0)
    monomials = []
    style = None
    offset = 0
    for term in text.split(","):
        if not term.strip():
            raise ParseError(f"empty monomial at byte {offset}", offset)
        sparse, term_style = _scan_monomial(term, offset)
        offset += len(term) + 1
        if term_style is not None:
            if style is None:
                style = term_style
            elif style != term_style:
                raise MixedVariableSetsError(
                    "mixed named and indexed variables between monomials")
        monomials.append(sparse)
    needed = 1 + max((i for m in monomials for i in m), default=-1)
    return monomials, max(needed, 1), style


def parse_ideal(text, dim=None) -> MonomialIdeal:
    """Parse a comma-separated monomial list into a minimal antichain."""
    monomials, needed, _ = scan_ideal(text)
    if dim is None:
        dim = needed
    elif dim < needed:
        raise DimensionMismatchError(
            f"ideal {text!r} needs dimension {needed}, got --dim {dim}")
    gens = []
    for sparse in monomials:
        beta = [0] * dim
        for i, e in sparse.items():
            beta[i] = e
        gens.append(tuple(beta))
    return MonomialIdeal.from_exponents(gens, dim)


def parse_weights(text, dim=None) -> WeightVector:
    try:
        parts = [as_rat(p.strip()) for p in text.split(",")]
        if dim is not None and len(parts) != dim:
            raise DimensionMismatchError(
                f"weight vector {text!r} has {len(parts)} entries, "
                f"expected {dim}")
        return WeightVector.of(*parts)
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"bad weight vector {text!r}: {exc}") from exc


def scan_seq(text):
    """Dimension requirements of a sequence descriptor: (ideal texts, dims)."""
    if text.startswith("pow:"):
        return [text[4:]], []
    if text.startswith("val:"):
        return [], [len(text[4:].split(","))]
    if text.startswith("enl:"):
        try:
            inner, ideal_text, _beta = text[4:].rsplit(";", 2)
        except ValueError as exc:
            raise ParseError(f"enl: descriptor needs <seq>;<ideal>;<beta>, "
                             f"got {text!r}") from exc
        ideals, dims = scan_seq(inner)
        return ideals + [ideal_text], dims
    raise ParseError(f"unknown sequence descriptor {text!r} (use pow:, "
                     f"val:, or enl:)")


def parse_seq(text, dim):
    if text.startswith("pow:"):
        return PowersSeq(parse_ideal(text[4:], dim).require_nonzero(
            "power-sequence base"))
    if text.startswith("val:"):
        return ValSeq(parse_weights(text[4:], dim))
    if text.startswith("enl:"):
        inner, ideal_text, beta_text = text[4:].rsplit(";", 2)
        beta = parse_rational(beta_text, "enlargement rate")
        return EnlargedSeq(parse_seq(inner, dim), parse_ideal(ideal_text, dim),
                           beta)
    raise ParseError(f"unknown sequence descriptor {text!r}")


def parse_path(text) -> ApproxSeq2D:
    """Approximation sequence "alpha:mult,..."; empty string is the root."""
    text = text.strip()
    if not text or text == "root":
        return ApproxSeq2D.of(())
    pairs = []
    for chunk in text.split(","):
        try:
            alpha, mult = chunk.split(":")
            pairs.append((as_rat(alpha.strip()), int(mult)))
        except (ValueError, ZeroDivisionError) as exc:
            raise ParseError(f"bad path step {chunk!r} (want alpha:mult)") \
                from exc
    try:
        return ApproxSeq2D.of(pairs)
    except ValueError as exc:
        raise ParseError(f"invalid approximation sequence: {exc}") from exc


def parse_rational(text, what="value"):
    try:
        return as_rat(str(text).strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"bad {what} {text!r}") from exc


# ---------------------------------------------------------------------------
# problem assembly


@dataclass
class ProblemSpec:
    """Resolved inputs of one invocation, dimension-consistent."""

    command: str
    dim: int = 0
    ideals: dict = field(default_factory=dict)
    weights: dict = field(default_factory=dict)
    seqs: dict = field(default_factory=dict)
    params: dict = field(default_factory=dict)


def _read_text(value):
    if value == "-":
        return sys.stdin.read().strip()
    return value


def build_problem(command, ideal_args, weight_args, seq_args, params,
                  dim_flag=None) -> ProblemSpec:
    """Parse all inputs against one shared ambient dimension.

    That dimension is ``dim_flag`` when given, and an input that needs a
    larger one raises DimensionMismatchError; otherwise it is the largest
    dimension any input needs.  It is checked against the dimension cap
    before any exponent vector is built: scanning makes sparse dicts only.
    """
    if dim_flag is not None and dim_flag < 1:
        raise ParseError(f"--dim must be at least 1, got {dim_flag}")
    ideal_texts = {name: _read_text(text) for name, text in ideal_args.items()}
    seq_texts = {name: _read_text(text) for name, text in seq_args.items()}

    needed = []
    for text in ideal_texts.values():
        needed.append(scan_ideal(text)[1])
    for text in seq_texts.values():
        ideals, dims = scan_seq(text)
        needed.extend(scan_ideal(t)[1] for t in ideals)
        needed.extend(dims)
    for text in weight_args.values():
        needed.append(len(text.split(",")))
    dim = dim_flag or max(needed, default=1)
    require_within_cap(dim)

    spec = ProblemSpec(command, dim=dim, params=dict(params))
    for name, text in ideal_texts.items():
        spec.ideals[name] = parse_ideal(text, dim)
    for name, text in weight_args.items():
        spec.weights[name] = parse_weights(text, dim)
    for name, text in seq_texts.items():
        spec.seqs[name] = parse_seq(text, dim)
    return spec


# ---------------------------------------------------------------------------
# serialization


def _ray_json(ray: Ray):
    return list(ray.direction)


def _format_maybe(value):
    if value is None:
        return "-infinity"
    return format_rat(value)


def _lct_json(result):
    doc = {
        "value": format_rat(result.value),
        "rays": [_ray_json(r) for r in result.minimizing_rays],
        "lambda": format_rat(result.lam),
        "certificates": {
            str(ray): {
                "A": format_rat(cert.log_disc),
                "vq": format_rat(cert.vq),
                "vqprime": format_rat(cert.vqprime),
                "va": format_rat(cert.va),
            }
            for ray, cert in sorted(result.certificates.items())
            if ray in result.minimizing_rays
        },
    }
    if result.lambda_bound is not None:
        doc["lambda_bound"] = format_rat(-result.lambda_bound)
    return doc


def _tian_json(f):
    return {
        "domain_min": _format_maybe(f.domain_min),
        "pieces": [
            {
                "start": _format_maybe(p.start),
                "slope": format_rat(p.slope),
                "intercept": format_rat(p.intercept),
            }
            for p in f.pieces
        ],
    }


def _tian_tsv(f):
    """One (t, value, slope) row per piece, from the start of each piece."""
    rows = ["t\tvalue\tslope"]
    for piece in f.pieces:
        slope = format_rat(piece.slope)
        if piece.start is None:  # first piece of an unbounded domain
            left = "-infinity" if piece.slope > 0 else \
                format_rat(piece.intercept)
            rows.append(f"-infinity\t{left}\t{slope}")
        else:
            rows.append(f"{format_rat(piece.start)}\t"
                        f"{format_rat(piece.value(piece.start))}\t{slope}")
    return "\n".join(rows) + "\n"


# ---------------------------------------------------------------------------
# command handlers: ProblemSpec -> JSON document or raw text


def _cmd_lct(spec):
    q = spec.ideals["q"]
    lam = spec.params["lam"]
    qprime = spec.ideals.get("qprime")
    if "a" in spec.ideals:
        result = lct_mixed(q, lam, qprime, spec.ideals["a"])
        doc = _lct_json(result)
        if lam == 0:
            oracle_value = jumping_number_oracle(q, spec.ideals["a"])
            if oracle_value != result.value:
                raise CrossCheckError(
                    f"engine value {result.value} != oracle value "
                    f"{oracle_value}")
            doc["oracle"] = format_rat(oracle_value)
        return doc
    result = lct_mixed_graded(q, lam, qprime, spec.seqs["seq"])
    return _lct_json(result)


def _cmd_tian(spec):
    f = tian_function(spec.ideals["q"], spec.ideals["qprime"],
                      spec.seqs["seq"])
    if spec.params["format"] == "tsv":
        return _tian_tsv(f)
    doc = _tian_json(f)
    if f.domain_min is None or f.domain_min < 0:
        left, right, final = slope_report(f)
        doc["slopes_at_zero"] = [format_rat(left), format_rat(right)]
        doc["slope_at_infinity"] = format_rat(final)
    return doc


def _cmd_zhou_rescale(spec):
    cert = zhou_rescale(spec.weights["alpha"], spec.ideals["q"])
    return {
        "scale": format_rat(cert.scale),
        "normalized": [format_rat(a) for a in cert.normalized.alpha],
        "lct_check": format_rat(cert.lct_check),
        "log_discrepancy": format_rat(cert.discrepancy_identity[0]),
        "one_minus_vq": format_rat(cert.discrepancy_identity[1]),
        "unique_minimizer": not cert.nonproportional_minimizers,
    }


def _cmd_zhou_test(spec):
    q = spec.ideals["q"]
    family_text = spec.params.get("family")
    if family_text:
        family = [parse_ideal(t.strip(), spec.dim)
                  for t in family_text.split(";")]
    else:
        family = default_test_family(spec.dim)
    verdict = zhou_criterion(spec.weights["alpha"], q, family)
    return {
        "verdict": "PASS" if verdict.passed else "FAIL",
        "reason": verdict.reason,
        "failing_family_member": verdict.failing_index,
        "note": verdict.note,
    }


def _cmd_zhou_membership(spec):
    member = val_membership(spec.weights["alpha"], spec.ideals["q"])
    return {"member": member}


def _cmd_compare(spec):
    result = singularity_compare(spec.ideals["a"], spec.ideals["aprime"])
    return {
        "order": result.order.value,
        "witnesses": [_ray_json(r) for r in result.witnesses],
    }


def _cmd_enlarge_check(spec):
    base = spec.seqs["seq"]
    if not isinstance(base, ValSeq):
        raise ParseError("enlarge-check needs a val: base sequence")
    qprime = spec.ideals["qprime"]
    beta = spec.params["beta"]
    enlarged = EnlargedSeq(base, qprime, beta)
    result = lct_mixed_graded(spec.ideals["q"], 0, None, enlarged)
    vqprime = value_on_ideal(base.alpha, qprime)
    doc = {
        "beta": format_rat(beta),
        "lct": format_rat(result.value),
        "rays": [_ray_json(r) for r in result.minimizing_rays],
        "seq_value": format_rat(value_on_graded(base.alpha, enlarged)),
    }
    if vqprime > 0:
        doc["threshold"] = format_rat(Fraction(1) / vqprime)
        doc["beta_at_least_threshold"] = beta >= Fraction(1) / vqprime
    else:
        doc["threshold"] = "infinity"
        doc["beta_at_least_threshold"] = False
    return doc


def _cmd_tree_a_disc(spec):
    value = a_disc_2d(spec.params["seq"], spec.params["t"])
    return {"t": format_rat(spec.params["t"]), "A": format_rat(value)}


def _cmd_tree_min_n(spec):
    bound = min_zhou_N(spec.params["seq"])
    return {
        "N": bound.n_min,
        "max_gap": format_rat(bound.max_gap),
        "segment_gaps": [
            {"from": format_rat(a), "to": format_rat(b), "gap": format_rat(g)}
            for a, b, g in bound.gaps
        ],
        "sigma_decreasing_at_N": bound.certifies(bound.n_min),
    }


def _cmd_tree_zv1(spec):
    return {"member": zv1_member(spec.params["seq"])}


def _cmd_tree_sigma(spec):
    profile = sigma_profile(spec.params["seq"], spec.params["n"],
                            spec.params["samples"])
    return {
        "N": format_rat(spec.params["n"]),
        "profile": [[format_rat(t), format_rat(s)] for t, s in profile],
    }


def _cmd_oracle_jn(spec):
    value = jumping_number_oracle(spec.ideals["q"], spec.ideals["a"])
    return {"value": format_rat(value)}


def _cmd_oracle_mult(spec):
    result = howald_multiplier(spec.ideals["a"], spec.params["c"])
    return {
        "c": format_rat(result.coefficient),
        "ideal": str(result.ideal),
        "generators": [list(g) for g in result.ideal.generators],
        "witness": {
            monomial_str(g, variable_names(result.ideal.dim)):
                [format_rat(s) for s in slacks]
            for g, slacks in sorted(result.witness.items())
        },
    }


def _cmd_oracle_growth(spec):
    try:
        vectors = [tuple(int(c) for c in chunk.split(","))
                   for chunk in spec.params["rays"].split(";")]
    except ValueError as exc:
        raise ParseError(f"bad --rays {spec.params['rays']!r} (want integer "
                         f"rays like '3,2;1,1')") from exc
    rays = [Ray.from_vector(v) for v in vectors]
    report = controlled_growth_check(spec.ideals["a"], rays,
                                     spec.params["t_values"])
    return {
        "all_positive": report.all_positive,
        "entries": [
            {
                "ray": _ray_json(e.ray),
                "t": format_rat(e.t),
                "lhs": format_rat(e.lhs),
                "rhs": format_rat(e.rhs),
                "slack": format_rat(e.slack),
            }
            for e in report.entries
        ],
    }


def _cmd_sandwich(spec):
    report = power_sandwich(spec.weights["alpha"], spec.ideals["q"],
                            spec.params["k"])
    return {
        "k": report.k,
        "gamma_k": format_rat(report.gamma_k),
        "lower": format_rat(report.lower),
        "ratio": format_rat(report.gamma_k / report.k),
        "upper": format_rat(report.upper),
        "holds": report.holds,
        "upper_is_equality": report.upper_is_equality,
    }


# ---------------------------------------------------------------------------
# the command table


def _absent_if_empty(text):
    """An empty --qprime means no mixing ideal."""
    return text or None


_Q = ("--q", "ideal", {})
_A = ("--a", "ideal", {})
_QPRIME = ("--qprime", "ideal", {})
_SEQ = ("--seq", "seq", {})
_ALPHA = ("--alpha", "weights", {})
_PATH = ("--seq", "path", {})

# name: (help text, handler, flags...), one entry per (sub)command.  An
# entry without a handler is a group: "zhou" is the parent of
# "zhou-rescale", whose argv spelling is "zhou rescale".
#
# A flag is (name, kind, argparse options); a list of flags is a required
# mutually exclusive group.  A flag is required unless its options give a
# default.  The kind says where a given value goes: "ideal", "weights" and
# "seq" are parsed by build_problem against one shared dimension;
# "rational:<noun>" and "rationals:<noun>" (a comma list) become exact
# parameters, the noun naming the value in a parse error; "path" is an
# approximation path and "raw" is passed through as argparse left it.
_COMMANDS = {
    "lct": ("mixed jumping number", _cmd_lct, _Q,
            ("--qprime", "ideal", {"default": None, "type": _absent_if_empty}),
            ("--lambda", "rational:lambda", {"dest": "lam", "default": "0"}),
            [_A, _SEQ]),
    "tian": ("Tian function as exact PL data", _cmd_tian, _Q, _QPRIME, _SEQ,
             ("--format", "raw", {"choices": ["json", "tsv"],
                                  "default": "json"})),
    "zhou": ("Zhou-valuation certificates", None),
    "zhou-rescale": (None, _cmd_zhou_rescale, _ALPHA, _Q),
    "zhou-test": (None, _cmd_zhou_test, _ALPHA, _Q,
                  ("--family", "raw", {"default": None,
                                       "help": "semicolon-separated ideals"})),
    "zhou-membership": (None, _cmd_zhou_membership, _ALPHA, _Q),
    "compare": ("singularity order of two ideals", _cmd_compare, _A,
                ("--aprime", "ideal", {})),
    "enlarge-check": ("enlarged-sequence threshold", _cmd_enlarge_check,
                      _Q, _QPRIME, _SEQ, ("--beta", "rational:beta", {})),
    "tree": ("2-dim valuative-tree quantities", None),
    "tree-a-disc": (None, _cmd_tree_a_disc, _PATH,
                    ("--t", "rational:skewness", {})),
    "tree-min-n": (None, _cmd_tree_min_n, _PATH),
    "tree-zv1": (None, _cmd_tree_zv1, _PATH),
    "tree-sigma": (None, _cmd_tree_sigma, _PATH, ("--n", "rational:N", {}),
                   ("--samples", "rationals:sample", {})),
    "oracle": ("independent multiplier-ideal oracle", None),
    "oracle-jn": (None, _cmd_oracle_jn, _Q, _A),
    "oracle-mult": (None, _cmd_oracle_mult, _A,
                    ("--c", "rational:coefficient", {})),
    "oracle-growth": (None, _cmd_oracle_growth, _A,
                      ("--rays", "raw", {"help": "semicolon-separated "
                                         "integer rays, e.g. '3,2;1,1'"}),
                      ("--t-values", "rationals:t", {})),
    "sandwich": ("q-power approximation bound", _cmd_sandwich, _ALPHA, _Q,
                 ("--k", "raw", {"type": int})),
}


def _members(flag):
    return flag if isinstance(flag, list) else [flag]


# ---------------------------------------------------------------------------
# argument parsing and dispatch


@cache
def build_parser():
    """The argparse tree of the command table, built once per process."""
    parser = argparse.ArgumentParser(
        prog="vallab",
        description="Exact jumping numbers, Tian functions, and Zhou "
                    "certificates for monomial ideals.")
    parser.add_argument("--dim", type=int, default=None,
                        help="ambient dimension override")
    subparsers = {"": parser.add_subparsers(dest="command", required=True)}
    for name, (help_text, handler, *flags) in _COMMANDS.items():
        group, _, leaf = name.partition("-")
        if group not in subparsers:
            group, leaf = "", name
        p = subparsers[group].add_parser(
            leaf, **({"help": help_text} if help_text else {}))
        if handler is None:
            subparsers[name] = p.add_subparsers(dest=f"{name}_command",
                                                required=True)
            continue
        p.set_defaults(spec_command=name)
        for flag in flags:
            exclusive = isinstance(flag, list)
            target = p.add_mutually_exclusive_group(required=True) \
                if exclusive else p
            for option, _, opts in _members(flag):
                target.add_argument(option, **opts, required=not exclusive
                                    and "default" not in opts)
    return parser


def _problem(args) -> ProblemSpec:
    """Sort the given flags of the chosen command by kind."""
    command = args.spec_command
    inputs = {"ideal": {}, "weights": {}, "seq": {}, "param": {}}
    for option, kind, opts in (member for flag in _COMMANDS[command][2:]
                               for member in _members(flag)):
        dest = opts.get("dest", option[2:].replace("-", "_"))
        value = getattr(args, dest)
        if value is None:
            continue
        kind, _, noun = kind.partition(":")
        if kind == "rational":
            value = parse_rational(value, noun)
        elif kind == "rationals":
            value = [parse_rational(v, noun) for v in value.split(",")]
        elif kind == "path":
            value = parse_path(value)
        inputs[kind if kind in inputs else "param"][dest] = value
    return build_problem(command, inputs["ideal"], inputs["weights"],
                         inputs["seq"], inputs["param"], dim_flag=args.dim)


def run_command(spec: ProblemSpec):
    """Dispatch a resolved problem; returns (exit status, output text)."""
    out = _COMMANDS[spec.command][1](spec)
    return 0, out if isinstance(out, str) else json.dumps(out, indent=2) + "\n"


_NEG_RATIONAL_LIST = re.compile(r"-\d+(/\d+)?(,-?\d+(/\d+)?)*\Z")


def _join_negative_values(argv):
    """Join a negative rational (list) to the ``--flag`` before it: every
    flag takes one value, but argparse alone reads '-1/4' as a flag."""
    out = []
    for tok in argv:
        if out and out[-1].startswith("--") and _NEG_RATIONAL_LIST.match(tok):
            out[-1] += "=" + tok
        else:
            out.append(tok)
    return out


def run(argv=None) -> int:
    parser = build_parser()
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = parser.parse_args(_join_negative_values(list(argv)))
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        spec = _problem(args)
        status, output = run_command(spec)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except CrossCheckError as exc:
        print(f"internal cross-check failure (bug): {exc}", file=sys.stderr)
        return 4
    except VallabError as exc:
        print(f"{type(exc).__name__.removesuffix('Error')}: {exc}",
              file=sys.stderr)
        return 3
    except ValueError as exc:
        # library precondition violations raise ValueError
        print(f"PreconditionViolation: {exc}", file=sys.stderr)
        return 3
    sys.stdout.write(output)
    return status


def main():
    sys.exit(run())


if __name__ == "__main__":
    main()
