"""CLI parsing, JSON/TSV emission, and exit-code contract."""

import io
import json
import re
from fractions import Fraction as F

import pytest

from vallab import DimensionMismatchError, MixedVariableSetsError, ParseError
from vallab.cli import (build_parser, build_problem, parse_ideal, parse_path,
                        parse_seq, parse_weights, run)
from vallab.valuations import EnlargedSeq, PowersSeq, ValSeq


def run_cli(capsys, *argv):
    status = run(list(argv))
    captured = capsys.readouterr()
    return status, captured.out, captured.err


def run_json(capsys, *argv):
    status, out, err = run_cli(capsys, *argv)
    assert status == 0, err
    return json.loads(out)


class TestParseIdeal:
    def test_basic(self):
        assert parse_ideal("x^2, y^3").generators == ((0, 3), (2, 0))

    def test_redundant_generator_dropped(self):
        assert parse_ideal("x*y, x^2*y").generators == ((1, 1),)

    def test_negative_exponent(self):
        with pytest.raises(ParseError) as exc:
            parse_ideal("x^-1")
        assert exc.value.offset is not None

    def test_unit(self):
        assert parse_ideal("1").is_unit

    def test_indexed_variables(self):
        assert parse_ideal("x1^2*x4").generators == ((2, 0, 0, 1),)

    def test_mixed_styles_rejected(self):
        with pytest.raises(MixedVariableSetsError):
            parse_ideal("x1*y")
        with pytest.raises(MixedVariableSetsError):
            parse_ideal("x1, y")

    def test_unknown_variable(self):
        with pytest.raises(ParseError):
            parse_ideal("w^2")

    def test_byte_offset_points_at_error(self):
        with pytest.raises(ParseError) as exc:
            parse_ideal("x^2, y^^3")
        assert exc.value.offset == 5

    def test_dim_flag_pads(self):
        assert parse_ideal("x^2", dim=3).generators == ((2, 0, 0),)

    def test_dim_flag_too_small(self):
        from vallab import DimensionMismatchError
        with pytest.raises(DimensionMismatchError):
            parse_ideal("z", dim=2)

    def test_repeated_variable_accumulates(self):
        assert parse_ideal("x*x*y^2").generators == ((2, 2),)

    def test_round_trip(self):
        for text in ("x^2, y^3", "x*y", "1", "x^2*y, z^4", "y^5"):
            ideal = parse_ideal(text, dim=3)
            assert parse_ideal(str(ideal), dim=3) == ideal

    def test_round_trip_indexed_variables(self):
        for text in ("x1^2*x4, x2^3", "x3", "1"):
            ideal = parse_ideal(text, dim=4)
            assert parse_ideal(str(ideal), dim=4) == ideal


class TestParseSeqAndPath:
    def test_pow(self):
        seq = parse_seq("pow:x^2, y^3", 2)
        assert isinstance(seq, PowersSeq)
        assert seq.base.generators == ((0, 3), (2, 0))

    def test_val(self):
        seq = parse_seq("val:3/8,1/4", 2)
        assert isinstance(seq, ValSeq)
        assert seq.alpha.alpha == (F(3, 8), F(1, 4))

    def test_enl_nested(self):
        seq = parse_seq("enl:enl:val:3/8,1/4;y;4;x;2", 2)
        assert isinstance(seq, EnlargedSeq)
        assert isinstance(seq.base, EnlargedSeq)
        assert seq.beta == 2

    def test_bad_descriptor(self):
        with pytest.raises(ParseError):
            parse_seq("powers:x", 1)

    def test_path(self):
        seq = parse_path("3/2:1,2:2")
        assert seq.steps == ((F(3, 2), 1), (F(2), 2))
        assert parse_path("").steps == ()
        assert parse_path("root").steps == ()

    def test_bad_path(self):
        with pytest.raises(ParseError):
            parse_path("3/2")

    def test_weights_length_checked(self):
        from vallab import DimensionMismatchError
        with pytest.raises(DimensionMismatchError):
            parse_weights("1/2,1/3", dim=3)


class TestProblemAssembly:
    def test_shared_dimension_across_objects(self):
        spec = build_problem("lct", {"q": "x", "a": "x^2, y^3"}, {}, {},
                             {"lam": F(0)})
        assert spec.dim == 2
        assert spec.ideals["q"].generators == ((1, 0),)

    def test_seq_dimension_drives_ideals(self):
        spec = build_problem("lct", {"q": "x"}, {},
                             {"seq": "val:1/2,1/3,1/4"}, {"lam": F(0)})
        assert spec.dim == 3
        assert spec.ideals["q"].generators == ((1, 0, 0),)

    def test_dim_flag_forces_the_dimension(self):
        ideals = {"q": "x", "a": "x^2, y^3"}
        spec = build_problem("lct", ideals, {}, {}, {"lam": F(0)},
                             dim_flag=3)
        assert spec.dim == 3
        assert spec.ideals["a"].generators == ((0, 3, 0), (2, 0, 0))
        with pytest.raises(DimensionMismatchError):
            build_problem("lct", ideals, {}, {}, {"lam": F(0)}, dim_flag=1)
        for dim in (0, -1):
            with pytest.raises(ParseError):
                build_problem("lct", ideals, {}, {}, {"lam": F(0)},
                              dim_flag=dim)


class TestCommands:
    def test_lct_ideal_json(self, capsys):
        doc = run_json(capsys, "lct", "--q", "x", "--a", "x^2, y^3")
        assert doc["value"] == "4/3"
        assert doc["rays"] == [[3, 2]]
        assert doc["oracle"] == "4/3"

    def test_lct_seq(self, capsys):
        doc = run_json(capsys, "lct", "--q", "x", "--seq", "val:1/2,1/3")
        assert doc["value"] == "4/3"

    def test_lct_negative_lambda(self, capsys):
        doc = run_json(capsys, "lct", "--q", "x", "--qprime", "y",
                       "--lambda", "-1/4", "--a", "x^2, y^3")
        assert doc["value"] == "5/4"

    def test_lct_infinite(self, capsys):
        doc = run_json(capsys, "lct", "--q", "x", "--a", "1")
        assert doc["value"] == "infinity"

    def test_tian_tsv(self, capsys):
        status, out, err = run_cli(capsys, "tian", "--q", "x", "--qprime",
                                   "y", "--seq", "val:3/8,1/4", "--format",
                                   "tsv")
        assert status == 0
        lines = out.strip().splitlines()
        assert lines[0] == "t\tvalue\tslope"
        assert len(lines) == 2  # one piece: the domain endpoint row only
        t0, v0, s0 = lines[1].split("\t")
        assert s0 == "1/4"
        # reconstruct the value at t = 0 from the endpoint row
        value_at_zero = F(v0) + F(s0) * (0 - F(t0))
        assert value_at_zero == 1

    def test_tian_json_slopes(self, capsys):
        doc = run_json(capsys, "tian", "--q", "x", "--qprime", "y",
                       "--seq", "val:3/8,1/4")
        assert doc["domain_min"] == "-1"
        assert doc["slopes_at_zero"] == ["1/4", "1/4"]
        assert doc["slope_at_infinity"] == "1/4"

    def test_zhou_rescale(self, capsys):
        doc = run_json(capsys, "zhou", "rescale", "--alpha", "1/2,1/3",
                       "--q", "x")
        assert doc["scale"] == "4/3"
        assert doc["normalized"] == ["3/8", "1/4"]
        assert doc["log_discrepancy"] == doc["one_minus_vq"] == "5/8"

    def test_zhou_test_and_membership(self, capsys):
        doc = run_json(capsys, "zhou", "test", "--alpha", "3/8,1/4",
                       "--q", "x")
        assert doc["verdict"] == "PASS"
        doc = run_json(capsys, "zhou", "membership", "--alpha", "1/2,1/3",
                       "--q", "x")
        assert doc["member"] is False

    def test_zhou_test_custom_family(self, capsys):
        doc = run_json(capsys, "zhou", "test", "--alpha", "3/8,1/4",
                       "--q", "x", "--family", "y; x*y; x^2, y^3")
        assert doc["verdict"] == "PASS"
        doc = run_json(capsys, "zhou", "test", "--alpha", "1,1",
                       "--q", "x", "--family", "y")
        assert doc["verdict"] == "FAIL"
        assert "lct != 1" in doc["reason"]

    def test_tian_json_unbounded_domain(self, capsys):
        # unit q' gives a constant Tian function on the whole line
        doc = run_json(capsys, "tian", "--q", "x*y", "--qprime", "1",
                       "--seq", "pow:x^2, y^3")
        assert doc["domain_min"] == "-infinity"
        assert doc["pieces"][0]["slope"] == "0"
        assert doc["slopes_at_zero"] == ["0", "0"]

    def test_tian_tsv_unbounded_domain(self, capsys):
        status, out, _ = run_cli(capsys, "tian", "--q", "x*y", "--qprime",
                                 "1", "--seq", "pow:x^2, y^3", "--format",
                                 "tsv")
        assert status == 0
        first_row = out.strip().splitlines()[1].split("\t")
        assert first_row[0] == "-infinity"

    def test_compare(self, capsys):
        doc = run_json(capsys, "compare", "--a", "x^2, y^2", "--aprime",
                       "x, y")
        assert doc["order"] == "MORE_SINGULAR"

    def test_enlarge_check(self, capsys):
        doc = run_json(capsys, "enlarge-check", "--q", "x", "--qprime", "y",
                       "--seq", "val:3/8,1/4", "--beta", "4")
        assert doc["lct"] == "1"
        assert doc["threshold"] == "4"
        assert doc["beta_at_least_threshold"] is True
        doc = run_json(capsys, "enlarge-check", "--q", "x", "--qprime", "y",
                       "--seq", "val:3/8,1/4", "--beta", "3")
        assert doc["lct"] == "13/12"
        assert doc["beta_at_least_threshold"] is False

    def test_tree_commands(self, capsys):
        doc = run_json(capsys, "tree", "min-n", "--seq", "3/2:1,2:2")
        assert doc["N"] == 2 and doc["max_gap"] == "1"
        doc = run_json(capsys, "tree", "a-disc", "--seq", "3/2:1,2:2",
                       "--t", "2")
        assert doc["A"] == "7/2"
        doc = run_json(capsys, "tree", "zv1", "--seq", "3/2:1")
        assert doc["member"] is True
        doc = run_json(capsys, "tree", "sigma", "--seq", "2:1", "--n", "0",
                       "--samples", "1,3/2,2")
        assert doc["profile"] == [["1", "4"], ["3/2", "10/3"], ["2", "3"]]

    def test_oracle_commands(self, capsys):
        doc = run_json(capsys, "oracle", "jn", "--q", "x", "--a", "x^2, y^3")
        assert doc["value"] == "4/3"
        doc = run_json(capsys, "oracle", "mult", "--a", "x^2, y^3", "--c",
                       "5/6")
        assert doc["generators"] == [[0, 1], [1, 0]]
        doc = run_json(capsys, "oracle", "growth", "--a", "x^2, y^3",
                       "--rays", "3,2", "--t-values", "1,2,3,6")
        assert doc["all_positive"] is True

    def test_sandwich(self, capsys):
        doc = run_json(capsys, "sandwich", "--alpha", "1/2,1/3", "--q", "x",
                       "--k", "5")
        assert doc["gamma_k"] == "10/3"
        assert doc["ratio"] == "2/3"
        assert doc["upper_is_equality"] is True

    def test_stdin_ideal(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO("x^2, y^3\n"))
        doc = run_json(capsys, "lct", "--q", "x", "--a", "-")
        assert doc["value"] == "4/3"

    def test_parser_built_once(self):
        assert build_parser() is build_parser()

    def test_no_decimal_floats_anywhere(self, capsys):
        doc = run_json(capsys, "lct", "--q", "x", "--qprime", "y",
                       "--lambda", "-1/4", "--a", "x^2, y^3")
        flat = json.dumps(doc)
        assert not re.search(r"\d+\.\d+", flat)


class TestExitCodes:
    def test_parse_error_is_2(self, capsys):
        status, out, err = run_cli(capsys, "lct", "--q", "x", "--a", "x^-1")
        assert status == 2 and "negative exponent" in err

    def test_usage_error_is_2(self, capsys):
        assert run_cli(capsys, "lct", "--q", "x")[0] == 2

    def test_domain_error_is_3(self, capsys):
        status, out, err = run_cli(capsys, "lct", "--q", "x", "--qprime",
                                   "y", "--lambda", "-2", "--a", "x^2, y^3")
        assert status == 3
        assert "NegativityViolation" in err

    def test_zero_ideal_is_3(self, capsys):
        status, _, err = run_cli(capsys, "tree", "a-disc", "--seq", "3/2:1",
                                 "--t", "7")
        assert status == 3 and "OutOfRange" in err

    def test_cross_check_failure_is_4(self, capsys, monkeypatch):
        import vallab.cli as cli_mod
        monkeypatch.setattr(cli_mod, "jumping_number_oracle",
                            lambda q, a: F(1, 7))
        status, out, err = run_cli(capsys, "lct", "--q", "x", "--a",
                                   "x^2, y^3")
        assert status == 4
        assert "cross-check" in err
        assert out == ""  # aborts before printing a value

    def test_negative_weight_is_parse_error(self, capsys):
        status, _, err = run_cli(capsys, "zhou", "rescale", "--alpha",
                                 "-1/2,1/3", "--q", "x")
        assert status == 2 and "nonnegative" in err

    def test_bad_beta_is_precondition_error(self, capsys):
        status, _, err = run_cli(capsys, "enlarge-check", "--q", "x",
                                 "--qprime", "y", "--seq", "val:3/8,1/4",
                                 "--beta", "-1")
        assert status == 3 and "positive" in err

    def test_bad_k_is_precondition_error(self, capsys):
        status, _, err = run_cli(capsys, "sandwich", "--alpha", "1/2,1/3",
                                 "--q", "x", "--k", "-3")
        assert status == 3

    def test_dimension_cap_env_override(self, capsys, monkeypatch):
        argv = ["lct", "--q", "x1", "--a", "x1^2, x2^3, x3, x4, x5"]
        status, _, err = run_cli(capsys, *argv)
        assert status == 3 and "DimensionCap" in err
        monkeypatch.setenv("VALLAB_DIM_CAP", "5")
        doc = run_json(capsys, *argv)
        # gamma = (1/2, 1/3, 1, 1, 1) normalizes v(a) to 1 at minimal cost
        assert doc["value"] == "13/3"

    @pytest.mark.parametrize("argv", [
        ["lct", "--q", "x2000000000", "--a", "x"],
        ["--dim", "2000000000", "lct", "--q", "x", "--a", "x"],
    ])
    def test_over_cap_dimension_fails_before_parsing(self, capsys,
                                                     monkeypatch, argv):
        def refuse(*args, **kwargs):
            raise AssertionError("no exponent vector may be built")

        monkeypatch.setattr("vallab.cli.parse_ideal", refuse)
        status, out, err = run_cli(capsys, *argv)
        assert status == 3 and out == ""
        assert err == ("DimensionCap: dimension 2000000000 exceeds cap 4; "
                       "raise VALLAB_DIM_CAP to force\n")

    @pytest.mark.parametrize("value", ["abc", "4.5", "0", "-1"])
    def test_bad_dimension_cap_env_is_named(self, capsys, monkeypatch, value):
        monkeypatch.setenv("VALLAB_DIM_CAP", value)
        status, out, err = run_cli(capsys, "lct", "--q", "x", "--a",
                                   "x^2, y^3")
        assert status == 3 and out == ""
        assert err.startswith("DimensionCap: ")
        assert f"VALLAB_DIM_CAP={value!r}" in err

    @pytest.mark.parametrize("dim", ["0", "-2"])
    def test_nonpositive_dim_is_2(self, capsys, dim):
        status, out, err = run_cli(capsys, "--dim", dim, "lct", "--q", "x",
                                   "--a", "x^2, y^3")
        assert status == 2 and out == ""
        assert "--dim must be at least 1" in err

    def test_dim_below_inputs_is_3(self, capsys):
        for argv in (["lct", "--q", "x", "--a", "x^2, y^3"],
                     ["lct", "--q", "x", "--seq", "val:1/2,1/3"],
                     ["zhou", "rescale", "--alpha", "1/2,1/3", "--q", "x"]):
            status, out, err = run_cli(capsys, "--dim", "1", *argv)
            assert status == 3 and out == ""
            assert err.startswith("DimensionMismatch: ")

    def test_empty_denominator_ideal_is_2(self, capsys):
        status, _, err = run_cli(capsys, "lct", "--q", "x", "--a", "")
        assert status == 2 and "empty ideal text" in err

    @pytest.mark.parametrize("argv", [
        ["oracle", "mult", "--a", "x^2, y^3", "--c", "-1/2"],
        ["oracle", "growth", "--a", "x^2, y^3", "--rays", "3,2",
         "--t-values", "-1,2"],
    ])
    def test_negative_value_of_any_flag_is_a_domain_error(self, capsys,
                                                          argv):
        status, out, err = run_cli(capsys, *argv)
        assert status == 3 and out == ""
        assert err.startswith("PreconditionViolation: ")

    def test_bad_rays_are_a_parse_error_naming_the_flag(self, capsys):
        status, out, err = run_cli(capsys, "oracle", "growth", "--a",
                                   "x^2, y^3", "--rays", "3,x",
                                   "--t-values", "1")
        assert status == 2 and out == ""
        assert err.startswith("parse error: ") and "--rays" in err

    def test_non_val_enlarge_base_is_a_parse_error(self, capsys):
        status, out, err = run_cli(capsys, "enlarge-check", "--q", "x",
                                   "--qprime", "y", "--seq", "pow:x",
                                   "--beta", "1")
        assert status == 2 and out == ""
        assert err.startswith("parse error: ") and "val:" in err
