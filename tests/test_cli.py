import concurrent.futures
import contextlib
import json
import math
import os
import subprocess
import sys
import textwrap
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import centerfocus
from centerfocus import PlanarField, bautin_classify, get
from centerfocus.cli import build_parser, main, parse_inverse_spec, parse_system, system_json
from centerfocus.errors import DegreeMismatch, NonNormalizedLinearPart, ParseError
from test_cli_golden import ALL_CASES, enter_replay_dir, load_golden, run_case

LINEAR_X = [{"i": 0, "j": 1, "c": -1}]
LINEAR_Y = [{"i": 1, "j": 0, "c": 1}]


def write_doc(tmp_path, fname, doc):
    path = tmp_path / fname
    path.write_text(json.dumps(doc))
    return str(path)


def write_system(tmp_path, x_extra, y_extra, fname="sys.json", name="probe"):
    return write_doc(tmp_path, fname, {
        "name": name,
        "x_dot": LINEAR_X + x_extra,
        "y_dot": LINEAR_Y + y_extra,
    })


def radial_cubic_file(tmp_path, fname="radial.json"):
    return write_system(
        tmp_path,
        [{"i": 3, "j": 0, "c": 1}, {"i": 1, "j": 2, "c": 1}],
        [{"i": 2, "j": 1, "c": 1}, {"i": 0, "j": 3, "c": 1}],
        fname,
    )


class TestParsing:
    def test_decimal_string_rejected(self):
        doc = {"x_dot": [{"i": 0, "j": 1, "c": "-1.0"}], "y_dot": LINEAR_Y}
        with pytest.raises(ParseError, match="decimal"):
            parse_system(json.dumps(doc))

    def test_float_rejected(self):
        doc = {"x_dot": [{"i": 0, "j": 1, "c": -1.0}], "y_dot": LINEAR_Y}
        with pytest.raises(ParseError, match="integer or a"):
            parse_system(json.dumps(doc))

    def test_bool_rejected(self):
        doc = {"x_dot": [{"i": 0, "j": 1, "c": True}], "y_dot": LINEAR_Y}
        with pytest.raises(ParseError):
            parse_system(json.dumps(doc))

    def test_duplicate_exponents_rejected(self):
        doc = {"x_dot": LINEAR_X + [{"i": 0, "j": 1, "c": 2}], "y_dot": LINEAR_Y}
        with pytest.raises(ParseError, match="duplicate"):
            parse_system(json.dumps(doc))

    def test_negative_exponent_rejected(self):
        doc = {"x_dot": [{"i": -1, "j": 2, "c": 1}], "y_dot": LINEAR_Y}
        with pytest.raises(ParseError, match="exponents"):
            parse_system(json.dumps(doc))

    @pytest.mark.parametrize("x_dot, want", [
        (5, "x_dot: expected a list of terms"),
        ([[0, 1, -1]], "x_dot[0]: term must be an object with keys i, j, c"),
    ])
    def test_term_list_shape_exits_2(self, tmp_path, capsys, x_dot, want):
        path = write_doc(tmp_path, "sys.json", {"x_dot": x_dot, "y_dot": LINEAR_Y})
        assert main(["analyze", "--input", path, "--order", "4"]) == 2
        assert capsys.readouterr().err == f"centerfocus: ParseError: {want}\n"

    def test_missing_key(self):
        with pytest.raises(ParseError, match="y_dot"):
            parse_system(json.dumps({"x_dot": LINEAR_X}))

    def test_invalid_json_reports_position(self):
        with pytest.raises(ParseError, match=r"line \d+ column \d+"):
            parse_system("{not json")

    def test_bad_rational(self):
        doc = {"x_dot": [{"i": 0, "j": 1, "c": "1/0"}], "y_dot": LINEAR_Y}
        with pytest.raises(ParseError, match="bad rational"):
            parse_system(json.dumps(doc))

    def test_round_trips_through_emitter(self):
        doc = {
            "name": "rt",
            "x_dot": LINEAR_X + [{"i": 2, "j": 0, "c": "1/3"}],
            "y_dot": LINEAR_Y + [{"i": 1, "j": 1, "c": -4}],
        }
        name, field, _ = parse_system(json.dumps(doc))
        emitted = json.dumps(system_json(name, field))
        name2, field2, _ = parse_system(emitted)
        assert name2 == name and field2 == field

    def test_inverse_spec_lengths_checked(self):
        with pytest.raises(ParseError, match="'h' must list"):
            parse_inverse_spec(json.dumps({"m": 3, "h": [[]], "g": [[], []]}))
        with pytest.raises(ParseError, match="'m' must be"):
            parse_inverse_spec(json.dumps({"h": [], "g": []}))
        with pytest.raises(ParseError, match="'g' must list the 2 terms lists"):
            parse_inverse_spec(json.dumps({"m": 3, "h": [[], []], "g": [[]]}))


# Any JSON value; the schema's own keys are drawn often so that documents
# get past the top-level checks and into the term and coefficient parsers.
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8)
    | st.sampled_from(["1/2", "-3/0", "0.5", "1e3", "x", " 7 "]),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(
        st.sampled_from(["x_dot", "y_dot", "name", "metadata", "m", "h", "g", "i", "j", "c"])
        | st.text(max_size=4),
        inner,
        max_size=5,
    ),
    max_leaves=20,
)
json_terms = st.lists(
    st.fixed_dictionaries({
        "i": st.integers(-1, 4) | json_values,
        "j": st.integers(-1, 4) | json_values,
        "c": st.integers(-3, 3) | st.sampled_from(["1/2", "2/0", "0.1"]) | json_values,
    }),
    max_size=4,
)
system_docs = st.fixed_dictionaries(
    {"x_dot": json_terms, "y_dot": json_terms},
    optional={"name": json_values, "metadata": json_values},
)
inverse_docs = st.fixed_dictionaries(
    {"m": st.integers(1, 4) | json_values},
    optional={
        "h": st.lists(json_terms, max_size=4),
        "g": st.lists(json_terms, max_size=4),
        "name": json_values,
    },
)
texts = st.text() | st.sampled_from(["1" * 5000, "[" * 5000, '{"m": ' + "9" * 4400 + "}"])

# the one typed error each parser leaves to the constructor it calls,
# so that the message names the exact violation
SYSTEM_ERRORS = (ParseError, NonNormalizedLinearPart)
INVERSE_ERRORS = (ParseError, DegreeMismatch)


class TestParserFuzz:
    @settings(max_examples=300, deadline=None)
    @given(texts | json_values.map(json.dumps) | system_docs.map(json.dumps))
    def test_parse_system_raises_only_typed_errors(self, text):
        with contextlib.suppress(*SYSTEM_ERRORS):
            parse_system(text)

    @settings(max_examples=300, deadline=None)
    @given(texts | json_values.map(json.dumps) | inverse_docs.map(json.dumps))
    def test_parse_inverse_spec_raises_only_typed_errors(self, text):
        with contextlib.suppress(*INVERSE_ERRORS):
            parse_inverse_spec(text)

    @pytest.mark.parametrize("parse", [parse_system, parse_inverse_spec])
    def test_oversized_and_deep_json_is_a_parse_error(self, parse):
        for text in ("1" * 5000, "[" * 100000):
            with pytest.raises(ParseError, match="invalid JSON"):
                parse(text)


class TestAnalyze:
    def test_json_report(self, tmp_path, capsys):
        path = radial_cubic_file(tmp_path)
        assert main(["analyze", "--input", path, "--order", "6", "--json"]) == 0
        rep = json.loads(capsys.readouterr().out)
        assert rep["command"].startswith("analyze --order 6")
        assert len(rep["input_digest"]) == 64
        res = rep["results"]
        assert res["name"] == "probe"
        assert res["verdict"] == "UnstableFocus(1)"
        assert res["v"][0] == {"exact": "1", "approx": 1.0}
        assert res["solved_h_degrees"] == [3, 4, 5, 6, 7]

    def test_human_output(self, tmp_path, capsys):
        path = radial_cubic_file(tmp_path)
        assert main(["analyze", "--input", path, "--order", "4"]) == 0
        out = capsys.readouterr().out
        assert "V_1 = 1" in out and "verdict: UnstableFocus(1)" in out

    def test_focus_quantity_beyond_the_float_range(self, tmp_path, capsys):
        # x' = -y - 10^200 x^2 + 10^200 xy, y' = x + xy: V_1 = -10^400 / 8 is
        # exact, and its float hint is -inf in text and null in JSON
        big = 10**200
        path = write_system(
            tmp_path, [{"i": 2, "j": 0, "c": -big}, {"i": 1, "j": 1, "c": big}],
            [{"i": 1, "j": 1, "c": 1}],
        )
        v1 = str(Fraction(-big * big, 8))
        assert main(["analyze", "--input", path, "--order", "2"]) == 0
        assert f"V_1 = {v1} (~ -inf)\n" in capsys.readouterr().out
        assert main(["analyze", "--input", path, "--order", "2", "--json"]) == 0

        def no_constant(name):
            raise AssertionError(f"non-standard JSON constant {name}")

        rep = json.loads(capsys.readouterr().out, parse_constant=no_constant)
        assert rep["results"]["v"] == [{"exact": v1, "approx": None}]

    def test_deterministic_bytes(self, tmp_path, capsys):
        path = radial_cubic_file(tmp_path)
        argv = ["analyze", "--input", path, "--order", "6", "--json"]
        main(argv)
        first = capsys.readouterr().out
        main(argv)
        assert capsys.readouterr().out == first

    def test_batch_parallel_matches_serial(self, tmp_path, capsys):
        paths = [
            radial_cubic_file(tmp_path, "a.json"),
            write_system(tmp_path, [{"i": 2, "j": 0, "c": 1}], [], "b.json"),
        ]
        argv = ["analyze", "--input", *paths, "--order", "4", "--json"]
        assert main(argv + ["--jobs", "2"]) == 0
        parallel = capsys.readouterr().out
        assert main(argv) == 0
        assert capsys.readouterr().out == parallel
        reports = json.loads(parallel)
        assert [r["results"]["name"] for r in reports] == ["probe", "probe"]

    def test_batch_pool_is_no_larger_than_the_inputs(self, tmp_path, capsys, monkeypatch):
        # a fork pool starts all its workers on the first submit; this one
        # starts none and records how many were asked for
        sizes = []

        class RecordingPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
        paths = [radial_cubic_file(tmp_path, "a.json"), radial_cubic_file(tmp_path, "b.json")]
        assert main(["analyze", "--input", *paths, "--order", "4", "--jobs", "64"]) == 0
        assert sizes == [2]

    def test_parse_error_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{")
        assert main(["analyze", "--input", str(bad), "--order", "4"]) == 2
        assert "ParseError" in capsys.readouterr().err

    def test_missing_file_exits_2(self, tmp_path, capsys):
        missing = str(tmp_path / "nope.json")
        assert main(["analyze", "--input", missing, "--order", "4"]) == 2
        assert "cannot read" in capsys.readouterr().err


class TestOrderCap:
    def test_over_cap_exits_1(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("CF_MAX_DEGREE", "8")
        path = radial_cubic_file(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main(["analyze", "--input", path, "--order", "10"])
        assert exc.value.code == 1
        assert "exceeds CF_MAX_DEGREE" in capsys.readouterr().err

    def test_at_cap_allowed(self, tmp_path, monkeypatch, capsys):
        path = radial_cubic_file(tmp_path)
        for cap in ("6", "2"):
            monkeypatch.setenv("CF_MAX_DEGREE", cap)
            assert main(["analyze", "--input", path, "--order", cap, "--json"]) == 0
        capsys.readouterr()

    def test_order_below_two_exits_1(self, tmp_path, capsys):
        path = radial_cubic_file(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main(["analyze", "--input", path, "--order", "1"])
        assert exc.value.code == 1
        capsys.readouterr()

    def test_bad_env_value_exits_2(self, tmp_path, monkeypatch, capsys):
        path = radial_cubic_file(tmp_path)
        for raw, want in (("many", "must be an integer"), ("1", "must be at least 2")):
            monkeypatch.setenv("CF_MAX_DEGREE", raw)
            assert main(["analyze", "--input", path, "--order", "4"]) == 2
            assert f"CF_MAX_DEGREE {want}" in capsys.readouterr().err


class TestUsageErrors:
    def test_missing_required_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["analyze", "--order", "4"])
        assert exc.value.code == 1
        assert "error" in capsys.readouterr().err

    def test_unknown_command(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["transmogrify"])
        assert exc.value.code == 1
        capsys.readouterr()

    def test_bad_abscissa(self, tmp_path, capsys):
        path = radial_cubic_file(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main(["returnmap", "--input", path, "--c", "-0.1"])
        assert exc.value.code == 1
        capsys.readouterr()

    @pytest.mark.parametrize("command", ["classify", "returnmap", "period"])
    @pytest.mark.parametrize(
        "raw, want", [("nan", "finite"), ("0.1,inf", "finite"), ("-0.1", "positive")]
    )
    def test_abscissa_is_a_positive_finite_float(
        self, tmp_path, capsys, command, raw, want
    ):
        path = radial_cubic_file(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main([command, "--input", path, "--c", raw])
        assert exc.value.code == 1
        assert capsys.readouterr().err.endswith(
            f"error: argument --c: section abscissas must be {want}\n"
        )

    @pytest.mark.parametrize("raw, want", [
        ("abc", "bad abscissa 'abc'"), (",", "empty abscissa list"),
    ])
    def test_abscissa_list_errors(self, tmp_path, capsys, raw, want):
        path = radial_cubic_file(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main(["returnmap", "--input", path, "--c", raw])
        assert exc.value.code == 1
        assert capsys.readouterr().err.endswith(f"error: argument --c: {want}\n")

    def test_empty_abscissa_pieces_are_skipped(self, tmp_path, capsys):
        path = radial_cubic_file(tmp_path)
        assert main(["returnmap", "--input", path, "--c", "0.1,,0.2", "--json"]) == 0
        samples = json.loads(capsys.readouterr().out)["results"]["samples"]
        assert [row["c"] for row in samples] == [0.1, 0.2]

    def test_coordinate_must_be_a_float(self, tmp_path, capsys):
        path = radial_cubic_file(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main(["orbit", "--input", path, "--x0", "abc", "--y0", "0", "--t", "1",
                  "--out", str(tmp_path / "orbit.csv")])
        assert exc.value.code == 1
        assert capsys.readouterr().err.endswith(
            "error: argument --x0: invalid float value: 'abc'\n"
        )

    @pytest.mark.parametrize("raw", ["lam3", "=1"])
    def test_param_needs_key_and_value(self, capsys, raw):
        with pytest.raises(SystemExit) as exc:
            main(["catalog", "get", "bautin", "--param", raw])
        assert exc.value.code == 1
        assert capsys.readouterr().err.endswith(
            f"error: argument --param: expected k=v, got {raw!r}\n"
        )

    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        assert "centerfocus" in capsys.readouterr().out


class TestClassify:
    def test_consistent_quadratic(self, tmp_path, capsys):
        # stored counterclockwise form of the first isochronous Loud case
        path = write_system(
            tmp_path,
            [{"i": 1, "j": 1, "c": -1}],
            [{"i": 0, "j": 2, "c": -1}],
        )
        assert main(["classify", "--input", path, "--json"]) == 0
        rep = json.loads(capsys.readouterr().out)
        res = rep["results"]
        assert res["symbolic"]["verdict"] == "CenterCandidate(6)"
        assert res["numeric"]["kind"] == "CenterLike"
        assert res["disagreement"] is False
        assert res["quadratic"] is not None
        assert isinstance(res["quadratic"]["schlomiuk_cases"], list)
        assert set(res["symmetries"]) == {
            "rev_x_axis", "rev_y_axis", "cauchy_riemann", "hamiltonian",
        }

    def test_tiny_focus_contradicts_numeric(self, tmp_path, capsys):
        # V_1 = 1e-12 symbolically, far below what the return map resolves
        eps = "1/1000000000000"
        path = write_system(
            tmp_path,
            [{"i": 3, "j": 0, "c": eps}, {"i": 1, "j": 2, "c": eps}],
            [{"i": 2, "j": 1, "c": eps}, {"i": 0, "j": 3, "c": eps}],
        )
        assert main(["classify", "--input", path, "--json"]) == 3
        captured = capsys.readouterr()
        rep = json.loads(captured.out)
        assert rep["results"]["symbolic"]["verdict"] == "UnstableFocus(1)"
        assert rep["results"]["numeric"]["kind"] == "CenterLike"
        assert rep["results"]["disagreement"] is True
        assert "contradicts" in captured.err

    def test_straddling_limit_cycle_exits_3(self, tmp_path, capsys):
        path = write_system(
            tmp_path,
            [
                {"i": 3, "j": 0, "c": 1}, {"i": 1, "j": 2, "c": 1},
                {"i": 5, "j": 0, "c": -4}, {"i": 3, "j": 2, "c": -8},
                {"i": 1, "j": 4, "c": -4},
            ],
            [
                {"i": 2, "j": 1, "c": 1}, {"i": 0, "j": 3, "c": 1},
                {"i": 4, "j": 1, "c": -4}, {"i": 2, "j": 3, "c": -8},
                {"i": 0, "j": 5, "c": -4},
            ],
        )
        assert main(["classify", "--input", path, "--c", "0.2,0.8"]) == 3
        assert "disagreement" in capsys.readouterr().err

    def test_bautin_cases_with_lam2(self, tmp_path, capsys):
        # (lam2, .., lam6) with lam2 != 0: two foci, case (iii), three points
        # with lam5 = 0 (case (i) at lam4 = 0), and three case (iv) points
        # lam6 = u^2, lam2 = uv, lam3 = 2u^2 + v^2, lam4 = -5 (lam3 - lam6)
        points = [
            ("-1/2", "1/4", "-1", "1", "1/2"),
            ("1/2", "-2/3", "1", "-1/2", "-1/3"),
            ("-1/4", "1", "1", "-1/2", "1"),
            ("2/3", "1/2", "1/4", "0", "-4/3"),
            ("1/2", "1/3", "0", "0", "-1/2"),
            ("-1/3", "1/2", "1/2", "0", "1/4"),
            ("1/4", "3/4", "-5/2", "0", "1/4"),
            ("-1/6", "11/18", "-65/36", "0", "1/4"),
            ("1/12", "41/144", "-125/144", "0", "1/9"),
        ]
        seen = set()
        for lam in points:
            entry = get("bautin", **dict(zip(("lam2", "lam3", "lam4", "lam5", "lam6"), lam)))
            path = write_doc(tmp_path, "bautin.json", system_json("bautin", entry.field))
            assert main(["classify", "--input", path, "--json"]) == 0
            res = json.loads(capsys.readouterr().out)["results"]
            want = sorted(bautin_classify(*(Fraction(v) for v in lam)))
            assert res["quadratic"]["bautin_cases"] == want
            assert (res["symbolic"]["verdict"] == "CenterCandidate(6)") == bool(want)
            seen.update(want)
        assert seen == {"i", "iii", "iv"}

    def test_hg_obstruction_reported(self, tmp_path, capsys):
        path = write_system(tmp_path, [{"i": 3, "j": 0, "c": 1}], [])
        assert main(["classify", "--input", path, "--json"]) == 0
        rep = json.loads(capsys.readouterr().out)
        ob = rep["results"]["hg"]["obstruction"]
        assert ob["degree"] == 2 and ob["value"] == "3/2"


class TestInverse:
    def test_hamiltonian_spec(self, tmp_path, capsys):
        spec = {
            "name": "cubic-ham",
            "m": 2,
            "h": [[{"i": 3, "j": 0, "c": 1}]],
            "g": [[]],
        }
        path = write_doc(tmp_path, "spec.json", spec)
        assert main(["inverse", "--spec", path, "--check-order", "8", "--json"]) == 0
        rep = json.loads(capsys.readouterr().out)
        res = rep["results"]
        assert res["hamiltonian_mismatch"]["zero"] is True
        assert all(row["zero"] for row in res["residuals"])
        assert res["system"]["x_dot"] == [{"c": -1, "i": 0, "j": 1}]
        assert {"c": 3, "i": 2, "j": 0} in res["system"]["y_dot"]

    def test_spec_errors_exit_2(self, tmp_path, capsys):
        path = write_doc(tmp_path, "spec.json", {"m": 3, "h": [[]], "g": [[], []]})
        assert main(["inverse", "--spec", path, "--check-order", "6"]) == 2
        capsys.readouterr()


class TestDarboux:
    def test_invariant_line_certificate(self, tmp_path, capsys):
        # uniformly isochronous quadratic (-y + x^2, x + xy): 1 + y is invariant
        field_path = write_system(
            tmp_path, [{"i": 2, "j": 0, "c": 1}], [{"i": 1, "j": 1, "c": 1}]
        )
        curve_path = write_doc(
            tmp_path, "curve.json",
            [{"i": 0, "j": 0, "c": 1}, {"i": 0, "j": 1, "c": 1}],
        )
        assert main([
            "darboux", "--input", field_path, "--curve", curve_path,
            "--lambda", "2/3", "--json",
        ]) == 0
        rep = json.loads(capsys.readouterr().out)
        res = rep["results"]
        assert res["invariant"] is True
        assert res["cofactor"] == [{"c": 1, "i": 1, "j": 0}]
        assert res["lambda"] == "2/3"
        assert res["darboux_verified"] is True

    def test_curve_document_with_terms_key(self, tmp_path, capsys):
        field_path = write_system(
            tmp_path, [{"i": 2, "j": 0, "c": 1}], [{"i": 1, "j": 1, "c": 1}]
        )
        curve_path = write_doc(
            tmp_path, "curve.json",
            {"terms": [{"i": 0, "j": 0, "c": 1}, {"i": 0, "j": 1, "c": 1}]},
        )
        assert main(["darboux", "--input", field_path, "--curve", curve_path, "--json"]) == 0
        res = json.loads(capsys.readouterr().out)["results"]
        assert (res["invariant"], res["cofactor"]) == (True, [{"c": 1, "i": 1, "j": 0}])

    def test_curve_document_without_terms_exits_2(self, tmp_path, capsys):
        field_path = radial_cubic_file(tmp_path)
        curve_path = write_doc(tmp_path, "curve.json", {"nope": 1})
        assert main(["darboux", "--input", field_path, "--curve", curve_path]) == 2
        assert capsys.readouterr().err == (
            "centerfocus: ParseError: expected a term list or an object with a 'terms' key\n"
        )

    def test_non_invariant_curve(self, tmp_path, capsys):
        field_path = radial_cubic_file(tmp_path)
        curve_path = write_doc(tmp_path, "curve.json", [{"i": 1, "j": 0, "c": 1}])
        assert main(["darboux", "--input", field_path, "--curve", curve_path]) == 0
        assert "not invariant" in capsys.readouterr().out

    def test_lambda_one_takes_the_curve_as_g(self, tmp_path, capsys):
        # schl1 at lam = 1, a = 1: x' = -y + x^2 + y^2, y' = x has the
        # integral H_2 exp(-g) with g = 2y, which the curve file holds
        field_path = write_system(
            tmp_path, [{"i": 2, "j": 0, "c": 1}, {"i": 0, "j": 2, "c": 1}], []
        )
        curve_path = write_doc(tmp_path, "curve.json", [{"i": 0, "j": 1, "c": 2}])
        assert main([
            "darboux", "--input", field_path, "--curve", curve_path,
            "--lambda", "1", "--json",
        ]) == 0
        res = json.loads(capsys.readouterr().out)["results"]
        assert (res["invariant"], res["lambda"], res["darboux_verified"]) == (False, "1", True)

    def test_multiplier_needs_constant_term_one(self, tmp_path, capsys):
        field_path = radial_cubic_file(tmp_path)
        curve_path = write_doc(
            tmp_path, "curve.json", [{"i": 0, "j": 0, "c": 2}, {"i": 0, "j": 1, "c": 2}]
        )
        assert main([
            "darboux", "--input", field_path, "--curve", curve_path, "--lambda", "1/2",
        ]) == 2
        assert capsys.readouterr().err == (
            "centerfocus: PreconditionFailed: "
            "curve must have constant term 1 to recover the multiplier\n"
        )

    def test_lambda_zero_exits_2(self, tmp_path, capsys):
        field_path = radial_cubic_file(tmp_path)
        curve_path = write_doc(tmp_path, "curve.json", [{"i": 0, "j": 0, "c": 1}])
        assert main([
            "darboux", "--input", field_path, "--curve", curve_path, "--lambda", "0",
        ]) == 2
        assert "LambdaZero" in capsys.readouterr().err


class TestNumericCommands:
    def test_returnmap_radial(self, tmp_path, capsys):
        path = radial_cubic_file(tmp_path)
        assert main(["returnmap", "--input", path, "--c", "0.1", "--json"]) == 0
        rep = json.loads(capsys.readouterr().out)
        sample = rep["results"]["samples"][0]
        truth = 0.1 / math.sqrt(1.0 - 0.04 * math.pi)
        assert abs(sample["p_of_c"] - truth) < 1e-8
        assert sample["delta"] > 0
        assert rep["results"]["tolerances"]["rel_tol"] == 1e-12

    def test_period_isochronous(self, tmp_path, capsys):
        path = write_system(
            tmp_path,
            [{"i": 1, "j": 1, "c": -1}],
            [{"i": 0, "j": 2, "c": "-1/4"}],
        )
        assert main(["period", "--input", path, "--c", "0.05,0.1", "--json"]) == 0
        rep = json.loads(capsys.readouterr().out)
        for sample in rep["results"]["samples"]:
            assert abs(sample["period"] - 2 * math.pi) < 1e-8

    def test_orbit_writes_csv(self, tmp_path, capsys):
        path = write_system(tmp_path, [], [])
        out = tmp_path / "orbit.csv"
        assert main([
            "orbit", "--input", path, "--x0", "1", "--y0", "0",
            "--t", str(2 * math.pi), "--out", str(out), "--json",
        ]) == 0
        rep = json.loads(capsys.readouterr().out)
        lines = out.read_text().splitlines()
        assert lines[0] == "t,x,y"
        assert len(lines) == 1 + rep["results"]["samples"]
        fx, fy = rep["results"]["final"]
        assert abs(fx - 1.0) < 1e-8 and abs(fy) < 1e-8

    @pytest.mark.parametrize("command", [
        ["returnmap", "--c", "1.5"],
        ["orbit", "--x0", "1.5", "--y0", "0", "--t", "1", "--out", "orbit.csv"],
    ])
    def test_overflowing_field_is_a_step_failure(self, tmp_path, capsys, monkeypatch, command):
        # x' = -y + x^2000 leaves the float range at once from x = 1.5
        path = write_system(tmp_path, [{"i": 2000, "j": 0, "c": 1}], [])
        monkeypatch.chdir(tmp_path)
        assert main([command[0], "--input", path, *command[1:]]) == 2
        err = capsys.readouterr().err
        assert err.startswith("centerfocus: StepFailure: ")
        assert "Traceback" not in err


    @pytest.mark.parametrize("command", [
        ["classify"],
        ["period", "--c", "0.1"],
        ["returnmap", "--c", "0.1"],
        ["orbit", "--x0", "0.1", "--y0", "0", "--t", "1", "--out", "orbit.csv"],
    ], ids=["classify", "period", "returnmap", "orbit"])
    def test_coefficient_beyond_the_float_range_exits_2(
        self, tmp_path, capsys, monkeypatch, command
    ):
        # x' = -y + 10^400 x^2: a valid JSON integer that no float holds
        path = write_system(tmp_path, [{"i": 2, "j": 0, "c": 10**400}], [])
        monkeypatch.chdir(tmp_path)
        assert main([command[0], "--input", path, *command[1:]]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == (
            "centerfocus: PreconditionFailed: coefficient of x^2 y^0 lies outside the float range\n"
        )
        assert not (tmp_path / "orbit.csv").exists()

    @pytest.mark.parametrize("target", ["missing/orbit.csv", "."])
    def test_unwritable_orbit_out_exits_2(self, tmp_path, capsys, monkeypatch, target):
        # a missing directory or a directory as the file: no traceback
        path = write_system(tmp_path, [], [])
        monkeypatch.chdir(tmp_path)
        argv = ["orbit", "--input", path, "--x0", "0.1", "--y0", "0", "--t", "1"]
        assert main(argv + ["--out", target]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"centerfocus: PreconditionFailed: cannot write {target}: ")
        assert "Traceback" not in err
        assert not (tmp_path / "missing").exists()

    def test_nonfinite_orbit_inputs(self, tmp_path, capsys, monkeypatch):
        path = write_system(tmp_path, [], [])
        monkeypatch.chdir(tmp_path)
        base = ["orbit", "--input", path, "--out", "orbit.csv"]
        for argv, flag in (
            (["--x0", "nan", "--y0", "0", "--t", "1"], "--x0"),
            (["--x0", "0.1", "--y0", "-inf", "--t", "1"], "--y0"),
            (["--x0", "0.1", "--y0", "0", "--t", "nan"], "--t"),
        ):
            with pytest.raises(SystemExit) as exc:
                main(base + argv)
            assert exc.value.code == 1
            err = capsys.readouterr().err
            assert err.startswith("usage: centerfocus orbit")
            assert f"error: argument {flag}: " in err
        # an infinite end time is still the engine's budget error
        assert main(base + ["--x0", "0.1", "--y0", "0", "--t", "inf"]) == 2
        assert capsys.readouterr().err.startswith("centerfocus: TimeBudgetExceeded: ")
        assert not (tmp_path / "orbit.csv").exists()

    def test_orbit_to_nan_returns(self, tmp_path):
        # a NaN end time once kept SciPy's step loop running forever; the
        # timeout turns a regression into a failure instead of a stalled run
        path = write_system(tmp_path, [], [])
        src = Path(centerfocus.__file__).resolve().parents[1]
        env = {**os.environ, "PYTHONPATH": str(src)}
        out = subprocess.run(
            [sys.executable, "-m", "centerfocus", "orbit", "--input", path,
             "--x0", "0.1", "--y0", "0", "--t", "nan", "--out", "orbit.csv"],
            cwd=tmp_path, env=env, capture_output=True, text=True, timeout=30,
        )
        assert out.returncode == 1
        assert "error: argument --t: end time must be a number" in out.stderr
        assert "Traceback" not in out.stderr


    @pytest.mark.parametrize("t_end", ["-1e6", "-inf"])
    def test_orbit_far_backward_is_over_budget(self, tmp_path, t_end):
        # a negative end time once skipped the budget check and ran until
        # killed; the timeout turns a regression into a failure
        path = write_system(tmp_path, [], [])
        src = Path(centerfocus.__file__).resolve().parents[1]
        env = {**os.environ, "PYTHONPATH": str(src)}
        out = subprocess.run(
            [sys.executable, "-m", "centerfocus", "orbit", "--input", path,
             "--x0", "0.1", "--y0", "0", f"--t={t_end}", "--out", "orbit.csv"],
            cwd=tmp_path, env=env, capture_output=True, text=True, timeout=30,
        )
        assert out.returncode == 2
        assert out.stderr.startswith("centerfocus: TimeBudgetExceeded: ")
        assert not (tmp_path / "orbit.csv").exists()

    def test_escaping_orbit_is_over_budget(self, tmp_path):
        # x' = -y, y' = x + x^2 + 2 y^2 - y^3 (kukles): the orbit through 0.6
        # escapes and its steps collapse long before max_time, so this once
        # ran until killed; the timeout turns a regression into a failure
        path = write_system(
            tmp_path, [],
            [{"i": 2, "j": 0, "c": 1}, {"i": 0, "j": 2, "c": 2}, {"i": 0, "j": 3, "c": -1}],
        )
        src = Path(centerfocus.__file__).resolve().parents[1]
        env = {**os.environ, "PYTHONPATH": str(src)}
        out = subprocess.run(
            [sys.executable, "-m", "centerfocus", "returnmap", "--input", path, "--c", "0.6"],
            cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60,
        )
        assert out.returncode == 2
        assert out.stderr == (
            "centerfocus: TimeBudgetExceeded: no return within 500000 field evaluations\n"
        )

    @pytest.mark.parametrize("command", [
        ["classify"], ["returnmap", "--c", "0.1"], ["period", "--c", "0.1"],
    ], ids=["classify", "returnmap", "period"])
    def test_overflowing_norm_prints_only_the_typed_error(self, tmp_path, command):
        # x' = -y - 10^200 x^2 + 10^200 xy, y' = x + xy: the step-error
        # norms' dots overflow, and NumPy once printed a RuntimeWarning for
        # each ahead of the error line
        path = write_system(
            tmp_path,
            [{"i": 2, "j": 0, "c": -10**200}, {"i": 1, "j": 1, "c": 10**200}],
            [{"i": 1, "j": 1, "c": 1}],
        )
        src = Path(centerfocus.__file__).resolve().parents[1]
        env = {**os.environ, "PYTHONPATH": str(src)}
        out = subprocess.run(
            [sys.executable, "-m", "centerfocus", *command, "--input", path],
            cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60,
        )
        assert (out.returncode, out.stdout) == (2, "")
        assert out.stderr == (
            "centerfocus: TimeBudgetExceeded: no return within 500000 field evaluations\n"
        )

    def test_escaping_orbit_run_is_over_budget(self, tmp_path):
        # the same escape: orbit once ran until killed, as the budget of a
        # first return did not reach integrate
        path = write_system(
            tmp_path, [],
            [{"i": 2, "j": 0, "c": 1}, {"i": 0, "j": 2, "c": 2}, {"i": 0, "j": 3, "c": -1}],
        )
        src = Path(centerfocus.__file__).resolve().parents[1]
        env = {**os.environ, "PYTHONPATH": str(src)}
        out = subprocess.run(
            [sys.executable, "-m", "centerfocus", "orbit", "--input", path,
             "--x0", "0.6", "--y0", "0", "--t", "100", "--out", "orbit.csv"],
            cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60,
        )
        assert out.returncode == 2
        assert out.stderr == (
            "centerfocus: TimeBudgetExceeded: "
            "t_end 100.0 not reached within 500000 field evaluations\n"
        )
        assert not (tmp_path / "orbit.csv").exists()


class TestCatalogCommand:
    def test_list_text(self, capsys):
        assert main(["catalog", "list"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 24
        assert lines[0].startswith("bautin(")
        assert "lam=<required>" in next(l for l in lines if l.startswith("schl1"))

    def test_list_json(self, capsys):
        assert main(["catalog", "list", "--json"]) == 0
        sigs = json.loads(capsys.readouterr().out)
        by_name = {s["name"]: s for s in sigs}
        assert by_name["quartic_ttt"]["params"] == [{"name": "a", "default": "1"}]
        assert {"name": "lam", "default": None} in by_name["schl1"]["params"]

    def test_get_emits_parseable_system(self, capsys):
        assert main(["catalog", "get", "bautin", "--param", "lam5=1/2"]) == 0
        doc = capsys.readouterr().out
        name, field, meta = parse_system(doc)
        assert name == "bautin"
        assert field.p.coeff(1, 1) == Fraction(1, 2)
        assert meta["params"]["lam5"] == "1/2"
        assert meta["orientation"] == "counterclockwise"

    def test_get_pipes_into_analyze(self, tmp_path, capsys):
        assert main(["catalog", "get", "loud1"]) == 0
        doc = capsys.readouterr().out
        path = tmp_path / "loud1.json"
        path.write_text(doc)
        assert main(["analyze", "--input", str(path), "--order", "6", "--json"]) == 0
        rep = json.loads(capsys.readouterr().out)
        assert rep["results"]["verdict"] == "CenterCandidate(6)"

    def test_get_deterministic(self, capsys):
        assert main(["catalog", "get", "chava23", "--param", "a=1"]) == 0
        first = capsys.readouterr().out
        assert main(["catalog", "get", "chava23", "--param", "a=1"]) == 0
        assert capsys.readouterr().out == first

    def test_clockwise_entry_keeps_printed_form(self, capsys):
        assert main(["catalog", "get", "loud2"]) == 0
        _, _, meta = parse_system(capsys.readouterr().out)
        assert meta["orientation"] == "clockwise"
        printed_x = meta["printed"]["x_dot"]
        assert {"c": 1, "i": 0, "j": 1} in printed_x  # +y before reversal

    def test_get_carries_the_darboux_candidate(self, capsys):
        assert main(["catalog", "get", "chava56", "--param", "a=1"]) == 0
        meta = json.loads(capsys.readouterr().out)["metadata"]
        assert meta["darboux"] == {
            "form": "Power", "g": [{"c": 3, "i": 0, "j": 1}], "lambda": "2/3",
        }

    def test_unknown_family_exits_2(self, capsys):
        assert main(["catalog", "get", "lorenz"]) == 2
        assert "UnknownName" in capsys.readouterr().err

    def test_missing_required_param_exits_2(self, capsys):
        assert main(["catalog", "get", "schl1", "--param", "a=1"]) == 2
        assert "MissingParam" in capsys.readouterr().err

    def test_decimal_param_exits_2(self, capsys):
        assert main(["catalog", "get", "bautin", "--param", "lam5=0.5"]) == 2
        assert "decimal" in capsys.readouterr().err


CLI_DATA = Path(__file__).parent / "data" / "cli"


def scipy_loaded_after(argv, setup=""):
    """Run the statement setup, then centerfocus.cli.main(argv), or only
    import the package when argv is None, in a fresh interpreter with this
    one's -O level; return its exit status and whether SciPy was imported."""
    script = textwrap.dedent("""
        import contextlib, io, json, sys
        exec(sys.argv[2])
        argv = json.loads(sys.argv[1])
        if argv is None:
            import centerfocus
            status = 0
        else:
            from centerfocus.cli import main
            with contextlib.redirect_stdout(io.StringIO()):
                status = main(argv)
        print(json.dumps([status, "scipy" in sys.modules]))
    """)
    src = Path(centerfocus.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(src)}
    flags = ["-O"] * sys.flags.optimize
    out = subprocess.run(
        [sys.executable, *flags, "-c", script, json.dumps(argv), setup],
        cwd=CLI_DATA, env=env, capture_output=True, text=True, timeout=120, check=True,
    )
    return tuple(json.loads(out.stdout))


@pytest.mark.parametrize("argv", [
    None,
    ["analyze", "--input", "bautin.json", "--order", "12"],
    ["inverse", "--spec", "ham.json", "--check-order", "8"],
    ["darboux", "--input", "uniso.json", "--curve", "line.json"],
    ["catalog", "list"],
    ["catalog", "get", "bautin", "--param", "lam5=1/2"],
], ids=["import", "analyze", "inverse", "darboux", "catalog-list", "catalog-get"])
def test_symbolic_commands_never_load_scipy(argv):
    assert scipy_loaded_after(argv) == (0, False)


FLOAT_COMMANDS = {
    "classify": ["classify", "--input", "bautin.json"],
    "returnmap": ["returnmap", "--input", "bautin.json", "--c", "0.1"],
    "period": ["period", "--input", "bautin.json", "--c", "0.1"],
    "orbit": ["orbit", "--input", "bautin.json", "--x0", "0.1", "--y0", "0", "--t", "5", "--out"],
}


@pytest.mark.parametrize("name", FLOAT_COMMANDS)
def test_float_commands_never_load_scipy(name, tmp_path):
    argv = FLOAT_COMMANDS[name] + ([str(tmp_path / "orbit.csv")] if name == "orbit" else [])
    assert scipy_loaded_after(argv) == (0, False)


def test_scipy_probe_sees_an_import():
    # the probes above can see SciPy: a run that imports it reads it loaded
    argv = FLOAT_COMMANDS["classify"]
    assert scipy_loaded_after(argv, setup="import scipy.integrate") == (0, True)


class TestParserReuse:
    """main builds its parser once per process; no call may leave state in
    it that changes a later call."""

    def test_built_once(self):
        assert build_parser() is build_parser()

    def test_golden_replays_twice_around_a_usage_error(self, tmp_path, monkeypatch, capsys):
        golden = load_golden()
        enter_replay_dir(tmp_path, monkeypatch)
        usage = []
        for _ in range(2):
            for name, argv in sorted(ALL_CASES.items()):
                assert run_case(argv, capsys) == golden[name], name
            usage.append(run_case(["classify"], capsys))
        assert usage[0]["exit"] == 1
        assert "the following arguments are required: --input" in usage[0]["stderr"]
        assert usage[1] == usage[0]

    def test_help_is_stable(self, capsys):
        outs = []
        for _ in range(2):
            with pytest.raises(SystemExit) as exc:
                main(["--help"])
            assert exc.value.code == 0
            outs.append(capsys.readouterr().out)
        assert outs[0] == outs[1]
