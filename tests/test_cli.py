import ast
import errno
import io
import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import golden
from conftest import generic_theta, src_env
from mckay_moduli import checks, cli
from mckay_moduli.cli import main, parse_group_spec
from mckay_moduli.errors import GroupSpecError, InputError, ModuliError
from mckay_moduli.polyhedra import HPolyhedron, h_to_v, locate_cone, normal_fan


def run_cli(capsys, *argv):
    rc = main(list(argv))
    out = capsys.readouterr()
    return rc, out.out, out.err


def test_parse_group_spec_cyclic():
    assert parse_group_spec("1/7(1,2)") == ((7,), ((1, 2),))
    assert parse_group_spec("  1/11(1,2,8) ") == ((11,), ((1, 2, 8),))
    assert parse_group_spec("1/3(1,-2)") == ((3,), ((1, -2),))


def test_parse_group_spec_product():
    assert parse_group_spec("2x2:1,0;0,1") == ((2, 2), ((1, 0), (0, 1)))
    assert parse_group_spec("2x4:1,1;0,3") == ((2, 4), ((1, 1), (0, 3)))


@pytest.mark.parametrize(
    "spec,position", [("1/²(1,2)", 2), ("²x2:1,0;0,1", 0), ("1/7(1,٣)", 6)]
)
def test_non_ascii_digit_in_group_is_input_error(capsys, spec, position):
    rc, out, err = run_cli(capsys, "quiver", "--group", spec)
    assert rc == 2 and out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:")
    assert lines[0].endswith(f"(at position {position})")


_PAD = st.sampled_from(["", " ", "  "])
# Texts that each kind of piece must reject.  "1/1.5(" is read as the order 1 followed
# by a stray ".", so "1.5" is not a bad cyclic order at the order's own position.
_BAD = {
    "order": ["", "a", "²", "1.5", "-2", "0"],
    "cyclic order": ["", "a", "²", "-2", "0"],
    "weight": ["", "a", "²", "1.5"],
}


@st.composite
def _built_specs(draw):
    """(orders, rows, parts) for a spec in either grammar.  The parts, joined, are the spec:
    separators as strings and each order and weight as [kind, lead, text, trail], with 0-2
    spaces on either side (none inside "1/r(", where the grammar allows none)."""
    cyclic = draw(st.booleans())
    k = 1 if cyclic else draw(st.integers(1, 3))
    n = draw(st.integers(1, 4))
    orders = draw(st.lists(st.integers(1, 60), min_size=k, max_size=k))
    rows = [draw(st.lists(st.integers(-60, 60), min_size=n, max_size=n)) for _ in range(k)]

    def pieces(kind, values, sep):
        out = []
        for v in values:
            out += [sep, [kind, draw(_PAD), str(v), draw(_PAD)]]
        return out[1:]

    if cyclic:
        parts = ["1/", ["cyclic order", "", str(orders[0]), ""], "(",
                 *pieces("weight", rows[0], ","), ")"]
    else:
        parts = [*pieces("order", orders, "x"), ":"]
        for i, row in enumerate(rows):
            parts += [";"] * (i > 0) + pieces("weight", row, ",")
    parts = [draw(_PAD), *parts, draw(_PAD)]
    return tuple(orders), tuple(map(tuple, rows)), parts


def _render(parts, at=None, text=None):
    """The spec, with piece number `at` holding text, and the position where that piece starts."""
    spec, start, count = "", None, 0
    for part in parts:
        if isinstance(part, str):
            spec += part
            continue
        _, lead, value, trail = part
        if count == at:
            start, value = len(spec), text
        spec += lead + value + trail
        count += 1
    return spec, start


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(_built_specs(), st.data())
def test_group_spec_errors_point_at_the_bad_piece(built, data):
    orders, rows, parts = built
    assert parse_group_spec(_render(parts)[0]) == (orders, rows)
    pieces = [p for p in parts if not isinstance(p, str)]
    at = data.draw(st.integers(0, len(pieces) - 1))
    kind, lead, _, _ = pieces[at]
    bad = data.draw(st.sampled_from(_BAD[kind]))
    spec, start = _render(parts, at, bad)
    with pytest.raises(GroupSpecError) as err:
        parse_group_spec(spec)
    if bad:
        assert err.value.position == start + len(lead)
    else:
        # An empty piece is reported where the run of spaces that holds it begins.
        assert err.value.position == len(spec[:start].rstrip())


def test_quiver_json_golden(capsys):
    rc, out, _ = run_cli(capsys, "quiver", "--group", "1/7(1,2)")
    assert rc == 0
    doc = json.loads(out)
    assert doc["schema"] == "mckay-moduli/1"
    assert doc["quiver"]["c"] == [list(r) for r in golden.C_MATRIX_7_12]
    assert len(doc["quiver"]["arrows"]) == 14
    assert doc["group"]["orders"] == [7]


def test_quiver_trivial_group(capsys):
    rc, out, _ = run_cli(capsys, "quiver", "--group", "1/1(0)")
    assert rc == 0
    doc = json.loads(out)
    assert len(doc["quiver"]["vertices"]) == 1
    assert len(doc["quiver"]["arrows"]) == 1
    arrow = doc["quiver"]["arrows"][0]
    assert arrow["head"] == 0 and arrow["tail"] == 0


def test_bad_theta_exit_code(capsys):
    rc, _, err = run_cli(capsys, "fan", "--group", "1/3(1,1,1)", "--theta", "1,1,1")
    assert rc == 2
    assert "error" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("fan", "--group", "1/11(1,2,8)", "--theta", "1,1,1,1,-7,-9,1,1,1,8,\u0661"),
        ("rep", "--group", "1/7(1,2,4)", "--ghilb", "-w", "1,\u0662,1"),
    ],
    ids=["theta", "w"],
)
def test_non_ascii_digit_in_rational_is_usage_error(capsys, argv):
    rc, out, err = run_cli(capsys, *argv)
    assert rc == 2 and out == ""
    assert "not a rational number" in err


@pytest.mark.parametrize("value", ["-3", "1/2", "0.5", "+1", ".5", "1."])
def test_ascii_rationals_keep_their_meaning(value):
    assert cli._rational_csv(f" {value} ,1") == (Fraction(value), 1)


# Fraction reads exponents and digit separators; the documented grammar does not.
@pytest.mark.parametrize("value", ["1e1", "2.5E-1", "1_0"])
@pytest.mark.parametrize("argv", [
    ("fan", "--group", "1/2(1)", "--theta", "{},-10"),
    ("rep", "--group", "1/2(1)", "--ghilb", "-w", "{}"),
], ids=["theta", "w"])
def test_exponents_and_separators_are_usage_errors(capsys, argv, value):
    rc, out, err = run_cli(capsys, *argv[:-1], argv[-1].format(value))
    assert rc == 2 and out == ""
    assert f"not a rational number: {value!r}" in err


def test_negative_w_exit_code(capsys):
    rc, _, err = run_cli(
        capsys, "rep", "--group", "1/3(1,1,1)", "--theta", "-2,1,1", "--w", "-1,0,0"
    )
    assert rc == 2


@pytest.mark.parametrize(
    "w,message",
    [
        ("1,0", "error: weight vector has length 2, expected 3\n"),
        ("1,-1,0", "error: weight vector entries must be nonnegative\n"),
    ],
    ids=["wrong-length", "negative"],
)
def test_rep_validates_w_before_any_geometry(capsys, monkeypatch, w, message):
    def broken(*args, **kwargs):
        raise ModuliError("theta_polyhedron ran before w was validated")

    monkeypatch.setattr(cli, "theta_polyhedron", broken)
    rc, out, err = run_cli(capsys, "rep", "--group", "1/7(1,2,4)", "--ghilb", "-w", w)
    assert rc == 2
    assert out == ""
    assert err == message


@pytest.mark.parametrize(
    "theta,value", [("1,-1", "-1/5"), ("2,-2", "-2/5"), ("1/2,-1/2", "-1/10")]
)
def test_rep_value_is_at_theta_as_given(capsys, theta, value):
    # The type polyhedron is built at theta's primitive integral rescaling
    # theta' = (1, -1), so every theta prints the same vertices; value is
    # theta . v, that is -(theta / theta') * min w . m over those vertices.
    rc, out, _ = run_cli(capsys, "fan", "--group", "1/2(1,1)", f"--theta={theta}")
    assert rc == 0
    assert json.loads(out)["p_theta"]["vertices"] == [["0/1", "1/1"], ["1/1", "0/1"]]
    rc, out, _ = run_cli(capsys, "rep", "--group", "1/2(1,1)", f"--theta={theta}", "-w", "1/3,1/5")
    assert rc == 0
    assert json.loads(out)["rep"]["value"] == value


def test_svg_requires_three_coordinates(capsys, tmp_path):
    target = tmp_path / "fan.svg"
    rc, _, err = run_cli(
        capsys, "fan", "--group", "1/2(1,1)", "--theta", "-1,1",
        "--svg", str(target),
    )
    assert rc == 2
    assert err == "error: the SVG cross-section is only defined for 3 coordinates\n"
    assert not target.exists()


def test_svg_rejected_before_the_polyhedron_is_built(capsys, monkeypatch, tmp_path):
    def broken(*args, **kwargs):
        raise AssertionError("theta_polyhedron ran for an SVG that cannot be drawn")

    monkeypatch.setattr(cli, "theta_polyhedron", broken)
    target = tmp_path / "fan.svg"
    rc, out, err = run_cli(
        capsys, "fan", "--group", "1/41(1,5,12,23)", "--ghilb", "--svg", str(target)
    )
    assert rc == 2
    assert out == ""
    assert err == "error: the SVG cross-section is only defined for 3 coordinates\n"
    assert not target.exists()


def test_svg_output(capsys, tmp_path):
    target = tmp_path / "fan.svg"
    rc, out, _ = run_cli(
        capsys, "fan", "--group", "1/3(1,1,1)", "--theta", "-2,1,1",
        "--svg", str(target),
    )
    assert rc == 0
    svg = target.read_text()
    assert svg.startswith("<svg")
    assert "legend" in svg
    assert "0: (" in svg
    assert svg.count("<polygon") == 3
    assert svg.count("<circle") == 4


def test_fan_json_weight_one(capsys):
    rc, out, _ = run_cli(capsys, "fan", "--group", "1/3(1,1,1)", "--theta", "-2,1,1")
    assert rc == 0
    doc = json.loads(out)
    pt = doc["p_theta"]
    ineqs = {(tuple(i["coeffs"]), i["rhs"]) for i in pt["inequalities"]}
    assert ineqs == golden.W1_INEQS
    verts = {tuple(Fraction(x) for x in v) for v in pt["vertices"]}
    assert verts == {(3, 0, 0), (0, 3, 0), (0, 0, 3)}
    assert {tuple(r) for r in pt["rays"]} == {(1, 0, 0), (0, 1, 0), (0, 0, 1)}
    fan = doc["fan"]
    assert {tuple(r) for r in fan["rays"]} == golden.W1_FAN_RAYS
    assert len(fan["maximal_cones"]) == 3
    assert "charts" not in fan


def test_fan_with_charts(capsys):
    rc, out, _ = run_cli(
        capsys, "fan", "--group", "1/3(1,1,1)", "--theta", "-2,1,1", "--charts", "6"
    )
    assert rc == 0
    doc = json.loads(out)
    charts = doc["fan"]["charts"]
    assert len(charts) == 3
    assert all(ch["saturated_up_to_bound"] for ch in charts)
    assert all(ch["bound"] == 6 for ch in charts)


def test_chart_missed_at_bound_5_is_saturated_at_bound_6(capsys):
    # At bound 5 the chart at (0, 3, 14, 1) reports (0, 2, 0, -2) missing; the
    # second summand of (0, 0, 3, -1) + (0, 2, -3, -1) has |q|_1 = 6.
    rc, out, _ = run_cli(
        capsys, "fan", "--group", "1/8(1,3,5,7)", "--theta", "-4,-1,-4,2,-5,0,3,9",
        "--charts", "6",
    )
    assert rc == 0
    (chart,) = [ch for ch in json.loads(out)["fan"]["charts"] if ch["vertex"] == [0, 3, 14, 1]]
    assert chart["saturated_up_to_bound"] and chart["missing"] == []
    assert [0, 0, 3, -1] in chart["generators"] and [0, 2, -3, -1] in chart["generators"]


def test_fan_theta_zero_single_cone(capsys):
    rc, out, _ = run_cli(capsys, "fan", "--group", "1/2(1,1)", "--theta", "0,0")
    assert rc == 0
    doc = json.loads(out)
    assert len(doc["fan"]["maximal_cones"]) == 1


# Each fan runs with and without --lifted: every --lifted anchor of
# test_output_contract.py, the two larger lifted G-Hilb fans of the
# benchmark's exact-enum workload, and the golden theta at r = 11, G-Hilb at
# r = 13 and a seeded generic theta at n = 4.
LIFTED_FANS = [
    ("fan", "--group", "1/3(1,1,1)", "--theta", "-2,1,1"),
    ("fan", "--group", "1/7(1,2,4)", "--ghilb"),
    ("fan", "--group", "1/3(1,1,1)", "--theta", "0,0,0", "--charts", "4"),
    ("fan", "--group", "1/3(1,1,1)", "--theta", "0,0,0", "--charts", "4", "--format", "text"),
    ("fan", "--group", "1/2(1)", "--ghilb"),
    ("fan", "--group", "2x2:1,0,1;0,1,1", "--ghilb"),
    ("fan", "--group", "1/8(1,2,5)", "--ghilb"),
    ("fan", "--group", "1/9(1,2,6)", "--ghilb"),
    ("fan", "--group", "1/11(1,2,8)", "--theta", ",".join(map(str, golden.EXAMPLE_THETA))),
    ("fan", "--group", "1/13(1,3,9)", "--ghilb"),
    ("fan", "--group", "1/8(1,3,5,7)", "--theta",
     ",".join(map(str, generic_theta(random.Random(1), 8)))),
]


@pytest.mark.parametrize("argv", LIFTED_FANS, ids=" ".join)
def test_lifted_and_oracle_documents_identical(capsys, argv):
    rc1, out1, _ = run_cli(capsys, *argv)
    rc2, out2, _ = run_cli(capsys, *argv, "--lifted")
    assert rc1 == rc2 == 0
    assert out1 == out2


def test_ghilb_flag_matches_explicit_theta(capsys):
    rc1, out1, _ = run_cli(capsys, "fan", "--group", "1/2(1,1)", "--ghilb")
    rc2, out2, _ = run_cli(capsys, "fan", "--group", "1/2(1,1)", "--theta", "-1,1")
    assert rc1 == rc2 == 0
    assert out1 == out2
    doc = json.loads(out1)
    assert doc["theta"] == ["-1/1", "1/1"]


def test_ghilb_excludes_theta(capsys):
    rc, _, _ = run_cli(
        capsys, "fan", "--group", "1/2(1,1)", "--ghilb", "--theta", "-1,1"
    )
    assert rc == 2


def test_rep_document(capsys):
    rc, out, _ = run_cli(
        capsys, "rep", "--group", "1/3(1,1,1)", "--theta", "-2,1,1", "--w", "1,2,2"
    )
    assert rc == 0
    doc = json.loads(out)
    rep = doc["rep"]
    assert set(rep["b"]) <= {0, 1}
    assert rep["tight_set"] == sorted(rep["tight_set"])
    assert all(rep["b"][k] == 1 for k in rep["tight_set"])
    assert sum(rep["b"]) == len(rep["tight_set"])
    assert rep["mode"] == "face"
    for token in rep["w"] + rep["v"] + [rep["value"]]:
        num, den = token.split("/")
        assert Fraction(int(num), int(den)) == Fraction(token)


def test_rep_single_optimizer_flag(capsys):
    rc, out, _ = run_cli(
        capsys, "rep", "--group", "1/3(1,1,1)", "--theta", "-2,1,1",
        "--w", "1,2,2", "--single-optimizer",
    )
    assert rc == 0
    doc = json.loads(out)
    assert doc["rep"]["mode"] == "single"


def test_rep_w_zero_all_ones(capsys):
    rc, out, _ = run_cli(
        capsys, "rep", "--group", "1/5(1,3)", "--ghilb", "--w", "0,0"
    )
    assert rc == 0
    doc = json.loads(out)
    assert doc["rep"]["b"] == [1] * 10


def test_byte_determinism_small(capsys):
    args = ("fan", "--group", "1/3(1,1,1)", "--theta", "-2,1,1", "--charts", "4")
    rc1, out1, _ = run_cli(capsys, *args)
    rc2, out2, _ = run_cli(capsys, *args)
    assert rc1 == rc2 == 0
    assert out1 == out2


def test_check_command_passes(capsys):
    rc, out, _ = run_cli(capsys, "check", "--group", "1/7(1,2)")
    assert rc == 0
    assert "all checks passed" in out
    assert "FAIL" not in out


def test_check_command_klein(capsys):
    rc, out, _ = run_cli(capsys, "check", "--group", "2x2:1,0;0,1")
    assert rc == 0
    assert "ok   construction-agreement" in out


def test_check_command_n_one(capsys):
    rc, out, _ = run_cli(capsys, "check", "--group", "1/2(1)")
    assert rc == 0
    assert "all checks passed" in out


def test_output_flag_writes_file(capsys, tmp_path):
    target = tmp_path / "doc.json"
    rc, out, _ = run_cli(
        capsys, "quiver", "--group", "1/2(1,1)", "--output", str(target)
    )
    assert rc == 0
    doc = json.loads(target.read_text())
    assert doc["schema"] == "mckay-moduli/1"


def test_text_format(capsys):
    rc, out, _ = run_cli(capsys, "quiver", "--group", "1/2(1,1)", "--format", "text")
    assert rc == 0
    assert "arrow" in out
    rc, out, _ = run_cli(
        capsys, "rep", "--group", "1/2(1,1)", "--theta", "-1,1", "--w", "1,1",
        "--format", "text",
    )
    assert rc == 0
    assert "tight set" in out


@pytest.mark.parametrize("flag,value", [("--bound", "0"), ("--seed", "1"), ("--trials", "5")])
def test_check_takes_only_a_group(capsys, flag, value):
    # check runs one fixed suite, so argparse refuses any setting for it.
    rc, out, err = run_cli(capsys, "check", "--group", "1/2(1)", flag, value)
    assert rc == 2
    assert out == ""
    lines = err.strip().splitlines()
    assert lines[0].startswith("usage:")
    assert lines[-1] == f"mckay-moduli: error: unrecognized arguments: {flag} {value}"


def test_missing_subcommand_is_input_error(capsys):
    rc = main([])
    capsys.readouterr()
    assert rc == 2


# The id names the kind of polyhedral failure; it is a bare ModuliError
# carrying the message its real raise site uses.
@pytest.mark.parametrize(
    "message", [pytest.param("cone is not pointed", id="PolyhedronError")]
)
def test_polyhedral_failures_are_internal_errors(capsys, monkeypatch, message):
    def broken(*args, **kwargs):
        raise ModuliError(message)

    monkeypatch.setattr(cli, "theta_polyhedron", broken)
    rc, out, err = run_cli(capsys, "fan", "--group", "1/7(1,2,4)", "--ghilb")
    assert rc == 1
    assert out == ""
    assert err == f"internal error: {message}\n"


def test_input_error_classes():
    # Malformed input is exactly an InputError; the one subclass carries a position.
    assert InputError.__subclasses__() == [GroupSpecError]


def test_internal_error_classes():
    # Besides malformed input, only a failed certificate has its own class, which
    # check reports as a FAIL row; any other internal failure is a bare ModuliError.
    names = {cls.__name__ for cls in ModuliError.__subclasses__()} - {"InputError"}
    assert names == {"CertificateError"}


# The ids name the kind of malformed input.
MALFORMED = {
    "InputError": (
        ("fan", "--group", "1/7(1,2,4)", "--ghilb", "--charts", "-1"),
        "chart bound must be nonnegative",
    ),
    "GroupSpecError": (
        ("quiver", "--group", "1/7(1,x)"),
        "expected an integer, got 'x' (at position 6)",
    ),
    "EmptySpec": (
        ("quiver", "--group", "   "),
        "empty group spec (at position 0)",
    ),
    "EmptyLiteralSpec": (
        ("quiver", "--group", ""),
        "empty group spec (at position 0)",
    ),
    "NoCyclicOrder": (
        ("quiver", "--group", "1/(1,2)"),
        "expected the cyclic order after '1/' (at position 2)",
    ),
    "ZeroCyclicOrder": (
        ("quiver", "--group", "1/0(1)"),
        "cyclic order must be positive (at position 2)",
    ),
    "NoOpenParen": (
        ("quiver", "--group", "1/7 (1,2)"),
        "expected '(' after the cyclic order (at position 3)",
    ),
    "NoCloseParen": (
        ("quiver", "--group", "1/7(1,2"),
        "expected closing ')' (at position 6)",
    ),
    "ZeroCycleOrder": (
        ("quiver", "--group", "0x2:1;1"),
        "cycle orders must be positive (at position 0)",
    ),
    "BadCycleOrder": (
        ("quiver", "--group", "2xa:1;1"),
        "expected a positive cycle order, got 'a' (at position 2)",
    ),
    "RowCount": (
        ("quiver", "--group", "2x2:1,0"),
        "expected 2 weight rows, got 1 (at position 4)",
    ),
    "Unrecognized": (
        ("quiver", "--group", "7(1,2)"),
        "unrecognized group spec; use '1/r(a1,...,an)' or 'r1x...xrk:row1;...;rowk' (at position 0)",
    ),
    "BadShape": (
        ("rep", "--group", "1/7(1,2,4)", "--ghilb", "-w", "1,2"),
        "weight vector has length 2, expected 3",
    ),
    "BadTheta": (
        ("fan", "--group", "1/3(1,1,1)", "--theta", "1,1,1"),
        "parameter entries must sum to zero",
    ),
    "NegativeW": (
        ("rep", "--group", "1/7(1,2,4)", "--ghilb", "-w", "-1,2,3"),
        "weight vector entries must be nonnegative",
    ),
    "NonGenerating": (
        ("quiver", "--group", "1/4(2,2)"),
        "weight characters do not generate the character group",
    ),
    "TrivialGroup": (
        ("fan", "--group", "1/1(1)", "--ghilb"),
        "the trivial group admits no such parameter",
    ),
}



# No command line reaches this raise site, but the CLI still owes it exit 2:
# it is raised, with its real message, from inside the quiver command.
def _outside_support(group):
    quadrant = HPolyhedron(dim=2, inequalities=(((1, 0), 1), ((0, 1), 1)))
    locate_cone(normal_fan(quadrant, h_to_v(quadrant)), (-1, 0))


RAISED = {
    "OutsideSupport": (_outside_support, "vector is negative on a recession direction"),
}

INPUT_ERROR_CASES = [(argv, None, message) for argv, message in MALFORMED.values()] + [
    (("quiver", "--group", "1/7(1,2)"), raiser, message) for raiser, message in RAISED.values()
]


@pytest.mark.parametrize("argv,raiser,message", INPUT_ERROR_CASES, ids=[*MALFORMED, *RAISED])
def test_input_errors_exit_2_with_one_line(capsys, monkeypatch, argv, raiser, message):
    if raiser is not None:
        monkeypatch.setattr(cli, "build_quiver", raiser)
    rc, out, err = run_cli(capsys, *argv)
    assert rc == 2
    assert out == ""
    assert err == f"error: {message}\n"


def test_bare_moduli_error_is_internal(capsys, monkeypatch):
    def broken(group):
        raise ModuliError("inconsistent state")

    monkeypatch.setattr(cli, "build_quiver", broken)
    rc, out, err = run_cli(capsys, "quiver", "--group", "1/7(1,2)")
    assert rc == 1
    assert out == ""
    assert err == "internal error: inconsistent state\n"


def test_non_certificate_error_inside_check_is_internal(capsys, monkeypatch):
    # check turns only a CertificateError into a FAIL row.
    def broken(*args, **kwargs):
        raise ModuliError("precondition failed")

    monkeypatch.setattr(checks, "verify_theta_routing", broken)
    rc, out, err = run_cli(capsys, "check", "--group", "1/7(1,2)")
    assert rc == 1
    assert out == ""
    assert err == "internal error: precondition failed\n"


def test_input_error_raised_by_a_check_is_a_fail_row(capsys, monkeypatch):
    # theta-routing hands theta_decompose a parameter that no longer sums to
    # zero, so an InputError is raised inside the check: a failed row, not bad input.
    real = checks.theta_decompose
    monkeypatch.setattr(
        checks, "theta_decompose", lambda q, theta: real(q, (theta[0] + 1,) + theta[1:])
    )
    rc, out, err = run_cli(capsys, "check", "--group", "1/7(1,2)")
    assert rc == 1
    assert err == ""
    assert out.splitlines() == [
        "ok   kernel-lattice",
        "FAIL theta-routing: parameter entries must sum to zero",
        "ok   closed-walks",
        "ok   cycle-types",
        "ok   flow-vertex-integrality",
        "ok   construction-agreement",
        "some checks FAILED",
    ]


def test_shifted_kernel_basis_fails_two_rows(capsys, monkeypatch):
    # Every basis vector gains 1 in its first entry.  kernel-lattice compares
    # the commutation vectors with the shifted kernel of the cycle types.
    # cycle-types takes its cycle types from the tree, so they span the true
    # M of 1/7(1,2), but its trivial-degree lattice from the shifted
    # kernel_basis, and sees the two differ.  closed-walks asks for no kernel.
    real = checks.kernel_basis
    monkeypatch.setattr(
        checks, "kernel_basis", lambda m: [(v[0] + 1,) + tuple(v[1:]) for v in real(m)]
    )
    rc, out, err = run_cli(capsys, "check", "--group", "1/7(1,2)")
    assert rc == 1
    assert err == ""
    assert out.splitlines() == [
        "FAIL kernel-lattice: kernel lattices differ",
        "ok   theta-routing",
        "ok   closed-walks",
        "FAIL cycle-types: cycle types span ((1, 3), (0, 7)), "
        "not the trivial-degree lattice ((1, 5), (0, 6))",
        "ok   flow-vertex-integrality",
        "ok   construction-agreement",
        "some checks FAILED",
    ]


def test_negative_chart_bound_is_input_error(capsys):
    rc, out, err = run_cli(capsys, "fan", "--group", "1/7(1,2,4)", "--ghilb", "--charts", "-1")
    assert rc == 2
    assert out == ""
    assert err == "error: chart bound must be nonnegative\n"


def test_oracle_flag_is_gone(capsys):
    rc, out, _ = run_cli(capsys, "fan", "--group", "1/7(1,2,4)", "--ghilb", "--oracle")
    assert rc == 2
    assert out == ""


@pytest.mark.parametrize(
    "argv,target",
    [
        (("quiver", "--group", "1/7(1,2)", "--output"), "missing/x.json"),
        (("fan", "--group", "1/7(1,2,4)", "--ghilb", "--svg"), "missing/x.svg"),
        (("quiver", "--group", "1/7(1,2)", "--output"), ""),
    ],
    ids=["output-in-missing-dir", "svg-in-missing-dir", "output-is-a-directory"],
)
def test_unwritable_path_exits_2_with_one_line(capsys, tmp_path, argv, target):
    path = str(tmp_path / target)
    rc, out, err = run_cli(capsys, *argv, path)
    assert rc == 2
    assert out == ""
    assert err.startswith(f"error: cannot write {path}: ")
    assert err.count("\n") == 1


def test_write_failure_after_open_is_not_malformed_input(capsys, monkeypatch, tmp_path):
    # A full disk is not bad input: it exits 1, not 2.
    class FullFile(io.StringIO):
        def write(self, text):
            raise OSError(errno.ENOSPC, "No space left on device")

    monkeypatch.setattr(cli, "open", lambda path, mode: FullFile(), raising=False)
    path = str(tmp_path / "x.json")
    rc, out, err = run_cli(capsys, "quiver", "--group", "1/7(1,2)", "--output", path)
    assert rc == 1
    assert out == ""
    assert err == f"error: cannot write {path}: No space left on device\n"


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
@pytest.mark.parametrize(
    "argv,target",
    [
        (("quiver", "--group", "1/7(1,2)", "--output", "/dev/full"), "/dev/full"),
        (("quiver", "--group", "1/7(1,2)"), "stdout"),
        (("fan", "--group", "1/7(1,2,4)", "--ghilb", "--svg", "/dev/full"), "/dev/full"),
        (("check", "--group", "1/2(1)"), "stdout"),
    ],
    ids=["output", "stdout", "svg", "check-stdout"],
)
def test_full_device_exits_1_with_one_line(argv, target):
    # Buffered stdout keeps text that Python would flush, and fail on, at exit.
    env = src_env()
    env.pop("PYTHONUNBUFFERED", None)
    with open("/dev/full", "w") as full:
        out = subprocess.run(
            [sys.executable, "-m", "mckay_moduli.cli", *argv],
            env=env, stdout=full if target == "stdout" else subprocess.DEVNULL,
            stderr=subprocess.PIPE, text=True,
        )
    assert out.returncode == 1
    assert out.stderr == f"error: cannot write {target}: No space left on device\n"


def test_sources_parse_at_the_python_floor():
    # pyproject.toml promises Python 3.10; no file may use later syntax.
    sources = sorted(Path(cli.__file__).parent.glob("*.py"))
    assert sources
    for path in sources:
        ast.parse(path.read_text(), filename=str(path), feature_version=(3, 10))


_FAILING_PROPERTY = """
from hypothesis import given, settings
from hypothesis import strategies as st


@settings(database=None)
@given(st.integers())
def test_fails(x):
    assert x < 5
"""


def test_failing_property_reports_its_example(tmp_path):
    # Under the suite's warning filters a failing @given test must print its
    # falsifying example, not an INTERNALERROR from the plugin's report hook.
    (tmp_path / "test_property.py").write_text(_FAILING_PROPERTY)
    pyproject = Path(__file__).resolve().parent.parent / "pyproject.toml"
    out = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(pyproject), str(tmp_path / "test_property.py")],
        cwd=tmp_path, capture_output=True, text=True,
    )
    report = out.stdout + out.stderr
    assert out.returncode == 1, report
    assert "Falsifying example" in report
    assert "INTERNALERROR" not in report


@pytest.mark.parametrize(
    "argv",
    [
        ("quiver", "--group", "1/7(1,2)", "--format", "text"),
        ("fan", "--group", "1/7(1,2,4)", "--ghilb", "--output", "{tmp}/fan.txt",
         "--svg", "{tmp}/fan.svg", "--format", "text"),
        ("rep", "--group", "1/7(1,2,4)", "--ghilb", "-w", "1,2,3"),
        ("check", "--group", "1/5(1,3)"),
    ],
    ids=["quiver-text", "fan-files", "rep", "check"],
)
def test_module_entry_point_is_clean_in_dev_mode(tmp_path, argv):
    # The real entry point, through interpreter shutdown, with every warning
    # (resource, deprecation, encoding) an error.
    argv = [a.replace("{tmp}", str(tmp_path)) for a in argv]
    out = subprocess.run(
        [sys.executable, "-X", "dev", "-W", "error", "-m", "mckay_moduli.cli", *argv],
        env=src_env(), capture_output=True, text=True,
    )
    assert (out.returncode, out.stderr) == (0, "")
    if argv[0] == "fan":
        assert out.stdout == ""
        assert (tmp_path / "fan.txt").read_text().startswith("ray 0:")
        assert (tmp_path / "fan.svg").read_text().startswith("<svg")
    else:
        assert out.stdout
