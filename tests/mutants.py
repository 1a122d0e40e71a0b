"""Mutation checks: each mutant is one edit of the package, and named tests must fail on it.

Run from anywhere, outside the tier-1 suite:

    python tests/mutants.py          # every mutant
    python tests/mutants.py 0 4 7    # the mutants with these indices

For each mutant the runner copies src/ into a temporary directory, applies the
edit there, and runs the mutant's tests with only that copy on PYTHONPATH (the
`python -O` tests spawn their interpreters on the same copy).  A mutant whose
tests all pass survives; a run past TIMEOUT seconds counts as killed.  Before
any mutant, every anchor must match its file exactly once, every edited file
must compile, and the named tests must pass on the unedited copy, so a stale
table is an error, not a kill.  Exit status: 0 when every mutant is killed, 1
when one survives, 2 on a stale table or a failing baseline.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TIMEOUT = 600

_CHECKS = "tests/test_checks.py::"
_FLOW = "tests/test_flow.py::"
FAIL_PATH = _CHECKS + "test_each_fail_path_reports_its_message_under_optimize_flag"
TREE_TAMPER = _CHECKS + "test_tree_cycle_certificates_catch_tampers_under_optimize_flag"
KERNEL_TAMPER = _CHECKS + "test_kernel_lattice_catches_tampered_generators_under_optimize_flag"
TAMPERED_TREE = _CHECKS + "test_tampered_tree_fails_closed_walks"
_MODULI = "tests/test_moduli.py::"
_POLY = "tests/test_polyhedra.py::"
REP_TAMPER = _MODULI + "test_rep_certificate_checks_survive_optimize_flag"
_CLI = "tests/test_cli.py::"
EXIT_2 = _CLI + "test_input_errors_exit_2_with_one_line"
PIECES = _CLI + "test_group_spec_errors_point_at_the_bad_piece"


def _raise_to_pass(name: str, line: str, tests: list[str], after: str = "") -> tuple:
    """The mutant of file name that replaces the raise line, followed by after, by `pass`."""
    indent = line[: len(line) - len(line.lstrip())]
    return (name, line + after, indent + "pass" + after, tests)


# (file under src/mckay_moduli/, exact old text, new text, tests expected to fail)
MUTANTS = [
    # every raise of checks.py
    _raise_to_pass(
        "checks.py",
        '        raise CertificateError("kernel lattices differ")',
        [f"{KERNEL_TAMPER}[tree-unit]", f"{TREE_TAMPER}[rank]"],
        after="\n    if row_hnf(",
    ),
    _raise_to_pass(
        "checks.py",
        '        raise CertificateError("kernel lattices differ")',
        [f"{KERNEL_TAMPER}[double]", f"{KERNEL_TAMPER}[unit]"],
        after="\n\n",
    ),
    _raise_to_pass(
        "checks.py",
        '            raise CertificateError(f"flow {u} for theta {theta} is not a nonnegative integer vector")',
        [f"{FAIL_PATH}[negative-flow]"],
    ),
    _raise_to_pass(
        "checks.py",
        '            raise CertificateError(f"flow {u} does not route theta {theta}")',
        [f"{FAIL_PATH}[extra-flow]"],
    ),
    _raise_to_pass(
        "checks.py",
        '            raise CertificateError(f"column {k} of b is not arrow {k}\'s head less its tail")',
        [f"{TREE_TAMPER}[tree-cycle]", f"{TREE_TAMPER}[kernel-vector]"],
    ),
    _raise_to_pass(
        "checks.py",
        '            raise CertificateError(f"tree arrow {k} does not reach a new vertex from a reached one")',
        [f"{FAIL_PATH}[non-cycle]", TAMPERED_TREE],
    ),
    _raise_to_pass(
        "checks.py",
        '        raise CertificateError(f"the tree reaches {len(reached)} of {quiver.r} vertices")',
        [f"{FAIL_PATH}[rank-off]"],
    ),
    _raise_to_pass(
        "checks.py",
        '        raise CertificateError(f"cycle types span {types}, not the trivial-degree lattice {lattice}")',
        [f"{FAIL_PATH}[doubled-lattice]",
         _CHECKS + "test_cycle_types_catches_a_redirected_arrow_under_optimize_flag",
         _CHECKS + "test_cycle_types_catches_a_relabelled_arrow_under_optimize_flag"],
    ),
    _raise_to_pass(
        "checks.py",
        '            raise CertificateError(f"flow polyhedron of theta {theta} is empty")',
        [f"{FAIL_PATH}[no-vertices]"],
    ),
    _raise_to_pass(
        "checks.py",
        '                raise CertificateError(f"flow vertex {vert} is not integral")',
        [f"{FAIL_PATH}[half-vertex]"],
    ),
    _raise_to_pass(
        "checks.py",
        '        raise CertificateError("H-descriptions differ between constructions")',
        [f"{FAIL_PATH}[drop-inequality]"],
    ),
    _raise_to_pass(
        "checks.py",
        '        raise CertificateError("V-descriptions differ between constructions")',
        [f"{FAIL_PATH}[drop-vertex]"],
    ),
    # closed-walks: a tree arrow may arrive at a vertex already reached
    ("checks.py", " or arrows[k].head in reached:", ":", [f"{TAMPERED_TREE}[swapped-arrow]"]),
    # _tree_cycles: the label counts and the types read off them
    ("checks.py", "                labels[a.head][a.label - 1] += 1\n", "",
     [_CHECKS + "test_cycle_type_identification_bound_six"]),
    ("checks.py", "            types[-1][a.label - 1] += 1", "            types[-1][a.label - 1] -= 1",
     [_CHECKS + "test_cycle_type_identification_bound_six"]),
    # every raise of flow.py's certificate check, and min_cost_flow's cost validation
    _raise_to_pass(
        "flow.py",
        '        raise CertificateError("flow certificate has the wrong shape")',
        [_FLOW + "test_tampered_flow_raises"],
    ),
    _raise_to_pass(
        "flow.py",
        '            raise CertificateError(f"negative flow on arrow {k}")',
        [_FLOW + "test_tampered_flow_raises"],
    ),
    _raise_to_pass(
        "flow.py",
        '            raise CertificateError(f"negative reduced cost on arrow {k}")',
        [_FLOW + "test_tampered_potential_raises"],
    ),
    _raise_to_pass(
        "flow.py",
        '            raise CertificateError(f"complementary slackness fails on arrow {k}")',
        [_FLOW + "test_tampered_cost_raises"],
    ),
    _raise_to_pass(
        "flow.py",
        '        raise CertificateError("flow does not route theta")',
        [_FLOW + "test_tampered_flow_raises"],
    ),
    _raise_to_pass(
        "flow.py",
        '        raise CertificateError("flow cost does not match the value")',
        [_FLOW + "test_tampered_value_raises"],
    ),
    _raise_to_pass(
        "flow.py",
        '        raise CertificateError("flow costs must be nonnegative integers")',
        [_FLOW + "test_kernel_rejects_bad_input"],
    ),
    # every raise of moduli.py
    _raise_to_pass(
        "moduli.py",
        '                raise CertificateError("flow minimum lies above an inner facet")',
        [_MODULI + "test_oracle_rejects_a_flow_minimum_above_its_row"],
    ),
    _raise_to_pass(
        "moduli.py",
        '            raise CertificateError(f"ray {ray} of the potential cone violates an arrow row")',
        [_MODULI + "test_lifted_path_rejects_a_ray_outside_the_potential_cone"],
    ),
    _raise_to_pass(
        "moduli.py",
        '        raise CertificateError(f"vertex {vidx} of the type polyhedron is not integral")',
        [_MODULI + "test_charts_reject_a_fractional_vertex"],
    ),
    _raise_to_pass(
        "moduli.py",
        '            raise CertificateError(f"arrow relation fails at vertex {quiver.arrows[p1].head}")',
        [f"{REP_TAMPER}[broken-square]"],
    ),
    _raise_to_pass(
        "moduli.py",
        '        raise CertificateError("the optimal face has no greatest potential")',
        [f"{REP_TAMPER}[flow-not-optimal]"],
    ),
    _raise_to_pass(
        "moduli.py",
        '        raise CertificateError("the greatest potential is not optimal")',
        [f"{REP_TAMPER}[wrong-flow-value]", f"{REP_TAMPER}[potential-not-greatest]"],
    ),
    # every CertificateError of polyhedra.py: the homogenizing coordinate, the
    # trivial row of v_to_h, and normal_fan's checks (a), (b) and (c)
    _raise_to_pass(
        "polyhedra.py",
        '            raise CertificateError(f"homogenizing coordinate of ray {z} is negative")',
        [_MODULI + "test_h_to_v_rejects_a_ray_below_the_hyperplane_at_infinity"],
    ),
    _raise_to_pass(
        "polyhedra.py",
        '                raise CertificateError(f"inconsistent trivial inequality 0 >= {-c}")',
        [_POLY + "test_v_to_h_rejects_an_inconsistent_trivial_row"],
    ),
    _raise_to_pass(
        "polyhedra.py",
        '            raise CertificateError("vertex violates an inequality")',
        [_POLY + "test_vertex_facet_incidence_rejects_outside_point",
         _MODULI + "test_closing_rejects_a_point_outside_the_rows"],
    ),
    _raise_to_pass(
        "polyhedra.py",
        '        raise CertificateError("ray violates an inequality")',
        [_POLY + "test_vertex_facet_incidence_rejects_outside_ray"],
    ),
    _raise_to_pass(
        "polyhedra.py",
        '            raise CertificateError(f"row {coeffs} >= {rhs} is not a facet")',
        [_POLY + "test_normal_fan_rejects_a_redundant_row",
         _POLY + "test_normal_fan_rejects_a_missing_ray",
         _MODULI + "test_oracle_rejects_a_vertex_no_flow_reached",
         _MODULI + "test_closing_rejects_a_recession_cone_beyond_the_orthant"],
    ),
    _raise_to_pass(
        "polyhedra.py",
        '                raise CertificateError(f"edge {e} at vertex {p} ends at no returned vertex")',
        [_POLY + "test_normal_fan_rejects_a_dropped_vertex",
         _POLY + "test_normal_fan_rejects_a_dropped_vertex_behind_duplicates",
         _MODULI + "test_both_methods_reject_a_dropped_vertex"],
    ),
    # the double description's adjacency test: a pair that passes the popcount filter is
    # not adjacent when a third ray is tight on every row it shares; the new ray is tight
    # on the row it was made for
    ("polyhedra.py",
     "                if both.bit_count() == 2:\n                    sp, sq",
     "                if both:\n                    sp, sq",
     [_POLY + "test_pointed_dd_matches_scan_reference",
      _POLY + "test_pointed_dd_matches_scan_reference_on_lifted_cones"]),
    ("polyhedra.py", "new_masks.append(common | (1 << b))", "new_masks.append(common)",
     [_POLY + "test_h_to_v_square",
      _POLY + "test_cone_double_description_lifted_cone_matches_dense_reference"]),
    # each initial ray is tight on every selected row but its own
    ("polyhedra.py", "masks = [((1 << d) - 1) ^ (1 << j) for j in range(d)]",
     "masks = [((1 << d) - 1) for j in range(d)]",
     [_POLY + "test_pointed_dd_matches_scan_reference_on_lifted_cones",
      _POLY + "test_cone_double_description_lifted_cone_matches_dense_reference"]),
    # every raise of the group spec parser in cli.py
    _raise_to_pass(
        "cli.py",
        '            raise GroupSpecError(f"expected an integer, got {tok!r}", pos)',
        [f"{EXIT_2}[GroupSpecError]", PIECES],
    ),
    _raise_to_pass(
        "cli.py",
        '        raise GroupSpecError("empty group spec", 0)',
        [f"{EXIT_2}[EmptySpec]", f"{EXIT_2}[EmptyLiteralSpec]"],
    ),
    _raise_to_pass(
        "cli.py",
        '            raise GroupSpecError("expected the cyclic order after \'1/\'", base + 2)',
        [f"{EXIT_2}[NoCyclicOrder]", PIECES],
    ),
    _raise_to_pass(
        "cli.py",
        '            raise GroupSpecError("cyclic order must be positive", base + 2)',
        [f"{EXIT_2}[ZeroCyclicOrder]", PIECES],
    ),
    _raise_to_pass(
        "cli.py",
        '            raise GroupSpecError("expected \'(\' after the cyclic order", base + j)',
        [f"{EXIT_2}[NoOpenParen]"],
    ),
    _raise_to_pass(
        "cli.py",
        '            raise GroupSpecError("expected closing \')\'", base + len(s) - 1)',
        [f"{EXIT_2}[NoCloseParen]"],
    ),
    _raise_to_pass(
        "cli.py",
        '                raise GroupSpecError(f"expected a positive cycle order, got {tok!r}", pos)',
        [f"{EXIT_2}[BadCycleOrder]", PIECES],
    ),
    _raise_to_pass(
        "cli.py",
        '                raise GroupSpecError("cycle orders must be positive", pos)',
        [f"{EXIT_2}[ZeroCycleOrder]", PIECES],
    ),
    _raise_to_pass(
        "cli.py",
        '            raise GroupSpecError(f"expected {len(orders)} weight rows, got {len(rows)}", at)',
        [f"{EXIT_2}[RowCount]"],
    ),
    _raise_to_pass(
        "cli.py",
        '''    raise GroupSpecError(
        "unrecognized group spec; use '1/r(a1,...,an)' or 'r1x...xrk:row1;...;rowk'",
        base,
    )''',
        [f"{EXIT_2}[Unrecognized]"],
    ),
]


def _run(tests: list[str], edit: tuple[str, str, str] | None = None) -> str:
    """'passed', 'failed' or 'timeout' for the tests on a copy of src/ with edit applied."""
    with tempfile.TemporaryDirectory() as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
        if edit:
            name, old, new = edit
            target = src / "mckay_moduli" / name
            target.write_text(target.read_text().replace(old, new))
        env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
        cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests]
        try:
            proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, timeout=TIMEOUT)
        except subprocess.TimeoutExpired:
            return "timeout"
        return "passed" if proc.returncode == 0 else "failed"


def main(argv: list[str]) -> int:
    chosen = [int(a) for a in argv] or range(len(MUTANTS))
    stale = []
    for i in chosen:
        name, old, new, _ = MUTANTS[i]
        text = (ROOT / "src" / "mckay_moduli" / name).read_text()
        if text.count(old) != 1:
            stale.append(f"{i}: {name} does not hold {old!r} exactly once")
            continue
        try:
            compile(text.replace(old, new), name, "exec")
        except SyntaxError as exc:
            stale.append(f"{i}: the edited {name} does not compile: {exc}")
    if stale:
        print("stale anchors:", *stale, sep="\n  ")
        return 2
    tests = sorted({t for i in chosen for t in MUTANTS[i][3]})
    if _run(tests) != "passed":
        print("the named tests do not all pass on the unedited source")
        return 2
    survivors = 0
    for i in chosen:
        name, old, new, tests = MUTANTS[i]
        verdict = {"passed": "SURVIVED", "failed": "killed", "timeout": "killed (timeout)"}[
            _run(tests, (name, old, new))
        ]
        survivors += verdict == "SURVIVED"
        print(f"{i:2} {verdict:16} {name}: {old.strip().splitlines()[0][:60]!r}", flush=True)
    print(f"{len(chosen)} mutants, {survivors} survived")
    return int(survivors > 0)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
