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
FAIL_PATH = _CHECKS + "test_each_fail_path_reports_its_message_under_optimize_flag"
TREE_TAMPER = _CHECKS + "test_tree_cycle_certificates_catch_tampers_under_optimize_flag"
KERNEL_TAMPER = _CHECKS + "test_kernel_lattice_catches_tampered_generators_under_optimize_flag"
SUITE = _CHECKS + "test_run_all_suite_groups"


def _raise_to_pass(line: str, tests: list[str], after: str = "") -> tuple:
    """The mutant of checks.py that replaces the raise line, followed by after, by `pass`."""
    indent = line[: len(line) - len(line.lstrip())]
    return ("checks.py", line + after, indent + "pass" + after, tests)


# (file under src/mckay_moduli/, exact old text, new text, tests expected to fail)
MUTANTS = [
    # every raise of checks.py
    _raise_to_pass(
        '        raise CertificateError("kernel lattices differ")',
        [f"{KERNEL_TAMPER}[tree-unit]", f"{TREE_TAMPER}[rank]"],
        after="\n    if row_hnf(",
    ),
    _raise_to_pass(
        '        raise CertificateError("kernel lattices differ")',
        [f"{KERNEL_TAMPER}[double]", f"{KERNEL_TAMPER}[unit]"],
        after="\n\n",
    ),
    _raise_to_pass(
        '            raise CertificateError(f"flow {u} for theta {theta} is not a nonnegative integer vector")',
        [f"{FAIL_PATH}[negative-flow]"],
    ),
    _raise_to_pass(
        '            raise CertificateError(f"flow {u} does not route theta {theta}")',
        [f"{FAIL_PATH}[extra-flow]"],
    ),
    _raise_to_pass(
        '            raise CertificateError(f"kernel vector {u} is not a sum of tree cycles")',
        [f"{FAIL_PATH}[non-cycle]", f"{TREE_TAMPER}[kernel-vector]",
         _CHECKS + "test_tampered_tree_fails_closed_walks"],
    ),
    _raise_to_pass(
        '        raise CertificateError(f"kernel basis of b has {len(basis)} vectors, not {len(off)}")',
        [f"{FAIL_PATH}[rank-off]", f"{TREE_TAMPER}[tree-cycle]"],
    ),
    _raise_to_pass(
        '        raise CertificateError(f"cycle types span {types}, not the trivial-degree lattice {lattice}")',
        [f"{FAIL_PATH}[doubled-lattice]",
         _CHECKS + "test_cycle_types_catches_a_redirected_arrow_under_optimize_flag",
         _CHECKS + "test_cycle_types_catches_a_relabelled_arrow_under_optimize_flag"],
    ),
    _raise_to_pass(
        '            raise CertificateError(f"flow polyhedron of theta {theta} is empty")',
        [f"{FAIL_PATH}[no-vertices]"],
    ),
    _raise_to_pass(
        '                raise CertificateError(f"flow vertex {vert} is not integral")',
        [f"{FAIL_PATH}[half-vertex]"],
    ),
    _raise_to_pass(
        '        raise CertificateError("H-descriptions differ between constructions")',
        [f"{FAIL_PATH}[drop-inequality]"],
    ),
    _raise_to_pass(
        '        raise CertificateError("V-descriptions differ between constructions")',
        [f"{FAIL_PATH}[drop-vertex]"],
    ),
    # closed-walks: the tree completion and the count
    ("checks.py", "        for k in reversed(tree):", "        for k in tree:", [SUITE]),
    ("checks.py", "total[k] = -inflow[", "total[k] = inflow[", [SUITE]),
    ("checks.py", "            inflow[arrows[k].tail] -= total[k]\n", "", [SUITE]),
    ("checks.py", "    if len(basis) != len(off):", "    if len(basis) > len(off):",
     [f"{FAIL_PATH}[rank-off]", f"{TREE_TAMPER}[tree-cycle]"]),
    # _tree_cycles: the label counts and the types read off them
    ("checks.py", "                labels[a.head][a.label - 1] += 1\n", "",
     [_CHECKS + "test_cycle_type_identification_bound_six"]),
    ("checks.py", "            types[-1][a.label - 1] += 1", "            types[-1][a.label - 1] -= 1",
     [_CHECKS + "test_cycle_type_identification_bound_six"]),
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
