import ast
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import SUITE_GROUPS, src_env
from flow_oracle import flow_images_up_to
import mckay_moduli
from mckay_moduli import build_group, build_quiver, checks, incidence_matrices, theta_decompose
from mckay_moduli.checks import (
    random_parameter,
    run_all,
    verify_closed_walks,
    verify_cycle_types,
    verify_kernel_lattice,
)
from mckay_moduli.cli import parse_group_spec
from mckay_moduli.intlinalg import kernel_basis, mat_vec, row_hnf
from mckay_moduli.moduli import _l1_ball


@pytest.mark.parametrize("spec,orders,weights", SUITE_GROUPS)
def test_run_all_suite_groups(spec, orders, weights):
    q = build_quiver(build_group(orders, weights))
    results = run_all(q)
    failures = [(name, detail) for name, ok, detail in results if not ok]
    assert failures == []
    names = [name for name, _, _ in results]
    assert "kernel-lattice" in names
    assert "cycle-types" in names


def test_kernel_lattice_on_larger_groups():
    # The binomial vectors generate the full integer kernel, and every integer
    # cycle is a sum of tree cycles, also at sizes where the general
    # enumeration checks are skipped: n = 4, a non-cyclic group, the trivial
    # group, n = 1, r = 61 and 127, and loops beside a spanning tree (label 3 of 1/3(1,2,0)).
    beyond = [
        "1/8(1,3,5,7)", "2x4:1,1,0;0,1,3", "1/1(1,1)", "1/2(1)", "1/61(1,11,49)",
        "1/127(1,19,107)", "1/3(1,2,0)",
    ]
    groups = [([11], [[1, 2, 8]]), ([6], [[1, 2, 3]]), ([13], [[1, 5]])]
    for orders, weights in groups + [parse_group_spec(spec) for spec in beyond]:
        q = build_quiver(build_group(orders, weights))
        verify_kernel_lattice(q)
        verify_closed_walks(q)


def test_theta_routing_hundred_parameters():
    # one hundred random parameters across the suite groups
    per_group = 20
    for idx, (spec, orders, weights) in enumerate(SUITE_GROUPS):
        q = build_quiver(build_group(orders, weights))
        b = incidence_matrices(q).b
        rng = random.Random(100 + idx)
        for _ in range(per_group):
            theta = random_parameter(q, rng)
            u = theta_decompose(q, theta)
            assert all(isinstance(x, int) and x >= 0 for x in u)
            assert tuple(mat_vec(b, u)) == theta


def test_cycle_type_identification_bound_six():
    # The suite groups, then n = 4, a non-cyclic group, the trivial group, n = 1, r = 61
    # and three groups up to r = 1021, where the sparse tree keeps cycle-types in
    # milliseconds and closed-walks, which reads b column by column, under a second.
    beyond = [
        "1/8(1,3,5,7)", "2x4:1,1,0;0,1,3", "1/1(1,1)", "1/2(1)", "1/61(1,11,49)",
        "1/251(1,20,230)", "1/509(1,30,478)", "1/1021(1,45,975)",
    ]
    groups = [(orders, weights) for _, orders, weights in SUITE_GROUPS]
    for orders, weights in groups + [parse_group_spec(spec) for spec in beyond]:
        q = build_quiver(build_group(orders, weights))
        verify_cycle_types(q)
        verify_closed_walks(q)


def _cycle_types(q):
    """Hermite normal form of the types d * u of the integer cycles u of the quiver."""
    inc = incidence_matrices(q)
    return row_hnf([mat_vec(inc.d, u) for u in kernel_basis(inc.b)])


@pytest.mark.parametrize(
    "spec,hnf",
    [
        ("1/7(1,2)", ((1, 3), (0, 7))),
        ("1/13(1,3,9)", ((1, 0, 10), (0, 1, 4), (0, 0, 13))),
        ("2x4:1,1,0;0,1,3", ((1, 1, 1), (0, 2, 2), (0, 0, 4))),
    ],
)
def test_cycle_types_hnf(spec, hnf):
    assert _cycle_types(build_quiver(build_group(*parse_group_spec(spec)))) == hnf


@pytest.mark.parametrize("spec,orders,weights", SUITE_GROUPS)
def test_cycle_types_contain_exactly_the_small_trivial_degree_types(spec, orders, weights):
    # A consequence of the lattice identity: m with |m|_1 <= 6 is a cycle
    # type exactly when it has trivial degree.
    q = build_quiver(build_group(orders, weights))
    types = _cycle_types(q)
    for m in _l1_ball(q.n, 6):
        in_types = row_hnf(list(types) + [m]) == types
        assert in_types == (q.group.deg(m) == q.group.trivial), m


def _dense_tree_cycles(quiver, b):
    """The off-tree arrows k and their cycles z_k as dense arrow vectors, each checked in ker b.

    The reference for checks._tree_cycles: the same breadth-first tree, with the
    tree path to each vertex stored as a whole arrow vector.
    """
    leaving = [[] for _ in range(quiver.r)]
    for k, a in enumerate(quiver.arrows):
        leaving[a.tail].append(k)
    path = [None] * quiver.r
    path[0] = [0] * quiver.num_arrows
    for v in (queue := [0]):
        for k in leaving[v]:
            head = quiver.arrows[k].head
            if path[head] is None:
                path[head] = path[v][:]
                path[head][k] = 1
                queue.append(head)
    off, cycles = [], []
    for k, a in enumerate(quiver.arrows):
        if path[a.head][k]:  # a tree arrow ends the tree path to its head
            continue
        z = [x - y for x, y in zip(path[a.tail], path[a.head])]
        z[k] += 1
        assert not any(mat_vec(b, z))
        off.append(k)
        cycles.append(z)
    return off, cycles


@pytest.mark.parametrize(
    "spec",
    [spec for spec, _, _ in SUITE_GROUPS]
    + ["1/8(1,3,5,7)", "2x4:1,1,0;0,1,3", "1/1(1,1)", "1/61(1,11,49)", "1/127(1,19,107)"],
)
def test_tree_cycle_types_match_the_dense_tree_cycles(spec):
    q = build_quiver(build_group(*parse_group_spec(spec)))
    inc = incidence_matrices(q)
    off, cycles = _dense_tree_cycles(q, inc.b)
    got_off, types, tree = checks._tree_cycles(q)
    assert got_off == off
    assert types == [mat_vec(inc.d, z) for z in cycles]
    assert sorted(tree + off) == list(range(q.num_arrows))


def test_tree_cycle_types_match_kernel_basis_types_at_r_61():
    # cycle-types reads the tree's cycle types; at r = 61 they span the same
    # lattice as the types of kernel_basis(b), and every row of the suite passes.
    q = build_quiver(build_group(*parse_group_spec("1/61(1,11,49)")))
    assert row_hnf(checks._tree_cycles(q)[1]) == _cycle_types(q)
    assert [name for name, ok, _ in run_all(q) if not ok] == []


def test_doubled_tree_cycle_types_fail_only_cycle_types(monkeypatch):
    # Doubled types span 2M, but their kernel, which kernel-lattice reads, is
    # unchanged, and closed-walks reads only the tree.
    real = checks._tree_cycles

    def doubled(quiver):
        off, types, tree = real(quiver)
        return off, [[2 * x for x in t] for t in types], tree

    monkeypatch.setattr(checks, "_tree_cycles", doubled)
    results = run_all(build_quiver(build_group([7], [[1, 2]])))
    failed = {name: detail for name, ok, detail in results if not ok}
    assert failed == {
        "cycle-types": "cycle types span ((2, 6), (0, 14)), "
        "not the trivial-degree lattice ((1, 3), (0, 7))",
    }


def _reversed_tree(off, types, tree):
    return off, types, tree[::-1]


def _swapped_arrow(off, types, tree):
    # The last tree arrow and the first off-tree arrow trade places.
    return [tree[-1]] + off[1:], types, tree[:-1] + [off[0]]


@pytest.mark.parametrize(
    "tamper,rows,arrow",
    [
        (_reversed_tree, {"closed-walks"}, 4),
        (_swapped_arrow, {"kernel-lattice", "closed-walks"}, 0),
    ],
    ids=["out-of-bfs-order", "swapped-arrow"],
)
def test_tampered_tree_fails_closed_walks(monkeypatch, tamper, rows, arrow):
    # Reversed, the first tree arrow (4) leaves vertex 3 before the tree reaches it;
    # swapped in, off-tree arrow 0 arrives at vertex 0, which is reached from the start.
    real = checks._tree_cycles
    monkeypatch.setattr(checks, "_tree_cycles", lambda quiver: tamper(*real(quiver)))
    results = run_all(build_quiver(build_group([7], [[1, 2]])))
    failed = {name: detail for name, ok, detail in results if not ok}
    assert set(failed) == rows
    assert failed["closed-walks"] == (
        f"tree arrow {arrow} does not reach a new vertex from a reached one"
    )


def test_run_all_builds_no_kernel_basis_of_b(monkeypatch):
    # closed-walks checks the tree's columns against b; no row eliminates on b.
    q = build_quiver(build_group([7], [[1, 2]]))
    b = [list(row) for row in incidence_matrices(q).b]
    real, on_b = checks.kernel_basis, []

    def counting(rows):
        on_b.append([list(row) for row in rows] == b)
        return real(rows)

    monkeypatch.setattr(checks, "kernel_basis", counting)

    def calls_on_b(run):
        on_b.clear()
        run(q)
        return on_b.count(True)

    assert calls_on_b(verify_cycle_types) == 0
    assert calls_on_b(verify_closed_walks) == 0
    assert calls_on_b(run_all) == 0


def test_random_parameter_sums_to_zero():
    q = build_quiver(build_group([5], [[1, 2]]))
    rng = random.Random(0)
    for _ in range(20):
        theta = random_parameter(q, rng)
        assert len(theta) == 5
        assert sum(theta) == 0


def test_flow_images_contains_type_zero():
    q = build_quiver(build_group([2], [[1, 1]]))
    images = flow_images_up_to(q, (0, 0), 4)
    assert (0, 0) in images
    for m in images:
        assert sum(m) % 2 == 0


def test_run_all_n_equals_one():
    q = build_quiver(build_group([2], [[1]]))
    results = run_all(q)
    assert all(ok for _, ok, _ in results)


_SRC = Path(mckay_moduli.__file__).resolve().parent

_ZERO_FLOW_SCRIPT = """
from mckay_moduli import build_group, build_quiver, checks

checks.theta_decompose = lambda quiver, theta: (0,) * quiver.num_arrows
q = build_quiver(build_group([5], [[1, 3]]))
verdicts = {name: ok for name, ok, _ in checks.run_all(q)}
print(verdicts["theta-routing"], __debug__)
"""


def test_check_verdicts_survive_optimize_flag():
    out = subprocess.run(
        [sys.executable, "-O", "-c", _ZERO_FLOW_SCRIPT],
        env=src_env(), capture_output=True, text=True, check=True,
    )
    assert out.stdout.strip() == "False False"


# arrow 0 of 1/7(1,2,4) gets the head (head + 1) mod 7, or the label 2, so the
# quiver's cycles no longer map onto the trivial-degree lattice: their types span Z^3
_REDIRECT_ARROW_SCRIPT = """
import sys
from mckay_moduli import CertificateError, build_group, build_quiver
from mckay_moduli.checks import verify_cycle_types

q = build_quiver(build_group([7], [[1, 2, 4]]))
a = q.arrows[0]
a = a._replace(head=(a.head + 1) % 7) if sys.argv[1] == "head" else a._replace(label=2)
q.arrows = (a,) + q.arrows[1:]
try:
    verify_cycle_types(q)
except CertificateError as exc:
    print(exc, __debug__)
"""


def _tampered_arrow_verdict(edit):
    out = subprocess.run(
        [sys.executable, "-O", "-c", _REDIRECT_ARROW_SCRIPT, edit],
        env=src_env(), capture_output=True, text=True, check=True,
    )
    return out.stdout.strip()


_Z3_NOT_M = (
    "cycle types span ((1, 0, 0), (0, 1, 0), (0, 0, 1)), "
    "not the trivial-degree lattice ((1, 0, 5), (0, 1, 3), (0, 0, 7)) False"
)


def test_cycle_types_catches_a_redirected_arrow_under_optimize_flag():
    assert _tampered_arrow_verdict("head") == _Z3_NOT_M


def test_cycle_types_catches_a_relabelled_arrow_under_optimize_flag():
    assert _tampered_arrow_verdict("label") == _Z3_NOT_M


# kernel_generators_cij on 1/7(1,2,4) is tampered three ways: every vector
# doubled (an index-2^k sublattice), or a unit vector, which c does not kill,
# appended.  Arrow 0 is off the tree, so its unit vector also changes the
# restricted lattice; the first tree arrow's restricts to zero, and only the
# check c * g = 0 sees it.  Dropping one vector is no tamper: the vectors are
# dependent, so the lattice they span does not change.
_KERNEL_TAMPER_SCRIPT = """
import sys
from mckay_moduli import CertificateError, build_group, build_quiver, checks

real = checks.kernel_generators_cij
q = build_quiver(build_group([7], [[1, 2, 4]]))
first_tree_arrow = checks._tree_cycles(q)[2][0]


def unit(k):
    return tuple(int(j == k) for j in range(q.num_arrows))


tamper = {
    "double": lambda gens: [tuple(2 * x for x in g) for g in gens],
    "unit": lambda gens: list(gens) + [unit(0)],
    "tree-unit": lambda gens: list(gens) + [unit(first_tree_arrow)],
}[sys.argv[1]]
checks.kernel_generators_cij = lambda quiver: tamper(real(quiver))
try:
    checks.verify_kernel_lattice(q)
except CertificateError as exc:
    print(exc, __debug__)
"""


@pytest.mark.parametrize("tamper", ["double", "unit", "tree-unit"])
def test_kernel_lattice_catches_tampered_generators_under_optimize_flag(tamper):
    out = subprocess.run(
        [sys.executable, "-O", "-c", _KERNEL_TAMPER_SCRIPT, tamper],
        env=src_env(), capture_output=True, text=True, check=True,
    )
    assert out.stdout.strip() == "kernel lattices differ False"


# Tampers on 1/7(1,2), each pinning one message of the tree-cycle
# certificates: b with the sign of one entry flipped, either (0, 0), which both
# kernel rows see, or the head of the first tree arrow (11), so that a tree
# column is covered too.  The flipped c no longer kills the commutation vectors
# through arrow 0, and neither flipped column is its arrow's head less its tail.
_TREE_TAMPER_SCRIPT = """
import sys
from mckay_moduli import CertificateError, build_group, build_quiver, checks

real_inc = checks.incidence_matrices


def flip_sign(quiver, v, k):
    inc = real_inc(quiver)
    b = [list(row) for row in inc.b]
    b[v][k] = -b[v][k]
    b = tuple(map(tuple, b))
    return inc._replace(b=b, c=b + inc.d)


tamper, verifier = sys.argv[1:]
q = build_quiver(build_group([7], [[1, 2]]))
tree_arrow = checks._tree_cycles(q)[2][0]
v, k = (0, 0) if tamper == "flip-sign" else (q.arrows[tree_arrow].head, tree_arrow)
checks.incidence_matrices = lambda quiver: flip_sign(quiver, v, k)
try:
    getattr(checks, verifier)(q)
except CertificateError as exc:
    print(exc, __debug__)
"""


@pytest.mark.parametrize(
    "tamper,verifier,message",
    [
        ("flip-sign", "verify_kernel_lattice", "kernel lattices differ"),
        ("flip-sign", "verify_closed_walks", "column 0 of b is not arrow 0's head less its tail"),
        ("flip-tree", "verify_closed_walks", "column 11 of b is not arrow 11's head less its tail"),
    ],
    ids=["rank", "tree-cycle", "kernel-vector"],
)
def test_tree_cycle_certificates_catch_tampers_under_optimize_flag(tamper, verifier, message):
    out = subprocess.run(
        [sys.executable, "-O", "-c", _TREE_TAMPER_SCRIPT, tamper, verifier],
        env=src_env(), capture_output=True, text=True, check=True,
    )
    assert out.stdout.strip() == f"{message} False"


# The oracle's points on 1/7(1,2) gain (-1, -1), which lies below the type
# polyhedron's rows: construction-agreement fails with the closing's verdict
# and every other check still reports.
_OUTSIDE_POINT_SCRIPT = """
from mckay_moduli import cli, moduli

oracle = moduli._theta_polyhedron_oracle


def tampered(quiver, theta):
    h, pts = oracle(quiver, theta)
    return h, sorted(pts + [(-1, -1)])


moduli._theta_polyhedron_oracle = tampered
print("exit", cli.main(["check", "--group", "1/7(1,2)"]), __debug__)
"""


def test_check_reports_a_point_outside_the_rows_under_optimize_flag():
    out = subprocess.run(
        [sys.executable, "-O", "-c", _OUTSIDE_POINT_SCRIPT],
        env=src_env(), capture_output=True, text=True, check=True,
    )
    assert out.stderr == ""
    assert out.stdout.splitlines() == [
        "ok   kernel-lattice",
        "ok   theta-routing",
        "ok   closed-walks",
        "ok   cycle-types",
        "ok   flow-vertex-integrality",
        "FAIL construction-agreement: vertex violates an inequality",
        "some checks FAILED",
        "exit 1 False",
    ]


# One tamper per FAIL path of the suite on 1/7(1,2), where r * n = 14 runs all
# six checks.  The script prints the tampered check's message at its default
# settings, then each FAIL row of run_all, then __debug__.
_FAIL_PATH_SCRIPT = """
import sys
from fractions import Fraction
from mckay_moduli import CertificateError, build_group, build_quiver, checks


def first(seq, f):
    return (f(seq[0]),) + tuple(seq[1:])


def double_one_row_kernel(rows, basis):
    # Only the trivial-degree lattice of 1/7(1,2) is the kernel of one row.
    return [tuple(2 * x for x in v) for v in basis] if len(rows) == 1 else basis


def half_first_vertex(v):
    return v._replace(vertices=first(v.vertices, lambda vert: first(vert, lambda x: Fraction(1, 2))))


def on_tree(cycles, edit):
    off, types, tree = cycles
    return off, types, edit(tree)


def on_lifted(real, edit):
    return lambda quiver, theta: edit(real(quiver, theta))


TAMPERS = {
    # The tree one arrow short, its columns one short of rank r - 1; or reversed, its
    # first arrow leaving an unreached vertex, so its paths from 0 close no cycle.
    "rank-off": ("_tree_cycles", "verify_closed_walks",
                 lambda real: lambda quiver: on_tree(real(quiver), lambda tree: tree[:-1])),
    "non-cycle": ("_tree_cycles", "verify_closed_walks",
                  lambda real: lambda quiver: on_tree(real(quiver), lambda tree: tree[::-1])),
    "negative-flow": ("theta_decompose", "verify_theta_routing",
                      lambda real: lambda quiver, theta: first(real(quiver, theta), lambda x: x - 1)),
    "extra-flow": ("theta_decompose", "verify_theta_routing",
                   lambda real: lambda quiver, theta: first(real(quiver, theta), lambda x: x + 1)),
    "doubled-lattice": ("kernel_basis", "verify_cycle_types",
                        lambda real: lambda rows: double_one_row_kernel(rows, real(rows))),
    "no-vertices": ("h_to_v", "verify_flow_vertex_integrality",
                    lambda real: lambda h: real(h)._replace(vertices=())),
    "half-vertex": ("h_to_v", "verify_flow_vertex_integrality",
                    lambda real: lambda h: half_first_vertex(real(h))),
    "drop-inequality": ("lifted_theta_polyhedron", "verify_construction_agreement",
                        lambda real: on_lifted(real, lambda tp: tp._replace(
                            h=tp.h._replace(inequalities=tp.h.inequalities[1:])))),
    "drop-vertex": ("lifted_theta_polyhedron", "verify_construction_agreement",
                    lambda real: on_lifted(real, lambda tp: tp._replace(
                        fan=tp.fan._replace(vertices=tp.fan.vertices[1:])))),
}
attr, verifier, tamper = TAMPERS[sys.argv[1]]
setattr(checks, attr, tamper(getattr(checks, attr)))
q = build_quiver(build_group([7], [[1, 2]]))
try:
    getattr(checks, verifier)(q)
except CertificateError as exc:
    print(exc)
for name, ok, detail in checks.run_all(q):
    if not ok:
        print(f"FAIL {name}: {detail}")
print(__debug__)
"""

FAIL_PATHS = [
    ("rank-off", "closed-walks", r"the tree reaches 6 of 7 vertices"),
    ("non-cycle", "closed-walks", r"tree arrow 4 does not reach a new vertex from a reached one"),
    ("negative-flow", "theta-routing",
     r"flow \(.*\) for theta \(.*\) is not a nonnegative integer vector"),
    ("extra-flow", "theta-routing", r"flow \(.*\) does not route theta \(.*\)"),
    ("doubled-lattice", "cycle-types",
     r"cycle types span \(\(1, 3\), \(0, 7\)\), "
     r"not the trivial-degree lattice \(\(2, 6\), \(0, 14\)\)"),
    ("no-vertices", "flow-vertex-integrality", r"flow polyhedron of theta \(.*\) is empty"),
    ("half-vertex", "flow-vertex-integrality", r"flow vertex \(.*\) is not integral"),
    ("drop-inequality", "construction-agreement",
     r"H-descriptions differ between constructions"),
    ("drop-vertex", "construction-agreement", r"V-descriptions differ between constructions"),
]


@pytest.mark.parametrize("tamper,row,message", FAIL_PATHS, ids=[t for t, _, _ in FAIL_PATHS])
def test_each_fail_path_reports_its_message_under_optimize_flag(tamper, row, message):
    out = subprocess.run(
        [sys.executable, "-O", "-c", _FAIL_PATH_SCRIPT, tamper],
        env=src_env(), capture_output=True, text=True, check=True,
    )
    verdict, *failed, debug = out.stdout.splitlines()
    assert re.fullmatch(message, verdict)
    assert len(failed) == 1 and re.fullmatch(f"FAIL {row}: {message}", failed[0])
    assert debug == "False"


def test_every_module_is_reachable_from_the_cli():
    # Relative imports at any depth, function bodies included, from cli.py.
    # lp.py is the test-only LP reference, which ROADMAP item 7 moves into tests/.
    test_only = {"lp"}
    reached, todo = set(), ["cli"]
    while todo:
        name = todo.pop()
        if name in reached:
            continue
        reached.add(name)
        for node in ast.walk(ast.parse((_SRC / f"{name}.py").read_text())):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                todo.extend([node.module] if node.module else [a.name for a in node.names])
    # The package's __init__ runs before any of its modules.
    assert reached | {"__init__"} == {p.stem for p in _SRC.glob("*.py")} - test_only


def test_no_assert_statements_outside_the_lp_reference():
    offenders = []
    for path in sorted(_SRC.glob("*.py")):
        if path.name == "lp.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Assert):
                offenders.append(f"{path.name}:{node.lineno}")
    assert offenders == []


def _unused_imports(path):
    """name:line of every name path imports and never reads, __future__ features aside."""
    imported, used = {}, set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported.setdefault(alias.asname or alias.name.split(".")[0], node.lineno)
        elif isinstance(node, ast.Name):
            used.add(node.id)
    return [f"{path.name}:{line} {name}" for name, line in imported.items() if name not in used]


def test_no_unused_imports():
    # __init__.py imports to re-export; every other module and test file reads what it imports.
    paths = [p for p in _SRC.glob("*.py") if p.name != "__init__.py"]
    paths += Path(__file__).parent.glob("*.py")
    assert [hit for path in sorted(paths) for hit in _unused_imports(path)] == []


def test_every_definition_is_named_in_the_package():
    # A top-level function or class that only __init__.py and tests name is test-only code.
    exempt = {"project"}  # polyhedra.project, which ROADMAP item 7 moves into tests/
    defined, named = {}, set()
    for path in sorted(_SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        for node in ast.parse(path.read_text(), filename=str(path)).body:
            own = getattr(node, "name", None)
            # lp.py is the test-only LP reference, which ROADMAP item 7 moves into tests/.
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and path.name != "lp.py":
                defined[own] = f"{path.name}:{node.lineno} {own}"
            for sub in ast.walk(node):
                name = getattr(sub, "id", None) or getattr(sub, "attr", None)
                if name != own:
                    named.add(name)
    assert [hit for name, hit in defined.items() if name not in named | exempt] == []
