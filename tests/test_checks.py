import ast
import random
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import SUITE_GROUPS, src_env
from flow_oracle import flow_images_up_to
import mckay_moduli
from mckay_moduli import build_group, build_quiver, groups
from mckay_moduli.checks import (
    random_parameter,
    run_all,
    verify_closed_walks,
    verify_cycle_types,
    verify_kernel_lattice,
    verify_theta_routing,
)


@pytest.mark.parametrize("spec,orders,weights", SUITE_GROUPS)
def test_run_all_suite_groups(spec, orders, weights):
    q = build_quiver(build_group(orders, weights))
    results = run_all(q, bound=4, seed=0, trials=5)
    failures = [(name, detail) for name, ok, detail in results if not ok]
    assert failures == []
    names = [name for name, _, _ in results]
    assert "kernel-lattice" in names
    assert "cycle-types" in names


def test_kernel_lattice_on_larger_groups():
    # the binomial vectors generate the full integer kernel, also at sizes
    # where the general enumeration checks are skipped
    for orders, weights in [([11], [[1, 2, 8]]), ([6], [[1, 2, 3]]), ([13], [[1, 5]])]:
        q = build_quiver(build_group(orders, weights))
        verify_kernel_lattice(q)


def test_theta_routing_hundred_parameters():
    # one hundred random parameters across the suite groups
    per_group = 20
    for idx, (spec, orders, weights) in enumerate(SUITE_GROUPS):
        q = build_quiver(build_group(orders, weights))
        verify_theta_routing(q, trials=per_group, seed=100 + idx)


def test_cycle_type_identification_bound_six():
    for spec, orders, weights in SUITE_GROUPS:
        q = build_quiver(build_group(orders, weights))
        verify_cycle_types(q, bound=6)


def test_closed_walks_random_kernel_vectors():
    q = build_quiver(build_group([7], [[1, 2]]))
    verify_closed_walks(q, trials=25, seed=3)


def connector_flows(monkeypatch, orders, weights):
    """The unit-cost flows, that is the connectors, solved by verify_closed_walks."""
    flows = []
    kernel = groups.min_cost_flow

    def counting(quiver, theta, cost):
        if all(c == 1 for c in cost):
            flows.append(theta)
        return kernel(quiver, theta, cost)

    monkeypatch.setattr(groups, "min_cost_flow", counting)
    verify_closed_walks(build_quiver(build_group(orders, weights)), trials=10, seed=1)
    return flows


def test_closed_walks_reach_the_connector(monkeypatch):
    # each of the five odd trials adds two squares with disjoint vertex sets
    assert len(connector_flows(monkeypatch, [13], [[1, 3, 9]])) == 5


def test_closed_walks_reach_the_connector_without_disjoint_squares(monkeypatch):
    # no two squares of 1/7(1,2) are vertex-disjoint, but three pairs of kernel
    # basis vectors are, and each of the five odd trials adds one of those pairs
    assert len(connector_flows(monkeypatch, [7], [[1, 2]])) == 5


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
    results = run_all(q, bound=4, seed=0, trials=5)
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


# arrow 0 of 1/7(1,2,4) gets the head (head + 1) mod 7, so the vertex
# incidence matrix no longer matches the translations cycle_from_type follows
_REDIRECT_ARROW_SCRIPT = """
from mckay_moduli import CertificateError, build_group, build_quiver
from mckay_moduli.checks import verify_cycle_types

q = build_quiver(build_group([7], [[1, 2, 4]]))
a = q.arrows[0]
q.arrows = (a._replace(head=(a.head + 1) % 7),) + q.arrows[1:]
try:
    verify_cycle_types(q, bound=4)
except CertificateError as exc:
    print(exc, __debug__)
"""


def test_cycle_types_catches_a_redirected_arrow_under_optimize_flag():
    out = subprocess.run(
        [sys.executable, "-O", "-c", _REDIRECT_ARROW_SCRIPT],
        env=src_env(), capture_output=True, text=True, check=True,
    )
    assert out.stdout.strip() == "cycle vector leaves the kernel False"


# kernel_generators_cij on 1/7(1,2,4) is tampered two ways: every vector
# doubled (an index-2^k sublattice), or the unit vector of arrow 0, which c
# does not kill, appended.  Dropping one vector is no tamper: the vectors
# are dependent, so the lattice they span does not change.
_KERNEL_TAMPER_SCRIPT = """
import sys
from mckay_moduli import CertificateError, build_group, build_quiver, checks

real = checks.kernel_generators_cij
q = build_quiver(build_group([7], [[1, 2, 4]]))
unit = tuple(int(k == 0) for k in range(q.num_arrows))
tamper = {
    "double": lambda gens: [tuple(2 * x for x in g) for g in gens],
    "unit": lambda gens: list(gens) + [unit],
}[sys.argv[1]]
checks.kernel_generators_cij = lambda quiver: tamper(real(quiver))
try:
    checks.verify_kernel_lattice(q)
except CertificateError as exc:
    print(exc, __debug__)
"""


@pytest.mark.parametrize("tamper", ["double", "unit"])
def test_kernel_lattice_catches_tampered_generators_under_optimize_flag(tamper):
    out = subprocess.run(
        [sys.executable, "-O", "-c", _KERNEL_TAMPER_SCRIPT, tamper],
        env=src_env(), capture_output=True, text=True, check=True,
    )
    assert out.stdout.strip() == "kernel lattices differ False"


# The oracle's points on 1/7(1,2) gain (-1, -1), which lies below the type
# polyhedron's rows: construction-agreement fails with the closing's verdict
# and every other check still reports.
_OUTSIDE_POINT_SCRIPT = """
from mckay_moduli import cli, moduli

oracle = moduli._theta_polyhedron_oracle


def tampered(quiver, param):
    h, pts = oracle(quiver, param)
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


def test_no_assert_statements_outside_the_lp_reference():
    offenders = []
    for path in sorted(_SRC.glob("*.py")):
        if path.name == "lp.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Assert):
                offenders.append(f"{path.name}:{node.lineno}")
    assert offenders == []
