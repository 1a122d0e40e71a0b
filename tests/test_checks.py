import ast
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import SUITE_GROUPS
from flow_oracle import flow_images_up_to
import mckay_moduli
from mckay_moduli import build_group, build_quiver
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
    env = dict(os.environ)
    env["PYTHONPATH"] = str(_SRC.parent) + os.pathsep + env.get("PYTHONPATH", "")
    out = subprocess.run(
        [sys.executable, "-O", "-c", _ZERO_FLOW_SCRIPT],
        env=env, capture_output=True, text=True, check=True,
    )
    assert out.stdout.strip() == "False False"


def test_no_assert_statements_outside_the_lp_reference():
    offenders = []
    for path in sorted(_SRC.glob("*.py")):
        if path.name == "lp.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Assert):
                offenders.append(f"{path.name}:{node.lineno}")
    assert offenders == []
