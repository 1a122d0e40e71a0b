"""The benchmark's span tracer runs against the real package.

perfbench/spans.py rebinds the functions named in its TRACED table and reads
result attributes such as Fan.cones, so renaming or deleting one of them
breaks only the traced benchmark run.  These tests run a few commands
through perfbench/shim.py and compare them with the plain command.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
BENCH = ROOT / "perfbench"
sys.path.insert(0, str(BENCH))

import spans  # noqa: E402

ENV = dict(os.environ, PYTHONPATH=str(ROOT / "src"))

JOBS = {
    "fan": ("fan", "--group", "1/7(1,2,4)", "--ghilb"),
    "fan-lifted": ("fan", "--group", "1/7(1,2,4)", "--ghilb", "--lifted"),
    "rep": (
        "rep", "--group", "1/11(1,2,8)", "--theta", "1,1,1,1,-7,-9,1,1,1,8,1", "-w", "10,7,6",
    ),
    "check": ("check", "--group", "1/7(1,2)"),
}


def _run(argv):
    return subprocess.run(argv, capture_output=True, text=True, env=ENV, cwd=ROOT, timeout=120)


@pytest.mark.parametrize("job", sorted(JOBS))
def test_traced_run_matches_plain_run(tmp_path, job):
    argv = JOBS[job]
    plain = _run([sys.executable, "-m", "mckay_moduli.cli", *argv])
    path = tmp_path / "spans.json"
    traced = _run([sys.executable, str(BENCH / "shim.py"), str(path), job, *argv])
    assert plain.returncode == 0, plain.stderr
    assert traced.returncode == 0, traced.stderr
    assert traced.stdout == plain.stdout
    agg = spans.aggregate(json.loads(path.read_text())["spans"])
    assert agg["cli.main.calls"] == 1
    if job.startswith("fan"):
        # The fan is stored as its maximal cones: 7 for G-Hilb on 1/7(1,2,4).
        maximal = json.loads(plain.stdout)["fan"]["maximal_cones"]
        assert agg["polyhedra.normal_fan.cones"] == len(maximal) == 7
    if job == "rep":
        # rep locates w in the fan of the type polyhedron, which has 11 vertices.
        assert agg["polyhedra.normal_fan.cones"] == 11
    if job == "check":
        # The tracer rebinds functions only in the modules that exist once
        # mckay_moduli.cli is imported, so the checks layer is traced only
        # while cli imports checks at module level.
        assert agg["checks.run_all.calls"] == 1
        assert agg["checks.verify_kernel_lattice.calls"] == 1
        # run_all reads each verifier by name when it runs, so every rebound
        # one is called; r * n = 14 on 1/7(1,2) runs all six.
        for name in (
            "theta_routing", "closed_walks", "cycle_types",
            "flow_vertex_integrality", "construction_agreement",
        ):
            assert agg[f"checks.verify_{name}.calls"] == 1
