"""Tests of the benchmark's own code: job lists, span arithmetic and the gate.

    python3 -m pytest perfbench/tests -q
"""

import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import gate  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

# Fan of G-Hilb on 1/7(1,2,4) as the program prints it.
FAN_7 = {
    "rays": [[0, 0, 1], [0, 1, 0], [1, 0, 0], [1, 2, 4], [2, 4, 1], [4, 1, 2]],
    "maximal_cones": [[1, 2, 4], [2, 4, 5], [0, 2, 5], [3, 4, 5], [0, 3, 5], [1, 3, 4], [0, 1, 3]],
}


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_same_seed_same_jobs(workload):
    assert workloads.job_list(workload, 7) == workloads.job_list(workload, 7)


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_other_seed_keeps_anchors_changes_seeded(workload):
    n = workloads.anchor_count(workload)
    a, b = workloads.job_list(workload, 1), workloads.job_list(workload, 2)
    assert len(a) == len(b) > n
    assert a[:n] == b[:n]
    assert a[n:] != b[n:]
    assert len(set(a)) == len(a)


def test_seeded_theta_is_generic():
    jobs = workloads.job_list("fan-oracle", 3)[workloads.anchor_count("fan-oracle"):]
    for argv in jobs:
        r, _ = gate.parse_cyclic(gate.option(argv, "--group"))
        assert gate.is_generic(gate.job_theta(argv, r))
    assert not gate.is_generic([int(x) for x in workloads.GOLDEN_THETA.split(",")])


def test_self_time_of_nested_spans():
    # main [0, 100] > a [10, 40] > b [20, 30]; main > c [50, 90]
    trace = [
        ["cli.main", 0, 100, -1, None],
        ["moduli.a", 10, 40, 0, None],
        ["polyhedra.b", 20, 30, 1, None],
        ["moduli.c", 50, 90, 0, None],
    ]
    assert spans.self_times(trace) == [30, 20, 10, 40]
    agg = spans.aggregate(trace)
    assert agg["cli.main.total_s"] == pytest.approx(100e-9)
    assert agg["moduli.self_s"] == pytest.approx(60e-9)
    layers = [v for k, v in agg.items() if k.count(".") == 1 and k.endswith("self_s")]
    assert sum(layers) == pytest.approx(100e-9)


def test_recursive_span_total_counted_once():
    trace = [
        ["polyhedra.h_to_v", 0, 50, -1, 3],
        ["polyhedra.h_to_v", 10, 20, 0, 2],
    ]
    agg = spans.aggregate(trace)
    assert agg["polyhedra.h_to_v.total_s"] == pytest.approx(50e-9)
    assert agg["polyhedra.h_to_v.calls"] == 2
    assert agg["polyhedra.h_to_v.out_vertices"] == 5


def test_oracle_counters_follow_the_parent_span():
    trace = [
        ["moduli.theta_polyhedron", 0, 100, -1, 4],
        ["polyhedra.v_to_h", 1, 2, 0, 4],
        ["lp.simplex_standard", 3, 4, 0, None],
        ["lp.simplex_standard", 5, 6, 0, None],
        ["moduli.theta_polyhedron", 200, 300, -1, -1],
        ["polyhedra.v_to_h", 201, 202, 4, 4],
        ["lp.solve", 400, 500, -1, None],
        ["lp.simplex_standard", 401, 402, 6, None],
    ]
    total = spans.merge([spans.aggregate(trace)])
    assert total["moduli.oracle.rounds"] == 1
    assert total["moduli.oracle.lp_solves"] == 2
    assert total["moduli.oracle.facets"] == 4
    assert total["moduli.oracle.facets_per_solve"] == 2
    assert total["lp.simplex_standard.calls"] == 3


def test_unimodularity_accepts_ghilb_fan_of_order_seven():
    assert gate.junior_count(7, (1, 2, 4)) == 3
    gate.check_mckay(FAN_7, 7, (1, 2, 4))
    for cone in FAN_7["maximal_cones"]:
        assert gate.unimodular([FAN_7["rays"][i] for i in cone], 7, (1, 2, 4))


def test_unimodularity_rejects_perturbed_fan():
    bad = {"rays": [list(r) for r in FAN_7["rays"]], "maximal_cones": FAN_7["maximal_cones"]}
    bad["rays"][3] = [1, 2, 5]
    with pytest.raises(gate.GateFailure, match="not unimodular"):
        gate.check_mckay(bad, 7, (1, 2, 4))


def test_primitive_in_n():
    assert gate.primitive_in_n((1, 2, 4), 7, (1, 2, 4)) == tuple(
        gate.Fraction(x, 7) for x in (1, 2, 4)
    )
    assert gate.primitive_in_n((1, 0, 0), 7, (1, 2, 4)) == (1, 0, 0)


def test_rep_duality_check():
    fan = {"p_theta": {"vertices": [["1/1", "1/1"], ["3/1", "0/1"]]}}
    doc = {"rep": {"w": ["1/1", "2/1"], "value": "-3/1", "b": [1, 0, 1], "tight_set": [0, 2]}}
    gate.check_rep(doc, fan)
    doc["rep"]["value"] = "-2/1"
    with pytest.raises(gate.GateFailure, match="value"):
        gate.check_rep(doc, fan)
    doc["rep"].update(value="-3/1", b=[1, 1, 1])
    with pytest.raises(gate.GateFailure, match="tight set"):
        gate.check_rep(doc, fan)


def test_two_cones_of_a_simplicial_fan():
    faces = gate.two_cones(FAN_7["rays"], FAN_7["maximal_cones"])
    # The fan cuts the orthant's triangle into 7 triangles on 6 vertices;
    # Euler's formula V - E + F = 1 for a disc gives E = 12 edges.
    assert len(faces) == 12
    assert (3, 4) in faces
