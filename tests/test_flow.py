import hashlib
import heapq
import random
import subprocess
import sys
from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import golden
from conftest import generic_theta, internal_error, src_env, suite_quivers
from flow_oracle import min_cost_flow_ssp
from mckay_moduli import (
    CertificateError,
    InputError,
    ModuliError,
    build_group,
    build_quiver,
    distinguished_rep,
    ghilb_parameter,
    incidence_matrices,
)
from mckay_moduli import flow, moduli
from mckay_moduli.flow import check_certificate, min_cost_flow
from mckay_moduli.intlinalg import mat_vec
from mckay_moduli.lp import LpOptimal, simplex_standard

QUIVERS = [q for _, q in suite_quivers()]


@st.composite
def flow_programs(draw):
    q = draw(st.sampled_from(QUIVERS))
    head = draw(st.lists(st.integers(-6, 6), min_size=q.r - 1, max_size=q.r - 1))
    theta = tuple(head) + (-sum(head),)
    cost = draw(st.lists(st.integers(0, 5), min_size=q.num_arrows, max_size=q.num_arrows))
    return q, theta, cost


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(flow_programs())
def test_kernel_matches_simplex(program):
    q, theta, cost = program
    u, y, value = min_cost_flow(q, theta, cost)
    b = incidence_matrices(q).b
    assert tuple(mat_vec(b, u)) == theta
    assert all(isinstance(x, int) and x >= 0 for x in u)
    res = simplex_standard(b, theta, cost)
    assert isinstance(res, LpOptimal)
    assert value == res.value


REFERENCE_QUIVERS = QUIVERS + [build_quiver(build_group([13], [[1, 3, 9]]))]


@st.composite
def reference_programs(draw):
    """A multi-source theta and costs with zeros and ties, on a quiver or a part of it.

    Dropping about a quarter of the arrows leaves vertices that a phase
    cannot reach, and some theta that cannot be routed at all.
    """
    q = draw(st.sampled_from(REFERENCE_QUIVERS))
    if draw(st.booleans()):
        drop = draw(st.lists(st.integers(0, 3), min_size=q.num_arrows, max_size=q.num_arrows))
        q = SimpleNamespace(r=q.r, arrows=tuple(a for a, d in zip(q.arrows, drop) if d))
    head = draw(st.lists(st.integers(-6, 6), min_size=q.r - 1, max_size=q.r - 1))
    theta = tuple(head) + (-sum(head),)
    top = draw(st.sampled_from([1, 5]))
    cost = draw(st.lists(st.integers(0, top), min_size=len(q.arrows), max_size=len(q.arrows)))
    return q, theta, cost


@settings(max_examples=250, deadline=None, derandomize=True, database=None)
@given(reference_programs())
def test_kernel_matches_successive_shortest_paths(program):
    q, theta, cost = program
    try:
        expected = min_cost_flow_ssp(q, theta, cost)
    except ModuliError as exc:
        assert type(exc) is ModuliError, repr(exc)
        with internal_error("^no nonnegative flow routes theta$"):
            min_cost_flow(q, theta, cost)
        return
    got = min_cost_flow(q, theta, cost)
    assert got[2] == expected[2]
    for u, y, value in (got, expected):
        check_certificate(q, theta, cost, u, y, value)


def test_single_source_solve_is_one_phase(monkeypatch):
    # One phase is one Dijkstra over the residual graph of the zero flow:
    # at most one pop for the source and one per improving arrow.
    q = build_quiver(build_group([61], [[1, 11, 49]]))
    theta = (1 - q.r,) + (1,) * (q.r - 1)
    pops = []

    def heappop(heap):
        pops[-1] += 1
        return heapq.heappop(heap)

    monkeypatch.setattr(flow, "heapq", SimpleNamespace(heappop=heappop, heappush=heapq.heappush))
    for cost in (
        [1] * q.num_arrows,
        [0] * q.num_arrows,
        [(3 * k) % 7 for k in range(q.num_arrows)],
    ):
        pops.append(0)
        min_cost_flow(q, theta, cost)
    assert max(pops) <= q.r + q.num_arrows == 244


PIN_GROUPS = [
    ([7], [[1, 2, 4]]),
    ([19], [[1, 7, 11]]),
    ([2, 2], [[1, 0], [0, 1]]),
    ([41], [[1, 5, 12, 23]]),
    ([127], [[1, 19, 107]]),
]


def _pinned_programs():
    """Seeded multi-source, G-Hilb and zero-cost programs on the PIN_GROUPS quivers."""
    rng = random.Random(30)
    for orders, weights in PIN_GROUPS:
        q = build_quiver(build_group(orders, weights))
        ghilb = (1 - q.r,) + (1,) * (q.r - 1)
        for _ in range(10):
            yield q, generic_theta(rng, q.r), [rng.randint(0, 6) for _ in q.arrows]
        for _ in range(2):
            w = [rng.randint(0, 6) for _ in range(q.n)]
            yield q, ghilb, [w[a.label - 1] for a in q.arrows]
        yield q, generic_theta(rng, q.r), [0] * q.num_arrows


PINNED_POPS = 49128
PINNED_SHA256 = "0af0f2fb7936a1928cf45586c3cb3070c4d9406aa41a15f801791872cbc06c28"


def test_kernel_work_is_pinned(monkeypatch):
    # Pins the flows, potentials and heap pops of a fixed set of solves.  A
    # change that alters them says why in CHANGES.md and records new constants.
    pops = [0]

    def heappop(heap):
        pops[0] += 1
        return heapq.heappop(heap)

    monkeypatch.setattr(flow, "heapq", SimpleNamespace(heappop=heappop, heappush=heapq.heappush))
    solves = [min_cost_flow(*program) for program in _pinned_programs()]

    def recording(network, theta, cost):
        solves.append(min_cost_flow(network, theta, cost))
        return solves[-1]

    monkeypatch.setattr(moduli, "min_cost_flow", recording)
    q = build_quiver(build_group([13], [[1, 3, 9]]))
    distinguished_rep(q, ghilb_parameter(q), (13, 7, 1))
    assert len(solves) == 67
    assert pops[0] == PINNED_POPS
    assert hashlib.sha256(repr(solves).encode()).hexdigest() == PINNED_SHA256


@pytest.fixture(scope="module")
def golden_certificate():
    q = build_quiver(build_group(golden.EXAMPLE_ORDERS, golden.EXAMPLE_WEIGHTS))
    theta = tuple(int(t) for t in golden.EXAMPLE_THETA)
    cost = [(3 * k) % 7 for k in range(q.num_arrows)]
    u, y, value = min_cost_flow(q, theta, cost)
    return q, theta, cost, list(u), list(y), value


def test_certificate_accepts_kernel_output(golden_certificate):
    check_certificate(*golden_certificate)


def _bump(vec, i, delta):
    out = list(vec)
    out[i] += delta
    return out


def test_tampered_flow_raises(golden_certificate):
    q, theta, cost, u, y, value = golden_certificate
    with pytest.raises(CertificateError):
        check_certificate(q, theta, cost, _bump(u, 0, 1), y, value)
    k = next(k for k, f in enumerate(u) if f)
    with pytest.raises(CertificateError):
        check_certificate(q, theta, cost, _bump(u, k, -u[k] - 1), y, value)


def test_tampered_potential_raises(golden_certificate):
    q, theta, cost, u, y, value = golden_certificate
    v = next(v for v, t in enumerate(theta) if t)
    with pytest.raises(CertificateError):
        check_certificate(q, theta, cost, u, _bump(y, v, 1), value)


def test_tampered_value_raises(golden_certificate):
    q, theta, cost, u, y, value = golden_certificate
    with pytest.raises(CertificateError):
        check_certificate(q, theta, cost, u, y, value + 1)


def test_kernel_rejects_bad_input():
    q = QUIVERS[1]
    theta = (-1,) + (0,) * (q.r - 2) + (1,)
    with pytest.raises(CertificateError):
        min_cost_flow(q, theta, [-1] + [1] * (q.num_arrows - 1))
    with pytest.raises(CertificateError):
        min_cost_flow(q, theta, [0.5] + [1] * (q.num_arrows - 1))
    with internal_error("^no nonnegative flow routes theta$"):
        min_cost_flow(q, (1,) + (0,) * (q.r - 1), [1] * q.num_arrows)
    half = (Fraction(1, 2), Fraction(-1, 2)) + (0,) * (q.r - 2)
    with pytest.raises(
        InputError, match="^flow parameter must be integral, one entry per vertex$"
    ):
        min_cost_flow(q, half, [1] * q.num_arrows)


_TAMPER_SCRIPT = """
from mckay_moduli import CertificateError, build_group, build_quiver
from mckay_moduli.flow import check_certificate, min_cost_flow

q = build_quiver(build_group([7], [[1, 2, 4]]))
theta = (-6, 1, 1, 1, 1, 1, 1)
u, y, value = min_cost_flow(q, theta, [1] * q.num_arrows)
try:
    check_certificate(q, theta, [1] * q.num_arrows, u, y, value + 1)
except CertificateError:
    print("raised", __debug__)
"""


def test_certificate_checks_survive_optimize_flag():
    env = src_env()
    out = subprocess.run(
        [sys.executable, "-O", "-c", _TAMPER_SCRIPT],
        env=env, capture_output=True, text=True, check=True,
    )
    assert out.stdout.strip() == "raised False"
    theta = ",".join(str(t) for t in golden.EXAMPLE_THETA)
    w = ",".join(str(x) for x in golden.W_A)
    for args in (
        ["fan", "--group", "1/7(1,2,4)", "--ghilb"],
        ["fan", "--group", "1/7(1,2,4)", "--ghilb", "--lifted"],
        ["fan", "--group", "1/7(1,2,4)", "--ghilb", "--charts", "6"],
        ["rep", "--group", "1/11(1,2,8)", "--theta", theta, "--w", w],
        ["rep", "--group", "1/13(1,3,9)", "--ghilb", "-w", "13,7,1"],
        ["rep", "--group", "1/13(1,3,9)", "--ghilb", "-w", "13,7,1", "--single-optimizer"],
        # generic theta with five sources: each of its solves takes 3-4 phases
        ["fan", "--group", "1/13(1,3,9)", "--theta", "-38,-12,14,14,-12,1,14,1,14,14,-12,14,-12"],
    ):
        argv = ["-m", "mckay_moduli.cli", *args]
        plain = subprocess.run(
            [sys.executable, *argv], env=env, capture_output=True, text=True, check=True
        )
        optimized = subprocess.run(
            [sys.executable, "-O", *argv], env=env, capture_output=True, text=True, check=True
        )
        assert plain.stdout
        assert optimized.stdout == plain.stdout


def test_cli_does_not_load_the_lp_reference():
    script = (
        "import sys, mckay_moduli.cli; "
        "print('mckay_moduli.lp' in sys.modules, 'dataclasses' in sys.modules)"
    )
    out = subprocess.run(
        [sys.executable, "-c", script], env=src_env(), capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "False False"
