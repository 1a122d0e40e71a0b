import os
import subprocess
import sys
from contextlib import contextmanager
from pathlib import Path

import pytest

import golden
import mckay_moduli
from mckay_moduli import ModuliError, build_group, build_quiver, moduli_fan, theta_polyhedron

# Default battery of actions exercised by the property suites.  Entries are
# (cli_spec, orders, weights); r*n stays small enough for exact enumeration.
SUITE_GROUPS = [
    ("1/2(1)", [2], [[1]]),
    ("1/7(1,2)", [7], [[1, 2]]),
    ("1/3(1,1,1)", [3], [[1, 1, 1]]),
    ("1/5(1,3)", [5], [[1, 3]]),
    ("2x2:1,0;0,1", [2, 2], [[1, 0], [0, 1]]),
]


def binomial_pairs(vectors):
    """Split integer arrow vectors into (positive, negative) exponent parts.

    Each pair (p, m) satisfies vector = p - m with p, m >= 0 and disjoint
    supports; these are the exponents of the two monomials of the binomial
    attached to the vector.
    """
    return [
        (tuple(max(x, 0) for x in v), tuple(max(-x, 0) for x in v)) for v in vectors
    ]


def generic_theta(rng, r):
    """theta = 1 (mod r) with entries in {1 - r, 1, 1 + r} off vertex 0, as the benchmark draws it."""
    rest = [1 + r * rng.choice((-1, 0, 1)) for _ in range(r - 1)]
    return [-sum(rest)] + rest


@contextmanager
def internal_error(match):
    """pytest.raises for a bare ModuliError, the internal failure: its subclasses do not pass."""
    with pytest.raises(ModuliError, match=match) as info:
        yield info
    assert type(info.value) is ModuliError, repr(info.value)


def src_env():
    """The environment with the package's source directory first on PYTHONPATH."""
    src = str(Path(mckay_moduli.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    return env


# Rebuilds (h, v) from their reprs and runs the fan certificate on them.
_NORMAL_FAN_SCRIPT = """
import sys
from fractions import Fraction
from mckay_moduli import HPolyhedron, ModuliError, VPolyhedron, moduli

try:
    moduli.normal_fan(eval(sys.argv[1]), eval(sys.argv[2]))
    print("returned", __debug__)
except ModuliError as exc:
    print("raised", __debug__, type(exc).__name__, exc)
"""


def normal_fan_under_optimize(h, v):
    """What normal_fan(h, v) does under python -O, as 'raised False <error> <message>'."""
    out = subprocess.run(
        [sys.executable, "-O", "-c", _NORMAL_FAN_SCRIPT, repr(h), repr(v)],
        env=src_env(), capture_output=True, text=True, check=True,
    )
    return out.stdout.rstrip("\n")


def suite_quivers():
    return [(spec, build_quiver(build_group(orders, weights)))
            for spec, orders, weights in SUITE_GROUPS]


@pytest.fixture(scope="session")
def example_quiver():
    return build_quiver(build_group(golden.EXAMPLE_ORDERS, golden.EXAMPLE_WEIGHTS))


@pytest.fixture(scope="session")
def example_tp(example_quiver):
    return theta_polyhedron(example_quiver, golden.EXAMPLE_THETA)


@pytest.fixture(scope="session")
def example_fan(example_tp):
    return moduli_fan(example_tp)
