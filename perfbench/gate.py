"""Correctness gate: checks every job's output without trusting the program.

Each check raises GateFailure with a one-line reason.  The checks use only
the JSON documents (schema mckay-moduli/1) and the job's command line:

- fan documents are internally consistent (rays are the facet normals, each
  maximal cone is the set of facets tight at its marker vertex);
- fans of a generic parameter on a cyclic group in SL(3) meet the McKay
  correspondence invariants: r maximal cones, 3 + #junior rays, and every
  maximal cone unimodular for N = Z^3 + Z (a1, a2, a3) / r;
- chart reports are saturated when the fan is smooth;
- rep documents satisfy LP duality against the type polyhedron of the same
  (group, theta), and b agrees with the tight set;
- check jobs print "all checks passed".
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from itertools import combinations

SCHEMA = "mckay-moduli/1"

_CYCLIC = re.compile(r"1/(\d+)\(([-\d,]+)\)")


class GateFailure(Exception):
    """A job's output failed a correctness check."""


def option(argv, flag):
    """The value following flag in argv, or None when the flag is absent."""
    argv = list(argv)
    return argv[argv.index(flag) + 1] if flag in argv else None


def parse_cyclic(spec):
    """(r, weights) of a cyclic group spec "1/r(a1,...,an)", else None."""
    m = _CYCLIC.fullmatch(spec.strip())
    if not m:
        return None
    return int(m.group(1)), tuple(int(x) for x in m.group(2).split(","))


def is_generic(theta):
    """True when no proper nonempty subset of the entries sums to zero.

    theta sums to zero, so a zero-sum proper subset exists exactly when some
    nonempty subset of theta[1:] sums to zero.  Generic parameters give
    smooth moduli, which for abelian G in SL(3) are crepant resolutions.
    """
    theta = [Fraction(x) for x in theta]
    if sum(theta) != 0:
        return False
    sums = set()
    for x in theta[1:]:
        new = {x} | {s + x for s in sums}
        if 0 in new:
            return False
        sums |= new
    return True


def job_theta(argv, r):
    """The stability parameter a fan or rep job uses, as Fractions."""
    if "--ghilb" in argv:
        return (Fraction(1 - r),) + (Fraction(1),) * (r - 1)
    return tuple(Fraction(x) for x in option(argv, "--theta").split(","))


def junior_count(r, weights):
    """Group elements k in 1..r-1 of age one: sum of (k a_i mod r) equals r."""
    return sum(1 for k in range(1, r) if sum(k * a % r for a in weights) == r)


def _in_n(vec, r, weights):
    return any(
        all((x - Fraction(k * a % r, r)).denominator == 1 for x, a in zip(vec, weights))
        for k in range(r)
    )


def primitive_in_n(ray, r, weights):
    """The first nonzero point of N = Z^n + Z a / r on the ray through an integer vector.

    r N lies in Z^n, so that point is ray / m for the largest integer m with
    ray / m in N; m divides r times the content of the ray.
    """
    best = 1
    for m in range(1, r * max(abs(x) for x in ray) + 1):
        if _in_n([Fraction(x, m) for x in ray], r, weights):
            best = m
    return tuple(Fraction(x, best) for x in ray)


def _det3(a, b, c):
    return (
        a[0] * (b[1] * c[2] - b[2] * c[1])
        - a[1] * (b[0] * c[2] - b[2] * c[0])
        + a[2] * (b[0] * c[1] - b[1] * c[0])
    )


def unimodular(cone_rays, r, weights):
    """True when the rays, made primitive in N, form a basis of N.

    N contains Z^3 with index r, so a basis of N has determinant +-1/r.
    """
    if len(cone_rays) != 3:
        return False
    prim = [primitive_in_n(ray, r, weights) for ray in cone_rays]
    return abs(_det3(*prim)) == Fraction(1, r)


def check_mckay(fan, r, weights):
    """The fan of a crepant resolution of C^3 / (1/r(weights))."""
    rays = fan["rays"]
    cones = fan["maximal_cones"]
    if len(cones) != r:
        raise GateFailure(f"{len(cones)} maximal cones, expected r = {r}")
    juniors = junior_count(r, weights)
    if len(rays) != 3 + juniors:
        raise GateFailure(f"{len(rays)} rays, expected 3 + {juniors} junior")
    for cone in cones:
        if not unimodular([rays[i] for i in cone], r, weights):
            raise GateFailure(f"maximal cone {cone} is not unimodular")


def check_fan_structure(doc):
    """Rays are the facet normals and each maximal cone is tight at its marker."""
    ineqs = doc["p_theta"]["inequalities"]
    verts = [[Fraction(x) for x in v] for v in doc["p_theta"]["vertices"]]
    fan = doc["fan"]
    if fan["rays"] != [row["coeffs"] for row in ineqs]:
        raise GateFailure("fan rays differ from the facet normals")
    if fan["markers"] != doc["p_theta"]["vertices"]:
        raise GateFailure("cone markers differ from the vertices")
    if len(fan["maximal_cones"]) != len(verts):
        raise GateFailure("one maximal cone per vertex expected")
    for vert, cone in zip(verts, fan["maximal_cones"]):
        slacks = [sum(c * x for c, x in zip(row["coeffs"], vert)) - row["rhs"] for row in ineqs]
        if any(s < 0 for s in slacks):
            raise GateFailure(f"vertex {vert} violates a facet")
        if sorted(i for i, s in enumerate(slacks) if s == 0) != sorted(cone):
            raise GateFailure(f"cone {cone} is not the tight set of its marker")


def check_fan(argv, doc):
    """All checks a fan document must pass, given the job's command line."""
    check_fan_structure(doc)
    cyc = parse_cyclic(option(argv, "--group"))
    if cyc is None or len(cyc[1]) != 3 or sum(cyc[1]) % cyc[0]:
        return
    r, weights = cyc
    if not is_generic(job_theta(argv, r)):
        return
    check_mckay(doc["fan"], r, weights)
    for chart in doc["fan"].get("charts", ()):
        if not chart["saturated_up_to_bound"]:
            raise GateFailure(f"chart at {chart['vertex']} of a smooth fan is not saturated")


def check_rep(doc, fan_doc):
    """LP duality against the type polyhedron, and b against the tight set.

    The potential program minimises theta . v subject to the arrow slacks
    w_label + v_head - v_tail >= 0; its dual routes theta as a flow of cost
    w, so its value is -min over the vertices m of P_theta of w . m.
    fan_doc is the fan document of the same (group, theta).
    """
    rep = doc["rep"]
    w = [Fraction(x) for x in rep["w"]]
    best = min(sum(a * Fraction(x) for a, x in zip(w, m)) for m in fan_doc["p_theta"]["vertices"])
    if Fraction(rep["value"]) != -best:
        raise GateFailure(f"value {rep['value']} but -min w.m over P_theta is {-best}")
    tight = rep["tight_set"]
    if len(set(tight)) != len(tight):
        raise GateFailure("tight set repeats an arrow")
    if set(rep["b"]) - {0, 1} or {k for k, x in enumerate(rep["b"]) if x} != set(tight):
        raise GateFailure("b disagrees with the tight set")


def check_face_in_single(face_doc, single_doc):
    """The face-mode tight set lies inside its single-optimizer twin's."""
    if not set(face_doc["rep"]["tight_set"]) <= set(single_doc["rep"]["tight_set"]):
        raise GateFailure("face tight set is not inside the single-optimizer tight set")


def check_check(stdout):
    if not stdout.rstrip("\n").endswith("all checks passed"):
        raise GateFailure("check did not print 'all checks passed'")


def load_doc(stdout):
    """Parse a JSON document and check its schema."""
    try:
        doc = json.loads(stdout)
    except ValueError as exc:
        raise GateFailure(f"output is not JSON: {exc}") from None
    if doc.get("schema") != SCHEMA:
        raise GateFailure(f"schema {doc.get('schema')!r}, expected {SCHEMA}")
    return doc


def two_cones(rays, cones):
    """Pairs of rays spanning a two-dimensional face of some maximal cone.

    A pair inside a 3-dimensional cone is a face when every other ray of
    that cone lies strictly on one side of the plane the pair spans.
    """
    faces = set()
    for cone in cones:
        for i, j in combinations(sorted(cone), 2):
            a, b = rays[i], rays[j]
            normal = (
                a[1] * b[2] - a[2] * b[1],
                a[2] * b[0] - a[0] * b[2],
                a[0] * b[1] - a[1] * b[0],
            )
            sides = {
                (sum(n * x for n, x in zip(normal, rays[k])) > 0)
                - (sum(n * x for n, x in zip(normal, rays[k])) < 0)
                for k in cone
                if k not in (i, j)
            }
            if len(sides) == 1 and 0 not in sides:
                faces.add((i, j))
    return sorted(faces)
