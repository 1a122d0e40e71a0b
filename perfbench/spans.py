"""Timing spans around the package's public functions, and their aggregation.

The traced run starts each job through shim.py, which installs a Tracer
before calling mckay_moduli.cli.main.  The tracer rebinds every listed
function in every mckay_moduli module that binds it (lp imports h_to_v,
moduli imports simplex_standard, ...), so calls between modules are timed
where they happen.  Nothing in the package is edited.

A span is [name, start_ns, end_ns, parent_index, out]: parent_index is the
index of the innermost enclosing span (-1 at the top) and out is a size of
the result (vertices, facets, cones) where one is recorded.  The spans of a
job are written to one JSON file together with the job id.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time

PACKAGE = "mckay_moduli"

# The layers are the package modules; these are the functions timed in each.
TRACED = {
    "cli": ("main",),
    "groups": ("build_quiver", "incidence_matrices", "theta_decompose"),
    "intlinalg": ("int_rank", "kernel_basis", "row_hnf"),
    "polyhedra": (
        "h_to_v",
        "v_to_h",
        "cone_double_description",
        "project",
        "normal_fan",
        "locate_cone",
    ),
    "lp": ("simplex_standard", "solve", "optimal_face_tight_set"),
    "moduli": ("theta_polyhedron", "moduli_fan", "distinguished_rep"),
    "checks": (
        "run_all",
        "verify_kernel_lattice",
        "verify_theta_routing",
        "verify_closed_walks",
        "verify_cycle_types",
        "verify_flow_vertex_integrality",
        "verify_construction_agreement",
    ),
}


def _theta_polyhedron_out(args, kwargs, result):
    method = kwargs.get("method", args[2] if len(args) > 2 else "oracle")
    # Facets certified by the oracle; -1 marks the lifted path.
    return len(result.h.inequalities) if method == "oracle" else -1


# Result sizes recorded on the span, by qualified name.
OUT = {
    "polyhedra.h_to_v": lambda a, k, res: len(res.vertices),
    "polyhedra.v_to_h": lambda a, k, res: len(res.inequalities),
    "polyhedra.normal_fan": lambda a, k, res: len(res.cones),
    "moduli.theta_polyhedron": _theta_polyhedron_out,
}


class Tracer:
    """Records spans in memory for one job process."""

    def __init__(self, job_id):
        self.job_id = job_id
        self.spans = []
        self._stack = []

    def wrap(self, name, fn):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter_ns
        measure = OUT.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            span = [name, clock(), 0, stack[-1] if stack else -1, None]
            spans.append(span)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if measure is not None:
                span[4] = measure(args, kwargs, result)
            return result

        return traced

    def install(self):
        """Rebind each traced function wherever a package module binds it."""
        importlib.import_module(PACKAGE)
        importlib.import_module(f"{PACKAGE}.cli")
        modules = [m for n, m in list(sys.modules.items()) if n.split(".")[0] == PACKAGE]
        for layer, names in TRACED.items():
            home = importlib.import_module(f"{PACKAGE}.{layer}")
            for fname in names:
                original = getattr(home, fname)
                wrapper = self.wrap(f"{layer}.{fname}", original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapper)

    def write(self, path):
        with open(path, "w") as fh:
            json.dump({"job": self.job_id, "spans": self.spans}, fh)


def self_times(spans):
    """Per span: its duration minus the part of it that its child spans cover."""
    children = [[] for _ in spans]
    for i, s in enumerate(spans):
        if s[3] >= 0:
            children[s[3]].append(i)
    out = []
    for i, (_, start, end, _, _) in enumerate(spans):
        covered = 0
        cursor = start
        for c in sorted(children[i], key=lambda c: spans[c][1]):
            lo = max(spans[c][1], cursor)
            hi = min(spans[c][2], end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out.append(end - start - covered)
    return out


def _outermost(spans, i):
    """True when no enclosing span has the same name (so totals never double count)."""
    name = spans[i][0]
    p = spans[i][3]
    while p >= 0:
        if spans[p][0] == name:
            return False
        p = spans[p][3]
    return True


def aggregate(spans):
    """Counters and seconds of one job's spans, keyed by metric name."""
    agg = {}

    def add(key, value):
        agg[key] = agg.get(key, 0) + value

    selfs = self_times(spans)
    for i, (name, start, end, parent, out) in enumerate(spans):
        add(f"{name}.calls", 1)
        add(f"{name}.self_s", selfs[i] / 1e9)
        add(f"{name.split('.')[0]}.self_s", selfs[i] / 1e9)
        if _outermost(spans, i):
            add(f"{name}.total_s", (end - start) / 1e9)
        pname = spans[parent][0] if parent >= 0 else None
        oracle_parent = pname == "moduli.theta_polyhedron" and spans[parent][4] != -1
        if name == "polyhedra.h_to_v":
            add("polyhedra.h_to_v.out_vertices", out)
            if pname == "lp.optimal_face_tight_set":
                add("lp.face_vertices", out)
        elif name == "polyhedra.v_to_h":
            add("polyhedra.v_to_h.out_facets", out)
            if oracle_parent:
                add("moduli.oracle.rounds", 1)
        elif name == "polyhedra.normal_fan":
            add("polyhedra.normal_fan.cones", out)
        elif name == "lp.simplex_standard" and oracle_parent:
            add("moduli.oracle.lp_solves", 1)
        elif name == "moduli.theta_polyhedron" and out != -1:
            add("moduli.oracle.facets", out)
    return agg


def merge(aggs):
    """Sum per-job aggregates and derive the ratios."""
    total = {}
    for agg in aggs:
        for key, value in agg.items():
            total[key] = total.get(key, 0) + value
    solves = total.get("moduli.oracle.lp_solves", 0)
    total["moduli.oracle.facets_per_solve"] = (
        total.get("moduli.oracle.facets", 0) / solves if solves else 0.0
    )
    return total
