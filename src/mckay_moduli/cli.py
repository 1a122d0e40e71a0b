"""Command-line interface: quiver, fan, rep and check subcommands.

All JSON output follows the "mckay-moduli/1" schema: rationals are
"numerator/denominator" strings, matrices are row-major integer arrays, and
every list is canonically ordered so repeated runs are byte-identical.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import sys
from fractions import Fraction

from .checks import run_all
from .errors import GroupSpecError, InputError, ModuliError
from .groups import build_group, build_quiver, incidence_matrices
from .intlinalg import int_rank
from .moduli import (
    distinguished_rep,
    ghilb_parameter,
    lifted_theta_polyhedron,
    moduli_fan,
    stability_parameter,
    theta_polyhedron,
)
from .polyhedra import locate_cone

# ASCII digits only: str.isdigit and an unflagged \d accept "²" and "٣".
_INT = re.compile(r"[+-]?\d+", re.ASCII)
_ORDER = re.compile(r"\d+", re.ASCII)
_RATIONAL = re.compile(r"[+-]?(\d+(/\d+)?|\d+\.\d*|\.\d+)", re.ASCII)

SCHEMA = "mckay-moduli/1"


def _pieces(text: str, offset: int, sep: str):
    """Yield each piece of text (which starts at offset) between seps, with its position."""
    for piece in text.split(sep):
        yield piece, offset
        offset += len(piece) + len(sep)


def _tokens(text: str, offset: int, sep: str):
    """Yield each piece of text stripped, at its first non-space character, or at its start
    if it is all spaces."""
    for piece, pos in _pieces(text, offset, sep):
        tok = piece.strip()
        yield tok, pos + (len(piece) - len(piece.lstrip()) if tok else 0)


def _ints(text: str, offset: int):
    """The comma-separated integers of text, which starts at offset."""
    items = []
    for tok, pos in _tokens(text, offset, ","):
        if not _INT.fullmatch(tok):
            raise GroupSpecError(f"expected an integer, got {tok!r}", pos)
        items.append(int(tok))
    return tuple(items)


def parse_group_spec(spec: str):
    """Parse a group spec string into (orders, weight rows).

    Two grammars are accepted: the cyclic shorthand "1/r(a1,...,an)" and the
    general product form "r1x...xrk:a11,...,a1n;...;ak1,...,akn".  Errors
    carry the character position of the offending token.
    """
    s = spec.strip()
    base = len(spec) - len(spec.lstrip())
    if not s:
        raise GroupSpecError("empty group spec", 0)
    if s.startswith("1/"):
        m = _ORDER.match(s, 2)
        if not m:
            raise GroupSpecError("expected the cyclic order after '1/'", base + 2)
        j = m.end()
        if int(m.group()) < 1:
            raise GroupSpecError("cyclic order must be positive", base + 2)
        if j >= len(s) or s[j] != "(":
            raise GroupSpecError("expected '(' after the cyclic order", base + j)
        if not s.endswith(")"):
            raise GroupSpecError("expected closing ')'", base + len(s) - 1)
        return (int(m.group()),), (_ints(s[j + 1 : -1], base + j + 1),)
    if ":" in s:
        # Split the spec with its leading spaces, which belong to the first order.
        head, _, tail = spec.rstrip().partition(":")
        orders = []
        for tok, pos in _tokens(head, 0, "x"):
            if not _ORDER.fullmatch(tok):
                raise GroupSpecError(f"expected a positive cycle order, got {tok!r}", pos)
            if int(tok) < 1:
                raise GroupSpecError("cycle orders must be positive", pos)
            orders.append(int(tok))
        at = len(head) + 1
        rows = list(_pieces(tail, at, ";"))
        if len(rows) != len(orders):
            raise GroupSpecError(f"expected {len(orders)} weight rows, got {len(rows)}", at)
        return tuple(orders), tuple(_ints(row, pos) for row, pos in rows)
    raise GroupSpecError(
        "unrecognized group spec; use '1/r(a1,...,an)' or 'r1x...xrk:row1;...;rowk'",
        base,
    )


def _rational_csv(text: str):
    out = []
    for tok in text.split(","):
        t = tok.strip()
        try:
            # Fraction also reads "1e1", "1_0" and any Unicode digit, such as "١".
            if not _RATIONAL.fullmatch(t):
                raise ValueError
            out.append(Fraction(t))
        except (ValueError, ZeroDivisionError):
            raise argparse.ArgumentTypeError(f"not a rational number: {t!r}") from None
    return tuple(out)


def _q(x) -> str:
    return f"{x.numerator}/{x.denominator}"


def _qvec(v):
    return [_q(x) for x in v]


def _dump(doc) -> str:
    return json.dumps(doc, sort_keys=True, indent=2, separators=(",", ": ")) + "\n"


def _group_block(spec: str, group):
    return {
        "spec": spec.strip(),
        "orders": list(group.orders),
        "weights": [list(row) for row in group.weights],
    }


def _ptheta_block(tp):
    return {
        "vertices": [_qvec(v) for v in tp.v.vertices],
        "rays": [list(r) for r in tp.v.rays],
        "inequalities": [
            {"coeffs": [int(c) for c in coeffs], "rhs": int(rhs)}
            for coeffs, rhs in tp.h.inequalities
        ],
    }


def _fan_block(tp):
    fan = tp.fan
    block = {
        "rays": [list(r) for r in fan.rays],
        "maximal_cones": [list(c) for c in fan.cones],
        "markers": [_qvec(v) for v in fan.vertices],
    }
    if tp.charts is not None:
        block["charts"] = [
            {
                "vertex": [int(x) for x in ch.vertex],
                "bound": ch.bound,
                "generators": [list(q) for q in ch.generators],
                "missing": [list(q) for q in ch.missing],
                "saturated_up_to_bound": ch.saturated_up_to_bound,
            }
            for ch in tp.charts
        ]
    return block


def _rep_block(rep, fan, cone):
    rays = [fan.rays[i] for i in cone]
    return {
        "w": _qvec(rep.w),
        "v": _qvec(rep.point),
        "value": _q(rep.value),
        "b": [int(x) for x in rep.b],
        "tight_set": sorted(rep.tight),
        "mode": rep.mode,
        "cone": {
            "ray_indices": list(cone),
            "rays": [list(r) for r in rays],
            "dim": int_rank(rays),
        },
    }


_PALETTE = [
    "#c6dbef",
    "#fdd0a2",
    "#c7e9c0",
    "#dadaeb",
    "#fee0d2",
    "#d9f0d3",
    "#fde0ef",
    "#e5f5e0",
    "#deebf7",
    "#fff7bc",
    "#e0ecf4",
]


def render_fan_svg(fan, title: str) -> str:
    """Barycentric cross-section (the plane x+y+z = 1) of a document's fan block in Q^3."""
    corners = ((60.0, 540.0), (580.0, 540.0), (320.0, 90.0))

    def bary(ray):
        s = float(sum(ray))
        wx = [float(x) / s for x in ray]
        return (
            sum(w * c[0] for w, c in zip(wx, corners)),
            sum(w * c[1] for w, c in zip(wx, corners)),
        )

    pts = [bary(r) for r in fan["rays"]]
    parts = [
        '<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 640 620" '
        'font-family="monospace" font-size="11">',
        f'<title>{title}</title>',
        '<rect width="640" height="620" fill="white"/>',
    ]
    for idx, (cone, marker) in enumerate(zip(fan["maximal_cones"], fan["markers"])):
        cpts = [pts[i] for i in cone]
        cx = sum(p[0] for p in cpts) / len(cpts)
        cy = sum(p[1] for p in cpts) / len(cpts)
        ordered = sorted(cpts, key=lambda p: math.atan2(p[1] - cy, p[0] - cx))
        path = " ".join(f"{p[0]:.2f},{p[1]:.2f}" for p in ordered)
        color = _PALETTE[idx % len(_PALETTE)]
        parts.append(
            f'<polygon points="{path}" fill="{color}" stroke="#555" stroke-width="0.8"/>'
        )
        parts.append(
            f'<text x="{cx:.2f}" y="{cy:.2f}" text-anchor="middle" fill="#333">'
            f"({','.join(str(int(Fraction(x))) for x in marker)})</text>"
        )
    for i, p in enumerate(pts):
        parts.append(
            f'<circle cx="{p[0]:.2f}" cy="{p[1]:.2f}" r="3" fill="#222"/>'
        )
        parts.append(
            f'<text x="{p[0] + 5:.2f}" y="{p[1] - 5:.2f}" fill="#111">{i}</text>'
        )
    parts.append('<text x="20" y="20" fill="#111">legend</text>')
    for i, ray in enumerate(fan["rays"]):
        coords = ",".join(str(x) for x in ray)
        parts.append(
            f'<text x="20" y="{34 + 14 * i}" fill="#111">{i}: ({coords})</text>'
        )
    parts.append(f'<text x="20" y="600" fill="#111">{title}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _quiver_text(doc) -> str:
    group, quiver = doc["group"], doc["quiver"]
    lines = [
        f"group: orders {tuple(group['orders'])}, {len(quiver['vertices'])} characters, "
        f"{len(group['weights'][0])} coordinates"
    ]
    for i, v in enumerate(quiver["vertices"]):
        lines.append(f"vertex {i}: {tuple(v)}")
    for k, a in enumerate(quiver["arrows"]):
        lines.append(f"arrow {k}: {a['tail']} -> {a['head']} (label {a['label']})")
    for name in "BCD":
        lines.append(f"{name}:")
        for row in quiver[name.lower()]:
            lines.append("  " + " ".join(f"{x:3d}" for x in row))
    return "\n".join(lines) + "\n"


def _fan_text(doc) -> str:
    fan = doc["fan"]
    lines = []
    for i, r in enumerate(fan["rays"]):
        lines.append(f"ray {i}: {tuple(r)}")
    for cone, marker in zip(fan["maximal_cones"], fan["markers"]):
        lines.append(
            f"maximal cone {cone} at vertex {tuple(int(Fraction(x)) for x in marker)}"
        )
    for ch in fan.get("charts", ()):
        verdict = "saturated" if ch["saturated_up_to_bound"] else "NOT saturated"
        lines.append(
            f"chart at {tuple(ch['vertex'])}: {len(ch['generators'])} generators, "
            f"{verdict} up to bound {ch['bound']}"
        )
    return "\n".join(lines) + "\n"


def _rep_text(doc) -> str:
    rep = doc["rep"]
    lines = [
        "b = " + "".join(str(x) for x in rep["b"]),
        f"tight set: {rep['tight_set']}",
        f"optimal value: {Fraction(rep['value'])}",
        f"cone rays: {[tuple(r) for r in rep['cone']['rays']]}",
    ]
    return "\n".join(lines) + "\n"


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="mckay-moduli",
        description="Exact toric data of moduli of quiver representations "
        "for finite abelian group actions.",
    )
    sub = p.add_subparsers(dest="cmd", required=True)

    def add_common(sp):
        sp.add_argument("--group", required=True, help="group spec, e.g. '1/7(1,2)'")
        sp.add_argument("--format", choices=("json", "text"), default="json")
        sp.add_argument("--output", help="write the document to this file")

    sp = sub.add_parser("quiver", help="vertices, arrows and incidence matrices")
    add_common(sp)

    def add_theta(sp):
        grp = sp.add_mutually_exclusive_group(required=True)
        grp.add_argument("--theta", type=_rational_csv, help="stability parameter")
        grp.add_argument(
            "--ghilb",
            action="store_true",
            help="use the orbit Hilbert scheme parameter (1-r, 1, ..., 1)",
        )

    sp = sub.add_parser("fan", help="type polyhedron and its inner-normal fan")
    add_common(sp)
    add_theta(sp)
    sp.add_argument("--lifted", action="store_true",
                    help="cut the polyhedron out by the extreme rays of the potential cone "
                    "(grows exponentially) instead of certifying facets with min-cost flows")
    sp.add_argument("--charts", type=int, metavar="BOUND", help="chart reports up to degree BOUND")
    sp.add_argument("--svg", help="write a barycentric cross-section (3 coordinates only)")

    sp = sub.add_parser("rep", help="distinguished representation for (theta, w)")
    add_common(sp)
    add_theta(sp)
    sp.add_argument("-w", "--w", required=True, type=_rational_csv,
                    help="nonnegative weights")
    sp.add_argument(
        "--single-optimizer",
        action="store_true",
        help="inspect the greatest optimizer instead of the whole optimal face",
    )

    sp = sub.add_parser("check", help="run the fixed suite of consistency checks on a group")
    sp.add_argument("--group", required=True)
    return p


def _write(path: str, text: str) -> None:
    # Only a path that cannot be opened is malformed input; a failure while
    # writing an opened file (disk full, I/O error) is not, and exits 1.
    try:
        fh = open(path, "w")
    except OSError as exc:
        raise InputError(f"cannot write {path}: {exc.strerror or exc}") from None
    try:
        with fh:
            fh.write(text)
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, path) from None


def _merge_vector_flags(argv):
    """Join value flags with values that start with a minus sign.

    argparse mistakes "-2,1,1" for an option name, so "--theta -2,1,1" is
    rewritten to "--theta=-2,1,1" before parsing.
    """
    flags = ("--theta", "--w", "-w")
    out = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        if tok in flags and i + 1 < len(argv):
            nxt = argv[i + 1]
            if nxt.startswith("-") and any(ch.isdigit() for ch in nxt):
                out.append(tok + "=" + nxt)
                i += 2
                continue
        out.append(tok)
        i += 1
    return out


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = build_parser().parse_args(_merge_vector_flags(list(argv)))
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2

    try:
        return _dispatch(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ModuliError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        # A write failed; stdout's unwritten text would fail again at exit.
        if exc.filename is None:
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print(f"error: cannot write {exc.filename or 'stdout'}: {exc.strerror}", file=sys.stderr)
        return 1


def _dispatch(args) -> int:
    orders, weights = parse_group_spec(args.group)
    group = build_group(orders, weights)
    quiver = build_quiver(group)

    if args.cmd == "check":
        results = run_all(quiver)
        ok = True
        for name, passed, detail in results:
            if passed:
                print(f"ok   {name}")
            else:
                ok = False
                print(f"FAIL {name}: {detail}")
        print(("all checks passed" if ok else "some checks FAILED"), flush=True)
        return 0 if ok else 1

    doc = {"schema": SCHEMA, "group": _group_block(args.group, group)}
    if args.cmd == "quiver":
        inc = incidence_matrices(quiver)
        doc["quiver"] = {
            "vertices": [list(v) for v in quiver.vertices],
            "arrows": [
                {"tail": a.tail, "head": a.head, "label": a.label} for a in quiver.arrows
            ],
            "b": [list(r) for r in inc.b],
            "c": [list(r) for r in inc.c],
            "d": [list(r) for r in inc.d],
        }
        view = _quiver_text
    else:
        theta = ghilb_parameter(quiver) if args.ghilb else args.theta
        integral = stability_parameter(quiver, theta)
        doc["theta"] = _qvec(theta)
        if args.cmd == "fan":
            if args.charts is not None and args.charts < 0:
                raise InputError("chart bound must be nonnegative")
            if args.svg is not None and quiver.n != 3:
                raise InputError("the SVG cross-section is only defined for 3 coordinates")
            tp = (lifted_theta_polyhedron if args.lifted else theta_polyhedron)(quiver, integral)
            doc["p_theta"] = _ptheta_block(tp)
            doc["fan"] = _fan_block(tp if args.charts is None else moduli_fan(tp, args.charts))
            if args.svg is not None:
                title = f"{args.group.strip()} theta={','.join(doc['theta'])}"
                _write(args.svg, render_fan_svg(doc["fan"], title))
            view = _fan_text
        else:
            # The flow validates w, so a malformed w exits before any geometry.
            rep = distinguished_rep(quiver, theta, args.w, single_optimizer=args.single_optimizer)
            fan = theta_polyhedron(quiver, integral).fan
            doc["rep"] = _rep_block(rep, fan, locate_cone(fan, rep.w))
            view = _rep_text
    text = view(doc) if args.format == "text" else _dump(doc)
    if args.output:
        _write(args.output, text)
    else:
        print(text, end="", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
