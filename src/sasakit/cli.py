"""Batch command-line front end.

Subcommands: check, analyze, family, geodesic-test.  All output is JSON on
stdout (deterministic bytes for fixed input and flags); timings are opt-in
because they are inherently non-reproducible.  Exit codes partition the
outcomes: 0 success, 1 input error, 2 not good, 3 no height structure when
one is required, 4 numerical failure.
"""

from __future__ import annotations

import argparse
import math
import sys
import time
from functools import cache

from . import __version__
from .cones import (
    ToricDiagram,
    canonical_reeb,
    cone_skeleton,
    height1_points,
    is_good,
)
from .cy import compute_gamma, kernel_lattice, normalize_height
from .errors import NotNormalized, SasakitError, WrongRank
from .families import FAMILY_BUILDERS
from .reeb import minimize_volume, truncated_polytope, volume
from .serialize import (
    PRECISION,
    FLOAT_FORMAT,
    diagram_to_dict,
    dumps,
    format_float,
    fraction_to_str,
    load_diagram,
)
from .topology import topology_report

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_NOT_GOOD = 2
EXIT_NO_CY = 3
EXIT_NUMERICAL = 4

# the two perturbed starts of --reeb: the first four draws of
# random.Random(0).uniform(-0.5, 0.5), so the output never varies
RESTART_OFFSETS = (
    (0.3444218515250481, 0.2579544029403025),
    (-0.079428419169155, -0.24108324970703665),
)

# numpy and the potentials load on first use: check, --cy, --topo, --reeb and
# --scan never import them.  These names resolve as attributes of this module
# (perfbench/tracing.py wraps two of them), and callers read them from its
# globals, so a wrapper bound there is the one that runs.
_POTENTIALS = (
    "LinearTerm", "RationalBump", "canonical_potential", "eval_potential",
    "geodesic_equation_residual", "geodesic_segment", "legendre_roundtrip_error",
    "reeb_invariance_residual", "shifted_potential",
)


def _load_potentials() -> None:
    """Bind `np` and the `_POTENTIALS` names here, keeping any already bound."""
    import numpy

    from . import potentials

    namespace = globals()
    namespace.setdefault("np", numpy)
    for name in _POTENTIALS:
        namespace.setdefault(name, getattr(potentials, name))


def __getattr__(name):
    if name in _POTENTIALS:
        _load_potentials()
        return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def _tool_block() -> dict:
    return {
        "name": "sasakit",
        "version": __version__,
        "float_format": FLOAT_FORMAT,
        "precision": PRECISION,
    }


def _interior_sample(diagram: ToricDiagram) -> np.ndarray:
    _load_potentials()
    # not sum(): np.mean adds pairwise, which changes the bytes from 8 cap vertices on
    poly = truncated_polytope(diagram, [float(x) for x in canonical_reeb(diagram)])
    cap = np.array([[float(c) for c in v] for v in poly.cap_vertices])
    return cap.mean(axis=0)


def _emit(out: dict, code: int, t_start: float | None = None) -> int:
    """Print `out`, with the seconds since `t_start` when timings are asked for."""
    if t_start is not None:
        out["timing_seconds"] = time.perf_counter() - t_start
    print(dumps(out), end="")
    return code


def _fail(message: str, code: int, t_start: float | None = None) -> int:
    return _emit({"error": message, "tool": _tool_block()}, code, t_start)


def _load_rank3(path: str, t_start: float | None = None) -> ToricDiagram | None:
    """The rank-3 diagram at `path`, or None once the input error is printed."""
    try:
        return load_diagram(path, rank=3)[0]
    except WrongRank:
        message = "the command line pipeline handles rank-3 diagrams only"
    except (OSError, ValueError) as exc:
        message = str(exc)
    _fail(message, EXIT_INPUT, t_start)
    return None


def _goodness(report) -> dict:
    certificate = None
    if not report.good:
        certificate = {"failing_face": list(report.failing_face), "reason": report.reason}
    return {"good": report.good, "certificate": certificate}


def cmd_check(args) -> int:
    diagram = _load_rank3(args.path)
    if diagram is None:
        return EXIT_INPUT
    report = is_good(diagram)
    out = {
        "input": diagram_to_dict(diagram),
        "tool": _tool_block(),
        **_goodness(report),
        # every normal is one facet, the skeleton's rays are the edges
        "faces": {"facets": diagram.d, "edges": len(cone_skeleton(diagram).rays)},
    }
    return _emit(out, EXIT_OK if report.good else EXIT_NOT_GOOD)


def _emit_svg(diagram: ToricDiagram, path: str) -> None:
    pts = height1_points(diagram)
    xs = [p for p, _ in pts]
    ys = [q for _, q in pts]
    lo_x, hi_x = min(xs) - 1, max(xs) + 1
    lo_y, hi_y = min(ys) - 1, max(ys) + 1
    scale = 40
    width = (hi_x - lo_x) * scale
    height = (hi_y - lo_y) * scale

    def sx(p):
        return (p - lo_x) * scale

    def sy(q):
        return (hi_y - q) * scale

    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">'
    ]
    for gx in range(lo_x, hi_x + 1):
        lines.append(
            f'<line x1="{sx(gx)}" y1="0" x2="{sx(gx)}" y2="{height}" '
            'stroke="#dddddd" stroke-width="1"/>'
        )
    for gy in range(lo_y, hi_y + 1):
        lines.append(
            f'<line x1="0" y1="{sy(gy)}" x2="{width}" y2="{sy(gy)}" '
            'stroke="#dddddd" stroke-width="1"/>'
        )
    poly = " ".join(f"{sx(p)},{sy(q)}" for p, q in pts)
    lines.append(
        f'<polygon points="{poly}" fill="#c8dcf0" fill-opacity="0.6" '
        'stroke="#003366" stroke-width="2"/>'
    )
    for p, q in pts:
        lines.append(f'<circle cx="{sx(p)}" cy="{sy(q)}" r="4" fill="#003366"/>')
        lines.append(
            f'<text x="{sx(p) + 6}" y="{sy(q) - 6}" font-size="12" '
            f'font-family="monospace">({p},{q})</text>'
        )
    lines.append("</svg>")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def _write_csv(path: str, header: list[str], lines: list[str]) -> None:
    """The header and the comma-joined lines, each ended by CRLF: the bytes the
    csv module's default dialect writes for fields that need no quoting."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write("\r\n".join([",".join(header), *lines, ""]))


def _write_grid_csv(diagram: ToricDiagram, n: int, path: str) -> int:
    """The canonical potential at n scalings 0.5 .. 1.5 of the interior sample,
    as one stack of points; MemoryError when numpy cannot hold them."""
    _load_potentials()
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        pot = canonical_potential(diagram)
        try:
            factors = np.full(n, 0.5)
        except ValueError as exc:  # numpy's "too big" beyond the address space
            raise MemoryError(str(exc)) from None
        factors += np.arange(n) / (n - 1) if n > 1 else 0.5
        ys = factors[:, None] * _interior_sample(diagram)
        sample = eval_potential(pot, ys)
        resid = legendre_roundtrip_error(pot, ys)
    table = np.column_stack([sample.y, sample.G, sample.x, sample.F, resid])
    m1 = diagram.rank
    header = (
        [f"y{i + 1}" for i in range(m1)]
        + ["G"]
        + [f"x{i + 1}" for i in range(m1)]
        + ["F", "roundtrip_residual"]
    )
    row = ",".join([FLOAT_FORMAT] * len(header))
    _write_csv(path, header, [row % tuple(values) for values in table.tolist()])
    return n


def _write_scan_csv(diagram, result, directions, path) -> int:
    xi_star = result.xi.xi
    lines = []
    for ridx, direction in enumerate(directions):
        for k in range(41):
            tau = k / 40 * 0.95
            xi = tuple((1 - tau) * a + tau * b for a, b in zip(xi_star, direction))
            try:
                vol = volume(diagram, xi)
            except SasakitError:
                break
            lines.append(",".join([str(ridx), *map(format_float, (tau, *xi, vol))]))
    header = ["ray", "tau"] + [f"xi{i+1}" for i in range(diagram.rank)] + ["volume"]
    _write_csv(path, header, lines)
    return len(lines)


def _scan_point(raw: str, rank: int):
    """One --scan value as `rank` finite floats, or None."""
    try:
        point = [float(x) for x in raw.split(",")]
    except ValueError:
        return None
    return point if len(point) == rank and all(map(math.isfinite, point)) else None


def cmd_analyze(args) -> int:
    t_start = time.perf_counter() if args.timings else None
    if args.potential_grid is not None and args.potential_grid < 1:
        return _fail("--potential-grid takes a positive number of points", EXIT_INPUT, t_start)
    diagram = _load_rank3(args.path, t_start)
    if diagram is None:
        return EXIT_INPUT

    stages: dict = {"validation": {"ok": True, "d": diagram.d, "rank": diagram.rank}}
    out = {"input": diagram_to_dict(diagram), "tool": _tool_block(), "stages": stages}

    good = is_good(diagram)
    stages["goodness"] = _goodness(good)
    if not good.good:
        return _emit(out, EXIT_NOT_GOOD, t_start)

    cy = compute_gamma(diagram)
    if args.cy:
        if cy is None:
            stages["cy"] = {"present": False}
        else:
            A, transformed = normalize_height(diagram, cy)
            kl = kernel_lattice(diagram)
            stages["cy"] = {
                "present": True,
                "gamma": [fraction_to_str(g) for g in cy.gamma],
                "height": cy.height,
                "normalizer": [list(r) for r in A.entries],
                "normalized_normals": [list(v) for v in transformed.normals],
                "kernel_rank": kl.rank,
                "component_group": list(kl.component_group),
                # the first row of the normalized N is l(1, ..., 1): always true
                "row_sum_times_height_integral": True,
            }

    if args.topo:
        stages["topology"] = topology_report(diagram).to_json_dict()

    if args.reeb:
        directions = [_scan_point(raw, diagram.rank) for raw in args.scan or ()]
        if None in directions:
            message = f"--scan takes {diagram.rank} finite comma-separated numbers"
            return _fail(message, EXIT_INPUT, t_start)
        if cy is None:
            stages["reeb"] = {
                "error": "no toric diagram structure; c1(D) = 0 fails"
            }
            return _emit(out, EXIT_NO_CY, t_start)
        try:
            base = minimize_volume(diagram, cy)
            restarts = [minimize_volume(diagram, cy, start_offset=o) for o in RESTART_OFFSETS]
            if not all(r.converged for r in (base, *restarts)):
                raise ArithmeticError("volume minimization did not converge")
            deviation = max(abs(a - b) for r in restarts for a, b in zip(base.xi.xi, r.xi.xi))
            stages["reeb"] = {
                "xi": [format_float(x) for x in base.xi.xi],
                "volume": format_float(base.volume),
                "grad_norm": format_float(base.grad_norm),
                "iterations": base.iterations,
                "optimizer": "newton",
                "starts": 3,
                "max_start_deviation": format_float(deviation),
            }
            if directions:
                scan_path = args.scan_out or "reeb_scan.csv"
                npts = _write_scan_csv(diagram, base, directions, scan_path)
                stages["reeb"]["scan_csv"] = scan_path
                stages["reeb"]["scan_points"] = npts
        except (SasakitError, ArithmeticError) as exc:
            return _fail(f"numerical failure: {exc}", EXIT_NUMERICAL, t_start)
        except OSError as exc:
            return _fail(str(exc), EXIT_INPUT, t_start)

    if args.potential_grid is not None:
        grid_path = args.grid_out or "potential_grid.csv"
        try:
            npts = _write_grid_csv(diagram, args.potential_grid, grid_path)
        except (SasakitError, ArithmeticError, np.linalg.LinAlgError) as exc:
            return _fail(f"numerical failure: {exc}", EXIT_NUMERICAL, t_start)
        except MemoryError:
            message = f"--potential-grid {args.potential_grid}: not enough memory for the grid"
            return _fail(message, EXIT_INPUT, t_start)
        except OSError as exc:
            return _fail(str(exc), EXIT_INPUT, t_start)
        stages["potential_grid"] = {"csv": grid_path, "points": npts}

    if args.emit_svg:
        try:
            _emit_svg(diagram, args.emit_svg)
        except (NotNormalized, ValueError, OSError) as exc:
            return _fail(str(exc), EXIT_INPUT, t_start)
        stages["svg"] = {"path": args.emit_svg}

    return _emit(out, EXIT_OK, t_start)


def cmd_family(args) -> int:
    builder, options = FAMILY_BUILDERS[args.family]
    values = [getattr(args, name) for name in options]
    try:
        if None in values:
            flags = " and ".join(f"--{name}" for name in options)
            raise ValueError(f"{args.family} requires {flags}")
        diagram = builder(*values)
    except ValueError as exc:
        return _fail(str(exc), EXIT_INPUT)
    print(dumps(diagram_to_dict(diagram)), end="")
    return EXIT_OK


def cmd_geodesic_test(args) -> int:
    _load_potentials()
    if not 0.0 < args.t < 1.0:
        return _fail(f"--t must lie in (0, 1), got {args.t}", EXIT_INPUT)
    diagram = _load_rank3(args.path)
    if diagram is None:
        return EXIT_INPUT
    try:
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            g0 = canonical_potential(diagram)
            # two facet pairings over <sum of normals, y>: all three are positive
            # on the open cone in every basis, so no interior point zeroes the bump
            a, b = ([float(v) for v in lam] for lam in diagram.normals[:2])
            bump = RationalBump(a, b, c=[float(v) for v in canonical_reeb(diagram)])
            y = _interior_sample(diagram)
            g1 = shifted_potential(g0, bump)
            g1_linear = shifted_potential(g0, LinearTerm([0.25] * diagram.rank, 0.0))
            steps = (1e-2, 5e-3, 2.5e-3)
            vals = [abs(geodesic_equation_residual(g0, g1, y, t=args.t, h=h)) for h in steps]
            # F at y sums n terms, so each stencil value rounds by about n eps |F|,
            # and the second t-difference weighs three of them by 1, 2, 1 over h^2.
            # A ladder that starts within 10x of that floor halves nothing: no order.
            center = geodesic_segment(g0, g1, args.t)
            n = center.weights.size + len(center.extras)
            f_scale = abs(float(eval_potential(center, y).F))
            floor = 4 * n * np.finfo(float).eps * f_scale / steps[0] ** 2
            if vals[0] <= 10 * floor:
                order = None
            else:
                order = float(np.log2(vals[0] / vals[1])) if vals[1] > 0 else float("inf")
            out = {
                "input": diagram_to_dict(diagram),
                "tool": _tool_block(),
                "t": format_float(args.t),
                "point": [format_float(v) for v in y],
                "reeb_invariance_residual_bump": format_float(
                    reeb_invariance_residual(bump, y)
                ),
                "geodesic_residuals": {
                    format_float(h): format_float(v) for h, v in zip(steps, vals)
                },
                "convergence_order": None if order is None else format_float(order),
                "linear_shift_residual": format_float(
                    abs(geodesic_equation_residual(g0, g1_linear, y, t=args.t, h=1e-3))
                ),
            }
    except (SasakitError, ArithmeticError, np.linalg.LinAlgError) as exc:
        return _fail(f"numerical failure: {exc}", EXIT_NUMERICAL)
    return _emit(out, EXIT_OK)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sasakit",
        description="Good cones, toric diagrams, topology invariants, and "
        "Reeb volume minimization from facet-normal data.",
    )
    parser.add_argument("--version", action="version", version=f"sasakit {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser("check", help="validate a diagram and decide goodness")
    p_check.add_argument("path")
    p_check.set_defaults(func=cmd_check)

    p_an = sub.add_parser("analyze", help="run the full pipeline on a diagram")
    p_an.add_argument("path")
    p_an.add_argument("--cy", action="store_true", help="height structure stage")
    p_an.add_argument("--topo", action="store_true", help="topology stage")
    p_an.add_argument("--reeb", action="store_true", help="volume minimization stage")
    p_an.add_argument("--potential-grid", type=int, metavar="N")
    p_an.add_argument("--grid-out", metavar="PATH")
    p_an.add_argument("--scan", action="append", metavar="X1,X2,X3")
    p_an.add_argument("--scan-out", metavar="PATH")
    p_an.add_argument("--emit-svg", metavar="PATH")
    p_an.add_argument("--timings", action="store_true")
    p_an.set_defaults(func=cmd_analyze)

    p_fam = sub.add_parser("family", help="emit a built-in diagram family member")
    p_fam.add_argument("family", choices=sorted(FAMILY_BUILDERS), metavar="FAMILY")
    p_fam.add_argument("--l", type=int)
    p_fam.add_argument("--r", type=int)
    p_fam.add_argument("--s", type=int)
    p_fam.set_defaults(func=cmd_family)

    p_geo = sub.add_parser(
        "geodesic-test", help="run the potential residual suite on a diagram"
    )
    p_geo.add_argument("path")
    p_geo.add_argument("--t", type=float, default=0.4)
    p_geo.set_defaults(func=cmd_geodesic_test)
    return parser


_parser = cache(build_parser)  # main's one parser per process; parse_args leaves it as is


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
