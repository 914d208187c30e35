"""Batch command-line front end.

Subcommands: check, analyze, family, geodesic-test.  All output is JSON on
stdout (deterministic bytes for fixed input and flags); timings are opt-in
because they are inherently non-reproducible.  Exit codes partition the
outcomes: 0 success, 1 input error (argparse's usage errors included), 2 not
good, 3 no height structure when one is required, 4 numerical failure, 5
stdout not written (a full disk), 141 (128 + SIGPIPE) stdout closed by its
reader.  `run` is the process entry; `main` serves library callers.

Each handler returns its output, a dict and an exit code, and raises
`_Failure` for an error output.  `main` alone prints: it turns a `_Failure`
or an OSError from a file sasakit reads or writes into error JSON, adds
`timing_seconds` when `--timings` asks for it, and prints the one document.

Each subcommand and its arguments are declared once, in `_COMMANDS`.
`_read_argv` reads an argv made of exact names and plain values from that
table.  argparse, built from the same table and imported only when needed,
reads every other argv and prints every help, version and usage message.
"""

from __future__ import annotations

import gc
import math
import os
import stat
import sys
import time
from functools import cache
from types import SimpleNamespace

from . import __version__
from .cones import (
    ToricDiagram,
    canonical_reeb,
    cone_skeleton,
    height1_points,
    is_good,
)
from .cy import compute_gamma, kernel_lattice, normalize_height
from .errors import SasakitError, WrongRank
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
EXIT_STDOUT = 5  # stdout could not be written, other than a closed pipe
EXIT_BROKEN_PIPE = 141  # 128 + SIGPIPE: what a shell reports for a process SIGPIPE ended

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
    # a float Reeb vector makes every cap vertex entry a float already
    poly = truncated_polytope(diagram, [float(x) for x in canonical_reeb(diagram)])
    # not sum(): np.mean adds pairwise, which changes the bytes from 8 cap vertices on
    return np.array(poly.cap_vertices).mean(axis=0)


class _Failure(Exception):
    """An error output: raised as _Failure(message, exit code), printed by `main`."""


def _load_rank3(path: str) -> ToricDiagram:
    """The rank-3 diagram at `path`; an OSError reading it reaches `main`."""
    try:
        return load_diagram(path, rank=3)[0]
    except WrongRank:
        raise _Failure("the command line pipeline handles rank-3 diagrams only", EXIT_INPUT)
    except ValueError as exc:
        raise _Failure(str(exc), EXIT_INPUT)


def _goodness(report) -> dict:
    certificate = None
    if not report.good:
        certificate = {"failing_face": list(report.failing_face), "reason": report.reason}
    return {"good": report.good, "certificate": certificate}


def cmd_check(args) -> tuple[dict, int]:
    diagram = _load_rank3(args.path)
    report = is_good(diagram)
    out = {
        "input": diagram_to_dict(diagram),
        "tool": _tool_block(),
        **_goodness(report),
        # "facets" counts the normals as given, a normal that cuts no facet
        # included; the skeleton's rays are the edges
        "faces": {"facets": diagram.d, "edges": len(cone_skeleton(diagram).rays)},
    }
    return out, EXIT_OK if report.good else EXIT_NOT_GOOD


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
    _write_file(path, "\n".join(lines) + "\n")


def _write_file(path: str, text: str) -> None:
    """`text` in UTF-8 over the file at `path`, which is made with mode
    0o666 & ~umask when missing: every file sasakit writes comes through here.

    The file is overwritten in place, not truncated to empty first (on ext4
    that made a small rewrite several times slower), and a regular file left
    longer than the bytes written is then cut to them, also when a write
    fails part-way.  So, absent a crash, it keeps no byte of its old content.
    A crash can: the cut may reach the disk before the overwritten blocks
    do, which truncating first would not allow.  Other targets (/dev/null, a
    pipe) refuse the cut and take none.
    """
    data = memoryview(text.encode("utf-8"))
    fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_CLOEXEC, 0o666)
    try:
        written = 0
        try:
            while written < len(data):
                written += os.write(fd, data[written:])
        finally:
            st = os.fstat(fd)
            if stat.S_ISREG(st.st_mode) and st.st_size > written:
                os.ftruncate(fd, written)
    finally:
        os.close(fd)


def _write_csv(path: str, header: list[str], lines: list[str]) -> None:
    """The header and the comma-joined lines, each ended by CRLF: the bytes the
    csv module's default dialect writes for fields that need no quoting."""
    _write_file(path, "\r\n".join([",".join(header), *lines, ""]))


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


def cmd_analyze(args) -> tuple[dict, int]:
    if args.potential_grid is not None and args.potential_grid < 1:
        raise _Failure("--potential-grid takes a positive number of points", EXIT_INPUT)
    diagram = _load_rank3(args.path)

    stages: dict = {"validation": {"ok": True, "d": diagram.d, "rank": diagram.rank}}
    out = {"input": diagram_to_dict(diagram), "tool": _tool_block(), "stages": stages}

    good = is_good(diagram)
    stages["goodness"] = _goodness(good)
    if not good.good:
        return out, EXIT_NOT_GOOD

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
            raise _Failure(message, EXIT_INPUT)
        if cy is None:
            stages["reeb"] = {
                "error": "no toric diagram structure; c1(D) = 0 fails"
            }
            return out, EXIT_NO_CY
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
            raise _Failure(f"numerical failure: {exc}", EXIT_NUMERICAL)

    if args.potential_grid is not None:
        grid_path = args.grid_out or "potential_grid.csv"
        try:
            npts = _write_grid_csv(diagram, args.potential_grid, grid_path)
        except (SasakitError, ArithmeticError, np.linalg.LinAlgError) as exc:
            raise _Failure(f"numerical failure: {exc}", EXIT_NUMERICAL)
        except MemoryError:
            message = f"--potential-grid {args.potential_grid}: not enough memory for the grid"
            raise _Failure(message, EXIT_INPUT)
        stages["potential_grid"] = {"csv": grid_path, "points": npts}

    if args.emit_svg:
        try:
            _emit_svg(diagram, args.emit_svg)
        except ValueError as exc:
            raise _Failure(str(exc), EXIT_INPUT)
        stages["svg"] = {"path": args.emit_svg}

    return out, EXIT_OK


def cmd_family(args) -> tuple[dict, int]:
    builder, options = FAMILY_BUILDERS[args.family]
    values = [getattr(args, name) for name in options]
    try:
        if None in values:
            flags = " and ".join(f"--{name}" for name in options)
            raise ValueError(f"{args.family} requires {flags}")
        diagram = builder(*values)
    except ValueError as exc:
        raise _Failure(str(exc), EXIT_INPUT)
    return diagram_to_dict(diagram), EXIT_OK


def cmd_geodesic_test(args) -> tuple[dict, int]:
    _load_potentials()
    if not 0.0 < args.t < 1.0:
        raise _Failure(f"--t must lie in (0, 1), got {args.t}", EXIT_INPUT)
    diagram = _load_rank3(args.path)
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
        raise _Failure(f"numerical failure: {exc}", EXIT_NUMERICAL)
    return out, EXIT_OK


# Every subcommand, declared once: its help, its handler and its arguments,
# each with the keywords of argparse's add_argument.  build_parser hands them
# to argparse; _read_argv applies the actions store_true and append, `type`,
# `choices` and `default` itself, so a keyword beyond these needs it taught.
_COMMANDS = {
    "check": ("validate a diagram and decide goodness", cmd_check, {"path": {}}),
    "analyze": (
        "run the full pipeline on a diagram",
        cmd_analyze,
        {
            "path": {},
            "--cy": {"action": "store_true", "help": "height structure stage"},
            "--topo": {"action": "store_true", "help": "topology stage"},
            "--reeb": {"action": "store_true", "help": "volume minimization stage"},
            "--potential-grid": {"type": int, "metavar": "N"},
            "--grid-out": {"metavar": "PATH"},
            "--scan": {"action": "append", "metavar": "X1,X2,X3"},
            "--scan-out": {"metavar": "PATH"},
            "--emit-svg": {"metavar": "PATH"},
            "--timings": {"action": "store_true"},
        },
    ),
    "family": (
        "emit a built-in diagram family member",
        cmd_family,
        {
            "family": {"choices": sorted(FAMILY_BUILDERS), "metavar": "FAMILY"},
            "--l": {"type": int},
            "--r": {"type": int},
            "--s": {"type": int},
        },
    ),
    "geodesic-test": (
        "run the potential residual suite on a diagram",
        cmd_geodesic_test,
        {"path": {}, "--t": {"type": float, "default": 0.4}},
    ),
}


def _value(token: str, spec: dict):
    """`token` as the argument's type and choices read it, or None when it
    starts with "-" or they refuse it."""
    if token.startswith("-"):
        return None
    try:
        value = spec.get("type", str)(token)
    except (TypeError, ValueError):
        return None
    if "choices" in spec and value not in spec["choices"]:
        return None
    return value


def _read_argv(argv) -> SimpleNamespace | None:
    """The namespace argparse returns for `argv`, or None for argparse to read.

    It reads the exact subcommand, exact long option names, each option's
    value as the next token and the positionals in number.  Anything else
    gives None: -h, --help, --version, --opt=value, an abbreviation, --, a
    value or extra token starting with "-", a missing or extra positional,
    a value the type or choices refuse.
    """
    if not argv or argv[0] not in _COMMANDS:
        return None
    _, func, arguments = _COMMANDS[argv[0]]
    values = {
        name: False if spec.get("action") == "store_true" else spec.get("default")
        for name, spec in arguments.items()
    }
    positionals = [name for name in arguments if not name.startswith("-")]
    given = []
    tokens = iter(argv[1:])
    for token in tokens:
        if not token.startswith("-"):
            given.append(token)
            continue
        spec = arguments.get(token)
        if spec is None:
            return None
        if spec.get("action") == "store_true":
            values[token] = True
            continue
        value = _value(next(tokens, "-"), spec)  # no value left reads as "-"
        if value is None:
            return None
        values[token] = [*(values[token] or ()), value] if spec.get("action") == "append" else value
    if len(given) != len(positionals):
        return None
    for name, token in zip(positionals, given):
        values[name] = _value(token, arguments[name])
        if values[name] is None:
            return None
    dests = {name.lstrip("-").replace("-", "_"): value for name, value in values.items()}
    return SimpleNamespace(command=argv[0], func=func, **dests)


@cache
def _parser_class():
    """argparse's parser class, with a usage error exiting as an input error
    (1), since argparse's 2 would read as "not good".  Subparsers inherit the
    class.  Defined on first use, so that argparse and gettext load only for
    an argv `_read_argv` leaves to them."""
    import argparse
    from gettext import gettext as _

    class _Parser(argparse.ArgumentParser):
        def _print_message(self, message, file=None):
            # argparse's own swallows an OSError: help or version into a
            # closed stdout would exit 0.  This one lets it reach `run`.
            if message and file is not None and file is sys.stdout:
                file.write(message)
            else:
                super()._print_message(message, file)

        def error(self, message):
            self.print_usage(sys.stderr)
            args = {"prog": self.prog, "message": message}
            self.exit(EXIT_INPUT, _("%(prog)s: error: %(message)s\n") % args)

    return _Parser


def build_parser() -> argparse.ArgumentParser:
    parser = _parser_class()(
        prog="sasakit",
        description="Good cones, toric diagrams, topology invariants, and "
        "Reeb volume minimization from facet-normal data.",
    )
    parser.add_argument("--version", action="version", version=f"sasakit {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (help_text, func, arguments) in _COMMANDS.items():
        p_command = sub.add_parser(command, help=help_text)
        for name, spec in arguments.items():
            p_command.add_argument(name, **spec)
        p_command.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _read_argv(argv)
    if args is None:
        args = build_parser().parse_args(argv)
    start = time.perf_counter()
    try:
        out, code = args.func(args)
    except _Failure as exc:
        message, code = exc.args
        out = {"error": message, "tool": _tool_block()}
    except OSError as exc:  # from a file sasakit reads or writes: stdout is written below
        out, code = {"error": str(exc), "tool": _tool_block()}, EXIT_INPUT
    if getattr(args, "timings", False):
        out["timing_seconds"] = time.perf_counter() - start
    print(dumps(out), end="")
    return code


def run(argv=None) -> int:
    """The process entry (`python -m sasakit.cli`, the `sasakit` script): `main`,
    then `gc.freeze()`, so the interpreter's full collections at exit skip every
    object a one-shot process holds.  A stdout closed by its reader exits 141
    with nothing on stderr; any other error writing stdout (a full disk)
    exits 5 with one line on stderr.  Every output file is handled inside
    `main`, so an OSError that reaches here is stdout's.  Library callers use
    `main`, which never freezes."""
    try:
        try:
            return main(argv)
        finally:
            sys.stdout.flush()  # a closed pipe raises here, not at the exit's flush
    except OSError as exc:
        # what is left goes to devnull, so the flush at exit raises no more
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        if isinstance(exc, BrokenPipeError):
            return EXIT_BROKEN_PIPE
        try:
            print(f"sasakit: error: cannot write stdout: {exc}", file=sys.stderr)
        except OSError:
            pass
        return EXIT_STDOUT
    finally:
        gc.freeze()


if __name__ == "__main__":
    sys.exit(run())
