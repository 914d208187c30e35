"""JSON interchange for diagrams and reports.

Rationals travel as strings ("-1/2") so nothing is ever rounded; floats are
rendered to 12 significant digits, which keeps byte-identical output for
identical runs.
"""

from __future__ import annotations

import json
from fractions import Fraction
from json.encoder import encode_basestring_ascii

from .cones import ToricDiagram, validate_diagram
from .cy import CalabiYauData, compute_gamma
from .errors import DiagramError, WrongRank

FLOAT_FORMAT = "%.12g"
PRECISION = 12
_INF = float("inf")


def format_float(x: float) -> str:
    return FLOAT_FORMAT % float(x)


def fraction_to_str(q: Fraction) -> str:
    return str(Fraction(q))


def fraction_from_str(s: str) -> Fraction:
    return Fraction(str(s).replace(" ", ""))


def diagram_to_dict(diagram: ToricDiagram, cy: CalabiYauData | None = None) -> dict:
    out = {
        "rank": diagram.rank,
        "normals": [list(v) for v in diagram.normals],
    }
    if cy is not None:
        out["gamma"] = [fraction_to_str(g) for g in cy.gamma]
        out["height"] = cy.height
    return out


def _is_int(x) -> bool:
    # JSON true/false arrive as bool, a subclass of int
    return isinstance(x, int) and not isinstance(x, bool)


def _gamma_entry(s) -> Fraction:
    # an exponent is refused unread: Fraction("1e100000000") builds 10 ** 100000000
    if "e" not in str(s).lower():
        try:
            return fraction_from_str(s)
        except (ValueError, ZeroDivisionError):
            pass
    raise DiagramError(f'"gamma" entries must be rationals like "-1/2", got {s!r}')


def diagram_from_dict(data, rank=None) -> tuple[ToricDiagram, CalabiYauData | None]:
    """Diagram (and optional height data) from parsed JSON; DiagramError if malformed.

    Given `rank`, a first normal of another length or another "rank" field
    raises WrongRank before the diagram is validated.

    A given "gamma" and "height", together or alone, must be the diagram's
    own (`cy.compute_gamma`); a "gamma" without "height" claims height 1.
    """
    if not isinstance(data, dict):
        raise DiagramError(f"diagram JSON must be an object, got {type(data).__name__}")
    if "normals" not in data:
        raise DiagramError('diagram JSON needs a "normals" field')
    normals = data["normals"]
    if not isinstance(normals, list) or not all(isinstance(row, list) for row in normals):
        raise DiagramError('"normals" must be a list of integer lists')
    for row in normals:
        for x in row:
            if type(x) is not int and not _is_int(x):  # JSON's ints skip the call
                raise DiagramError(f"normal entries must be exact integers, got {x!r}")
    declared = data.get("rank")
    if declared is not None and not _is_int(declared):
        raise DiagramError(f'"rank" must be an integer, got {declared!r}')
    if rank is not None and (declared not in (None, rank) or normals and len(normals[0]) != rank):
        raise WrongRank(f"a rank-{rank} diagram is required")
    diagram = validate_diagram(normals, rank=declared)
    if "gamma" not in data and "height" not in data:
        return diagram, None
    if "gamma" in data and not isinstance(data["gamma"], list):
        raise DiagramError('"gamma" must be a list of rationals like "-1/2"')
    gamma = tuple(map(_gamma_entry, data["gamma"])) if "gamma" in data else None
    height = data.get("height", 1)
    if not _is_int(height):
        raise DiagramError(f'"height" must be an integer, got {height!r}')
    cy = compute_gamma(diagram)
    if cy is None:
        given = '"gamma"' if gamma is not None else '"height"'
        raise DiagramError(f"{given} given, but no covector pairs to -1 with every normal")
    if gamma is None and height != cy.height:
        raise DiagramError(f'"height" must be {cy.height}')
    if gamma is not None and (gamma, height) != (cy.gamma, cy.height):
        want = [fraction_to_str(g) for g in cy.gamma]
        raise DiagramError(f'"gamma" and "height" must be {want} and {cy.height}')
    return diagram, cy


def load_diagram(path: str, rank=None) -> tuple[ToricDiagram, CalabiYauData | None]:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except RecursionError:
            raise DiagramError("diagram JSON is nested too deeply to parse") from None
    return diagram_from_dict(data, rank)


def dumps(obj) -> str:
    """`json.dumps(obj, indent=2, sort_keys=True)` plus a newline, byte for byte.

    json itself uses its pure-Python encoder whenever `indent` is set; this
    writer joins each level in one step instead, and a list of plain ints
    (the normals, the normalizer) in one join.  Strings go through json's own
    C escaper.  TypeError for a key that is not a string and for any value
    json would not encode.
    """
    return _encode(obj, "\n") + "\n"


def _encode(o, newline: str) -> str:
    """o as json writes it at the depth whose line break and indent is `newline`."""
    if isinstance(o, (list, tuple)):
        if not o:
            return "[]"
        inner = newline + "  "
        for x in o:
            if type(x) is not int:  # bools and int subclasses take the long way
                items = [_encode(x, inner) for x in o]
                break
        else:
            items = map(repr, o)
        return "[" + inner + ("," + inner).join(items) + newline + "]"
    if isinstance(o, dict):
        if not o:
            return "{}"
        inner = newline + "  "
        items = [
            encode_basestring_ascii(k) + ": " + _encode(v, inner) for k, v in sorted(o.items())
        ]
        return "{" + inner + ("," + inner).join(items) + newline + "}"
    if isinstance(o, str):
        return encode_basestring_ascii(o)
    if o is None:
        return "null"
    if o is True:
        return "true"
    if o is False:
        return "false"
    if isinstance(o, int):
        return int.__repr__(o)
    if isinstance(o, float):
        if o != o:
            return "NaN"
        if o == _INF or o == -_INF:
            return "Infinity" if o > 0 else "-Infinity"
        return float.__repr__(o)
    raise TypeError(f"Object of type {o.__class__.__name__} is not JSON serializable")
