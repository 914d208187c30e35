"""JSON interchange for diagrams and reports.

Rationals travel as strings ("-1/2") so nothing is ever rounded; floats are
rendered to 12 significant digits, which keeps byte-identical output for
identical runs.
"""

from __future__ import annotations

import json
from fractions import Fraction

from .cones import ToricDiagram, validate_diagram
from .cy import CalabiYauData, compute_gamma
from .errors import DiagramError

FLOAT_FORMAT = "%.12g"
PRECISION = 12


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
    try:
        return fraction_from_str(s)
    except (ValueError, ZeroDivisionError):
        raise DiagramError(f'"gamma" entries must be rationals like "-1/2", got {s!r}') from None


def diagram_from_dict(data) -> tuple[ToricDiagram, CalabiYauData | None]:
    """Diagram (and optional height data) from parsed JSON; DiagramError if malformed.

    A given "gamma" and "height" must be the diagram's own (`cy.compute_gamma`).
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
            if not _is_int(x):
                raise DiagramError(f"normal entries must be exact integers, got {x!r}")
    rank = data.get("rank")
    if rank is not None and not _is_int(rank):
        raise DiagramError(f'"rank" must be an integer, got {rank!r}')
    diagram = validate_diagram(normals, rank=rank)
    cy = None
    if "gamma" in data:
        if not isinstance(data["gamma"], list):
            raise DiagramError('"gamma" must be a list of rationals like "-1/2"')
        gamma = tuple(_gamma_entry(s) for s in data["gamma"])
        height = data.get("height", 1)
        if not _is_int(height):
            raise DiagramError(f'"height" must be an integer, got {height!r}')
        cy = compute_gamma(diagram)
        if cy is None:
            raise DiagramError('"gamma" given, but no covector pairs to -1 with every normal')
        if (gamma, height) != (cy.gamma, cy.height):
            want = [fraction_to_str(g) for g in cy.gamma]
            raise DiagramError(f'"gamma" and "height" must be {want} and {cy.height}')
    return diagram, cy


def load_diagram(path: str) -> tuple[ToricDiagram, CalabiYauData | None]:
    with open(path, "r", encoding="utf-8") as fh:
        return diagram_from_dict(json.load(fh))


def dumps(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"
