"""Independent oracles and the checks that every op's output must pass.

Nothing here imports sasakit or numpy: the oracles are exact integer and
Fraction arithmetic plus closed forms in plain floats, so they share no code
path with the program and do not inflate the peak RSS of the process that
runs the ops.

- The height covector comes from Cramer's rule on three normals.
- A monotone-chain hull of the normals, projected from the height plane,
  gives the facet cycle.  Goodness at rank 3 asks that consecutive normals
  span a saturated rank-2 sublattice, i.e. that their cross product be
  primitive.  At height 1 this is the primitive-edge-step criterion, and
  both are invariant under SL(3, Z).
- Invariant factors come from gcds of minors.
- The volume is the Martelli-Sparks-Yau closed form
  ``V(b) = S(b) / (6 (-<gamma, b>))`` with
  ``S(b) = sum_a det(l_{a-1}, l_a, l_{a+1}) / (det(b, l_{a-1}, l_a) det(b, l_a, l_{a+1}))``.
- The canonical potential is ``G = 1/2 sum l log l`` with ``l = <lambda, y>``,
  so ``x = 1/2 sum (log l + 1) lambda`` and ``F = <y, x> - G = 1/2 sum l``.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

REL = 1e-9  # allowance for the program's own float rounding
PRINTED = 5e-12  # relative rounding of a float printed with 12 digits


class CheckError(AssertionError):
    """An op's output disagrees with the oracle."""


def det3(a, b, c):
    return (
        a[0] * (b[1] * c[2] - b[2] * c[1])
        - a[1] * (b[0] * c[2] - b[2] * c[0])
        + a[2] * (b[0] * c[1] - b[1] * c[0])
    )


def cross(a, b):
    return (
        a[1] * b[2] - a[2] * b[1],
        a[2] * b[0] - a[0] * b[2],
        a[0] * b[1] - a[1] * b[0],
    )


def dot(a, b):
    return sum(x * y for x, y in zip(a, b))


def vgcd(v):
    g = 0
    for x in v:
        g = gcd(g, x)
    return g


def height_covector(normals):
    """(gamma, height) with <gamma, lambda> = -1 for every normal, or None."""
    for i, j, k in itertools.combinations(range(len(normals)), 3):
        a, b, c = normals[i], normals[j], normals[k]
        det = det3(a, b, c)
        if det:
            break
    else:
        raise ValueError("normals do not span the space")
    # Cramer's rule on the rows a, b, c with right-hand side (-1, -1, -1)
    def replaced(t):
        rows = [list(v) for v in (a, b, c)]
        for row in rows:
            row[t] = -1
        return det3(*rows)

    gamma = tuple(Fraction(replaced(t), det) for t in range(3))
    if any(dot(gamma, v) != -1 for v in normals):
        return None
    height = lcm(*(g.denominator for g in gamma))
    return gamma, height


def monotone_chain(points):
    """Indices of the strict convex hull, counterclockwise."""
    order = sorted(range(len(points)), key=lambda i: points[i])

    def turn(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    def half(seq):
        out = []
        for i in seq:
            while len(out) >= 2 and turn(points[out[-2]], points[out[-1]], points[i]) <= 0:
                out.pop()
            out.append(i)
        return out

    lower, upper = half(order), half(order[::-1])
    return lower[:-1] + upper[:-1]


def facet_cycle(normals, gamma):
    """Hull order of the normals, oriented so det(l_{a-1}, l_a, l_{a+1}) > 0.

    All normals lie on the plane <gamma, x> = -1; dropping a coordinate in
    which gamma is nonzero maps that plane affinely onto R^2.
    """
    k = next(t for t in range(3) if gamma[t] != 0)
    keep = [t for t in range(3) if t != k]
    cycle = monotone_chain([(v[keep[0]], v[keep[1]]) for v in normals])
    if det3(*(normals[i] for i in cycle[:3])) < 0:
        cycle.reverse()
    return cycle


def invariant_factors(normals):
    """Nonunit invariant factors of the matrix whose columns are the normals."""
    rows = list(zip(*normals))
    dets = [1]
    for k in (1, 2, 3):
        g = 0
        for ri in itertools.combinations(range(3), k):
            for ci in itertools.combinations(range(len(normals)), k):
                g = gcd(g, _minor(rows, ri, ci))
                if g == 1:
                    break
            if g == 1:
                break
        dets.append(g)
    factors = [dets[k] // dets[k - 1] for k in (1, 2, 3)]
    return tuple(f for f in factors if f != 1)


def _minor(rows, ri, ci):
    m = [[rows[r][c] for c in ci] for r in ri]
    if len(m) == 1:
        return m[0][0]
    if len(m) == 2:
        return m[0][0] * m[1][1] - m[0][1] * m[1][0]
    return det3(*m)


@dataclass(frozen=True)
class Expect:
    """What the oracles say about one input diagram."""

    normals: tuple
    gamma: tuple
    height: int
    cycle: tuple
    good: bool
    pi1: tuple | None  # nonunit invariant factors; None when not good
    rays: tuple  # rays[k] = cycle[k] x cycle[k+1], an inward extreme ray

    @property
    def d(self):
        return len(self.normals)


def expect(normals) -> Expect:
    normals = tuple(tuple(v) for v in normals)
    found = height_covector(normals)
    if found is None:
        raise ValueError("benchmark inputs always carry a height covector")
    gamma, height = found
    cycle = tuple(facet_cycle(normals, gamma))
    if len(cycle) != len(normals) or any(vgcd(v) != 1 for v in normals):
        raise ValueError("benchmark inputs are primitive and strictly convex")
    pairs = list(zip(cycle, cycle[1:] + cycle[:1]))
    crosses = tuple(cross(normals[a], normals[b]) for a, b in pairs)
    good = all(vgcd(c) == 1 for c in crosses)
    return Expect(
        normals=normals,
        gamma=gamma,
        height=height,
        cycle=cycle,
        good=good,
        pi1=invariant_factors(normals) if good else None,
        rays=crosses,
    )


# --- closed forms -------------------------------------------------------------

def msy_volume(e: Expect, b):
    """Truncated-cone volume at b; exact when b is rational."""
    return _msy_s(e, b) / (6 * -dot(e.gamma, b))


def _msy_terms(e: Expect, b):
    n = e.d
    for pos in range(n):
        prev, cur, nxt = (e.normals[e.cycle[(pos + t) % n]] for t in (-1, 0, 1))
        r1, r2 = e.rays[pos - 1], e.rays[pos]  # (prev, cur) and (cur, nxt)
        yield det3(prev, cur, nxt), r1, r2, dot(b, r1), dot(b, r2)


def _msy_s(e: Expect, b):
    return sum(c / (u * v) for c, _, _, u, v in _msy_terms(e, b))


def msy_slice_gradient(e: Expect, b):
    """Gradient of S at b and its component orthogonal to gamma."""
    g = [0.0, 0.0, 0.0]
    for c, r1, r2, u, v in _msy_terms(e, b):
        w = -c / (u * v)
        for t in range(3):
            g[t] += w * (r1[t] / u + r2[t] / v)
    gam = [float(x) for x in e.gamma]
    proj = dot(g, gam) / dot(gam, gam)
    return g, [g[t] - proj * gam[t] for t in range(3)]


def grid_points(e: Expect, n: int):
    """The grid the CLI samples: the cap centroid at the canonical vector, scaled."""
    xi = [sum(col) for col in zip(*e.normals)]
    caps = [[x / dot(r, xi) for x in r] for r in e.rays]
    center = [sum(col) / len(caps) for col in zip(*caps)]
    return [
        [c * (0.5 + (i / (n - 1) if n > 1 else 0.5)) for c in center] for i in range(n)
    ]


def canonical_potential(e: Expect, y):
    """(value, tolerance) pairs for G, x1..x3 and F of the canonical potential.

    ``y`` was read back from 12 printed digits, so each form <lambda, y> may
    sit up to ``dl`` away from where the program evaluated it; the tolerances
    carry that shift through the closed forms, plus REL of the summed term
    sizes for the program's own rounding.
    """
    rel = REL
    forms = [dot(v, y) for v in e.normals]
    if min(forms) <= 0:
        raise CheckError("grid point outside the cone")
    dls = [PRINTED * sum(abs(a * b) for a, b in zip(v, y)) for v in e.normals]
    logs = [math.log(l) for l in forms]
    G = (
        0.5 * sum(l * g for l, g in zip(forms, logs)),
        rel * 0.5 * sum(abs(l * g) for l, g in zip(forms, logs))
        + 0.5 * sum(abs(g + 1) * dl for g, dl in zip(logs, dls)),
    )
    x = [
        (
            0.5 * sum((g + 1) * v[t] for g, v in zip(logs, e.normals)),
            rel * 0.5 * sum(abs((g + 1) * v[t]) for g, v in zip(logs, e.normals))
            + 0.5 * sum(abs(v[t]) * dl / l for v, dl, l in zip(e.normals, dls, forms)),
        )
        for t in range(3)
    ]
    F = (0.5 * sum(forms), rel * 0.5 * sum(forms) + 0.5 * sum(dls))
    return [G, *x, F]


# --- output checks ------------------------------------------------------------

def require(cond, msg):
    if not cond:
        raise CheckError(msg)


def check_analyze(e: Expect, code: int, out: dict, grid=None) -> bool:
    """Check one `analyze --cy --topo --reeb [--potential-grid]` result.

    Returns True when the op failed with the Reeb stopping fault (exit 4),
    False when it succeeded; raises CheckError on any wrong answer.
    """
    if code == 4:
        require(
            "volume minimization did not converge" in out.get("error", ""),
            f"exit 4 for another reason: {out}",
        )
        return True
    stages = out.get("stages")
    require(stages is not None, f"no stages in output (exit {code}): {out}")
    require(stages["validation"]["d"] == e.d, "validation reports the wrong d")
    good = stages["goodness"]
    require(good["good"] == e.good, f"goodness verdict {good['good']} != oracle {e.good}")
    if not e.good:
        require(code == 2, f"not-good diagram exited {code}, not 2")
        face = good["certificate"]["failing_face"]
        require(len(face) == 2, f"failing face {face} is not an edge")
        a, b = face
        require(vgcd(cross(e.normals[a], e.normals[b])) > 1, "certificate edge is saturated")
        pos = e.cycle.index(a)
        require(
            b in (e.cycle[pos - 1], e.cycle[(pos + 1) % e.d]),
            "certificate normals are not adjacent on the hull",
        )
        return False
    require(code == 0, f"good diagram exited {code}")
    require(good["certificate"] is None, "good diagram carries a certificate")
    _check_cy(e, stages["cy"])
    _check_topology(e, stages["topology"])
    _check_reeb(e, stages["reeb"])
    if grid is not None:
        _check_grid(e, stages["potential_grid"], grid)
    return False


def _check_cy(e: Expect, cy: dict):
    require(cy["present"], "height structure missing")
    gamma = tuple(Fraction(s) for s in cy["gamma"])
    require(gamma == e.gamma, f"gamma {gamma} != oracle {e.gamma}")
    require(all(dot(gamma, v) == -1 for v in e.normals), "<gamma, lambda> != -1")
    require(cy["height"] == e.height, "wrong height")
    scaled = [g * e.height for g in gamma]
    require(all(s.denominator == 1 for s in scaled), "height*gamma is not integral")
    require(vgcd([int(s) for s in scaled]) == 1, "height*gamma is not primitive")
    A = cy["normalizer"]
    require(det3(*A) == 1, "normalizer does not have det 1")
    require(
        [dot(row, scaled) for row in A] == [-1, 0, 0], "normalizer does not move gamma"
    )
    moved = cy["normalized_normals"]
    require(len(moved) == e.d, "normalized normals miscounted")
    At = list(zip(*A))
    for n, v in zip(moved, e.normals):
        require(n[0] == e.height, "normalized normal's first entry is not the height")
        require(tuple(dot(row, n) for row in At) == v, "normalized normal is not A^-T lambda")
    require(cy["kernel_rank"] == e.d - 3, "kernel rank is not d - 3")
    require(tuple(cy["component_group"]) == e.pi1, "component group != oracle")


def _check_topology(e: Expect, topo: dict):
    require(tuple(topo["pi1"]) == e.pi1, f"pi1 {topo['pi1']} != oracle {e.pi1}")
    require(topo["b2"] == e.d - 3, "b2 is not d - 3")
    if not e.pi1:
        label = "S^5" if e.d == 3 else f"S^5 # {e.d - 3}(S^2 x S^3)"
    elif len(e.pi1) == 1:
        label = f"lens-type: pi1 = Z_{e.pi1[0]}"
    else:
        label = "unknown"
    require(topo["label"] == label, f"label {topo['label']!r} != {label!r}")
    if all(v[0] == 1 for v in e.normals):
        pts = [e.normals[i][1:] for i in e.cycle]
        twice = abs(sum(p[0] * q[1] - q[0] * p[1] for p, q in zip(pts, pts[1:] + pts[:1])))
        require(topo["area2"] == twice, "twice-area != shoelace")
    else:
        require(topo["area2"] is None, "area reported for a diagram not at height 1")


def _check_reeb(e: Expect, reeb: dict):
    xi = [float(x) for x in reeb["xi"]]
    gam = [float(g) for g in e.gamma]
    pairing = dot(gam, xi)
    scale = sum(abs(g * x) for g, x in zip(gam, xi))
    require(abs(pairing + 3) <= REL * scale, f"xi is off the slice: <gamma, xi> = {pairing}")
    require(all(dot(r, xi) > 0 for r in e.rays), "xi is outside the Reeb cone")
    # V = S / D with D = -6 <gamma, xi>; the printed xi is rounded, so the
    # tolerance carries that rounding through grad V
    S, D = _msy_s(e, xi), -6 * pairing
    vol = S / D
    g, tangential = msy_slice_gradient(e, xi)
    grad_v = [gt / D + 6 * S * ct / D**2 for gt, ct in zip(g, gam)]
    tol = REL * abs(vol) + 2 * PRINTED * sum(abs(a * b) for a, b in zip(grad_v, xi))
    require(abs(float(reeb["volume"]) - vol) <= tol, f"volume {reeb['volume']} != {vol}")
    require(
        math.sqrt(dot(tangential, tangential)) <= 1e-6 * math.sqrt(dot(g, g)),
        "xi is not a critical point of the closed-form volume on the slice",
    )
    require(reeb["starts"] == 3, "expected three starts")


def _check_grid(e: Expect, stage: dict, rows):
    header, body = rows[0], rows[1:]
    require(header == ["y1", "y2", "y3", "G", "x1", "x2", "x3", "F", "roundtrip_residual"],
            f"grid header {header}")
    require(stage["points"] == len(body), "grid point count mismatch")
    want = grid_points(e, len(body))
    for row, y_want in zip(body, want):
        vals = [float(v) for v in row]
        y = vals[:3]
        ynorm = max(abs(v) for v in y_want)
        require(all(abs(a - b) <= REL * ynorm for a, b in zip(y, y_want)), "grid point moved")
        for name, got, (value, tol) in zip(("G", "x1", "x2", "x3", "F"), vals[3:8],
                                            canonical_potential(e, y)):
            require(abs(got - value) <= tol, f"{name} {got} != closed form {value}")
        require(0 <= vals[8] <= REL, f"round-trip residual {vals[8]}")
