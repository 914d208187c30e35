"""Seeded input generation for the benchmark.

The families are written out here from their vertex formulas rather than
taken from ``sasakit.families``, so that a change to the program can never
change what the benchmark feeds it.  Every generator takes a
``random.Random`` and returns plain integer tuples.
"""

from __future__ import annotations

import math
import random
from math import gcd


def lens(ell):
    return [(1, 0, 0), (0, 1, 0), (1, 1, ell)]


def z5_lens():
    return [(1, 0, 0), (1, 2, 1), (1, 3, 4)]


def _height1(points):
    return [(1, p, q) for p, q in points]


def main4_even(r, s):
    """Even family: d = 2r + 3 normals, b2 = 2r."""
    shift = s + 1
    peak = (r + 1) * (r + 2) // 2 + shift
    pts = [(i, i * (i + 1) // 2) for i in range(r + 1)]
    pts.append((r + 1, peak))
    pts.extend((r + 1 - j, peak - j * (j + 1) // 2) for j in range(1, r + 1))
    pts.append((0, 1))
    return _height1(pts)


def main4_odd(r, s):
    """Odd family: d = 2r + 2 normals, b2 = 2r - 1."""
    top = r * (r + 1) // 2 + s
    pts = [(i, i * (i + 1) // 2) for i in range(r)]
    pts.append((r, top))
    pts.append((0, top + 1))
    if r >= 2:
        pts.append((-r, top))
        pts.extend((-i, i * (i + 1) // 2) for i in range(r - 1, 1, -1))
    pts.append((-1, 0) if r <= 2 else (-1, 1))
    return _height1(pts)


def parabola(n):
    """Normals (1, i, i^2) for |i| <= n: strictly convex, never good."""
    return [(1, i, i * i) for i in range(-n, n + 1)]


def random_good_polygon(rng: random.Random, k: int, box: int = 3):
    """A strictly convex lattice k-gon whose every edge is primitive.

    Edge vectors with distinct directions, sorted by angle and closed up,
    bound a strictly convex polygon; primitive edges make it good.
    """
    while True:
        edges = set()
        while len(edges) < k - 1:
            e = (rng.randint(-box, box), rng.randint(-box, box))
            if e != (0, 0) and gcd(*e) == 1:
                edges.add(e)
        edges = sorted(edges)
        closing = (-sum(e[0] for e in edges), -sum(e[1] for e in edges))
        if closing == (0, 0) or gcd(*closing) != 1:
            continue
        edges.append(closing)
        edges.sort(key=lambda e: math.atan2(e[1], e[0]))
        if any(
            a[0] * b[1] - a[1] * b[0] <= 0
            for a, b in zip(edges, edges[1:] + edges[:1])
        ):
            continue
        pts, x, y = [], 0, 0
        for dx, dy in edges:
            pts.append((x, y))
            x, y = x + dx, y + dy
        return _height1(pts)


def random_shear(rng: random.Random, steps: int = 3, coeffs=(-2, -1, 1, 2)):
    """A product of `steps` elementary transvections: an SL(3, Z) matrix."""
    m = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    for _ in range(steps):
        i, j = rng.sample(range(3), 2)
        c = rng.choice(coeffs)
        m[i] = [a + c * b for a, b in zip(m[i], m[j])]
    return m


def apply(m, normals):
    return [tuple(sum(a * x for a, x in zip(row, v)) for row in m) for v in normals]


# Each in-process op needs a diagram the process has not seen (the skeleton
# and fan caches are keyed on the diagram), so every round draws new shears.

LARGE_D_ROUND = (
    ("main4-even", 18, 0),
    ("main4-even", 18, 1),
    ("main4-even", 18, 2),
    ("main4-odd", 19, 0),
    ("main4-odd", 19, 1),
    ("main4-odd", 19, 2),
    ("parabola", 20, None),
    ("parabola", 20, None),
)


def _family(name, r, s):
    if name == "main4-even":
        return main4_even(r, s)
    if name == "main4-odd":
        return main4_odd(r, s)
    return parabola(r)


def large_d_round(seed: int, index: int):
    """One round of the large-d workload: d in 39..41, each freshly sheared."""
    rng = random.Random(f"large-d:{seed}:{index}")
    return [
        (f"{name}({r},{s})", apply(random_shear(rng), _family(name, r, s)))
        for name, r, s in LARGE_D_ROUND
    ]


def cli_cold_round(seed: int, index: int):
    """Small good family members, unsheared; each op is its own process."""
    rng = random.Random(f"cli-cold:{seed}:{index}")
    ell = rng.randint(1, 30)
    re, se = rng.randint(1, 3), rng.randint(0, 19)
    ro, so = rng.randint(1, 3), rng.randint(0, 19)
    return [
        (f"lens({ell})", lens(ell)),
        ("z5-lens", z5_lens()),
        (f"main4-even({re},{se})", main4_even(re, se)),
        (f"main4-odd({ro},{so})", main4_odd(ro, so)),
    ]
