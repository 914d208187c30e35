"""Build the frozen input catalogue of the analyze-small-d workload.

    python3 perfbench/catalogue.py            # rewrites perfbench/small_d.json

Under a moderate SL(3, Z) shear a few percent of small diagrams send one of
`analyze --reeb`'s three Newton starts into its 200-iteration cap, which
costs about 30 times an ordinary op, and a few in a thousand make the first
start fail so that `analyze` exits 4.  Which inputs do so depends only on the
input, but is known only by running the program.  Were the workload to shear
afresh on every seed, the number of such ops per run would follow a binomial
draw and would move `ops_per_s` and `op_tail_ms` more than any bound allows.
So the candidates are generated and labelled once, here, with the program as
it stood when the benchmark was written, and every round of the workload
then takes a fixed number from each label:

- ``fast``: all three starts converge;
- ``slow``: the first start converges, a restart hits the iteration cap;
- ``fault``: the first start does not converge and `analyze` exits 4.

The labels are frozen data, not a verdict the benchmark re-derives: later
versions of the program see the same inputs, and a fix shows up as slow
and fault ops that get cheaper or stop failing.
"""

from __future__ import annotations

import json
import random
import sys
from pathlib import Path

import gen
import oracle

HERE = Path(__file__).resolve().parent
OUT = HERE / "small_d.json"
CANDIDATES = 3000
FAST_KEPT = 2000
FAULTS = 60
# The example the fault was first reported on: a det-1 shear of the pentagon
# (0,0),(1,1),(2,4),(1,3),(0,1), which converges unsheared in 3 iterations.
REPORTED_FAULT = [[1, -3, -3], [4, -5, -11], [13, -13, -35], [10, -11, -27], [4, -6, -11]]


def candidate(rng: random.Random, i: int):
    kind = ("lens", "z5-lens", "main4-even", "main4-odd", "polygon")[i % 5]
    if kind == "lens":
        base = gen.lens(rng.randint(1, 6))
    elif kind == "z5-lens":
        base = gen.z5_lens()
    elif kind == "main4-even":
        base = gen.main4_even(rng.randint(1, 3), rng.randint(0, 3))
    elif kind == "main4-odd":
        base = gen.main4_odd(rng.randint(1, 4), rng.randint(0, 3))
    else:
        base = gen.random_good_polygon(rng, rng.randint(4, 9))
    return kind, gen.apply(gen.random_shear(rng), base)


def label(sk, normals):
    """Mirror `analyze --reeb`: one start, then two seeded restarts."""
    diagram = sk.validate_diagram(normals)
    cy = sk.compute_gamma(diagram)
    base = sk.minimize_volume(diagram, cy)
    rng = random.Random(0)  # SASAKIT_SEED=0, as the workload runs it
    restarts = [
        sk.minimize_volume(
            diagram, cy, start_offset=[rng.uniform(-0.5, 0.5) for _ in range(2)]
        )
        for _ in range(2)
    ]
    if not base.converged:
        return "fault"
    return "fast" if all(r.converged for r in restarts) else "slow"


def main():
    sys.path.insert(0, str(HERE.parent / "src"))
    import sasakit as sk

    rng = random.Random("small-d-catalogue")
    seen, entries = set(), []
    for i in range(CANDIDATES):
        kind, normals = candidate(rng, i)
        key = tuple(normals)
        if key in seen:
            continue
        seen.add(key)
        e = oracle.expect(normals)
        assert e.good and 3 <= e.d <= 10
        entries.append((kind, label(sk, normals), normals))
    counts = {c: sum(1 for _, k, _ in entries if k == c) for c in ("fast", "slow", "fault")}
    # Faults are rare in that population, and the workload needs one per
    # round, so more are sought among shears of the pentagon family they
    # were first seen on.  They do not depend on the workload seed.
    faults = [("main4-even", REPORTED_FAULT)]
    faults += [(kind, n) for kind, k, n in entries if k == "fault"]
    assert label(sk, REPORTED_FAULT) == "fault"
    frng = random.Random("small-d-faults")
    while len(faults) < FAULTS:
        normals = gen.apply(gen.random_shear(frng), gen.main4_even(1, frng.randint(0, 3)))
        key = tuple(normals)
        if key not in seen and label(sk, normals) == "fault":
            seen.add(key)
            faults.append(("main4-even", normals))
    fast_seen = 0
    lines = []
    for kind, cls, normals in entries:
        if cls == "fault":
            continue
        if cls == "fast":
            fast_seen += 1
            if fast_seen > FAST_KEPT:
                continue
        lines.append(json.dumps({"class": cls, "kind": kind, "normals": normals},
                                separators=(",", ":")))
    for kind, normals in faults:
        lines.append(json.dumps({"class": "fault", "kind": kind, "normals": normals},
                                separators=(",", ":")))
    doc = (
        '{"candidates":' + json.dumps(len(entries)) + ',"counts":'
        + json.dumps(counts, sort_keys=True) + ',"entries":[\n'
        + ",\n".join(lines) + "\n]}\n"
    )
    OUT.write_text(doc)
    print(f"{len(entries)} candidates: {counts}; wrote {len(lines)} entries to {OUT.name}")


if __name__ == "__main__":
    main()
