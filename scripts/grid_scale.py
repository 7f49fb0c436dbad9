"""Scale check: H* of the m = 96 torus and Klein-bottle grids and of their
disjoint union, each in under 2 s, built from facets and read from a
document.

Run from the repository root:

    PYTHONPATH=src python scripts/grid_scale.py

Each grid is the m x m square grid, every square cut along its diagonal,
with opposite sides glued (the first pair with a flip for the Klein bottle).
Its vertex labels and the order of its facets are shuffled by a fixed seed,
so the numbering of faces cannot lean on the grid order.  The disjoint
union takes the two shuffled grids, the Klein bottle's labels moved past
the torus's, and has two components.  Each case is timed twice: as
``SimplicialComplex(...)`` plus ``betti()`` on int facets, and as
``parse_space(doc)`` plus ``betti()`` on a ``simplicial`` document with
string labels.  The labels run to 9215 (18431 in the union), so nearly every
facet holds a label over 256 and ``parse_space`` reads it by ``parse_int``,
not by its table of small labels.  The check fails on a wrong H* or on a
time over the limit.  It is not part of the test suite, which keeps no
timing test.
"""

import random
import sys
import time

from tdk.space_model import SimplicialComplex, parse_space

M = 96
LIMIT_S = 2.0
KNOWN = {
    "torus": [(1, ()), (2, ()), (1, ())],
    "klein": [(1, ()), (1, ()), (0, (2,))],
    "torus+klein": [(2, ()), (3, ()), (1, (2,))],
}


def shuffled_grid(kind, m, seed):
    """The facets of the m x m grid of this kind, labels and order shuffled."""
    rng = random.Random(seed)
    labels = list(range(m * m))
    rng.shuffle(labels)

    def vertex(i, j):
        if i == m:
            i, j = 0, (-j if kind == "klein" else j)
        return labels[(i % m) * m + j % m]

    facets = []
    for i in range(m):
        for j in range(m):
            a, b = vertex(i, j), vertex(i + 1, j)
            c, d = vertex(i, j + 1), vertex(i + 1, j + 1)
            facets += [[a, b, d], [a, c, d]]
    rng.shuffle(facets)
    return facets


def main():
    grids = {kind: shuffled_grid(kind, M, seed) for seed, kind in enumerate(["klein", "torus"])}
    cases = {
        **{kind: (M * M, facets) for kind, facets in grids.items()},
        "torus+klein": (
            2 * M * M,
            grids["torus"] + [[M * M + v for v in f] for f in grids["klein"]],
        ),
    }
    failed = False
    for kind, (nvertices, facets) in cases.items():
        doc = {
            "format": "simplicial",
            "vertices": str(nvertices),
            "facets": [[str(v) for v in f] for f in facets],
        }
        for path, build in (
            ("facets", lambda: SimplicialComplex(nvertices, facets)),
            ("document", lambda: parse_space(doc)),
        ):
            start = time.perf_counter()
            betti = build().betti()
            elapsed = time.perf_counter() - start
            ok = betti == KNOWN[kind] and elapsed < LIMIT_S
            failed |= not ok
            print(f"{kind} m={M} {path}: {elapsed:.3f} s, H* {betti} {'ok' if ok else 'FAILED'}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
