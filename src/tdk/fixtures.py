"""Shipped example corpus: classical pairs, triples, and complexes.

Everything the self-test needs lives in the package; no external data.
"""

from __future__ import annotations

from .space_model import Cocycle, builtin_space
from .tduality_core import Pair
from .torus_bundle import build_bundle

__all__ = [
    "BOUNDARY_TETRAHEDRON",
    "TORUS_7",
    "PROJECTIVE_PLANE_6",
    "simplicial_doc",
    "hopf_pair",
    "lens_pair",
    "t3_volume_pair",
    "t3_over_s1_volume_pair",
    "trivial_flux_pair",
    "named_pair",
    "PAIR_NAMES",
]

BOUNDARY_TETRAHEDRON = [[0, 1, 2], [0, 1, 3], [0, 2, 3], [1, 2, 3]]

TORUS_7 = [sorted([i, (i + 1) % 7, (i + 3) % 7]) for i in range(7)] + [
    sorted([i, (i + 2) % 7, (i + 3) % 7]) for i in range(7)
]

PROJECTIVE_PLANE_6 = [
    [0, 1, 3],
    [0, 1, 5],
    [0, 2, 3],
    [0, 2, 4],
    [0, 4, 5],
    [1, 2, 4],
    [1, 2, 5],
    [1, 3, 4],
    [2, 3, 5],
    [3, 4, 5],
]


def simplicial_doc(name):
    table = {
        "boundary-tetrahedron": (4, BOUNDARY_TETRAHEDRON),
        "torus-7": (7, TORUS_7),
        "projective-plane-6": (6, PROJECTIVE_PLANE_6),
    }
    if name not in table:
        raise KeyError(name)
    vertices, facets = table[name]
    return {
        "format": "simplicial",
        "vertices": str(vertices),
        "facets": [[str(v) for v in f] for f in facets],
    }


def hopf_pair(c=1, k=1):
    """Degree-c circle bundle over S^2 with k units of degree-3 flux."""
    base = builtin_space("sphere", {"k": 2})
    m = build_bundle(base, [[c * x for x in base.basis_vector(2, 0)]])
    flux = m.zero_vector(3)
    flux[m.index[3][(2, 0, (0,))]] = k
    return Pair(m, Cocycle(3, flux))


def lens_pair(k, flux_units=0):
    return hopf_pair(c=k, k=flux_units)


def t3_volume_pair(k):
    """T^3 as the trivial circle bundle over T^2, flux k . vol."""
    base = builtin_space("torus", {"k": 2})
    m = build_bundle(base, [base.zero_vector(2)])
    flux = m.zero_vector(3)
    flux[m.index[3][(2, 0, (0,))]] = k
    return Pair(m, Cocycle(3, flux))


def t3_over_s1_volume_pair():
    """T^3 as the trivial T^2-bundle over S^1 with the volume flux (not dualizable)."""
    base = builtin_space("sphere", {"k": 1})
    m = build_bundle(base, [base.zero_vector(2), base.zero_vector(2)])
    return Pair(m, Cocycle(3, m.element_vector(1, 0, (0, 1))))


def trivial_flux_pair(base_name, params=None, n=1, flux_units=0):
    base = builtin_space(base_name, params or {})
    m = build_bundle(base, [base.zero_vector(2)] * n)
    flux = m.zero_vector(3)
    if base.dim(3):
        flux[m.index[3][(3, 0, ())]] = flux_units
    return Pair(m, Cocycle(3, flux))


_NAMED = {
    "hopf": lambda: hopf_pair(1, 1),
    "hopf_k0": lambda: hopf_pair(1, 0),
    "hopf_k2": lambda: hopf_pair(1, 2),
    "hopf_k3": lambda: hopf_pair(1, 3),
    "lens2_k1": lambda: hopf_pair(2, 1),
    "t3_vol": lambda: t3_volume_pair(1),
    "t3_vol_k2": lambda: t3_volume_pair(2),
    "t3_vol_k3": lambda: t3_volume_pair(3),
    "t3_over_s1_vol": t3_over_s1_volume_pair,
    "s3_trivial": lambda: trivial_flux_pair("sphere", {"k": 3}, flux_units=1),
    "s3_trivial_k0": lambda: trivial_flux_pair("sphere", {"k": 3}, flux_units=0),
    "t3_trivial": lambda: trivial_flux_pair("torus", {"k": 3}, flux_units=1),
    "point_trivial": lambda: trivial_flux_pair("point"),
}

PAIR_NAMES = tuple(sorted(_NAMED))


def named_pair(name) -> Pair:
    if name not in _NAMED:
        raise KeyError(f"unknown fixture pair {name!r} (have {', '.join(PAIR_NAMES)})")
    return _NAMED[name]()
