"""Torus bundles: total-space models, lens spaces, and spectral sequences.

Builds circle bundles over the 2-sphere (Hopf bundle and lens spaces) and
over the 2-torus (nilmanifolds), then inspects the filtration pages: the
transgression d_2(y) = c and where classes sit in the filtration.
"""

from tdk import Cocycle, build_bundle, builtin_space

S2 = builtin_space("sphere", {"k": 2})
T2 = builtin_space("torus", {"k": 2})


def groups(m, top):
    out = []
    for k in range(top + 1):
        rank, torsion = m.total_cohomology(k).invariants()
        parts = ["Z"] * rank + [f"Z/{d}" for d in torsion]
        out.append(" + ".join(parts) if parts else "0")
    return ", ".join(f"H^{k}={g}" for k, g in enumerate(out))


# --- circle bundles over S^2 -------------------------------------------------

for k in (1, 2, 3):
    m = build_bundle(S2, [[k * x for x in S2.basis_vector(2, 0)]])
    name = "S^3 (Hopf)" if k == 1 else f"L({k},1)"
    print(f"Euler class {k} -> {name}:", groups(m, 3))

# --- the spectral sequence of the Hopf bundle --------------------------------

hopf = build_bundle(S2, [S2.basis_vector(2, 0)])
e01 = hopf.ss_page(2, 0, 1)
e20 = hopf.ss_page(2, 2, 0)
print("\nHopf bundle, page 2:")
print("  E_2^{0,1} =", e01.group, "   E_2^{2,0} =", e20.group)
y = hopf.element_vector(0, 0, (0,))
print("  d_2[y] =", e01.apply_d(y), " = class of the Euler cocycle")
print("  E_3^{0,1} =", hopf.ss_page(3, 0, 1).group, "(the fiber class dies)")

# --- nilmanifolds over the torus ---------------------------------------------

print()
for k in (1, 2):
    nil = build_bundle(T2, [[k * x for x in T2.basis_vector(2, 0)]])
    print(f"nilmanifold with twist {k}:", groups(nil, 3))

# --- filtration reports -------------------------------------------------------

print("\nwhere does the degree-3 generator of S^3 sit in the filtration?")
gen = Cocycle(3, hopf.element_vector(2, 0, (0,)))
report = hopf.filtration_report(gen)
print(f"  maximal step p = {report.p}, leading coordinates {report.leading}")

S1 = builtin_space("sphere", {"k": 1})
trivial = build_bundle(S1, [S1.zero_vector(2), S1.zero_vector(2)])
vol = Cocycle(3, trivial.element_vector(1, 0, (0, 1)))
report = trivial.filtration_report(vol)
print(f"  volume class of T^3 over S^1: p = {report.p} (below step 2)")
