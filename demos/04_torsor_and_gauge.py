"""How many triples extend a pair?  Torsor structure and gauge moves.

Over fixed bundles, degree-3 base classes act freely and transitively on
triples; torsor_difference recovers the acting class exactly.  Bundle
automorphisms (gauge transformations) move a triple by the computable class
chat.psi + c.psihat.  The extension report packages the classification:
ker(pi*)/im(C), cross-checked against the page-3 differential image.
"""

from tdk import (
    Cocycle,
    Pair,
    build_bundle,
    builtin_space,
    dualize,
    extension_report,
    gauge_action,
    gauge_shift,
    h3_action,
    torsor_difference,
)
from tdk.fixtures import named_pair

T3 = builtin_space("torus", {"k": 3})

# --- the torsor of extensions over T^3 ----------------------------------------

pair = named_pair("t3_trivial")
t = dualize(pair)
H3 = T3.cohomology(3)
alpha = Cocycle(3, T3.basis_vector(3, 0))

moved = h3_action(t, alpha)
delta = torsor_difference(moved, t)
print("acting by the volume class and solving back:")
print("  recovered class =", H3.reduce(delta.vector), "(expected (1,))")

back = h3_action(moved, Cocycle(3, [-x for x in alpha.vector]))
print("  action by the inverse returns to the original:",
      H3.is_zero(torsor_difference(back, t).vector))

# --- gauge transformations -----------------------------------------------------

print()
m = build_bundle(T3, [[2 * x for x in T3.basis_vector(2, 0)]])  # chern 2.[x1 x2]
t = dualize(Pair(m, Cocycle(3, m.zero_vector(3))))
psi = T3.basis_vector(1, 2)  # the class [x3]
zero = T3.zero_vector(1)

predicted = gauge_shift(t, [psi], [zero])
acted = gauge_action(t, [psi], [zero])
observed = torsor_difference(acted, t)
print("gauge move by psi = [x3] on a bundle with chern 2.[x1x2]:")
print("  predicted class chat.psi =", H3.reduce(predicted.vector))
print("  observed torsor difference =", H3.reduce(observed.vector))

# --- extension classification ---------------------------------------------------

print()
for name in ("hopf_k2", "t3_trivial", "t3_over_s1_vol"):
    rep = extension_report(named_pair(name))
    print(f"{name}: dualizable={rep.dualizable}, "
          f"torsor group invariants={rep.torsor_invariants}, "
          f"page-3 image invariants={rep.crosscheck_invariants}, "
          f"agree={rep.agree}")
