"""The integral duality group O(n,n,Z) and its action.

Membership is an exact matrix test against the split form q = sum a_i b_i.
The flip exchanges a bundle with its dual; antisymmetric shears move the dual
chern data within its ambiguity lattice; GL(n,Z) blocks relabel the fiber.
"""

from tdk import (
    act_on_chern,
    act_on_triple,
    builtin_space,
    dualize,
    flip_element,
    generators,
    gl_element,
    is_onn,
    q_value,
    shear_element,
    torsor_difference,
    validate_triple,
)
from tdk.exact_linalg import mat_vec, transpose
from tdk.fixtures import hopf_pair
from tdk.space_model import Cocycle
from tdk.tduality_core import Pair
from tdk.torus_bundle import build_bundle

# --- membership -----------------------------------------------------------------

flip = flip_element(2)
print("the flip is a member:", is_onn(flip.matrix))
print("2.identity is not:", is_onn([{i: 2} for i in range(4)]))  # matrices are sparse columns
v = [3, -1, 2, 5]
print("q(v) =", q_value(v), " q(flip v) =", q_value(mat_vec(flip.matrix, v, 4)))

print("\ngenerators for n = 2:")
for g in generators(2):
    print(" ", [[row.get(j, 0) for j in range(4)] for row in transpose(g.matrix, 4)])

# --- action on chern data ---------------------------------------------------------

T2 = builtin_space("torus", {"k": 2})
c = [T2.basis_vector(2, 0), T2.zero_vector(2)]
chat = [T2.zero_vector(2), T2.zero_vector(2)]
B = [{1: -1}, {0: 1}]  # the columns of [[0, 1], [-1, 0]]
c2, chat2 = act_on_chern(shear_element(2, B), T2, c, chat)
print("\nshear by B = [[0,1],[-1,0]] moves (c, 0) to (c, B.c):")
print("  new chat =", [list(x) for x in chat2])

# --- action on triples -------------------------------------------------------------

t = dualize(hopf_pair(1, 2))
flipped = act_on_triple(flip_element(1), t)
print("\nflip exchanges the sides of the (Hopf, 2) triple:")
print("  sides swapped:", list(flipped.side.bundle.chern[0])
      == list(t.dual.bundle.chern[0]))
print("  output validates:", validate_triple(flipped).ok)

back = act_on_triple(flip_element(1), flipped)
S2 = t.base
print("  flip squared is the identity on the triple class:",
      S2.cohomology(3).is_zero(torsor_difference(back, t).vector))

m = build_bundle(T2, [T2.basis_vector(2, 0), T2.zero_vector(2)])
t2 = dualize(Pair(m, Cocycle(3, m.zero_vector(3))))
swapped = act_on_triple(gl_element(2, [{1: 1}, {0: 1}]), t2)
print("\nGL-block permutation on an n = 2 triple validates:",
      validate_triple(swapped).ok)
print("  permuted chern data:", [list(z) for z in swapped.side.bundle.chern])
