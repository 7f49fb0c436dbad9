"""O(n,n,Z) membership, generators, and the action on chern data and triples.

Group elements are sparse columns, as ``tdk`` takes them; ``matrices.columns``
writes the small ones here from their rows.
"""

import random

import pytest

from tdk.errors import InputError, UnsupportedElementError
from matrices import array, columns, scaled
from tdk.exact_linalg import identity as eye, mat_vec
from tdk.space_model import Cocycle, builtin_space
from tdk.duality_group import (
    OnnElement,
    act_on_chern,
    act_on_triple,
    flip_element,
    generators,
    gl_element,
    is_onn,
    q_value,
    shear_element,
)
from tdk.tduality_core import Pair, dualize, torsor_difference, validate_triple
from tdk.torus_bundle import build_bundle

T2 = builtin_space("torus", {"k": 2})
T3 = builtin_space("torus", {"k": 3})
S2 = builtin_space("sphere", {"k": 2})


def test_identity_and_flip_are_members():
    assert is_onn(eye(2))
    assert is_onn(eye(4))
    assert is_onn(flip_element(1).matrix)
    assert is_onn(flip_element(3).matrix)


def test_scaling_is_rejected():
    g = [{i: 2} for i in range(4)]  # 2 * eye(4)
    assert not is_onn(g)
    # q scales by 4 on e_1 + ehat_1
    v = [1, 0, 1, 0]
    assert q_value(mat_vec(g, v, 4)) == 4 * q_value(v) != q_value(v)
    with pytest.raises(InputError):
        OnnElement(2, g)


def test_odd_dimension_rejected():
    with pytest.raises(InputError):
        is_onn(eye(3))


def test_shear_and_gl_membership():
    B = columns([[0, 1], [-1, 0]])
    assert is_onn(shear_element(2, B).matrix)
    with pytest.raises(InputError):
        shear_element(2, columns([[0, 1], [1, 0]]))
    G = columns([[1, 1], [0, 1]])
    assert is_onn(gl_element(2, G).matrix)


def _assert_unimodular(g):
    """|det g| = 1 by sympy: OnnElement derives it from is_onn and does not check it."""
    sympy = pytest.importorskip("sympy")
    assert abs(sympy.Matrix(array(g.matrix, 2 * g.n).tolist()).det()) == 1


def test_generators_all_members_and_closed_under_products():
    for n in [1, 2, 3, 4]:
        gens = generators(n)
        assert gens, "generator list must be nonempty"
        for g in gens:
            assert is_onn(g.matrix)
            _assert_unimodular(g)
        for g1 in gens:
            for g2 in gens:
                assert is_onn(g1.compose(g2).matrix)


def test_random_words_are_unimodular_members():
    rng = random.Random(20261019)
    for n in [1, 2, 3, 4]:
        gens = generators(n)
        for _ in range(10):
            word = rng.choice(gens)
            for _ in range(rng.randint(1, 6)):
                word = word.compose(rng.choice(gens))
            assert is_onn(word.matrix)
            _assert_unimodular(word)


def test_generators_n1_contains_flip_and_minus_identity_type():
    mats = [array(g.matrix, 2).tolist() for g in generators(1)]
    assert [[0, 1], [1, 0]] in mats
    assert [[-1, 0], [0, -1]] in mats


def test_q_preserved_on_random_vectors():
    rng = random.Random(20260810)
    for n in [1, 2]:
        for g in generators(n):
            for _ in range(100):
                v = [rng.randint(-9, 9) for _ in range(2 * n)]
                assert q_value(mat_vec(g.matrix, v, 2 * n)) == q_value(v)


# ---------------------------------------------------------------------------
# action on chern data


def test_flip_swaps_chern_data():
    c = [T2.basis_vector(2, 0), T2.zero_vector(2)]
    chat = [T2.zero_vector(2), scaled(2, T2.basis_vector(2, 0))]
    c2, chat2 = act_on_chern(flip_element(2), T2, c, chat)
    assert [list(v) for v in c2] == [list(v) for v in chat]
    assert [list(v) for v in chat2] == [list(v) for v in c]


def test_shear_moves_dual_chern():
    B = columns([[0, 3], [-3, 0]])
    g = shear_element(2, B)
    c = [T2.basis_vector(2, 0), scaled(2, T2.basis_vector(2, 0))]
    chat = [T2.zero_vector(2), T2.zero_vector(2)]
    c2, chat2 = act_on_chern(g, T2, c, chat)
    assert [list(v) for v in c2] == [list(v) for v in c]
    assert list(chat2[0]) == scaled(3, c[1])
    assert list(chat2[1]) == scaled(-3, c[0])


def test_identity_action_fixes_chern():
    g = OnnElement(1, eye(2))
    c, chat = act_on_chern(g, S2, [S2.basis_vector(2, 0)], [scaled(2, S2.basis_vector(2, 0))])
    assert list(c[0]) == [1] and list(chat[0]) == [2]


def test_flip_squares_to_identity_on_chern():
    g = flip_element(2)
    c = [T2.basis_vector(2, 0), T2.zero_vector(2)]
    chat = [T2.zero_vector(2), T2.basis_vector(2, 0)]
    c1, chat1 = act_on_chern(g, T2, c, chat)
    c2, chat2 = act_on_chern(g, T2, c1, chat1)
    assert [list(v) for v in c2] == [list(v) for v in c]
    assert [list(v) for v in chat2] == [list(v) for v in chat]


# ---------------------------------------------------------------------------
# action on triples


def hopf_triple(k=1):
    m = build_bundle(S2, [S2.basis_vector(2, 0)])
    flux = scaled(k, m.element_vector(2, 0, (0,)))
    return dualize(Pair(m, Cocycle(3, flux)))


def n2_triple():
    m = build_bundle(T2, [T2.basis_vector(2, 0), T2.zero_vector(2)])
    flux = scaled(2, m.element_vector(2, 0, (1,)))
    return dualize(Pair(m, Cocycle(3, flux)))


def test_flip_exchanges_sides_and_validates():
    t = hopf_triple(2)
    ft = act_on_triple(flip_element(1), t)
    assert validate_triple(ft).ok
    assert [list(z) for z in ft.side.bundle.chern] == [
        list(z) for z in t.dual.bundle.chern
    ]
    assert list(ft.side.flux.vector) == list(t.dual.flux.vector)


def test_flip_squared_is_identity_on_triple_classes():
    t = hopf_triple(1)
    back = act_on_triple(flip_element(1), act_on_triple(flip_element(1), t))
    assert validate_triple(back).ok
    delta = torsor_difference(back, t)
    assert S2.cohomology(3).is_zero(delta.vector)
    assert list(back.w) == list(t.w)


def test_shear_on_trivial_chern_keeps_dual_chern():
    base = T3
    m = build_bundle(base, [base.zero_vector(2), base.zero_vector(2)])
    t = dualize(Pair(m, Cocycle(3, m.zero_vector(3))))
    B = columns([[0, 1], [-1, 0]])
    st = act_on_triple(shear_element(2, B), t)
    assert validate_triple(st).ok
    assert [list(z) for z in st.dual.bundle.chern] == [
        list(z) for z in t.dual.bundle.chern
    ]


def test_shear_moves_dual_chern_on_triple():
    t = n2_triple()
    B = columns([[0, 1], [-1, 0]])
    st = act_on_triple(shear_element(2, B), t)
    assert validate_triple(st).ok
    expected_c, expected_chat = act_on_chern(
        shear_element(2, B),
        T2,
        list(t.side.bundle.chern),
        list(t.dual.bundle.chern),
    )
    assert [list(z) for z in st.side.bundle.chern] == [list(v) for v in expected_c]
    assert [list(z) for z in st.dual.bundle.chern] == [list(v) for v in expected_chat]


def test_gl_block_permutation_on_n2_triple():
    t = n2_triple()
    P = columns([[0, 1], [1, 0]])
    gt = act_on_triple(gl_element(2, P), t)
    assert validate_triple(gt).ok
    expected_c, expected_chat = act_on_chern(
        gl_element(2, P), T2, list(t.side.bundle.chern), list(t.dual.bundle.chern)
    )
    assert [list(z) for z in gt.side.bundle.chern] == [list(v) for v in expected_c]
    assert [list(z) for z in gt.dual.bundle.chern] == [list(v) for v in expected_chat]


def test_gl_transvection_on_n2_triple():
    t = n2_triple()
    G = columns([[1, 1], [0, 1]])
    gt = act_on_triple(gl_element(2, G), t)
    assert validate_triple(gt).ok


def test_unsupported_word_raises():
    t = n2_triple()
    word = flip_element(2).compose(shear_element(2, columns([[0, 1], [-1, 0]])))
    with pytest.raises(UnsupportedElementError):
        act_on_triple(word, t)


def test_wrong_size_element_raises():
    t = hopf_triple(1)
    with pytest.raises(InputError):
        act_on_triple(flip_element(2), t)
