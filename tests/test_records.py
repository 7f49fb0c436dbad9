"""The nine small value classes, built on ``errors.Record`` without ``dataclasses``.

Each keeps what a dataclass gave its callers: positional and keyword
construction, the ``Name(f=..., g=...)`` repr, field-wise ``==`` that
returns NotImplemented for other types, hashing by the field tuple and
refused assignment on the three frozen classes, and no hash on the other
six.  ``Cocycle``, ``Pair`` and ``OnnElement`` still convert and check their
fields on construction, with the same errors.
"""

import pickle

import pytest

from tdk.duality_group import OnnElement, flip_element
from tdk.errors import InputError
from tdk.fixtures import named_pair
from tdk.space_model import Cocycle, builtin_space
from tdk.tduality_core import (
    ExtensionReport,
    Pair,
    TripleReport,
    dualize,
    extension_report,
    validate_triple,
)
from tdk.torus_bundle import FiltrationReport, SSPage, build_bundle
from tdk.twisted_cohomology import IsoReport, TMap, t_transform, verify_iso

# the fields of each class, in the order positional construction takes them
FIELDS = {
    Cocycle: ("degree", "vector"),
    Pair: ("bundle", "flux"),
    TripleReport: ("items",),
    ExtensionReport: (
        "dualizable", "certificate", "dual_chern", "ambiguity", "torsor_group", "crosscheck_group",
    ),
    SSPage: ("r", "p", "q", "group", "sq", "d_out", "is_infinity"),
    FiltrationReport: ("degree", "is_zero", "p", "representative", "model"),
    TMap: ("source", "target", "parity_shift", "blocks", "scale"),
    IsoReport: ("ok", "chain_ok", "dims_side", "dims_dual", "reason"),
    OnnElement: ("n", "matrix"),
}
FROZEN = (Cocycle, Pair, OnnElement)


def _instances():
    pair = named_pair("hopf_k2")
    triple = dualize(pair)
    bundle = build_bundle(builtin_space("torus", {"k": 2}), [[1]])
    return {
        Cocycle: Cocycle(2, [1, -1]),
        Pair: pair,
        TripleReport: validate_triple(triple),
        ExtensionReport: extension_report(pair),
        SSPage: bundle.ss_page(2, 0, 1),
        FiltrationReport: pair.bundle.filtration_report(pair.flux),
        TMap: t_transform(triple),
        IsoReport: verify_iso(triple),
        OnnElement: flip_element(2),
    }


INSTANCES = _instances()
CLASSES = sorted(FIELDS, key=lambda cls: cls.__name__)


def values(obj):
    return tuple(getattr(obj, name) for name in FIELDS[type(obj)])


def hash_or_error(make):
    try:
        return hash(make())
    except TypeError as exc:
        return str(exc)


@pytest.mark.parametrize("cls", CLASSES, ids=lambda cls: cls.__name__)
def test_repr_lists_the_fields_in_order(cls):
    obj = INSTANCES[cls]
    fields = ", ".join(f"{name}={getattr(obj, name)!r}" for name in FIELDS[cls])
    assert repr(obj) == f"{cls.__name__}({fields})"


def test_repr_text():
    assert repr(Cocycle(2, [1, -1])) == "Cocycle(degree=2, vector=(1, -1))"
    assert repr(IsoReport(True, False, (1, 0), (0, 1), "")) == (
        "IsoReport(ok=True, chain_ok=False, dims_side=(1, 0), dims_dual=(0, 1), reason='')"
    )


@pytest.mark.parametrize("cls", CLASSES, ids=lambda cls: cls.__name__)
def test_construction_and_equality(cls):
    obj = INSTANCES[cls]
    by_position = cls(*values(obj))
    by_keyword = cls(**dict(zip(FIELDS[cls], values(obj))))
    assert by_position == obj and by_keyword == obj and not by_keyword != obj
    assert obj.__eq__(object()) is NotImplemented
    assert obj != object() and obj != values(obj)
    with pytest.raises(TypeError):
        cls(*values(obj)[:-1])
    with pytest.raises(TypeError):
        cls(*values(obj), **{FIELDS[cls][0]: values(obj)[0]})
    with pytest.raises(TypeError):
        cls(*values(obj), no_such_field=1)


def test_a_changed_field_breaks_equality():
    assert Cocycle(2, [1, -1]) != Cocycle(2, [1, 1])
    assert Cocycle(2, [1, -1]) != Cocycle(1, [1, -1])
    assert IsoReport(True, True, (1,), (1,), "") != IsoReport(True, True, (1,), (1,), "x")


@pytest.mark.parametrize("cls", CLASSES, ids=lambda cls: cls.__name__)
def test_hashing(cls):
    obj = INSTANCES[cls]
    if cls in FROZEN:
        assert hash_or_error(lambda: obj) == hash_or_error(lambda: values(obj))
    else:
        assert hash_or_error(lambda: obj) == f"unhashable type: '{cls.__name__}'"


def test_frozen_values_hash_by_their_fields():
    assert hash(Cocycle(2, [1, -1])) == hash((2, (1, -1)))
    assert len({Cocycle(2, [1, -1]), Cocycle(2, (1, -1)), Cocycle(2, [0, 0])}) == 2


@pytest.mark.parametrize("cls", CLASSES, ids=lambda cls: cls.__name__)
def test_assignment(cls):
    obj = cls(*values(INSTANCES[cls]))
    name = FIELDS[cls][0]
    if cls in FROZEN:
        with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
            setattr(obj, name, None)
        with pytest.raises(AttributeError):
            delattr(obj, name)
        assert getattr(obj, name) == getattr(INSTANCES[cls], name)
    else:
        setattr(obj, name, None)
        assert getattr(obj, name) is None


@pytest.mark.parametrize("cls", [Cocycle, OnnElement], ids=lambda cls: cls.__name__)
def test_frozen_values_pickle(cls):
    obj = INSTANCES[cls]
    again = pickle.loads(pickle.dumps(obj))
    assert type(again) is cls and again == obj


def test_cocycle_vector_is_a_tuple_of_ints():
    c = Cocycle(3, [True, 2, -4])
    assert c.vector == (1, 2, -4)
    assert type(c.vector) is tuple and all(type(x) is int for x in c.vector)
    assert Cocycle(degree=1, vector=range(3)).vector == (0, 1, 2)
    with pytest.raises(InputError, match="cocycle"):
        Cocycle(1, [1.5])


def test_pair_keeps_its_checks():
    pair = named_pair("hopf_k2")
    m = pair.bundle
    with pytest.raises(InputError, match=r"^flux has degree 2, expected 3$"):
        Pair(m, Cocycle(2, m.zero_vector(2)))
    with pytest.raises(InputError, match=rf"^flux vector has length 0, expected {m.dim(3)}$"):
        Pair(m, Cocycle(3, []))
    assert Pair(bundle=m, flux=pair.flux) == pair
    # over T^3 with chern classes (x1 x2, 0), d(x3 y1 y2) = -x1 x2 x3 y2 is not zero
    m = build_bundle(builtin_space("torus", {"k": 3}), [[1, 0, 0], [0, 0, 0]])
    units = [[int(i == j) for i in range(m.dim(3))] for j in range(m.dim(3))]
    open_flux = next(v for v in units if not m.is_closed(3, v))
    with pytest.raises(InputError, match=r"^flux cocycle is not closed$"):
        Pair(m, Cocycle(3, open_flux))


def test_onn_element_keeps_its_checks():
    with pytest.raises(InputError, match=r"^matrix of size 2, expected 4$"):
        OnnElement(2, [{0: 1}, {1: 1}])
    with pytest.raises(InputError, match=r"^matrix does not preserve the split form$"):
        OnnElement(1, [{0: 1}, {1: 2}])
    with pytest.raises(InputError, match=r"^n is -1, expected a nonnegative integer$"):
        OnnElement(-1, [])
    flip = OnnElement(n=1, matrix=[{1: 1}, {0: 1}])
    assert flip == flip_element(1) and flip.matrix == [{1: 1}, {0: 1}]
