"""Reading untrusted documents: ``parse_int`` and the ``dgring`` parser.

``parse_int`` takes a fast path for plain ASCII digit strings, signed by at
most one leading ``-``; a property
holds it to ``reference_parse_int``, the general path alone, over ints,
booleans and short texts of digits, signs, spaces, letters and non-ASCII
digits.  ``parse_space`` reads ``dgring`` documents straight into sparse
columns and the stored product table; the round-trip property holds it to
the model it was written from, over random bundle total models.  Zero
coefficients in a product result are dropped, and ``DgRingModel`` takes a
differential given as sparse columns as it is.
"""

import re
import sys

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from tdk.errors import ModelError, SchemaError, parse_int  # noqa: E402
from tdk.serialize import space_to_doc  # noqa: E402
from tdk.space_model import DgRingModel, builtin_space, parse_space  # noqa: E402
from tdk.torus_bundle import build_bundle  # noqa: E402

_DECIMAL = re.compile(r"[+-]?[0-9]+")


def reference_parse_int(x, where):
    """``parse_int`` without the fast path: one regex-checked path for every string."""
    if isinstance(x, bool):
        raise SchemaError("expected an integer, got a boolean", where)
    if isinstance(x, int):
        return x
    if isinstance(x, str) and _DECIMAL.fullmatch(x.strip()):
        try:
            return int(x)
        except ValueError:  # only the digit limit is left to fail
            raise SchemaError(
                f"integer of {len(x.strip())} characters exceeds the digit limit", where
            ) from None
    raise SchemaError(f"expected an integer (decimal string), got {x!r}", where)


def outcome(read, x):
    """(value, its type) or (message, location) of the SchemaError that ``read`` raises."""
    try:
        value = read(x, "here")
    except SchemaError as err:
        return "error", str(err), err.location
    return "value", value, type(value)


TEXT = st.text(alphabet="0123456789+- \tabxyzE._²٣ ", max_size=8)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(st.one_of(TEXT, st.integers(), st.booleans()))
@example("-0")
@example("-")
@example("--1")
@example("-+1")
@example("-٣")
@example(" -1")
@example("-1 ")
def test_parse_int_matches_the_reference(x):
    assert outcome(parse_int, x) == outcome(reference_parse_int, x)


def test_fast_path_gives_the_located_digit_limit_error():
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        with pytest.raises(SchemaError) as err:
            parse_int("7" * 700, "diff[2]")
    finally:
        sys.set_int_max_str_digits(limit)
    assert err.value.location == "diff[2]"
    assert str(err.value) == "diff[2]: integer of 700 characters exceeds the digit limit"


def test_signed_fast_path_gives_the_located_digit_limit_error():
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        text = "-" + "7" * 700
        assert outcome(parse_int, text) == outcome(reference_parse_int, text)
        with pytest.raises(SchemaError) as err:
            parse_int(text, "product[0].result.coeff")
    finally:
        sys.set_int_max_str_digits(limit)
    assert err.value.location == "product[0].result.coeff"
    assert str(err.value) == (
        "product[0].result.coeff: integer of 701 characters exceeds the digit limit"
    )


# every degree-2 cochain on these bases is closed, so any chern data will do
BASES = (
    [("torus", {"k": 2}), ("torus", {"k": 3})]
    + [("surface", {"genus": g}) for g in range(4)]
    + [("heisenberg", {"k": 1})]
)


@st.composite
def total_models(draw):
    name, params = draw(st.sampled_from(BASES))
    base = builtin_space(name, params)
    n = draw(st.integers(1, 2))
    coeff = st.integers(-3, 3)
    chern = [draw(st.lists(coeff, min_size=base.dim(2), max_size=base.dim(2))) for _ in range(n)]
    return build_bundle(base, chern).total


@settings(max_examples=60, deadline=None, derandomize=True)
@given(total_models())
def test_dgring_documents_round_trip(m):
    doc = space_to_doc(m)
    again = parse_space(doc, truncation=m.D)
    assert again.basis == m.basis
    for k in range(m.D + 1):
        assert again.d_columns(k) == m.d_columns(k)
    assert again.product == m.product
    assert again.betti() == m.betti()
    assert space_to_doc(again) == doc


def test_zero_coefficients_in_a_product_result_are_dropped():
    m = build_bundle(builtin_space("torus", {"k": 2}), [[1]]).total
    doc = space_to_doc(m)
    zeros = 0
    for entry in doc["product"]:
        used = {term["idx"] for term in entry["result"]}
        dim = m.dim(int(entry["i_deg"]) + int(entry["j_deg"]))
        free = [str(c) for c in range(dim) if str(c) not in used]
        if free:
            entry["result"].insert(0, {"idx": free[0], "coeff": "0"})
            zeros += 1
    assert zeros
    again = parse_space(doc)
    assert again.product == m.product
    assert space_to_doc(again) == space_to_doc(m)


def test_a_differential_given_as_columns_is_taken_as_given():
    columns = [{0: 2}]
    m = DgRingModel([["1"], ["a"], ["b"]], {1: columns}, {})
    assert m.d_columns(1) is columns
    assert m.diff_shapes == {1: (1, 1)}
    with pytest.raises(ModelError, match=r"degree 1 has shape \(1, 2\), expected \(1, 1\)"):
        DgRingModel([["1"], ["a"], ["b"]], {1: [{}, {}]}, {})
