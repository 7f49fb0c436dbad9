"""Reading untrusted documents: ``parse_int`` and the ``dgring`` parser.

``parse_int`` reads the canonical spelling of a small integer from a table;
one property holds it to ``reference_parse_int``, the general path alone,
over ints, booleans and short texts of digits, signs, spaces, letters and
non-ASCII digits, and another to ``previous_parse_int``, the reader it
replaced, on spellings of integers around the table's bounds.  ``parse_space`` reads ``dgring`` documents straight into sparse
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

from tdk.errors import _SMALL_INTS, ModelError, SchemaError, parse_int  # noqa: E402
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


def previous_parse_int(x, where):
    """``parse_int`` before the table of small integers, verbatim."""
    try:
        if type(x) is str and x.isascii() and (x.isdigit() or x[:1] == "-" and x[1:].isdigit()):
            return int(x)
        if isinstance(x, bool):
            raise SchemaError("expected an integer, got a boolean", where)
        if isinstance(x, int):
            return x
        if isinstance(x, str) and _DECIMAL.fullmatch(x.strip()):
            return int(x)
    except ValueError:  # only the digit limit is left to fail
        raise SchemaError(
            f"integer of {len(x.strip())} characters exceeds the digit limit", where
        ) from None
    raise SchemaError(f"expected an integer (decimal string), got {x!r}", where)


LOW, HIGH = min(_SMALL_INTS.values()), max(_SMALL_INTS.values())
NEAR_BOUNDS = st.one_of(
    st.integers(LOW - 20, LOW + 20), st.integers(HIGH - 20, HIGH + 20), st.integers(-20, 20)
)


@st.composite
def spellings(draw):
    """A decimal spelling of an integer near the table's bounds: signs, leading
    zeros, spaces and non-ASCII digits are drawn as well."""
    value = draw(NEAR_BOUNDS)
    sign = "-" if value < 0 else draw(st.sampled_from(["", "", "+", "-"]))
    digits = "0" * draw(st.integers(0, 2)) + str(abs(value))
    if draw(st.booleans()):
        digits = digits.translate(str.maketrans("0123456789", "٠١٢٣٤٥٦٧٨٩"))
    return draw(st.sampled_from(["", " ", "\t"])) + sign + digits + draw(st.sampled_from(["", " "]))


# past the digit limit of 640 that the property sets, and just under it
LONG = st.builds(
    lambda sign, length: sign + "7" * length, st.sampled_from(["", "-", "+", " "]),
    st.integers(630, 660),
)


@settings(max_examples=500, deadline=None, derandomize=True)
@given(st.one_of(NEAR_BOUNDS.map(str), spellings(), LONG, NEAR_BOUNDS, st.booleans()))
@example("-0")
@example("+1")
@example("01")
@example(" 1")
@example("٣")
@example(str(LOW - 1))
@example(str(HIGH + 1))
@example(True)
def test_the_table_reads_as_the_previous_parse_int(x):
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        assert outcome(parse_int, x) == outcome(previous_parse_int, x)
    finally:
        sys.set_int_max_str_digits(limit)


def test_only_canonical_spellings_are_in_the_table():
    assert all(_SMALL_INTS[str(i)] == i for i in range(LOW, HIGH + 1))
    assert len(_SMALL_INTS) == HIGH - LOW + 1
    assert LOW < 0 < HIGH


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
        DgRingModel([["1"], ["a"], ["b"]], {1: [{}, {}]}, {}).validate()


# ---------------------------------------------------------------------------
# error texts and locations of the dgring parser, one integer field at a time

INTEGER_FIELDS = {
    "i_deg": "product[1].i_deg",
    "i_idx": "product[1].i_idx",
    "j_deg": "product[1].j_deg",
    "j_idx": "product[1].j_idx",
    "result.idx": "product[1].result.idx",
    "result.coeff": "product[1].result.coeff",
    "diff": "diff[1]",
}

BAD_INTEGERS = {
    "float": (1.5, "expected an integer (decimal string), got 1.5"),
    "bool": (True, "expected an integer, got a boolean"),
    "dash": ("-", "expected an integer (decimal string), got '-'"),
    "long": ("7" * 700, "integer of 700 characters exceeds the digit limit"),
    "long_signed": ("-" + "7" * 700, "integer of 701 characters exceeds the digit limit"),
}


def _torus2_doc_with(field, value):
    """The T^2 model as a dgring document, with ``value`` put in ``field`` of
    product[1] (y x = -v), or in row 0, column 1 of d_1 for ``"diff"``."""
    doc = {
        "format": "dgring",
        "degrees": "2",
        "basis": [["1"], ["x", "y"], ["v"]],
        "diff": [{"deg": "1", "matrix": [["0", "0"]]}],
        "product": [
            {"i_deg": "1", "i_idx": "0", "j_deg": "1", "j_idx": "1",
             "result": [{"idx": "0", "coeff": "1"}]},
            {"i_deg": "1", "i_idx": "1", "j_deg": "1", "j_idx": "0",
             "result": [{"idx": "0", "coeff": "-1"}]},
        ],
    }
    if field == "diff":
        doc["diff"][0]["matrix"][0][1] = value
    elif field.startswith("result."):
        doc["product"][1]["result"][0][field.split(".")[1]] = value
    else:
        doc["product"][1][field] = value
    return doc


def parsed(doc):
    """The serialized model that ``parse_space`` reads from ``doc``, or its error and location."""
    try:
        return "model", space_to_doc(parse_space(doc))
    except SchemaError as err:
        return "error", str(err), err.location
    except ModelError as err:
        return "invalid", str(err)


@pytest.mark.parametrize("field", sorted(INTEGER_FIELDS))
@pytest.mark.parametrize("kind", sorted(BAD_INTEGERS))
def test_every_integer_field_keeps_its_error_text_and_location(field, kind):
    value, message = BAD_INTEGERS[kind]
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        outcome = parsed(_torus2_doc_with(field, value))
    finally:
        sys.set_int_max_str_digits(limit)
    location = INTEGER_FIELDS[field]
    assert outcome == ("error", f"{location}: {message}", location)


@pytest.mark.parametrize("field", sorted(INTEGER_FIELDS))
def test_a_spaced_integer_reads_as_the_plain_one(field):
    """``" 1"`` is not a plain digit string, so it takes the general path,
    which reads it as 1: the document parses, or fails, as with ``"1"``."""
    assert parsed(_torus2_doc_with(field, " 1")) == parsed(_torus2_doc_with(field, "1"))


@pytest.mark.parametrize("field", sorted(INTEGER_FIELDS))
@pytest.mark.parametrize("spelling", ["+1", "01", "1 ", "001"])
def test_an_off_table_spelling_reads_as_the_plain_one(field, spelling):
    """Spellings that miss ``parse_int``'s table are read through its general
    path: the document parses, or fails, as with ``"1"``."""
    assert parsed(_torus2_doc_with(field, spelling)) == parsed(_torus2_doc_with(field, "1"))


@pytest.mark.parametrize("field", sorted(INTEGER_FIELDS))
def test_an_unhashable_integer_field_is_a_located_error(field):
    location = INTEGER_FIELDS[field]
    message = "expected an integer (decimal string), got [1]"
    assert parsed(_torus2_doc_with(field, [1])) == ("error", f"{location}: {message}", location)


@pytest.mark.parametrize("field", ["i_deg", "j_idx", "result"])
def test_a_missing_product_field_is_named(field):
    doc = _torus2_doc_with("i_idx", "400")  # off the table, so the general path reads the key
    del doc["product"][1][field]
    assert parsed(doc) == ("error", f"product entry 1 is missing field {field!r}", None)
