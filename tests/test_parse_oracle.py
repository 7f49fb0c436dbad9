"""Parsed ``dgring`` documents against the dense reference validation.

``parse_space`` reads a document straight into stored structure constants
and validates them with the sparse scans of ``DgRingModel.validate``.  Here
each model of ``tests/test_ring_oracle.py`` -- the valid ones, their random
corruptions and every mirrored product change -- goes through
``space_to_doc``, then through a basis permutation with sign changes
(``resign``, written here), and then through ``parse_space``.  The verdict
must be the certificate that ``reference_validate`` gives for the same
permuted model, which this file reads from the document on its own
(``read_doc``).  The mirrored changes must reach the associativity and
Leibniz certificates.
"""

import random

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from test_ring_oracle import (  # noqa: E402
    MODELS,
    _corrupt,
    mirror_changes,
    model,
    rebuild,
    reference_validate,
    verdict,
)
from tdk.errors import ModelError  # noqa: E402
from tdk.serialize import space_to_doc  # noqa: E402
from tdk.space_model import DgRingModel, parse_space  # noqa: E402


def resign(doc, seed):
    """The model of ``doc`` in a new basis: per degree k, element a becomes
    s_k(a) times element perm_k(a), with a seeded permutation and signs; the
    unit stays.  Structure constants and differentials pick up the signs of
    their inputs and outputs, and the product entries are shuffled."""
    rng = random.Random(seed)
    perm, sign = [], []
    for k, labels in enumerate(doc["basis"]):
        order = list(range(len(labels)))
        if k:
            rng.shuffle(order)
        perm.append(order)
        sign.append([1 if k == 0 else rng.choice((1, -1)) for _ in labels])
    basis = [[None] * len(labels) for labels in doc["basis"]]
    for k, labels in enumerate(doc["basis"]):
        for a, label in enumerate(labels):
            basis[k][perm[k][a]] = label
    diff = []
    for entry in doc["diff"]:
        k = int(entry["deg"])
        rows = len(entry["matrix"])
        matrix = [["0"] * len(doc["basis"][k]) for _ in range(rows)]
        for r, row in enumerate(entry["matrix"]):
            for a, x in enumerate(row):
                matrix[perm[k + 1][r]][perm[k][a]] = str(sign[k][a] * sign[k + 1][r] * int(x))
        diff.append({"deg": entry["deg"], "matrix": matrix})
    product = []
    for entry in doc["product"]:
        i, a, j, b = (int(entry[f]) for f in ("i_deg", "i_idx", "j_deg", "j_idx"))
        s = sign[i][a] * sign[j][b]
        result = [
            {"idx": str(perm[i + j][int(t["idx"])]),
             "coeff": str(s * sign[i + j][int(t["idx"])] * int(t["coeff"]))}
            for t in entry["result"]
        ]
        rng.shuffle(result)
        product.append({
            "i_deg": str(i), "i_idx": str(perm[i][a]),
            "j_deg": str(j), "j_idx": str(perm[j][b]),
            "result": result,
        })
    rng.shuffle(product)
    return dict(doc, basis=basis, diff=diff, product=product)


def read_doc(doc):
    """The unchecked DgRingModel of a well-formed ``dgring`` document."""
    diff = {
        int(entry["deg"]): [[int(x) for x in row] for row in entry["matrix"]]
        for entry in doc["diff"]
    }
    product = {
        tuple(int(entry[f]) for f in ("i_deg", "i_idx", "j_deg", "j_idx")): {
            int(t["idx"]): int(t["coeff"]) for t in entry["result"]
        }
        for entry in doc["product"]
    }
    return DgRingModel(doc["basis"], diff, product)


def parsed_verdict(doc):
    try:
        parse_space(doc)
    except ModelError as err:
        return str(err)
    return None


def check_through_a_document(M, seed):
    """The verdict of parsing M's permuted document, after asserting that it
    is the reference certificate of the permuted model."""
    doc = resign(space_to_doc(M), seed)
    message = verdict(reference_validate, read_doc(doc))
    assert parsed_verdict(doc) == message
    return message


@pytest.mark.parametrize("name", sorted(MODELS))
def test_valid_models_parse_in_a_resigned_basis(name):
    for seed in range(3):
        assert check_through_a_document(rebuild(model(name)), seed) is None


@settings(max_examples=150, deadline=None, derandomize=True)
@given(name=st.sampled_from(sorted(MODELS)), data=st.data(), seed=st.integers(0, 2**16))
def test_corrupted_documents_same_certificate(name, data, seed):
    broken = _corrupt(model(name), data.draw)
    if broken is not None:
        check_through_a_document(broken, seed)


def test_every_mirrored_change_as_a_document_same_certificate():
    messages = set()
    for name in ("torus2 n=1", "sphere2 n=2"):
        for n, broken in enumerate(mirror_changes(model(name))):
            message = check_through_a_document(broken, n)
            messages.add(message.split(" fails")[0] if message else None)
    assert {"associativity", "Leibniz rule"} <= messages
