"""Dense test data to and from the sparse columns that ``tdk`` takes.

Tests write small matrices as lists of rows and check products with numpy
object arrays; ``tdk`` itself takes every matrix as a list of sparse
columns {row: coeff}.
"""

import numpy as np


def columns(rows, width=None):
    """The sparse columns of the matrix with these rows (lists of ints, or a 2-d array).

    ``width`` gives the column count of a matrix with no rows.
    """
    rows = [[int(x) for x in row] for row in rows]
    if width is None:
        width = len(rows[0]) if rows else 0
    return [{i: row[j] for i, row in enumerate(rows) if row[j]} for j in range(width)]


def array(cols, rows):
    """The numpy object array with these sparse columns and this many rows."""
    out = np.zeros((rows, len(cols)), dtype=object)
    for j, col in enumerate(cols):
        for i, x in col.items():
            out[i, j] = x
    return out


def vec(values):
    """A numpy object vector, for products with ``array``."""
    return np.array([int(x) for x in values] or [], dtype=object)


def zeros(rows, cols):
    """The zero numpy object array of this shape."""
    return np.zeros((rows, cols), dtype=object)


def mat_eq(a, b):
    """Equal shapes and entries, for numpy arrays."""
    return a.shape == b.shape and (a == b).all()


def scaled(k, v):
    """k times the dense vector v, as a list."""
    return [k * x for x in v]
