"""Base-space models: simplicial complexes and differential graded ring models.

A :class:`DgRingModel` is a finite graded ring over Z in degrees 0..D with an
integer differential and a structure-constant product table.  It is the
carrier for every base-space computation downstream: cohomology groups, cup
products, and the Koszul-type bundle models built on top.

Validity hypothesis (user-facing): downstream bundle computations are
guaranteed correct when the model is integrally quasi-isomorphic, as a ring
model, to the cochain algebra of the intended space.  All shipped models
satisfy this.  For :func:`cohomology_ring` output it is a formality
assumption and is flagged in the model metadata.
"""

from __future__ import annotations

import itertools
import operator
import types
from functools import cached_property, wraps

from .errors import (
    _SMALL_INTS, DimensionError, FrozenRecord, InputError, ModelError, SchemaError, parse_int,
    require,
)
from .exact_linalg import (
    _sum_terms,
    cochain_cohomology,
    cochain_invariants,
    dense_vector,
    int_vector,
    smith_normal_form,
    transpose,
)
# unused here, but benchmark/tests/test_benchmark.py checks that its tracer patches it
from .exact_linalg import subquotient  # noqa: F401

__all__ = [
    "Cocycle",
    "DgRingModel",
    "SimplicialComplex",
    "parse_space",
    "cohomology_ring",
    "product_model",
    "builtin_space",
    "BUILTIN_NAMES",
    "DEFAULT_TRUNCATION",
]

DEFAULT_TRUNCATION = 4


def _truncation_bound(truncation):
    """The truncation bound, DEFAULT_TRUNCATION for None, read by ``operator.index``.

    So a float is an InputError, not truncated, and so is a negative bound:
    no model has fewer degrees than degree 0.
    """
    if truncation is None:
        return DEFAULT_TRUNCATION
    try:
        bound = operator.index(truncation)
    except TypeError:
        raise InputError(f"truncation {truncation!r} is not an integer") from None
    if bound < 0:
        raise InputError(f"truncation {bound} is negative")
    return bound


class Cocycle(FrozenRecord):
    """A degree and a coefficient vector over the model basis in that degree.

    ``vector`` is any sequence of integers on input and a tuple of ints
    afterwards, so the frozen value cannot change.
    """

    _fields = ("degree", "vector")

    def __post_init__(self):
        object.__setattr__(self, "vector", tuple(int_vector(self.vector, "cocycle")))


# ---------------------------------------------------------------------------
# differential graded ring models


def memoised(method):
    """Decorate a method so that its results are memoised per instance, in its ``__dict__``.

    The results go when the instance goes, so a finished model is freed as
    soon as nothing else refers to it; there is no size limit.  For
    ``benchmark/tracing.py``, which wraps the method and calls it unbound as
    ``fn(obj, *args)``, ``cache_info()`` gives ``hits`` and ``misses`` summed
    over all instances.
    """
    key = f"_memo_{method.__name__}"

    @wraps(method)
    def cached(obj, *args):
        memo = obj.__dict__.setdefault(key, {})
        if args in memo:
            cached.hits += 1
        else:
            cached.misses += 1
            memo[args] = method(obj, *args)
        return memo[args]

    cached.hits = cached.misses = 0
    cached.cache_info = lambda: types.SimpleNamespace(hits=cached.hits, misses=cached.misses)
    return cached


def _values(vec, length):
    """The coordinates of a cochain vector of this length, as a list of ints."""
    vals = int_vector(vec)
    if len(vals) != length:
        raise DimensionError(f"cochain of length {len(vals)}, expected {length}")
    return vals


# the zero cochain, and a row of no products, for lookups that miss; never written
_ZERO = {}
_NO_ROW = (1, _ZERO)


def _scaled_equal(x, u, y, v):
    """Whether x u == y v, for nonzero ints x, y and sparse cochains u, v without zero entries."""
    if x == y:
        return u == v
    if x == -y:
        return u.keys() == v.keys() and not any(map(operator.add, u.values(), map(v.__getitem__, u)))
    return u.keys() == v.keys() and all(x * w == y * v[c] for c, w in u.items())


def _terms(vec, length):
    """A cochain vector of this length as a sparse cochain."""
    return {a: x for a, x in enumerate(_values(vec, length)) if x}


def _table_columns(table, rows, cols):
    """(shape, sparse columns) of a differential given as a table or as sparse columns.

    A nonempty list of dicts is sparse columns already and is taken as it
    is, with shape (rows, its length).  A table given by its rows is
    converted; an empty table is the zero map of shape (rows, cols), and a
    table of another shape keeps it, for ``validate`` to name.
    """
    if isinstance(table, list) and table and all(type(col) is dict for col in table):
        return (rows, len(table)), table
    table = [int_vector(row, f"row {r}") for r, row in enumerate(table)]
    widths = {len(row) for row in table}
    if len(widths) > 1:
        raise DimensionError("matrix data is not rectangular")
    shape = (len(table), widths.pop()) if widths - {0} else (rows, cols)
    columns = [{} for _ in range(shape[1])]
    for r, row in enumerate(table):
        for c, x in enumerate(row):
            if x:
                columns[c][r] = x
    return shape, columns


class DgRingModel:
    """Finite graded ring over Z with differential, given by explicit tables.

    ``basis[k]`` lists the labels in degree k for 0 <= k <= D;
    ``diff[k]`` is d: C^k -> C^{k+1}, zero if missing, given either as its
    table (rows) or as a nonempty list of sparse columns {row: coeff}, one
    per basis element of degree k; the degrees k are read by
    ``operator.index``.  Columns are taken as given, not copied
    or converted: their entries must be exact nonzero ints in rows
    0..dim(k+1)-1, which ``validate`` does not check (``parse_space`` has);
    ``product[(i, a, j, b)]`` maps a basis pair to a dict {index: coeff} in
    degree i + j; keys, indices and coefficients are read by
    ``operator.index``, so a float is an InputError naming the entry, not
    truncated.  Pairs involving the unit default to the identity action,
    all other missing pairs to zero.  Products landing above degree D are
    truncated to zero.

    Ring arithmetic runs on these sparse structure constants.  A sparse
    cochain is a dict {index: coeff} with no zero entries.  The differential
    is stored only as such cochains: ``d_columns(k)`` holds d_k as one per
    basis element of degree k, the given columns or converted once from the
    given table, and it is also the matrix that eliminations take.
    :meth:`mul_terms` and :meth:`d_terms` work on sparse cochains, and
    :meth:`validate` scans only the nonzero products and differentials, so
    the cost of both follows the nonzero structure constants, not the basis
    size; :meth:`mul` and :meth:`d` take any sequence of integers and return
    a list of ints.

    The constructor reads and converts, and never runs :meth:`validate`.
    Untrusted models are validated where they are read: ``parse_space``
    validates every ``dgring`` document.  The models that ``tdk`` builds
    itself are valid by construction (the builtins and ``product_model``,
    which ``tests/test_space_model.py`` validates over ladders), certified
    on base data (``BundleModel``) or validated by their builder
    (``cohomology_ring``).
    """

    def __init__(self, basis, diff, product, meta=None):
        self.basis = [list(map(str, bs)) for bs in basis]
        self.D = len(self.basis) - 1
        if self.D < 0 or not self.basis[0]:
            raise ModelError("model needs a nonempty degree-0 part")
        self._dshape, self._dcols = {}, {}
        for k, table in dict(diff).items():
            try:
                k = operator.index(k)
            except TypeError:
                raise InputError(f"differential degree {k!r} must be an integer") from None
            self._dshape[k], self._dcols[k] = _table_columns(table, self.dim(k + 1), self.dim(k))
        self._product = {}
        for key, entry in dict(product).items():
            entry = dict(entry)
            try:
                i, a, j, b = map(operator.index, key)
                terms = zip(map(operator.index, entry), map(operator.index, entry.values()))
                self._product[(i, a, j, b)] = {c: v for c, v in terms if v}
            except TypeError:
                raise InputError(f"key and result {entry} must be integers", f"product entry {key}") from None
        self.meta = dict(meta or {})

    # -- basic structure ----------------------------------------------------

    def dim(self, k):
        return len(self.basis[k]) if 0 <= k <= self.D else 0

    def zero_vector(self, k):
        return [0] * self.dim(k)

    def basis_vector(self, k, idx):
        v = self.zero_vector(k)
        v[idx] = 1
        return v

    @property
    def product(self):
        """{(i, a, j, b): {index: coeff}}, the structure constants as given (read-only)."""
        return self._product

    @property
    def diff_shapes(self):
        """{k: (rows, columns) of d_k} over the degrees whose differential was given."""
        return {k: self._dshape.get(k, (self.dim(k + 1), self.dim(k))) for k in self._dcols}

    def d_columns(self, k):
        """d_k as one sparse cochain per basis element of degree k (read-only)."""
        cols = self._dcols.get(k)
        return [{}] * self.dim(k) if cols is None else cols

    def d(self, k, vec):
        """d of a cochain vector of degree k, as a list of ints."""
        out = [0] * self.dim(k + 1)
        for x, col in zip(_values(vec, self.dim(k)), self.d_columns(k)):
            if x:
                for r, y in col.items():
                    out[r] += x * y
        return out

    def d_terms(self, k, u):
        """d of the sparse cochain u of degree k, as a sparse cochain."""
        cols = self.d_columns(k)
        return _sum_terms((x, cols[a]) for a, x in u.items())

    def is_closed(self, k, vec):
        return not any(self.d(k, vec))

    def mul_basis(self, i, a, j, b):
        """Structure constants of basis element a (deg i) times b (deg j)."""
        if i + j > self.D:
            return {}
        if (i, a, j, b) in self._product:
            return self._product[(i, a, j, b)]
        if i == 0 and a == 0:
            return {b: 1}
        if j == 0 and b == 0:
            return {a: 1}
        return {}

    def mul_terms(self, i, u, j, v):
        """Product of the sparse cochains u (deg i) and v (deg j)."""
        mul_basis = self.mul_basis
        return _sum_terms(
            (x * y, mul_basis(i, a, j, b)) for a, x in u.items() for b, y in v.items()
        )

    def mul(self, i, u, j, v):
        """Product of cochain vectors u (deg i) and v (deg j)."""
        terms = self.mul_terms(i, _terms(u, self.dim(i)), j, _terms(v, self.dim(j)))
        return dense_vector(terms, self.dim(i + j))

    # -- validation ----------------------------------------------------------

    def validate(self):
        """Check every model axiom, raising ModelError with a certificate.

        The axioms are checked in a fixed order: ranks, shapes and ranges,
        d(unit) = 0, d o d = 0, the unit, graded commutativity, associativity
        and the Leibniz rule.  A failing axiom's certificate names its least
        failing pair (i, j, a, b) or triple (i, j, k, a, b, c), degrees i, j,
        k first, so it is determined by the model alone.

        The last three axioms are each one scan over the nonzero structure
        constants.  With |a| = i, |b| = j, |c| = k, three facts allow it:

        (a) Once the unit axiom holds, a pair or triple with a unit factor
            holds: both sides reduce to one product, as (1b)c = bc = 1(bc),
            and d(1) = 0.  A missing non-unit entry is zero, so only stored
            entries can break commutativity.
        (b) Once graded commutativity holds, a(bc) = eps (cb)a with
            eps = (-1)^(ij+jk+ki), so (ab)c - a(bc) = -eps ((cb)a - c(ba));
            and a d(b) = (-1)^(i(j+1)) d(b)a, so d(ab) - d(a)b - (-1)^i a d(b)
            = d(ab) - d(a)b - (-1)^(ij) d(b)a, which is (-1)^(ij) times the
            same for (b, a).  So a triple fails iff its mirror (c, b, a) does,
            and a pair iff (b, a) does; each is compared once, from the side
            with (i, a) <= (k, c), resp. (i, a) <= (j, b).
        (c) (ab)c = sum of x (yc) over the terms x y of ab, so it is zero
            unless ab != 0 and yc != 0; likewise d(a)b.  The scans enumerate
            only those products.  A triple with ab = 0 but bc != 0 is
            reached from its mirror, as cb != 0; one with ab = bc = 0 has
            both sides zero.  A pair is reached if ab != 0, d(a)b != 0 or,
            from its mirror, d(b)a != 0; otherwise both sides are zero.
        (d) Once the unit axiom holds, the product of two non-unit basis
            elements is exactly the stored entry, zero if none is stored:
            ``mul_basis`` gives that for every pair with i + j <= D, and
            the range check has refused every stored entry with i + j > D.
            So the scans read ``product`` once (``BundleModel`` tabulates
            it on each read, by the rule of its ``mul_basis``) and look no
            non-unit pair up through ``mul_basis``.

        The range check, the unit and the commutativity comparisons share
        one pass over the stored entries; a unit or commutativity failure is
        raised in its turn.  A missing entry with a unit factor is the
        identity (``mul_basis``), so only a stored one can break the unit
        axiom, and the least failing element b of 1 b or b 1 is named.  The
        ``product`` of a ``BundleModel`` lists no pair with a unit factor:
        its Koszul rule gives 1 (b (x) y_S) = (1 b) (x) y_S, the base's unit.

        A failing scan finishes its phase and raises for the least failing
        triple or pair, taken over the failures and their mirrors: by (b)
        that is the first failure of a loop over all basis triples or pairs
        in the order above (``tests/test_ring_oracle.py`` keeps that loop).
        """
        D = self.D
        dims = [len(bs) for bs in self.basis]
        if dims[0] != 1:
            raise ModelError(f"degree-0 part has rank {dims[0]}, expected 1 (connected base)")
        for k, shape in self._dshape.items():
            if not (0 <= k <= D):
                raise ModelError(f"differential given in degree {k} outside 0..{D}")
            if shape != (self.dim(k + 1), dims[k]):
                raise ModelError(
                    f"differential in degree {k} has shape {shape}, "
                    f"expected {(self.dim(k + 1), dims[k])}"
                )
        # one pass over the stored entries: the ranges, and for the scans
        # below the graded mirrors and right[(i, a)][(j, b)] = ab, the
        # nonzero products of non-unit factors
        product = self.product
        skew = []  # graded-commutativity failures, raised after the unit check
        unit = []  # (j, b) whose stored unit entry is not b, raised after d o d = 0
        right = {}
        for (i, a, j, b), ab in product.items():
            if i < 0 or j < 0 or i + j > D:
                raise ModelError(f"product entry for degrees ({i},{j}) out of range")
            if not (0 <= a < dims[i] and 0 <= b < dims[j]):
                raise ModelError(f"product entry ({i},{a},{j},{b}) indexes outside the basis")
            n = dims[i + j]
            for c in ab:
                if not 0 <= c < n:
                    raise ModelError(
                        f"product entry ({i},{a},{j},{b}) has a result outside degree {i + j}"
                    )
            if i and j:
                # compared once per mirror pair, from the side with (i, a) <= (j, b)
                ba = product.get((j, b, i, a))
                if ba is None:
                    if ab:
                        skew += [(i, j, a, b), (j, i, b, a)]
                elif (i < j or i == j and a <= b) and not (
                    ab == ba if i * j % 2 == 0 else _scaled_equal(1, ab, -1, ba)
                ):
                    skew += [(i, j, a, b), (j, i, b, a)]
                if ab:
                    row = right.get((i, a))
                    if row is None:
                        row = right[(i, a)] = {}
                    row[(j, b)] = ab
            elif ab != ({b: 1} if i == 0 else {a: 1}):  # 1 b or b 1, with a = 0 in degree 0
                unit.append((j, b) if i == 0 else (i, a))
        dcols = [self.d_columns(k) for k in range(D + 1)]
        if dcols[0][0]:
            raise ModelError("d(unit) is nonzero")
        self.check_d_squared()
        if unit:
            j, b = min(unit)
            raise ModelError(f"unit does not act as identity on {self.basis[j][b]!r}")
        self._raise_least("graded commutativity", skew)

        def right_products(i, u):
            """{(j, b): u b} over the non-unit b with u b != 0."""
            terms = {}
            for y, x in u.items():
                for jb, yb in right.get((i, y), _ZERO).items():
                    terms.setdefault(jb, []).append((x, yb))
            out = {jb: _sum_terms(pairs) for jb, pairs in terms.items()}
            return {jb: ub for jb, ub in out.items() if ub}

        # associativity: (ab)c == eps (cb)a, compared once per mirror pair;
        # abc[(i, a, j, b)] = (x, {(k, c): u}) with (ab)c = x u != 0, so that
        # a one-term ab = x y takes the row of y as it is, with no zeros
        abc = {}
        for (i, a), row in right.items():
            for (j, b), ab in row.items():
                if len(ab) == 1:
                    [(y, x)] = ab.items()
                    abc[(i, a, j, b)] = x, right.get((i + j, y), _ZERO)
                else:
                    abc[(i, a, j, b)] = 1, right_products(i + j, ab)
        failed = []
        for (i, a, j, b), (x, row) in abc.items():
            ia = (i, a)
            for (k, c), u in row.items():
                y, mirror = abc.get((k, c, j, b), _NO_ROW)
                v = mirror.get(ia)
                if v is None:
                    failed += [(i, j, k, a, b, c), (k, j, i, c, b, a)]
                elif k > i or k == i and c >= a:  # else compared from the mirror's side
                    y = -y if (i * j + j * k + k * i) % 2 else y
                    if not (u == v if x == y else _scaled_equal(x, u, y, v)):
                        failed += [(i, j, k, a, b, c), (k, j, i, c, b, a)]
        self._raise_least("associativity", failed)
        # Leibniz rule: d(ab) == (da)b + (-1)^(ij) (db)a for i + j < D,
        # compared once per mirror pair; dab[(i, a)][(j, b)] = d(a)b, nonzero.
        # Both sides are zero unless d(a)b, d(b)a or d(ab) is nonzero, and
        # d(ab) is zero unless a term of ab has a nonzero differential.
        dab = {}
        for i in range(1, D):
            for a, da in enumerate(dcols[i]):
                if da:
                    row = right_products(i + 1, da)
                    if row:
                        dab[(i, a)] = row
        live = [{c for c, col in enumerate(cols) if col} for cols in dcols]
        failed = []

        def leibniz(i, a, j, b, ab):
            lhs = _sum_terms((x, dcols[i + j][c]) for c, x in ab.items())
            dadb = dab.get((i, a), _ZERO).get((j, b), _ZERO)
            dbda = dab.get((j, b), _ZERO).get((i, a), _ZERO)
            if lhs != _sum_terms(((1, dadb), (-1 if i * j % 2 else 1, dbda))):
                failed.extend([(i, j, a, b), (j, i, b, a)])

        # pairs with ab != 0, so ba != 0: from the side with (i, a) <= (j, b)
        for (i, a), row in right.items():
            da = dab.get((i, a), _ZERO)
            for (j, b), ab in row.items():
                if i + j < D and (i < j or i == j and a <= b) and (
                    (j, b) in da
                    or (i, a) in dab.get((j, b), _ZERO)
                    or not live[i + j].isdisjoint(ab)
                ):
                    leibniz(i, a, j, b, ab)
        # pairs with ab = 0 and d(a)b != 0: from the least side with d(.). != 0
        for (i, a), row in dab.items():
            ab_row = right.get((i, a), _ZERO)
            for (j, b) in row:
                if (j, b) in ab_row:
                    continue
                if (j < i or j == i and b < a) and (i, a) in dab.get((j, b), _ZERO):
                    continue  # compared from the mirror's side
                leibniz(i, a, j, b, _ZERO)
        self._raise_least("Leibniz rule", failed)

    def _raise_least(self, axiom, failed):
        """Raise ModelError for the least of the failing pairs (i, j, a, b)
        or triples (i, j, k, a, b, c), if there are any."""
        if failed:
            least = min(failed)
            n = len(least) // 2
            labels = ", ".join(repr(self.basis[k][x]) for k, x in zip(least[:n], least[n:]))
            raise ModelError(f"{axiom} fails on {'pair' if n == 2 else 'triple'} ({labels})")

    def d_squared_failures(self):
        """(k, a) for each basis element x = basis[k][a] with d(d(x)) != 0, in order."""
        for k in range(self.D - 1):
            for a, col in enumerate(self.d_columns(k)):
                if col and self.d_terms(k + 1, col):
                    yield k, a

    def check_d_squared(self):
        """Raise ModelError naming the first basis element x with d(d(x)) != 0."""
        for k, a in self.d_squared_failures():
            raise ModelError(f"d(d(x)) != 0 for basis element {self.basis[k][a]!r} in degree {k}")

    # -- cohomology ----------------------------------------------------------

    @memoised
    def d_factor(self, k):
        """The Smith form of d_k, factored once, for every solve d_k x = b against it."""
        return smith_normal_form(self.d_columns(k), self.dim(k + 1))

    @memoised
    def cohomology(self, k):
        """H^k as a subquotient of the degree-k cochain lattice."""
        return cochain_cohomology(k, self.D, self.dim, self.d_columns)

    def betti(self):
        """[(rank, torsion)] of H^k for k = 0..D, without classes.

        Precondition: d o d = 0, C^0 = Z.1 and d(1) = 0, so H^0 = Z is one
        component and d_0 is not eliminated.  ``validate`` certifies all
        three for every parsed ``dgring`` document and every
        ``cohomology_ring``, ``BundleModel``'s certificate on base data
        certifies d o d = 0 for the total model of every bundle build, whose
        degree 0 is the base's unit times the fiber's, and the builtins and
        ``product_model`` hold them by construction
        (``tests/test_space_model.py`` validates them).
        """
        return cochain_invariants(
            self.D, self.dim, lambda k: transpose(self.d_columns(k), self.dim(k + 1)), 1
        )

    def cup_class(self, x: Cocycle, y: Cocycle):
        """Normal form of [x][y] in H^{|x|+|y|}."""
        require(x, Cocycle, "x")
        require(y, Cocycle, "y")
        prod = self.mul(x.degree, x.vector, y.degree, y.vector)
        return self.cohomology(x.degree + y.degree).reduce(prod)

    def __repr__(self):
        dims = [self.dim(k) for k in range(self.D + 1)]
        return f"DgRingModel(dims={dims})"


# ---------------------------------------------------------------------------
# simplicial complexes


def _checked_facets(nvertices, rows, max_dim):
    """The facets of int vertex lists, each as a sorted tuple, in order.

    A negative vertex count is refused first.  Then each facet in turn is
    refused for a repeated vertex, a vertex out of range, no vertex, or a
    dimension above ``max_dim``, in that order, naming the facet as given.
    """
    if nvertices < 0:
        raise SchemaError("vertex count must be nonnegative")
    clean = []
    for idx, verts in enumerate(rows):
        face = tuple(sorted(verts))
        if len(set(face)) != len(face):
            raise SchemaError(f"facet {idx} has repeated vertices: {verts}")
        if face and (face[0] < 0 or face[-1] >= nvertices):
            raise SchemaError(f"facet {idx} references a vertex out of range: {verts}")
        if not face:
            raise SchemaError(f"facet {idx} is empty")
        if len(face) - 1 > max_dim:
            raise SchemaError(f"facet {idx} has dimension {len(face) - 1} > bound {max_dim}")
        clean.append(face)
    return clean


class SimplicialComplex:
    """Finite abstract simplicial complex given by its facets.

    The vertex count and the vertices are read by ``operator.index``, once
    each, so a float or a string is a SchemaError, not truncated or parsed.
    The bound ``max_dim`` on facet dimensions is read as a truncation: None
    is DEFAULT_TRUNCATION, and a float or a string is an InputError.
    ``parse_space`` has read a document's vertices to ints already and
    builds through ``_from_ints``, which checks them without reading them
    again.  Either way a fault in the count or in an earlier facet is
    refused before a fault in a later one.

    The faces are numbered in one pass from the top dimension down.  The
    top-dimensional facets come first, sorted.  Then each k-simplex, in the
    order of its number, numbers those of its faces that no earlier
    k-simplex reached, in lexicographic order; for k >= 2 it also writes its
    row {face without vertex i: (-1)^i} of the coboundary d_{k-1}.  The
    facets of dimension k - 1 that no coface reached follow, sorted.  So the
    rows of d_1 .. d_(dim-1) are written, and no row of d_0: the edges
    number the vertices, and union-find over the edges counts the connected
    components, which is all that ``cochain_invariants`` needs of d_0.  The
    numbering depends on the sorted ``facets`` and not on the order of the
    document, and faces that meet get near numbers, which keeps the fill-in
    of ``betti()``'s unit pivots small: on an m = 96 grid they update about
    38 thousand entries, against 3.4 to 4 million in sorted order.  ``betti()``
    hands fresh copies of those rows to ``cochain_invariants``, whose answer
    does not depend on the numbering.

    ``simplices`` (each level sorted), ``index`` (simplex -> position in
    ``simplices``) and ``coboundary_columns(k)`` (over those positions) are
    built on first read and cached on the complex; ``cohomology``, ``cup``
    and ``cohomology_ring`` read them, so classes and representatives are
    in sorted order.
    """

    def __init__(self, nvertices, facets, max_dim=DEFAULT_TRUNCATION):
        max_dim = _truncation_bound(max_dim)
        try:
            nvertices = operator.index(nvertices)
        except TypeError:
            raise SchemaError(f"vertex count {nvertices!r} is not an integer") from None
        rows = []
        for idx, f in enumerate(facets):
            try:
                rows.append(list(map(operator.index, f)))
            except TypeError:
                _checked_facets(nvertices, rows, max_dim)  # an earlier fault comes first
                raise SchemaError(f"facet {idx} has a vertex that is not an integer: {f}") from None
        self._build(nvertices, rows, max_dim)

    @classmethod
    def _from_ints(cls, nvertices, rows, max_dim):
        """The complex of an int vertex count and int vertex lists, read by the caller.

        ``max_dim`` is an int bound.  The count and the facets are checked
        as ``__init__`` checks them, but no vertex is read a second time.
        """
        self = cls.__new__(cls)
        self._build(nvertices, rows, max_dim)
        return self

    def _build(self, nvertices, rows, max_dim):
        self.nvertices = nvertices
        clean = _checked_facets(nvertices, rows, max_dim)
        if not clean:
            raise SchemaError("complex has no facets")
        self.facets = sorted(set(clean))
        self.dim = max(len(f) - 1 for f in self.facets)
        by_dim = [[] for _ in range(self.dim + 1)]
        for f in self.facets:
            by_dim[len(f) - 1].append(f)
        # _faces[k]: k-simplex -> its number; _rows[k]: the rows of d_k by
        # (k+1)-simplex number, over k-simplex numbers
        level = {f: i for i, f in enumerate(by_dim[self.dim])}
        self._faces = [None] * self.dim + [level]
        self._rows = [None] * self.dim + [[]]
        for k in range(self.dim, 1, -1):
            below = {}
            number = below.setdefault
            # the j-th face in lexicographic order is the one without vertex k - j
            signs = [(-1) ** (k - j) for j in range(k + 1)]
            rows = [
                {number(f, len(below)): x for f, x in zip(itertools.combinations(sigma, k), signs)}
                for sigma in level
            ]
            for f in by_dim[k - 1]:
                number(f, len(below))
            self._faces[k - 1], self._rows[k - 1] = below, rows
            level = below
        # the vertices, numbered as the edges reach them; union-find over the
        # edges counts the merges, so H^0 needs no row of d_0
        merged = 0
        if self.dim:
            root = {}  # vertex -> a vertex nearer the root of its tree
            for u, v in level:
                if u not in root:
                    root[u] = u
                if v not in root:
                    root[v] = v
                while root[u] != u:  # path halving
                    root[u] = u = root[root[u]]
                while root[v] != v:
                    root[v] = v = root[root[v]]
                if u != v:
                    root[u] = v
                    merged += 1
            below = {(w,): i for i, w in enumerate(root)}
            for f in by_dim[0]:
                below.setdefault(f, len(below))
            self._faces[0] = below
        self._components = len(self._faces[0]) - merged

    @cached_property
    def simplices(self):
        """The k-simplices of each level k, sorted."""
        return [sorted(level) for level in self._faces]

    @cached_property
    def index(self):
        """{simplex: its position in ``simplices``} for each level."""
        return [{s: i for i, s in enumerate(level)} for level in self.simplices]

    def n_simplices(self, k):
        return len(self._faces[k]) if 0 <= k <= self.dim else 0

    def euler_characteristic(self):
        return sum((-1) ** k * self.n_simplices(k) for k in range(self.dim + 1))

    @memoised
    def coboundary_columns(self, k):
        """The coboundary C^k -> C^{k+1} as one sparse column {row: sign} per k-simplex (read-only).

        Rows and columns are positions in ``simplices``.  A (k+1)-simplex
        tau has the sign (-1)^i in the column of its face without vertex i
        (vertices in increasing order).
        """
        cols = [{} for _ in range(self.n_simplices(k))]
        for r, tau in enumerate(self.simplices[k + 1] if 0 <= k < self.dim else []):
            for drop in range(len(tau)):
                cols[self.index[k][tau[:drop] + tau[drop + 1 :]]][r] = -1 if drop % 2 else 1
        return cols

    @memoised
    def cohomology(self, k):
        """H^k(K, Z) as a subquotient of simplicial k-cochains."""
        return cochain_cohomology(k, self.dim, self.n_simplices, self.coboundary_columns)

    def betti(self):
        """[(rank, torsion)] of H^k(K, Z) for k = 0..dim, without classes.

        d o d = 0 holds for every simplicial coboundary, which is the
        precondition of ``cochain_invariants``, and H^0 is free on the
        components that ``__init__`` counted.  The rows of d_1 .. d_(dim-1)
        go over in the numbering that ``__init__`` found, and no sorted view
        is built.
        """
        rows = self._rows
        return cochain_invariants(
            self.dim, self.n_simplices, lambda k: [r.copy() for r in rows[k]], self._components
        )

    def cup(self, p, u, q, v):
        """Front-face/back-face cup product of cochains u (deg p), v (deg q).

        u and v have one entry per p- and q-simplex; a cochain of another
        length, or a negative degree, is a DimensionError.
        """
        if p < 0 or q < 0:
            raise DimensionError(f"no cochains in degree {min(p, q)}")
        u = _values(u, self.n_simplices(p))
        v = _values(v, self.n_simplices(q))
        k = p + q
        out = [0] * self.n_simplices(k)
        if k > self.dim:
            return out
        for r, sigma in enumerate(self.simplices[k]):
            front = sigma[: p + 1]
            back = sigma[p:]
            iu = self.index[p].get(front)
            iv = self.index[q].get(back)
            if iu is not None and iv is not None:
                out[r] = u[iu] * v[iv]
        return out

    def __repr__(self):
        counts = [self.n_simplices(k) for k in range(self.dim + 1)]
        return f"SimplicialComplex(vertices={self.nvertices}, counts={counts})"


# ---------------------------------------------------------------------------
# parsing


def parse_space(document, truncation=None):
    """Validate a space document and return the corresponding value.

    Two schemas are accepted: ``{"format": "simplicial", ...}`` producing a
    :class:`SimplicialComplex` and ``{"format": "dgring", ...}`` producing a
    fully validated :class:`DgRingModel`.  Integers may be decimal strings.

    Each vertex of a simplicial document is read once, to an int, and the
    complex is checked and built from those ints with no second pass
    (``SimplicialComplex._from_ints``).  The read is fastest when every
    label is the canonical decimal string of an integer in -256..256, as in
    any complex of at most 257 vertices labelled from 0; a facet with
    another label is read by ``parse_int``.  Every fault of reading (the count, then each facet
    in order) is raised before a negative count, and that before any
    fault of a facet's shape.
    """
    truncation = _truncation_bound(truncation)
    if not isinstance(document, dict):
        raise SchemaError("space document must be a JSON object")
    fmt = document.get("format")
    if fmt == "simplicial":
        if "vertices" not in document or "facets" not in document:
            raise SchemaError("simplicial document needs 'vertices' and 'facets'")
        n = parse_int(document["vertices"], "vertices")
        facets = document["facets"]
        if not isinstance(facets, list) or not all(isinstance(f, list) for f in facets):
            raise SchemaError("'facets' must be a list of vertex lists")
        return SimplicialComplex._from_ints(n, _read_facets(facets), truncation)
    if fmt == "dgring":
        return _parse_dgring(document, truncation)
    raise SchemaError(f"unknown space format {fmt!r} (expected 'simplicial' or 'dgring')")


def _read_facets(facets):
    """Each facet's vertices as a list of ints, each vertex read once.

    A facet whose vertices are all canonical spellings of labels in
    -256..256 (every label of a small complex) is read by lookups in
    ``_SMALL_INTS``.  A facet with any other vertex, or an unhashable one,
    is read by ``parse_int`` instead, located at the facet; so the first
    facet that holds a fault raises, before any facet is checked.
    """
    small = _SMALL_INTS.get
    rows = []
    for i, f in enumerate(facets):
        try:
            verts = list(map(small, f))
        except TypeError:  # an unhashable vertex
            verts = [None]
        if None in verts:
            at = f"facets[{i}]"
            verts = [parse_int(v, at) for v in f]
        rows.append(verts)
    return rows


def _parse_dgring(document, truncation):
    """The validated DgRingModel of a ``dgring`` document, read straight into stored form.

    Each ``diff`` matrix is read row by row into sparse columns {row: coeff},
    which ``DgRingModel`` takes as they are.  A row of ``"0"`` entries is
    skipped by one ``count``, and the entry ``"0"`` by one string
    comparison; every other entry goes through ``parse_int``, so ``false``,
    ``0.0``, ``" 0"`` or ``"-0"`` are refused or read as before.

    The integers of a product entry are read inline from ``parse_int``'s
    table of canonical small decimals, the common case.  When a field is
    missing, unhashable or off the table, the inline read raises KeyError or
    TypeError, and the entry's key (or the term) is read again through
    ``parse_int``, which gives the value or the located error.  Product
    results keep their exact nonzero coefficients, which is the form the
    model stores, so the table is installed without a second conversion.

    Every error keeps its text and its location (``diff[k]``,
    ``product[p].i_idx``, ``product[p].result.coeff``, ...).  Product
    locations are built only on the error path, and so is the position of
    a repeated key or result index: it is read off the insertion order of
    the table, which holds one entry per product entry or term read so far.
    """
    for key in ("degrees", "basis"):
        if key not in document:
            raise SchemaError(f"dgring document needs a {key!r} field")
    D = parse_int(document["degrees"], "degrees")
    if D < 0:
        raise SchemaError("'degrees' must be nonnegative")
    if D > truncation:
        raise SchemaError(
            f"'degrees' = {D} exceeds the truncation bound {truncation} "
            "(raise TDK_TRUNCATION to accept deeper models)"
        )
    basis = document["basis"]
    if not isinstance(basis, list) or len(basis) != D + 1:
        raise SchemaError(f"'basis' must list degrees 0..{D}")
    for k, bs in enumerate(basis):
        if not isinstance(bs, list) or not all(isinstance(x, str) for x in bs):
            raise SchemaError(f"basis in degree {k} must be a list of labels")
    label_pos = {}
    for k, bs in enumerate(basis):
        for pos, label in enumerate(bs):
            if label in label_pos:
                k0, pos0 = label_pos[label]
                raise SchemaError(
                    f"basis[{k}][{pos}] repeats the label {label!r} of basis[{k0}][{pos0}]"
                )
            label_pos[label] = (k, pos)
    dims = [len(bs) for bs in basis]
    diff, diff_pos = {}, {}
    for pos, entry in enumerate(document.get("diff", [])):
        if not isinstance(entry, dict) or "deg" not in entry or "matrix" not in entry:
            raise SchemaError("each diff entry needs 'deg' and 'matrix'")
        k = parse_int(entry["deg"], "diff.deg")
        if not (0 <= k <= D):
            raise SchemaError(f"diff entry for degree {k} outside 0..{D}")
        if k in diff_pos:
            raise SchemaError(f"diff[{pos}] repeats degree {k} of diff[{diff_pos[k]}]")
        diff_pos[k] = pos
        rows = dims[k + 1] if k + 1 <= D else 0
        mat = entry["matrix"]
        if not isinstance(mat, list) or len(mat) != rows or any(
            not isinstance(r, list) or len(r) != dims[k] for r in mat
        ):
            raise SchemaError(
                f"diff matrix in degree {k} must be {rows} x {dims[k]}"
            )
        at = f"diff[{k}]"
        columns = diff[k] = [{} for _ in range(dims[k])]
        for r, row in enumerate(mat):
            if row.count("0") != len(row):
                for c, x in enumerate(row):
                    if x != "0":
                        x = parse_int(x, at)
                        if x:
                            columns[c][r] = x
    product = {}
    for pos, entry in enumerate(document.get("product", [])):
        if not isinstance(entry, dict):
            raise SchemaError(f"product entry {pos} must be an object")
        try:
            try:
                i, a = _SMALL_INTS[entry["i_deg"]], _SMALL_INTS[entry["i_idx"]]
                j, b = _SMALL_INTS[entry["j_deg"]], _SMALL_INTS[entry["j_idx"]]
            except (KeyError, TypeError):
                i, a, j, b = (
                    parse_int(entry[field], f"product[{pos}].{field}")
                    for field in ("i_deg", "i_idx", "j_deg", "j_idx")
                )
            result = entry["result"]
        except KeyError as exc:
            raise SchemaError(f"product entry {pos} is missing field {exc}")
        if not (0 <= i <= D and 0 <= j <= D and i + j <= D):
            raise SchemaError(f"product entry {pos} has degrees out of range")
        if not (0 <= a < dims[i] and 0 <= b < dims[j]):
            raise SchemaError(f"product entry {pos} indexes outside the basis")
        key = (i, a, j, b)
        if key in product:
            raise SchemaError(
                f"product[{pos}] repeats the key ({i}, {a}, {j}, {b}) "
                f"of product[{list(product).index(key)}]"
            )
        if not isinstance(result, list):
            raise SchemaError(f"product entry {pos} result must be a list")
        table = product[key] = {}
        dim = dims[i + j]
        for t, term in enumerate(result):
            if not isinstance(term, dict) or "idx" not in term or "coeff" not in term:
                raise SchemaError(
                    f"product[{pos}].result[{t}] must be an object with 'idx' and 'coeff'"
                )
            try:
                c, coeff = _SMALL_INTS[term["idx"]], _SMALL_INTS[term["coeff"]]
            except (KeyError, TypeError):
                c = parse_int(term["idx"], f"product[{pos}].result.idx")
                coeff = parse_int(term["coeff"], f"product[{pos}].result.coeff")
            if not (0 <= c < dim):
                raise SchemaError(f"product entry {pos} result index out of range")
            if c in table:
                raise SchemaError(
                    f"product[{pos}].result[{t}] repeats index {c} "
                    f"of product[{pos}].result[{list(table).index(c)}]"
                )
            table[c] = coeff
        if 0 in table.values():
            product[key] = {c: v for c, v in table.items() if v}
    model = DgRingModel(basis, diff, {})
    model._product = product  # already exact ints without zeros, as __init__ would store it
    model.validate()
    return model


# ---------------------------------------------------------------------------
# cohomology ring of a simplicial complex


def cohomology_ring(K: SimplicialComplex, truncation=DEFAULT_TRUNCATION):
    """Minimal ring model carrying H*(K, Z) with chosen representatives.

    Degree k of the model lists the generators of H^k in the normal-form
    order of ``K.cohomology(k)``, torsion first (``t{k}_i``, of order d_i)
    and then free (``e{k}_i``), followed by one auxiliary element
    ``s{k+1}_i`` per torsion generator of H^(k+1), with d(s{k+1}_i) =
    d_i t{k+1}_i; degree 0 holds the unit ``1`` in place of H^0.  So a
    reduced cup product of generators is a column of structure constants
    as it stands, and the product of s{k+1}_i with a generator x is the
    combination of auxiliary elements whose differential is d_i times the
    product t{k+1}_i x, stored with its graded mirror x s{k+1}_i.  At the
    truncation boundary that differential is cut off, and the product stays
    zero; so does the product of two auxiliary elements.  The result is
    validated, as no proof covers it: an unrepresentable torsion product
    structure is rejected rather than silently mangled.
    """
    require(K, SimplicialComplex, "K")
    truncation = _truncation_bound(truncation)
    if K.cohomology(0).invariants() != (1, ()):
        raise ModelError("cohomology_ring requires a connected complex")
    D = min(K.dim, truncation)
    groups = [K.cohomology(k) for k in range(D + 1)]
    torsion = [H.invariants()[1] for H in groups] + [()]
    # the constant-1 cochain represents the unit
    reps = [[[1] * K.n_simplices(0)]] + [H.generator_vectors() for H in groups[1:]]
    gens = [len(r) for r in reps]  # the auxiliary elements of degree k start at gens[k]
    basis = []
    for k in range(D + 1):
        T = len(torsion[k])
        labels = [f"t{k}_{x}" for x in range(T)] + [f"e{k}_{x}" for x in range(gens[k] - T)]
        killers = [f"s{k + 1}_{x}" for x in range(len(torsion[k + 1]))]
        basis.append((labels if k else ["1"]) + killers)
    diff = {k: [{}] * gens[k] + [{x: d} for x, d in enumerate(torsion[k + 1])] for k in range(D)}

    product = {}
    for i in range(D + 1):
        for j in range(D + 1 - i):
            H = groups[i + j]
            for a in range(len(basis[i])):
                for b in range(gens[j]):
                    if not ((i or a) and (j or b)):
                        continue  # unit action is implicit
                    if a < gens[i]:
                        nf = H.reduce(K.cup(i, reps[i][a], j, reps[j][b]))
                        table = {c: v for c, v in enumerate(nf) if v}
                        if table:
                            product[(i, a, j, b)] = table
                    elif i + 1 + j <= D:
                        t = a - gens[i]
                        nf = groups[i + 1 + j].reduce(K.cup(i + 1, reps[i + 1][t], j, reps[j][b]))
                        table = {}
                        for x, d in enumerate(torsion[i + 1 + j]):
                            q, r = divmod(torsion[i + 1][t] * nf[x], d)
                            if r:
                                raise ModelError(
                                    "torsion product structure is not strictly "
                                    f"realizable at pair ({basis[i][a]}, {basis[j][b]})"
                                )
                            if q:
                                table[gens[i + j] + x] = q
                        if table:
                            sign = -1 if i % 2 and j % 2 else 1
                            product[(i, a, j, b)] = table
                            product[(j, b, i, a)] = {c: sign * v for c, v in table.items()}

    model = DgRingModel(
        basis,
        diff,
        product,
        meta={
            "source": "simplicial-cohomology",
            "validity_hypothesis": (
                "ring model assumed integrally quasi-isomorphic to the cochain "
                "algebra of the realized complex (formality assumption)"
            ),
            "representatives": {k: [list(v) for v in reps[k]] for k in range(D + 1)},
        },
    )
    model.validate()
    return model


# ---------------------------------------------------------------------------
# Kuenneth product of two models


def product_model(A: DgRingModel, B: DgRingModel, truncation=None):
    """Tensor-product model with Koszul-sign product.

    Requires both factors to have torsion-free cohomology in every degree so
    that the tensor basis computes the cohomology of the product space.
    When a label occurs in both factors, the second factor's labels are
    primed (``v1`` becomes ``v1'``), so the product's labels stay distinct.

    The result is not validated: for valid factors it is valid by
    construction.  The tensor product of two dg rings, with the Koszul sign
    (a b)(a' b') = (-1)^(|b||a'|) (a a')(b b') and d(a b) = d(a) b +
    (-1)^|a| a d(b), is a dg ring: the unit, graded commutativity,
    associativity, the Leibniz rule and d o d = 0 follow from those of the
    factors by the usual sign count.  Truncating above D is the quotient
    by the degrees above D, an ideal that d maps into itself, so the
    truncation is a dg ring too.
    ``tests/test_space_model.py`` validates a ladder of products.
    """
    require(A, DgRingModel, "A")
    require(B, DgRingModel, "B")
    for M, name in ((A, "first"), (B, "second")):
        for k, (_, torsion) in enumerate(M.betti()):
            if torsion:
                raise InputError(
                    f"{name} factor has torsion in H^{k}; Kuenneth model undefined"
                )
    D = min(A.D + B.D, _truncation_bound(truncation))
    pairs = []  # per degree: list of (i, a, j, b)
    for k in range(D + 1):
        level = []
        for i in range(min(k, A.D) + 1):
            j = k - i
            if j > B.D:
                continue
            for a in range(A.dim(i)):
                for b in range(B.dim(j)):
                    level.append((i, a, j, b))
        pairs.append(level)
    index = [{p: n for n, p in enumerate(level)} for level in pairs]

    labels_b = B.basis
    if {x for bs in A.basis for x in bs} & {x for bs in B.basis for x in bs} - {"1"}:
        labels_b = [[x if x == "1" else x + "'" for x in bs] for bs in B.basis]

    def label(i, a, j, b):
        la, lb = A.basis[i][a], labels_b[j][b]
        if la == "1" and lb == "1":
            return "1"
        if lb == "1":
            return la
        if la == "1":
            return lb
        return f"{la}*{lb}"

    basis = [[label(*p) for p in level] for level in pairs]
    # d(a b) = d(a) b + (-1)^i a d(b); the two parts land in disjoint rows,
    # and each column lists its rows in increasing order
    diff = {}
    for k in range(D):
        cols = diff[k] = []
        for i, a, j, b in pairs[k]:
            sign = -1 if i % 2 else 1
            col = {index[k + 1][(i + 1, a2, j, b)]: x for a2, x in A.d_columns(i)[a].items()}
            for b2, x in B.d_columns(j)[b].items():
                col[index[k + 1][(i, a, j + 1, b2)]] = sign * x
            cols.append(dict(sorted(col.items())))

    product = {}
    for k1 in range(D + 1):
        for k2 in range(D + 1 - k1):
            for n1, (i1, a1, j1, b1) in enumerate(pairs[k1]):
                for n2, (i2, a2, j2, b2) in enumerate(pairs[k2]):
                    if (k1 == 0 and n1 == 0) or (k2 == 0 and n2 == 0):
                        continue
                    sign = -1 if (j1 % 2 and i2 % 2) else 1
                    pb = B.mul_basis(j1, b1, j2, b2)
                    table = {}
                    for a3, x in A.mul_basis(i1, a1, i2, a2).items():
                        for b3, y in pb.items():
                            c = index[k1 + k2][(i1 + i2, a3, j1 + j2, b3)]
                            table[c] = table.get(c, 0) + sign * x * y
                    table = {c: v for c, v in sorted(table.items()) if v}
                    if table:
                        product[(k1, n1, k2, n2)] = table

    meta = {"source": "product", "factors": [A.meta.get("name"), B.meta.get("name")]}
    return DgRingModel(basis, diff, product, meta=meta)


# ---------------------------------------------------------------------------
# builtin models


def shuffle_sign(S, T):
    """(S u T sorted, sign) with y_S y_T = sign y_(S u T) for sorted index tuples
    of degree-1 generators; (None, 0) when S and T meet."""
    if set(S) & set(T):
        return None, 0
    inv = sum(1 for s in S for t in T if s > t)
    return tuple(sorted(S + T)), (-1) ** inv


def _exterior_tables(labels, D):
    """Basis (by subsets) and product table of an exterior algebra on deg-1 gens."""
    n = len(labels)
    subsets = [[] for _ in range(D + 1)]
    for size in range(min(n, D) + 1):
        subsets[size] = sorted(itertools.combinations(range(n), size))
    index = [{s: i for i, s in enumerate(level)} for level in subsets]
    basis = [
        ["".join(labels[i] for i in s) if s else "1" for s in level]
        for level in subsets
    ]
    product = {}
    for i in range(D + 1):
        for j in range(D + 1 - i):
            for a, S in enumerate(subsets[i]):
                for b, T in enumerate(subsets[j]):
                    if (i == 0 and a == 0) or (j == 0 and b == 0):
                        continue
                    merged, sign = shuffle_sign(S, T)
                    if merged is not None and len(merged) <= D:
                        product[(i, a, j, b)] = {index[len(merged)][merged]: sign}
    return basis, product, subsets, index


def _torus_model(k, truncation):
    D = min(k, truncation)
    labels = [f"x{i + 1}" for i in range(k)]
    basis, product, _, _ = _exterior_tables(labels, D)
    return DgRingModel(basis, {}, product, meta={"name": f"torus{k}"})


def _sphere_model(k, truncation):
    basis = [["1"]] + [[] for _ in range(min(k, truncation))]
    if k <= truncation:
        basis[k] = [f"v{k}"]
    return DgRingModel(basis, {}, {}, meta={"name": f"sphere{k}"})


def _point_model():
    return DgRingModel([["1"]], {}, {}, meta={"name": "point"})


def _surface_model(genus, truncation):
    if genus == 0:
        return _sphere_model(2, truncation)
    labels = []
    for g in range(genus):
        labels += [f"a{g + 1}", f"b{g + 1}"]
    basis = [["1"], labels, ["v"]][: truncation + 1]
    product = {}
    for g in range(genus if truncation >= 2 else 0):
        ia, ib = 2 * g, 2 * g + 1
        product[(1, ia, 1, ib)] = {0: 1}
        product[(1, ib, 1, ia)] = {0: -1}
    return DgRingModel(basis, {}, product, meta={"name": f"surface{genus}"})


def _heisenberg_model(k, truncation):
    """Exterior algebra on x, y, z in degree 1 with d(z) = k * x^y."""
    labels = ["x", "y", "z"]
    D = min(3, truncation)
    basis, product, subsets, index = _exterior_tables(labels, D)
    diff = {}
    if D >= 2:  # below that, d(z) lands in a truncated degree
        diff[1] = [{} for _ in subsets[1]]  # given even for k = 0, so it keeps its shape
        if k:
            diff[1][index[1][(2,)]][index[2][(0, 1)]] = k
    return DgRingModel(basis, diff, product, meta={"name": f"heisenberg{k}"})


BUILTIN_NAMES = ("point", "sphere", "torus", "surface", "heisenberg")


def _param(params, name, default):
    """The builtin parameter ``name`` read by ``operator.index``, so a float is refused, not truncated."""
    value = params.get(name, default)
    try:
        return operator.index(value)
    except TypeError:
        raise InputError(f"parameter {name!r} is {value!r}, not an integer") from None


def builtin_space(name, params=None, truncation=DEFAULT_TRUNCATION):
    """Named base-space model, built without running :meth:`DgRingModel.validate`.

    The builtins are generated by code that is valid for every parameter;
    ``tests/test_space_model.py::test_builtins_pass_full_validation`` runs
    the full check on each of them over a ladder of parameters.  Each
    parameter, and the truncation, is read by ``operator.index``: a float
    or a string is an InputError naming it, and so is a parameter that the
    builtin does not take.
    """
    truncation = _truncation_bound(truncation)
    params = dict(params or {})
    if name == "point":
        model, used = _point_model(), {}
    elif name == "sphere":
        k = _param(params, "k", 2)
        if not 1 <= k <= 4:
            raise InputError(f"sphere dimension {k} outside 1..4")
        model, used = _sphere_model(k, truncation), {"k": k}
    elif name == "torus":
        k = _param(params, "k", 2)
        if not 1 <= k <= 3:
            raise InputError(f"torus dimension {k} outside 1..3")
        model, used = _torus_model(k, truncation), {"k": k}
    elif name == "surface":
        genus = _param(params, "genus", 2)
        if genus < 0:
            raise InputError("genus must be nonnegative")
        model, used = _surface_model(genus, truncation), {"genus": genus}
    elif name == "heisenberg":
        k = _param(params, "k", 1)
        model, used = _heisenberg_model(k, truncation), {"k": k}
    else:
        raise InputError(
            f"unknown builtin space {name!r} (have {', '.join(BUILTIN_NAMES)})"
        )
    unknown = [key for key in params if key not in used]
    if unknown:
        takes = ", ".join(used) or "none"
        raise InputError(f"builtin {name!r} takes no parameter {unknown[0]!r} (it takes {takes})")
    model.meta["builtin"] = {"name": name, "params": used}
    return model
