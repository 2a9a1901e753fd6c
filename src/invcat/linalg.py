"""Exact matrices over a field and the calculus of subspaces of F^n.

Matrices act on column vectors; a map between spaces of dimensions d -> c is
stored as a c x d matrix.  Subspaces are kept in a canonical form: the unique
reduced row-echelon basis of the row space, with zero rows dropped.  Two
Subspace values describe the same set of vectors iff they are equal as Python
values, so deduplication, hashing and poset construction all key on equality.

All arithmetic runs on plain Python ints.  Over GF(p) the scalars already are
ints, reduced once per dot product and once per row-operation entry.  Over Q
a matrix is scaled to an integer grid over one common denominator, so a
product costs integer dot products and one Fraction per output entry.
Elimination over Q is fraction-free: rows are cross-multiplied and kept
primitive, and are divided by their pivot only when the canonical rows are
emitted.  ``Matrix.entries`` and ``Subspace.basis`` stay canonical Fraction
(or int mod p) tuples.  Each value lazily caches its integer form and its
hash, a matrix its inverse and its factorization for preimages (with the
preimages made and their images), and a subspace its normal rows; a cache
is a pure function of the frozen value and takes no part in equality or
repr.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from math import gcd, lcm
from operator import mul
from typing import Iterable, List, Optional, Sequence, Tuple

from .errors import ValidationError
from .fields import Field, Scalar

Vector = Tuple[Scalar, ...]
IntRow = Tuple[int, ...]

_ZERO = Fraction(0)


# --- integer kernel ------------------------------------------------------------


def _int_vector(field: Field, v: Sequence) -> Tuple[int, List[int]]:
    """``(d, w)`` with ``v == w / d``: a common denominator and integer numerators.

    Over GF(p), ``d`` is 1 and ``w`` is ``v`` reduced mod p.  Entries are
    validated as :meth:`Field.coerce` validates them.
    """
    p = field.p
    if p is not None:
        return 1, [x % p if type(x) is int else field.coerce(x) for x in v]
    if all(type(x) is int for x in v):
        return 1, list(v)
    nd = [
        (x.numerator, x.denominator)
        for x in (x if type(x) is Fraction else field.coerce(x) for x in v)
    ]
    d = lcm(*[q for _, q in nd])
    return d, [n * (d // q) for n, q in nd]


def _fraction_row(row: Iterable[int], d: int) -> Vector:
    """The Fractions ``row / d``, sharing one zero."""
    if d == 1:
        return tuple(Fraction(x) if x else _ZERO for x in row)
    return tuple(Fraction(x, d) if x else _ZERO for x in row)


def _columns(rows: Tuple[IntRow, ...], ncols: int) -> Tuple[IntRow, ...]:
    return tuple(zip(*rows)) if rows else ((),) * ncols


def _rational_matrix(
    field: Field, nrows: int, ncols: int, grid: List[List[int]], d: int
) -> "Matrix":
    """The rational matrix ``grid / d``, with its integer form cached.

    Dividing out ``gcd(d, every entry)`` leaves the least common denominator
    of the entries, which is the canonical integer form.
    """
    g = gcd(d, *chain.from_iterable(grid))
    if g != 1:
        d //= g
        grid = [[x // g for x in r] for r in grid]
    rows = tuple(map(tuple, grid))
    m = Matrix(field, nrows, ncols, tuple(_fraction_row(r, d) for r in rows))
    object.__setattr__(m, "_int_form", (d, rows, _columns(rows, ncols)))
    return m


def _eliminate(p: Optional[int], rows: List[Sequence[int]], ncols: int) -> List[int]:
    """Gauss-Jordan elimination on integer rows; returns the pivot columns.

    The list ``rows`` is updated in place (a changed row is replaced by a new
    list, so the rows passed in may be shared tuples).

    Afterwards ``rows[i]`` for ``i < len(pivots)`` is nonzero at ``pivots[i]``
    and zero in every other pivot column, and the remaining rows are zero.
    Over GF(p) the rows must be reduced mod p; each pivot becomes 1, so the
    nonzero rows are the RREF basis of the row space.  Over Q (``p is None``)
    each nonzero row is the primitive integer multiple, with a positive
    pivot, of its RREF row.
    """
    n = len(rows)
    if p is None:
        for i, row in enumerate(rows):
            g = gcd(*row)
            if g > 1:
                rows[i] = [x // g for x in row]
    pivots: List[int] = []
    r = 0
    for c in range(ncols):
        if r == n:
            break
        for k in range(r, n):
            if rows[k][c]:
                break
        else:
            continue
        rows[r], rows[k] = rows[k], rows[r]
        prow = rows[r]
        a = prow[c]
        if p is None:
            for i, row in enumerate(rows):
                b = row[c]
                if b and i != r:
                    g = gcd(a, b)
                    s, t = a // g, b // g
                    row = [s * x - t * y for x, y in zip(row, prow)]
                    g = gcd(*row)
                    rows[i] = [x // g for x in row] if g > 1 else row
        else:
            if a != 1:
                a = pow(a, -1, p)
                prow = rows[r] = [x * a % p for x in prow]
            for i, row in enumerate(rows):
                b = row[c]
                if b and i != r:
                    rows[i] = [(x - b * y) % p for x, y in zip(row, prow)]
        pivots.append(c)
        r += 1
    if p is None:
        for i, c in enumerate(pivots):
            if rows[i][c] < 0:
                rows[i] = [-x for x in rows[i]]
    return pivots


def _emit(field: Field, rows: List[Sequence[int]], pivots: List[int]) -> List[Vector]:
    """Canonical scalars of the nonzero rows left by :func:`_eliminate`."""
    if field.p is not None:
        return [tuple(r) for r in rows[: len(pivots)]]
    return [_fraction_row(r, r[c]) for r, c in zip(rows, pivots)]


def _null_rows(rows: Sequence[Sequence[int]], pivots: Sequence[int], ncols: int) -> List[List[int]]:
    """Integer rows spanning the kernel of the matrix whose rows
    :func:`_eliminate` reduced to ``rows`` with ``pivots``: one per free
    column j, with x_j = den and x_c = -rows[i][j] / rows[i][c] at the pivot
    c of each row i, scaled by den, the lcm of the pivot entries."""
    den = lcm(*[row[c] for row, c in zip(rows, pivots)])
    pivot_set = set(pivots)
    out = []
    for j in range(ncols):
        if j not in pivot_set:
            x = [0] * ncols
            x[j] = den
            for row, c in zip(rows, pivots):
                x[c] = -row[j] * (den // row[c])
            out.append(x)
    return out


# --- matrices ------------------------------------------------------------------


@dataclass(frozen=True)
class Matrix:
    field: Field
    rows: int
    cols: int
    entries: Tuple[Vector, ...]  # row-major

    # Lazy caches (not dataclass fields, so equality and repr ignore them).
    _hash = None
    _int_form = None  # (d, int rows, int columns) with entries == rows / d
    _preimage_form = None  # see ``_factored``
    _inverse_form = None  # (inverse or None,), see ``inverse``

    def __post_init__(self):
        if self.rows < 0 or self.cols < 0:
            raise ValidationError("matrix dimensions must be nonnegative")
        if len(self.entries) != self.rows or any(len(r) != self.cols for r in self.entries):
            raise ValidationError("matrix entry grid does not match declared shape")

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = hash((self.field, self.rows, self.cols, self.entries))
            object.__setattr__(self, "_hash", h)
        return h

    def _ints(self) -> Tuple[int, Tuple[IntRow, ...], Tuple[IntRow, ...]]:
        """``(d, rows, columns)``: the entries as integers over their least
        common denominator ``d`` (1 over GF(p))."""
        form = self._int_form
        if form is None:
            if self.field.p is None:
                nd = [[(x.numerator, x.denominator) for x in r] for r in self.entries]
                d = lcm(*[q for r in nd for _, q in r])
                rows = tuple(tuple(n * (d // q) for n, q in r) for r in nd)
            else:
                d, rows = 1, self.entries
            form = (d, rows, _columns(rows, self.cols))
            object.__setattr__(self, "_int_form", form)
        return form

    def _factored(self) -> Tuple["Subspace", "Subspace", Tuple[IntRow, ...], dict, dict]:
        """``(ker, im, lift, preimages, images)`` for :func:`preimage_of_meet`.

        ``lift`` holds the integer rows of a matrix L, up to one scalar, with
        ``self @ L`` the identity on im's RREF basis: column i of L is
        ``solve_particular(self, im.basis[i])``.  ``preimages`` maps each
        ``b & im`` seen so far to its preimage, and ``images`` maps that
        preimage back to it, which is its image (see :func:`map_image`).
        """
        form = self._preimage_form
        if form is None:
            ker, im = kernel(self), image(self)
            lifts = [solve_particular(self, r) for r in im.basis]
            columns = tuple(zip(*lifts)) if lifts else ((),) * self.cols
            lift = Matrix(self.field, self.cols, len(lifts), columns)._ints()[1]
            form = (ker, im, lift, {}, {})
            object.__setattr__(self, "_preimage_form", form)
        return form

    # --- constructors ------------------------------------------------------

    @classmethod
    def build(cls, field: Field, rows: int, cols: int, data: Iterable[Iterable]) -> "Matrix":
        ent = tuple(tuple(field.coerce(x) for x in row) for row in data)
        return cls(field, rows, cols, ent)

    @classmethod
    def identity(cls, field: Field, n: int) -> "Matrix":
        one, zero = field.one, field.zero
        ent = tuple(tuple(one if i == j else zero for j in range(n)) for i in range(n))
        return cls(field, n, n, ent)

    @classmethod
    def zeros(cls, field: Field, rows: int, cols: int) -> "Matrix":
        zero = field.zero
        return cls(field, rows, cols, tuple(tuple(zero for _ in range(cols)) for _ in range(rows)))

    # --- arithmetic ---------------------------------------------------------

    def __matmul__(self, other: "Matrix") -> "Matrix":
        self._check_product(other)
        d, rows, _ = self._ints()
        e, _, cols = other._ints()
        return self._product(other.cols, d * e, rows, cols)

    def through(self, other: "Matrix", keep: Sequence[int]) -> "Matrix":
        """``self[:, keep] @ other[keep, :]``, the product through the inner
        indices ``keep`` alone, sliced from the integer forms.  For a basis B
        and a set S of its indices, ``B.through(B^-1, S)`` is the coordinate
        projection B[:, S] B^-1[S, :]."""
        self._check_product(other)
        d, rows, _ = self._ints()
        e, _, cols = other._ints()
        rows = [[r[k] for k in keep] for r in rows]
        cols = [[c[k] for k in keep] for c in cols]
        return self._product(other.cols, d * e, rows, cols)

    def _check_product(self, other: "Matrix") -> None:
        if self.field != other.field:
            raise ValidationError("cannot multiply matrices over different fields")
        if self.cols != other.rows:
            raise ValidationError(
                f"shape mismatch in product: {self.rows}x{self.cols} @ {other.rows}x{other.cols}"
            )

    def _product(
        self, ncols: int, d: int, rows: Sequence[Sequence[int]], cols: Sequence[Sequence[int]]
    ) -> "Matrix":
        """The self.rows x ``ncols`` matrix of the dot products of integer
        ``rows`` and ``cols``, over the denominator ``d``."""
        p = self.field.p
        if p is None:
            grid = [[sum(map(mul, r, c)) for c in cols] for r in rows]
            return _rational_matrix(self.field, self.rows, ncols, grid, d)
        ent = tuple(tuple(sum(map(mul, r, c)) % p for c in cols) for r in rows)
        return Matrix(self.field, self.rows, ncols, ent)

    def __sub__(self, other: "Matrix") -> "Matrix":
        if (self.rows, self.cols) != (other.rows, other.cols) or self.field != other.field:
            raise ValidationError("shape mismatch in matrix difference")
        d, a, _ = self._ints()
        e, b, _ = other._ints()
        p = self.field.p
        if p is None:
            m = lcm(d, e)
            s, t = m // d, m // e
            grid = [[s * x - t * y for x, y in zip(r1, r2)] for r1, r2 in zip(a, b)]
            return _rational_matrix(self.field, self.rows, self.cols, grid, m)
        ent = tuple(tuple((x - y) % p for x, y in zip(r1, r2)) for r1, r2 in zip(a, b))
        return Matrix(self.field, self.rows, self.cols, ent)

    def apply(self, v: Sequence[Scalar]) -> Vector:
        """Matrix-vector product (``v`` as a column)."""
        if len(v) != self.cols:
            raise ValidationError("vector length does not match matrix columns")
        d, rows, _ = self._ints()
        e, w = _int_vector(self.field, v)
        p = self.field.p
        if p is None:
            return _fraction_row([sum(map(mul, r, w)) for r in rows], d * e)
        return tuple(sum(map(mul, r, w)) % p for r in rows)

    def transpose(self) -> "Matrix":
        if self.rows == 0:
            return Matrix(self.field, self.cols, 0, tuple(() for _ in range(self.cols)))
        return Matrix(self.field, self.cols, self.rows, tuple(tuple(c) for c in zip(*self.entries)))

    @property
    def is_zero(self) -> bool:
        return all(x == 0 for r in self.entries for x in r)

    @property
    def is_identity(self) -> bool:
        if self.rows != self.cols:
            return False
        one = self.field.one
        return all(
            x == (one if i == j else 0)
            for i, r in enumerate(self.entries)
            for j, x in enumerate(r)
        )

    def to_json(self) -> list:
        return [[self.field.entry_to_json(x) for x in r] for r in self.entries]


# --- elimination -----------------------------------------------------------


def rref(m: Matrix) -> Tuple[Matrix, int]:
    """Reduced row-echelon form of ``m`` and its rank."""
    rows = list(m._ints()[1])
    pivots = _eliminate(m.field.p, rows, m.cols)
    zero_row = tuple(m.field.zero for _ in range(m.cols))
    ent = _emit(m.field, rows, pivots) + [zero_row] * (m.rows - len(pivots))
    return Matrix(m.field, m.rows, m.cols, tuple(ent)), len(pivots)


def rank(m: Matrix) -> int:
    return rref(m)[1]


def solve_particular(m: Matrix, v: Sequence[Scalar]) -> Optional[Vector]:
    """One solution of ``m x = v`` (free variables set to zero), or None.

    The free-variables-at-zero choice makes every downstream certificate
    reproducible.
    """
    if len(v) != m.rows:
        raise ValidationError("right-hand side length does not match matrix rows")
    f = m.field
    e, w = _int_vector(f, v)
    if m.rows == 0:
        return tuple(f.zero for _ in range(m.cols))
    d, rows, _ = m._ints()
    # row i of [m | v] scaled by d * e
    aug = [[x * e for x in r] + [y * d] for r, y in zip(rows, w)]
    pivots = _eliminate(f.p, aug, m.cols + 1)
    if m.cols in pivots:
        return None
    x = [f.zero] * m.cols
    for row, c in zip(aug, pivots):
        x[c] = row[-1] if f.p is not None else Fraction(row[-1], row[c])
    return tuple(x)


def inverse(m: Matrix) -> Optional[Matrix]:
    """Exact inverse of a square matrix, or None when singular.  The
    elimination runs once per matrix and is cached on it."""
    if m._inverse_form is None:
        object.__setattr__(m, "_inverse_form", (_invert(m),))
    return m._inverse_form[0]


def _invert(m: Matrix) -> Optional[Matrix]:
    if m.rows != m.cols:
        return None
    n = m.rows
    f = m.field
    d, rows, _ = m._ints()
    # row i of [m | 1] scaled by d
    aug = [list(r) + [d if i == j else 0 for j in range(n)] for i, r in enumerate(rows)]
    pivots = _eliminate(f.p, aug, 2 * n)
    if pivots != list(range(n)):
        return None
    if f.p is not None:
        return Matrix(f, n, n, tuple(tuple(row[n:]) for row in aug))
    den = lcm(*[row[i] for i, row in enumerate(aug)])
    grid = [[x * (den // row[i]) for x in row[n:]] for i, row in enumerate(aug)]
    return _rational_matrix(f, n, n, grid, den)


# --- subspaces ---------------------------------------------------------------


@dataclass(frozen=True)
class Subspace:
    """A subspace of F^n held by its canonical RREF basis (rows)."""

    field: Field
    ambient_dim: int
    basis: Tuple[Vector, ...]

    # Lazy caches (not dataclass fields, so equality and repr ignore them).
    _hash = None
    _int_form = None  # (primitive int rows with positive pivots, pivot columns)
    _normal = None  # integer rows whose common kernel it is
    _json_rows = None  # the basis rows as JSON scalars, tuples of tuples

    def __hash__(self) -> int:
        # the integer rows are canonical too, and hash without a Fraction
        h = self._hash
        if h is None:
            h = hash((self.field, self.ambient_dim, self._ints()[0]))
            object.__setattr__(self, "_hash", h)
        return h

    def _ints(self) -> Tuple[Tuple[IntRow, ...], Tuple[int, ...]]:
        """The basis rows as integers (each scaled by its least common
        denominator) and their pivot columns."""
        form = self._int_form
        if form is None:
            rows = tuple(tuple(_int_vector(self.field, r)[1]) for r in self.basis)
            pivots = tuple(next(j for j, x in enumerate(r) if x) for r in rows)
            form = (rows, pivots)
            object.__setattr__(self, "_int_form", form)
        return form

    @classmethod
    def span(cls, field: Field, ambient_dim: int, vectors: Sequence[Sequence]) -> "Subspace":
        rows = [_int_vector(field, v)[1] for v in vectors]
        for v in rows:
            if len(v) != ambient_dim:
                raise ValidationError("spanning vector length differs from ambient dimension")
        pivots = _eliminate(field.p, rows, ambient_dim)
        s = cls(field, ambient_dim, tuple(_emit(field, rows, pivots)))
        int_rows = tuple(map(tuple, rows[: len(pivots)]))
        object.__setattr__(s, "_int_form", (int_rows, tuple(pivots)))
        return s

    @classmethod
    def zero(cls, field: Field, ambient_dim: int) -> "Subspace":
        return cls(field, ambient_dim, ())

    @classmethod
    def full(cls, field: Field, ambient_dim: int) -> "Subspace":
        """The whole space.  The identity rows are already its canonical
        RREF basis, so nothing is eliminated."""
        n = ambient_dim
        rows = [tuple(int(i == j) for j in range(n)) for i in range(n)]
        pivots = list(range(n))
        s = cls(field, n, tuple(_emit(field, rows, pivots)))
        object.__setattr__(s, "_int_form", (tuple(rows), tuple(pivots)))
        return s

    @property
    def dim(self) -> int:
        return len(self.basis)

    @property
    def is_zero(self) -> bool:
        return not self.basis

    @property
    def is_full(self) -> bool:
        return len(self.basis) == self.ambient_dim

    @property
    def sort_key(self):
        """Deterministic total order: by dimension, then basis entries."""
        return (len(self.basis), self.basis)

    def basis_matrix(self) -> Matrix:
        return Matrix(self.field, len(self.basis), self.ambient_dim, self.basis)

    def _holding(self, ws: Sequence[Sequence[int]]) -> List[int]:
        """The positions of the integer vectors in ``ws`` that lie in this
        subspace: those whose dot product with each cached normal row
        (``_normal_rows``) is 0.  Each normal row is tested on the vectors
        the rows before it left, so over a large field most vectors outside
        take one dot product."""
        p = self.field.p
        left = range(len(ws))
        for normal in self._normal_rows():
            if not left:
                break
            if p is None:
                left = [i for i in left if not sum(map(mul, normal, ws[i]))]
            else:
                left = [i for i in left if not sum(map(mul, normal, ws[i])) % p]
        return list(left)

    def contains_vector(self, v: Sequence[Scalar]) -> bool:
        w = _int_vector(self.field, v)[1]
        if len(w) != self.ambient_dim:
            raise ValidationError("vector length differs from ambient dimension")
        return bool(self._holding([w]))

    def _normal_rows(self) -> Tuple[IntRow, ...]:
        """Integer rows n, one per non-pivot column, with n . v = 0 for
        every v in this subspace and for no other v: the kernel of its basis
        rows (``_null_rows``), primitive over Q, reduced mod p over GF(p).
        Computed once and cached."""
        normals = self._normal
        if normals is None:
            p = self.field.p
            normals = []
            for v in _null_rows(*self._ints(), self.ambient_dim):
                if p is None:
                    g = gcd(*v)
                    normals.append(tuple(x // g for x in v))
                else:
                    normals.append(tuple(x % p for x in v))
            normals = tuple(normals)
            object.__setattr__(self, "_normal", normals)
        return normals

    def contains(self, other: "Subspace") -> bool:
        """True when ``other`` is a subspace of ``self``: each basis row of
        ``other`` lies in it (``_holding``)."""
        _check_same_ambient(self, other)
        rows = other._ints()[0]
        return len(self._holding(rows)) == len(rows)

    def json_rows(self) -> Tuple[tuple, ...]:
        """The basis rows as tuples of JSON scalars, converted once and
        shared: ``jsontext.dumps`` renders them as arrays."""
        rows = self._json_rows
        if rows is None:
            to_json = self.field.entry_to_json
            rows = tuple(tuple(map(to_json, r)) for r in self.basis)
            object.__setattr__(self, "_json_rows", rows)
        return rows

    def to_json(self) -> list:
        """The basis rows as fresh lists of JSON scalars (converted once)."""
        return [list(r) for r in self.json_rows()]


def _check_same_ambient(a: Subspace, b: Subspace) -> None:
    if a.field != b.field or a.ambient_dim != b.ambient_dim:
        raise ValidationError("subspaces live in different ambient spaces")


def sub_sum(a: Subspace, b: Subspace) -> Subspace:
    _check_same_ambient(a, b)
    return Subspace.span(a.field, a.ambient_dim, a._ints()[0] + b._ints()[0])


def complement_within(big: Subspace, small: Subspace) -> Subspace:
    """Deterministic complement of ``small`` inside ``big``.

    Extends small's basis with big's canonical basis rows, first fit: a row
    is kept when it is independent of small and of the rows kept before it.
    Not basis-independent, but reproducible, which is what certificates need.
    One elimination decides every row: with small's and then big's rows as
    columns, the pivot columns are the first-fit independent ones.  When
    ``small`` does not lie in ``big`` the result is still independent of
    ``small``, and spans with it ``big + small``.
    """
    _check_same_ambient(big, small)
    vectors = small._ints()[0] + big._ints()[0]
    columns = [list(c) for c in zip(*vectors)]
    pivots = _eliminate(big.field.p, columns, len(vectors))
    kept = [big.basis[j - small.dim] for j in pivots if j >= small.dim]
    return Subspace.span(big.field, big.ambient_dim, kept)


def sub_intersect(a: Subspace, b: Subspace) -> Subspace:
    """Intersection of two subspaces.

    Equal subspaces are their own intersection.  Two distinct ones of equal
    dimension do not contain each other (distinct canonical forms are
    distinct subspaces), so no containment test is made for them; otherwise,
    when the smaller one lies in the larger, it is the intersection (one dot
    product per row and normal row, see ``contains``).  When the smaller
    does not lie in the larger and has dimension at most 1, the intersection
    is zero.  Otherwise it is spanned by the combinations x of the smaller
    one's rows S that every normal row n of the larger one annihilates: x
    runs over the kernel of the small matrix of the n . S_i.
    """
    _check_same_ambient(a, b)
    small, big = (a, b) if len(a.basis) <= len(b.basis) else (b, a)
    k = len(small.basis)
    if k == len(big.basis):
        if small.basis == big.basis:
            return small
    elif big.contains(small):
        return small
    if k <= 1:
        return Subspace.zero(a.field, a.ambient_dim)
    p = a.field.p
    rows = small._ints()[0]
    conditions = [[sum(map(mul, normal, r)) for r in rows] for normal in big._normal_rows()]
    if p is not None:
        conditions = [[x % p for x in c] for c in conditions]
    pivots = _eliminate(p, conditions, k)
    columns = list(zip(*rows))
    return Subspace.span(
        a.field,
        a.ambient_dim,
        [[sum(map(mul, x, col)) for col in columns] for x in _null_rows(conditions, pivots, k)],
    )


def map_image(m: Matrix, a: Subspace) -> Subspace:
    """The image of ``a`` under ``m``.  The image of a preimage that
    ``preimage_of_meet`` made is the key it was lifted from, and is read off
    the factorization's memo without an elimination."""
    if a.ambient_dim != m.cols or a.field != m.field:
        raise ValidationError("subspace does not live in the domain of the map")
    form = m._preimage_form
    if form is not None:
        key = form[4].get(a)
        if key is not None:
            return key
    rows = m._ints()[1]
    return Subspace.span(
        m.field, m.rows, [[sum(map(mul, r, v)) for r in rows] for v in a._ints()[0]]
    )


def image(m: Matrix) -> Subspace:
    return Subspace.span(m.field, m.rows, m._ints()[2])


def kernel(m: Matrix) -> Subspace:
    rows = list(m._ints()[1])
    pivots = _eliminate(m.field.p, rows, m.cols)
    return Subspace.span(m.field, m.cols, _null_rows(rows, pivots, m.cols))


def map_preimage(m: Matrix, b: Subspace) -> Subspace:
    """The preimage of ``b`` under ``m``: ``preimage_of_meet`` at the key
    b & im m, which is one intersection."""
    if b.ambient_dim != m.rows or b.field != m.field:
        raise ValidationError("subspace does not live in the codomain of the map")
    return preimage_of_meet(m, sub_intersect(b, m._factored()[1]))


def preimage_of_meet(m: Matrix, key: Subspace) -> Subspace:
    """The preimage under ``m`` of every subspace b with b & im m = ``key``:
    ker m + L(key), since m^-1(b) = m^-1(b & im m).

    ``key`` must lie in im m; a caller that already holds b & im m (the flag
    closure reads it off its meets) passes it here and intersects nothing.
    L lifts im m's RREF basis (``solve_particular``, one solve per basis
    vector), so a vector y of im m lifts to sum(y[c_i] L_i) over im m's pivot
    columns c_i.  ker m, im m and L are computed once per matrix and cached on
    it, as its integer form is, and the preimage is memoized per matrix,
    keyed on ``key``: preimages of subspaces that meet im m alike are one
    computation.  As ``key`` lies in im m, m(m^-1(key)) = ``key``; the memo
    records that too, and ``map_image`` reads it.
    """
    ker, im, lift, preimages, images = m._factored()
    pre = preimages.get(key)
    if pre is None:
        pivots = im._ints()[1]
        vectors = list(ker._ints()[0])
        for w in key._ints()[0]:
            coords = [w[c] for c in pivots]
            vectors.append([sum(map(mul, row, coords)) for row in lift])
        pre = preimages[key] = Subspace.span(m.field, m.cols, vectors)
        images[pre] = key
    return pre


def projection_onto(img: Subspace, ker: Subspace) -> Matrix:
    """The projection of F^n with the given image and kernel.

    Requires img + ker = F^n and img meet ker = 0; raises otherwise.
    """
    _check_same_ambient(img, ker)
    n = img.ambient_dim
    f = img.field
    if img.dim + ker.dim != n or not sub_intersect(img, ker).is_zero:
        raise ValidationError("image and kernel are not complementary")
    cols = list(img.basis) + list(ker.basis)
    basis_t = Matrix(f, n, n, tuple(zip(*cols))) if n else Matrix(f, 0, 0, ())
    inv = inverse(basis_t)
    if inv is None:
        raise ValidationError("image and kernel are not complementary")
    img_t = (
        Matrix(f, n, img.dim, tuple(zip(*img.basis)))
        if img.dim and n
        else Matrix.zeros(f, n, img.dim)
    )
    coords = Matrix(f, img.dim, n, inv.entries[: img.dim])
    return img_t @ coords
