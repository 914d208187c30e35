"""Exact integer linear algebra.

Everything here runs on Python ints, so results are exact at any magnitude:
transform-free invariant factors behind every lattice verdict, unimodular
completion of a primitive vector by one Euclid pass on its column, primitivity,
saturation of sublattices, and the one fraction-free (Bareiss) elimination,
`rref`, behind every rank, determinant, unimodular inverse, kernel basis,
height covector and interior witness.  The full Smith normal form with its
transforms stays as a library function; no verdict calls it.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd


IntVector = tuple[int, ...]


class Record:
    """A frozen value whose fields, their order and their defaults are its
    class's annotations (`name: type = default`).

    The base builds each subclass's `__init__` once, when the class is made,
    storing the fields straight into `__dict__`.  Equality (same class, same
    fields), hash and repr read the fields only, so memos kept in `__dict__`
    (`cached_property`, `cones._kept_on_diagram`) take no part in them.
    """

    def __init_subclass__(cls):
        fields = cls._fields = tuple(cls.__dict__.get("__annotations__", ()))
        if "__init__" in cls.__dict__:
            raise TypeError(f"{cls.__qualname__}: a record's __init__ is built from its fields")
        defaults = {f: cls.__dict__[f] for f in fields if f in cls.__dict__}
        # a default `f=f` reads the namespace `defaults`, the body the argument;
        # the local `__dict__` is a name no field can take
        params = "".join(f", {f}={f}" if f in defaults else f", {f}" for f in fields)
        body = "".join(f"\n    __dict__[{f!r}] = {f}" for f in fields)
        exec(f"def __init__(self{params}):\n    __dict__ = self.__dict__{body}", defaults)
        cls.__init__ = defaults["__init__"]
        cls.__init__.__qualname__ = f"{cls.__qualname__}.__init__"

    def _values(self) -> tuple:
        return tuple(getattr(self, f) for f in self._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


def _as_int_vector(v) -> IntVector:
    v = tuple(v)
    out = tuple(map(int, v))
    if out != v:
        raise ValueError(f"non-integer entry in {v}")
    return out


class IntMatrix(Record):
    """Immutable integer matrix, row-major."""

    rows: int
    cols: int
    entries: tuple[IntVector, ...]

    @staticmethod
    def from_rows(rows) -> "IntMatrix":
        data = tuple(_as_int_vector(r) for r in rows)
        if not data or not data[0]:
            raise ValueError("matrix must be nonempty")
        ncols = len(data[0])
        if any(len(r) != ncols for r in data):
            raise ValueError("ragged rows")
        return IntMatrix(len(data), ncols, data)

    @staticmethod
    def from_columns(cols) -> "IntMatrix":
        return IntMatrix.from_rows(list(zip(*cols)))

    @staticmethod
    def identity(n: int) -> "IntMatrix":
        return IntMatrix(n, n, tuple(tuple(int(i == j) for j in range(n)) for i in range(n)))

    def __matmul__(self, other: "IntMatrix") -> "IntMatrix":
        if self.cols != other.rows:
            raise ValueError("shape mismatch")
        ot = list(zip(*other.entries))
        return IntMatrix(self.rows, other.cols, tuple(
            tuple(sum(a * b for a, b in zip(row, col)) for col in ot) for row in self.entries
        ))

    def mul_vector(self, v) -> IntVector:
        """A v for an integer vector v, not checked again: `_as_int_vector`
        runs only where outside data enters, such as `from_rows`."""
        if len(v) != self.cols:
            raise ValueError("shape mismatch")
        return tuple(sum(a * b for a, b in zip(row, v)) for row in self.entries)

    def transpose(self) -> "IntMatrix":
        return IntMatrix(self.cols, self.rows, tuple(zip(*self.entries)))

    def det(self) -> int:
        """Determinant: the sign of `rref`'s row swaps times its last pivot."""
        if self.rows != self.cols:
            raise ValueError("determinant of a non-square matrix")
        _, pivots, scale, sign = rref(self.entries, self.cols)
        return sign * scale if len(pivots) == self.cols else 0

    def inverse_unimodular(self) -> "IntMatrix":
        """Exact integer inverse; requires |det| = 1."""
        n = self.cols
        identity = IntMatrix.identity(self.rows).entries
        rows, pivots, scale, _ = rref([a + e for a, e in zip(self.entries, identity)], n)
        # the last pivot of a full-rank square matrix is +-det
        if self.rows != n or len(pivots) < n or abs(scale) != 1:
            raise ValueError(f"matrix is not unimodular (det = {self.det()})")
        return IntMatrix(n, n, tuple(tuple(scale * x for x in row[n:]) for row in rows))


class SnfDecomposition(Record):
    """Smith normal form data: U @ M @ V == D with U, V unimodular."""

    U: IntMatrix
    D: IntMatrix
    V: IntMatrix

    @property
    def diagonal(self) -> IntVector:
        n = min(self.D.rows, self.D.cols)
        return tuple(self.D.entries[i][i] for i in range(n))

    @property
    def invariant_factors(self) -> IntVector:
        """Nonunit diagonal entries, i.e. the torsion of the cokernel."""
        return tuple(d for d in self.diagonal if d not in (0, 1))

    @property
    def rank(self) -> int:
        return sum(1 for d in self.diagonal if d != 0)

    def verify(self, M: IntMatrix) -> bool:
        diag = self.diagonal
        return (
            (self.U @ M @ self.V).entries == self.D.entries
            and abs(self.U.det()) == abs(self.V.det()) == 1
            and not any(x for i, r in enumerate(self.D.entries) for j, x in enumerate(r) if i != j)
            and all(d >= 0 for d in diag)
            and all(b % a == 0 if a else b == 0 for a, b in zip(diag, diag[1:]))
        )


def _pivot(m, t, rows, cols):
    # smallest absolute value wins; ties broken by lowest row, then column
    keys = [(abs(m[i][j]), i, j) for i in range(t, rows) for j in range(t, cols) if m[i][j]]
    return min(keys)[1:] if keys else None


def _diagonalize(d, u=None, v=None) -> None:
    """The Smith pivot loop, in place on the row lists `d`.

    Row operations are repeated on `u` and column operations on `v` when
    they are given.  Without them only the diagonal is computed: at 3 x d
    that skips updating the d x d transform V at every column operation.
    """
    rows, cols = len(d), len(d[0])

    def row_swap(a, b):
        d[a], d[b] = d[b], d[a]
        if u is not None:
            u[a], u[b] = u[b], u[a]

    def col_swap(a, b):
        for r in d:
            r[a], r[b] = r[b], r[a]
        if v is not None:
            for r in v:
                r[a], r[b] = r[b], r[a]

    def row_add(dst, src, c):
        d[dst] = [x + c * y for x, y in zip(d[dst], d[src])]
        if u is not None:
            u[dst] = [x + c * y for x, y in zip(u[dst], u[src])]

    def col_add(dst, src, c):
        for r in d:
            r[dst] += c * r[src]
        if v is not None:
            for r in v:
                r[dst] += c * r[src]

    def row_neg(a):
        d[a] = [-x for x in d[a]]
        if u is not None:
            u[a] = [-x for x in u[a]]

    n = min(rows, cols)
    t = 0
    while t < n:
        loc = _pivot(d, t, rows, cols)
        if loc is None:
            break
        i, j = loc
        if i != t:
            row_swap(i, t)
        if j != t:
            col_swap(j, t)
        while True:
            # clear column t below the pivot
            dirty = False
            for i in range(t + 1, rows):
                if d[i][t] != 0:
                    q = d[i][t] // d[t][t]
                    if q:
                        row_add(i, t, -q)
                    if d[i][t] != 0:
                        row_swap(i, t)
                        dirty = True
            if dirty:
                continue
            # clear row t right of the pivot
            for j in range(t + 1, cols):
                if d[t][j] != 0:
                    q = d[t][j] // d[t][t]
                    if q:
                        col_add(j, t, -q)
                    if d[t][j] != 0:
                        col_swap(j, t)
                        dirty = True
            if dirty:
                continue
            # pivot must divide the whole remaining block
            offender = None
            for i in range(t + 1, rows):
                for j in range(t + 1, cols):
                    if d[i][j] % d[t][t] != 0:
                        offender = i
                        break
                if offender is not None:
                    break
            if offender is None:
                break
            row_add(t, offender, 1)
        if d[t][t] < 0:
            row_neg(t)
        t += 1


def smith_normal_form(M: IntMatrix) -> SnfDecomposition:
    """Smith normal form over the integers.

    Returns U, D, V with U @ M @ V == D, U and V unimodular, D diagonal with
    nonnegative entries forming a divisibility chain d1 | d2 | ...
    """
    rows, cols = M.rows, M.cols
    d = [list(r) for r in M.entries]
    u = [[1 if i == j else 0 for j in range(rows)] for i in range(rows)]
    v = [[1 if i == j else 0 for j in range(cols)] for i in range(cols)]
    _diagonalize(d, u, v)
    snf = SnfDecomposition(
        U=IntMatrix.from_rows(u), D=IntMatrix.from_rows(d), V=IntMatrix.from_rows(v)
    )
    assert snf.verify(M), "internal error: SNF failed remultiplication check"
    return snf


def _smith_diagonal(M: IntMatrix) -> IntVector:
    """The Smith diagonal d1 | d2 | ... of M, without the transforms U and V."""
    d = [list(r) for r in M.entries]
    _diagonalize(d)
    diag = tuple(d[i][i] for i in range(min(M.rows, M.cols)))
    # cheap self-check: a divisibility chain led by the gcd of all entries
    assert diag[0] == gcd(*(x for r in M.entries for x in r)) and all(
        b % a == 0 if a else b == 0 for a, b in zip(diag, diag[1:])
    ), "internal error: Smith diagonal is not a divisibility chain"
    return diag


def invariant_factors(M: IntMatrix) -> IntVector:
    """Nonunit nonzero Smith invariant factors of M, the torsion of its cokernel.

    Equal to smith_normal_form(M).invariant_factors; cheaper, since no
    transform is tracked or remultiplied (about 0.1 ms against 5 ms at 3 x 40).
    """
    return tuple(x for x in _smith_diagonal(M) if x not in (0, 1))


def is_primitive(v) -> bool:
    """True iff the gcd of the entries is 1.  Rejects the zero vector."""
    v = _as_int_vector(v)
    g = gcd(*v)
    if g == 0:
        raise ValueError("zero vector has no primitive direction")
    return g == 1


def make_primitive(v) -> IntVector:
    v = _as_int_vector(v)
    g = gcd(*v)
    if g == 0:
        raise ValueError("zero vector")
    return tuple(x // g for x in v)


def complete_to_unimodular(v) -> IntMatrix:
    """Find A in SL(n, Z) with A @ v == (-1, 0, ..., 0).

    The sign convention targets -1 in the leading slot.  Requires a primitive
    vector of length at least 2; in rank 1 no SL(1, Z) element can flip sign.
    A is the row transform of one Euclid pass on the column v (the Smith
    pivot loop of `_diagonalize`: a single column takes no column
    operations), with row 0 negated to send v to -e_1 and, if that leaves
    det -1, row 1 negated too.  Its certificate is A v = -e_1 and one
    determinant of +-1 before that second negation, which makes it 1.
    """
    v = _as_int_vector(v)
    n = len(v)
    if n < 2:
        raise ValueError("need at least 2 components to complete to SL(n, Z)")
    if gcd(*v) != 1:
        raise ValueError(f"{v} is not primitive")
    column = [[x] for x in v]
    a = [[int(i == j) for j in range(n)] for i in range(n)]
    _diagonalize(column, a)  # leaves a v = column = (1, 0, ..., 0)
    a[0] = [-x for x in a[0]]
    det = IntMatrix(n, n, tuple(map(tuple, a))).det()
    if det == -1:  # negating a row flips det -1 to 1: no second determinant
        a[1] = [-x for x in a[1]]
    A = IntMatrix(n, n, tuple(map(tuple, a)))
    assert det in (1, -1) and A.mul_vector(v) == (-1,) + (0,) * (n - 1)
    return A


def sublattice_saturation_equal(vectors) -> bool:
    """Decide whether the given integer vectors span a saturated sublattice.

    True iff they are linearly independent over Z and every lattice point of
    their real span is already an integer combination of them, which is
    equivalent to all Smith invariant factors of the column matrix being 1.
    That is decided by closed forms where they exist:

    - one vector: saturated iff the gcd of its entries is 1, O(n);
    - two vectors, at any rank n: saturated iff the gcd of their 2x2 minors
      is 1 (at rank 3 the minors are the entries of the cross product),
      O(n^2);
    - k >= 3 vectors: saturated iff the transform-free Smith diagonal is k
      ones; min(k, n) pivots, each O(k n) integer work per reduction pass,
      with no U, V or determinant.
    """
    cols = [_as_int_vector(v) for v in vectors]
    if not cols or not cols[0]:
        raise ValueError("need at least one nonempty vector")
    if any(len(c) != len(cols[0]) for c in cols):
        raise ValueError("vectors of different lengths")
    return _saturated(cols)


def _saturated(cols) -> bool:
    """sublattice_saturation_equal of checked integer vectors of one nonzero length."""
    if len(cols) == 1:
        return gcd(*cols[0]) == 1
    if len(cols) == 2:
        a, b = cols
        if len(a) == 3:  # the minors are the entries of the cross product, unrolled
            (a0, a1, a2), (b0, b1, b2) = a, b
            return gcd(a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0) == 1
        g = 0
        for i in range(len(a)):
            for j in range(i + 1, len(a)):
                g = gcd(g, a[i] * b[j] - a[j] * b[i])
        return g == 1
    diag = _smith_diagonal(IntMatrix.from_columns(cols))
    return len(diag) == len(cols) and all(x == 1 for x in diag)


# --- fraction-free elimination -------------------------------------------

def rref(rows, ncols):
    """Fraction-free (Bareiss) Gauss-Jordan elimination on the first `ncols` columns.

    Columns past `ncols` (an augmented block) are carried along but never
    pivoted on.  Columns are taken left to right, each pivoting on its first
    nonzero row at or below the current rank; the kernel basis of
    `kernel_basis_from_rref` depends on that column order.  Every division is
    exact, so the rows stay integer.  Returns (rows, pivots, scale, sign):
    rows[i] / scale is the reduced row (with its leading 1 in column
    pivots[i] for i < len(pivots)), scale the last pivot (1 if none) and
    sign (-1) ** (number of row swaps).
    """
    rows = [list(r) for r in rows]
    pivots = []
    scale = sign = 1
    for c in range(ncols):
        r = len(pivots)
        if r == len(rows):
            break
        piv = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if piv is None:
            continue
        if piv != r:
            rows[r], rows[piv] = rows[piv], rows[r]
            sign = -sign
        p, pivot_row = rows[r][c], rows[r]
        for i, row in enumerate(rows):
            if i != r:
                f = row[c]
                rows[i] = [(p * x - f * y) // scale for x, y in zip(row, pivot_row)]
        scale = p
        pivots.append(c)
    return rows, pivots, scale, sign


def kernel_basis_from_rref(rows, pivots, scale, ncols):
    """The kernel basis read off `rref(a, ncols)`, in Fractions: one vector per free column."""
    basis, pivot_set = [], set(pivots)
    for f in range(ncols):
        if f in pivot_set:
            continue
        vec = [Fraction(0)] * ncols
        vec[f] = Fraction(1)
        for row, c in zip(rows, pivots):
            vec[c] = Fraction(-row[f], scale)
        basis.append(vec)
    return basis
