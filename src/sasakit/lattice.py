"""Exact integer and rational linear algebra.

Everything here runs on Python ints and fractions.Fraction, so results are
exact at any magnitude.  This is the engine behind every lattice verdict in
the package: Smith normal forms (with transforms, for unimodular completion),
transform-free invariant factors, primitivity, and saturation of sublattices.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd


IntVector = tuple[int, ...]


def _as_int_vector(v) -> IntVector:
    out = tuple(int(x) for x in v)
    if any(x != y for x, y in zip(out, v)):
        raise ValueError(f"non-integer entry in {tuple(v)}")
    return out


@dataclass(frozen=True)
class IntMatrix:
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
        return IntMatrix.from_rows(list(zip(*[_as_int_vector(c) for c in cols])))

    @staticmethod
    def identity(n: int) -> "IntMatrix":
        return IntMatrix.from_rows(
            [[1 if i == j else 0 for j in range(n)] for i in range(n)]
        )

    def __matmul__(self, other: "IntMatrix") -> "IntMatrix":
        if self.cols != other.rows:
            raise ValueError("shape mismatch")
        ot = list(zip(*other.entries))
        return IntMatrix.from_rows(
            [[sum(a * b for a, b in zip(row, col)) for col in ot] for row in self.entries]
        )

    def mul_vector(self, v) -> IntVector:
        v = _as_int_vector(v)
        if len(v) != self.cols:
            raise ValueError("shape mismatch")
        return tuple(sum(a * b for a, b in zip(row, v)) for row in self.entries)

    def transpose(self) -> "IntMatrix":
        return IntMatrix.from_rows(list(zip(*self.entries)))

    def det(self) -> int:
        """Determinant by fraction-free (Bareiss) elimination."""
        if self.rows != self.cols:
            raise ValueError("determinant of a non-square matrix")
        n = self.rows
        m = [list(r) for r in self.entries]
        sign = 1
        prev = 1
        for k in range(n - 1):
            if m[k][k] == 0:
                for i in range(k + 1, n):
                    if m[i][k] != 0:
                        m[k], m[i] = m[i], m[k]
                        sign = -sign
                        break
                else:
                    return 0
            for i in range(k + 1, n):
                for j in range(k + 1, n):
                    m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            prev = m[k][k]
        return sign * m[n - 1][n - 1]

    def inverse_unimodular(self) -> "IntMatrix":
        """Exact integer inverse; requires |det| = 1."""
        n = self.cols
        identity = IntMatrix.identity(self.rows).entries
        rows, pivots = rref([a + e for a, e in zip(self.entries, identity)], n)
        inv = [row[n:] for row in rows]
        # an integer matrix with an integer inverse has determinant +-1
        if self.rows != n or len(pivots) < n or any(x.denominator != 1 for r in inv for x in r):
            raise ValueError(f"matrix is not unimodular (det = {self.det()})")
        return IntMatrix.from_rows(inv)

    def is_diagonal(self) -> bool:
        return all(
            self.entries[i][j] == 0
            for i in range(self.rows)
            for j in range(self.cols)
            if i != j
        )


@dataclass(frozen=True)
class SnfDecomposition:
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
        if (self.U @ M @ self.V).entries != self.D.entries:
            return False
        if abs(self.U.det()) != 1 or abs(self.V.det()) != 1:
            return False
        if not self.D.is_diagonal():
            return False
        diag = self.diagonal
        if any(d < 0 for d in diag):
            return False
        for a, b in zip(diag, diag[1:]):
            if a == 0 and b != 0:
                return False
            if a != 0 and b % a != 0:
                return False
        return True


def _pivot(m, t, rows, cols):
    # smallest absolute value wins; ties broken by lowest row, then column
    best = None
    for i in range(t, rows):
        for j in range(t, cols):
            if m[i][j] != 0:
                key = (abs(m[i][j]), i, j)
                if best is None or key < best[0]:
                    best = (key, i, j)
    return None if best is None else (best[1], best[2])


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
    assert diag[0] == vector_gcd(x for r in M.entries for x in r) and all(
        b % a == 0 if a else b == 0 for a, b in zip(diag, diag[1:])
    ), "internal error: Smith diagonal is not a divisibility chain"
    return diag


def invariant_factors(M: IntMatrix) -> IntVector:
    """Nonunit nonzero Smith invariant factors of M, the torsion of its cokernel.

    Equal to smith_normal_form(M).invariant_factors; cheaper, since no
    transform is tracked or remultiplied (about 0.1 ms against 5 ms at 3 x 40).
    """
    return tuple(x for x in _smith_diagonal(M) if x not in (0, 1))


def vector_gcd(v) -> int:
    g = 0
    for x in v:
        g = gcd(g, abs(int(x)))
    return g


def is_primitive(v) -> bool:
    """True iff the gcd of the entries is 1.  Rejects the zero vector."""
    v = _as_int_vector(v)
    g = vector_gcd(v)
    if g == 0:
        raise ValueError("zero vector has no primitive direction")
    return g == 1


def make_primitive(v) -> IntVector:
    v = _as_int_vector(v)
    g = vector_gcd(v)
    if g == 0:
        raise ValueError("zero vector")
    return tuple(x // g for x in v)


def complete_to_unimodular(v) -> IntMatrix:
    """Find A in SL(n, Z) with A @ v == (-1, 0, ..., 0).

    The sign convention targets -1 in the leading slot.  Requires a primitive
    vector of length at least 2; in rank 1 no SL(1, Z) element can flip sign.
    """
    v = _as_int_vector(v)
    if len(v) < 2:
        raise ValueError("need at least 2 components to complete to SL(n, Z)")
    if not is_primitive(v):
        raise ValueError(f"{v} is not primitive")
    column = IntMatrix.from_rows([[x] for x in v])
    snf = smith_normal_form(column)
    a = [list(r) for r in snf.U.entries]
    image = [sum(c * x for c, x in zip(row, v)) for row in a]
    assert image[0] in (1, -1) and all(x == 0 for x in image[1:])
    if image[0] == 1:
        a[0] = [-x for x in a[0]]
    A = IntMatrix.from_rows(a)
    if A.det() == -1:
        a[1] = [-x for x in a[1]]
        A = IntMatrix.from_rows(a)
    assert A.det() == 1
    assert A.mul_vector(v) == tuple([-1] + [0] * (len(v) - 1))
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
    if len(cols) == 1:
        return vector_gcd(cols[0]) == 1
    if len(cols) == 2:
        a, b = cols
        g = 0
        for i in range(len(a)):
            for j in range(i + 1, len(a)):
                g = gcd(g, a[i] * b[j] - a[j] * b[i])
        return g == 1
    diag = _smith_diagonal(IntMatrix.from_columns(cols))
    return len(diag) == len(cols) and all(x == 1 for x in diag)


# --- exact rational elimination -------------------------------------------

def rref(rows, ncols):
    """Gauss-Jordan elimination over Fraction on the first `ncols` columns.

    Columns past `ncols` (an augmented right-hand side) are carried along but
    never pivoted on.  Columns are taken left to right, each pivoting on its
    first nonzero row at or below the current rank; kernel bases, and the
    Reeb slice frame built from them, depend on that column order.  Returns
    the reduced rows and the pivot columns: reduced row i has its leading 1
    in column pivots[i].
    """
    rows = [list(map(Fraction, r)) for r in rows]
    pivots = []
    for c in range(ncols):
        r = len(pivots)
        if r == len(rows):
            break
        piv = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = 1 / rows[r][c]
        rows[r] = [x * inv for x in rows[r]]
        for i, row in enumerate(rows):
            if i != r and row[c] != 0:
                f = row[c]
                rows[i] = [x - f * y for x, y in zip(row, rows[r])]
        pivots.append(c)
    return rows, pivots


def solve_rational(a, b):
    """One solution of a @ x = b over Fraction, or None if there is none.

    `a` is a list of rows.  Free variables of a rank-deficient system are
    set to 0.
    """
    ncols = len(a[0])
    rows, pivots = rref([list(r) + [x] for r, x in zip(a, b)], ncols)
    if any(row[-1] != 0 for row in rows[len(pivots):]):
        return None
    x = [Fraction(0)] * ncols
    for row, c in zip(rows, pivots):
        x[c] = row[-1]
    return x


def rational_rank(a) -> int:
    if not a:
        return 0
    return len(rref(a, len(a[0]))[1])


def rational_kernel_basis(a):
    """Basis of the right kernel of `a` over Fraction, one vector per free column."""
    ncols = len(a[0])
    return kernel_basis_from_rref(*rref(a, ncols), ncols)


def kernel_basis_from_rref(rows, pivots, ncols):
    """The kernel basis read off `rref(a, ncols)`: one vector per free column."""
    basis = []
    for f in range(ncols):
        if f in pivots:
            continue
        vec = [Fraction(0)] * ncols
        vec[f] = Fraction(1)
        for row, c in zip(rows, pivots):
            vec[c] = -row[f]
        basis.append(vec)
    return basis
