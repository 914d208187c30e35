"""Exact integer linear algebra.

Everything here runs on Python ints, so results are exact at any magnitude:
transform-free invariant factors behind every lattice verdict, unimodular
completion of a primitive vector by one Euclid pass on its column, primitivity,
saturation of sublattices, and the one fraction-free (Bareiss) elimination,
`rref`, behind every determinant, unimodular inverse and kernel basis, and
behind the rank, height covector and interior witness except at rank 3,
where cross products of the first independent normals give them.  One
Smith pivot loop serves the invariant factors, the completion and the full
Smith normal form; a transform rides along as an identity appended to the
matrix.  The full form stays as a library function; no verdict calls it.
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
    for x in v:
        if type(x) is not int:
            break
    else:
        return v  # plain ints, as the JSON loader gives: nothing to convert
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


def _diagonalize(d, rows, cols) -> None:
    """The Smith pivot loop, in place on the row lists `d`, pivoting on their
    leading `rows` x `cols` block.

    Row operations act on whole rows and column operations on every row, so
    identities appended to the block record them: from [[M | I], [I]] the
    block ends as D, the right of the top rows as U and the rows below as V.
    """
    n = min(rows, cols)
    t = 0
    while t < n:
        loc = _pivot(d, t, rows, cols)
        if loc is None:
            break
        i, j = loc
        d[i], d[t] = d[t], d[i]
        if j != t:
            for r in d:
                r[j], r[t] = r[t], r[j]
        while True:
            # clear column t below the pivot
            dirty = False
            for i in range(t + 1, rows):
                if d[i][t] != 0:
                    q = d[i][t] // d[t][t]
                    if q:
                        d[i] = [x - q * y for x, y in zip(d[i], d[t])]
                    if d[i][t] != 0:
                        d[i], d[t] = d[t], d[i]
                        dirty = True
            if dirty:
                continue
            # clear row t right of the pivot
            for j in range(t + 1, cols):
                if d[t][j] != 0:
                    q = d[t][j] // d[t][t]
                    if q:
                        for r in d:
                            r[j] -= q * r[t]
                    if d[t][j] != 0:
                        for r in d:
                            r[j], r[t] = r[t], r[j]
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
            d[t] = [x + y for x, y in zip(d[t], d[offender])]
        if d[t][t] < 0:
            d[t] = [-x for x in d[t]]
        t += 1


def smith_normal_form(M: IntMatrix) -> SnfDecomposition:
    """Smith normal form over the integers.

    Returns U, D, V with U @ M @ V == D, U and V unimodular, D diagonal with
    nonnegative entries forming a divisibility chain d1 | d2 | ...
    """
    rows, cols = M.rows, M.cols
    d = [[*r, *e] for r, e in zip(M.entries, IntMatrix.identity(rows).entries)]
    d += map(list, IntMatrix.identity(cols).entries)
    _diagonalize(d, rows, cols)
    snf = SnfDecomposition(
        U=IntMatrix.from_rows(r[cols:] for r in d[:rows]),
        D=IntMatrix.from_rows(r[:cols] for r in d[:rows]),
        V=IntMatrix.from_rows(d[rows:]),
    )
    assert snf.verify(M), "internal error: SNF failed remultiplication check"
    return snf


def _smith_diagonal(M: IntMatrix) -> IntVector:
    """The Smith diagonal d1 | d2 | ... of M, without the transforms U and V."""
    d = [list(r) for r in M.entries]
    _diagonalize(d, M.rows, M.cols)
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


def complete_to_unimodular(v) -> IntMatrix:
    """Find A in SL(n, Z) with A @ v == (-1, 0, ..., 0).

    The sign convention targets -1 in the leading slot.  Requires a primitive
    vector of length at least 2; in rank 1 no SL(1, Z) element can flip sign.
    A is the row transform of one Euclid pass on the column v (the Smith
    pivot loop of `_diagonalize` on [v | I]: a single column takes no column
    operations, and the identity ends as that transform), with row 0
    negated to send v to -e_1 and, if that leaves det -1, row 1 negated
    too.  Its certificate is A v = -e_1 and one determinant of +-1 before
    that second negation, which makes it 1.
    """
    v = _as_int_vector(v)
    n = len(v)
    if n < 2:
        raise ValueError("need at least 2 components to complete to SL(n, Z)")
    if gcd(*v) != 1:
        raise ValueError(f"{v} is not primitive")
    d = [[x, *e] for x, e in zip(v, IntMatrix.identity(n).entries)]
    _diagonalize(d, n, 1)  # leaves the column (1, 0, ..., 0) and a on its right
    a = [r[1:] for r in d]
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
    equivalent to all Smith invariant factors of the column matrix being 1:
    the transform-free Smith diagonal of k vectors is k ones.  That takes
    min(k, n) pivots, each O(k n) integer work per reduction pass, with no
    U, V or determinant.
    """
    cols = [_as_int_vector(v) for v in vectors]
    if not cols or not cols[0]:
        raise ValueError("need at least one nonempty vector")
    if any(len(c) != len(cols[0]) for c in cols):
        raise ValueError("vectors of different lengths")
    return _saturated(cols)


def _saturated(cols) -> bool:
    """sublattice_saturation_equal of checked integer vectors of one nonzero length."""
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
