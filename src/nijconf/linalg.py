"""Exact linear algebra over Q and over Q[del].

Two layers:

* one sparse Gaussian elimination over ``Fraction`` (row reduction, rank,
  kernel bases, linear solving) on the sparse vectors the callers build --
  the one elimination behind the truncated cocycle solver, the
  extensibility test and the tau/eta solvers;
* one unimodular reduction of polynomial matrices over Q[del] (a Euclidean
  sweep per column, then a Gauss-Jordan clear of unit pivots, carrying the
  identity block) behind the split-injection and split-surjection tests and
  the inverse of a matrix invertible over Q[del] -- used to validate
  extension diagrams and automorphisms exactly rather than over the fraction
  field.
"""

from __future__ import annotations

from fractions import Fraction

from .poly import Poly

# ---------------------------------------------------------------------------
# sparse rational vectors
#
# A vector is a dict {key: rational}; zero entries are ignored.  Its values may
# be ints, as Poly coefficients are when integral: ``rref`` converts every
# entry to Fraction before it divides by one, so no float can arise.  The
# callers' vectors are the columns of a matrix whose rows are indexed by the
# keys, so the keys only need to be hashable.  Rows are sparse dicts too,
# indexed by column position.


def _axpy(target, factor, source):
    """target += factor * source, dropping the entries that cancel."""
    for c, v in source.items():
        value = target.get(c, 0) + factor * v
        if value:
            target[c] = value
        else:
            del target[c]


def rref(rows):
    """Reduced row echelon form of sparse rows; returns (rows, pivot_columns).

    Column indices are ordered; the returned rows are the nonzero rows of the
    (unique) reduced echelon form, one per pivot, in pivot order.
    """
    echelon = {}  # pivot column -> row, 1 at its pivot, 0 at every other pivot
    for row in rows:
        row = {c: Fraction(v) for c, v in row.items() if v}
        for c in [c for c in row if c in echelon]:
            _axpy(row, -row[c], echelon[c])
        if not row:
            continue
        pivot = min(row)
        inv = 1 / row[pivot]
        row = {c: v * inv for c, v in row.items()}
        for other in echelon.values():
            factor = other.get(pivot)
            if factor:
                _axpy(other, -factor, row)
        echelon[pivot] = row
    pivots = sorted(echelon)
    return [echelon[p] for p in pivots], pivots


def _rows(columns):
    """The sparse rows, indexed by column position, of a list of columns."""
    rows = {}
    for j, column in enumerate(columns):
        for key, value in column.items():
            if value:
                rows.setdefault(key, {})[j] = value
    return list(rows.values())


def rank(vectors, keys=None):
    """Rank of sparse vectors, or of their restriction to the given keys."""
    if keys is not None:
        keys = set(keys)
        vectors = [{k: v for k, v in vec.items() if k in keys} for vec in vectors]
    return len(rref(_rows(vectors))[1])


def nullspace(columns):
    """Basis of the kernel of the matrix with these sparse columns.

    Each basis vector is a list of one Fraction per column: the free column's
    entry is 1 and the pivot entries are read off the reduced echelon form,
    from the entries its rows hold in that free column.
    """
    n = len(columns)
    reduced, pivots = rref(_rows(columns))
    pivot_set = set(pivots)
    in_free = {free: [] for free in range(n) if free not in pivot_set}
    for row, pc in zip(reduced, pivots):
        for c, v in row.items():
            if c != pc:
                in_free[c].append((pc, -v))
    basis = []
    for free, entries in in_free.items():
        vec = [Fraction(0)] * n
        vec[free] = Fraction(1)
        for pc, v in entries:
            vec[pc] = v
        basis.append(vec)
    return basis


def solve(columns, target):
    """One solution x (a list, one Fraction per column) of sum x_j col_j =
    target, or None if target is not in the span of the columns."""
    n = len(columns)
    reduced, pivots = rref(_rows(list(columns) + [target]))
    if pivots and pivots[-1] == n:
        return None
    solution = [Fraction(0)] * n
    for row, pc in zip(reduced, pivots):
        solution[pc] = row.get(n, Fraction(0))
    return solution


# ---------------------------------------------------------------------------
# univariate polynomials over Q (coefficient tuples, low degree first)


def upoly_from(poly):
    """Convert a del-only Poly to a tuple of Fraction coefficients.

    A Poly coefficient may be an int, which ``_unimodular_reduce`` would turn
    into a float when it divides by a pivot; Fractions keep that exact.
    """
    if any(poly.uses_var(i) for i in range(1, poly.arity + 1)):
        raise ValueError("polynomial uses lambda-variables; not univariate")
    degree = poly.degree_in(0)
    coeffs = [Fraction(0)] * (degree + 1 if degree >= 0 else 0)
    for key, coeff in poly.terms.items():
        coeffs[key[0]] = Fraction(coeff)
    return tuple(coeffs)


def upoly_to(coeffs, arity=0):
    terms = {}
    for e, c in enumerate(coeffs):
        if c:
            terms[(e,) + (0,) * arity] = c
    return Poly(arity, terms)


def utrim(coeffs):
    coeffs = list(coeffs)
    while coeffs and not coeffs[-1]:
        coeffs.pop()
    return tuple(coeffs)


def uadd(a, b):
    n = max(len(a), len(b))
    return utrim(
        [
            (a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0)
            for i in range(n)
        ]
    )


def uneg(a):
    return tuple(-c for c in a)


def umul(a, b):
    if not a or not b:
        return ()
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        for j, cb in enumerate(b):
            out[i + j] += ca * cb
    return utrim(out)


def udivmod(a, b):
    if not b:
        raise ZeroDivisionError("univariate division by zero")
    a = list(a)
    quotient = [Fraction(0)] * max(len(a) - len(b) + 1, 0)
    inv = Fraction(1) / b[-1]
    for shift in range(len(a) - len(b), -1, -1):
        factor = a[shift + len(b) - 1] * inv
        if factor:
            quotient[shift] = factor
            for j, cb in enumerate(b):
                a[shift + j] -= factor * cb
    return utrim(quotient), utrim(a)


# ---------------------------------------------------------------------------
# polynomial matrices (entries: del-only Poly)


def _unimodular_reduce(matrix):
    """Reduce a matrix of del-only Polys by unimodular row operations.

    Column by column, a Euclidean sweep (``udivmod`` of every lower entry by
    the one of least degree, repeated) leaves the gcd of the column's
    remaining entries in the pivot row.  A nonzero constant pivot is scaled
    to 1 and cleared from every other row (Gauss-Jordan); the first column
    whose pivot is zero or not constant ends the reduction.  The identity
    block rides along to the right of the rows, so it ends as the unimodular
    U on the left of U M.  Returns (rows, units): the rows [U M | U] as
    coefficient tuples, and the number of leading unit pivots.
    """
    m = len(matrix)
    n = len(matrix[0]) if matrix else 0
    rows = [
        [upoly_from(entry) for entry in row]
        + [(Fraction(1),) if k == i else () for k in range(m)]
        for i, row in enumerate(matrix)
    ]

    def subtract(row, factor, pivot_row):
        return [uadd(a, uneg(umul(factor, b))) for a, b in zip(row, pivot_row)]

    for col in range(min(m, n)):
        while True:
            live = [i for i in range(col, m) if rows[i][col]]
            if not live:
                return rows, col
            least = min(live, key=lambda i: len(rows[i][col]))
            rows[col], rows[least] = rows[least], rows[col]
            pivot = rows[col][col]
            if len(live) == 1:
                break
            for i in range(col + 1, m):
                if rows[i][col]:
                    quotient = udivmod(rows[i][col], pivot)[0]
                    rows[i] = subtract(rows[i], quotient, rows[col])
        if len(pivot) != 1:
            return rows, col
        rows[col] = [tuple(c / pivot[0] for c in entry) for entry in rows[col]]
        for i in range(m):
            if i != col and rows[i][col]:
                rows[i] = subtract(rows[i], rows[i][col], rows[col])
    return rows, min(m, n)


def is_split_injection(matrix):
    """Columns span a free direct summand: every column gets a unit pivot."""
    return _unimodular_reduce(matrix)[1] == (len(matrix[0]) if matrix else 0)


def is_split_surjection(matrix):
    """Rows define a split surjection Q[del]^cols -> Q[del]^rows: the
    transpose is a split injection (every row gets a unit pivot)."""
    transpose = [list(column) for column in zip(*matrix)]
    return _unimodular_reduce(transpose)[1] == len(matrix)


def poly_unimodular_inverse(matrix):
    """Inverse of a square Q[del]-matrix that is invertible over Q[del].

    Returns None when the matrix is not square or its determinant is not a
    nonzero constant.
    """
    n = len(matrix)
    rows, units = _unimodular_reduce(matrix)
    if units < n or any(len(row) != n for row in matrix):
        return None
    return [[upoly_to(entry) for entry in row[n:]] for row in rows]
