"""Exact linear algebra over Q and over Q[del].

Two layers:

* one sparse Gaussian elimination, fraction-free over the integers (row
  reduction, rank, kernel bases, linear solving), on the sparse rational
  vectors the callers build -- the one elimination behind the truncated
  cocycle solver, the extensibility test and the tau/eta solvers.  It takes
  no float, modular or probabilistic step;
* one unimodular reduction of matrices of del-only Polys over Q[del], in
  Poly's own arithmetic (a Euclidean sweep per column, then a Gauss-Jordan
  clear of unit pivots, carrying the identity block) behind the
  split-injection and split-surjection tests and the inverse of a matrix
  invertible over Q[del] -- used to validate extension diagrams and
  automorphisms exactly rather than over the fraction field.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from .poly import Poly

# ---------------------------------------------------------------------------
# sparse rational vectors
#
# A vector is a dict {key: rational}; zero entries are ignored.  Its values are
# ints or Fractions, as Poly coefficients are; ``rref`` refuses anything else,
# so no float enters an elimination.  The callers' vectors are the columns of
# a matrix whose rows are indexed by the keys, so the keys only need to be
# hashable.  Rows are sparse dicts too, indexed by column position.


def _cancel(row, base, column):
    """row <- a * row - b * base, for the least integers a, b that cancel
    ``column``; ``row`` may be changed in place."""
    a, b = base[column], row[column]
    g = gcd(a, b)
    if g != 1:
        a //= g
        b //= g
    if a != 1:
        row = {c: a * v for c, v in row.items()}
    for c, v in base.items():
        value = row.get(c, 0) - b * v
        if value:
            row[c] = value
        else:
            del row[c]
    return row


def _primitive(row):
    """A nonzero integer row divided by the gcd of its entries."""
    content = gcd(*row.values())
    return row if content == 1 else {c: v // content for c, v in row.items()}


def _echelon(rows):
    """Forward elimination of sparse rows: {pivot column: integer row}.

    Fraction-free (Bareiss, Math. Comp. 1968, without his exact divisions):
    each row is cleared of denominators and divided by the gcd of its
    entries.  Its leading entry is cancelled against the stored row of that
    column by cross-multiplication, and the result made primitive again,
    until its leading column is new; there the row is stored.
    """
    echelon = {}  # pivot column -> primitive integer row, led at that column
    for row in rows:
        scale = 1
        for v in row.values():
            if not isinstance(v, int):
                if not isinstance(v, Fraction):
                    raise TypeError(
                        "rref takes int and Fraction entries, not %s"
                        % type(v).__name__
                    )
                scale = lcm(scale, v.denominator)
        if scale == 1:
            row = {c: v.numerator for c, v in row.items() if v}
        else:
            row = {
                c: v.numerator * (scale // v.denominator)
                for c, v in row.items()
                if v
            }
        while row:
            row = _primitive(row)
            lead = min(row)
            base = echelon.get(lead)
            if base is None:
                echelon[lead] = row
                break
            row = _cancel(row, base, lead)
    return echelon


def rref(rows):
    """Reduced row echelon form of sparse rows; returns (rows, pivot_columns).

    Column indices are ordered; the returned rows are the nonzero rows of the
    (unique) reduced echelon form, one per pivot, in pivot order, with a
    Fraction at every entry.  Entries must be ints or Fractions; anything
    else raises TypeError.

    After the forward elimination (``_echelon``), one pass in decreasing
    pivot order clears every pivot column above the diagonal, and each
    entry of the result is one ``Fraction(v, lead)``.
    """
    echelon = _echelon(rows)
    pivots = sorted(echelon)
    # back-substitution: the rows of later pivots are reduced already, so
    # clearing one pivot column brings in no other
    for p in reversed(pivots):
        row = echelon[p]
        above = [c for c in row if c != p and c in echelon]
        if not above:
            continue
        for c in above:
            row = _cancel(row, echelon[c], c)
        echelon[p] = _primitive(row)
    reduced = []
    for p in pivots:
        row = echelon[p]
        lead = row[p]
        reduced.append({c: Fraction(v, lead) for c, v in row.items()})
    return reduced, pivots


def _rows(columns):
    """The sparse rows, indexed by column position, of a list of columns."""
    rows = {}
    for j, column in enumerate(columns):
        for key, value in column.items():
            rows.setdefault(key, {})[j] = value
    return list(rows.values())


def rank(vectors, keys=None):
    """Rank of sparse vectors, or of their restriction to the given keys."""
    if keys is not None:
        keys = set(keys)
        vectors = [{k: v for k, v in vec.items() if k in keys} for vec in vectors]
    return len(_echelon(_rows(vectors)))


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
# polynomial matrices (entries: del-only Poly)


def _del_only(poly):
    """The arity-0 copy of a Poly that uses no lambda-variable."""
    if any(poly.uses_var(i) for i in range(1, poly.arity + 1)):
        raise ValueError("polynomial uses lambda-variables; not univariate")
    return poly.with_arity(0)


def _divmod_del(a, b):
    """(q, r) with a = q * b + r and deg r < deg b, for arity-0 Polys; the
    lead of b is inverted as a Fraction, as ``/`` makes an int a float."""
    degree = b.degree_in(0)
    inverse = Fraction(1, b.terms[(degree,)])
    quotient = Poly.zero(0)
    while a.degree_in(0) >= degree:
        top = a.degree_in(0)
        term = Poly(0, {(top - degree,): a.terms[(top,)] * inverse})
        quotient = quotient + term
        a = a - term * b
    return quotient, a


def _unimodular_reduce(matrix):
    """Reduce a matrix of del-only Polys by unimodular row operations.

    Column by column, a Euclidean sweep (``_divmod_del`` of every lower
    entry by the one of least degree, repeated) leaves the gcd of the
    column's remaining entries in the pivot row.  A nonzero constant pivot
    is scaled to 1 and cleared from every other row (Gauss-Jordan); the
    first column whose pivot is zero or not constant ends the reduction.
    The identity block rides along to the right of the rows, so it ends as
    the unimodular U on the left of U M.  Returns (rows, units): the rows
    [U M | U] as arity-0 Polys, and the number of leading unit pivots.
    An entry that uses a lambda-variable raises ValueError.
    """
    m = len(matrix)
    n = len(matrix[0]) if matrix else 0
    rows = [
        [_del_only(entry) for entry in row]
        + [Poly.const(int(k == i), 0) for k in range(m)]
        for i, row in enumerate(matrix)
    ]

    for col in range(min(m, n)):
        while True:
            live = [i for i in range(col, m) if rows[i][col]]
            if not live:
                return rows, col
            least = min(live, key=lambda i: rows[i][col].degree_in(0))
            rows[col], rows[least] = rows[least], rows[col]
            pivot = rows[col][col]
            if len(live) == 1:
                break
            for i in range(col + 1, m):
                if rows[i][col]:
                    quotient = _divmod_del(rows[i][col], pivot)[0]
                    rows[i] = [a - quotient * b for a, b in zip(rows[i], rows[col])]
        if pivot.degree_in(0):
            return rows, col
        unit = Fraction(1, pivot.terms[(0,)])
        rows[col] = [entry.scale(unit) for entry in rows[col]]
        for i in range(m):
            factor = rows[i][col]
            if i != col and factor:
                rows[i] = [a - factor * b for a, b in zip(rows[i], rows[col])]
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
    nonzero constant.  The entries of the inverse are arity-0 Polys.
    """
    n = len(matrix)
    rows, units = _unimodular_reduce(matrix)
    if units < n or any(len(row) != n for row in matrix):
        return None
    return [row[n:] for row in rows]
