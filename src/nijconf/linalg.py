"""Exact linear algebra over Q and over Q[del].

Two layers:

* sparse Gaussian elimination over ``Fraction`` (row reduction, rank,
  kernel bases, linear solving) on the sparse vectors the callers build --
  the one elimination behind the truncated cocycle solver, the
  extensibility test and the tau/eta solvers;
* univariate polynomial matrices over Q[del] (determinants, Smith invariant
  factors, inverses of unimodular matrices) -- used to validate extension
  diagrams and automorphisms exactly rather than over the fraction field.
"""

from __future__ import annotations

from fractions import Fraction

from .poly import Poly

# ---------------------------------------------------------------------------
# sparse rational vectors
#
# A vector is a dict {key: Fraction}; zero entries are ignored.  The callers'
# vectors are the columns of a matrix whose rows are indexed by the keys, so
# the keys only need to be hashable.  Rows are sparse dicts too, indexed by
# column position.


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
    entry is 1 and the pivot entries are read off the reduced echelon form.
    """
    n = len(columns)
    reduced, pivots = rref(_rows(columns))
    pivot_set = set(pivots)
    basis = []
    for free in range(n):
        if free in pivot_set:
            continue
        vec = [Fraction(0)] * n
        vec[free] = Fraction(1)
        for row, pc in zip(reduced, pivots):
            vec[pc] = -row.get(free, Fraction(0))
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
    """Convert a del-only Poly to a coefficient tuple."""
    if any(poly.uses_var(i) for i in range(1, poly.arity + 1)):
        raise ValueError("polynomial uses lambda-variables; not univariate")
    degree = poly.degree_in(0)
    coeffs = [Fraction(0)] * (degree + 1 if degree >= 0 else 0)
    for key, coeff in poly.terms.items():
        coeffs[key[0]] = coeff
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


def ugcd(a, b):
    a, b = utrim(a), utrim(b)
    while b:
        a, b = b, udivmod(a, b)[1]
    if a:
        inv = Fraction(1) / a[-1]
        a = tuple(c * inv for c in a)
    return a


# ---------------------------------------------------------------------------
# polynomial matrices (entries: del-only Poly)


def poly_matrix_to_u(matrix):
    return [[upoly_from(entry) for entry in row] for row in matrix]


def smith_invariants(matrix):
    """Invariant factors of a matrix over Q[del] (monic, unit -> (1,))."""
    m = poly_matrix_to_u(matrix)
    if not m or not m[0]:
        return []
    rows, cols = len(m), len(m[0])
    invariants = []
    top = 0
    while top < min(rows, cols):
        # find the nonzero entry of minimal degree in the working block
        best = None
        for i in range(top, rows):
            for j in range(top, cols):
                if m[i][j] and (best is None or len(m[i][j]) < len(m[best[0]][best[1]])):
                    best = (i, j)
        if best is None:
            break
        bi, bj = best
        m[top], m[bi] = m[bi], m[top]
        for row in m:
            row[top], row[bj] = row[bj], row[top]
        # clear the pivot row and column; repeat until clean
        dirty = True
        while dirty:
            dirty = False
            pivot = m[top][top]
            for i in range(top + 1, rows):
                if m[i][top]:
                    q, rem = udivmod(m[i][top], pivot)
                    m[i] = [
                        uadd(m[i][j], uneg(umul(q, m[top][j]))) for j in range(cols)
                    ]
                    if rem:
                        m[top], m[i] = m[i], m[top]
                        dirty = True
                        break
            if dirty:
                continue
            for j in range(top + 1, cols):
                if m[top][j]:
                    q, rem = udivmod(m[top][j], pivot)
                    for i in range(rows):
                        m[i][j] = uadd(m[i][j], uneg(umul(q, m[i][top])))
                    if rem:
                        for i in range(rows):
                            m[i][top], m[i][j] = m[i][j], m[i][top]
                        dirty = True
                        break
        pivot = m[top][top]
        inv = Fraction(1) / pivot[-1]
        invariants.append(tuple(c * inv for c in pivot))
        top += 1
    # enforce divisibility chain
    changed = True
    while changed:
        changed = False
        for i in range(len(invariants) - 1):
            a, b = invariants[i], invariants[i + 1]
            if udivmod(b, a)[1]:
                g = ugcd(a, b)
                lcm = udivmod(umul(a, b), g)[0]
                inv = Fraction(1) / lcm[-1] if lcm else Fraction(1)
                invariants[i] = g
                invariants[i + 1] = tuple(c * inv for c in lcm)
                changed = True
    return invariants


def is_split_injection(matrix):
    """Columns span a free direct summand: all invariant factors are units."""
    m = [row[:] for row in matrix]
    if not m or not m[0]:
        return not m or not m[0]
    ncols = len(m[0])
    invariants = smith_invariants(m)
    return len(invariants) == ncols and all(len(f) == 1 for f in invariants)


def is_split_surjection(matrix):
    """Rows define a surjection Q[del]^cols -> Q[del]^rows."""
    if not matrix:
        return True
    nrows = len(matrix)
    invariants = smith_invariants([row[:] for row in matrix])
    return len(invariants) == nrows and all(len(f) == 1 for f in invariants)


def poly_det(matrix):
    """Determinant of a square matrix of del-only Polys (Bareiss)."""
    m = poly_matrix_to_u(matrix)
    n = len(m)
    if n == 0:
        return Poly.one(0)
    sign = 1
    prev = (Fraction(1),)
    for k in range(n - 1):
        if not m[k][k]:
            swap = next((i for i in range(k + 1, n) if m[i][k]), None)
            if swap is None:
                return Poly.zero(0)
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                num = uadd(umul(m[i][j], m[k][k]), uneg(umul(m[i][k], m[k][j])))
                m[i][j], rem = udivmod(num, prev)
                assert not rem, "Bareiss exact division failed"
            m[i][k] = ()
        prev = m[k][k]
    det = m[n - 1][n - 1]
    if sign < 0:
        det = uneg(det)
    return upoly_to(det)


def poly_unimodular_inverse(matrix):
    """Inverse of a square Q[del]-matrix with unit (constant) determinant.

    Returns None when the determinant is not a nonzero constant.
    """
    n = len(matrix)
    det = poly_det(matrix)
    u = upoly_from(det)
    if len(u) != 1:
        return None
    scale = Fraction(1) / u[0]
    inverse = []
    for i in range(n):
        row = []
        for j in range(n):
            minor = [
                [matrix[r][c] for c in range(n) if c != i]
                for r in range(n)
                if r != j
            ]
            cof = poly_det(minor) if minor else Poly.one(0)
            if (i + j) % 2:
                cof = -cof
            row.append(cof.scale(scale))
        inverse.append(row)
    return inverse
