from decimal import Decimal
from fractions import Fraction
from random import Random

import pytest
from hypothesis import given, settings, strategies as st

from nijconf import linalg
from nijconf.cohomology import adjoint_rep, solve_truncated
from nijconf.lca import RepTable
from nijconf.poly import Poly

F = Fraction


# -- test-only dense reference: the elimination the sparse one replaced ----


def _dense_rref(rows):
    rows = [list(map(Fraction, row)) for row in rows]
    if not rows:
        return rows, []
    ncols = len(rows[0])
    pivots = []
    r = 0
    for c in range(ncols):
        pivot_row = None
        for i in range(r, len(rows)):
            if rows[i][c]:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        inv = Fraction(1) / rows[r][c]
        rows[r] = [x * inv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                factor = rows[i][c]
                rows[i] = [a - factor * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return rows, pivots


def _dense_nullspace(rows, ncols):
    if not rows:
        return [[Fraction(i == j) for i in range(ncols)] for j in range(ncols)]
    reduced, pivots = _dense_rref(rows)
    basis = []
    for fc in [c for c in range(ncols) if c not in pivots]:
        vec = [Fraction(0)] * ncols
        vec[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            vec[pc] = -reduced[r][fc]
        basis.append(vec)
    return basis


def _dense_solve(rows, rhs, ncols):
    if not rows:
        return [Fraction(0)] * ncols
    augmented = [list(row) + [Fraction(b)] for row, b in zip(rows, rhs)]
    reduced, pivots = _dense_rref(augmented)
    if ncols in pivots:
        return None
    solution = [Fraction(0)] * ncols
    for r, pc in enumerate(pivots):
        solution[pc] = reduced[r][ncols]
    return solution


# -- test-only Q[del] references: the Smith form and the cofactor inverse
# -- that the unimodular reduction replaced, with a long division of their
# -- own ---------------------------------------------------------------


def _lead(p):
    return F(p.terms[(p.degree_in(0),)])


def _monic(p):
    return p.scale(1 / _lead(p)) if p else p


def _long_divide(a, b):
    """(q, r) with a = q * b + r and deg r < deg b, for del-only Polys."""
    quotient = Poly.zero(0)
    while a.degree_in(0) >= b.degree_in(0):
        step = Poly.del_(0) ** (a.degree_in(0) - b.degree_in(0))
        step = step.scale(_lead(a) / _lead(b))
        quotient, a = quotient + step, a - step * b
    return quotient, a


def _ugcd(a, b):
    while b:
        a, b = b, _long_divide(a, b)[1]
    return _monic(a)


def _smith_invariants(matrix):
    """Invariant factors of a matrix over Q[del] (monic, unit -> 1)."""
    m = [list(row) for row in matrix]
    if not m or not m[0]:
        return []
    rows, cols = len(m), len(m[0])
    invariants = []
    top = 0
    while top < min(rows, cols):
        best = None
        for i in range(top, rows):
            for j in range(top, cols):
                if m[i][j] and (
                    best is None
                    or m[i][j].degree_in(0) < m[best[0]][best[1]].degree_in(0)
                ):
                    best = (i, j)
        if best is None:
            break
        bi, bj = best
        m[top], m[bi] = m[bi], m[top]
        for row in m:
            row[top], row[bj] = row[bj], row[top]
        dirty = True
        while dirty:
            dirty = False
            pivot = m[top][top]
            for i in range(top + 1, rows):
                if m[i][top]:
                    q, rem = _long_divide(m[i][top], pivot)
                    m[i] = [m[i][j] - q * m[top][j] for j in range(cols)]
                    if rem:
                        m[top], m[i] = m[i], m[top]
                        dirty = True
                        break
            if dirty:
                continue
            for j in range(top + 1, cols):
                if m[top][j]:
                    q, rem = _long_divide(m[top][j], pivot)
                    for i in range(rows):
                        m[i][j] = m[i][j] - q * m[i][top]
                    if rem:
                        for i in range(rows):
                            m[i][top], m[i][j] = m[i][j], m[i][top]
                        dirty = True
                        break
        invariants.append(_monic(m[top][top]))
        top += 1
    changed = True
    while changed:
        changed = False
        for i in range(len(invariants) - 1):
            a, b = invariants[i], invariants[i + 1]
            if _long_divide(b, a)[1]:
                g = _ugcd(a, b)
                invariants[i] = g
                invariants[i + 1] = _monic(_long_divide(a * b, g)[0])
                changed = True
    return invariants


def _units_only(matrix, count):
    """``count`` invariant factors, all of them units."""
    invariants = _smith_invariants(matrix)
    return len(invariants) == count and all(f.degree_in(0) == 0 for f in invariants)


def _poly_det(matrix):
    """Determinant of a square matrix of del-only Polys (Bareiss)."""
    m = [list(row) for row in matrix]
    n = len(m)
    if n == 0:
        return Poly.one(0)
    sign = 1
    prev = Poly.one(0)
    for k in range(n - 1):
        if not m[k][k]:
            swap = next((i for i in range(k + 1, n) if m[i][k]), None)
            if swap is None:
                return Poly.zero(0)
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                num = m[i][j] * m[k][k] - m[i][k] * m[k][j]
                m[i][j], rem = _long_divide(num, prev)
                assert not rem, "Bareiss exact division failed"
            m[i][k] = Poly.zero(0)
        prev = m[k][k]
    det = m[n - 1][n - 1]
    return -det if sign < 0 else det


def _cofactor_inverse(matrix):
    """Adjugate over a constant determinant; None when it is not one."""
    n = len(matrix)
    det = _poly_det(matrix)
    if det.degree_in(0) != 0:
        return None
    scale = 1 / _lead(det)
    inverse = []
    for i in range(n):
        row = []
        for j in range(n):
            minor = [
                [matrix[r][c] for c in range(n) if c != i]
                for r in range(n)
                if r != j
            ]
            cof = _poly_det(minor) if minor else Poly.one(0)
            if (i + j) % 2:
                cof = -cof
            row.append(cof.scale(scale))
        inverse.append(row)
    return inverse


def _dense(columns, keys):
    """The rows (one per key) of the matrix with these sparse columns."""
    return [[F(col.get(key, 0)) for col in columns] for key in keys]


def _columns(*dense_columns):
    return [{i: F(x) for i, x in enumerate(col) if x} for col in dense_columns]


# -- the column API -----------------------------------------------------


def test_rank_and_nullspace():
    # columns of the rows [1 2 3], [2 4 6], [0 1 1]
    cols = _columns([1, 2, 0], [2, 4, 1], [3, 6, 1])
    assert linalg.rank(cols) == 2
    null = linalg.nullspace(cols)
    assert len(null) == 1
    v = null[0]
    for key in range(3):
        assert sum(c * col.get(key, 0) for c, col in zip(v, cols)) == 0


def test_solve_consistent_and_inconsistent():
    cols = _columns([1, 1], [1, -1])
    assert linalg.solve(cols, {0: F(3), 1: F(1)}) == [F(2), F(1)]
    cols2 = _columns([1, 2], [1, 2])
    assert linalg.solve(cols2, {0: F(1), 1: F(3)}) is None


def test_column_space_membership():
    cols = _columns([1, 0, 1], [0, 1, 1])
    assert linalg.solve(cols, {0: F(2), 1: F(3), 2: F(5)}) is not None
    assert linalg.solve(cols, {2: F(1)}) is None
    assert linalg.solve([], {}) == []
    assert linalg.solve([], {0: F(1)}) is None


def test_rank_restricted_to_keys():
    cols = [{"x": F(1), "y": F(1)}, {"x": F(1)}, {"z": F(2)}]
    assert linalg.rank(cols) == 3
    assert linalg.rank(cols, keys={"x", "y"}) == 2
    assert linalg.rank(cols, keys={"x"}) == 1
    assert linalg.rank(cols, keys=()) == 0


def test_nullspace_negates_only_stored_entries(monkeypatch):
    # column 3 repeats column 0: the one free column, held by one reduced row
    # of three; its kernel vector reads that entry and negates nothing else
    columns = [{0: 1}, {1: 2}, {2: 3}, {0: 1}]
    negated = []
    neg = Fraction.__neg__
    monkeypatch.setattr(Fraction, "__neg__", lambda x: negated.append(x) or neg(x))
    assert linalg.nullspace(columns) == [[F(-1), F(0), F(0), F(1)]]
    assert negated == [F(1)]


@settings(max_examples=30, deadline=None)
@given(
    st.lists(
        st.lists(st.integers(-5, 5), min_size=3, max_size=3),
        min_size=1,
        max_size=4,
    )
)
def test_nullspace_vectors_are_in_the_kernel(raw):
    # the rows of ``raw`` are the coordinates; its columns are the vectors
    cols = _columns(*zip(*raw))
    for v in linalg.nullspace(cols):
        for row in raw:
            assert sum(a * b for a, b in zip(row, v)) == 0
    assert linalg.rank(cols) + len(linalg.nullspace(cols)) == 3


_KEYS = [(k, m) for k in range(3) for m in range(3)]
_sparse_vector = st.dictionaries(
    st.sampled_from(_KEYS),
    st.fractions(min_value=-3, max_value=3, max_denominator=3),
    max_size=5,
)


@settings(max_examples=80, deadline=None)
@given(st.lists(_sparse_vector, max_size=7), _sparse_vector, st.booleans())
def test_sparse_elimination_matches_dense_reference(columns, target, in_span):
    # empty columns, zero entries and an empty target all occur
    if in_span:
        target = {}
        for j, col in enumerate(columns):
            for key, v in col.items():
                target[key] = target.get(key, 0) + (j - 2) * v
    keys = sorted({k for col in columns + [target] for k in col})
    rows = _dense(columns, keys)
    ncols = len(columns)
    assert linalg.rank(columns) == len(_dense_rref(rows)[1])
    assert linalg.nullspace(columns) == _dense_nullspace(rows, ncols)
    expected = _dense_solve(rows, [F(target.get(k, 0)) for k in keys], ncols)
    assert linalg.solve(columns, target) == expected
    if in_span:
        assert expected is not None
    half = keys[::2]
    assert linalg.rank(columns, keys=half) == len(_dense_rref(_dense(columns, half))[1])


def _entry(rng):
    """A nonzero rational with numerator up to 10^6 and denominator up to 12,
    an int when the denominator is 1."""
    value = F(rng.choice([-1, 1]) * rng.randint(1, 10**6), rng.randint(1, 12))
    return value.numerator if value.denominator == 1 else value


def _seeded_matrix(rng):
    """Up to 40 x 30 rows: small integer combinations of at most
    min(rows, columns) generators, so the rank is at most their number and
    mostly deficient, with zero and duplicate rows."""
    nrows, ncols = rng.randint(1, 40), rng.randint(1, 30)
    density = rng.choice([0.1, 0.3, 1.0])
    generators = [
        [_entry(rng) if rng.random() < density else 0 for _ in range(ncols)]
        for _ in range(rng.randint(0, min(nrows, ncols)))
    ]
    rows = []
    for _ in range(nrows):
        kind = rng.random()
        if kind < 0.15 or not generators:
            rows.append([0] * ncols)
        elif kind < 0.3 and rows:
            rows.append(list(rng.choice(rows)))
        else:
            row = [0] * ncols
            for generator in rng.sample(generators, rng.randint(1, len(generators))):
                coeff = rng.randint(-3, 3)
                row = [a + coeff * b for a, b in zip(row, generator)]
            rows.append([v.numerator if v.denominator == 1 else v for v in map(F, row)])
    return rows


def _sparse(dense_rows):
    return [{c: v for c, v in enumerate(row) if v} for row in dense_rows]


def _all_fractions(values):
    return all(type(v) is F for v in values)


def test_elimination_matches_dense_reference_on_seeded_matrices():
    rng = Random(17)
    for _ in range(30):
        rows = _seeded_matrix(rng)
        nrows, ncols = len(rows), len(rows[0])
        dense, pivots = _dense_rref(rows)
        sparse = [{c: v for c, v in enumerate(row) if v or rng.random() < 0.1} for row in rows]
        reduced, got_pivots = linalg.rref(sparse)
        assert (reduced, got_pivots) == (_sparse(dense[: len(pivots)]), pivots)
        assert _all_fractions(v for row in reduced for v in row.values())
        columns = [{i: row[j] for i, row in enumerate(rows) if row[j]} for j in range(ncols)]
        assert linalg.rank(columns) == len(pivots)
        kernel = linalg.nullspace(columns)
        assert kernel == _dense_nullspace(rows, ncols)
        assert _all_fractions(v for vec in kernel for v in vec)
        for in_span in (True, False):
            if in_span:
                x = [rng.randint(-2, 2) for _ in range(ncols)]
                rhs = [sum(a * b for a, b in zip(row, x)) for row in rows]
            else:
                rhs = [_entry(rng) if rng.random() < 0.5 else 0 for _ in range(nrows)]
            solution = linalg.solve(columns, {i: b for i, b in enumerate(rhs) if b})
            assert solution == _dense_solve(rows, rhs, ncols)
            if in_span:
                assert _all_fractions(solution)


def test_elimination_matches_dense_reference_on_the_solver_slices(
    monkeypatch, sl2, vir, central_line
):
    # the three truncated slices of the benchmark's cohomology workload: every
    # matrix the solver hands to the elimination, reduced both ways
    recorded = []
    rref = linalg.rref

    def recording_rref(rows):
        rows = list(rows)
        recorded.append(rows)
        return rref(rows)

    monkeypatch.setattr(linalg, "rref", recording_rref)
    slices = [
        (adjoint_rep(sl2), 2, 2, [72, 23, 23, 0]),
        (RepTable(sl2, central_line), 2, 6, [30, 4, 3, 1]),
        (adjoint_rep(vir), 3, 6, [7, 5, 5, 0]),
    ]
    for rep, degree, bound, dims in slices:
        result = solve_truncated(rep, degree, bound)
        keys = ("cochain_dim", "cocycle_dim", "coboundary_dim", "h_dim")
        assert [result[key] for key in keys] == dims
    # the matrices with rows: the orbit kernels of a degree-1 slice, which
    # are built without an elimination, had none
    assert sum(1 for rows in recorded if rows) > 10
    for rows in recorded:
        ncols = 1 + max((c for row in rows for c in row), default=-1)
        dense, pivots = _dense_rref([[row.get(c, 0) for c in range(ncols)] for row in rows])
        reduced, got_pivots = rref(rows)
        assert (reduced, got_pivots) == (_sparse(dense[: len(pivots)]), pivots)
        assert _all_fractions(v for row in reduced for v in row.values())


def test_rref_builds_one_fraction_per_output_entry(monkeypatch):
    # an all-integer matrix of rank 3 with a duplicate and a zero row: the
    # elimination runs over the integers, and only the result holds Fractions
    rows = [
        {0: 2, 1: 4, 2: 6, 4: 1},
        {0: 3, 1: 5, 2: 7, 3: 1},
        {0: 3, 1: 5, 2: 7, 3: 1},
        {},
        {1: 1, 2: 2, 3: 9, 4: -4},
        {0: 5, 1: 9, 2: 13, 3: 1, 4: 1},
    ]
    made = []
    new = Fraction.__new__
    monkeypatch.setattr(
        linalg.Fraction, "__new__", lambda cls, *a, **k: made.append(a) or new(cls, *a, **k)
    )
    reduced, pivots = linalg.rref(rows)
    by_rref = len(made)
    columns = [{i: row[c] for i, row in enumerate(rows) if c in row} for c in range(5)]
    assert linalg.rank(columns) == 3
    monkeypatch.undo()
    assert pivots == [0, 1, 3]
    assert 0 < by_rref <= sum(len(row) for row in reduced)
    # rank counts the pivots of the forward elimination, which builds none
    assert len(made) == by_rref


@pytest.mark.parametrize("value", [0.5, 2.0, 0.0, Decimal(1), "1", 1j])
def test_elimination_refuses_entries_that_are_not_int_or_fraction(value):
    with pytest.raises(TypeError):
        linalg.rref([{0: 1}, {0: 2, 1: value}])
    with pytest.raises(TypeError):
        linalg.rank([{0: F(1, 2)}, {1: value}])
    with pytest.raises(TypeError):
        linalg.solve([{0: 1}], {0: value})


def test_rank_matches_sympy():
    sympy = pytest.importorskip("sympy")
    rng = Random(11)
    for _ in range(40):
        columns = [
            {
                rng.choice(_KEYS): F(rng.randint(-4, 4), rng.randint(1, 3))
                for _ in range(rng.randint(0, 4))
            }
            for _ in range(rng.randint(0, 8))
        ]
        keys = sorted({k for col in columns for k in col})
        expected = sympy.Matrix(_dense(columns, keys)).rank() if keys and columns else 0
        assert linalg.rank(columns) == expected


def _dpoly(*coeffs):
    return Poly(0, {(k,): F(c) for k, c in enumerate(coeffs) if c})


def test_poly_rank_and_smith():
    d = _dpoly(0, 1)  # the generator del
    mat = [[_dpoly(1), d], [Poly.zero(0), d]]
    inv = _smith_invariants(mat)
    # two invariant factors: rank 2 over Q(del); the second one is del, so
    # the cokernel has torsion
    assert inv == [Poly.one(0), d]
    assert not linalg.is_split_injection(mat)


def test_unimodular_inverse_round_trip():
    d = _dpoly(0, 1)
    mat = [[_dpoly(1), d], [Poly.zero(0), _dpoly(1)]]
    inv = linalg.poly_unimodular_inverse(mat)
    assert inv is not None
    # product is the identity
    for i in range(2):
        for j in range(2):
            acc = Poly.zero(0)
            for k in range(2):
                acc = acc + mat[i][k] * inv[k][j]
            assert acc == (Poly.one(0) if i == j else Poly.zero(0))


def test_unimodular_inverse_divides_exactly():
    # Poly stores integral coefficients as ints; dividing the pivot 3 as an
    # int would give the float nearest -1/3
    d = _dpoly(0, 1)
    inv = linalg.poly_unimodular_inverse([[_dpoly(4), _dpoly(4)], [Poly.zero(0), _dpoly(3)]])
    assert inv == [[_dpoly(F(1, 4)), _dpoly(F(-1, 3))], [Poly.zero(0), _dpoly(F(1, 3))]]
    inv = linalg.poly_unimodular_inverse([[_dpoly(2), d], [Poly.zero(0), _dpoly(3)]])
    assert inv == [[_dpoly(F(1, 2)), _dpoly(0, F(-1, 6))], [Poly.zero(0), _dpoly(F(1, 3))]]
    for entry in (e for row in inv for e in row):
        assert all(type(c) in (int, F) for c in entry.terms.values())


def test_non_unimodular_has_no_inverse():
    d = _dpoly(0, 1)
    assert linalg.poly_unimodular_inverse([[d]]) is None
    assert linalg.poly_unimodular_inverse([[_dpoly(2)]]) is not None


def test_split_surjection():
    d = _dpoly(0, 1)
    assert linalg.is_split_surjection([[_dpoly(1), d]])
    assert not linalg.is_split_surjection([[d, d * d]])


def test_q_del_routines_refuse_lambda_variables():
    lam = Poly.lam(1, 1)
    for matrix in ([[lam]], [[Poly.one(1), lam]], [[Poly.del_(1)], [lam]]):
        with pytest.raises(ValueError):
            linalg.is_split_injection(matrix)
        with pytest.raises(ValueError):
            linalg.is_split_surjection(matrix)
        with pytest.raises(ValueError):
            linalg.poly_unimodular_inverse(matrix)


def test_q_del_routines_read_del_only_entries_at_any_arity():
    d = _dpoly(0, 1)
    mat = [[_dpoly(2), d], [Poly.zero(0), _dpoly(1, 3)]]
    for arity in (1, 2):
        lifted = [[entry.with_arity(arity) for entry in row] for row in mat]
        assert linalg.is_split_injection(lifted) == linalg.is_split_injection(mat)
        assert linalg.is_split_surjection(lifted) == linalg.is_split_surjection(mat)
        assert linalg.poly_unimodular_inverse(lifted) is None
        unimodular = [[_dpoly(2), d], [Poly.zero(0), _dpoly(3)]]
        lifted = [[entry.with_arity(arity) for entry in row] for row in unimodular]
        inverse = linalg.poly_unimodular_inverse(lifted)
        assert inverse == linalg.poly_unimodular_inverse(unimodular)
        assert all(entry.arity == 0 for row in inverse for entry in row)


_rational = st.one_of(
    st.integers(-6, 6), st.fractions(min_value=-4, max_value=4, max_denominator=5)
)


@settings(max_examples=200, deadline=None)
@given(st.lists(_rational, max_size=6), st.lists(_rational, min_size=1, max_size=4))
def test_del_only_division_is_exact(a_coeffs, b_coeffs):
    a, b = _dpoly(*a_coeffs), _dpoly(*b_coeffs)
    if not b:
        b = _dpoly(*b_coeffs[:-1], 3)
    q, r = linalg._divmod_del(a, b)
    assert a == q * b + r
    assert r.degree_in(0) < b.degree_in(0)
    assert q == _long_divide(a, b)[0]
    for p in (q, r):
        assert all(type(c) in (int, F) for c in p.terms.values())


_coeffs = st.lists(st.integers(-2, 2), max_size=3)


@st.composite
def _qdel_matrices(draw):
    """Random del-only matrices up to 4 x 4 (empty shapes included), or
    slices of a product of elementary unimodular matrices."""
    nrows, ncols = draw(st.integers(0, 4)), draw(st.integers(0, 4))
    if draw(st.booleans()):
        return [[_dpoly(*draw(_coeffs)) for _ in range(ncols)] for _ in range(nrows)]
    n = max(nrows, ncols)
    mat = [[_dpoly(int(i == j)) for j in range(n)] for i in range(n)]
    for _ in range(draw(st.integers(0, 6)) if n else 0):
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        if i == j:
            unit = draw(st.sampled_from([-2, -1, F(1, 2), 3]))
            mat[i] = [entry.scale(unit) for entry in mat[i]]
        elif draw(st.booleans()):
            mat[i], mat[j] = mat[j], mat[i]
        else:
            factor = _dpoly(*draw(_coeffs))
            mat[i] = [a + factor * b for a, b in zip(mat[i], mat[j])]
    # all rows of some columns (split injective) or some rows (split
    # surjective) of a unimodular matrix
    return [row[:ncols] for row in mat[:nrows]]


@settings(max_examples=200, deadline=None)
@given(_qdel_matrices())
def test_unimodular_reduction_matches_smith_and_cofactors(matrix):
    nrows = len(matrix)
    ncols = len(matrix[0]) if matrix else 0
    assert linalg.is_split_injection(matrix) == _units_only(matrix, ncols)
    assert linalg.is_split_surjection(matrix) == _units_only(matrix, nrows)
    inverse = linalg.poly_unimodular_inverse(matrix)
    if nrows == ncols:
        assert inverse == _cofactor_inverse(matrix)
    else:
        assert inverse is None
