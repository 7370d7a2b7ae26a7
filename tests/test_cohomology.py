import gc
import weakref
from fractions import Fraction
from itertools import product
from random import Random

import pytest

import reference_eval
from nijconf.cohomology import (
    MAX_DEGREE,
    MAX_SLICE_CELLS,
    MAX_SOLVER_BOUND,
    Cochain,
    _Coboundary,
    _Insertion,
    _Orbit,
    _Plan,
    _Xi,
    _comparison,
    _differential,
    _insertion,
    _pulled_back,
    _substitutions,
    CochainPair,
    adjoint_rep,
    apply_dN,
    apply_dNL,
    apply_dNM,
    apply_delta,
    bracket_cochain,
    _cells,
    _lower,
    _monomials,
    _perm_sign,
    _max_degree,
    _refuse_large_slices,
    _slice,
    _slice_cells,
    check_cochain_skew,
    cochain_space,
    cup_product,
    circ_insert,
    eval_cochain,
    fn_bracket,
    fn_bracket_of_maps,
    image_contains,
    nr_bracket,
    phi_chain_check,
    random_cochain,
    skew_symmetrize,
    solve_truncated,
    xi_map,
)
from nijconf import linalg
from nijconf.errors import (
    DegreeOverflowError,
    ModuleMismatchError,
    PreconditionError,
    UnsupportedModeError,
)
from nijconf.lca import (
    FREE,
    LCA,
    Elem,
    ConfLinMap,
    FreeModule,
    RepTable,
    _evaluate,
    _output_tuples,
    check_lca,
    eval_bracket,
    sesqui_eval,
)
from nijconf.nijenhuis import (
    NijenhuisLCA,
    NijenhuisRep,
    check_nij_representation,
    check_nijenhuis,
    deformed_table,
)
from nijconf.poly import Poly

from conftest import DEL, LAM, _holds, _plan_keys, count_calls, make_sl2, make_vir
from test_eval_reference import _reps


def _combine(coeffs, cochains):
    """The rational combination sum(coeff * f) of cochains of one shape."""
    values = {}
    for coeff, f in zip(coeffs, cochains):
        if coeff:
            for key, value in f.values.items():
                term = value.scale(coeff)
                values[key] = values[key] + term if key in values else term
    return Cochain(cochains[0].degree, cochains[0].rep, values)


@pytest.fixture(scope="module")
def ad(sl2):
    return adjoint_rep(sl2)


def test_random_cochains_are_skew(ad):
    rng = Random(3)
    for n in (1, 2):
        f = random_cochain(ad, n, rng)
        assert check_cochain_skew(f).passed


def test_skew_symmetrize_is_a_projection(ad):
    rng = Random(13)
    f = random_cochain(ad, 2, rng)
    assert skew_symmetrize(f) == f
    raw = Cochain(2, ad)
    raw.set_value((0, 1), ad.module.basis_elem(1).with_arity(1))
    sym = skew_symmetrize(raw)
    assert check_cochain_skew(sym).passed
    assert skew_symmetrize(sym) == sym


def test_structure_cochain_pairs_to_coboundary(ad, sl2):
    # [m_c, f] = (-1)^{n-1} delta f pins the insertion-bracket convention
    mc = bracket_cochain(sl2)
    rng = Random(7)
    for n in (1, 2):
        f = random_cochain(ad, n, rng)
        assert nr_bracket(mc, f) == apply_delta(f).scale((-1) ** (n - 1))
    assert nr_bracket(mc, mc).is_zero()


def test_degree_one_fn_expansion(sl2, ad):
    J = ConfLinMap.diagonal(sl2.module, [1, 2, 5])
    K = ConfLinMap(
        sl2.module,
        sl2.module,
        [[0, 1, 0], [3, 0, 0], [0, 0, -1]],
    )
    got = fn_bracket_of_maps(sl2, J, K)
    m = sl2.module
    for i in range(3):
        for j in range(3):
            p, q = m.basis_elem(i), m.basis_elem(j)
            br = eval_bracket(sl2, p, q)
            expect = (
                eval_bracket(sl2, J.apply(p), K.apply(q))
                + eval_bracket(sl2, K.apply(p), J.apply(q))
                + J.apply(K.apply(br))
                + K.apply(J.apply(br))
                - K.apply(
                    eval_bracket(sl2, J.apply(p), q)
                    + eval_bracket(sl2, p, J.apply(q))
                )
                - J.apply(
                    eval_bracket(sl2, K.apply(p), q)
                    + eval_bracket(sl2, p, K.apply(q))
                )
            )
            assert got.value((i, j)) == expect


def test_maurer_cartan_characterizes_nijenhuis(sl2):
    m = sl2.module
    candidates = {
        "zero": ConfLinMap.zero(m, m),
        "identity": ConfLinMap.identity(m),
        "projection": ConfLinMap.diagonal(m, [1, 1, 0]),
        "generic-diagonal": ConfLinMap.diagonal(m, [1, 2, 3]),
    }
    for name, op in candidates.items():
        mc_zero = fn_bracket_of_maps(sl2, op, op).is_zero()
        assert mc_zero == check_nijenhuis(sl2, op).passed, name


def test_degree_zero_products_keep_their_value(vir, sl2, ad, proj_p):
    # a degree-0 value has no lambda for the dagger rule to eliminate
    vir_ad = adjoint_rep(vir)
    a = Cochain(0, vir_ad)
    a.set_value((), vir.module.basis_elem(0))
    assert {k: repr(v) for k, v in cup_product(a, a).values.items()} == {(): "(del)L"}
    fn_bracket(a, a)
    e = Cochain(0, ad)
    e.set_value((), sl2.module.basis_elem(0))
    inserted = circ_insert(Cochain.from_map(proj_p, ad), e)
    assert inserted.value(()) == proj_p.apply(sl2.module.basis_elem(0))


def test_coboundary_compatibilities(sl2, ad, proj_p):
    rng = Random(11)
    J = ConfLinMap.diagonal(sl2.module, [1, 2, 5])
    K = ConfLinMap(sl2.module, sl2.module, [[0, 1, 0], [3, 0, 0], [0, 0, -1]])
    cJ, cK = Cochain.from_map(J, ad), Cochain.from_map(K, ad)
    assert apply_delta(fn_bracket(cJ, cK)) == nr_bracket(
        apply_delta(cJ), apply_delta(cK)
    )
    cP = Cochain.from_map(proj_p, ad)
    for n in (1, 2):
        f = random_cochain(ad, n, rng)
        assert apply_dN(f, proj_p) == fn_bracket(cP, f)


def test_differentials_square_to_zero(ad, proj_p):
    rng = Random(23)
    for n in (1, 2):
        f = random_cochain(ad, n, rng)
        assert apply_delta(apply_delta(f)).is_zero()
        assert apply_dN(apply_dN(f, proj_p), proj_p).is_zero()
        g = random_cochain(ad, n - 1, rng) if n >= 2 else None
        pair = CochainPair(f, g)
        assert apply_dNL(apply_dNL(pair, proj_p, proj_p), proj_p, proj_p).is_zero()


def test_a_missing_second_component_is_read_as_zero(ad, proj_p):
    # d(f) = (delta f, (-1)^n xi f) at every degree n, so d squares to zero
    # on a pair without g, and (f) and (f, 0) have one image
    rng = Random(83)
    for n in range(3):
        for _ in range(2):
            f = random_cochain(ad, n, rng, max_degree=1)
            image = apply_dNL(CochainPair(f), proj_p, proj_p)
            assert not image.g.is_zero()
            assert apply_dNL(image, proj_p, proj_p).is_zero()
            assert image.g == xi_map(f, proj_p, proj_p).scale((-1) ** n)
            if n:
                zero = CochainPair(f, Cochain(n - 1, ad))
                with_zero = apply_dNL(zero, proj_p, proj_p)
                assert (with_zero.f, with_zero.g) == (image.f, image.g)


def test_xi_intertwines_the_differentials(ad, proj_p):
    rng = Random(31)
    for n in (1, 2):
        f = random_cochain(ad, n, rng)
        lhs = apply_dNM(xi_map(f, proj_p, proj_p), proj_p, proj_p)
        rhs = xi_map(apply_delta(f), proj_p, proj_p)
        assert lhs == rhs


def test_xi_intertwines_the_differentials_of_every_nijenhuis_representation():
    # the cases are those where N is Nijenhuis and (rep, N_M) a Nijenhuis
    # representation, found by the checks; the shear on sl2 is not
    # Nijenhuis, and there the law fails
    rng = Random(83)
    selected = []
    for name, rep, n_op, n_m in _reps():
        nlca = NijenhuisLCA.raw(rep.algebra, n_op)
        if not (
            check_nijenhuis(rep.algebra, n_op).passed
            and check_nij_representation(nlca, NijenhuisRep(rep, n_m)).passed
        ):
            continue
        selected.append(name)
        for n in range(4):
            # a nonzero combination of a skew basis: on a rank-1 algebra a
            # skew n-cochain needs entries of degree n
            basis = cochain_space(rep, n, max(n, 1))
            f = _combine([rng.choice([-2, -1, 1, 3]) for _ in basis], basis)
            lhs = apply_dNM(xi_map(f, n_op, n_m), n_op, n_m)
            assert lhs == xi_map(apply_delta(f), n_op, n_m), (name, n)
    assert selected == ["sl2-line", "vir-adjoint", "vir-weight-2"]
    name, rep, shear, _ = _reps()[0]
    assert name == "sl2-adjoint" and not check_nijenhuis(rep.algebra, shear).passed
    f = random_cochain(rep, 1, rng, max_degree=1)
    lhs = apply_dNM(xi_map(f, shear, shear), shear, shear)
    assert lhs != xi_map(apply_delta(f), shear, shear)


def test_phi_chain_map(ad, proj_p):
    rng = Random(37)
    for n in (1, 2):
        assert phi_chain_check(random_cochain(ad, n, rng), proj_p).passed
    # on a bracket failing Jacobi the intertwining breaks, with a witness
    m = FreeModule(["L"])
    v3 = LCA(m)
    v3.set_bracket(0, 0, [DEL + LAM.scale(3)])
    f = random_cochain(adjoint_rep(v3), 1, Random(5), max_degree=1)
    assert phi_chain_check(f, ConfLinMap.identity(m)).lines() == [
        "intertwine: fail at=0,0,0 residual=[(10*del^2*lam1 - 10*del^2*lam2"
        " - 5*del*lam1^2 - 5*del*lam1*lam2 - 15*lam1^3 - 45*lam1^2*lam2)L]"
    ]


def test_graded_antisymmetry(ad):
    rng = Random(5)
    f1 = random_cochain(ad, 1, rng)
    f2 = random_cochain(ad, 2, rng)
    g1 = random_cochain(ad, 1, rng)
    for a, b, m, n in [(f1, g1, 1, 1), (f1, f2, 1, 2)]:
        assert fn_bracket(a, b) == fn_bracket(b, a).scale(-((-1) ** (m * n)))
        assert nr_bracket(a, b) == nr_bracket(b, a).scale(
            -((-1) ** ((m - 1) * (n - 1)))
        )


def test_central_charge_slice(vir, central_line):
    rep = RepTable(vir, central_line)
    res = solve_truncated(rep, 2, 3)
    assert res["cochain_dim"] == 2
    assert res["cocycle_dim"] == 2
    assert res["coboundary_dim"] == 1
    assert res["h_dim"] == 1
    res1 = solve_truncated(rep, 2, 1)
    assert res1["h_dim"] == 0


def test_central_charge_slice_hand_solved(vir, central_line):
    # cochains are odd polynomials in lam of degree <= 3: a lam + b lam^3.
    # The coboundary of the 1-cochain c(L) = u c is (u del + 2 u lam)c
    # restricted to the evaluation module, i.e. 2u lam; so lam spans the
    # coboundaries and lam^3 survives in cohomology.
    rep = RepTable(vir, central_line)
    res = solve_truncated(rep, 2, 3)
    span = [_combine(combo, cochain_space(rep, 2, 3)) for combo in res["kernel"]]
    assert len(span) == 2
    lam_only = Cochain(2, rep)
    lam_only.set_value((0, 0), [LAM])
    cubic = Cochain(2, rep)
    cubic.set_value((0, 0), [LAM ** 3])
    delta = apply_delta
    for bound in range(3, MAX_SOLVER_BOUND + 1):
        assert image_contains(rep, bound, lam_only)
        assert not image_contains(rep, bound, cubic)
    for cocycle in span:
        assert delta(cocycle).is_zero()


def test_solver_bounds_are_refused_above_the_limit(vir, central_line):
    rep = RepTable(vir, central_line)
    target = Cochain(2, rep)
    target.set_value((0, 0), [LAM])
    with pytest.raises(PreconditionError, match="truncation bound too large"):
        solve_truncated(rep, 2, MAX_SOLVER_BOUND + 1)
    with pytest.raises(PreconditionError, match="truncation bound too large"):
        image_contains(rep, MAX_SOLVER_BOUND + 1, target)
    assert image_contains(rep, MAX_SOLVER_BOUND, target)


@pytest.mark.parametrize(
    "refused,error",
    [
        (lambda rep, target: solve_truncated(rep, -1, 2), DegreeOverflowError),
        (lambda rep, target: solve_truncated(rep, 2, -1), PreconditionError),
        (lambda rep, target: image_contains(rep, -1, target), PreconditionError),
        (lambda rep, target: image_contains(rep, 2, Cochain(0, rep)), DegreeOverflowError),
    ],
    ids=["negative-degree", "negative-bound", "negative-image-bound", "degree-0-target"],
)
def test_solver_inputs_are_refused_below_the_limit(vir, central_line, refused, error):
    # refused up front, before the slice is built
    rep = RepTable(vir, central_line)
    target = Cochain(2, rep)
    target.set_value((0, 0), [LAM])
    with pytest.raises(error):
        refused(rep, target)


def _wide_abelian():
    return adjoint_rep(LCA(FreeModule(["x%d" % i for i in range(16)])))


SLICE_COEFFS = {
    "sl2": lambda: adjoint_rep(make_sl2()),
    "abelian16": _wide_abelian,
    # a free and a torsion coordinate: del-powers on the free one only
    "vir-mixed": lambda: RepTable(make_vir(), FreeModule(["m", "c"], [FREE, 0])),
}


@pytest.mark.parametrize(
    "coeffs,degree,bound,cells",
    [
        # sl2's top slice at the solver's limits, and its lower slice
        ("sl2", 3, 6, 2520),
        ("sl2", 2, 7, 648),
        ("sl2", 0, 4, 15),
        ("abelian16", 2, 2, 13056),
        ("abelian16", 3, 2, 130560),
        ("vir-mixed", 2, 3, 14),
    ],
)
def test_slice_cells_are_sorted_tuples_times_monomials(coeffs, degree, bound, cells):
    rep = SLICE_COEFFS[coeffs]()
    rank, nvars = rep.algebra.module.rank, max(degree - 1, 0)
    tuples = [key for key in product(range(rank), repeat=degree) if list(key) == sorted(key)]
    monomials = [_monomials(nvars, bound, action == FREE) for action in rep.module.actions]
    assert _slice_cells(rep, degree, bound) == len(tuples) * sum(map(len, monomials)) == cells


def _steep_rank3():
    # one bracket entry of degree 16 lifts the lower slice's bound to 22
    algebra = LCA(FreeModule(["a", "b", "c"]))
    algebra.set_bracket(0, 0, [Poly.lam(1, 1) ** 16, 0, 0])
    return adjoint_rep(algebra)


@pytest.mark.parametrize(
    "coeffs,degree,bound,refused",
    [
        # on the rank-16 abelian algebra this slice ran out of memory
        (_wide_abelian, 3, 2, "a degree-3 slice at bound 2 has 130560 cells"),
        # the top slice has 2520 cells; the lower one was refused only
        # after the top one was solved, 16 s later
        (_steep_rank3, 3, 6, "a degree-2 slice at bound 22 has 4968 cells"),
    ],
    ids=["top", "lower"],
)
def test_a_slice_above_the_cell_cap_is_refused_before_it_is_built(
    monkeypatch, coeffs, degree, bound, refused
):
    rep = coeffs()
    counts = count_calls(monkeypatch, cochain_space)
    with pytest.raises(UnsupportedModeError) as caught:
        solve_truncated(rep, degree, bound)
    assert str(caught.value) == refused + ", above the cap of %d" % MAX_SLICE_CELLS
    assert not counts


@pytest.mark.parametrize(
    "algebra,degree,bound,dim,cocycle_dim",
    [("sl2", 2, 2, 36, 12), ("vir", 1, 2, 4, 0), ("vir", 2, 2, 3, 3)],
)
def test_cochain_space_is_a_basis_on_mixed_coefficients(
    request, algebra, degree, bound, dim, cocycle_dim
):
    # del is free on a and the scalar 1 on c: a del-power on c repeats a
    # monomial, so only a's coordinates may carry one
    rep = RepTable(request.getfixturevalue(algebra), FreeModule(["a", "c"], ["free", 1]))
    basis = cochain_space(rep, degree, bound)
    assert len(basis) == dim
    assert linalg.rank([_cells(f.values) for f in basis]) == dim
    res = solve_truncated(rep, degree, bound)
    assert res["cochain_dim"] == dim
    # the same cocycle and coboundary dimensions as the spanning set with
    # repeated monomials gave
    assert (res["cocycle_dim"], res["coboundary_dim"]) == (cocycle_dim, cocycle_dim)


def test_eval_cochain_sesquilinearity(ad, sl2):
    # the first argument's del coefficient turns into -lambda
    rng = Random(41)
    f = random_cochain(ad, 2, rng)
    m = sl2.module
    p, q = m.basis_elem(0), m.basis_elem(2)
    forms = [Poly.lam(1, 2), Poly.lam(2, 2)]
    plain = eval_cochain(f, [p, q], forms, 2)
    shifted = eval_cochain(f, [p.mul_poly(Poly.del_(0)), q], forms, 2)
    assert shifted == plain.mul_poly(-forms[0])


# ---------------------------------------------------------------------------
# test-only references: the solver as it was before images were evaluated on
# non-decreasing tuples only and skew residuals on one permutation orbit, with
# the coboundary evaluated cochain by cochain (reference_eval.apply_delta)


def _monomials_reference(nvars, bound, include_del):
    out = []

    def rec(prefix, remaining):
        if len(prefix) == nvars + 1:
            out.append(tuple(prefix))
            return
        for e in range(remaining + 1):
            rec(prefix + [e], remaining - e)

    top = bound if include_del else 0
    for e0 in range(top + 1):
        rec([e0], bound - e0)
    return sorted(set(out))


def test_monomials_match_reference():
    for nvars, bound, include_del in product(range(4), range(7), (True, False)):
        assert _monomials(nvars, bound, include_del) == _monomials_reference(
            nvars, bound, include_del
        )


def _elementary_cochain(rep, degree, key, coord, mono):
    out = Cochain(degree, rep)
    arity = max(degree - 1, 0)
    coords = [Poly.zero(arity)] * rep.module.rank
    coords[coord] = Poly(arity, {mono: Fraction(1)})
    out.set_value(key, Elem(rep.module, coords))
    return out


def _cochain_space_reference(rep, degree, bound):
    """Kernel of every elementary cochain's skew residuals on all tuples."""
    module = rep.algebra.module
    nvars = max(degree - 1, 0)
    free_monos = _monomials_reference(nvars, bound, True)
    fixed_monos = _monomials_reference(nvars, bound, False)
    elementary = [
        _elementary_cochain(rep, degree, key, coord, mono)
        for key in product(range(module.rank), repeat=degree)
        for coord, action in enumerate(rep.module.actions)
        for mono in (free_monos if action == FREE else fixed_monos)
    ]
    if degree <= 1:
        return elementary
    residual_cols = [
        {
            (k, key, c, mono): coeff
            for key in product(range(module.rank), repeat=degree)
            for k in range(degree - 1)
            for c, poly in enumerate(
                reference_eval.skew_residual(cochain.values, cochain.target, key, k).coords
            )
            for mono, coeff in poly.terms.items()
        }
        for cochain in elementary
    ]
    return [_combine(combo, elementary) for combo in linalg.nullspace(residual_cols)]


def _solve_truncated_reference(rep, degree, bound, differential):
    """Every image evaluated on every ordered output tuple."""
    basis = _cochain_space_reference(rep, degree, bound)
    kernel = linalg.nullspace([_cells(differential(f).values) for f in basis])
    dim_im = 0
    if degree >= 1:
        values = (*rep.algebra.table.entries.values(), *rep.action.entries.values())
        lower = _cochain_space_reference(rep, degree - 1, bound + _max_degree(*values))
        vecs = [_cells(differential(g).values) for g in lower]
        high = {slot for vec in vecs for slot in vec if sum(slot[2]) > bound}
        dim_im = linalg.rank(vecs) - linalg.rank(vecs, keys=high)
    return {
        "cochain_dim": len(basis),
        "cocycle_dim": len(kernel),
        "coboundary_dim": dim_im,
        "h_dim": len(kernel) - dim_im,
        "kernel": kernel,
    }


def _random_entry(rng, arity, degree=1):
    # a polynomial in del (and lam1 at arity 1) of total degree <= degree
    monos = [
        m for m in product(range(degree + 1), repeat=arity + 1) if sum(m) <= degree
    ]
    return Poly(arity, {m: Fraction(rng.randint(-2, 2)) for m in monos})


def _random_action(algebra, module, rng):
    rep = RepTable(algebra, module)
    for i in range(algebra.module.rank):
        for j in range(module.rank):
            rep.set_action(i, j, [_random_entry(rng, 1) for _ in range(module.rank)])
    return rep


def _random_operator(module, rng):
    return ConfLinMap(
        module,
        module,
        [[_random_entry(rng, 0) for _ in module.basis] for _ in module.basis],
    )


def _assert_solver_matches_reference(rep, cases, operator=None):
    def differential(f):
        if operator is None:
            return reference_eval.apply_delta(f)
        return reference_eval.apply_dNM(f, operator, operator)

    for degree, bound in cases:
        basis = cochain_space(rep, degree, bound)
        reference_basis = _cochain_space_reference(rep, degree, bound)
        assert basis == reference_basis
        got = solve_truncated(rep, degree, bound, operator=operator)
        want = _solve_truncated_reference(rep, degree, bound, differential)
        for key in ("cochain_dim", "cocycle_dim", "coboundary_dim", "h_dim"):
            assert got[key] == want[key], (degree, bound, key)
        assert [_combine(combo, basis) for combo in got["kernel"]] == [
            _combine(combo, reference_basis) for combo in want["kernel"]
        ]


@pytest.mark.parametrize(
    "coefficients,degree,bound",
    [
        ("adjoint", 3, 2), ("mixed", 3, 2), ("central", 2, 6), ("central", 3, 3),
        ("adjoint", 0, 2), ("adjoint", 1, 2), ("mixed", 0, 2), ("mixed", 1, 2),
        ("central", 0, 3), ("central", 1, 3),
    ],
    ids=[
        "sl2-adjoint-3-2", "sl2-mixed-3-2", "vir-central-2-6", "vir-central-3-3",
        "sl2-adjoint-0-2", "sl2-adjoint-1-2", "sl2-mixed-0-2", "sl2-mixed-1-2",
        "vir-central-0-3", "vir-central-1-3",
    ],
)
def test_orbit_local_basis_matches_the_full_tuple_reference(
    sl2, vir, central_line, coefficients, degree, bound
):
    # the basis is built one permutation orbit at a time: on sl2 at degree 3
    # the triple (0, 1, 2) has distinct entries and every other orbit a
    # repeated one; a, c mix a free and an evaluation coordinate, and the
    # central line is torsion.  Below degree 2 no lambda moves, and the
    # basis keeps every del-power of a free coordinate.  The one global
    # kernel of the reference must give the same vectors in the same order
    rep = {
        "adjoint": adjoint_rep(sl2),
        "mixed": RepTable(sl2, FreeModule(["a", "c"], ["free", 1])),
        "central": RepTable(vir, central_line),
    }[coefficients]
    basis = cochain_space(rep, degree, bound)
    assert basis == _cochain_space_reference(rep, degree, bound)
    assert all(check_cochain_skew(f).passed for f in basis)


@pytest.mark.parametrize(
    "seed,cases", [(1, [(1, 2), (2, 2), (3, 1)]), (2, [(2, 2)])], ids=["1", "2"]
)
def test_solver_matches_reference_on_random_line_actions(sl2, seed, cases):
    # the action need not be a representation: a skew bracket is enough
    rep = _random_action(sl2, FreeModule(["v"]), Random(seed))
    _assert_solver_matches_reference(rep, cases)


def test_solver_matches_reference_on_mixed_coefficients(sl2):
    module = FreeModule(["a", "c"], ["free", 1])
    _assert_solver_matches_reference(RepTable(sl2, module), [(2, 1)])
    rep = _random_action(sl2, module, Random(3))
    _assert_solver_matches_reference(rep, [(1, 2), (2, 1)])


@pytest.mark.parametrize(
    "seed,cases", [(None, [(1, 2), (2, 1)]), (4, [(2, 1)])], ids=["proj110", "random"]
)
def test_operator_solver_matches_reference(sl2, proj_p, seed, cases):
    # proj110 is Nijenhuis; a random conformal N is not, which the restriction
    # does not need either: the deformed bracket is skew whenever sl2's is
    op = proj_p if seed is None else _random_operator(sl2.module, Random(seed))
    _assert_solver_matches_reference(adjoint_rep(sl2), cases, operator=op)


def test_solver_evaluates_every_tuple_for_a_non_skew_bracket(sl2):
    # a random bracket on the pairs e_i, e_j with i > j only: every image
    # vanishes on the non-decreasing tuples but not on the others, so
    # evaluating only those would report (18, 6, 2, 4) and (36, 13, 6, 7)
    rng = Random(5)
    algebra = LCA(sl2.module)
    for i in range(3):
        for j in range(i):
            algebra.set_bracket(i, j, [_random_entry(rng, 1) for _ in range(3)])
    assert not check_lca(algebra).passed
    _assert_solver_matches_reference(adjoint_rep(algebra), [(1, 1), (2, 1)])


def test_solver_evaluates_every_tuple_for_non_central_torsion():
    # [x lam c] = c with del acting on c by 0 is skew, but c is not central,
    # so a coordinate with del substituted re-enters the bracket: sorted
    # tuples alone would report 3 cocycles at degree 2 where there are 2.
    # Sesquilinearity forbids the bracket, so check_lca fails it at (0, 1);
    # the solver, which does not check its input, must still be exact on it
    algebra = LCA(FreeModule(["x", "c"], ["free", 0]))
    algebra.set_bracket(0, 1, [0, 1])
    algebra.set_bracket(1, 0, [0, -1])
    assert check_lca(algebra).lines() == [
        "skew: fail at=0,1 residual=[(1)c]",
        "jacobi: pass",
    ]
    _assert_solver_matches_reference(adjoint_rep(algebra), [(1, 1), (2, 1)])


def _images(rep, degree, bound, operator=None, sorted_only=False):
    """The cells of the differential images of a slice's basis, as the
    solver builds them (`_slice`)."""
    differential = _differential(rep, degree, operator, sorted_only=sorted_only)
    return _slice(rep, degree, bound, lambda f: differential(f).values)[1]


def test_solver_evaluates_every_tuple_for_an_action_on_torsion():
    # sl2 acts on the evaluation generator c of the mixed coefficients by
    # [x_1 lam c] = 2c, which sesquilinearity forbids: delta then takes skew
    # cochains to cochains that are not skew, and the sorted tuples alone
    # would report 6 and 9 cocycles at (3, 1) and (3, 2) where there are 3
    # and 4
    rep = next(rep for name, rep, *_ in _reps() if name == "mixed-coefficients")
    images = [_images(rep, 3, b, sorted_only=True) for b in (1, 2)]
    assert [len(linalg.nullspace(vecs)) for vecs in images] == [6, 9]
    assert [solve_truncated(rep, 3, b)["cocycle_dim"] for b in (1, 2)] == [3, 4]
    _assert_solver_matches_reference(rep, [(3, 1)])


# ---------------------------------------------------------------------------
# one truncation convention: image_contains tests a target against the
# coboundaries solve_truncated counts


def _module_m(weight, alpha):
    """vir on M_{Delta,alpha}: [L lam m] = (del + alpha + Delta lam) m."""
    rep = RepTable(make_vir(), FreeModule(["m"]))
    rep.set_action(0, 0, [DEL + Poly.const(alpha, 1) + LAM.scale(weight)])
    return rep


def _sl2p():
    rep = adjoint_rep(make_sl2())
    return rep, ConfLinMap.diagonal(rep.algebra.module, [1, 1, 0])


CONVENTION_CASES = {
    "M0,0": (lambda: (_module_m(0, 0), None), [1, 2, 3], range(4)),
    "M1,0": (lambda: (_module_m(1, 0), None), [1, 2, 3], range(4)),
    "M1/2,1": (lambda: (_module_m(Fraction(1, 2), 1), None), [1, 2, 3], range(4)),
    "M2,-1": (lambda: (_module_m(2, -1), None), [1, 2, 3], range(4)),
    "M-1/2,3": (lambda: (_module_m(Fraction(-1, 2), 3), None), [1, 2, 3], range(4)),
    "sl2p": (_sl2p, [1, 2], range(3)),
}


def _bounded_preimages(rep, degree, bound, operator=None):
    """The images of the degree-(n-1) slice at ``bound`` itself, on every
    output tuple: the other truncation convention, whose preimages have
    entries of degree <= bound."""
    return _images(rep, degree - 1, bound, operator)


def _bounded_coboundary_dim(rep, degree, bound, operator=None):
    vecs = _bounded_preimages(rep, degree, bound, operator)
    high = {slot for vec in vecs for slot in vec if sum(slot[2]) > bound}
    return linalg.rank(vecs) - linalg.rank(vecs, keys=high)


@pytest.mark.parametrize("case", CONVENTION_CASES)
def test_the_two_truncation_conventions_count_the_same_coboundaries(case):
    # truncating the preimages at the bound itself, or at the bound plus the
    # structure degree, leaves the same coboundaries inside the bound here
    build, degrees, bounds = CONVENTION_CASES[case]
    rep, operator = build()
    for degree, bound in product(degrees, bounds):
        counted = solve_truncated(rep, degree, bound, operator)["coboundary_dim"]
        assert _bounded_coboundary_dim(rep, degree, bound, operator) == counted


@pytest.mark.parametrize("case", ["M1/2,1", "M-1/2,3", "sl2p"])
@pytest.mark.parametrize("seed", range(2))
def test_image_contains_the_images_of_the_lower_slice(case, seed):
    build, degrees, bounds = CONVENTION_CASES[case]
    rep, operator = build()
    rng = Random(seed)
    for degree, bound in product(degrees, bounds):
        lower = cochain_space(rep, *_lower(rep, degree, bound))
        x = _combine([rng.randint(-2, 2) for _ in lower], lower)
        image = apply_delta(x) if operator is None else apply_dN(x, operator)
        assert image_contains(rep, bound, image, operator)


def test_a_constant_cocycle_is_a_coboundary_of_a_preimage_above_the_bound():
    # sl2 acting trivially on a line c on which del acts by 1.  The constant
    # 3-cocycle eps is delta(x) for an x linear in lam, whose degree is
    # above the bound 0: the coboundaries solve_truncated counts at bound 0
    # hold eps, and preimages truncated at the bound itself miss it.  The
    # one target inside the bound found whose answer moves between the two
    # conventions.
    sl2 = make_sl2()
    rep = RepTable(sl2, FreeModule(["c"], [1]))
    x = Cochain(2, rep)
    one = Poly.one(1)
    x.set_value((1, 1), [LAM.scale(2) + one])
    x.set_value((2, 0), [LAM])
    x.set_value((0, 2), [LAM + one])
    eps = Cochain(3, rep)
    for key in product(range(3), repeat=3):
        if sorted(key) == [0, 1, 2]:
            eps.set_value(key, [Poly.const(-_perm_sign(key), 2)])
    assert reference_eval.apply_delta(x) == eps == apply_delta(x)
    assert image_contains(rep, 0, eps)
    assert linalg.solve(_bounded_preimages(rep, 3, 0), _cells(eps.values)) is None
    result = solve_truncated(rep, 3, 0)
    assert (result["cocycle_dim"], result["coboundary_dim"], result["h_dim"]) == (1, 1, 0)
    assert _bounded_coboundary_dim(rep, 3, 0) == 0


def test_a_coboundary_above_the_bound_is_contained(ad):
    # extensible@D asks for a preimage in the lower slice only, not that the
    # target have degree <= D: delta of a 1-cochain with a del entry has
    # degree 1 and is contained at bound 0, where solve_truncated counts
    # only coboundaries of degree 0
    f = Cochain(1, ad)
    f.set_value((0,), [Poly.del_(0), Poly.zero(0), Poly.zero(0)])
    target = apply_delta(f)
    assert _max_degree(*(value.coords for value in target.values.values())) == 1
    assert image_contains(ad, 0, target)


def test_image_contains_refuses_its_slice_once_before_it_is_built(monkeypatch):
    # the lower slice of a degree-3 target at bound 6 has 4968 cells
    rep = _steep_rank3()
    target = Cochain(3, rep)
    target.set_value((0, 1, 2), [Poly.zero(2), Poly.zero(2), Poly.one(2)])
    built = count_calls(monkeypatch, cochain_space)
    refused = count_calls(monkeypatch, _refuse_large_slices)
    with pytest.raises(UnsupportedModeError, match="degree-2 slice at bound 22"):
        image_contains(rep, 6, target)
    assert not built
    assert sum(refused.values()) == 1


def test_a_solve_refuses_its_slices_once(monkeypatch, ad):
    refused = count_calls(monkeypatch, _refuse_large_slices, lambda rep, *s: s)
    solve_truncated(ad, 2, 1)
    assert refused == {((2, 1), (1, 2)): 1}


# ---------------------------------------------------------------------------
# coboundary plans held by the representation


def _fresh(rep, degree, n_op=None, n_m=None, sorted_only=False):
    """The differential through plans built afresh, which nothing holds."""
    keys = _output_tuples(rep.algebra.module.rank, degree + 1, sorted_only)
    plain = _Coboundary(rep, degree, _substitutions(degree), keys=keys)
    if n_op is None:
        return lambda f: plain(f, rep)
    pulled = _pulled_back(rep, n_op, deformed_table(rep.algebra, n_op))
    twisted = _Coboundary(pulled, degree, _substitutions(degree), keys)
    n_m = n_op if n_m is None else n_m
    return lambda f: twisted(f, rep) - plain(f, rep).map_target(n_m)


def _plan_cases(algebra, rng):
    """(rep, N, N_M) of delta and d_N on adjoint coefficients, and of
    d_{N,M} on a line with a seeded action, for a seeded operator N."""
    ad = adjoint_rep(algebra)
    line = _random_action(algebra, FreeModule(["m"]), rng)
    op = _random_operator(algebra.module, rng)
    n_m = ConfLinMap.diagonal(line.module, [2])
    return [(ad, None, None), (ad, op, None), (line, op, n_m)]


def test_held_plans_equal_fresh_ones():
    rng = Random(17)
    cases = _plan_cases(make_sl2(), rng)
    cochains = {
        (id(rep), n): random_cochain(rep, n, rng, max_degree=1, density=1)
        for rep, _, _ in cases
        for n in range(4)
    }
    expected = {}
    # every plan is asked twice, the kinds and the degrees interleaved
    for order in (cases, cases[::-1]):
        for n in range(4):
            for sorted_only in (False, True):
                for rep, n_op, n_m in order:
                    f, case = cochains[id(rep), n], (id(rep), id(n_op), n, sorted_only)
                    if case not in expected:
                        expected[case] = _fresh(rep, n, n_op, n_m, sorted_only)(f)
                    held = _differential(rep, n, n_op, n_m, sorted_only)(f)
                    assert held == expected[case]
    assert all(not f.is_zero() for f in cochains.values())


def test_a_changed_table_is_planned_again():
    rng = Random(19)
    algebra = make_sl2()
    ad, (line, op, n_m) = adjoint_rep(algebra), _plan_cases(algebra, rng)[2]
    f = random_cochain(ad, 2, rng, max_degree=1)
    g = random_cochain(line, 2, rng, max_degree=1)

    def held():
        return [apply_delta(f), apply_dN(f, op), apply_delta(g), apply_dNM(g, op, n_m)]

    def fresh():
        return [
            _fresh(ad, 2)(f),
            _fresh(ad, 2, op)(f),
            _fresh(line, 2)(g),
            _fresh(line, 2, op, n_m)(g),
        ]

    before = held()
    assert before == fresh()
    algebra.set_bracket(0, 1, [-2, Poly.lam(1, 1), 0])
    after_bracket = held()
    assert after_bracket == fresh()
    assert [a != b for a, b in zip(before, after_bracket)] == [True] * 4
    line.set_action(1, 0, [DEL + 1])
    after_action = held()
    assert after_action == fresh()
    assert [a != b for a, b in zip(after_bracket, after_action)] == [
        False, False, True, True
    ]


def test_each_operator_gets_its_own_twisted_plan(sl2, proj_p):
    rng = Random(23)
    ad = adjoint_rep(sl2)
    f = random_cochain(ad, 1, rng)
    ops = [proj_p, _random_operator(sl2.module, rng)]
    expected = [_fresh(ad, 1, op)(f) for op in ops]
    assert expected[0] != expected[1]
    for op, want in list(zip(ops, expected)) * 2:
        assert apply_dN(f, op) == want


def test_a_representation_holds_at_most_16_plans(sl2, proj_p):
    # 16 coboundary plans; besides, two xi plans per degree, on every tuple
    # and on the sorted ones, and one orbit fill per degree from 2
    rep = adjoint_rep(sl2)

    def plans(kind=_Plan):
        return [p for p in _holds(rep).values() if isinstance(p, kind)]

    for op in (proj_p, _random_operator(sl2.module, Random(31))):
        for sorted_only in (False, True):
            for n in range(4):
                for n_op in (None, op):
                    _differential(rep, n, n_op, sorted_only=sorted_only)
                    assert len(plans(_Coboundary)) <= 16
    identity = ConfLinMap.identity(sl2.module)
    for n_m in (proj_p, identity):
        for n in range(MAX_DEGREE + 1):
            for sorted_only in (False, True):
                _comparison(rep, n, proj_p, n_m, sorted_only)
                assert len(plans(_Xi)) <= 2 * (MAX_DEGREE + 1)
    # each plan is held with what it was built from, the last operators
    # asked for, and carries none of it
    stamps = (sl2.table.stamp, rep.action.stamp)
    sources = {key: entry[0] for key, entry in rep._plans.items()}
    coboundaries = [
        sources[n, n_op is not None, sorted_only]
        for n in range(4)
        for sorted_only in (False, True)
        for n_op in (None, op)
    ]
    assert coboundaries == [stamps + (n_op,) for n_op in (None, op)] * 8
    xis = [sources["xi", n, s] for n in range(MAX_DEGREE + 1) for s in (False, True)]
    assert xis == [(proj_p, identity)] * 2 * (MAX_DEGREE + 1)
    assert all(
        not hasattr(p, name) for p in plans() for name in ("stamp", "n_op", "n_m")
    )
    # the public operators on skew cochains add only the orbit fills
    rng = Random(33)
    for n in range(4):
        f = random_cochain(rep, n, rng, max_degree=1, density=1)
        apply_delta(f), apply_dN(f, proj_p), xi_map(f, proj_p, proj_p)
        assert len(plans(_Orbit)) == n
    assert len(plans(_Coboundary)) == 16
    assert len(plans(_Xi)) == 2 * (MAX_DEGREE + 1)
    assert len(plans()) == 16 + 2 * (MAX_DEGREE + 1) + MAX_DEGREE - 1
    # a degree's coboundary plans share the blocks the representation holds
    # for it, built once; a plan's degree is that of its output
    for n in range(4):
        block = _holds(rep)[n][1]
        for p in plans(_Coboundary):
            if p.degree == n + 1:
                assert all(s is block(*slot) for slot, s in p.substitutions.items())


def test_the_skew_projection_and_the_orbit_basis_hold_only_blocks(sl2):
    # both move values by the blocks of degree n - 1 that the representation
    # holds, and neither leaves a plan of its own; below degree 2 nothing
    # is read
    rep = adjoint_rep(sl2)
    f = random_cochain(rep, 3, Random(41))
    assert skew_symmetrize(f) == f
    cochain_space(rep, 2, 1)
    cochain_space(rep, 1, 1)
    random_cochain(rep, 1, Random(43))
    assert set(rep._plans) == {1, 2}
    block = _holds(rep)[2][1]
    assert block(False, (2, 0, 1)) is block(False, (2, 0, 1))


def test_a_dropped_representation_needs_no_cycle_collection(sl2, proj_p):
    # the plans a representation holds do not point back at it
    rep = adjoint_rep(sl2)
    f = random_cochain(rep, 1, Random(37), max_degree=1)
    apply_dN(f, proj_p)
    xi_map(f, proj_p, proj_p)
    assert any(isinstance(p, _Coboundary) for p in _holds(rep).values())
    assert any(isinstance(p, _Xi) for p in _holds(rep).values())
    freed = weakref.ref(rep)
    gc.disable()
    try:
        del f, rep
        assert freed() is None
    finally:
        gc.enable()


def test_a_repeated_differential_is_not_planned_again(monkeypatch, sl2, proj_p):
    ad = adjoint_rep(sl2)
    f = random_cochain(ad, 2, Random(29), max_degree=1)
    first = apply_dN(f, proj_p)
    deformed = count_calls(monkeypatch, deformed_table)
    evaluated = count_calls(monkeypatch, sesqui_eval)
    assert apply_dN(f, proj_p) == first
    assert (deformed, evaluated) == ({}, {})


def _fresh_xi(rep, degree, n_op, n_m):
    """xi through a plan built afresh, which nothing holds."""
    final = _substitutions(degree - 1)[0] if degree else None
    plan = _Xi(rep, degree, n_op, n_m, final)
    return lambda f: plan(f, rep)


def test_held_xi_plans_equal_fresh_ones(sl2, proj_p):
    rng = Random(41)
    rep = adjoint_rep(sl2)
    ops = [proj_p, _random_operator(sl2.module, rng)]
    cochains = [random_cochain(rep, n, rng, max_degree=1, density=1) for n in range(4)]
    expected = {}
    # every degree's plan is asked twice for each operator pair in turn: it
    # is held for the second call and built again for the next pair
    pairs = [(a, b) for a in ops for b in ops]
    for order in (pairs, pairs[::-1]):
        for f in cochains:
            for n_op, n_m in order:
                case = (id(n_op), id(n_m), f.degree)
                if case not in expected:
                    expected[case] = _fresh_xi(rep, f.degree, n_op, n_m)(f)
                for _ in range(2):
                    assert xi_map(f, n_op, n_m) == expected[case]
    assert all(not f.is_zero() for f in cochains)
    for n in range(1, 4):
        images = [expected[id(a), id(b), n] for a in ops for b in ops]
        assert len({repr(sorted(g.values.items())) for g in images}) == 4


def test_a_repeated_xi_is_not_planned_again(monkeypatch, sl2, proj_p):
    ad = adjoint_rep(sl2)
    f = random_cochain(ad, 2, Random(43), max_degree=1)
    first = xi_map(f, proj_p, proj_p)
    assert not first.is_zero()
    evaluated = count_calls(monkeypatch, _evaluate)
    powers = []
    power = ConfLinMap.power

    def counted(self, n):
        powers.append(n)
        return power(self, n)

    monkeypatch.setattr(ConfLinMap, "power", counted)
    assert xi_map(f, proj_p, proj_p) == first
    assert (evaluated, powers) == ({}, [])


def test_the_combined_differential_is_over_one_representation(sl2, proj_p):
    a, b = adjoint_rep(sl2), adjoint_rep(sl2)
    rng = Random(47)
    for n in range(3):
        f = random_cochain(a, n, rng, max_degree=1)
        g = random_cochain(a, n - 1, rng, max_degree=1) if n else None
        for pair in (CochainPair(f, g), CochainPair(f)):
            image = apply_dNL(pair, proj_p, proj_p, rep=b)
            assert image.f.rep is b and image.g.rep is b
            assert image == apply_dNL(pair, proj_p, proj_p)


def test_pairs_compare_f_when_one_second_component_is_missing(ad):
    # a missing g equals a zero g, and f is compared either way
    rng = Random(79)
    f1, f2 = (random_cochain(ad, 2, rng) for _ in range(2))
    assert f1 != f2
    zero, g = Cochain(1, ad), random_cochain(ad, 1, rng)
    assert CochainPair(f1) != CochainPair(f2, zero)
    assert CochainPair(f2, zero) != CochainPair(f1)
    assert CochainPair(f1) == CochainPair(f1, zero)
    assert CochainPair(f1, zero) == CochainPair(f1)
    assert CochainPair(f1) != CochainPair(f1, g)
    assert CochainPair(f1) != CochainPair(f2)


# ---------------------------------------------------------------------------
# insertion plans held by the fixed cochain


def _fresh_insertion(J, inside, degree):
    """J's insertion, outside or inside, through a plan built afresh, which
    nothing holds."""
    total = J.degree + degree - 1
    block = _substitutions(max(total - 1, 0))[1]
    plan = _Insertion(J, inside, degree, block)
    return lambda K: plan(K, K.rep if inside else J.rep)


def test_held_insertion_plans_equal_fresh_ones(sl2):
    rng = Random(53)
    rep = adjoint_rep(sl2)
    cochains = [random_cochain(rep, n, rng, max_degree=1, density=1) for n in range(4)]
    cochains.append(bracket_cochain(sl2))
    expected = {}
    # every plan is asked twice, the sides and the degrees interleaved, and
    # a plan for degree 2 maps two cochains
    for order in (cochains, cochains[::-1]):
        for J in order:
            for K in cochains:
                if not 0 <= J.degree + K.degree - 1 <= MAX_DEGREE:
                    continue
                for inside in (False, True):
                    case = (id(J), id(K), inside)
                    if case not in expected:
                        expected[case] = _fresh_insertion(J, inside, K.degree)(K)
                    held = _insertion(J, inside, K)
                    assert held(K, K.rep if inside else J.rep) == expected[case]
    assert all(not f.is_zero() for f in cochains)
    assert sum(not image.is_zero() for image in expected.values()) > len(expected) // 2


def test_a_changed_cochain_is_planned_again(sl2):
    rng = Random(59)
    J = bracket_cochain(sl2)
    f = random_cochain(J.rep, 2, rng, max_degree=1)
    before = nr_bracket(J, f)
    assert before == apply_delta(f).scale(-1)
    # a new value on one tuple, then none there
    for value in ([Poly.lam(1, 1), Poly.zero(1), Poly.one(1)], J.target.zero(1)):
        J.set_value((0, 1), value)
        after = nr_bracket(J, f)
        assert after != before
        want = reference_eval.circ_insert(J, f) + reference_eval.circ_insert(f, J)
        assert after == want
        before = after


def test_a_repeated_bracket_is_not_planned_again(monkeypatch, sl2):
    ad = adjoint_rep(sl2)
    mc = bracket_cochain(sl2)
    rng = Random(61)
    f, g = (random_cochain(ad, 2, rng, max_degree=1) for _ in range(2))
    first = nr_bracket(mc, f)
    plans = {key: _holds(mc)[key] for key in _plan_keys(mc)}
    want = apply_delta(g).scale(-1)
    evaluated = count_calls(monkeypatch, _evaluate)
    images = nr_bracket(mc, f), nr_bracket(mc, g)
    assert evaluated == {}
    assert images == (first, want)
    # the two plans of the first call, both sides for degree 2 on the
    # sorted tuples, since both factors are skew, map both
    assert sorted(plans) == [(False, 2, True), (True, 2, True)]
    assert all(_holds(mc)[key] is plan for key, plan in plans.items())


def test_a_dropped_cochain_needs_no_cycle_collection(sl2):
    # the plans a cochain holds do not point back at it
    J = bracket_cochain(sl2)
    f = random_cochain(J.rep, 1, Random(67), max_degree=1)
    nr_bracket(J, f)
    assert all(isinstance(_holds(J)[key], _Insertion) for key in _plan_keys(J))
    assert set(_plan_keys(J)) == {(False, 1, True), (True, 1, True)}
    freed = weakref.ref(J)
    gc.disable()
    try:
        del J
        assert freed() is None
    finally:
        gc.enable()


def test_a_cochain_holds_at_most_10_plans(sl2):
    # one plan per side and degree of the other factor, whose product has
    # degree 0 to MAX_DEGREE, on each path: the sorted tuples when both
    # factors are skew, else every tuple; below degree 2 every cochain is
    # skew, and an elementary cochain on an unsorted tuple is not
    rep = adjoint_rep(sl2)
    rng = Random(71)

    def held(sorted_only):
        return [key for key in _plan_keys(J) if key[2] is sorted_only]

    for m in range(3):
        J = random_cochain(rep, m, rng, max_degree=1, density=1)
        degrees = [n for n in range(MAX_DEGREE + 1) if 0 <= m + n - 1 <= MAX_DEGREE]
        for _ in range(2):
            for n in degrees:
                nr_bracket(J, Cochain(n, rep))
                if n >= 2:
                    key = (1, 0) + (0,) * (n - 2)
                    nr_bracket(J, Cochain(n, rep, {key: sl2.module.basis_elem(0)}))
                assert len(held(True)) <= 10 and len(held(False)) <= 10
        assert all(isinstance(_holds(J)[key], _Insertion) for key in _plan_keys(J))
        assert len(held(True)) == 2 * len(degrees)
        assert len(held(False)) == 2 * len([n for n in degrees if n >= 2])
        assert m != 1 or len(held(True)) == 10


def test_the_bilinear_products_refuse_cochains_over_different_modules(sl2, vir):
    f = random_cochain(adjoint_rep(sl2), 1, Random(73), max_degree=1)
    g = random_cochain(adjoint_rep(vir), 1, Random(79), max_degree=1)
    products = (circ_insert, cup_product, nr_bracket, fn_bracket)
    for product_of in products:
        for a, b in ((f, g), (g, f)):
            with pytest.raises(ModuleMismatchError):
                product_of(a, b)
    assert (_plan_keys(f), _plan_keys(g)) == ([], [])
    # two adjoint representations of one algebra share its module
    h = Cochain(1, adjoint_rep(sl2), f.values)
    for product_of in products:
        assert product_of(f, h) == product_of(f, f)
        assert product_of(h, f) == product_of(f, f)


def test_a_cochain_refuses_a_value_in_another_module(sl2, vir):
    # stored, such a value makes the coboundary index past the module
    f = Cochain(1, adjoint_rep(sl2))
    with pytest.raises(ModuleMismatchError):
        f.set_value((0,), vir.module.basis_elem(0))
    assert f.is_zero()


def test_a_cochain_refuses_a_key_outside_the_source_basis(sl2):
    # stored, such a key makes a nonzero cochain with a zero coboundary
    f = Cochain(1, adjoint_rep(sl2))
    for key in ((7,), (3,), (-1,)):
        with pytest.raises(ModuleMismatchError):
            f.set_value(key, sl2.module.basis_elem(0))
    assert f.is_zero()
    f.set_value((2,), sl2.module.basis_elem(0))
    assert not apply_delta(f).is_zero()
