from fractions import Fraction
from itertools import product
from random import Random

import pytest

import reference_eval
from nijconf.cohomology import (
    MAX_SOLVER_BOUND,
    Cochain,
    CochainPair,
    adjoint_rep,
    apply_dN,
    apply_dNL,
    apply_dNM,
    apply_delta,
    bracket_cochain,
    _cochain_vector,
    _combine,
    _elementary_cochain,
    _monomials,
    _skew_residuals,
    _max_degree,
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
from nijconf.errors import PreconditionError
from nijconf.lca import (
    FREE,
    LCA,
    ConfLinMap,
    FreeModule,
    RepTable,
    check_lca,
    eval_bracket,
)
from nijconf.nijenhuis import check_nijenhuis
from nijconf.poly import Poly

from conftest import DEL, LAM


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


def test_xi_intertwines_the_differentials(ad, proj_p):
    rng = Random(31)
    for n in (1, 2):
        f = random_cochain(ad, n, rng)
        lhs = apply_dNM(xi_map(f, proj_p, proj_p), proj_p, proj_p)
        rhs = xi_map(apply_delta(f), proj_p, proj_p)
        assert lhs == rhs


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
    span = res["cocycle_basis"]
    assert len(span) == 2
    lam_only = Cochain(2, rep)
    lam_only.set_value((0, 0), [LAM])
    cubic = Cochain(2, rep)
    cubic.set_value((0, 0), [LAM ** 3])
    delta = apply_delta
    assert image_contains(rep, 4, lam_only)
    assert not image_contains(rep, 4, cubic)
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
    assert linalg.rank([_cochain_vector(f) for f in basis]) == dim
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
            for (key, k), residual in _skew_residuals(cochain)
            for c, poly in enumerate(residual.coords)
            for mono, coeff in poly.terms.items()
        }
        for cochain in elementary
    ]
    return [_combine(combo, elementary) for combo in linalg.nullspace(residual_cols)]


def _solve_truncated_reference(rep, degree, bound, differential):
    """Every image evaluated on every ordered output tuple."""
    basis = _cochain_space_reference(rep, degree, bound)
    kernel = linalg.nullspace([_cochain_vector(differential(f)) for f in basis])
    dim_im = 0
    if degree >= 1:
        values = (*rep.algebra.table.entries.values(), *rep.action.entries.values())
        lower = _cochain_space_reference(rep, degree - 1, bound + _max_degree(*values))
        vecs = [_cochain_vector(differential(g)) for g in lower]
        high = {slot for vec in vecs for slot in vec if sum(slot[2]) > bound}
        dim_im = linalg.rank(vecs) - linalg.rank(vecs, keys=high)
    return {
        "cochain_dim": len(basis),
        "cocycle_dim": len(kernel),
        "coboundary_dim": dim_im,
        "h_dim": len(kernel) - dim_im,
        "cocycle_basis": [_combine(combo, basis) for combo in kernel],
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
        assert cochain_space(rep, degree, bound) == _cochain_space_reference(
            rep, degree, bound
        )
        got = solve_truncated(rep, degree, bound, operator=operator)
        want = _solve_truncated_reference(rep, degree, bound, differential)
        for key in ("cochain_dim", "cocycle_dim", "coboundary_dim", "h_dim"):
            assert got[key] == want[key], (degree, bound, key)
        assert got["cocycle_basis"] == want["cocycle_basis"]


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
