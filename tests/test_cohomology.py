from fractions import Fraction
from random import Random

import pytest

from nijconf.cohomology import (
    Cochain,
    CochainPair,
    adjoint_rep,
    apply_dN,
    apply_dNL,
    apply_dNM,
    apply_delta,
    bracket_cochain,
    _cochain_vector,
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
from nijconf.lca import LCA, ConfLinMap, FreeModule, RepTable, eval_bracket
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
    assert image_contains(rep, 4, delta, lam_only)
    assert not image_contains(rep, 4, delta, cubic)
    for cocycle in span:
        assert delta(cocycle).is_zero()


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
