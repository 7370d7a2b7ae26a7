from fractions import Fraction
from random import Random

import pytest

from nijconf.errors import ModuleMismatchError
from nijconf.lca import (
    LCA,
    ConfLinMap,
    Elem,
    FreeModule,
    RepTable,
    StructureTable,
    check_lca,
    check_morphism,
    check_representation,
    eval_bracket,
    semidirect,
    sesqui_eval,
)
from nijconf.poly import Poly

from conftest import DEL, LAM, make_vir


def test_virasoro_type_axioms(vir):
    report = check_lca(vir)
    assert report.passed
    assert report.status_of("skew") == "pass"
    assert report.status_of("jacobi") == "pass"


def test_mutated_coefficient_fails_jacobi():
    bad = make_vir()
    bad.set_bracket(0, 0, [DEL + LAM.scale(3)])
    report = check_lca(bad)
    assert not report.passed
    assert report.status_of("jacobi") == "fail"
    assert "residual=" in report.witness_of("jacobi")
    # (del + 3 lam)L is not skew either
    assert report.status_of("skew") == "fail"


def test_current_algebra_axioms(sl2):
    assert check_lca(sl2).passed


def test_m_delta_representation(vir):
    mm = FreeModule(["m"])
    rep = RepTable(vir, mm)
    rep.set_action(0, 0, [DEL + LAM.scale(2)])
    assert check_representation(rep).passed


def test_broken_representation_detected(vir):
    mm = FreeModule(["m"])
    rep = RepTable(vir, mm)
    # rho(L)_lam m = lam^2 m does not respect the commutator
    rep.set_action(0, 0, [LAM ** 2])
    assert not check_representation(rep).passed


def test_semidirect_product_is_an_algebra(vir):
    mm = FreeModule(["m"])
    rep = RepTable(vir, mm)
    rep.set_action(0, 0, [DEL + LAM.scale(2)])
    big = semidirect(rep)
    assert big.module.rank == 2
    assert check_lca(big).passed


def test_morphism_check(sl2):
    m = sl2.module
    ident = ConfLinMap.identity(m)
    assert check_morphism(sl2, sl2, ident).passed
    bad = ConfLinMap.scalar(m, 2)
    report = check_morphism(sl2, sl2, bad)
    assert not report.passed


def test_inner_automorphism_of_current_algebra(sl2):
    # conjugation by the torus rescales the root vectors e -> 2e, f -> f/2
    m = sl2.module
    beta = ConfLinMap.diagonal(m, [2, 1, Fraction(1, 2)])
    assert check_morphism(sl2, sl2, beta).passed


def test_conf_lin_map_algebra(sl2):
    m = sl2.module
    a = ConfLinMap.diagonal(m, [1, 2, 3])
    b = ConfLinMap.diagonal(m, [2, 2, 2])
    assert a.compose(b) == b.compose(a)
    assert a.power(2) == a.compose(a)
    assert (a + b) - b == a
    with pytest.raises(ModuleMismatchError):
        ConfLinMap(m, m, [[Poly.lam(1, 1)] * 3] * 3)


def test_eval_bracket_matches_table(sl2):
    m = sl2.module
    e, f = m.basis_elem(0), m.basis_elem(2)
    val = eval_bracket(sl2, e, f)
    assert val.coords[1] == Poly.one(1)
    assert val.coords[0].is_zero() and val.coords[2].is_zero()


def test_evaluation_module_reduces_del(central_line):
    # del acts by 0, so a del coefficient annihilates the generator
    elem = central_line.basis_elem(0).mul_poly(Poly.del_(0))
    assert elem.is_zero()


def _reference_sesqui_eval(table, target, a, b, slot, arity):
    """Slot-variable sesquilinear evaluation, written out term by term.

    The table value is re-homed by renaming lam1 to lam_slot key by key, with
    no lambda-form powers; `sesqui_eval` at the form ``Poly.lam(slot, arity)``
    must agree with it exactly.
    """
    a, b = a.with_arity(arity), b.with_arity(arity)
    lam = Poly.lam(slot, arity)
    result = [Poly.zero(arity)] * target.rank
    for i, fa in enumerate(a.coords):
        for j, gb in enumerate(b.coords):
            factor = fa.substitute(0, -lam) * gb.substitute(0, Poly.del_(arity) + lam)
            for t, value in enumerate(table.get(i, j)):
                terms = {}
                for (e_del, e_lam), coeff in value.terms.items():
                    key = [0] * (arity + 1)
                    key[0], key[slot] = e_del, e_lam
                    terms[tuple(key)] = coeff
                result[t] = result[t] + factor * Poly(arity, terms)
    return Elem(target, result)


def _random_poly(rng, arity):
    terms = {}
    for _ in range(rng.randint(0, 3)):
        key = tuple(rng.randint(0, 2) for _ in range(arity + 1))
        terms[key] = Fraction(rng.randint(-3, 3), rng.randint(1, 2))
    return Poly(arity, terms)


def _random_elem(rng, module, arity):
    return Elem(module, [_random_poly(rng, arity) for _ in range(module.rank)])


def _random_table(rng, rank):
    """A table with mixed del/lam1 entries (no axioms assumed)."""
    table = StructureTable(rank, rank, rank)
    for i in range(rank):
        for j in range(rank):
            table.set(i, j, [_random_poly(rng, 1) for _ in range(rank)])
    return table


def test_sesqui_eval_matches_slot_reference(sl2):
    rng = Random(2025)
    mixed = LCA(FreeModule(["x", "y"]), _random_table(rng, 2))
    for algebra in (sl2, make_vir(), mixed):
        module = algebra.module
        for slot in (1, 2, 3):
            for arity in range(slot, 4):
                form = Poly.lam(slot, arity)
                for i in range(module.rank):
                    for j in range(module.rank):
                        rehomed = _reference_sesqui_eval(
                            algebra.table, module, module.basis_elem(i),
                            module.basis_elem(j), slot, arity,
                        )
                        assert algebra.bracket_basis(i, j, slot, arity) == rehomed
                for _ in range(4):
                    a = _random_elem(rng, module, rng.randint(0, arity))
                    b = _random_elem(rng, module, rng.randint(0, arity))
                    expected = _reference_sesqui_eval(
                        algebra.table, module, a, b, slot, arity
                    )
                    got = sesqui_eval(algebra.table, module, a, b, form, arity)
                    assert got == expected
                    if arity == max(a.arity, b.arity, slot):
                        assert eval_bracket(algebra, a, b, slot) == expected
