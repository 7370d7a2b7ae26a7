from collections import Counter
from fractions import Fraction
from random import Random

import pytest

from nijconf import cli, lca
from nijconf.errors import ModuleMismatchError
from nijconf.homotopy import CrossedModule, check_2term, crossed_to_strict
from nijconf.lca import (
    FREE,
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
from nijconf.nijenhuis import check_nijenhuis
from nijconf.poly import Poly, Substitution, dagger

from conftest import DEL, LAM, count_calls, make_sl2, make_vir
from test_cli import CORE, HOMOTOPY


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


def test_torsion_must_be_central():
    # del acts on c by 1: sesquilinearity makes every bracket and every action
    # on c, or by c, vanish, although each table below is skew or satisfies
    # the representation identity
    module = FreeModule(["x", "c"], ["free", 1])
    algebra = LCA(module)
    algebra.set_bracket(0, 1, [0, 1])
    algebra.set_bracket(1, 0, [0, -1])
    assert check_lca(algebra).lines() == [
        "skew: fail at=0,1 residual=[(1)c]",
        "jacobi: pass",
    ]
    # rho(x)_lam c = c commutes with itself, so the identity holds
    rep = RepTable(LCA(FreeModule(["x"])), FreeModule(["c"], 0))
    rep.set_action(0, 0, [1])
    assert check_representation(rep).lines() == [
        "algebra: pass",
        "representation: fail at=0,0 residual=[(1)c]",
    ]
    # a table value that vanishes once del acts on c is no failure
    algebra = LCA(module)
    algebra.set_bracket(0, 0, [0, DEL - 1])
    assert check_lca(algebra).passed


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
    # del acts by 2 on c: every output coordinate there must lose its del
    torsion = LCA(FreeModule(["a", "c"], [FREE, 2]), _random_table(Random(2026), 2))
    for algebra in (sl2, make_vir(), mixed, torsion):
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


def _random_del_poly(rng):
    """A del-only Poly, zero about a third of the time, with Fraction terms."""
    if rng.random() < 0.35:
        return Poly.zero(0)
    terms = {(e,): Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for e in range(3)}
    return Poly(0, terms)


def _dense_apply(mapping, elem):
    """mapping(elem) by the definition: every entry times every coordinate,
    then del -> a on each generator of the target where del acts by a."""
    arity = elem.arity
    coords = []
    for row, action in zip(mapping.matrix, mapping.target.actions):
        acc = Poly.zero(arity)
        for entry, coord in zip(row, elem.coords):
            acc = acc + entry.with_arity(arity) * coord
        if action != FREE:
            acc = acc.substitute(0, Poly.const(action, arity))
        coords.append(acc)
    return coords


def _reduced(rows, module):
    """A matrix into ``module`` with del -> a in the row of each generator
    where del acts by a, its numbers read as constants."""
    rows = [[e if isinstance(e, Poly) else Poly.const(e, 0) for e in row] for row in rows]
    return [
        row if a == FREE else [e.substitute(0, Poly.const(a, 0)) for e in row]
        for row, a in zip(rows, module.actions)
    ]


def test_conf_lin_map_apply_and_compose_match_dense_loops():
    rng = Random(19)
    modules = [
        FreeModule(["x"]),
        FreeModule(["x", "y", "z"]),
        FreeModule(["a", "c"], [FREE, 2]),
    ]
    for _ in range(60):
        source, target = rng.choice(modules), rng.choice(modules)
        matrix = [
            [_random_del_poly(rng) for _ in range(source.rank)]
            for _ in range(target.rank)
        ]
        matrix[rng.randrange(target.rank)] = [0] * source.rank  # a zero row
        mapping = ConfLinMap(source, target, matrix)
        assert mapping.matrix == _reduced(matrix, target)
        written = [
            [_random_del_poly(rng) for _ in range(source.rank)]
            for _ in range(source.rank)
        ]
        first = ConfLinMap(source, source, written)
        assert first.matrix == _reduced(written, source)
        # the product of the held matrices, reduced as the target's
        # coordinates are
        product = [
            [
                sum((row[k] * first.matrix[k][j] for k in range(source.rank)), Poly.zero(0))
                for j in range(source.rank)
            ]
            for row in mapping.matrix
        ]
        assert mapping.compose(first).matrix == _reduced(product, target)
        # arities in a random order, so that each is met again after others
        for arity in [rng.randint(0, 3) for _ in range(6)]:
            elem = _random_elem(rng, source, arity)
            got = mapping.apply(elem)
            assert got.arity == arity
            assert got.coords == _dense_apply(mapping, elem)
            if target is modules[2]:
                assert not got.coords[1].uses_var(0)


def test_plain_brackets_relabel_and_never_expand(monkeypatch):
    """check_lca, check_nijenhuis and check_representation evaluate every
    bracket at a bare lam_s, which is a relabel of the stored entries; so
    does `check_2term` on a skeletal structure, whose lines are these
    residuals plus cochain terms at bare lambdas, and on a strict one, whose
    L5 evaluates the mixed bracket through the flipped table at lam1.  Only
    a general lambda-form, like the dagger form, is expanded, through a
    `poly.Substitution`."""
    ws = cli.parse_workspace([CORE])
    calls = []

    class Counted(Substitution):
        def __init__(self, *args):
            calls.append(args)
            super().__init__(*args)

    monkeypatch.setattr(lca, "Substitution", Counted)
    kinds = {kind for kind, _ in ws.objects.values()}
    assert {"algebra", "nijenhuis", "rep"} <= kinds
    for kind, value in ws.objects.values():
        if kind == "algebra":
            check_lca(value)
        elif kind == "nijenhuis":
            check_nijenhuis(value.algebra, value.n)
        elif kind == "rep":
            check_representation(value)
    assert calls == []
    check_2term(cli.parse_workspace([CORE, HOMOTOPY]).get("virskeletal"))
    assert calls == []
    sl2p = ws.get("sl2p")
    sl2 = sl2p.algebra
    adjoint = RepTable(sl2, sl2.module, sl2.table)
    identity = ConfLinMap.identity(sl2.module)
    strict, _ = crossed_to_strict(CrossedModule(sl2p, sl2p, identity, adjoint))
    assert not strict.d.is_zero()
    check_2term(strict)
    assert calls == []
    # the control: the same action table evaluated at the dagger form
    p, m = sl2.module.basis_elem(0), strict.l1.basis_elem(1)
    sesqui_eval(strict.action, strict.l1, p, m, dagger(Poly.lam(1, 1)), 1)
    assert calls


def test_jacobi_evaluates_no_bracket_against_zero(monkeypatch):
    """A Jacobi term whose inner bracket is zero is zero: check_lca skips
    its outer evaluation instead of evaluating it against a zero argument.
    The Jacobi residual is that of the adjoint representation, so every
    outer evaluation is a ``RepTable.act``."""
    ws = cli.parse_workspace([CORE])
    calls = Counter()
    act = RepTable.act

    def counted(rep, p, m, slot=1):
        calls[p.is_zero() or m.is_zero()] += 1
        return act(rep, p, m, slot)

    monkeypatch.setattr(RepTable, "act", counted)
    algebras = [value for kind, value in ws.objects.values() if kind == "algebra"]
    assert algebras
    for algebra in algebras:
        check_lca(algebra)
    assert calls[False] and not calls[True]


def test_an_algebra_evaluates_its_skew_line_once_per_table_version(monkeypatch):
    # check_lca, the sorted-tuple rule of check_nijenhuis and the verdict of
    # check_representation read the skew line the algebra holds; setting a
    # bracket makes it be evaluated again
    algebra = make_sl2()
    evaluated = count_calls(monkeypatch, lca._skew_failures)
    n = ConfLinMap.identity(algebra.module)
    for _ in range(2):
        assert check_lca(algebra).passed and check_nijenhuis(algebra, n).passed
        assert check_representation(lca.adjoint_rep(algebra)).passed
    assert evaluated == {None: 1}
    algebra.set_bracket(1, 0, [3, 0, 0])
    report = check_lca(algebra)
    # [e lam h] + [h_{-del-lam} e] = -2e + 3e
    assert report.lines()[0] == "skew: fail at=0,1 residual=[(1)e]"
    assert check_representation(lca.adjoint_rep(algebra)).lines() == [
        "algebra: precondition-failed underlying check_lca failed"
    ]
    assert not lca._sorted_tuples_suffice(algebra)
    assert evaluated == {None: 2}
