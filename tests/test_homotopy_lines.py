"""Full failure lists of the homotopy lines against hand-written references.

L4, L6, L7, H2, square-defect, module-defect, peiffer-1 and
deformed-peiffer-1 are each a strict axiom's residual from ``lca`` or
``nijenhuis`` plus a homotopy correction.  Here every one of them is written
out again, term by term, as a test-local reference, and the whole list of
(tuple, residual) failures the check records is compared with the
reference's on seeded random broken structures: the pinned reports of
``tests/test_failing_reports.py`` show only the least failing tuple.
"""

from itertools import product
from random import Random

import pytest

from nijconf import cli
from nijconf.cohomology import Cochain, _basis_args, act_form, eval_cochain
from nijconf.homotopy import (
    CrossedModule,
    HomotopyNijenhuis,
    TwoTermConformal,
    check_2term,
    check_crossed_module,
    check_homomorphism,
    check_homotopy_nijenhuis,
    crossed_to_strict,
)
from nijconf.lca import (
    ConfLinMap,
    FreeModule,
    RepTable,
    _torsion_failures,
    eval_bracket,
)
from nijconf.nijenhuis import NijenhuisLCA, deformed_table
from nijconf.poly import Poly, dagger
from nijconf.report import Report, failures_of

from conftest import make_sl2
from test_cli import CORE, HOMOTOPY
from test_failing_reports import (
    _adjoint_skeletal,
    _broken_2term,
    _cochain,
    _map,
    _sl2_p,
    _sparse_2term,
    _table,
)

SEEDS = range(6)


def _recorded(monkeypatch, check, *args):
    """The failures of every line added while ``check(*args)`` runs, by key."""
    lines = {}
    add_failures = Report.add_failures

    def record(self, key, failures):
        lines[key] = failures
        return add_failures(self, key, failures)

    monkeypatch.setattr(Report, "add_failures", record)
    check(*args)
    monkeypatch.undo()
    return lines


def _bracket0(t, p, q, form, arity):
    return act_form(t.l0.table, t.l0.module, p, q, form, arity)


def _reference_2term(t):
    """L4, L6 and L7, each written out in full."""
    mod0, mod1, d = t.l0.module, t.l1, t.d
    basis0, basis1 = mod0.basis_elem, mod1.basis_elem
    lam1 = Poly.lam(1, 1)

    def l4(i, j):
        p, m = basis0(i), basis1(j)
        return d.apply(t.act(p, m, lam1, 1)) - _bracket0(t, p, d.apply(m), lam1, 1)

    la, mu = Poly.lam(1, 2), Poly.lam(2, 2)
    forms = [la, mu, dagger(la + mu)]

    def l6(*key):
        p, q, r = _basis_args(mod0, key)
        lhs = d.apply(eval_cochain(t.l3, [p, q, r], forms, 2))
        return lhs - (
            _bracket0(t, p, _bracket0(t, q, r, mu, 2), la, 2)
            - _bracket0(t, _bracket0(t, p, q, la, 2), r, la + mu, 2)
            - _bracket0(t, q, _bracket0(t, p, r, la, 2), mu, 2)
        )

    def l7(i, j, k):
        p, q, m = basis0(i), basis0(j), basis1(k)
        lhs = eval_cochain(t.l3, [p, q, d.apply(m)], forms, 2)
        return lhs - (
            t.act(p, t.act(q, m, mu, 2), la, 2)
            - t.act(_bracket0(t, p, q, la, 2), m, la + mu, 2)
            - t.act(q, t.act(p, m, la, 2), mu, 2)
        )

    pairs = product(range(mod0.rank), range(mod1.rank))
    triples = product(range(mod0.rank), range(mod0.rank), range(mod1.rank))
    return {
        "L4": failures_of((key, l4(*key)) for key in pairs),
        "L6": failures_of(
            (key, l6(*key)) for key in product(range(mod0.rank), repeat=3)
        ),
        "L7": failures_of((key, l7(*key)) for key in triples)
        or _torsion_failures(t.action, mod0, mod1),
    }


def _reference_h2(src, dst, f0, f2):
    basis0 = src.l0.module.basis_elem
    lam1 = Poly.lam(1, 1)

    def h2(i, j):
        p, q = basis0(i), basis0(j)
        lhs = dst.d.apply(eval_cochain(f2, [p, q], [lam1, dagger(lam1)], 1))
        rhs = _bracket0(dst, f0.apply(p), f0.apply(q), lam1, 1) - f0.apply(
            _bracket0(src, p, q, lam1, 1)
        )
        return lhs - rhs

    pairs = product(range(src.l0.module.rank), repeat=2)
    return failures_of((key, h2(*key)) for key in pairs)


def _deformed(bracket, n_a, n_b, n_out, a, b):
    deformed = bracket(n_a.apply(a), b) + bracket(a, n_b.apply(b))
    return deformed - n_out.apply(bracket(a, b))


def _reference_defects(t, op):
    """square-defect and module-defect, each written out in full."""
    n0, n1, n2 = op.n0, op.n1, op.n2
    mod0, mod1 = t.l0.module, t.l1
    lam1 = Poly.lam(1, 1)
    forms = [lam1, dagger(lam1)]

    def bracket1(p, q):
        return _bracket0(t, p, q, lam1, 1)

    def act1(p, m):
        return t.act(p, m, lam1, 1)

    def square(i, j):
        p, q = mod0.basis_elem(i), mod0.basis_elem(j)
        lhs = t.d.apply(eval_cochain(n2, [p, q], forms, 1))
        rhs = n0.apply(_deformed(bracket1, n0, n0, n0, p, q)) - bracket1(
            n0.apply(p), n0.apply(q)
        )
        return lhs - rhs

    def module(i, j):
        p, m = mod0.basis_elem(i), mod1.basis_elem(j)
        lhs = eval_cochain(n2, [p, t.d.apply(m)], forms, 1)
        rhs = n1.apply(_deformed(act1, n0, n1, n1, p, m)) - act1(
            n0.apply(p), n1.apply(m)
        )
        return lhs - rhs

    squares = product(range(mod0.rank), repeat=2)
    pairs = product(range(mod0.rank), range(mod1.rank))
    return {
        "square-defect": failures_of((key, square(*key)) for key in squares),
        "module-defect": failures_of((key, module(*key)) for key in pairs),
    }


def _reference_peiffer_1(x, action, lower_alg):
    mod0, mod1 = x.lower.algebra.module, x.upper.algebra.module

    def first(i, j):
        p, m = mod0.basis_elem(i), mod1.basis_elem(j)
        return x.t.apply(action.act(p, m)) - eval_bracket(lower_alg, p, x.t.apply(m))

    pairs = product(range(mod0.rank), range(mod1.rank))
    return failures_of((key, first(*key)) for key in pairs)


def _sl2_2term(seed):
    """sl2 acting on a copy of itself, adjointly at even seeds and through a
    random table at odd ones, with random d and l3."""
    rng = Random(seed)
    sl2 = make_sl2()
    copy = FreeModule(["x", "y", "z"])
    action = _table(rng, 3, 3, 3) if seed % 2 else make_sl2().table
    structure = TwoTermConformal(sl2, copy, _map(rng, copy, sl2.module), action)
    structure.l3 = _cochain(rng, 3, structure.rep)
    return structure


def _strict():
    """The strict structure of the adjoint crossed module of sl2, d = id."""
    sl2_p = _sl2_p()
    sl2 = sl2_p.algebra
    ad = RepTable(sl2, sl2.module, sl2.table)
    structure, _ = crossed_to_strict(
        CrossedModule(sl2_p, sl2_p, ConfLinMap.identity(sl2.module), ad)
    )
    return structure


@pytest.mark.parametrize("seed", SEEDS)
def test_2term_lines_list_every_failure_of_the_reference(monkeypatch, seed):
    for structure in (_broken_2term(seed), _sl2_2term(seed), _sparse_2term()):
        lines = _recorded(monkeypatch, check_2term, structure)
        expected = _reference_2term(structure)
        assert any(expected.values())
        assert {key: lines[key] for key in expected} == expected


@pytest.mark.parametrize("seed", SEEDS)
def test_h2_lists_every_failure_of_the_reference(monkeypatch, seed):
    src, dst = _broken_2term(seed), _broken_2term(seed + 100)
    rng = Random(seed)
    f0 = _map(rng, src.l0.module, dst.l0.module)
    f1 = _map(rng, src.l1, dst.l1)
    f2 = _cochain(rng, 2, dst.rep)
    lines = _recorded(monkeypatch, check_homomorphism, src, dst, f0, f1, f2)
    expected = _reference_h2(src, dst, f0, f2)
    assert expected
    assert lines["H2"] == expected


@pytest.mark.parametrize("seed", SEEDS)
def test_defect_lines_list_every_failure_of_the_reference(monkeypatch, seed):
    rng = Random(seed)

    def operator(module):
        # a diagonal operator at even seeds, so that some pairs pass
        if seed % 2:
            return _map(rng, module, module)
        return ConfLinMap.diagonal(module, [rng.randint(0, 2) for _ in range(3)])

    for structure in (_adjoint_skeletal(), _strict()):
        mod0, mod1 = structure.l0.module, structure.l1
        n2 = _cochain(rng, 2, structure.rep)
        op = HomotopyNijenhuis(structure, operator(mod0), operator(mod1), n2)
        lines = _recorded(monkeypatch, check_homotopy_nijenhuis, structure, op)
        expected = _reference_defects(structure, op)
        assert any(expected.values())
        assert {key: lines[key] for key in expected} == expected


@pytest.mark.parametrize("seed", SEEDS)
def test_peiffer_1_lists_every_failure_of_the_reference(monkeypatch, seed):
    rng = Random(seed)
    sl2_p = _sl2_p()
    sl2 = sl2_p.algebra
    action = RepTable(sl2, sl2.module, _table(rng, 3, 3, 3))
    x = CrossedModule(sl2_p, sl2_p, _map(rng, sl2.module, sl2.module), action)
    lines = _recorded(monkeypatch, check_crossed_module, x)
    expected = _reference_peiffer_1(x, action, sl2)
    assert expected
    assert lines["peiffer-1"] == expected


@pytest.mark.parametrize("diagonal", [[1, 1, 0], [1, 1, 1], [2, 2, 2]])
def test_deformed_peiffer_1_lists_every_failure_of_the_reference(
    monkeypatch, diagonal
):
    """The deformed lines are reached only by a crossed module, so they
    pass; both sides must still list no failure."""
    sl2 = make_sl2()
    nlca = NijenhuisLCA(sl2, ConfLinMap.diagonal(sl2.module, diagonal))
    ad = RepTable(sl2, sl2.module, sl2.table)
    x = CrossedModule(nlca, nlca, ConfLinMap.identity(sl2.module), ad)
    lines = _recorded(monkeypatch, check_crossed_module, x)
    n, basis = nlca.n, sl2.module.basis_elem
    def_lower = deformed_table(sl2, n)
    rho1 = RepTable(def_lower, sl2.module)
    for i, j in product(range(3), repeat=2):
        rho1.set_action(i, j, _deformed(ad.act, n, n, n, basis(i), basis(j)).coords)
    reference = _reference_peiffer_1(x, rho1, def_lower)
    assert lines["deformed-peiffer-1"] == reference == []


@pytest.mark.parametrize("name", ["adjoint-skeletal", "vir-skeletal", "strict"])
def test_the_identity_is_a_homomorphism(name):
    structure = {
        "adjoint-skeletal": _adjoint_skeletal,
        "vir-skeletal": lambda: cli.parse_workspace([CORE, HOMOTOPY]).get(
            "virskeletal"
        ),
        "strict": _strict,
    }[name]()
    report = check_homomorphism(
        structure,
        structure,
        ConfLinMap.identity(structure.l0.module),
        ConfLinMap.identity(structure.l1),
        Cochain.zero(2, structure.rep),
    )
    assert report.passed
    assert report.lines() == ["H%d: pass" % n for n in range(1, 6)]
