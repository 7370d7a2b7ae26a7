from fractions import Fraction

import pytest

from nijconf.errors import StructuralError, PreconditionError
from nijconf.lca import LCA, ConfLinMap, FreeModule, RepTable, check_lca, eval_bracket
from nijconf.nijenhuis import (
    NijenhuisLCA,
    NijenhuisRep,
    check_nij_representation,
    check_nijenhuis,
    deformed_table,
    nij_semidirect,
    power_compatibility_suite,
)
from nijconf.poly import Poly


def test_projection_is_nijenhuis(sl2, proj_p):
    assert check_nijenhuis(sl2, proj_p).passed


def test_scalar_operators_are_nijenhuis(sl2):
    m = sl2.module
    for op in (ConfLinMap.zero(m, m), ConfLinMap.identity(m), ConfLinMap.scalar(m, 7)):
        assert check_nijenhuis(sl2, op).passed


def test_generic_diagonal_is_not_nijenhuis(sl2):
    bad = ConfLinMap.diagonal(sl2.module, [1, 2, 3])
    report = check_nijenhuis(sl2, bad)
    assert not report.passed
    assert "residual=" in report.witness_of("nijenhuis")


def test_constructor_validates(sl2):
    bad = ConfLinMap.diagonal(sl2.module, [1, 2, 3])
    with pytest.raises((StructuralError, PreconditionError)):
        NijenhuisLCA(sl2, bad)
    # raw skips the check for intermediate constructions
    assert NijenhuisLCA.raw(sl2, bad).n is bad


def test_constructor_rejects_an_operator_not_linear_on_torsion():
    # N(c) = a: del c = 0 but del N(c) = del a != 0; this used to be accepted
    m = FreeModule(["a", "c"], ["free", 0])
    with pytest.raises(PreconditionError) as info:
        NijenhuisLCA(LCA(m), ConfLinMap(m, m, [[0, 1], [0, 0]]))
    assert str(info.value) == (
        "operator is not Q[del]-linear: its entry (a, c) maps the torsion "
        "generator c onto a, where del acts otherwise"
    )
    # onto torsion with another action, only an entry vanishing there fails
    m = FreeModule(["b", "c"], [2, 0])
    with pytest.raises(PreconditionError, match=r"entry \(b, c\)"):
        NijenhuisLCA(LCA(m), ConfLinMap(m, m, [[0, 1], [0, 0]]))
    zero_on_b = ConfLinMap(m, m, [[0, Poly.del_(0) - 2], [0, 0]])
    assert NijenhuisLCA(LCA(m), zero_on_b).n is zero_on_b
    # a free generator may go anywhere, torsion onto the same action too
    m = FreeModule(["a", "c", "d"], ["free", 0, 0])
    assert NijenhuisLCA(LCA(m), ConfLinMap(m, m, [[1, 0, 0], [1, 0, 1], [0, 1, 0]]))


def test_deformed_bracket_hand_values(sl2, proj_p):
    # P = diag(1,1,0): [e f]_P = [Pe f] + [e Pf] - P[e f] = [e f] + 0 - h = 0
    deformed = deformed_table(sl2, proj_p)
    m = sl2.module
    e, h, f = (m.basis_elem(i) for i in range(3))
    assert eval_bracket(deformed, e, f).is_zero()
    # [h f]_P = [h f] + 0 - P[h f] = -2f - (-2 P f) = -2f
    assert eval_bracket(deformed, h, f) == eval_bracket(sl2, h, f)
    # [e h]_P = 2[e h] - P[e h] = [e h] since [e h] lies in the image of P
    assert eval_bracket(deformed, e, h) == eval_bracket(sl2, e, h)


def test_deformed_bracket_is_lie(sl2, proj_p):
    assert check_lca(deformed_table(sl2, proj_p)).passed


def test_power_compatibility(sl2_p):
    for k in (1, 2):
        for l in (1, 2):
            report = power_compatibility_suite(sl2_p, k, l)
            assert report.passed, report.lines()


def test_power_suite_includes_table_identity(sl2_p):
    report = power_compatibility_suite(sl2_p, 1, 2)
    keys = {line.split(":")[0] for line in report.lines()}
    assert len(keys) >= 5


def test_nijenhuis_representation(sl2, sl2_p, central_line):
    rep = RepTable(sl2, central_line)  # zero action
    nm = ConfLinMap.identity(central_line)
    assert check_nij_representation(sl2_p, NijenhuisRep.raw(rep, nm)).passed
    nrep = NijenhuisRep(rep, nm, nlca=sl2_p)
    combined = nij_semidirect(sl2_p, nrep)
    assert combined.algebra.module.rank == 4
    assert check_nijenhuis(combined.algebra, combined.n).passed


def test_adjoint_as_nijenhuis_representation(sl2, sl2_p, proj_p):
    ad = RepTable(sl2, sl2.module, sl2.table)
    assert check_nij_representation(sl2_p, NijenhuisRep.raw(ad, proj_p)).passed


def test_rejects_mismatched_operator(sl2, vir):
    with pytest.raises(Exception):
        check_nijenhuis(sl2, ConfLinMap.identity(vir.module))
