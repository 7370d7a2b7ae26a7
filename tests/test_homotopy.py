from random import Random

import pytest

from nijconf.cohomology import Cochain, apply_delta, cochain_space, random_cochain
from nijconf.errors import ModuleMismatchError, PreconditionError
from nijconf.homotopy import (
    CrossedModule,
    HomotopyNijenhuis,
    TwoTermConformal,
    check_2term,
    check_crossed_module,
    check_homotopy_nijenhuis,
    classify,
    crossed_direct_sum,
    crossed_to_strict,
    skeletal_to_cocycle,
    strict_crossed_roundtrip,
)
from nijconf.lca import ConfLinMap, Elem, FreeModule, RepTable, StructureTable
from nijconf.nijenhuis import check_nijenhuis
from nijconf.poly import Poly


@pytest.fixture(scope="module")
def adjoint_crossed(sl2, sl2_p):
    ad = RepTable(sl2, sl2.module, sl2.table)
    return CrossedModule(sl2_p, sl2_p, ConfLinMap.identity(sl2.module), ad)


def test_adjoint_crossed_module(adjoint_crossed):
    assert check_crossed_module(adjoint_crossed).passed


def test_strict_round_trip_is_exact(adjoint_crossed):
    assert strict_crossed_roundtrip(adjoint_crossed).passed


def test_crossed_direct_sum_is_nijenhuis(adjoint_crossed):
    ds = crossed_direct_sum(adjoint_crossed)
    assert ds.algebra.module.rank == 6
    assert check_nijenhuis(ds.algebra, ds.n).passed


def test_strict_structure_satisfies_all_laws(adjoint_crossed):
    structure, operator = crossed_to_strict(adjoint_crossed)
    assert check_2term(structure).passed
    assert check_homotopy_nijenhuis(structure, operator).passed
    assert classify(structure, operator) == "strict"


def test_scaled_boundary_breaks_peiffer(sl2, sl2_p):
    ad = RepTable(sl2, sl2.module, sl2.table)
    bad = CrossedModule(
        sl2_p, sl2_p, ConfLinMap.identity(sl2.module).scale(2), ad
    )
    assert not check_crossed_module(bad).passed


def _skeletal(vir, central_line, l3=None):
    vm = vir.module
    return TwoTermConformal(
        vir,
        central_line,
        ConfLinMap.zero(central_line, vm),
        StructureTable(1, 1, 1),
        l3=l3,
    )


def test_trivial_skeletal_structure(vir, central_line):
    structure = _skeletal(vir, central_line)
    operator = HomotopyNijenhuis(
        structure,
        ConfLinMap.identity(vir.module),
        ConfLinMap.identity(central_line),
    )
    assert check_2term(structure).passed
    assert check_homotopy_nijenhuis(structure, operator).passed
    pair, report = skeletal_to_cocycle(structure, operator)
    assert report.passed


def test_skeletal_with_closed_jacobiator(vir, central_line):
    rep = RepTable(vir, central_line)
    basis = cochain_space(rep, 3, 4)
    closed = [f for f in basis if apply_delta(f).is_zero() and not f.is_zero()]
    assert closed, "expected a non-trivial closed 3-cochain in the slice"
    structure = _skeletal(vir, central_line, l3=closed[0])
    operator = HomotopyNijenhuis(
        structure,
        ConfLinMap.identity(vir.module),
        ConfLinMap.identity(central_line),
    )
    assert check_2term(structure).passed
    assert check_homotopy_nijenhuis(structure, operator).passed
    assert classify(structure, operator) == "skeletal"
    pair, report = skeletal_to_cocycle(structure, operator)
    assert report.passed


def test_coboundary_jacobiator_passes(vir, central_line):
    rng = Random(7)
    rep = RepTable(vir, central_line)
    g = random_cochain(rep, 2, rng, max_degree=3)
    structure = _skeletal(vir, central_line, l3=apply_delta(g))
    assert check_2term(structure).passed


def test_non_closed_jacobiator_fails_the_last_law(vir, central_line):
    rng = Random(7)
    rep = RepTable(vir, central_line)
    g = random_cochain(rep, 2, rng, max_degree=3)
    l3 = apply_delta(g)
    bad = Cochain(3, rep)
    bad.set_value(
        (0, 0, 0),
        l3.value((0, 0, 0))
        + Elem(central_line, [Poly(2, {(0, 1, 0): 1})]),
    )
    structure = _skeletal(vir, central_line, l3=bad)
    report = check_2term(structure)
    assert not report.passed


def test_two_term_refuses_a_jacobiator_of_another_degree(vir, central_line):
    # a degree-2 l3 was accepted, and check_2term raised StructuralError
    # ("expected 2 arguments with forms") on evaluating it
    with pytest.raises(ModuleMismatchError) as caught:
        _skeletal(vir, central_line, l3=Cochain(2, RepTable(vir, central_line)))
    assert str(caught.value) == "l3 must be a degree-3 cochain on L0 with values in L1"


def test_homotopy_operator_refuses_n2_of_another_degree(vir, central_line):
    # a degree-3 N2 was accepted, and check_homotopy_nijenhuis raised
    # StructuralError ("expected 3 arguments with forms") on evaluating it
    structure = _skeletal(vir, central_line)
    ids = ConfLinMap.identity(vir.module), ConfLinMap.identity(central_line)
    with pytest.raises(ModuleMismatchError) as caught:
        HomotopyNijenhuis(structure, *ids, Cochain(3, structure.rep))
    assert str(caught.value) == "N2 must be a degree-2 cochain on L0 with values in L1"


def test_maps_mixing_torsion_are_refused(vir, vir_id, central_line, c_triv):
    # c -> L is not Q[del]-linear: del c = 0, but del L != 0; both the
    # differential and the crossed-module boundary used to be accepted
    mixing = ConfLinMap(central_line, vir.module, [[1]])
    message = (
        "%s is not Q[del]-linear: its entry (L, c) maps the torsion "
        "generator c onto L, where del acts otherwise"
    )
    with pytest.raises(PreconditionError) as caught:
        TwoTermConformal(vir, central_line, mixing, StructureTable(1, 1, 1))
    assert str(caught.value) == message % "differential"
    with pytest.raises(PreconditionError) as caught:
        CrossedModule(vir_id, c_triv, mixing, RepTable(vir, central_line))
    assert str(caught.value) == message % "t"
