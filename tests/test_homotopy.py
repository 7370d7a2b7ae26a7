from fractions import Fraction
from random import Random

import pytest

import reference_eval
from conftest import make_sl2, make_vir
from nijconf.cohomology import (
    Cochain,
    CochainPair,
    apply_delta,
    apply_dNL,
    cochain_space,
    random_cochain,
)
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
from nijconf.lca import (
    FREE,
    LCA,
    ConfLinMap,
    Elem,
    FreeModule,
    RepTable,
    StructureTable,
    check_morphism,
)
from nijconf.nijenhuis import check_nijenhuis, deformed_table
from nijconf.poly import Poly
from nijconf.report import PASS, failures_of, first_witness


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


def test_a_structure_with_d_and_a_homotopy_term_is_neither(sl2):
    # classify reads the data only, so no law needs to hold
    ad = RepTable(sl2, sl2.module, sl2.table)
    identity = ConfLinMap.identity(sl2.module)
    l3 = random_cochain(ad, 3, Random(0), max_degree=1)
    structure = TwoTermConformal(sl2, sl2.module, identity, sl2.table, l3=l3)
    assert not l3.is_zero()
    op = HomotopyNijenhuis(structure, identity, identity)
    assert classify(structure, op) == "neither"
    strict = TwoTermConformal(sl2, sl2.module, identity, sl2.table)
    n2 = random_cochain(strict.rep, 2, Random(0), max_degree=1)
    assert not n2.is_zero()
    op = HomotopyNijenhuis(strict, identity, identity, n2)
    assert classify(strict, op) == "neither"


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


def test_homotopy_operator_refuses_maps_mixing_torsion():
    # N1 maps the torsion generator c onto the free m; every line passed,
    # and classify called the structure strict
    vir = make_vir()
    l1 = FreeModule(["m", "c"], [FREE, 0])
    structure = TwoTermConformal(
        vir, l1, ConfLinMap.zero(l1, vir.module), StructureTable(1, 2, 2)
    )
    identity = ConfLinMap.identity(vir.module)
    mixing = ConfLinMap(l1, l1, [[1, 1], [0, 1]])
    message = (
        "%s is not Q[del]-linear: its entry (m, c) maps the torsion "
        "generator c onto m, where del acts otherwise"
    )
    with pytest.raises(PreconditionError) as caught:
        HomotopyNijenhuis(structure, identity, mixing)
    assert str(caught.value) == message % "N1"
    mixed_l0 = TwoTermConformal(
        LCA(l1), l1, ConfLinMap.zero(l1, l1), StructureTable(2, 2, 2)
    )
    with pytest.raises(PreconditionError) as caught:
        HomotopyNijenhuis(mixed_l0, mixing, ConfLinMap.identity(l1))
    assert str(caught.value) == message % "N0"


# The oracle cases: sl2 acting adjointly on a copy of itself with d = 0 and
# d = id, vir on an evaluation line, and vir on a free generator of weight 2
# beside an evaluation generator.  Each names the Nijenhuis pair (N0, N1) of
# the correspondence test, and the degree bound of its random cochains: on
# the vir line delta vanishes on skew 2- and 3-cochains of degree below 5.


def _sl2_on_copy(d_scalar):
    sl2 = make_sl2()
    copy = FreeModule(["x", "y", "z"])
    d = ConfLinMap(copy, sl2.module, [[d_scalar * (r == c) for c in range(3)] for r in range(3)])
    structure = TwoTermConformal(sl2, copy, d, sl2.table)
    return structure, [[1, 0, 0], [0, 1, 0], [0, 0, 0]], [[1, 0, 0], [0, 1, 0], [0, 0, 0]], 1


def _vir_on(l1, weights, n1):
    vir = make_vir()
    action = StructureTable(1, l1.rank, l1.rank)
    action.set(0, 0, weights)
    structure = TwoTermConformal(vir, l1, ConfLinMap.zero(l1, vir.module), action)
    return structure, [[2]], n1, 5


SKELETAL = {
    "sl2-adjoint": lambda: _sl2_on_copy(0),
    "vir-line": lambda: _vir_on(FreeModule(["c"], 0), [0], [[1]]),
    # N1 sends m to m + c, a free generator onto a torsion one
    "vir-mixed": lambda: _vir_on(
        FreeModule(["m", "c"], [FREE, 0]),
        [Poly.del_(1) + Poly.lam(1, 1).scale(2), 0],
        [[1, 0], [1, 2]],
    ),
}
CASES = dict(SKELETAL, **{"sl2-adjoint-d-id": lambda: _sl2_on_copy(1)})


def _random_skew(rng, rep, degree, bound):
    """A combination of the solver's basis of skew cochains with random
    nonzero coefficients."""
    total = Cochain(degree, rep)
    for f in cochain_space(rep, degree, bound):
        total = total + f.scale(rng.randint(1, 3))
    return total


def _random_endo(rng, module, low):
    """A random Q[del]-linear endomorphism with entries from low to low + 2:
    no torsion generator is sent onto a generator with another del action."""
    actions = module.actions
    return ConfLinMap(module, module, [
        [rng.randint(low, low + 2) if actions[c] in (FREE, actions[r]) else 0
         for c in range(module.rank)]
        for r in range(module.rank)
    ])


@pytest.mark.parametrize("case", sorted(CASES))
def test_l8_is_the_reference_coboundary_of_l3(case):
    structure, _, _, degree = CASES[case]()
    structure.l3 = _random_skew(Random(31), structure.rep, 3, degree)
    expected = reference_eval.apply_delta(structure.l3, rep=structure.rep)
    assert not expected.is_zero()
    assert check_2term(structure).witness_of("L8") == first_witness(
        failures_of(expected.values.items())
    )


@pytest.mark.parametrize("case", sorted(CASES))
def test_jacobiator_defect_is_the_reference_second_component(case):
    structure, _, _, degree = CASES[case]()
    rng = Random(37)
    rep = structure.rep
    if structure.d.is_zero():
        # a closed l3; with d = id, L6 leaves l3 = 0
        structure.l3 = apply_delta(_random_skew(rng, rep, 2, degree))
    # on rank 1 both maps vanish when N0 = N1, so their entries never meet
    n0, n1 = _random_endo(rng, structure.l0.module, 1), _random_endo(rng, structure.l1, 4)
    n2 = _random_skew(rng, rep, 2, degree)
    op = HomotopyNijenhuis(structure, n0, n1, n2)
    expected = reference_eval.apply_dNM(n2, n0, n1, rep=rep) - reference_eval.xi_map(
        structure.l3, n0, n1
    )
    assert not expected.is_zero()
    report = check_homotopy_nijenhuis(structure, op)
    assert report.witness_of("jacobiator-defect") == first_witness(
        failures_of(expected.values.items())
    )


def _l8_and_defect_pass(structure, op):
    if check_2term(structure).status_of("L8") != PASS:
        return False
    report = check_homotopy_nijenhuis(structure, op)
    return report.status_of("jacobiator-defect") == PASS


@pytest.mark.parametrize("case", sorted(SKELETAL))
def test_skeletal_cocycle_is_l8_and_the_jacobiator_defect(case):
    # a d_NL-coboundary (l3, N2) is a cocycle; moving N2 or l3 off it by a
    # random cochain breaks it
    structure, n0, n1, degree = SKELETAL[case]()
    rng = Random(41)
    rep = structure.rep
    n0 = ConfLinMap(structure.l0.module, structure.l0.module, n0)
    n1 = ConfLinMap(structure.l1, structure.l1, n1)
    g = _random_skew(rng, rep, 2, degree)
    h = _random_skew(rng, rep, 1, degree)
    cocycle = apply_dNL(CochainPair(g, h), n0, n1, rep=rep)
    pairs = [
        (cocycle.f, cocycle.g),
        (cocycle.f, cocycle.g + _random_skew(rng, rep, 2, degree)),
        (cocycle.f + _random_skew(rng, rep, 3, degree), cocycle.g),
    ]
    outcomes = []
    for l3, n2 in pairs:
        structure.l3 = l3
        op = HomotopyNijenhuis(structure, n0, n1, n2)
        passed = skeletal_to_cocycle(structure, op)[1].passed
        assert passed == _l8_and_defect_pass(structure, op)
        outcomes.append(passed)
    assert outcomes == [True, False, False]


@pytest.mark.parametrize("seed", range(4))
def test_a_morphism_commuting_with_the_operators_is_a_deformed_morphism(seed):
    # check_crossed_module reports t-deformed-morphism as passing once
    # t-morphism passes: t a morphism with t N1 = N0 t is then a morphism of
    # the deformed brackets; each t below but the random one is such a map
    rng = Random(900 + seed)

    def operator(module):
        return ConfLinMap(module, module, [
            [Poly.const(rng.randint(-2, 2), 0) + Poly.del_(0).scale(rng.randint(-1, 1))
             for _ in module.basis]
            for _ in module.basis
        ])

    sl2, vir = make_sl2(), make_vir()
    c = Fraction(rng.choice([2, -3, 5])) / rng.choice([1, 7])
    grading = ConfLinMap.diagonal(sl2.module, [c, 1, 1 / c])
    cases = []
    for algebra in (sl2, vir):
        module = algebra.module
        n1 = operator(module)
        cases += [
            (algebra, ConfLinMap.identity(module), n1, n1),
            (algebra, ConfLinMap.zero(module), n1, operator(module)),
            (algebra, operator(module), n1, operator(module)),
        ]
    n1 = operator(sl2.module)
    inverse = ConfLinMap.diagonal(sl2.module, [1 / c, 1, c])
    cases.append((sl2, grading, n1, grading.compose(n1).compose(inverse)))
    passed = 0
    for algebra, t, n1, n0 in cases:
        plain = check_morphism(algebra, algebra, t).passed
        plain = plain and (t.compose(n1) - n0.compose(t)).is_zero()
        deformed = deformed_table(algebra, n1), deformed_table(algebra, n0)
        assert check_morphism(*deformed, t).passed or not plain
        passed += plain
    assert passed >= 5
