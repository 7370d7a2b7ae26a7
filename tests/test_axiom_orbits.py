"""The axiom checks against full-tuple references, and trusted Elem results.

``check_lca``, ``check_nijenhuis``, ``check_representation`` and
``check_nonabelian_cocycle`` evaluate a skew bracket's residuals on sorted
basis tuples only, when its torsion is inert.  The references below
evaluate every ordered tuple, as the checks once did; the report lines,
witnesses included, must agree on seeded random tables: skew ones that fail
Jacobi, non-skew ones and ones with non-central torsion (where the checks
fall back to every tuple), evaluation modules and the mixed module
``FreeModule(["a", "c"], ["free", 1])``.
"""

from fractions import Fraction
from itertools import product
from random import Random

import pytest
from hypothesis import given, settings, strategies as st

from nijconf.cohomology import Cochain, skew_symmetrize
from nijconf.extension import (
    NonAbelianCocycle,
    _candidate_total,
    check_nonabelian_cocycle,
)
from nijconf.lca import (
    LCA,
    ConfLinMap,
    Elem,
    FreeModule,
    RepTable,
    StructureTable,
    _BasisPairs,
    _jacobi_failures,
    _skew_failures,
    _torsion_failures,
    check_lca,
    check_representation,
    sesqui_eval,
    sum_algebra,
)
from nijconf.nijenhuis import NijenhuisLCA, _nijenhuis_failures, check_nijenhuis
from nijconf.poly import Poly, dagger
from nijconf.report import PRECONDITION, Report, first_witness

from conftest import make_sl2, make_vir

MIXED = ["free", 1]


def _check_lca_reference(lca):
    basis = range(lca.module.rank)
    report = Report("lca")
    failures = _skew_failures(lca, product(basis, repeat=2))
    failures += _torsion_failures(lca.table, lca.module, lca.module)
    report.add("skew", not failures, first_witness(failures))
    failures = _jacobi_failures(lca, product(basis, repeat=3))
    report.add("jacobi", not failures, first_witness(failures))
    return report


def _check_nijenhuis_reference(lca, n):
    pairs = product(range(lca.module.rank), repeat=2)
    failures = _nijenhuis_failures(_BasisPairs.of_bracket(lca), n, pairs)
    report = Report("nijenhuis")
    report.add("nijenhuis", not failures, first_witness(failures))
    return report


def _check_representation_reference(rep):
    """The representation identity written out on every (i, j, k)."""
    report = Report("representation")
    if not _check_lca_reference(rep.algebra).passed:
        report.add_status("algebra", PRECONDITION, "underlying check_lca failed")
        return report
    report.add("algebra", True)
    l_mod, m_mod = rep.algebra.module, rep.module
    lam12 = Poly.lam(1, 3) + Poly.lam(2, 3)
    failures = []
    for i, j, k in product(range(l_mod.rank), range(l_mod.rank), range(m_mod.rank)):
        inner = rep.algebra.bracket_basis(i, j, slot=1, arity=3)
        lhs = sesqui_eval(
            rep.action, m_mod, inner, m_mod.basis_elem(k), Poly.lam(3, 3), 3
        )
        lhs = lhs.substitute(3, lam12).shrink(2)
        right1 = rep.act(l_mod.basis_elem(i), rep.act_basis(j, k, slot=2, arity=2), 1)
        right2 = rep.act(l_mod.basis_elem(j), rep.act_basis(i, k, slot=1, arity=2), 2)
        residual = lhs - right1 + right2
        if not residual.is_zero():
            failures.append(((i, j, k), repr(residual)))
    failures = failures or _torsion_failures(rep.action, l_mod, m_mod)
    report.add("representation", not failures, first_witness(failures))
    return report


def _check_nonabelian_cocycle_reference(cocycle, quot, sub):
    """Each typed component on every ordered tuple of its index sets."""
    total, operator, rank_l = _candidate_total(cocycle, quot, sub)
    l_idx = range(rank_l)
    h_idx = range(rank_l, total.module.rank)
    report = Report("nonabelian-cocycle")
    pairs_ll = list(product(l_idx, l_idx))
    failures = _skew_failures(total, pairs_ll)
    report.add("chi-skew", not failures, first_witness(failures))
    for name, triples in (
        ("rho-derivation", product(l_idx, h_idx, h_idx)),
        ("curvature", product(l_idx, l_idx, h_idx)),
        ("jacobi", product(l_idx, l_idx, l_idx)),
    ):
        failures = _jacobi_failures(total, triples)
        report.add(name, not failures, first_witness(failures))
    mixed = list(product(l_idx, h_idx)) + list(product(h_idx, l_idx))
    held = _BasisPairs.of_bracket(total)
    failures = _nijenhuis_failures(held, operator, mixed)
    report.add("operator-module", not failures, first_witness(failures))
    failures = _nijenhuis_failures(held, operator, pairs_ll)
    report.add("operator-bracket", not failures, first_witness(failures))
    return report


# -- random structures -------------------------------------------------------


def _random_poly(rng, arity, degree=2, density=0.5):
    """A sparse polynomial of total degree <= degree; zero with odds 1 - density."""
    if rng.random() > density:
        return Poly.zero(arity)
    terms = {}
    for _ in range(rng.randint(1, 2)):
        key = [0] * (arity + 1)
        for _ in range(rng.randint(0, degree)):
            key[rng.randrange(arity + 1)] += 1
        terms[tuple(key)] = Fraction(rng.choice([-2, -1, 1, 2, 3]))
    return Poly(arity, terms)


def _flip(value):
    """The entry skew-symmetry pairs with ``value``: -value(del, -del - lam1)."""
    return [-c.substitute(1, dagger(Poly.lam(1, 1))) for c in value]


def _random_bracket(rng, module, skew, density=0.4):
    """A random table; with ``skew`` each (j, i) entry is the flip of (i, j).

    Half of the other tables are one-sided: set on the pairs i > j only, so
    that residuals tend to vanish on sorted tuples and not on the others.
    """
    table = StructureTable(module.rank, module.rank, module.rank)
    one_sided = not skew and rng.random() < 0.5
    for i, j in product(range(module.rank), repeat=2):
        if (skew and j < i) or (one_sided and i <= j):
            continue
        value = [_random_poly(rng, 1, density=density) for _ in module.basis]
        if skew and i == j:
            value = [(a + b).scale(Fraction(1, 2)) for a, b in zip(value, _flip(value))]
        table.set(i, j, value)
        if skew and i < j:
            table.set(j, i, _flip(value))
    return table


def _perturbed(algebra, rng, skew):
    """``algebra`` plus a sparse random table, skew or not."""
    noise = _random_bracket(rng, algebra.module, skew, density=0.15)
    return LCA(algebra.module, algebra.table + noise)


def _random_map(rng, source, target, degree=1):
    return ConfLinMap(
        source,
        target,
        [
            [_random_poly(rng, 0, degree, density=0.6) for _ in source.basis]
            for _ in target.basis
        ],
    )


def _random_action(rng, algebra, module):
    rep = RepTable(algebra, module)
    for i, j in product(range(algebra.module.rank), range(module.rank)):
        rep.set_action(i, j, [_random_poly(rng, 1, density=0.4) for _ in module.basis])
    return rep


def _modules():
    return [
        FreeModule(["x"]),
        FreeModule(["x", "y"]),
        FreeModule(["x", "y", "z"]),
        FreeModule(["c"], 0),
        FreeModule(["c", "d"], 2),
        FreeModule(["a", "c"], MIXED),
    ]


def _random_algebra(rng):
    """70% skew; a quarter of them perturb sl2 or vir, so few tuples fail."""
    skew = rng.random() < 0.7
    if rng.random() < 0.25:
        return _perturbed(rng.choice([make_sl2(), make_vir()]), rng, skew)
    module = rng.choice(_modules())
    return LCA(module, _random_bracket(rng, module, skew))


def _lines_agree(got, want):
    assert got.lines() == want.lines()


@pytest.mark.parametrize("seed", range(60))
def test_check_lca_and_nijenhuis_match_references(seed):
    rng = Random(seed)
    algebra = _random_algebra(rng)
    _lines_agree(check_lca(algebra), _check_lca_reference(algebra))
    module = algebra.module
    for n in (
        _random_map(rng, module, module),
        ConfLinMap.diagonal(module, rng.sample(range(module.rank + 1), module.rank)),
    ):
        report = check_nijenhuis(algebra, n)
        _lines_agree(report, _check_nijenhuis_reference(algebra, n))


def test_checks_match_references_on_lie_conformal_algebras():
    sl2, vir = make_sl2(), make_vir()
    rng = Random(7)
    for algebra in (sl2, vir, LCA(FreeModule(["a", "c"], MIXED))):
        _lines_agree(check_lca(algebra), _check_lca_reference(algebra))
        module = algebra.module
        for n in (ConfLinMap.identity(module), _random_map(rng, module, module)):
            _lines_agree(
                check_nijenhuis(algebra, n), _check_nijenhuis_reference(algebra, n)
            )
    proj = ConfLinMap.diagonal(sl2.module, [1, 1, 0])
    assert check_nijenhuis(sl2, proj).passed


def test_checks_evaluate_every_tuple_for_a_non_skew_bracket():
    # brackets on the pairs e_i, e_j with i > j only: every Jacobi and
    # Nijenhuis residual vanishes on the sorted tuples but not on the others,
    # so evaluating only those would report two passes
    rng = Random(5)
    module = FreeModule(["x", "y", "z"])
    algebra = LCA(module)
    for i in range(3):
        for j in range(i):
            algebra.set_bracket(i, j, [Poly.lam(1, 1) + rng.randint(1, 3)] * 3)
    report = check_lca(algebra)
    assert report.lines()[0].startswith("skew: fail")
    assert report.lines()[1].startswith("jacobi: fail at=1,0,0 ")
    _lines_agree(report, _check_lca_reference(algebra))
    n = ConfLinMap.diagonal(module, [1, 2, 3])
    report = check_nijenhuis(algebra, n)
    assert report.lines()[0].startswith("nijenhuis: fail at=1,0 ")
    _lines_agree(report, _check_nijenhuis_reference(algebra, n))


def test_non_central_torsion_is_evaluated_on_every_tuple():
    # c is torsion (del acts on it by 1) but not central, which
    # sesquilinearity forbids: the skew residual vanishes once del is
    # substituted, so the skew line fails on the torsion brackets alone; and
    # Jacobi fails at (0, 1, 0) and not on any sorted triple, which would
    # read as a pass
    module = FreeModule(["a", "c"], MIXED)
    algebra = LCA(module)
    algebra.set_bracket(0, 1, [0, Poly.lam(1, 1).scale(-2)])
    algebra.set_bracket(1, 0, [0, (Poly.del_(1) + Poly.lam(1, 1)).scale(-2)])
    assert not _skew_failures(algebra, product(range(2), repeat=2))
    report = check_lca(algebra)
    assert report.lines() == [
        "skew: fail at=0,1 residual=[(-2*lam1)c]",
        "jacobi: fail at=0,1,0 residual=[(-4*lam1^2)c]",
    ]
    _lines_agree(report, _check_lca_reference(algebra))


def _representation_algebras():
    vir = make_vir()
    m_delta = RepTable(vir, FreeModule(["m"]))
    m_delta.set_action(0, 0, [Poly.del_(1) + Poly.lam(1, 1).scale(2)])
    return [
        make_sl2(),
        vir,
        LCA(FreeModule(["p", "q"])),
        LCA(FreeModule(["a", "c"], MIXED)),
        sum_algebra(vir, m_delta),
    ]


@pytest.mark.parametrize("seed", range(30))
def test_check_representation_matches_reference(seed):
    rng = Random(100 + seed)
    pool = _representation_algebras()
    algebra = pool[seed % len(pool)] if seed % 6 else _random_algebra(rng)
    module = rng.choice([m for m in _modules() if m.rank < 3])
    rep = _random_action(rng, algebra, module)
    _lines_agree(check_representation(rep), _check_representation_reference(rep))


def test_representations_still_pass(sl2, central_line):
    vir = make_vir()
    rep = RepTable(vir, FreeModule(["m"]))
    rep.set_action(0, 0, [Poly.del_(1) + Poly.lam(1, 1).scale(2)])
    adjoint = RepTable(sl2, sl2.module, sl2.table)
    for good in (rep, adjoint, RepTable(sl2, central_line)):
        assert check_representation(good).passed
        _lines_agree(check_representation(good), _check_representation_reference(good))


def _random_cochain(rng, quot, h_mod):
    """Skew with odds 0.7; else raw, and then one-sided with odds 1/2."""
    chi = Cochain(2, RepTable(quot.algebra, h_mod))
    skew = rng.random() < 0.7
    one_sided = not skew and rng.random() < 0.5
    for i, j in product(range(quot.algebra.module.rank), repeat=2):
        if not (one_sided and i <= j):
            value = [_random_poly(rng, 1, density=0.4) for _ in h_mod.basis]
            chi.set_value((i, j), value)
    return skew_symmetrize(chi) if skew else chi


def _random_nijenhuis(rng, algebra):
    module = algebra.module
    n = ConfLinMap.identity(module) if rng.random() < 0.5 else _random_map(
        rng, module, module, degree=0
    )
    return NijenhuisLCA.raw(algebra, n)


@pytest.mark.parametrize("seed", range(40))
def test_check_nonabelian_cocycle_matches_reference(seed):
    rng = Random(200 + seed)
    sl2, vir = make_sl2(), make_vir()
    quot = _random_nijenhuis(rng, rng.choice([sl2, vir, _perturbed(vir, rng, True)]))
    if rng.random() < 0.4:
        # a non-abelian kernel, skew or (rarely) not
        h_alg = _random_algebra(rng)
        while h_alg.module.rank > 2:
            h_alg = _random_algebra(rng)
    else:
        h_alg = LCA(rng.choice([FreeModule(["c"], 0), FreeModule(["h"]),
                                FreeModule(["a", "c"], MIXED)]))
    sub = _random_nijenhuis(rng, h_alg)
    h_mod = h_alg.module
    cocycle = NonAbelianCocycle(
        _random_cochain(rng, quot, h_mod),
        _random_action(rng, quot.algebra, h_mod),
        _random_map(rng, quot.algebra.module, h_mod),
    )
    _lines_agree(
        check_nonabelian_cocycle(cocycle, quot, sub),
        _check_nonabelian_cocycle_reference(cocycle, quot, sub),
    )


# -- trusted Elem results ----------------------------------------------------

ELEM_MODULES = [
    FreeModule(["x", "y"]),
    FreeModule(["c"], 0),
    FreeModule(["c", "d"], Fraction(-3, 2)),
    FreeModule(["a", "c"], MIXED),
]


@st.composite
def _elems(draw, module, arity):
    coeffs = st.integers(-3, 3).map(Fraction)
    keys = st.tuples(*[st.integers(0, 2)] * (arity + 1))
    coords = [
        Poly(arity, draw(st.dictionaries(keys, coeffs, max_size=3)))
        for _ in module.basis
    ]
    return Elem(module, coords)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_trusted_elem_results_equal_validated_ones(data):
    module = data.draw(st.sampled_from(ELEM_MODULES))
    arity = data.draw(st.integers(0, 2))
    a = data.draw(_elems(module, arity))
    b = data.draw(_elems(module, data.draw(st.integers(0, 2))))
    value = data.draw(st.fractions(min_value=-3, max_value=3, max_denominator=4))
    results = [
        a + b,
        a - b,
        -a,
        a.scale(value),
        a.with_arity(arity + 1),
        a.with_arity(arity + 1).shrink(arity),
        module.zero(arity),
        module.basis_elem(data.draw(st.integers(0, module.rank - 1))),
    ]
    for result in results:
        assert result.module is module
        validated = Elem(module, list(result.coords))
        assert validated.coords == result.coords
        assert len({c.arity for c in result.coords}) == 1
