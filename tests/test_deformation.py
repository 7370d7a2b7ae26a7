from fractions import Fraction
from random import Random

import pytest

from nijconf import deformation
from nijconf.cohomology import Cochain, adjoint_rep, fn_bracket_of_maps
from nijconf.deformation import (
    DeformationSeries,
    check_order,
    infinitesimal_cocycle,
    obstruction,
    operator_coboundary,
    verify_equivalence_order1,
)
from nijconf.lca import ConfLinMap, Elem
from nijconf.poly import Poly
from nijconf.report import Report


def test_zero_series_is_a_deformation(sl2_p):
    m = sl2_p.algebra.module
    series = DeformationSeries(sl2_p, [ConfLinMap.zero(m, m)])
    assert check_order(series).passed


def test_scaled_projection_extends_the_operator(sl2_p, proj_p):
    # N_t = (1 + t)P stays Nijenhuis for an idempotent P
    series = DeformationSeries(sl2_p, [proj_p])
    assert check_order(series).passed
    assert infinitesimal_cocycle(series).passed
    ob, report = obstruction(series)
    assert report.status_of("cocycle") == "pass"
    assert report.status_of("extensibility").startswith("extensible@")


def test_identity_deformation_of_rank_one(vir_id):
    m = vir_id.algebra.module
    series = DeformationSeries(vir_id, [ConfLinMap.identity(m)])
    assert check_order(series).passed
    assert infinitesimal_cocycle(series).passed
    ob, report = obstruction(series)
    assert ob.is_zero()
    assert report.status_of("cocycle") == "pass"
    assert report.status_of("extensibility").startswith("extensible@")


def test_coboundary_term_is_a_cocycle(sl2_p):
    m = sl2_p.algebra.module
    d_e = operator_coboundary(sl2_p, m.basis_elem(0))
    series = DeformationSeries(sl2_p, [d_e])
    assert infinitesimal_cocycle(series).passed


def test_non_cocycle_term_is_rejected(sl2_p):
    m = sl2_p.algebra.module
    swap = ConfLinMap(m, m, [[0, 0, 1], [0, 0, 0], [1, 0, 0]])
    series = DeformationSeries(sl2_p, [swap])
    report = infinitesimal_cocycle(series)
    assert not report.passed


def test_order1_equivalence_via_coboundary(sl2_p):
    m = sl2_p.algebra.module
    n1 = operator_coboundary(sl2_p, m.basis_elem(0))
    shift = m.basis_elem(1)
    a = DeformationSeries(sl2_p, [n1])
    b = DeformationSeries(sl2_p, [n1 - operator_coboundary(sl2_p, shift)])
    assert verify_equivalence_order1(a, b, shift).passed
    # the wrong comparison element leaves a residual
    assert not verify_equivalence_order1(a, b, m.basis_elem(0)).passed


def test_obstruction_vanishing_is_exact(sl2_p, proj_p):
    series = DeformationSeries(sl2_p, [proj_p])
    ob, report = obstruction(series)
    # d_N(Ob) = 0 holds identically, not only modulo the degree bound
    assert report.status_of("cocycle") == "pass"


def _del_poly(rng):
    # a polynomial in del of degree <= 1
    return Poly(0, {(e,): Fraction(rng.randint(-2, 2)) for e in range(2)})


def _random_map(rng, module):
    return ConfLinMap(
        module, module, [[_del_poly(rng) for _ in module.basis] for _ in module.basis]
    )


def _fn_obstruction(series):
    """-1/2 sum_{i+j=k+1, i,j>=1} [N_i, N_j]_FN: the obstruction written
    with the FN bracket."""
    lca, k = series.base.algebra, series.order
    ob = Cochain.zero(2, adjoint_rep(lca))
    for i in range(1, k + 1):
        ob = ob + fn_bracket_of_maps(lca, series.term(i), series.term(k + 1 - i))
    return ob.scale(Fraction(-1, 2))


@pytest.mark.parametrize("base", ["sl2_p", "vir_id"])
@pytest.mark.parametrize("order", [1, 2, 3])
@pytest.mark.parametrize("seed", range(4))
def test_the_obstruction_is_the_fn_bracket_sum(request, monkeypatch, base, order, seed):
    # Ob, read off the next-order residual, is a function of the terms
    # alone; the order conditions are lifted so that random terms reach it
    base = request.getfixturevalue(base)
    monkeypatch.setattr(deformation, "check_order", lambda series: Report())
    rng = Random(seed)
    terms = [_random_map(rng, base.algebra.module) for _ in range(order)]
    series = DeformationSeries(base, terms)
    assert obstruction(series, bound=0)[0] == _fn_obstruction(series)


def test_the_obstruction_of_a_coboundary_term_is_the_fn_bracket_sum(sl2_p):
    # N_1 = d_N(p) is a deformation of order 1; its obstruction is not zero
    # at most seeds
    module = sl2_p.algebra.module
    nonzero = 0
    for seed in range(8):
        rng = Random(seed)
        p = Elem(module, [_del_poly(rng) for _ in module.basis])
        series = DeformationSeries(sl2_p, [operator_coboundary(sl2_p, p)])
        ob, report = obstruction(series, bound=0)
        assert ob == _fn_obstruction(series)
        assert report.status_of("cocycle") == "pass"
        nonzero += not ob.is_zero()
    assert nonzero == 7
