from fractions import Fraction

import pytest

from nijconf import cli, wells
from nijconf.extension import ExtensionData, shear_map
from nijconf.lca import ConfLinMap, FreeModule
from nijconf.poly import Poly
from nijconf.wells import (
    AutomorphismPair,
    check_automorphism_pair,
    check_h_automorphism,
    induced_pair,
    inducibility,
    lift,
    lift_map,
    transform_cocycle,
    wells_obstruction,
    wells_sequence_check,
)

from test_cli import CORE


@pytest.fixture(scope="module")
def pair_id(sl2_id, c_triv):
    return AutomorphismPair.identity(sl2_id, c_triv)


@pytest.fixture(scope="module")
def pair_rescale(sl2_id, c_triv, central_line):
    # doubles the central charge, identity on the quotient
    return AutomorphismPair(
        ConfLinMap.scalar(central_line, 2),
        ConfLinMap.identity(sl2_id.algebra.module),
    )


@pytest.fixture(scope="module")
def pair_inner(sl2_id, central_line):
    beta = ConfLinMap.diagonal(sl2_id.algebra.module, [2, 1, Fraction(1, 2)])
    return AutomorphismPair(ConfLinMap.identity(central_line), beta)


def test_pair_validation(pair_id, pair_rescale, pair_inner, sl2_id, c_triv):
    assert check_automorphism_pair(pair_id, sl2_id, c_triv).passed
    assert check_automorphism_pair(pair_rescale, sl2_id, c_triv).passed
    assert check_automorphism_pair(pair_inner, sl2_id, c_triv).passed
    bad = AutomorphismPair(
        ConfLinMap.identity(c_triv.algebra.module),
        ConfLinMap.scalar(sl2_id.algebra.module, 2),
    )
    report = check_automorphism_pair(bad, sl2_id, c_triv)
    assert not report.passed
    assert report.status_of("beta-morphism") == "fail"


def test_transform_action(c_km, pair_id, pair_inner, pair_rescale):
    assert transform_cocycle(c_km, pair_id) == c_km
    # the trace form is invariant under inner automorphisms
    assert transform_cocycle(c_km, pair_inner) == c_km
    doubled = transform_cocycle(c_km, pair_rescale)
    assert doubled.chi == c_km.chi.scale(2)
    assert doubled.phi.is_zero()


def test_transform_is_a_group_action(c_km, pair_inner, pair_rescale):
    lhs = transform_cocycle(transform_cocycle(c_km, pair_inner), pair_rescale)
    rhs = transform_cocycle(c_km, pair_rescale.compose(pair_inner))
    assert lhs == rhs


def test_rescaling_pair_is_obstructed(ext_km, pair_rescale, central_line):
    verified, _ = inducibility(
        ext_km,
        pair_rescale,
        eta=ConfLinMap.zero(ext_km.quot.algebra.module, central_line),
    )
    assert verified.lines() == [
        "action: pass",
        "bracket: fail at=0,2 residual=[(lam1)c#M]",
        "operator: pass",
    ]
    report = wells_obstruction(ext_km, pair_rescale)
    assert report.status_of("class") == "nonzero-certified"
    solved, eta = inducibility(ext_km, pair_rescale)
    assert eta is None
    assert not solved.passed
    assert any("infeasible" in line for line in solved.lines())
    assert any("certified" in line for line in solved.lines())


def test_inner_pair_lifts(ext_km, pair_inner):
    report = wells_obstruction(ext_km, pair_inner)
    assert report.status_of("class").startswith("zero@")
    assert report.status_of("section-independent") == "pass"
    solved, eta = inducibility(ext_km, pair_inner)
    assert solved.passed and eta is not None
    verified, _ = inducibility(ext_km, pair_inner, eta=eta)
    assert verified.passed
    lifted, gamma = lift(ext_km, pair_inner, eta)
    assert lifted.passed
    assert check_h_automorphism(ext_km, gamma).passed
    assert induced_pair(ext_km, gamma) == pair_inner


def test_shears_lie_in_the_kernel(shear_setup, c_triv, central_line):
    ab_n, _, ext = shear_setup
    identity = AutomorphismPair.identity(ab_n, c_triv)
    am = ab_n.algebra.module
    tau = ConfLinMap(am, central_line, [[1, 0]])
    gamma = shear_map(ext, tau)
    assert check_h_automorphism(ext, gamma).passed
    assert induced_pair(ext, gamma) == identity
    tau2 = ConfLinMap(am, central_line, [[-7, 0]])
    report = wells_sequence_check(
        ext, [gamma, shear_map(ext, tau2)], [identity]
    )
    assert report.passed, report.lines()


def test_sequence_check_on_the_current_extension(
    ext_km, pair_id, pair_rescale, pair_inner
):
    solved, eta = inducibility(ext_km, pair_inner)
    _, gamma = lift(ext_km, pair_inner, eta)
    report = wells_sequence_check(
        ext_km, [gamma], [pair_id, pair_rescale, pair_inner]
    )
    assert report.passed, report.lines()


def test_sequence_check_compares_the_class_with_the_moved_triple(
    ext_km, pair_inner, monkeypatch
):
    # the class of pair_inner is zero, so a Wells-map side that finds no
    # tau must make its pair line fail
    monkeypatch.setattr(wells, "cocycle_equivalence", lambda *args: (None, None))
    report = wells_sequence_check(ext_km, [], [pair_inner])
    assert report.lines() == [
        "pair-0: fail obstruction zero@0 but moved triple not equivalent"
    ]


def test_induced_pair_is_a_homomorphism(shear_setup, central_line):
    ab_n, _, ext = shear_setup
    am = ab_n.algebra.module
    g1 = shear_map(ext, ConfLinMap(am, central_line, [[1, 0]]))
    g2 = shear_map(ext, ConfLinMap(am, central_line, [[-7, 0]]))
    composite = induced_pair(ext, g1.compose(g2))
    assert composite == induced_pair(ext, g1).compose(induced_pair(ext, g2))


@pytest.mark.parametrize("shift", [[[-1, 0, 0]], [[0, 0, 2]]])
def test_inner_pair_lifts_through_a_shifted_section(ext_km, pair_inner, shift):
    # the same diagram with section s + inc o shift: the eta solve must still
    # find a lift, and not report a certified obstruction
    m = ext_km.quot.algebra.module
    moved = ExtensionData(
        ext_km.total,
        ext_km.sub,
        ext_km.quot,
        ext_km.inc,
        ext_km.proj,
        ext_km.section + ext_km.inc.compose(ConfLinMap(m, ext_km.sub.algebra.module, shift)),
    )
    solved, eta = inducibility(moved, pair_inner)
    assert solved.lines() == ["solve: pass"]
    verified, _ = inducibility(moved, pair_inner, eta=eta)
    assert verified.passed


def test_gamma_with_determinant_del_is_not_invertible(ext_free):
    e_mod = ext_free.total.algebra.module
    gamma = ConfLinMap(e_mod, e_mod, [[1, 0], [0, Poly.del_(0)]])
    assert check_h_automorphism(ext_free, gamma).lines() == [
        "morphism: pass",
        "operator: pass",
        "invertible: fail",
        "preserves-sub: pass",
    ]


def test_the_default_eta_bound_on_a_free_kernel(ext_free):
    # the kernel h is free, so the eta solve takes the default bound 2; an
    # evaluation kernel would take bound 0
    identity = AutomorphismPair.identity(ext_free.quot, ext_free.sub)
    assert wells_obstruction(ext_free, identity).lines() == [
        "class: zero@2",
        "section-independent: pass",
    ]
    report, eta = inducibility(ext_free, identity)
    assert report.lines() == ["solve: pass"]
    assert eta.is_zero()


def test_lift_map_shape(ext_km, pair_inner):
    _, eta = inducibility(ext_km, pair_inner)
    gamma = lift_map(ext_km, pair_inner, eta)
    assert gamma.source == ext_km.total.algebra.module
    assert gamma.target == ext_km.total.algebra.module


def test_lift_checks_the_pair_and_gamma_once(monkeypatch, capsys, ext_km, pair_inner):
    counts = {}
    for name in ("check_automorphism_pair", "check_h_automorphism"):

        def counted(*args, name=name, check=getattr(wells, name)):
            counts[name] = counts.get(name, 0) + 1
            return check(*args)

        monkeypatch.setattr(wells, name, counted)
    _, eta = inducibility(ext_km, pair_inner)
    counts.clear()
    assert lift(ext_km, pair_inner, eta)[0].passed
    assert counts == {"check_automorphism_pair": 1, "check_h_automorphism": 1}
    # the verb solves for eta first, which checks the pair
    counts.clear()
    assert cli.main(["-f", CORE, "lift", "kmext", "--pair", "wellsgood"]) == 0
    assert "status: pass" in capsys.readouterr().out.splitlines()
    assert counts == {"check_automorphism_pair": 1, "check_h_automorphism": 1}
