import os
from fractions import Fraction
from random import Random

import pytest

from nijconf import cli, linalg
from nijconf.cohomology import Cochain
from nijconf.errors import ModuleMismatchError, PreconditionError, UnsupportedModeError
from nijconf.extension import (
    ExtensionData,
    NonAbelianCocycle,
    build_extension,
    check_extension,
    check_extension_equivalence,
    check_nonabelian_cocycle,
    checked_extension,
    cocycle_equivalence,
    extract_cocycle,
    shear_map,
)
from nijconf.homotopy import CrossedModule, crossed_direct_sum
from nijconf.lca import LCA, ConfLinMap, FreeModule, RepTable
from nijconf.nijenhuis import NijenhuisLCA
from nijconf.poly import Poly
from nijconf.wells import AutomorphismPair, inducibility

from conftest import DEL, LAM, count_calls, gf_cocycle, km_cocycle
from test_cli import ROOT


def _zero_cocycle(quot, sub):
    rep = RepTable(quot.algebra, sub.algebra.module)
    return NonAbelianCocycle(
        Cochain(2, rep),
        RepTable(quot.algebra, sub.algebra.module),
        ConfLinMap.zero(quot.algebra.module, sub.algebra.module),
    )


def test_non_split_maps_fail_the_split_checks(ext_free):
    d = Poly.del_(0)
    e_mod = ext_free.total.algebra.module
    pieces = (ext_free.total, ext_free.sub, ext_free.quot)
    inc = ConfLinMap(ext_free.sub.algebra.module, e_mod, [[0], [d]])
    report = check_extension(
        ExtensionData(*pieces, inc, ext_free.proj, ext_free.section)
    )
    assert report.lines() == [
        "proj-inc-zero: pass",
        "proj-section-identity: pass",
        "inc-split-injective: fail",
        "proj-split-surjective: pass",
        "inc-morphism: pass",
        "proj-morphism: pass",
        "operator-sub: pass",
        "operator-quot: pass",
    ]
    proj = ConfLinMap(e_mod, ext_free.quot.algebra.module, [[d, 0]])
    report = check_extension(
        ExtensionData(*pieces, ext_free.inc, proj, ext_free.section)
    )
    assert report.lines() == [
        "proj-inc-zero: pass",
        "proj-section-identity: fail",
        "inc-split-injective: pass",
        "proj-split-surjective: fail",
        "inc-morphism: pass",
        "proj-morphism: fail at=0,0 residual=[(del^2*lam1 + 3*del*lam1^2"
        " + 2*lam1^3 + del^2 + 2*del*lam1)L]",
        "operator-sub: pass",
        "operator-quot: pass",
    ]


def test_zero_cocycle_round_trip(sl2_p, c_triv):
    cocycle = _zero_cocycle(sl2_p, c_triv)
    assert check_nonabelian_cocycle(cocycle, sl2_p, c_triv).passed
    ext = build_extension(cocycle, sl2_p, c_triv)
    assert check_extension(ext).passed
    assert extract_cocycle(ext) == cocycle


def test_current_cocycle_round_trip(c_km, sl2_id, c_triv, ext_km):
    assert check_nonabelian_cocycle(c_km, sl2_id, c_triv).passed
    assert check_extension(ext_km).passed
    assert extract_cocycle(ext_km) == c_km


def test_cubic_cocycle_round_trip(c_gf, vir_id, c_triv, ext_gf):
    assert check_nonabelian_cocycle(c_gf, vir_id, c_triv).passed
    assert check_extension(ext_gf).passed
    assert extract_cocycle(ext_gf) == c_gf


def test_a_phi_with_del_on_an_evaluation_kernel_round_trips(c_gf, vir_id, c_triv):
    # del acts on c by 0, so del + 1 and 1 are one map; the extracted Phi is
    # the composite of the retraction and the operator defect, unreduced
    phi = ConfLinMap(vir_id.algebra.module, c_gf.rho.module, [[Poly.del_(0) + 1]])
    cocycle = NonAbelianCocycle(c_gf.chi, c_gf.rho, phi)
    ext = build_extension(cocycle, vir_id, c_triv)
    assert extract_cocycle(ext) == cocycle


def test_quadratic_central_term_is_not_a_cocycle(vir_id, c_triv):
    rep = RepTable(vir_id.algebra, c_triv.algebra.module)
    chi = Cochain(2, rep)
    chi.set_value((0, 0), [LAM ** 2])
    bad = NonAbelianCocycle(
        chi,
        RepTable(vir_id.algebra, c_triv.algebra.module),
        ConfLinMap.zero(vir_id.algebra.module, c_triv.algebra.module),
    )
    report = check_nonabelian_cocycle(bad, vir_id, c_triv)
    assert not report.passed
    with pytest.raises(PreconditionError):
        build_extension(bad, vir_id, c_triv)


def test_second_section_gives_equivalent_cocycle(ext_km, c_km, sl2_id, c_triv):
    m = sl2_id.algebra.module
    cm = c_triv.algebra.module
    tau = ConfLinMap(m, cm, [[2, 0, -3]])
    other = extract_cocycle(ext_km, section=ext_km.section + ext_km.inc.compose(tau))
    assert other != c_km
    # the comparison map is s - s', read in sub coordinates
    verify, _ = cocycle_equivalence(
        c_km, other, sl2_id, c_triv, tau=tau.scale(-1)
    )
    assert verify.passed
    solved, tau_found = cocycle_equivalence(c_km, other, sl2_id, c_triv)
    assert solved.passed
    assert tau_found is not None


def test_solved_tau_may_cancel_a_base_residual(ext_km, c_km, sl2_id, c_triv):
    # tau = [[1, 0, 0]]: its unit column must carry -residual(0) on the keys
    # where the residual of the unit map itself vanishes
    m = sl2_id.algebra.module
    shift = ConfLinMap(m, c_triv.algebra.module, [[-1, 0, 0]])
    other = extract_cocycle(ext_km, section=ext_km.section + ext_km.inc.compose(shift))
    verify, _ = cocycle_equivalence(c_km, other, sl2_id, c_triv, tau=shift.scale(-1))
    assert verify.passed
    solved, tau = cocycle_equivalence(c_km, other, sl2_id, c_triv)
    assert solved.lines() == ["solve: pass"]
    assert tau == shift.scale(-1)


def test_central_charge_is_an_invariant(c_km, sl2_id, c_triv):
    report, tau = cocycle_equivalence(
        c_km, _zero_cocycle(sl2_id, c_triv), sl2_id, c_triv
    )
    assert not report.passed
    assert tau is None
    assert any("infeasible" in line for line in report.lines())


def test_an_evaluation_kernel_has_the_same_unknowns_at_every_bound(
    monkeypatch, c_km, sl2_id, c_triv
):
    # a map sl2 -> c, del acting on c by 0, is a degree-1 cochain whose
    # evaluation coordinate holds constants only: 3 unknowns at every bound,
    # where del^e (e <= bound) on each entry gave 12 at bound 3
    columns = count_calls(monkeypatch, linalg.solve, key=lambda cols, rhs: len(cols))
    zero = ConfLinMap.zero(sl2_id.algebra.module, c_triv.algebra.module)
    for bound in range(4):
        report, tau = cocycle_equivalence(c_km, c_km, sl2_id, c_triv, bound=bound)
        assert report.lines() == ["solve: pass"] and tau == zero
    assert columns == {3: 4}


def _free_kernel(vir_id):
    """The zero cocycle of vir on the free module h, k, on which L acts by
    del + lam and del + 2 lam: a kernel where del^e is an unknown of its
    own for every e."""
    hm = FreeModule(["h", "k"])
    rho = RepTable(vir_id.algebra, hm)
    rho.set_action(0, 0, [DEL + LAM, Poly.zero(1)])
    rho.set_action(0, 1, [Poly.zero(1), DEL + LAM.scale(2)])
    sub = NijenhuisLCA(LCA(hm), ConfLinMap.identity(hm))
    zero = ConfLinMap.zero(vir_id.algebra.module, hm)
    return NonAbelianCocycle(Cochain(2, RepTable(vir_id.algebra, hm)), rho, zero), sub


@pytest.mark.parametrize("seed", range(3))
def test_a_planted_tau_of_degree_two_is_solved_on_a_free_kernel(monkeypatch, vir_id, seed):
    # the triple of the section moved by a seeded tau with del^2 entries:
    # no tau exists at bounds 0 and 1, one at bounds 2 and 3, and it differs
    # from minus the planted one by a self-equivalence of the triple; the
    # unknowns are rank L x rank H x (bound + 1)
    cocycle, sub = _free_kernel(vir_id)
    ext = build_extension(cocycle, vir_id, sub)
    rng = Random(seed)
    rows = [[Poly(0, {(e,): Fraction(rng.randint(1, 3)) for e in range(3)})] for _ in range(2)]
    planted = ConfLinMap(vir_id.algebra.module, sub.algebra.module, rows)
    moved = extract_cocycle(ext, ext.section + ext.inc.compose(planted))
    columns = count_calls(monkeypatch, linalg.solve, key=lambda cols, rhs: len(cols))
    for bound in range(4):
        report, tau = cocycle_equivalence(cocycle, moved, vir_id, sub, bound=bound)
        if bound < 2:
            assert tau is None and "infeasible" in report.lines()[0]
            continue
        assert report.lines() == ["solve: pass"]
        assert cocycle_equivalence(cocycle, moved, vir_id, sub, tau=tau)[0].passed
        self_map = tau + planted
        assert cocycle_equivalence(cocycle, cocycle, vir_id, sub, tau=self_map)[0].passed
    assert columns == {1 * 2 * (bound + 1): 1 for bound in range(4)}


@pytest.fixture(scope="module")
def nonabelian_ext(sl2, sl2_p):
    ad = RepTable(sl2, sl2.module, sl2.table)
    ds = crossed_direct_sum(
        CrossedModule(sl2_p, sl2_p, ConfLinMap.identity(sl2.module), ad)
    )
    emod = ds.algebra.module
    inc = ConfLinMap(
        sl2.module, emod, [[Fraction(r == 3 + c) for c in range(3)] for r in range(6)]
    )
    proj = ConfLinMap(
        emod, sl2.module, [[Fraction(r == c) for c in range(6)] for r in range(3)]
    )
    sec = ConfLinMap(
        sl2.module, emod, [[Fraction(r == c) for c in range(3)] for r in range(6)]
    )
    return ExtensionData(ds, sl2_p, sl2_p, inc, proj, sec)


def test_nonabelian_extension_invariants(nonabelian_ext):
    assert check_extension(nonabelian_ext).passed


def test_nonabelian_twisted_section(nonabelian_ext, sl2_p):
    ext = nonabelian_ext
    m = sl2_p.algebra.module
    cocycle = extract_cocycle(ext)
    assert check_nonabelian_cocycle(cocycle, sl2_p, sl2_p).passed
    # a del-dependent twist exercises the operator and action defects
    tau = ConfLinMap(
        m,
        m,
        [
            [Poly(0, {(1,): 1}), 0, 0],
            [0, 0, 2],
            [0, 0, 0],
        ],
    )
    twisted = extract_cocycle(ext, section=ext.section + ext.inc.compose(tau))
    assert check_nonabelian_cocycle(twisted, sl2_p, sl2_p).passed
    assert twisted != cocycle
    assert not twisted.phi.is_zero()
    verify, _ = cocycle_equivalence(
        cocycle, twisted, sl2_p, sl2_p, tau=tau.scale(-1)
    )
    assert verify.passed
    wrong, _ = cocycle_equivalence(cocycle, twisted, sl2_p, sl2_p, tau=tau)
    assert wrong.lines() == [
        "action: fail at=0,1 residual=[(-4*lam1)e]",
        "bracket: fail at=0,1 residual=[(-4*del - 4*lam1)e]",
        "operator: fail at=2 residual=[(-4)h]",
    ]
    # rebuilt extensions are equivalent through the shear over +tau
    e_twisted = build_extension(twisted, sl2_p, sl2_p)
    e_plain = build_extension(cocycle, sl2_p, sl2_p)
    good = check_extension_equivalence(
        e_twisted, e_plain, shear_map(e_plain, tau)
    )
    assert good.passed
    bad = check_extension_equivalence(
        e_twisted, e_plain, shear_map(e_plain, tau.scale(-1))
    )
    assert not bad.passed


def test_solve_mode_requires_abelian_kernel(nonabelian_ext, sl2_p):
    cocycle = extract_cocycle(nonabelian_ext)
    with pytest.raises(PreconditionError):
        cocycle_equivalence(cocycle, cocycle, sl2_p, sl2_p)
    # the eta of a lift, like tau, is verified on a non-abelian kernel and
    # solved for only on an abelian one
    pair = AutomorphismPair.identity(sl2_p, sl2_p)
    zero = ConfLinMap.zero(sl2_p.algebra.module, sl2_p.algebra.module)
    assert cocycle_equivalence(cocycle, cocycle, sl2_p, sl2_p, tau=zero)[0].passed
    assert inducibility(nonabelian_ext, pair, eta=zero)[0].passed
    with pytest.raises(UnsupportedModeError, match="^solving for eta needs an abelian"):
        inducibility(nonabelian_ext, pair)


def test_retraction_splits_the_inclusion(ext_km):
    retr = ext_km.retraction()
    composed = retr.compose(ext_km.inc)
    assert composed == ConfLinMap.identity(ext_km.sub.algebra.module)


def test_section_escaping_kernel_is_rejected(ext_km, sl2_id):
    # a "section" landing outside a complement of the kernel
    m = sl2_id.algebra.module
    emod = ext_km.total.algebra.module
    bad = ConfLinMap(m, emod, [[0] * 3 for _ in range(4)])
    with pytest.raises(PreconditionError):
        extract_cocycle(ext_km, section=bad)


def _action_on_torsion(vir, central_line, c_triv):
    # rho(L)_lam c = c on the torsion generator c (del c = 0)
    ab = NijenhuisLCA(LCA(vir.module), ConfLinMap.identity(vir.module))
    rho = RepTable(ab.algebra, central_line)
    rho.set_action(0, 0, [1])
    zero = ConfLinMap.zero(vir.module, central_line)
    return NonAbelianCocycle(Cochain(2, rho), rho, zero), ab, c_triv


def _chi_on_torsion(vir, central_line, c_triv):
    # chi_lam(c, c) = lam c on the torsion quotient: skew, but not sesquilinear
    chi = Cochain(2, RepTable(c_triv.algebra, central_line))
    chi.set_value((0, 0), [LAM])
    rho = RepTable(c_triv.algebra, central_line)
    zero = ConfLinMap.zero(central_line, central_line)
    return NonAbelianCocycle(chi, rho, zero), c_triv, c_triv


@pytest.mark.parametrize(
    "triple,failing",
    [
        (_action_on_torsion, "curvature: fail at=0,1 residual=[(1)c#M]"),
        (_chi_on_torsion, "chi-skew: fail at=0,0 residual=[(lam1)c#M]"),
    ],
    ids=["action", "chi"],
)
def test_brackets_on_torsion_fail_the_cocycle_check(
    vir, central_line, c_triv, triple, failing
):
    # sesquilinearity makes a bracket on a torsion generator zero; both
    # triples used to pass the check, and building the first one failed
    # only in the revalidation of the total ("underlying algebra fails
    # check_lca")
    cocycle, quot, sub = triple(vir, central_line, c_triv)
    lines = check_nonabelian_cocycle(cocycle, quot, sub).lines()
    assert [line for line in lines if not line.endswith(": pass")] == [failing]
    with pytest.raises(PreconditionError) as caught:
        build_extension(cocycle, quot, sub)
    assert str(caught.value) == "triple is not a cocycle: " + failing


def test_equivalence_is_solved_on_a_kernel_of_higher_rank():
    # H of rank 2 over L of rank 1: the residual of the action at (0, 1)
    # lies outside the basis of L, where a cochain over L refuses a key
    ws = cli.parse_workspace([os.path.join(ROOT, "tests", "rank2kernel.ws")])
    cocycle = ws.get("gf2", "cocycle")
    quot, sub = ws.get("virid", "nijenhuis"), ws.get("ctriv2id", "nijenhuis")
    report, tau = cocycle_equivalence(cocycle, cocycle, quot, sub)
    assert report.lines() == ["solve: pass"]
    assert tau == ConfLinMap.zero(quot.algebra.module, sub.algebra.module)


@pytest.mark.parametrize(
    "check",
    [
        check_nonabelian_cocycle,
        checked_extension,
        lambda c, quot, sub: cocycle_equivalence(c, c, quot, sub),
    ],
    ids=["cocycle", "extension", "equivalence"],
)
def test_a_triple_over_another_quotient_is_refused(c_km, vir_id, c_triv, check):
    # km's rho is an action of sl2, not of vir
    with pytest.raises(ModuleMismatchError, match="rho must act by the quotient"):
        check(c_km, vir_id, c_triv)


@pytest.mark.parametrize("chi_over", ["sl2", "vir"])
def test_a_triple_whose_chi_is_over_another_algebra_is_refused(
    sl2, vir, central_line, chi_over
):
    # the candidate total read such a chi at the quotient's basis pairs
    if chi_over == "sl2":
        chi, over = km_cocycle(sl2, central_line).chi, vir
    else:
        chi, over = gf_cocycle(vir, central_line).chi, sl2
    rho = RepTable(over, central_line)
    phi = ConfLinMap.zero(over.module, central_line)
    with pytest.raises(ModuleMismatchError, match="chi must be a cochain of rho's algebra"):
        NonAbelianCocycle(chi, rho, phi)
