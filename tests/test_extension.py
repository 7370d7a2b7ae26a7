from fractions import Fraction

import pytest

from nijconf.cohomology import Cochain
from nijconf.errors import PreconditionError
from nijconf.extension import (
    ExtensionData,
    NonAbelianCocycle,
    build_extension,
    check_extension,
    check_extension_equivalence,
    check_nonabelian_cocycle,
    cocycle_equivalence,
    extract_cocycle,
    shear_map,
)
from nijconf.homotopy import CrossedModule, crossed_direct_sum
from nijconf.lca import LCA, ConfLinMap, FreeModule, RepTable
from nijconf.nijenhuis import NijenhuisLCA
from nijconf.poly import Poly

from conftest import LAM


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
