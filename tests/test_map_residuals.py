"""The tau of an equivalence and the eta of a lift read one residual.

``extension._map_residuals`` is the residual of "gamma : E1 -> E2 is a
Nijenhuis morphism" on the arguments of E1's diagram.  The equivalence of
two triples reads it for the shear (p, h) -> (p, h + tau p), in H; a lift
reads it for gamma itself.  Here both are compared, dict for dict, with
test-local references that write the three identities out by hand: the
shear's in H with ``act_form`` and ``dagger``, the lift's with
``eval_bracket``.  The extensions are the current-algebra and Virasoro
central extensions, the non-abelian crossed direct sum of adjoint sl2, and
vir by a rank-2 trivial kernel, whose (L, H) keys index past the basis of
L; tau and eta are seeded random maps with del-dependent entries.
"""

import os
from fractions import Fraction
from itertools import product
from random import Random

import pytest

from nijconf import cli, wells
from nijconf.cohomology import act_form
from nijconf.extension import ExtensionData, _equivalence_residuals, extract_cocycle
from nijconf.homotopy import CrossedModule, crossed_direct_sum
from nijconf.lca import ConfLinMap, RepTable, eval_bracket
from nijconf.nijenhuis import NijenhuisLCA
from nijconf.poly import Poly, dagger
from nijconf.wells import AutomorphismPair

from conftest import make_sl2
from test_cli import CORE, ROOT

RANK2 = os.path.join(ROOT, "tests", "rank2kernel.ws")
SEEDS = range(3)


def _nonabelian():
    """sl2 with N = diag(1, 1, 0) extended by itself through the adjoint
    crossed module with d = id."""
    sl2 = make_sl2()
    sl2_p = NijenhuisLCA(sl2, ConfLinMap.diagonal(sl2.module, [1, 1, 0]))
    ad = RepTable(sl2, sl2.module, sl2.table)
    total = crossed_direct_sum(
        CrossedModule(sl2_p, sl2_p, ConfLinMap.identity(sl2.module), ad)
    )
    e_mod = total.algebra.module

    def unit(rows, cols, shift):
        return [[Fraction(r == c + shift) for c in range(cols)] for r in range(rows)]

    inc = ConfLinMap(sl2.module, e_mod, unit(6, 3, 3))
    proj = ConfLinMap(e_mod, sl2.module, unit(3, 6, 0))
    section = ConfLinMap(sl2.module, e_mod, unit(6, 3, 0))
    return ExtensionData(total, sl2_p, sl2_p, inc, proj, section), []


def _from_workspace(path, name, pairs=()):
    ws = cli.parse_workspace([path])
    return ws.get(name, "extension"), [ws.get(pair, "pair") for pair in pairs]


CASES = {
    "kmext": lambda: _from_workspace(CORE, "kmext", ["wellsgood"]),
    "gfext": lambda: _from_workspace(CORE, "gfext"),
    "nonabelian": _nonabelian,
    "rank2-kernel": lambda: _from_workspace(RANK2, "gf2ext"),
}


def _random_map(rng, source, target):
    """A map whose entries have random coefficients of 1, del and del^2."""
    return ConfLinMap(source, target, [
        [Poly(0, {(e,): rng.randint(-2, 2) for e in range(3)}) for _ in range(source.rank)]
        for _ in range(target.rank)
    ])


def _nonzero(residuals):
    return [{key: v for key, v in res.items() if not v.is_zero()} for res in residuals]


def _reference_equivalence(c1, c2, quot, sub, tau):
    """The three equivalence identities, in H, term by term."""
    l_alg, h_alg = quot.algebra, sub.algebra
    l_mod, h_mod = l_alg.module, h_alg.module
    lam1 = Poly.lam(1, 1)
    action, bracket, operator = {}, {}, {}
    for i in range(l_mod.rank):
        p = l_mod.basis_elem(i)
        tp = tau.apply(p)
        for j in range(h_mod.rank):
            action[i, j] = (
                c1.rho.act_basis(i, j)
                - c2.rho.act_basis(i, j)
                - act_form(h_alg.table, h_mod, tp, h_mod.basis_elem(j), lam1, 1)
            )
        for j in range(l_mod.rank):
            q = l_mod.basis_elem(j)
            tq = tau.apply(q)
            bracket[i, j] = (
                c1.chi.value((i, j))
                - c2.chi.value((i, j))
                - act_form(h_alg.table, h_mod, tp, tq, lam1, 1)
                + tau.apply(l_alg.bracket_basis(i, j))
                - act_form(c2.rho.action, h_mod, p, tq, lam1, 1)
                + act_form(c2.rho.action, h_mod, q, tp, dagger(lam1), 1)
            )
    defect = c1.phi - c2.phi - sub.n.compose(tau) + tau.compose(quot.n)
    for i in range(l_mod.rank):
        operator[i,] = defect.apply(l_mod.basis_elem(i))
    return action, bracket, operator


def _reference_lift(ext, gamma):
    """The morphism defect of gamma on (section, inclusion) and (section,
    section) pairs, and gamma R - R gamma on the section images."""
    algebra = ext.total.algebra
    l_mod, h_mod = ext.quot.algebra.module, ext.sub.algebra.module
    sections = [ext.section.apply(l_mod.basis_elem(i)) for i in range(l_mod.rank)]
    included = [ext.inc.apply(h_mod.basis_elem(j)) for j in range(h_mod.rank)]

    def defect(x, y):
        lhs = gamma.apply(eval_bracket(algebra, x, y))
        return lhs - eval_bracket(algebra, gamma.apply(x), gamma.apply(y))

    operator = gamma.compose(ext.total.n) - ext.total.n.compose(gamma)
    return (
        {(i, j): defect(sections[i], included[j])
         for i, j in product(range(l_mod.rank), range(h_mod.rank))},
        {(i, j): defect(sections[i], sections[j])
         for i, j in product(range(l_mod.rank), repeat=2)},
        {(i,): operator.apply(x) for i, x in enumerate(sections)},
    )


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("case", sorted(CASES))
def test_equivalence_residuals_equal_the_reference(case, seed):
    ext, _ = CASES[case]()
    rng = Random(seed)
    l_mod, h_mod = ext.quot.algebra.module, ext.sub.algebra.module
    shift = ext.inc.compose(_random_map(rng, l_mod, h_mod))
    c1 = extract_cocycle(ext)
    c2 = extract_cocycle(ext, section=ext.section + shift)
    tau = _random_map(rng, l_mod, h_mod)
    found = _nonzero(_equivalence_residuals(c1, c2, ext.quot, ext.sub)(tau))
    assert any(found)
    assert found == _nonzero(_reference_equivalence(c1, c2, ext.quot, ext.sub, tau))


@pytest.mark.parametrize("second_section", [False, True], ids=["section", "second"])
@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("case", sorted(CASES))
def test_lift_residuals_equal_the_reference(case, seed, second_section):
    ext, pairs = CASES[case]()
    if second_section:
        section = wells._second_section(ext)
        ext = ExtensionData(ext.total, ext.sub, ext.quot, ext.inc, ext.proj, section)
    rng = Random(seed)
    l_mod, h_mod = ext.quot.algebra.module, ext.sub.algebra.module
    for pair in [AutomorphismPair.identity(ext.quot, ext.sub)] + pairs:
        eta = _random_map(rng, l_mod, h_mod)
        found = _nonzero(wells._eta_residuals(ext, pair)(eta))
        assert any(found)
        gamma = wells.lift_map(ext, pair, eta)
        assert found == _nonzero(_reference_lift(ext, gamma))
