"""Shared fixtures: the rank-1 Virasoro-type algebra, the sl2 current
algebra with its projection operator, evaluation coefficient lines, and the
standard central extensions built from them."""

import sys
from collections import Counter
from fractions import Fraction

import pytest

from nijconf.cohomology import Cochain
from nijconf.extension import NonAbelianCocycle, build_extension
from nijconf.lca import LCA, ConfLinMap, FreeModule, RepTable
from nijconf.nijenhuis import NijenhuisLCA
from nijconf.poly import Poly

LAM = Poly(1, {(0, 1): 1})
DEL = Poly(1, {(1, 0): 1})


def count_calls(monkeypatch, function, key=lambda *args: None):
    """Count the calls of ``function`` made through any nijconf module's
    binding of it, per ``key`` of the positional arguments."""
    counts = Counter()

    def counted(*args, **kwargs):
        counts[key(*args)] += 1
        return function(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "nijconf":
            for attr, value in list(vars(module).items()):
                if value is function:
                    monkeypatch.setattr(module, attr, counted)
    return counts


def _holds(owner):
    """What ``owner`` holds through `lca._held`, by key: each entry of its
    ``_plans`` is (sources, what was built from them)."""
    return {key: built for key, (_, built) in (owner._plans or {}).items()}


def _plan_keys(owner):
    """The keys of what ``owner`` holds, but for a cochain's skew verdict
    (see `cohomology._is_skew`), in the order they were first held."""
    return [key for key in _holds(owner) if key != "skew"]


def make_vir():
    vm = FreeModule(["L"])
    vir = LCA(vm)
    vir.set_bracket(0, 0, [DEL + LAM.scale(2)])
    return vir


def make_sl2():
    m = FreeModule(["e", "h", "f"])
    alg = LCA(m)
    alg.set_bracket(0, 1, [-2, 0, 0])
    alg.set_bracket(1, 0, [2, 0, 0])
    alg.set_bracket(0, 2, [0, 1, 0])
    alg.set_bracket(2, 0, [0, -1, 0])
    alg.set_bracket(1, 2, [0, 0, -2])
    alg.set_bracket(2, 1, [0, 0, 2])
    return alg


@pytest.fixture(scope="session")
def vir():
    return make_vir()


@pytest.fixture(scope="session")
def vir_id(vir):
    return NijenhuisLCA(vir, ConfLinMap.identity(vir.module))


@pytest.fixture(scope="session")
def sl2():
    return make_sl2()


@pytest.fixture(scope="session")
def proj_p(sl2):
    return ConfLinMap.diagonal(sl2.module, [1, 1, 0])


@pytest.fixture(scope="session")
def sl2_p(sl2, proj_p):
    return NijenhuisLCA(sl2, proj_p)


@pytest.fixture(scope="session")
def sl2_id(sl2):
    return NijenhuisLCA(sl2, ConfLinMap.identity(sl2.module))


@pytest.fixture(scope="session")
def central_line():
    # rank-1 evaluation module: del acts by 0
    return FreeModule(["c"], 0)


@pytest.fixture(scope="session")
def c_triv(central_line):
    return NijenhuisLCA(LCA(central_line), ConfLinMap.identity(central_line))


def km_cocycle(sl2, central_line):
    """The level-one current-algebra cocycle chi_lam(a, b) = lam kappa(a, b)."""
    rep = RepTable(sl2, central_line)
    chi = Cochain(2, rep)
    for (i, j), v in {(0, 2): 1, (2, 0): 1, (1, 1): 2}.items():
        chi.set_value((i, j), [LAM.scale(Fraction(v))])
    return NonAbelianCocycle(
        chi, RepTable(sl2, central_line), ConfLinMap.zero(sl2.module, central_line)
    )


def gf_cocycle(vir, central_line):
    """The central cocycle chi_lam(L, L) = lam^3 c."""
    rep = RepTable(vir, central_line)
    chi = Cochain(2, rep)
    chi.set_value((0, 0), [LAM ** 3])
    return NonAbelianCocycle(
        chi, RepTable(vir, central_line), ConfLinMap.zero(vir.module, central_line)
    )


@pytest.fixture(scope="session")
def c_km(sl2, central_line):
    return km_cocycle(sl2, central_line)


@pytest.fixture(scope="session")
def ext_km(c_km, sl2_id, c_triv):
    return build_extension(c_km, sl2_id, c_triv)


@pytest.fixture(scope="session")
def c_gf(vir, central_line):
    return gf_cocycle(vir, central_line)


@pytest.fixture(scope="session")
def ext_gf(c_gf, vir_id, c_triv):
    return build_extension(c_gf, vir_id, c_triv)


@pytest.fixture(scope="session")
def ext_free(vir_id):
    """vir extended by the free abelian line h through the zero cocycle: E
    is free of rank 2, so multiplying a map by del changes it."""
    hm = FreeModule(["h"])
    h = NijenhuisLCA(LCA(hm), ConfLinMap.identity(hm))
    cocycle = NonAbelianCocycle(
        Cochain(2, RepTable(vir_id.algebra, hm)),
        RepTable(vir_id.algebra, hm),
        ConfLinMap.zero(vir_id.algebra.module, hm),
    )
    return build_extension(cocycle, vir_id, h)


def abelian_shear_fixture(central_line, c_triv):
    """Rank-2 abelian quotient with N = diag(1, 2) and a symmetric central
    2-cochain; admits non-trivial shear automorphisms of the extension."""
    am = FreeModule(["a", "b"])
    ab = LCA(am)
    ab_n = NijenhuisLCA(ab, ConfLinMap.diagonal(am, [1, 2]))
    rep = RepTable(ab, central_line)
    chi = Cochain(2, rep)
    chi.set_value((0, 1), [LAM])
    chi.set_value((1, 0), [LAM])
    cocycle = NonAbelianCocycle(
        chi, RepTable(ab, central_line), ConfLinMap.zero(am, central_line)
    )
    return ab_n, cocycle, build_extension(cocycle, ab_n, c_triv)


@pytest.fixture(scope="session")
def shear_setup(central_line, c_triv):
    return abelian_shear_fixture(central_line, c_triv)
