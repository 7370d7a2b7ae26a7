"""The builders of Nijenhuis totals trust their own checks.

``nij_semidirect``, ``checked_extension`` and ``crossed_direct_sum`` build
their total with ``NijenhuisLCA.raw`` once ``check_nij_representation``,
``check_nonabelian_cocycle`` or ``check_crossed_module`` passes (and the
total operator is Q[del]-linear).  On seeded random data, every case that
passes the builder's check must give a total on which ``check_lca`` and
``check_nijenhuis`` pass, with a Q[del]-linear operator: everything the
validating constructor of ``NijenhuisLCA`` asks.  The cases come from
families that pass often (zero, adjoint and module actions, scalar
operators, abelian kernels, torsion generators among them), perturbed at
random so that failing cases occur too.  Each test asserts a minimum number
of passing cases, so that it cannot hold vacuously, and a minimum number of
them on a module with torsion.
"""

from fractions import Fraction
from itertools import product
from random import Random

from nijconf.cohomology import Cochain, skew_symmetrize
from nijconf.errors import PreconditionError
from nijconf.extension import (
    NonAbelianCocycle,
    check_nonabelian_cocycle,
    checked_extension,
)
from nijconf.homotopy import CrossedModule, check_crossed_module, crossed_direct_sum
from nijconf.lca import (
    FREE,
    LCA,
    ConfLinMap,
    FreeModule,
    RepTable,
    StructureTable,
    _torsion_mixing,
    check_lca,
)
from nijconf.nijenhuis import (
    NijenhuisLCA,
    NijenhuisRep,
    check_nij_representation,
    check_nijenhuis,
    nij_semidirect,
)
from nijconf.poly import Poly

from conftest import make_sl2, make_vir

MODULES = [
    FreeModule(["x"]),
    FreeModule(["c"], 0),
    FreeModule(["c", "d"], [0, 2]),
    FreeModule(["a", "c"], ["free", 0]),
]


def _poly(rng, arity, degree=1, density=0.5):
    """A sparse polynomial of total degree <= degree; zero with odds 1 - density."""
    if rng.random() > density:
        return Poly.zero(arity)
    key = [0] * (arity + 1)
    for _ in range(rng.randint(0, degree)):
        key[rng.randrange(arity + 1)] += 1
    return Poly(arity, {tuple(key): Fraction(rng.choice([-2, -1, 1, 2]))})


def _map(rng, source, target, degree=1):
    rows = [[_poly(rng, 0, degree) for _ in source.basis] for _ in target.basis]
    return ConfLinMap(source, target, rows)


def _scalar(rng, module):
    return ConfLinMap.scalar(module, rng.choice([0, 1, 2, -1]))


def _operator(rng, module):
    """A scalar operator, or a random one of del-degree <= 1."""
    return _scalar(rng, module) if rng.random() < 0.5 else _map(rng, module, module)


def _nijenhuis(rng):
    """A validated Nijenhuis algebra: sl2 with a scalar or the projection onto
    e, h; vir with a scalar; or an abelian algebra with any linear operator."""
    kind = rng.randrange(3)
    if kind == 0:
        sl2 = make_sl2()
        n = _scalar(rng, sl2.module) if rng.random() < 0.5 else (
            ConfLinMap.diagonal(sl2.module, [1, 1, 0])
        )
        return NijenhuisLCA(sl2, n)
    if kind == 1:
        vir = make_vir()
        return NijenhuisLCA(vir, _scalar(rng, vir.module))
    return _abelian(rng)


def _abelian(rng, modules=MODULES):
    """A validated abelian algebra on one of ``modules`` with a random operator."""
    module = rng.choice(modules)
    try:
        return NijenhuisLCA(LCA(module), _operator(rng, module))
    except PreconditionError:
        return _abelian(rng, modules)  # the operator mixes torsion: draw again


FREE_MODULES = [FreeModule(["x"]), FreeModule(["x", "y"])]

# modules with a free first generator, for the action of a rank-1 algebra
ACTED = [FreeModule(["m"]), FreeModule(["m", "c"], ["free", 0])]


def _module_action(rng, algebra, module):
    """rho(e_0)_lam m = (del + k lam) m + (random) c: vir's module on the free
    generator m, with a random coordinate on the other generators."""
    rep = RepTable(algebra, module)
    value = [Poly.del_(1) + Poly.lam(1, 1).scale(rng.choice([1, 2]))]
    rep.set_action(0, 0, value + [_poly(rng, 1) for _ in module.basis[1:]])
    return rep


def _perturb(rng, table, odds=0.3):
    """With the given odds, add a random value to one entry of ``table``."""
    rows, cols, width = table.shape
    if rng.random() < odds:
        i, j = rng.randrange(rows), rng.randrange(cols)
        noise = [_poly(rng, 1, density=1.0)] + [Poly.zero(1)] * (width - 1)
        rng.shuffle(noise)
        table.set(i, j, [a + b for a, b in zip(table.get(i, j), noise)])


def _torsion(module):
    return any(action != FREE for action in module.actions)


def _run(cases, check, build):
    """Build the total of every case that passes ``check``, assert that it is
    a Nijenhuis LCA, and return the number of (passing, torsion) cases."""
    passing = torsion = 0
    for case in cases:
        if not check(*case).passed:
            continue
        try:
            total = build(*case)
        except PreconditionError as refusal:
            assert "is not Q[del]-linear" in str(refusal)
            continue
        algebra, n = total.algebra, total.n
        assert not _torsion_mixing(n), case
        assert check_lca(algebra).passed, case
        assert check_nijenhuis(algebra, n).passed, case
        passing += 1
        torsion += _torsion(algebra.module)
    return passing, torsion


# -- nij_semidirect ------------------------------------------------------------


def _semidirect_case(rng):
    nlca = _nijenhuis(rng)
    algebra = nlca.algebra
    kind = rng.randrange(4)
    if kind == 0:  # the adjoint representation
        module, table = algebra.module, algebra.table
        action = StructureTable(*table.shape, table.entries)
        n_m = nlca.n if rng.random() < 0.5 else _operator(rng, module)
    elif kind == 1 and algebra.module.rank == 1:
        module = rng.choice(ACTED)
        action = _module_action(rng, algebra, module).action
        n_m = _operator(rng, module)
    else:  # the zero action
        module = rng.choice(MODULES)
        action, n_m = RepTable(algebra, module).action, _operator(rng, module)
    _perturb(rng, action)
    return nlca, NijenhuisRep(RepTable(algebra, module, action), n_m)


def test_a_passing_nij_representation_gives_a_nijenhuis_semidirect_product():
    rng = Random(1)
    cases = [_semidirect_case(rng) for _ in range(60)]
    passing, torsion = _run(cases, check_nij_representation, nij_semidirect)
    assert passing >= 20 and torsion >= 5, (passing, torsion)


# -- crossed_direct_sum --------------------------------------------------------


def _crossed_case(rng):
    kind = rng.randrange(4)
    # constants act on any algebra by the representation of an abelian one
    lower = _abelian(rng, FREE_MODULES) if kind == 3 else _nijenhuis(rng)
    algebra = lower.algebra
    if kind == 0:  # the adjoint action on the algebra itself, t = identity
        module, table = algebra.module, algebra.table
        upper = NijenhuisLCA.raw(algebra, rng.choice([lower.n, _operator(rng, module)]))
        t = ConfLinMap.identity(module)
        action = StructureTable(*table.shape, table.entries)
    elif kind < 3:  # an abelian upper algebra, t = 0 or a random map
        module = rng.choice(MODULES)
        upper = NijenhuisLCA.raw(LCA(module), _operator(rng, module))
        t = ConfLinMap.zero(module, algebra.module)
        if kind == 2:
            t = _map(rng, module, algebra.module, degree=0)
        action = RepTable(algebra, module).action
    else:  # e_i acting on any upper algebra by a constant, t = 0: a
        # representation, which acts by derivations only on an abelian one
        upper = _nijenhuis(rng)
        module = upper.algebra.module
        t = ConfLinMap.zero(module, algebra.module)
        rep = RepTable(algebra, module)
        for i in range(algebra.module.rank):
            k = rng.choice([0, 1, 2])
            for j in range(module.rank):
                rep.set_action(i, j, [k * (r == j) for r in range(module.rank)])
        action = rep.action
    _perturb(rng, action, odds=0.2)
    try:
        return CrossedModule(lower, upper, t, RepTable(algebra, module, action))
    except PreconditionError:
        return _crossed_case(rng)  # t mixes torsion: draw again


def test_a_passing_crossed_module_gives_a_nijenhuis_direct_sum():
    rng = Random(2)
    cases = [(_crossed_case(rng),) for _ in range(80)]
    passing, torsion = _run(cases, check_crossed_module, crossed_direct_sum)
    assert passing >= 20 and torsion >= 5, (passing, torsion)


# -- checked_extension ---------------------------------------------------------


def _chi(rng, quot, h_mod):
    """Zero, a random skew cochain, or vir's lam^3 or sl2's lam kappa on one
    generator of H."""
    l_alg = quot.algebra
    rank = l_alg.module.rank
    chi = Cochain(2, RepTable(l_alg, h_mod))
    kind = rng.randrange(3)
    if kind == 1:
        for i, j in product(range(rank), repeat=2):
            chi.set_value((i, j), [_poly(rng, 1, density=0.4) for _ in h_mod.basis])
        return skew_symmetrize(chi)
    if kind == 2 and rank in (1, 3):
        lam, column = Poly.lam(1, 1), rng.randrange(h_mod.rank)
        central = {(0, 0): lam ** 3} if rank == 1 else {
            (0, 2): lam, (2, 0): lam, (1, 1): lam.scale(2)
        }
        for pair, value in central.items():
            coords = [Poly.zero(1)] * h_mod.rank
            coords[column] = value
            chi.set_value(pair, coords)
    return chi


def _extension_case(rng):
    quot = _nijenhuis(rng)
    l_mod = quot.algebra.module
    if l_mod.rank == 1 and rng.random() < 0.5:
        sub = _abelian(rng, ACTED)
        rho = _module_action(rng, quot.algebra, sub.algebra.module)
    else:
        sub = _nijenhuis(rng) if rng.random() < 0.2 else _abelian(rng)
        rho = RepTable(quot.algebra, sub.algebra.module)
    h_mod = sub.algebra.module
    _perturb(rng, rho.action, odds=0.2)
    phi = ConfLinMap.zero(l_mod, h_mod)
    if rng.random() < 0.5:
        phi = _map(rng, l_mod, h_mod)
    return NonAbelianCocycle(_chi(rng, quot, h_mod), rho, phi), quot, sub


def _built_extension(cocycle, quot, sub):
    return checked_extension(cocycle, quot, sub)[1].total


def test_a_passing_cocycle_report_gives_a_nijenhuis_extension():
    rng = Random(3)
    cases = [_extension_case(rng) for _ in range(90)]
    passing, torsion = _run(cases, check_nonabelian_cocycle, _built_extension)
    assert passing >= 20 and torsion >= 5, (passing, torsion)
