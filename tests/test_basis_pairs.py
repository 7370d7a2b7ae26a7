"""Held equals plain: the residual loops that read their images and brackets
from one ``lca._BasisPairs`` give, on every basis pair, what the plain
formulas give when they apply each map and evaluate each bracket afresh.
So do the morphism residual and the pulled-back action, which read a
holder at the images of maps whose source it does not hold.

The references below are those plain formulas, written with
``eval_bracket``, ``RepTable.act`` and ``ConfLinMap.apply``.  The operators
are seeded: the identity, idempotents, scalars, random constant matrices and
random del-polynomial matrices that are Q[del]-linear on the torsion, over
sl2, vir and sl2 (+) a central line on which del acts by 2.
"""

from fractions import Fraction
from functools import partial
from itertools import product
from random import Random

import pytest

from nijconf.cohomology import _pulled_back
from nijconf.deformation import DeformationSeries, _order_residuals
from nijconf.lca import (
    FREE,
    LCA,
    ConfLinMap,
    FreeModule,
    RepTable,
    _BasisPairs,
    _morphism,
    adjoint_rep,
    eval_bracket,
)
from nijconf.nijenhuis import NijenhuisLCA, _deformed_action, _nijenhuis
from nijconf.poly import Poly

from conftest import make_sl2, make_vir
from test_axiom_orbits import _random_poly


def _sl2_and_line():
    """sl2 (+) a central line c on which del acts by 2."""
    sl2 = make_sl2()
    algebra = LCA(FreeModule(["e", "h", "f", "c"], [FREE, FREE, FREE, 2]))
    for (i, j), value in sl2.table.entries.items():
        algebra.set_bracket(i, j, list(value) + [Poly.zero(1)])
    return algebra


def _copy_rep(algebra):
    """The adjoint action of ``algebra`` on a module with other basis names,
    so that the holder keeps the two modules' elements apart."""
    module = algebra.module
    copy = FreeModule([name + "'" for name in module.basis], module.actions)
    return RepTable(algebra, copy, algebra.table)


def _random_operator(rng, source, target, degree):
    """A map with entries of del-degree <= ``degree``, zero wherever it would
    send a torsion generator onto a generator with another del action."""
    rows = []
    for s in range(target.rank):
        row = []
        for t in range(source.rank):
            torsion = source.actions[t]
            mixing = torsion != FREE and target.actions[s] != torsion
            row.append(Poly.zero(0) if mixing else _random_poly(rng, 0, degree, 0.6))
        rows.append(row)
    return ConfLinMap(source, target, rows)


def _operators(rng, source, target):
    """Seeded operators from ``source`` to ``target``; the idempotents and
    the identity exist only on an endomorphism."""
    ops = [ConfLinMap.zero(source, target)]
    if source == target:
        rank = source.rank
        ops += [
            ConfLinMap.identity(source),
            ConfLinMap.scalar(source, rng.choice([-2, 3, Fraction(1, 2)])),
            ConfLinMap.diagonal(source, [1] * (rank - 1) + [0]),
            ConfLinMap.diagonal(source, [0] + [1] * (rank - 1)),
        ]
    ops += [_random_operator(rng, source, target, 0) for _ in range(2)]
    return ops + [_random_operator(rng, source, target, 2) for _ in range(2)]


def _plain_deformed(bracket, n_a, n_b, n_out, a, b):
    deformed = bracket(n_a.apply(a), b) + bracket(a, n_b.apply(b))
    return deformed - n_out.apply(bracket(a, b))


def _plain_nijenhuis(bracket, n, n_m, left, right):
    lhs = bracket(n.apply(left), n_m.apply(right))
    return lhs - n_m.apply(_plain_deformed(bracket, n, n_m, n_m, left, right))


def _plain_order_residuals(series, n):
    module = series.base.algebra.module
    bracket = partial(eval_bracket, series.base.algebra)
    maps = [series.term(i) for i in range(n + 1)]
    residuals = {}
    for a, b in product(range(module.rank), repeat=2):
        pa, qb = module.basis_elem(a), module.basis_elem(b)
        lhs = rhs = module.zero(1)
        for left, right in zip(maps, reversed(maps)):
            lhs = lhs + bracket(left.apply(pa), right.apply(qb))
            rhs = rhs + left.apply(_plain_deformed(bracket, right, right, right, pa, qb))
        residuals[a, b] = lhs - rhs
    return residuals


def _coords(residuals):
    return {key: (value.module.basis, value.coords) for key, value in residuals.items()}


def _pairs(rep):
    return product(range(rep.algebra.module.rank), range(rep.module.rank))


def _held_residuals(held, rep, n, n_m):
    n, n_m = held.operator(n), held.operator(n_m)
    return {(i, j): _nijenhuis(held, n, n_m, i, j) for i, j in _pairs(rep)}


def _plain_residuals(rep, n, n_m, evaluate):
    algebra, module = rep.algebra.module, rep.module
    return {
        (i, j): _plain_nijenhuis(
            evaluate, n, n_m, algebra.basis_elem(i), module.basis_elem(j)
        )
        for i, j in _pairs(rep)
    }


ALGEBRAS = {"sl2": make_sl2, "vir": make_vir, "sl2+line": _sl2_and_line}


@pytest.mark.parametrize("name", sorted(ALGEBRAS))
@pytest.mark.parametrize("seed", range(3))
def test_held_nijenhuis_residuals_match_the_plain_formula(name, seed):
    rng = Random(1000 * seed + len(name))
    algebra = ALGEBRAS[name]()
    adjoint = adjoint_rep(algebra)
    ops = _operators(rng, algebra.module, algebra.module)
    # over the bracket, every operator in one holder
    bracket = _BasisPairs.of_bracket(algebra)
    for n in ops:
        plain = _plain_residuals(adjoint, n, n, partial(eval_bracket, algebra))
        assert _coords(_held_residuals(bracket, adjoint, n, n)) == _coords(plain)
    # over an action, on the algebra's own module and on a copy of it
    for rep in (adjoint, _copy_rep(algebra)):
        shared = _BasisPairs.of_action(rep)
        on_module = _operators(rng, rep.module, rep.module)
        for n, n_m in zip(ops, on_module):
            plain = _coords(_plain_residuals(rep, n, n_m, rep.act))
            assert _coords(_held_residuals(shared, rep, n, n_m)) == plain
            fresh = _BasisPairs.of_action(rep)
            assert _coords(_held_residuals(fresh, rep, n, n_m)) == plain
            table = _deformed_action(rep, n, n_m)
            assert table == _plain_deformed_table(rep, n, n_m)


def _plain_deformed_table(rep, n, n_m):
    algebra, module = rep.algebra.module, rep.module
    out = RepTable(rep.algebra, module).action
    for i, j in _pairs(rep):
        value = _plain_deformed(
            rep.act, n, n_m, n_m, algebra.basis_elem(i), module.basis_elem(j)
        )
        out.set(i, j, value.coords)
    return out


@pytest.mark.parametrize("name", sorted(ALGEBRAS))
@pytest.mark.parametrize("seed", range(3))
def test_held_order_residuals_match_the_plain_formula(name, seed):
    rng = Random(2000 * seed + len(name))
    algebra = ALGEBRAS[name]()
    module = algebra.module
    ops = _operators(rng, module, module)
    for order in (1, 2):
        base = NijenhuisLCA.raw(algebra, rng.choice(ops))
        series = DeformationSeries(base, [rng.choice(ops) for _ in range(order)])
        for n in range(order + 2):
            want = _coords(_plain_order_residuals(series, n))
            assert _coords(_order_residuals(series, n)) == want
            # read again from what the series holds
            assert _coords(_order_residuals(series, n)) == want
        # an edited term rebuilds what the series holds
        series.terms[0] = rng.choice(ops[-4:])
        for n in range(order + 2):
            want = _coords(_plain_order_residuals(series, n))
            assert _coords(_order_residuals(series, n)) == want


def test_equal_arguments_share_one_held_element():
    algebra = _sl2_and_line()
    module = algebra.module
    held = _BasisPairs.of_bracket(algebra)
    identity = held.operator(ConfLinMap.identity(module))
    # an equal map built again gets the same slot
    assert held.operator(ConfLinMap.identity(module)) == identity
    assert [held.image(identity, i) for i in range(4)] == [0, 1, 2, 3]
    projection = held.operator(ConfLinMap.diagonal(module, [1, 1, 0, 0]))
    zero = held.operator(ConfLinMap.zero(module))
    images = [held.image(projection, i) for i in range(4)]
    assert images[:2] == [0, 1] and images[2] == images[3] == 4
    assert {held.image(zero, i) for i in range(4)} == {4}
    assert len(held.elements[0]) == 5 and held.elements[0][4].is_zero()
    # the bracket of held elements is read once, and basis pairs off the table
    assert held.at(None, None, 0, 2) is held.at(None, None, 0, 2)
    assert held.at(None, None, 0, 2).coords == eval_bracket(
        algebra, module.basis_elem(0), module.basis_elem(2)
    ).coords


@pytest.mark.parametrize("name", sorted(ALGEBRAS))
@pytest.mark.parametrize("seed", range(3))
def test_held_morphism_residuals_match_the_plain_formula(name, seed):
    rng = Random(3000 * seed + len(name))
    algebra = ALGEBRAS[name]()
    module, rep = algebra.module, _copy_rep(algebra)
    copy = rep.module
    held = _BasisPairs.of_bracket(algebra)
    # a morphism of algebras, and the intertwining of the action on a copy
    # with the bracket, through maps from the copy, which held does not hold
    for f, d in zip(_operators(rng, module, module), _operators(rng, copy, module)):
        cases = [
            (algebra.bracket_basis, f, f, f, module),
            (rep.act_basis, d, None, d, copy),
        ]
        for source, out, left, right, right_module in cases:
            residual = _morphism(source, held, out, left, right)
            for i, j in product(range(module.rank), range(right_module.rank)):
                x = module.basis_elem(i)
                x = x if left is None else left.apply(x)
                y = right.apply(right_module.basis_elem(j))
                want = out.apply(source(i, j)) - eval_bracket(algebra, x, y)
                assert residual(i, j).coords == want.coords
        # the action of the module, and of a zero bracket on the copy,
        # pulled back through f and d
        for mapping, pulling in ((f, algebra), (d, LCA(copy))):
            pulled = _pulled_back(adjoint_rep(algebra), mapping, pulling)
            for i, j in product(range(pulling.module.rank), range(module.rank)):
                x = mapping.apply(pulling.module.basis_elem(i))
                want = eval_bracket(algebra, x, module.basis_elem(j))
                assert pulled.act_basis(i, j).coords == want.coords
