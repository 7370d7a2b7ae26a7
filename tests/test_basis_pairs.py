"""Held equals plain: the residual loops that read their images and brackets
from one ``lca._BasisPairs`` give, on every basis pair, what the plain
formulas give when they apply each map and evaluate each bracket afresh.
So do the morphism residual and the pulled-back action, which read a
holder at the images of maps whose source it does not hold, and a holder of
a cochain, read against ``eval_cochain``.

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

from nijconf.cohomology import Cochain, _pulled_back, eval_cochain
from nijconf.deformation import DeformationSeries, _order_residuals
from nijconf.errors import ModuleMismatchError
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
from nijconf.poly import Poly, dagger

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


def _random_cochain(rng, rep, degree):
    """A cochain with a random value on most basis tuples."""
    f = Cochain(degree, rep)
    for key in product(range(rep.algebra.module.rank), repeat=degree):
        if rng.random() < 0.7:
            value = [_random_poly(rng, degree - 1, density=0.8) for _ in rep.module.basis]
            f.set_value(key, value)
    return f


def _plain_cochain_value(f, maps, key):
    """f at the images of the basis elements of ``key`` under ``maps`` (None
    for the identity), by ``eval_cochain`` at lam1, ..., lam_{n-1} and the
    dagger."""
    module = f.source.module
    args = [
        module.basis_elem(i) if m is None else m.apply(m.source.basis_elem(i))
        for m, i in zip(maps, key)
    ]
    arity = f.degree - 1
    forms = [Poly.lam(s, arity) for s in range(1, f.degree)]
    forms.append(dagger(sum(forms[1:], forms[0])))
    return eval_cochain(f, args, forms, arity)


@pytest.mark.parametrize("name", sorted(ALGEBRAS))
@pytest.mark.parametrize("seed", range(2))
def test_held_cochain_values_match_eval_cochain(name, seed):
    rng = Random(4000 * seed + len(name))
    algebra = ALGEBRAS[name]()
    module = algebra.module
    copy = _copy_rep(algebra).module
    # maps into the held module from itself and, like d : L1 -> L0, from
    # another module, zero maps among them
    maps = [None] + _operators(rng, module, module) + _operators(rng, copy, module)
    for rep in (adjoint_rep(algebra), _copy_rep(algebra)):
        for degree in (2, 3):
            f = _random_cochain(rng, rep, degree)
            held = _BasisPairs.of_cochain(f)
            chosen = [(m,) * degree for m in maps]
            chosen += [tuple(rng.choice(maps) for _ in range(degree)) for _ in range(3)]
            for choice in chosen:
                slots = [held.operator(m) for m in choice]
                ranks = [module.rank if m is None else m.source.rank for m in choice]
                for key in product(*map(range, ranks)):
                    want = _plain_cochain_value(f, choice, key).coords
                    assert held.at(*slots, *key).coords == want
                    # read again from what the holder holds
                    assert held.at(*slots, *key) is held.at(*slots, *key)


def test_maps_are_found_by_key_not_by_comparison(monkeypatch):
    module = make_sl2().module
    held = _BasisPairs.of_bracket(make_sl2())
    maps = [ConfLinMap.scalar(module, k) for k in range(200)]
    compared = []
    original = ConfLinMap.__eq__

    def counted(self, other):
        compared.append(1)
        return original(self, other)

    monkeypatch.setattr(ConfLinMap, "__eq__", counted)
    slots = [held.operator(m) for m in maps]
    assert compared == [] and slots == list(range(200))
    # an equal map built again gets the earlier slot
    assert held.operator(ConfLinMap.scalar(module, 7)) == 7
    assert held.operator(ConfLinMap.zero(module)) == 0
    # a map into a module that the holder does not hold is refused
    with pytest.raises(ModuleMismatchError):
        held.operator(ConfLinMap.identity(make_vir().module))
