"""The support-only evaluators against the dense ones they replaced.

``sesqui_eval``, ``eval_cochain`` and ``dagger_substitute`` touch only the
nonzero coordinates of their arguments; ``tests/reference_eval.py`` keeps
the dense versions that lift, substitute and scan everything.  Both must
give the same coordinates, at the same arity, and print the same, on
arguments with zero and all-zero coordinates, of mixed arities, over free,
evaluation and mixed modules, and for cochains of degree 0 to 3.  The
coboundaries, planned once and evaluated on the outputs a cochain's support
reaches, must equal the per-cochain coboundary of the reference on every
output tuple, or on a subset of them.  The table builders, which share one
loop over the basis tuples, must equal the copies that each had their own.
"""

from fractions import Fraction
from itertools import combinations_with_replacement, product
from random import Random

import pytest
from hypothesis import given, settings, strategies as st

import reference_eval
from conftest import make_sl2, make_vir
from nijconf.cohomology import (
    MAX_DEGREE,
    Cochain,
    _Coboundary,
    _differential,
    adjoint_rep,
    circ_insert,
    cup_product,
    eval_cochain,
    random_cochain,
    skew_symmetrize,
    xi_map,
)
from nijconf.lca import (
    FREE,
    LCA,
    ConfLinMap,
    Elem,
    FreeModule,
    RepTable,
    StructureTable,
    dagger_substitute,
    sesqui_eval,
)
from nijconf.nijenhuis import deformed_table
from nijconf.poly import Poly

_coeffs = st.one_of(
    st.integers(-3, 3), st.fractions(min_value=-2, max_value=2, max_denominator=3)
).filter(bool)
_scalars = st.sampled_from([0, 2, Fraction(-1, 2)])


def _polys(arity):
    """Nonzero polynomials at ``arity``, the constant 1 among them."""
    keys = st.tuples(*([st.integers(0, 2)] * (arity + 1)))
    return st.one_of(
        st.just(Poly.one(arity)),
        st.dictionaries(keys, _coeffs, min_size=1, max_size=3).map(
            lambda terms: Poly(arity, terms)
        ),
    )


@st.composite
def _modules(draw, max_rank=3):
    """A free, an evaluation or a mixed module."""
    rank = draw(st.integers(1, max_rank))
    actions = draw(
        st.one_of(
            st.just(FREE),
            _scalars,
            st.lists(st.one_of(st.just(FREE), _scalars), min_size=rank, max_size=rank),
        )
    )
    return FreeModule(["g%d" % t for t in range(rank)], actions)


@st.composite
def _elems(draw, module, arity):
    """An element of ``module`` at ``arity`` on a drawn support: zero when
    the support is empty, a multiple of one generator, or denser."""
    support = draw(st.sets(st.integers(0, module.rank - 1)))
    return Elem(
        module,
        [
            draw(_polys(arity)) if t in support else Poly.zero(arity)
            for t in range(module.rank)
        ],
    )


@st.composite
def _tables(draw, rank_a, rank_b, rank_out):
    table = StructureTable(rank_a, rank_b, rank_out)
    for i, j in product(range(rank_a), range(rank_b)):
        if draw(st.booleans()):
            table.set(i, j, draw(_elems(FreeModule(range(rank_out)), 1)).coords)
    return table


def _assert_same(fast, reference):
    assert fast.module == reference.module
    assert [c.arity for c in fast.coords] == [c.arity for c in reference.coords]
    assert [c.terms for c in fast.coords] == [c.terms for c in reference.coords]
    assert repr(fast) == repr(reference)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_sesqui_eval_matches_the_dense_reference(data):
    left, right, target = (data.draw(_modules()) for _ in range(3))
    table = data.draw(_tables(left.rank, right.rank, target.rank))
    arity = data.draw(st.integers(1, 3))
    a = data.draw(_elems(left, data.draw(st.integers(0, arity))))
    b = data.draw(_elems(right, data.draw(st.integers(0, arity))))
    form = data.draw(
        st.one_of(
            st.integers(1, arity).map(lambda k: Poly.lam(k, arity)), _polys(arity)
        )
    )
    _assert_same(
        sesqui_eval(table, target, a, b, form, arity),
        reference_eval.sesqui_eval(table, target, a, b, form, arity),
    )


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_eval_cochain_matches_the_dense_reference(data):
    source, target = data.draw(_modules()), data.draw(_modules())
    degree = data.draw(st.integers(0, 3))
    f = Cochain(degree, RepTable(LCA(source), target))
    value_arity = max(degree - 1, 0)
    for key in product(range(source.rank), repeat=degree):
        if data.draw(st.booleans()):
            f.set_value(key, data.draw(_elems(target, value_arity)))
    arity = data.draw(st.integers(max(degree, 1), 3))
    args = [
        data.draw(_elems(source, data.draw(st.integers(0, arity))))
        for _ in range(degree)
    ]
    forms = [
        data.draw(st.one_of(st.just(Poly.lam(k + 1, arity)), _polys(arity)))
        for k in range(degree)
    ]
    _assert_same(
        eval_cochain(f, args, forms, arity),
        reference_eval.eval_cochain(f, args, forms, arity),
    )


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_dagger_substitute_matches_the_dense_reference(data):
    module = data.draw(_modules())
    elem = data.draw(_elems(module, data.draw(st.integers(0, 3))))
    slot = data.draw(st.integers(1, 3))
    _assert_same(
        dagger_substitute(elem, slot), reference_eval.dagger_substitute(elem, slot)
    )


# ---------------------------------------------------------------------------
# the planned coboundary against the coboundary evaluated cochain by cochain


def _line_rep(algebra, entry):
    """``algebra`` acting on a free line v by [x_lam v] = entry * v."""
    rep = RepTable(algebra, FreeModule(["v"]))
    for i in range(algebra.module.rank):
        rep.set_action(i, 0, [entry])
    return rep


def _reps():
    """(name, rep, structure operator N, coefficient operator N_M) of each
    case; N_M is N on adjoint coefficients."""
    sl2, vir = make_sl2(), make_vir()
    lam, dl = Poly.lam(1, 1), Poly.del_(1)
    proj = ConfLinMap.diagonal(sl2.module, [1, 1, 0])
    shear = ConfLinMap(sl2.module, sl2.module, [[1, 0, 0], [2, 1, 0], [0, Poly.del_(0), 3]])
    # [x lam c] = c with del acting on c by 0: torsion that is not central,
    # so an image on one tuple says nothing about its permutations
    torsion = LCA(FreeModule(["x", "c"], [FREE, 0]))
    torsion.set_bracket(0, 1, [0, 1])
    torsion.set_bracket(1, 0, [0, -1])
    mixed = RepTable(sl2, FreeModule(["a", "c"], [FREE, 1]))
    mixed.set_action(0, 0, [lam, dl])
    mixed.set_action(1, 1, [0, 2])
    line = RepTable(sl2, FreeModule(["c"], 0))
    return [
        ("sl2-adjoint", adjoint_rep(sl2), shear, shear),
        ("sl2-line", line, proj, ConfLinMap.scalar(line.module, 2)),
        ("sl2-lam-line", _line_rep(sl2, lam), proj, ConfLinMap.scalar(FreeModule(["v"]), 3)),
        ("vir-adjoint", adjoint_rep(vir), ConfLinMap.scalar(vir.module, 2),
         ConfLinMap.scalar(vir.module, 2)),
        ("vir-weight-2", _line_rep(vir, dl + lam.scale(2)), ConfLinMap.scalar(vir.module, 2),
         ConfLinMap.scalar(FreeModule(["v"]), -1)),
        ("torsion-adjoint", adjoint_rep(torsion), ConfLinMap.diagonal(torsion.module, [2, 1]),
         ConfLinMap.diagonal(torsion.module, [2, 1])),
        ("mixed-coefficients", mixed, proj, ConfLinMap.diagonal(mixed.module, [1, 2])),
    ]


def _cochains(rep, degree, rng):
    """The zero cochain, one elementary cochain on one tuple, its skew
    projection (one permutation orbit) and a random skew cochain."""
    module = rep.algebra.module
    arity = max(degree - 1, 0)
    key = tuple(rng.randrange(module.rank) for _ in range(degree))
    coord = rng.randrange(rep.module.rank)
    monos = [m for m in product(range(2), repeat=arity + 1) if sum(m) <= 1]
    if rep.module.actions[coord] != FREE:
        monos = [m for m in monos if not m[0]]
    elementary = Cochain(degree, rep)
    coords = [Poly.zero(arity)] * rep.module.rank
    coords[coord] = Poly(arity, {rng.choice(monos): rng.choice([1, -2, Fraction(1, 3)])})
    elementary.set_value(key, Elem(rep.module, coords))
    return [
        Cochain(degree, rep),
        elementary,
        skew_symmetrize(elementary),
        random_cochain(rep, degree, rng, max_degree=1, density=1),
    ]


def _key_subsets(rank, arity, rng):
    everything = list(product(range(rank), repeat=arity))
    return [
        None,
        list(combinations_with_replacement(range(rank), arity)),
        rng.sample(everything, max(1, len(everything) // 3)),
    ]


@pytest.mark.parametrize("case", range(7), ids=[name for name, *_ in _reps()])
def test_coboundaries_match_the_per_cochain_reference(case):
    _, rep, n_op, n_m = _reps()[case]
    rng = Random(case)
    algebra = rep.algebra
    deformed = deformed_table(algebra, n_op)
    adjoint = rep.module == algebra.module
    for degree in range(4):
        for f in _cochains(rep, degree, rng):
            for keys in _key_subsets(algebra.module.rank, degree + 1, rng):
                delta = _Coboundary(rep, degree, keys=keys)
                assert delta(f) == reference_eval.apply_delta(f, keys=keys)
                twisted = _Coboundary(rep, degree, n_op, keys)
                assert twisted(f) == reference_eval.apply_delta(
                    f, twist=n_op, insert_table=deformed.table, keys=keys
                )
                want = reference_eval.apply_dNM(f, n_op, n_m, keys=keys)
                assert _differential(rep, degree, n_op, n_m, keys)(f) == want
                if adjoint:
                    assert _differential(rep, degree, n_op, keys=keys)(f) == want
                    other = adjoint_rep(deformed)
                    assert _Coboundary(other, degree, keys=keys)(f) == (
                        reference_eval.apply_delta(f, rep=other, keys=keys)
                    )


# ---------------------------------------------------------------------------
# the table builders against the copies that each walked their own tuples


_BUILDER_CASES = ("sl2-adjoint", "vir-adjoint", "vir-weight-2", "mixed-coefficients")


def _sparse_cochain(rep, degree, rng, entries=3):
    """A cochain (not skew) with a few random values of degree <= 1."""
    arity = max(degree - 1, 0)
    monos = [m for m in product(range(2), repeat=arity + 1) if sum(m) <= 1]
    f = Cochain(degree, rep)
    for _ in range(entries):
        key = tuple(rng.randrange(rep.algebra.module.rank) for _ in range(degree))
        coords = [
            Poly(arity, {rng.choice(monos): rng.choice([1, -2, Fraction(1, 3)])})
            if rng.random() < 0.7
            else Poly.zero(arity)
            for _ in range(rep.module.rank)
        ]
        f.set_value(key, Elem(rep.module, coords))
    return f


@pytest.mark.parametrize("name", _BUILDER_CASES)
def test_table_builders_match_their_own_loops(name):
    _, rep, n_op, n_m = next(case for case in _reps() if case[0] == name)
    rng = Random(100 + _BUILDER_CASES.index(name))
    cochains = {d: _sparse_cochain(rep, d, rng) for d in range(MAX_DEGREE + 1)}
    for f in cochains.values():
        assert skew_symmetrize(f) == reference_eval.skew_symmetrize(f)
        assert xi_map(f, n_op, n_m) == reference_eval.xi_map(f, n_op, n_m)
    if rep.module != rep.algebra.module:
        return
    # every product of degree 0 to MAX_DEGREE
    for m, n in product(cochains, repeat=2):
        J, K = cochains[m], cochains[n]
        if 0 <= m + n - 1 <= MAX_DEGREE:
            assert circ_insert(J, K) == reference_eval.circ_insert(J, K)
        if m + n <= MAX_DEGREE:
            assert cup_product(J, K) == reference_eval.cup_product(J, K)
