"""The support-only evaluators against the dense ones they replaced.

``sesqui_eval``, ``eval_cochain`` and ``dagger_substitute`` touch only the
nonzero coordinates of their arguments; ``tests/reference_eval.py`` keeps
the dense versions that lift, substitute and scan everything.  Both must
give the same coordinates, at the same arity, and print the same, on
arguments with zero and all-zero coordinates, of mixed arities, over free,
evaluation and mixed modules, and for cochains of degree 0 to 3.
"""

from fractions import Fraction
from itertools import product

from hypothesis import given, settings, strategies as st

import reference_eval
from nijconf.cohomology import Cochain, eval_cochain
from nijconf.lca import (
    FREE,
    LCA,
    Elem,
    FreeModule,
    RepTable,
    StructureTable,
    dagger_substitute,
    sesqui_eval,
)
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
