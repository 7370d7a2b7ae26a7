"""The support-only evaluators against the dense ones they replaced.

``sesqui_eval``, ``eval_cochain`` and ``dagger_substitute`` touch only the
nonzero coordinates of their arguments; ``tests/reference_eval.py`` keeps
the dense versions that lift, substitute and scan everything.  Both must
give the same coordinates, at the same arity, and print the same, on
arguments with zero and all-zero coordinates, of mixed arities, over free,
evaluation and mixed modules, and for cochains of degree 0 to 3, at bare
lambda-forms in any order, repeated or not, and at general ones; the
evaluation core must also agree when the last form is left out, as the
dagger of the others.  The
coboundaries, planned once and evaluated on the outputs a cochain's support
reaches, must equal the per-cochain coboundary of the reference on every
output tuple, or on a subset of them; and one plan, which holds polynomials
for its whole slice, must map a run of cochains, in sequence or interleaved
with other plans, as the reference maps each alone.  The table builders, which share one
loop over the basis tuples, must equal the copies that each had their own,
and the comparison map xi, planned once per degree, must equal the
tabulated xi on every case at degrees 0 to 4.  The insertion product,
planned once per fixed cochain and degree on either side, must equal the
tabulated product, and the graded bracket the tabulated difference, in
every degree up to MAX_DEGREE, on every case with adjoint coefficients;
there the bracket cochain, the Maurer-Cartan element, pairs with every
cochain to its coboundary up to sign, which pins the coboundary's inserted
bracket to the insertion plans.  On every case, the bracket of L (+) M
pairs with every cochain valued in M to its coboundary on the tuples of L,
which pins the coboundary's action sum, the insertion into the flipped
action, on coefficients that are not adjoint.
"""

from fractions import Fraction
from itertools import combinations_with_replacement, product
from random import Random

import pytest
from hypothesis import given, settings, strategies as st

import reference_eval
from conftest import _holds, _plan_keys, make_sl2, make_vir
from nijconf import cohomology
from nijconf.cohomology import (
    MAX_DEGREE,
    Cochain,
    _Coboundary,
    _Plan,
    _differential,
    _insertion,
    _is_skew,
    _pulled_back,
    _substitutions,
    adjoint_rep,
    apply_delta,
    apply_dN,
    apply_dNM,
    bracket_cochain,
    check_cochain_skew,
    circ_insert,
    cup_product,
    eval_cochain,
    nr_bracket,
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
    _evaluate,
    _skew_residual,
    dagger_substitute,
    sesqui_eval,
    sum_algebra,
)
from nijconf.nijenhuis import deformed_table
from nijconf.poly import Poly, dagger
from nijconf.report import Report, failures_of

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
    # any bare lambda, in or out of order and repeated, or any polynomial
    bare = st.integers(1, arity).map(lambda k: Poly.lam(k, arity))
    forms = [data.draw(st.one_of(bare, _polys(arity))) for _ in range(degree)]
    cases = [(args, forms)]
    if degree and f.values:
        # the sum of the basis in every slot, the last times del, reads
        # every stored value whole and lifts the last argument: at the drawn
        # forms and at every tuple of bare lambdas
        whole = source.elem([Poly.one(0)] * source.rank)
        whole = [whole] * (degree - 1) + [whole.mul_poly(Poly.del_(0))]
        lams = [Poly.lam(k, arity) for k in range(1, arity + 1)]
        cases += [(whole, list(tup)) for tup in product(lams, repeat=degree)]
        cases.append((whole, forms))
    for args, forms in cases:
        _assert_same(
            eval_cochain(f, args, forms, arity),
            reference_eval.eval_cochain(f, args, forms, arity),
        )
        if degree > 1:
            # the core with the last form left out, as the dagger of the others
            implicit = forms[:-1] + [dagger(sum(forms[1:-1], forms[0]))]
            _assert_same(
                _evaluate(f.values, target, args, forms[:-1], arity),
                reference_eval.eval_cochain(f, args, implicit, arity),
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
    """(output tuples, sorted_only): every tuple and the non-decreasing
    ones, the two choices of `_differential`, and a seeded third of them,
    which only a plan built for it evaluates (sorted_only None)."""
    everything = list(product(range(rank), repeat=arity))
    return [
        (None, False),
        (list(combinations_with_replacement(range(rank), arity)), True),
        (rng.sample(everything, max(1, len(everything) // 3)), None),
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
            for keys, sorted_only in _key_subsets(algebra.module.rank, degree + 1, rng):
                delta = _Coboundary(rep, degree, _substitutions(degree), keys=keys)(f, rep)
                assert delta == reference_eval.apply_delta(f, keys=keys)
                pulled = _pulled_back(rep, n_op, deformed)
                twisted = _Coboundary(pulled, degree, _substitutions(degree), keys)
                assert twisted(f, rep) == reference_eval.apply_delta(
                    f, twist=n_op, insert_table=deformed.table, keys=keys
                )
                want = reference_eval.apply_dNM(f, n_op, n_m, keys=keys)
                assert twisted(f, rep) - delta.map_target(n_m) == want
                if sorted_only is not None:
                    assert _differential(rep, degree, n_op, n_m, sorted_only)(f) == want
                    if adjoint:
                        d_n = _differential(rep, degree, n_op, sorted_only=sorted_only)
                        assert d_n(f) == want
                if adjoint:
                    other = adjoint_rep(deformed)
                    plan = _Coboundary(other, degree, _substitutions(degree), keys=keys)
                    assert plan(f, other) == (
                        reference_eval.apply_delta(f, rep=other, keys=keys)
                    )


@pytest.mark.parametrize("case", range(7), ids=[name for name, *_ in _reps()])
def test_one_plan_maps_every_cochain_like_the_reference(case):
    # a plan holds polynomials for as long as its representation holds it:
    # mapping one cochain must leave nothing behind that changes the image
    # of the next, whatever the order in which the plans are filled
    _, rep, n_op, n_m = _reps()[case]
    rng = Random(200 + case)
    deformed = deformed_table(rep.algebra, n_op).table
    for degree in range(4):
        cochains = _cochains(rep, degree, rng)
        want = [
            (
                reference_eval.apply_delta(f),
                reference_eval.apply_delta(f, twist=n_op, insert_table=deformed),
                reference_eval.apply_dNM(f, n_op, n_m),
            )
            for f in cochains
        ]

        def plans():
            plain = _Coboundary(rep, degree, _substitutions(degree))
            pulled = _pulled_back(rep, n_op, deformed_table(rep.algebra, n_op))
            twisted = _Coboundary(pulled, degree, _substitutions(degree))
            return (
                lambda f: plain(f, rep),
                lambda f: twisted(f, rep),
                _differential(rep, degree, n_op, n_m),
            )

        # in sequence: every cochain through one plan, then the next plan
        got = [[plan(f) for f in cochains] for plan in plans()]
        assert list(zip(*got)) == want
        # interleaved, last cochain first: the three plans take turns
        fresh = plans()
        for f, images in reversed(list(zip(cochains, want))):
            assert tuple(plan(f) for plan in fresh) == images


def test_the_inserted_bracket_is_reduced_on_evaluation_generators():
    # [x lam x] = (del + 2 lam) c with del acting by 3 on c: the table entry
    # holds del where the bracket's value has the scalar 3, and f's value at
    # c is free, so only the reduced bracket gives the reference's image
    torsion = LCA(FreeModule(["x", "c"], [FREE, 3]))
    torsion.set_bracket(0, 0, [0, Poly.del_(1) + Poly.lam(1, 1).scale(2)])
    rep = adjoint_rep(torsion)
    rng = Random(150)
    for degree in range(4):
        for f in _cochains(rep, degree, rng) + [_sparse_cochain(rep, degree, rng)]:
            assert apply_delta(f) == reference_eval.apply_delta(f)


# ---------------------------------------------------------------------------
# the table builders against the copies that each walked their own tuples


# torsion-adjoint has an evaluation generator and torsion that is not central
_BUILDER_CASES = (
    "sl2-adjoint",
    "vir-adjoint",
    "vir-weight-2",
    "mixed-coefficients",
    "torsion-adjoint",
)


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
    if rep.module != rep.algebra.module:
        return
    # every product of degree 0 to MAX_DEGREE
    for m, n in product(cochains, repeat=2):
        J, K = cochains[m], cochains[n]
        if 0 <= m + n - 1 <= MAX_DEGREE:
            assert circ_insert(J, K) == reference_eval.circ_insert(J, K)
        if m + n <= MAX_DEGREE:
            _assert_same_cochain(cup_product(J, K), reference_eval.cup_product(J, K))


# ---------------------------------------------------------------------------
# the planned comparison map against the tabulated one


@pytest.mark.parametrize("case", range(7), ids=[name for name, *_ in _reps()])
def test_planned_xi_matches_the_tabulated_reference(case):
    # evaluation coefficients, torsion that is not central and mixed
    # coefficients among the cases; one plan per degree maps every cochain,
    # held by the representation between calls
    _, rep, n_op, n_m = _reps()[case]
    rng = Random(300 + case)
    for degree in range(MAX_DEGREE + 1):
        for f in [_sparse_cochain(rep, degree, rng)] + _cochains(rep, degree, rng):
            want = reference_eval.xi_map(f, n_op, n_m)
            got = xi_map(f, n_op, n_m)
            assert got == want
            assert {key: repr(v) for key, v in got.values.items()} == {
                key: repr(v) for key, v in want.values.items()
            }


# ---------------------------------------------------------------------------
# the planned insertion product against the tabulated one


def _assert_same_cochain(got, want):
    assert got == want
    assert {key: repr(v) for key, v in got.values.items()} == {
        key: repr(v) for key, v in want.values.items()
    }


_ADJOINT_CASES = ("sl2-adjoint", "vir-adjoint", "torsion-adjoint")


@pytest.mark.parametrize("name", _ADJOINT_CASES)
def test_planned_insertion_matches_the_tabulated_reference(name):
    # torsion that is not central among the cases; J holds one plan per side
    # and degree of K, so each plan maps several cochains: sparse ones, a
    # random skew one up to degree 2, and the bracket cochain, a J of degree
    # 2 whose values are all the algebra's brackets
    _, rep, _, _ = next(case for case in _reps() if case[0] == name)
    rng = Random(400 + _ADJOINT_CASES.index(name))
    cochains = {
        d: [_sparse_cochain(rep, d, rng), _sparse_cochain(rep, d, rng, entries=6)]
        for d in range(MAX_DEGREE + 1)
    }
    for d in range(3):
        cochains[d].append(random_cochain(rep, d, rng, max_degree=1, density=1))
    cochains[2].append(bracket_cochain(rep.algebra))
    references = {}

    def reference(J, K):
        if (id(J), id(K)) not in references:
            references[id(J), id(K)] = reference_eval.circ_insert(J, K)
        return references[id(J), id(K)]

    for m, n in product(cochains, repeat=2):
        if not 0 <= m + n - 1 <= MAX_DEGREE:
            continue
        sign = -1 if ((m - 1) * (n - 1)) % 2 == 0 else 1
        for J, K in product(cochains[m], cochains[n]):
            outside, inside = reference(J, K), reference(K, J)
            _assert_same_cochain(circ_insert(J, K), outside)
            _assert_same_cochain(_insertion(J, True, K)(K, K.rep), inside)
            _assert_same_cochain(nr_bracket(J, K), outside + inside.scale(sign))


@pytest.mark.parametrize("name", _ADJOINT_CASES)
def test_the_bracket_cochain_pairs_to_the_coboundary(name):
    # the bracket is the Maurer-Cartan element of the insertion bracket:
    # [m, f] = (-1)^{n-1} delta f, so the coboundary's second sum, which
    # inserts the bracket, agrees with the insertion plans of m
    _, rep, _, _ = next(case for case in _reps() if case[0] == name)
    rng = Random(500 + _ADJOINT_CASES.index(name))
    mc = bracket_cochain(rep.algebra)
    for degree in range(4):
        for f in _cochains(rep, degree, rng) + [random_cochain(rep, degree, rng)]:
            want = apply_delta(f).scale((-1) ** (degree - 1))
            assert nr_bracket(mc, f) == want


@pytest.mark.parametrize("case", range(7), ids=[name for name, *_ in _reps()])
def test_the_coboundary_is_the_bracket_with_the_semidirect_mc_element(case):
    # on any coefficients M, the bracket of L (+) M is the Maurer-Cartan
    # element whose bracket with f, valued in M, is (-1)^(n-1) delta f on
    # the tuples of L: inserting f into its first slot reads the flipped
    # action [m lam x], which pins the coboundary's action sum, with its
    # sign flip at even degree, and the insertion of [x lam y] its bracket
    # sum
    _, rep, _, _ = _reps()[case]
    rank = rep.algebra.module.rank
    mc = bracket_cochain(sum_algebra(rep.algebra, rep))
    rng = Random(800 + case)
    for degree in range(4):
        for f in _cochains(rep, degree, rng):
            zero = [Poly.zero(f.value_arity)] * rank
            values = {key: zero + value.coords for key, value in f.values.items()}
            image = nr_bracket(mc, Cochain(degree, mc.rep, values))
            want = apply_delta(f).scale((-1) ** (degree - 1))
            for key in product(range(rank), repeat=degree + 1):
                coords = image.value(key).coords
                assert not any(coords[:rank])
                assert coords[rank:] == want.value(key).coords


# ---------------------------------------------------------------------------
# the public operators, one tuple per permutation orbit or on every tuple


# the cases where a skew input takes the sorted path: rank >= 2, and no
# torsion re-entering through the bracket, the action or the operators
_ORBIT_CASES = ("sl2-adjoint", "sl2-line", "sl2-lam-line")


def _held_plans(sorted_only, rep, *cochains):
    """The slots of the plans on the sorted or on every output tuple that
    ``rep`` and ``cochains`` hold; an orbit fill is neither."""
    held = [slot for slot, (_, plan) in rep._plans.items() if isinstance(plan, _Plan)]
    held += [slot for f in cochains for slot in _plan_keys(f)]
    return [slot for slot in held if slot[-1] is sorted_only]


def _public_images(f, n_op, n_m, mc):
    """(public image, reference image) of every operator on ``f``; the
    adjoint-only ones when ``mc``, the bracket cochain, is given."""
    pairs = [
        (apply_delta(f), reference_eval.apply_delta(f)),
        (apply_dNM(f, n_op, n_m), reference_eval.apply_dNM(f, n_op, n_m)),
        (xi_map(f, n_op, n_m), reference_eval.xi_map(f, n_op, n_m)),
    ]
    if mc is not None:
        pairs.append((apply_dN(f, n_op), reference_eval.apply_dNM(f, n_op, n_op)))
        for J, K in ((mc, f), (f, mc)):
            sign = -1 if ((J.degree - 1) * (K.degree - 1)) % 2 == 0 else 1
            inside = reference_eval.circ_insert(K, J).scale(sign)
            pairs.append((nr_bracket(J, K), reference_eval.circ_insert(J, K) + inside))
    return pairs


@pytest.mark.parametrize("case", range(7), ids=[name for name, *_ in _reps()])
def test_the_public_operators_match_the_reference_on_either_path(case):
    # skew inputs first: on the orbit cases nothing is planned on every
    # tuple, and elsewhere nothing on the sorted ones; then the elementary
    # cochains, which from degree 2 are mostly not skew, and then are mapped
    # on every tuple
    name, rep, n_op, n_m = _reps()[case]
    rng = Random(600 + case)
    mc = bracket_cochain(rep.algebra) if rep.module == rep.algebra.module else None
    held = [mc] if mc is not None else []
    inputs = {degree: _cochains(rep, degree, rng) for degree in range(4)}
    for degree, (zero, elementary, projected, skew) in inputs.items():
        for f in (zero, projected, skew):
            for got, want in _public_images(f, n_op, n_m, mc):
                _assert_same_cochain(got, want)
    orbits = name in _ORBIT_CASES
    assert _held_plans(not orbits, rep, *held) == []
    assert _held_plans(orbits, rep, *held) != []
    unskewed = 0
    for degree, (_, elementary, _, _) in inputs.items():
        for got, want in _public_images(elementary, n_op, n_m, mc):
            _assert_same_cochain(got, want)
        full = (degree, False, False) in rep._plans
        skew = check_cochain_skew(elementary).passed
        assert full == (not orbits or not skew)
        unskewed += not skew
    assert unskewed >= 1


def test_the_nr_bracket_maps_every_tuple_over_torsion():
    # sl2 and a central torsion generator c that no bracket involves: delta
    # keeps skew cochains skew, but the insertion feeds c's del-reduced
    # coordinates back into an argument, so the NR bracket of two skew
    # cochains need not be skew and is mapped on every tuple
    sl2 = make_sl2()
    algebra = LCA(FreeModule(["e", "h", "f", "c"], [FREE] * 3 + [2]))
    for (i, j), value in sl2.table.entries.items():
        algebra.set_bracket(i, j, list(value) + [Poly.zero(1)])
    rep = adjoint_rep(algebra)
    rng = Random(650)
    for degree in range(1, 3):
        J = random_cochain(rep, 2, rng, max_degree=1, density=1)
        K = random_cochain(rep, degree, rng, max_degree=1, density=1)
        sign = -1 if (degree - 1) % 2 == 0 else 1
        inside = reference_eval.circ_insert(K, J).scale(sign)
        _assert_same_cochain(nr_bracket(J, K), reference_eval.circ_insert(J, K) + inside)
        _assert_same_cochain(apply_delta(K), reference_eval.apply_delta(K))
        assert _held_plans(False, rep) == []
        assert _plan_keys(J) == [(False, degree, False), (True, degree, False)]
    assert not check_cochain_skew(nr_bracket(J, K)).passed


@pytest.mark.parametrize("case", range(7), ids=[name for name, *_ in _reps()])
def test_the_skew_test_agrees_with_the_skew_check(case):
    # on fresh copies, which hold no answer; one copy is perturbed on the
    # tuple (a, .., a), which only the transpositions of its equal entries
    # see, after its answer is held: setting the value drops the answer
    _, rep, _, _ = _reps()[case]
    rng = Random(700 + case)
    for degree in range(MAX_DEGREE + 1):
        cochains = _cochains(rep, degree, rng) + [
            _sparse_cochain(rep, degree, rng),
            random_cochain(rep, degree, rng, max_degree=1, density=1),
        ]
        for f in cochains:
            g = Cochain(degree, rep, f.values)
            assert _is_skew(g) == check_cochain_skew(g).passed
        if degree < 2:
            continue
        a = rng.randrange(rep.algebra.module.rank)
        g = Cochain(degree, rep, cochains[-1].values)
        assert _is_skew(g) and _holds(g)["skew"]
        g.set_value((a,) * degree, g.value((a,) * degree) + rep.module.basis_elem(0))
        assert "skew" not in _holds(g)
        assert not _is_skew(g)
        witness = "skew: fail at=%s " % ",".join(map(str, (a,) * degree + (0,)))
        assert check_cochain_skew(g).lines()[0].startswith(witness)


@pytest.mark.parametrize("case", range(7), ids=[name for name, *_ in _reps()])
def test_the_skew_check_reads_the_reference_skew_residual(monkeypatch, case):
    # every residual that check_cochain_skew reads, on every tuple and
    # transposition, is the reference's, whose values are expanded and
    # daggered densely; its witness is the least nonzero one
    _, rep, _, _ = _reps()[case]
    rng = Random(750 + case)
    read = {}

    def recorded(values, target, key, k):
        read[key + (k,)] = residual = _skew_residual(values, target, key, k)
        return residual

    monkeypatch.setattr(cohomology, "_skew_residual", recorded)
    rank, failing = rep.algebra.module.rank, 0
    for degree in range(2, MAX_DEGREE + 1):
        cochains = _cochains(rep, degree, rng) + [_sparse_cochain(rep, degree, rng)]
        for f in cochains:
            read.clear()
            report = check_cochain_skew(f)
            want = {
                key + (k,): reference_eval.skew_residual(f.values, f.target, key, k)
                for key in product(range(rank), repeat=degree)
                for k in range(degree - 1)
            }
            assert {t: r.coords for t, r in read.items()} == {
                t: r.coords for t, r in want.items()
            }
            expected = Report("cochain-skew")
            failing += bool(expected.add_failures("skew", failures_of(want.items())))
            assert report.lines() == expected.lines()
    assert failing >= 1
