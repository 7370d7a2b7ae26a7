from fractions import Fraction

from hypothesis import assume, given, settings, strategies as st

from nijconf.grammar import ParseError, format_poly, parse_poly
from nijconf.poly import Poly
from reference_poly import Poly as ReferencePoly

import pytest


def _poly_strategy(arity=2, max_terms=4, max_exp=3):
    coeff = st.fractions(
        min_value=-9, max_value=9, max_denominator=7
    )
    exps = st.tuples(*([st.integers(0, max_exp)] * (arity + 1)))
    return st.dictionaries(exps, coeff, max_size=max_terms).map(
        lambda terms: Poly(arity, terms)
    )


polys = _poly_strategy()


@settings(max_examples=60, deadline=None)
@given(polys, polys, polys)
def test_ring_axioms(p, q, r):
    assert (p + q) + r == p + (q + r)
    assert p + q == q + p
    assert (p * q) * r == p * (q * r)
    assert p * q == q * p
    assert p * (q + r) == p * q + p * r
    assert p + Poly.zero(2) == p
    assert p * Poly.one(2) == p
    assert (p - p).is_zero()


@settings(max_examples=40, deadline=None)
@given(polys, polys, st.integers(0, 2))
def test_substitution_is_a_ring_map(p, q, index):
    image = Poly.del_(2) + Poly.lam(1, 2).scale(3)
    assert (p + q).substitute(index, image) == p.substitute(
        index, image
    ) + q.substitute(index, image)
    assert (p * q).substitute(index, image) == p.substitute(
        index, image
    ) * q.substitute(index, image)


@settings(max_examples=40, deadline=None)
@given(polys, polys)
def test_rational_evaluation_is_a_ring_map(p, q):
    values = [Fraction(2), Fraction(-1, 3), Fraction(5)]
    assert (p * q).eval_rational(values) == p.eval_rational(
        values
    ) * q.eval_rational(values)
    assert (p + q).eval_rational(values) == p.eval_rational(
        values
    ) + q.eval_rational(values)


def _assert_canonical(p):
    """``p`` is what the validating constructor makes of its own terms: each
    coefficient is a nonzero int, or a Fraction that is not integral."""
    assert p == Poly(p.arity, dict(p.terms))
    for key, coeff in p.terms.items():
        assert type(key) is tuple and len(key) == p.arity + 1
        assert all(type(e) is int for e in key)
        assert coeff != 0
        assert type(coeff) is int or (
            type(coeff) is Fraction and coeff.denominator > 1
        )


@settings(max_examples=60, deadline=None)
@given(polys, polys, st.integers(0, 4))
def test_fast_paths_give_canonical_terms(p, q, n):
    image = Poly.del_(2) + q
    for result in (p + q, p - q, p * q, -p, p ** n, p.scale(Fraction(-2, 3))):
        _assert_canonical(result)
    for index in range(3):
        _assert_canonical(p.substitute(index, image))
    widened = p.with_arity(4)
    _assert_canonical(widened)
    _assert_canonical(widened.with_arity(2))
    assert widened.with_arity(2) == p


# -- the kernel against the all-Fraction reference ------------------------

# integral and rational coefficients, with zeros and integral Fractions among
# them so that the validating constructors see every form
_ref_coeffs = st.one_of(
    st.integers(-9, 9),
    st.fractions(min_value=-9, max_value=9, max_denominator=4),
    st.integers(-3, 3).map(Fraction),
)
# the constant 1, in both forms, is drawn often: a product with it returns
# the other factor without multiplying
_ref_terms = st.one_of(
    st.sampled_from([{(0, 0, 0): 1}, {(0, 0, 0): Fraction(1)}]),
    st.dictionaries(
        st.tuples(*([st.integers(0, 2)] * 3)), _ref_coeffs, max_size=4
    ),
)


def _assert_matches(fast, reference):
    """Same value, hash and printed form as the reference, in canonical form."""
    assert fast.arity == reference.arity
    assert fast.terms == reference.terms
    assert hash(fast) == hash(reference)
    assert format_poly(fast) == format_poly(reference)
    _assert_canonical(fast)


@settings(max_examples=150, deadline=None)
@given(_ref_terms, _ref_terms, _ref_coeffs, st.integers(0, 3), st.integers(0, 2))
def test_kernel_matches_the_fraction_reference(ta, tb, factor, n, index):
    p, q = Poly(2, ta), Poly(2, tb)
    rp, rq = ReferencePoly(2, ta), ReferencePoly(2, tb)
    _assert_matches(p, rp)
    for fast, reference in (
        (p + q, rp + rq),
        (p - q, rp - rq),
        (p * q, rp * rq),
        (q * p, rq * rp),
        (-p, -rp),
        (p ** n, rp ** n),
        (p + factor, rp + factor),
        (p * factor, rp * factor),
        (p.scale(factor), rp.scale(factor)),
        (p.scale(Fraction(factor) * 3), rp.scale(Fraction(factor) * 3)),
        (p.scale(Fraction(2, 3)), rp.scale(Fraction(2, 3))),
        (p.substitute(index, q), rp.substitute(index, rq)),
        (p.substitute(index, factor), rp.substitute(index, factor)),
        (p.with_arity(4), rp.with_arity(4)),
        (p.with_arity(4).with_arity(2), rp.with_arity(4).with_arity(2)),
        (Poly.const(factor, 2), ReferencePoly.const(factor, 2)),
        (Poly.var(index, 2), ReferencePoly.var(index, 2)),
    ):
        _assert_matches(fast, reference)
    values = [Fraction(2), Fraction(-1, 3), factor]
    assert p.eval_rational(values) == rp.eval_rational(values)
    assert type(p.eval_rational(values)) is Fraction
    assert (p == q) == (rp == rq)
    assert (p == factor) == (rp == factor)


def test_integral_results_are_stored_as_ints():
    half = Poly(1, {(1, 0): Fraction(1, 2), (0, 1): Fraction(3, 2)})
    for p in (
        half + half,
        half.scale(2),
        half * Poly.const(4, 1),
        half.substitute(0, Poly.lam(1, 1)),
        Poly(1, {(1, 0): Fraction(4, 2)}),
        Poly.const(Fraction(6, 3), 1),
    ):
        _assert_canonical(p)
        assert all(type(c) is int for c in p.terms.values())
    assert (half + half).terms == {(1, 0): 1, (0, 1): 3}


def test_public_constructor_still_validates():
    with pytest.raises(ValueError):
        Poly(1, {(1,): 1})
    p = Poly(1, {(1, 0): 0, (0, 1): Fraction(0), (2, 0): Fraction(3)})
    assert p.terms == {(2, 0): 3} and type(p.terms[2, 0]) is int
    assert Poly.const(0, 2).is_zero() and not Poly.const(0, 2).terms


def test_substitute_named_vars():
    d, lam = Poly.del_(1), Poly.lam(1, 1)
    p = d + lam.scale(2)
    # lam1 -> -del - lam1 sends del + 2 lam1 to -del - 2 lam1
    assert p.substitute(1, -d - lam) == -(d + lam.scale(2))
    assert (p ** 2).substitute(1, -d - lam) == (d + lam.scale(2)) ** 2


def test_degree_bookkeeping():
    p = Poly(2, {(1, 2, 0): Fraction(1), (0, 0, 3): Fraction(-2)})
    assert p.total_degree() == 3
    assert p.degree_in(0) == 1
    assert p.degree_in(1) == 2
    assert p.degree_in(2) == 3
    assert Poly.zero(2).total_degree() == -1 or Poly.zero(2).is_zero()


def test_with_arity_round_trip():
    p = Poly(1, {(2, 1): Fraction(5)})
    widened = p.with_arity(3)
    assert widened.arity == 3
    assert widened.with_arity(1) == p


@settings(max_examples=40, deadline=None)
@given(_poly_strategy(arity=1))
def test_format_parse_round_trip(p):
    assert parse_poly(format_poly(p), 1) == p


def test_parse_errors_carry_position():
    # the position is the offending character's, past any whitespace, and
    # the message does not repeat it
    with pytest.raises(ParseError) as exc:
        parse_poly("del + ??", 1)
    assert (exc.value.pos, str(exc.value)) == (6, "unexpected character '?'")


def test_parse_examples():
    assert parse_poly("del + 2*lam1", 1) == Poly(
        1, {(1, 0): Fraction(1), (0, 1): Fraction(2)}
    )
    assert parse_poly("lam1^3", 1) == Poly(1, {(0, 3): Fraction(1)})
    assert parse_poly("-1/2", 0) == Poly(0, {(0,): Fraction(-1, 2)})


def test_power_degree_is_bounded():
    assert parse_poly("lam1^16", 1) == Poly(1, {(0, 16): Fraction(1)})
    assert parse_poly("(lam1^4)^4", 1) == parse_poly("lam1^16", 1)
    assert parse_poly("2^16", 0) == Poly.const(2 ** 16, 0)
    # a product of powers is bounded too, at the factor that crosses the bound
    assert parse_poly("del^8*lam1^8", 1).total_degree() == 16
    refused = [("lam1^17", 5), ("(lam1^4)^5", 9), ("2^17", 2), ("0^99", 2)]
    for text, pos in refused + [("del^16*lam1^16", 7), ("2*lam1^9*del^8", 9)]:
        with pytest.raises(ParseError) as info:
            parse_poly(text, 1)
        assert info.value.pos == pos


# expression trees over del, lam1 and lam2, and the precedence levels of the
# grammar: a node is written bare where its level is at least the level its
# place asks for, else in parentheses
_EXPR, _TERM, _FACTOR, _POWER, _ATOM = range(5)
_LEVEL = {"num": _ATOM, "var": _ATOM, "pow": _POWER, "neg": _FACTOR,
          "pos": _FACTOR, "mul": _TERM, "add": _EXPR, "sub": _EXPR}

_trees = st.recursive(
    st.one_of(
        st.tuples(st.just("num"), st.integers(0, 4)),
        st.tuples(st.just("var"), st.integers(0, 2)),
    ),
    lambda inner: st.one_of(
        st.tuples(st.sampled_from(["neg", "pos"]), inner),
        st.tuples(st.just("pow"), inner, st.integers(0, 3)),
        st.tuples(st.sampled_from(["mul", "add", "sub"]), inner, inner),
    ),
    max_leaves=8,
)


def _written(tree, place=_EXPR):
    kind = tree[0]
    if kind == "num":
        text = str(tree[1])
    elif kind == "var":
        text = ["del", "lam1", "lam2"][tree[1]]
    elif kind in ("neg", "pos"):
        sign = "-" if kind == "neg" else "+"
        text = sign + _written(tree[1], _FACTOR)
    elif kind == "pow":
        text = "%s^%d" % (_written(tree[1], _ATOM), tree[2])
    elif kind == "mul":
        text = "%s*%s" % (_written(tree[1], _TERM), _written(tree[2], _FACTOR))
    else:
        sign = " + " if kind == "add" else " - "
        text = _written(tree[1], _EXPR) + sign + _written(tree[2], _TERM)
    return text if _LEVEL[kind] >= place else "(%s)" % text


def _value(tree):
    """The tree in Poly arithmetic at arity 2, or None where a power or a
    product passes the parser's degree bound."""
    kind = tree[0]
    if kind == "num":
        return Poly.const(tree[1], 2)
    if kind == "var":
        return Poly.var(tree[1], 2)
    args = [_value(t) for t in tree[1:] if isinstance(t, tuple)]
    if None in args:
        return None
    if kind == "neg":
        return -args[0]
    if kind == "pos":
        return args[0]
    if kind == "pow":
        if max(args[0].total_degree(), 1) * tree[2] > 16:
            return None
        return args[0] ** tree[2]
    a, b = args
    if kind == "mul":
        return a * b if a.total_degree() + b.total_degree() <= 16 else None
    return a + b if kind == "add" else a - b


@settings(max_examples=150, deadline=None)
@given(_trees)
def test_parsing_a_written_tree_gives_its_value(tree):
    # a unary sign, minus or plus, lands in every place: first, after *, +
    # and -, doubled, inside parentheses and under a power
    value = _value(tree)
    assume(value is not None)
    assert parse_poly(_written(tree), 2) == value


def test_unary_minus_applies_to_the_power_that_follows():
    for text, want in [("-del^2", "-del^2"), ("2*-del^2", "-2*del^2"),
                       ("--del^2", "del^2"), ("lam1 - -del^2", "del^2 + lam1"),
                       ("(-del)^2", "del^2"), ("-1/2", "-1/2"),
                       # a unary plus, which leaves the power as it is
                       ("2*+del", "2*del"), ("lam1 - +del", "-del + lam1"),
                       ("-+del", "-del")]:
        assert format_poly(parse_poly(text, 1)) == want
