"""Exact multivariate polynomials over the rationals.

A polynomial lives in Q[del, lam1, ..., lamk] where ``del`` stands for the
translation generator of a C[del]-module and the lam-variables are the formal
variables produced by lambda-brackets.  The number of lam-variables in scope
(the *arity* k) is part of the value; combining polynomials of different
arities is a hard error so that lambda-variables can never be captured
silently.

Monomials are stored in a dict keyed by the exponent vector
``(e_del, e_lam1, ..., e_lamk)``.  Each nonzero coefficient is an ``int``
when it is integral and a ``Fraction`` with denominator > 1 only when it is
not, so that integer arithmetic, which is far cheaper than ``Fraction``
arithmetic, does almost all of the work.  This is a canonical form: two
polynomials are equal iff their dicts are, and since an ``int`` equals and
hashes like the integral ``Fraction``, equality, hashing and printing are
those of an all-``Fraction`` dict.  Callers that divide a coefficient must
convert it to ``Fraction`` first, or ``/`` makes a float.
"""

from __future__ import annotations

from fractions import Fraction
from operator import add

from .errors import ArityError


class Poly:
    """Immutable exact polynomial in del and k lambda-variables."""

    __slots__ = ("arity", "terms")

    def __init__(self, arity, terms=None):
        self.arity = int(arity)
        clean = {}
        if terms:
            for key, coeff in terms.items():
                if len(key) != self.arity + 1:
                    raise ValueError(
                        "exponent vector %r does not match arity %d" % (key, arity)
                    )
                coeff = _coefficient(coeff)
                if coeff:
                    clean[tuple(int(e) for e in key)] = coeff
        self.terms = clean

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, arity):
        return _trusted(arity, {})

    @classmethod
    def const(cls, value, arity):
        value = _coefficient(value)
        return _trusted(arity, {(0,) * (arity + 1): value} if value else {})

    @classmethod
    def one(cls, arity):
        return cls.const(1, arity)

    @classmethod
    def var(cls, index, arity):
        """Variable by index: 0 is del, i >= 1 is lam_i."""
        if not 0 <= index <= arity:
            raise ArityError("variable index %d outside arity %d" % (index, arity))
        key = [0] * (arity + 1)
        key[index] = 1
        return _trusted(arity, {tuple(key): 1})

    @classmethod
    def del_(cls, arity):
        return cls.var(0, arity)

    @classmethod
    def lam(cls, index, arity):
        if index < 1:
            raise ArityError("lambda index must be >= 1")
        return cls.var(index, arity)

    # -- ring structure ----------------------------------------------

    def _coerce(self, other):
        if isinstance(other, Poly):
            if other.arity != self.arity:
                raise ArityError(
                    "arity mismatch: %d vs %d" % (self.arity, other.arity)
                )
            return other
        if isinstance(other, (int, Fraction)):
            return Poly.const(other, self.arity)
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if not other.terms:
            return self
        if not self.terms:
            return other
        return _trusted(
            self.arity, _accumulate(dict(self.terms), other.terms.items())
        )

    __radd__ = __add__

    def __neg__(self):
        return _trusted(self.arity, {k: -c for k, c in self.terms.items()})

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        # basis coordinates, identity and projection maps multiply by 1
        if _is_one(self.terms):
            return other
        if _is_one(other.terms):
            return self
        products = (
            (tuple(map(add, ka, kb)), ca * cb)
            for ka, ca in self.terms.items()
            for kb, cb in other.terms.items()
        )
        return _trusted(self.arity, _accumulate({}, products))

    __rmul__ = __mul__

    def __pow__(self, n):
        if not isinstance(n, int) or n < 0:
            raise ValueError("only nonnegative integer powers")
        if not n:
            return Poly.one(self.arity)
        result = None
        base = self
        while True:
            if n & 1:
                result = base if result is None else result * base
            n >>= 1
            if not n:
                return result
            base = base * base

    def scale(self, value):
        value = _coefficient(value)
        if not value:
            return Poly.zero(self.arity)
        products = ((k, c * value) for k, c in self.terms.items())
        return _trusted(self.arity, _accumulate({}, products))

    # -- comparisons and hashing -------------------------------------

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Poly.const(other, self.arity)
        if not isinstance(other, Poly):
            return NotImplemented
        return self.arity == other.arity and self.terms == other.terms

    def __ne__(self, other):
        result = self.__eq__(other)
        if result is NotImplemented:
            return result
        return not result

    def __hash__(self):
        return hash((self.arity, frozenset(self.terms.items())))

    def __bool__(self):
        return bool(self.terms)

    def is_zero(self):
        return not self.terms

    # -- structure ----------------------------------------------------

    def total_degree(self):
        """Joint total degree in del and all lambda-variables (-1 for 0)."""
        if not self.terms:
            return -1
        return max(sum(key) for key in self.terms)

    def degree_in(self, index):
        if not self.terms:
            return -1
        return max(key[index] for key in self.terms)

    def uses_var(self, index):
        return any(key[index] for key in self.terms)

    def with_arity(self, arity):
        """Embed into a larger lambda-scope (new variables unused)."""
        if arity == self.arity:
            return self
        if arity < self.arity:
            for key in self.terms:
                if any(key[arity + 1:]):
                    raise ArityError(
                        "cannot shrink arity %d -> %d: higher lambda in use"
                        % (self.arity, arity)
                    )
            return _trusted(
                arity, {key[: arity + 1]: c for key, c in self.terms.items()}
            )
        pad = (0,) * (arity - self.arity)
        return _trusted(arity, {key + pad: c for key, c in self.terms.items()})

    def substitute(self, index, image):
        """Exact substitution of a variable by a polynomial.

        ``index`` follows the :meth:`var` convention (0 = del).  The image
        must share this polynomial's arity.
        """
        if not 0 <= index <= self.arity:
            raise ArityError("unknown variable index %d" % index)
        image = self._coerce(image)
        if image is NotImplemented:
            raise ArityError("substitution image must be Poly or rational")
        if not any(key[index] for key in self.terms):
            return self
        terms = {}
        powers = {}
        for key, coeff in self.terms.items():
            e = key[index]
            if not e:
                products = ((key, coeff),)
            else:
                power = powers.get(e)
                if power is None:
                    power = powers[e] = image ** e
                rest = key[:index] + (0,) + key[index + 1 :]
                products = (
                    (tuple(map(add, rest, pk)), coeff * pc)
                    for pk, pc in power.terms.items()
                )
            _accumulate(terms, products)
        return _trusted(self.arity, terms)

    def eval_rational(self, values):
        """Evaluate at rational points (values indexed like variables)."""
        if len(values) != self.arity + 1:
            raise ArityError("need %d values" % (self.arity + 1))
        acc = Fraction(0)
        for key, coeff in self.terms.items():
            term = coeff
            for e, v in zip(key, values):
                if e:
                    term *= Fraction(v) ** e
            acc += term
        return acc

    # -- printing ------------------------------------------------------

    def __repr__(self):
        from .grammar import format_poly

        return "Poly(%s)" % format_poly(self)


def _trusted(arity, terms):
    """Wrap terms that are already canonical, without revalidating them.

    ``terms`` must map int tuples of length ``arity + 1`` to nonzero
    canonical coefficients (see :func:`_coefficient`), as every ring
    operation's result does; the public ``Poly(arity, terms)`` is the
    validating constructor for anything else.
    """
    poly = object.__new__(Poly)
    poly.arity = arity
    poly.terms = terms
    return poly


def _coefficient(value):
    """The canonical coefficient of a rational: an ``int`` when it is
    integral, else a ``Fraction`` (whose denominator is then > 1)."""
    if type(value) is int:
        return value
    value = Fraction(value)
    return value.numerator if value.denominator == 1 else value


def _is_one(terms):
    """Whether canonical ``terms`` are those of the constant 1."""
    if len(terms) != 1:
        return False
    ((key, coeff),) = terms.items()
    return coeff == 1 and not any(key)


def _accumulate(terms, items):
    """Add nonzero ``(key, coeff)`` pairs into ``terms``, dropping cancellations.

    Each stored value is made canonical: a sum or a product of canonical
    coefficients is an ``int`` unless a ``Fraction`` took part, and then it
    is stored as an ``int`` if it came out integral.
    """
    for key, coeff in items:
        old = terms.get(key)
        if old is not None:
            coeff += old
            if not coeff:
                del terms[key]
                continue
        if type(coeff) is not int and coeff.denominator == 1:
            coeff = coeff.numerator
        terms[key] = coeff
    return terms


def dagger(form):
    """The conformal dagger -del - form of a lambda-form, at the form's arity.

    It is the lambda that conformal skew-symmetry gives the flipped argument,
    and the implicit last lambda of a cochain when ``form`` is the sum of the
    others.
    """
    return -Poly.del_(form.arity) - form
