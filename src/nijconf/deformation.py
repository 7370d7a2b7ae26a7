"""Formal deformations N_t = N + N_1 t + ... + N_k t^k of a Nijenhuis operator.

Orders are finite and explicit: a series is its list of coefficient maps, and
every statement below is a t-coefficient comparison carried out exactly on
basis pairs.  The order-1 coefficient is a 1-cocycle for the operator
differential, and the first failure to extend an order-k deformation is the
degree-2 obstruction class.
"""

from __future__ import annotations

from fractions import Fraction
from functools import partial
from itertools import product

from .cohomology import (
    Cochain,
    _cochain_witness,
    adjoint_rep,
    apply_dN,
    fn_bracket_of_maps,
    image_contains,
)
from .errors import ModuleMismatchError, PreconditionError
from .lca import ConfLinMap, eval_bracket
from .nijenhuis import _deformed
from .report import Report, failures_of


class DeformationSeries:
    """A Nijenhuis structure together with deformation terms N_1..N_k."""

    def __init__(self, base, terms):
        module = base.algebra.module
        for term in terms:
            if term.source != module or term.target != module:
                raise ModuleMismatchError(
                    "deformation terms must be endomorphisms of the algebra"
                )
        self.base = base
        self.terms = list(terms)

    @property
    def order(self):
        return len(self.terms)

    def term(self, n):
        """Coefficient of t^n; N_0 is the undeformed operator."""
        if n == 0:
            return self.base.n
        if 1 <= n <= self.order:
            return self.terms[n - 1]
        module = self.base.algebra.module
        return ConfLinMap.zero(module, module)


def _order_residuals(series, n):
    """(pair, residual) of the t^n-coefficient of the deformed Nijenhuis
    identity on every basis pair."""
    module = series.base.algebra.module
    bracket = partial(eval_bracket, series.base.algebra)
    maps = [series.term(i) for i in range(n + 1)]

    def residual(a, b):
        pa, qb = module.basis_elem(a), module.basis_elem(b)
        lhs = rhs = module.zero(1)
        for left, right in zip(maps, reversed(maps)):
            lhs = lhs + bracket(left.apply(pa), right.apply(qb))
            rhs = rhs + left.apply(_deformed(bracket, right, right, right, pa, qb))
        return lhs - rhs

    pairs = product(range(module.rank), repeat=2)
    return failures_of((key, residual(*key)) for key in pairs)


def check_order(series):
    """t-coefficient conditions of the deformed Nijenhuis identity, n = 0..k."""
    report = Report("deformation-order")
    for n in range(series.order + 1):
        report.add_failures("order-%d" % n, _order_residuals(series, n))
    return report


def infinitesimal_cocycle(series):
    """N_1 is a 1-cocycle of the operator differential.

    Also records that the cocycle condition and the order-1 coefficient
    condition agree, which pins the differential's sign conventions.
    """
    if series.order < 1:
        raise PreconditionError("series has no order-1 term")
    base = series.base
    rep = adjoint_rep(base.algebra)
    cochain = Cochain.from_map(series.terms[0], rep)
    image = apply_dN(cochain, base.n)
    report = Report("infinitesimal")
    report.add("cocycle", image.is_zero(), _cochain_witness(image))
    order1 = not _order_residuals(series, 1)
    report.add(
        "order-1-agreement",
        image.is_zero() == order1,
        "cocycle and order-1 condition disagree" if image.is_zero() != order1 else None,
    )
    return report


def obstruction(series, bound=3):
    """Obstruction class to extending an order-k deformation one step.

    Ob = -1/2 sum_{i+j=k+1, i,j>=1} [N_i, N_j]_FN.  Returns the degree-2
    cochain together with a report: the class is always a d_N-cocycle, and
    extensibility is decided only within the polynomial degree bound and
    reported as ``extensible@D`` / ``obstructed@D``.
    """
    pre = check_order(series)
    if not pre.passed:
        raise PreconditionError(
            "series fails its own order conditions: %s" % pre.lines()
        )
    base = series.base
    lca = base.algebra
    rep = adjoint_rep(lca)
    k = series.order
    ob = Cochain.zero(2, rep)
    for i in range(1, k + 1):
        j = k + 1 - i
        if j < 1 or j > k:
            continue
        ob = ob + fn_bracket_of_maps(lca, series.term(i), series.term(j))
    ob = ob.scale(Fraction(-1, 2))
    report = Report("obstruction")
    image = apply_dN(ob, base.n)
    report.add("cocycle", image.is_zero(), _cochain_witness(image))
    differential = lambda f: apply_dN(f, base.n)  # noqa: E731
    extensible = ob.is_zero() or image_contains(rep, bound, differential, ob)
    report.add_status(
        "extensibility",
        "extensible@%d" % bound if extensible else "obstructed@%d" % bound,
    )
    return ob, report


def operator_coboundary(nlca, p):
    """The 1-coboundary d_N(p) of an algebra element, as a linear map."""
    rep = adjoint_rep(nlca.algebra)
    cochain = Cochain(0, rep)
    cochain.set_value((), p)
    return apply_dN(cochain, nlca.n).to_map()


def verify_equivalence_order1(series, other, p):
    """N_1 - N_1' = d_N(p): the order-1 terms are cohomologous via p."""
    if series.base.algebra != other.base.algebra or series.base.n != other.base.n:
        raise PreconditionError("series are over different bases")
    if series.order < 1 or other.order < 1:
        raise PreconditionError("both series need an order-1 term")
    expected = operator_coboundary(series.base, p)
    difference = series.terms[0] - other.terms[0]
    residual = difference - expected
    report = Report("equivalence-order1")
    witness = None
    if not residual.is_zero():
        witness = "residual map matrix %r" % residual.matrix
    report.add("cohomologous", residual.is_zero(), witness)
    return report
