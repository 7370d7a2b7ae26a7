"""Formal deformations N_t = N + N_1 t + ... + N_k t^k of a Nijenhuis operator.

Orders are finite and explicit: a series is its list of coefficient maps, and
every statement below is a t-coefficient comparison carried out exactly on
basis pairs.  The order-1 coefficient is a 1-cocycle for the operator
differential, and the first failure to extend an order-k deformation is the
degree-2 obstruction class.  A series holds the residual of each order (see
`_order_residuals`), so checking the orders, the cocycle and the
obstruction of one series computes each order once.
"""

from __future__ import annotations

from itertools import product

from .cohomology import (
    Cochain,
    _held,
    adjoint_rep,
    apply_dN,
    image_contains,
)
from .errors import ModuleMismatchError, PreconditionError
from .lca import ConfLinMap, _BasisPairs
from .nijenhuis import _deformed
from .report import Report, failures_of


class DeformationSeries:
    """A Nijenhuis structure together with deformation terms N_1..N_k.

    It holds the residuals of its orders in ``_plans`` (see
    `_order_residuals`)."""

    _plans = None

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
    """{pair: residual} of the t^n-coefficient of the deformed Nijenhuis
    identity on every basis pair, with N_i = 0 for i beyond the order.

    At n = k + 1 on an order-k series this is minus the obstruction class
    (`obstruction`).  So an N_{k+1} with d_N(N_{k+1}) = Ob makes the t^{k+1}
    residual vanish: the sign of the next term is the residual's.

    The series holds each order's residuals and one `lca._BasisPairs` of
    its bracket, from which every order reads the images of the basis under
    N_0..N_n and the brackets of them (`cohomology._held`); both are built
    again once the bracket table, the base operator or the terms change.
    The residuals are shared: a caller copies before it edits.
    """
    algebra = series.base.algebra
    sources = algebra.table.stamp, series.base.n, *series.terms
    held = _held(series, "pairs", lambda: _BasisPairs.of_bracket(algebra), *sources)

    def build():
        module = algebra.module
        maps = [held.operator(series.term(i)) for i in range(n + 1)]
        residuals = {}
        for a, b in product(range(module.rank), repeat=2):
            lhs = rhs = module.zero(1)
            for left, right in zip(maps, reversed(maps)):
                lhs = lhs + held.at(left, right, a, b)
                rhs = rhs + held.apply(left, _deformed(held, right, right, right, a, b))
            residuals[a, b] = lhs - rhs
        return residuals

    return _held(series, n, build, *sources)


def check_order(series):
    """t-coefficient conditions of the deformed Nijenhuis identity, n = 0..k."""
    report = Report("deformation-order")
    for n in range(series.order + 1):
        residuals = _order_residuals(series, n).items()
        report.add_failures("order-%d" % n, failures_of(residuals))
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
    report.add_failures("cocycle", failures_of(image.values.items()))
    order1 = not failures_of(_order_residuals(series, 1).items())
    report.add(
        "order-1-agreement",
        image.is_zero() == order1,
        "cocycle and order-1 condition disagree",
    )
    return report


def obstruction(series, bound=3):
    """Obstruction class to extending an order-k deformation one step.

    Ob = -1/2 sum_{i+j=k+1, i,j>=1} [N_i, N_j]_FN, read as minus the
    t^{k+1} residual of the Nijenhuis identity with N_{k+1} = 0
    (`_order_residuals`): its terms with i, j >= 1 are the polarization of
    the FN sum, and each term with N_0 has the factor N_{k+1}.
    Returns the degree-2 cochain together with a report: the class is
    always a d_N-cocycle, and ``extensible@D`` says that Ob is a d_N-image
    of the preimages from which `solve_truncated` counts its coboundaries at
    bound D (`image_contains`), 1-cochains of degree at most D plus the
    structure degree, whatever the degree of Ob; ``obstructed@D`` that it
    is not.
    """
    pre = check_order(series)
    if not pre.passed:
        raise PreconditionError(
            "series fails its own order conditions: %s" % pre.lines()
        )
    base = series.base
    rep = adjoint_rep(base.algebra)
    residuals = _order_residuals(series, series.order + 1)
    ob = Cochain(2, rep, {key: -residual for key, residual in residuals.items()})
    report = Report("obstruction")
    image = apply_dN(ob, base.n)
    report.add_failures("cocycle", failures_of(image.values.items()))
    extensible = ob.is_zero() or image_contains(rep, bound, ob, operator=base.n)
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
    witness = "residual map matrix %r" % residual.matrix
    return report.add("cohomologous", residual.is_zero(), witness)
