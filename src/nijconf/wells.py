"""Automorphism pairs, the Wells obstruction, and lifts of automorphisms.

Given an extension 0 -> H -> E -> L -> 0, every H-preserving automorphism
gamma of E induces a pair (gamma restricted to H, induced map on L); the
Wells question is the converse: which pairs (alpha, beta) of automorphisms
of (H, Q) and (L, N) arise this way.  The answer is controlled by an eta :
L -> H making gamma(s p + h) = s(beta p) + alpha h + eta p an automorphism;
the three conditions on eta are the residual of "gamma is a Nijenhuis
morphism" on the arguments of the diagram, ``extension._map_residuals``,
which the tau of an equivalence reads too, so no separate sign conventions
exist here.  For abelian H the conditions are affine in eta and solved
exactly over a bounded coefficient space, and one holder of E's bracket
serves every unknown of a solve.  The triple moved by a pair reads its chi
at (beta^-1 p, beta^-1 q) through one ``lca._BasisPairs`` of the old chi,
and its action at (beta^-1 p, alpha^-1 h) through one of the old action,
tabulated by ``lca._tabulated``.  A lift checks the pair and gamma once
each, also when the ``lift`` verb has solved for eta first.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product

from .cohomology import Cochain
from .errors import ModuleMismatchError, PreconditionError, UnsupportedModeError
from .extension import (
    ExtensionData,
    NonAbelianCocycle,
    cocycle_equivalence,
    extract_cocycle,
    residual_report,
    _map_residuals,
    solve_map,
    solve_report,
)
from .lca import ConfLinMap, RepTable, check_morphism, _BasisPairs, _tabulated
# solve is unused here; perfbench/tests checks the tracer rebinds it
from .linalg import poly_unimodular_inverse, solve
from .report import PASS, Report


class AutomorphismPair:
    """alpha : H -> H and beta : L -> L, candidates for lifting."""

    def __init__(self, alpha, beta):
        if not alpha.is_endomorphism or not beta.is_endomorphism:
            raise ModuleMismatchError("pair components must be endomorphisms")
        self.alpha = alpha
        self.beta = beta

    def compose(self, other):
        return AutomorphismPair(
            self.alpha.compose(other.alpha), self.beta.compose(other.beta)
        )

    def __eq__(self, other):
        if not isinstance(other, AutomorphismPair):
            return NotImplemented
        return self.alpha == other.alpha and self.beta == other.beta

    @classmethod
    def identity(cls, quot, sub):
        return cls(
            ConfLinMap.identity(sub.algebra.module),
            ConfLinMap.identity(quot.algebra.module),
        )


def _inverse(mapping, what):
    inverse = poly_unimodular_inverse(mapping.matrix)
    if inverse is None:
        raise PreconditionError("%s is not invertible over Q[del]" % what)
    return ConfLinMap(mapping.target, mapping.source, inverse)


def check_automorphism_pair(pair, quot, sub):
    """Invertibility and Nijenhuis-morphism property of both components."""
    report = Report("automorphism-pair")
    report.add(
        "alpha-invertible",
        poly_unimodular_inverse(pair.alpha.matrix) is not None,
    )
    report.add(
        "beta-invertible",
        poly_unimodular_inverse(pair.beta.matrix) is not None,
    )
    m_a = check_morphism(sub.algebra, sub.algebra, pair.alpha)
    report.add("alpha-morphism", m_a.passed, m_a.witness_of("morphism"))
    report.add(
        "alpha-operator",
        (pair.alpha.compose(sub.n) - sub.n.compose(pair.alpha)).is_zero(),
    )
    m_b = check_morphism(quot.algebra, quot.algebra, pair.beta)
    report.add("beta-morphism", m_b.passed, m_b.witness_of("morphism"))
    report.add(
        "beta-operator",
        (pair.beta.compose(quot.n) - quot.n.compose(pair.beta)).is_zero(),
    )
    return report


def check_h_automorphism(ext, gamma):
    """gamma is an automorphism of the total structure preserving H."""
    report = Report("h-automorphism")
    total = ext.total
    morph = check_morphism(total.algebra, total.algebra, gamma)
    report.add("morphism", morph.passed, morph.witness_of("morphism"))
    report.add(
        "operator",
        (gamma.compose(total.n) - total.n.compose(gamma)).is_zero(),
    )
    report.add(
        "invertible", poly_unimodular_inverse(gamma.matrix) is not None
    )
    report.add("preserves-sub", ext.proj.compose(gamma).compose(ext.inc).is_zero())
    return report


def induced_pair(ext, gamma):
    """The pair (gamma restricted to H, induced automorphism of L).

    The L-component proj gamma s is independent of the section exactly
    because gamma preserves the kernel of proj; this is re-derived with a
    shifted second section rather than assumed.
    """
    pre = check_h_automorphism(ext, gamma)
    if not pre.passed:
        raise PreconditionError(
            "gamma is not an H-preserving automorphism: %s" % pre.failing()
        )
    return _induced(ext, gamma)


def _induced(ext, gamma):
    """:func:`induced_pair` of a gamma that passed check_h_automorphism."""
    retraction = ext.retraction()
    alpha = retraction.compose(gamma).compose(ext.inc)
    beta = ext.proj.compose(gamma).compose(ext.section)
    beta2 = ext.proj.compose(gamma).compose(_second_section(ext))
    if not (beta - beta2).is_zero():
        raise PreconditionError("induced map depends on the section")
    return AutomorphismPair(alpha, beta)


def transform_cocycle(cocycle, pair):
    """The triple moved by (alpha, beta):

    chi'_lam(p,q) = alpha(chi_lam(beta^-1 p, beta^-1 q)),
    rho'(p)_lam h = alpha(rho(beta^-1 p)_lam alpha^-1 h),
    Phi' = alpha Phi beta^-1.
    """
    a_inv = _inverse(pair.alpha, "alpha")
    b_inv = _inverse(pair.beta, "beta")
    l_mod = cocycle.rho.algebra.module
    h_mod = cocycle.rho.module
    held_chi = _BasisPairs.of_cochain(cocycle.chi)
    on_b = held_chi.operator(b_inv)
    chi = Cochain(2, cocycle.chi.rep)
    for i, j in product(range(l_mod.rank), repeat=2):
        chi.set_value((i, j), pair.alpha.apply(held_chi.at(on_b, on_b, i, j)))
    held = _BasisPairs.of_action(cocycle.rho)
    on_l, on_h = held.operator(b_inv), held.operator(a_inv)

    def action(i, j):
        return pair.alpha.apply(held.at(on_l, on_h, i, j))

    rho = RepTable(cocycle.rho.algebra, h_mod, _tabulated(l_mod, h_mod, h_mod, action))
    phi = pair.alpha.compose(cocycle.phi).compose(b_inv)
    return NonAbelianCocycle(chi, rho, phi)


def _second_section(ext):
    """The section shifted by inc . (the all-ones map L -> H)."""
    l_mod = ext.quot.algebra.module
    h_mod = ext.sub.algebra.module
    shift = ConfLinMap(
        l_mod, h_mod, [[Fraction(1)] * l_mod.rank for _ in range(h_mod.rank)]
    )
    return ext.section + ext.inc.compose(shift)


def _pair_part(ext, pair):
    """The eta-independent part s beta p + inc alpha r of the lift."""
    beta_part = ext.section.compose(pair.beta).compose(ext.proj)
    return beta_part + ext.inc.compose(pair.alpha).compose(ext.retraction())


def lift_map(ext, pair, eta):
    """gamma(s p + h) = s(beta p) + alpha h + eta p as a map of E."""
    return _pair_part(ext, pair) + ext.inc.compose(eta).compose(ext.proj)


def _require_pair(ext, pair):
    pre = check_automorphism_pair(pair, ext.quot, ext.sub)
    if not pre.passed:
        raise PreconditionError("invalid automorphism pair: %s" % pre.failing())


def _eta_residuals(ext, pair):
    """eta -> the three lifting residuals of the lift gamma of the pair
    through eta: the residual of "gamma is a Nijenhuis morphism of E" on the
    arguments of ext's diagram (``extension._map_residuals``).  With the
    pair itself valid, these are exactly the three lifting conditions on
    eta."""
    pair_part = _pair_part(ext, pair)
    map_residuals = _map_residuals(ext, ext)
    return lambda eta: map_residuals(pair_part + ext.inc.compose(eta).compose(ext.proj))


def _solve_eta(ext, residuals, bound):
    """Exact affine solve for eta: (eta-or-None, bound, certified).

    The conditions are affine in eta only when H is abelian.  When H is an
    evaluation module its del is a scalar, so the degree-1 slice of
    `extension.solve_map` has finitely many unknowns by construction,
    constants on every entry: degree 0 already covers every bound, and
    infeasibility is a certificate.  Otherwise the default bound is 2.
    """
    if ext.sub.algebra.table.entries:
        raise UnsupportedModeError("solving for eta needs an abelian H-bracket")
    certified = ext.sub.algebra.module.is_evaluation
    if certified:
        bound = 0
    elif bound is None:
        bound = 2
    l_mod, h_mod = ext.quot.algebra.module, ext.sub.algebra.module
    return solve_map(l_mod, h_mod, bound, residuals), bound, certified


def inducibility(ext, pair, eta=None, bound=None):
    """Decide or certify that (alpha, beta) lifts to the extension.

    With ``eta`` supplied, the three lifting conditions are checked for it.
    Without it, eta is solved for exactly (abelian H, bounded degree) or
    reported ``infeasible``.  Returns (report, eta-or-None).
    """
    _require_pair(ext, pair)
    residuals = _eta_residuals(ext, pair)
    if eta is not None:
        return residual_report("inducibility", residuals(eta)), eta
    eta, used, certified = _solve_eta(ext, residuals, bound)
    return solve_report("inducibility", eta, residuals, used, certified), eta


def lift(ext, pair, eta):
    """gamma built from eta, validated as an H-preserving automorphism that
    induces the pair; returns (report, gamma)."""
    _require_pair(ext, pair)
    return _lift(ext, pair, eta)


def _lift(ext, pair, eta):
    """:func:`lift` of a pair that passed check_automorphism_pair: gamma is
    checked once, and its induced pair read without checking it again."""
    gamma = lift_map(ext, pair, eta)
    report = check_h_automorphism(ext, gamma)
    if report.passed:
        report.add("induces-pair", _induced(ext, gamma) == pair, "induced pair differs")
    return report, gamma


def wells_obstruction(ext, pair, bound=None):
    """The Wells decision for a pair: can it be lifted to E.

    Returns the report.  Its status ``class`` is ``zero@D`` when an eta of
    degree <= D exists, ``nonzero@D`` when the bounded solve is infeasible,
    and ``nonzero-certified`` when infeasibility is conclusive because the
    eta-unknowns live in a finite space (evaluation-module H).  The status
    is recomputed with a second section as an independence check.
    """
    _require_pair(ext, pair)
    report = Report("wells-obstruction")
    first = _section_status(ext, pair, bound, ext.section)
    report.add_status("class", first)
    second = _section_status(ext, pair, bound, _second_section(ext))
    report.add("section-independent", first == second, "%s vs %s" % (first, second))
    return report


def _section_status(ext, pair, bound, section):
    """The Wells status recomputed through a different section.

    The solve is rerun on the same diagram repackaged with the new section,
    so both the lift formula and the retraction change underneath it;
    feasibility must not.
    """
    moved = ExtensionData(
        ext.total, ext.sub, ext.quot, ext.inc, ext.proj, section
    )
    eta, used, certified = _solve_eta(moved, _eta_residuals(moved, pair), bound)
    if eta is None:
        return "nonzero-certified" if certified else "nonzero@%d" % used
    return "zero@%d" % used


def wells_sequence_check(ext, gammas, pairs, bound=None):
    """Instance checks of the lifting exact sequence.

    (a) every supplied gamma inducing the identity pair is a shear: it
        fixes H pointwise-as-a-map and differs from the identity by
        inc . tau . proj;
    (b) for every supplied pair, the Wells status is zero exactly when the
        triple moved by the pair is equivalent to the extension's own (the
        two sides of the lifting criterion: the eta solve behind the status,
        and a tau solve on the Wells-map side).
    """
    report = Report("wells-sequence")
    identity = AutomorphismPair.identity(ext.quot, ext.sub)
    for n, gamma in enumerate(gammas):
        induced = induced_pair(ext, gamma)
        if induced == identity:
            delta = gamma - ConfLinMap.identity(ext.total.algebra.module)
            is_shear = (
                ext.proj.compose(delta).is_zero()
                and delta.compose(ext.inc).is_zero()
            )
            report.add(
                "kernel-%d" % n, is_shear, "gamma induces (Id,Id) but is not a shear"
            )
        else:
            report.add_status("kernel-%d" % n, PASS, "not in kernel")
    cocycle = extract_cocycle(ext)
    for n, pair in enumerate(pairs):
        status = wells_obstruction(ext, pair, bound).status_of("class")
        _, tau = cocycle_equivalence(
            transform_cocycle(cocycle, pair), cocycle, ext.quot, ext.sub
        )
        agree = status.startswith("zero") == (tau is not None)
        report.add(
            "pair-%d" % n,
            agree,
            "obstruction %s but moved triple %s"
            % (status, "equivalent" if tau else "not equivalent"),
        )
    return report
