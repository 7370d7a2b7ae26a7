"""Automorphism pairs, the Wells obstruction, and lifts of automorphisms.

Given an extension 0 -> H -> E -> L -> 0, every H-preserving automorphism
gamma of E induces a pair (gamma restricted to H, induced map on L); the
Wells question is the converse: which pairs (alpha, beta) of automorphisms
of (H, Q) and (L, N) arise this way.  The answer is controlled by an eta :
L -> H making gamma(s p + h) = s(beta p) + alpha h + eta p an automorphism;
the three conditions on eta are implemented as component restrictions of
"gamma is a Nijenhuis morphism", so no separate sign conventions exist
here.  For abelian H the conditions are affine in eta and solved exactly
over a bounded coefficient space.
"""

from __future__ import annotations

from fractions import Fraction

from .cohomology import Cochain, _cochain_witness, act_form, eval_cochain
from .errors import ModuleMismatchError, PreconditionError, UnsupportedModeError
from .extension import NonAbelianCocycle, extract_cocycle, map_system
from .lca import ConfLinMap, RepTable, check_morphism, eval_bracket
from .linalg import poly_unimodular_inverse, solve
from .poly import Poly, dagger
from .report import Report

VERIFY = "verify"
SOLVE = "solve"
LIFT = "lift"


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
            "gamma is not an H-preserving automorphism: %s"
            % "; ".join(line for line in pre.lines() if "fail" in line)
        )
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
    lam1 = Poly.lam(1, 1)
    dag1 = dagger(lam1)
    chi = Cochain(2, cocycle.chi.rep)
    rho = RepTable(cocycle.rho.algebra, h_mod)
    for i in range(l_mod.rank):
        bp = b_inv.apply(l_mod.basis_elem(i))
        for j in range(l_mod.rank):
            bq = b_inv.apply(l_mod.basis_elem(j))
            value = eval_cochain(cocycle.chi, [bp, bq], [lam1, dag1], 1)
            chi.set_value((i, j), pair.alpha.apply(value))
        for j in range(h_mod.rank):
            ah = a_inv.apply(h_mod.basis_elem(j))
            value = act_form(cocycle.rho.action, h_mod, bp, ah, lam1, 1)
            rho.set_action(i, j, pair.alpha.apply(value).coords)
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


def _lift_residuals(ext, gamma):
    """Automorphism defect of the lift gamma, split by argument type.

    ``action``   -- morphism residual on (section, inclusion) pairs;
    ``bracket``  -- morphism residual on (section, section) pairs;
    ``operator`` -- (gamma R - R gamma) on section images.
    With the pair itself valid, these are exactly the three lifting
    conditions on eta.
    """
    total = ext.total
    l_mod = ext.quot.algebra.module
    h_mod = ext.sub.algebra.module
    e_mod = total.algebra.module
    rep = RepTable(ext.quot.algebra, e_mod)

    action_res = Cochain(2, rep)
    bracket_res = Cochain(2, rep)
    sections = [
        ext.section.apply(l_mod.basis_elem(i)) for i in range(l_mod.rank)
    ]
    included = [ext.inc.apply(h_mod.basis_elem(j)) for j in range(h_mod.rank)]
    g_sections = [gamma.apply(x) for x in sections]
    g_included = [gamma.apply(x) for x in included]
    for i in range(l_mod.rank):
        for j in range(h_mod.rank):
            residual = gamma.apply(
                eval_bracket(total.algebra, sections[i], included[j])
            ) - eval_bracket(total.algebra, g_sections[i], g_included[j])
            action_res.set_value((i, j), residual)
        for j in range(l_mod.rank):
            residual = gamma.apply(
                eval_bracket(total.algebra, sections[i], sections[j])
            ) - eval_bracket(total.algebra, g_sections[i], g_sections[j])
            bracket_res.set_value((i, j), residual)

    operator_res = Cochain(1, rep)
    defect = gamma.compose(total.n) - total.n.compose(gamma)
    for i in range(l_mod.rank):
        operator_res.set_value((i,), defect.apply(sections[i]))
    return action_res, bracket_res, operator_res


def _require_pair(ext, pair):
    pre = check_automorphism_pair(pair, ext.quot, ext.sub)
    if not pre.passed:
        raise PreconditionError(
            "invalid automorphism pair: %s"
            % "; ".join(line for line in pre.lines() if "fail" in line)
        )


def _abelian(ext):
    return not ext.sub.algebra.table.entries


def _eta_bound(ext, bound):
    """Effective degree bound for eta unknowns, and whether infeasibility
    at that bound is a certificate.

    When H is an evaluation module every del-power in an eta entry collapses
    to a scalar, so the unknown space is finite regardless of the bound and
    degree 0 already covers it.
    """
    if ext.sub.algebra.module.is_evaluation:
        return 0, True
    if bound is None:
        bound = 2
    return bound, False


def _solve_eta(ext, pair, bound):
    """Exact affine solve for eta; returns (eta-or-None, bound, certified)."""
    if not _abelian(ext):
        raise UnsupportedModeError(
            "solving for eta needs an abelian H-bracket"
        )
    l_mod = ext.quot.algebra.module
    h_mod = ext.sub.algebra.module
    bound, certified = _eta_bound(ext, bound)
    pair_part = _pair_part(ext, pair)

    def residuals(eta):
        return _lift_residuals(
            ext, pair_part + ext.inc.compose(eta).compose(ext.proj)
        )

    columns, rhs, to_map = map_system(l_mod, h_mod, bound, residuals)
    solution = solve(columns, rhs)
    if solution is None:
        return None, bound, certified
    return to_map(solution), bound, certified


def inducibility(ext, pair, mode=VERIFY, eta=None, bound=None):
    """Decide or certify that (alpha, beta) lifts to the extension.

    ``verify``: check the three lifting conditions for the given eta.
    ``solve``:  find eta exactly (abelian H, bounded degree) or report
                ``infeasible``; returns (report, eta-or-None).
    ``lift``:   build gamma from eta and validate it as an H-preserving
                automorphism inducing the pair; returns (report, gamma).
    """
    _require_pair(ext, pair)
    if mode == VERIFY:
        if eta is None:
            raise PreconditionError("verify mode needs an eta")
        report = Report("inducibility")
        residuals = _lift_residuals(ext, lift_map(ext, pair, eta))
        for name, res in zip(("action", "bracket", "operator"), residuals):
            report.add(name, res.is_zero(), _cochain_witness(res))
        return report, eta
    if mode == SOLVE:
        report = Report("inducibility")
        eta, used, certified = _solve_eta(ext, pair, bound)
        if eta is None:
            witness = "infeasible within degree bound %d" % used
            if certified:
                witness += " (certified: finite unknown space)"
            report.add("solve", False, witness)
            return report, None
        verify, _ = inducibility(ext, pair, VERIFY, eta)
        report.add(
            "solve",
            verify.passed,
            None if verify.passed else "witness fails re-check",
        )
        return report, eta
    if mode == LIFT:
        if eta is None:
            raise PreconditionError("lift mode needs an eta")
        gamma = lift_map(ext, pair, eta)
        report = check_h_automorphism(ext, gamma)
        if report.passed:
            induced = induced_pair(ext, gamma)
            report.add(
                "induces-pair",
                induced == pair,
                None if induced == pair else "induced pair differs",
            )
        return report, gamma
    raise UnsupportedModeError("unknown mode %r" % mode)


def wells_obstruction(ext, pair, bound=None):
    """The Wells decision for a pair: can it be lifted to E.

    Returns (difference-triple, report).  The difference triple is the
    transformed-minus-original cocycle of the extension; the report status
    ``class`` is ``zero@D`` when an eta of degree <= D exists, ``nonzero@D``
    when the bounded solve is infeasible, and ``nonzero-certified`` when
    infeasibility is conclusive because the eta-unknowns live in a finite
    space (evaluation-module H).  The status is recomputed with a second
    section as an independence check.
    """
    _require_pair(ext, pair)
    cocycle = extract_cocycle(ext)
    moved = transform_cocycle(cocycle, pair)
    difference = NonAbelianCocycle(
        moved.chi - cocycle.chi,
        RepTable(
            cocycle.rho.algebra,
            cocycle.rho.module,
            moved.rho.action - cocycle.rho.action,
        ),
        moved.phi - cocycle.phi,
    )
    report = Report("wells-obstruction")
    first = _section_status(ext, pair, bound, ext.section)
    report.add_status("class", first)
    second = _section_status(ext, pair, bound, _second_section(ext))
    report.add(
        "section-independent",
        first == second,
        None if first == second else "%s vs %s" % (first, second),
    )
    return difference, report


def _section_status(ext, pair, bound, section):
    """The Wells status recomputed through a different section.

    The solve is rerun on the same diagram repackaged with the new section,
    so both the lift formula and the retraction change underneath it;
    feasibility must not.
    """
    from .extension import ExtensionData

    moved = ExtensionData(
        ext.total, ext.sub, ext.quot, ext.inc, ext.proj, section
    )
    eta, used, certified = _solve_eta(moved, pair, bound)
    if eta is None:
        return "nonzero-certified" if certified else "nonzero@%d" % used
    return "zero@%d" % used


def wells_sequence_check(ext, gammas, pairs, bound=None):
    """Instance checks of the lifting exact sequence.

    (a) every supplied gamma inducing the identity pair is a shear: it
        fixes H pointwise-as-a-map and differs from the identity by
        inc . tau . proj;
    (b) for every supplied pair, the Wells status is zero exactly when the
        eta-solve succeeds (the two sides of the lifting criterion).
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
                "kernel-%d" % n,
                is_shear,
                None if is_shear else "gamma induces (Id,Id) but is not a shear",
            )
        else:
            from .report import PASS

            report.add_status("kernel-%d" % n, PASS, "not in kernel")
    for n, pair in enumerate(pairs):
        _, obstruction = wells_obstruction(ext, pair, bound)
        zero = obstruction.status_of("class").startswith("zero")
        solved, eta = inducibility(ext, pair, SOLVE, bound=bound)
        agree = zero == (eta is not None)
        report.add(
            "pair-%d" % n,
            agree,
            None
            if agree
            else "obstruction %s but solve %s"
            % (obstruction.status_of("class"), "found eta" if eta else "infeasible"),
        )
    return report
