"""Non-abelian extensions of one Nijenhuis conformal algebra by another.

An extension 0 -> H -> E -> L -> 0 with a section s yields a triple
(chi, rho, Phi): the bracket defect of the section, the induced action of L
on H, and the operator defect R s - s N.  Conversely, a triple satisfying
the cocycle conditions rebuilds an extension on L (+) H.  The conditions
are checked component-wise on the candidate total structure, so every
identity here is literally a restriction of the conformal axioms or of the
Nijenhuis identity -- no separate sign conventions to maintain.

Equivalence of triples is decided exactly: by direct verification for a
supplied comparison map tau, or, when H is abelian, by a linear solve for
tau over a bounded polynomial coefficient space (with an honest
``infeasible`` verdict when the bound admits no solution).
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product

from .cohomology import Cochain, _cochain_vector, _cochain_witness, act_form
from .errors import ModuleMismatchError, PreconditionError
from .lca import (
    ConfLinMap,
    Elem,
    RepTable,
    check_morphism,
    eval_bracket,
    sum_algebra,
    _jacobi_failures,
    _output_tuples,
    _skew_failures,
    _torsion_is_inert,
    _torsion_mixing,
)
from .linalg import (
    is_split_injection,
    is_split_surjection,
    poly_unimodular_inverse,
    solve,
)
from .nijenhuis import NijenhuisLCA, _nijenhuis_failures, _require_linear
from .poly import Poly, dagger
from .report import Report, failures_of


class ExtensionData:
    """An extension diagram with a chosen section.

    ``total`` is (E, R), ``sub`` is (H, Q), ``quot`` is (L, N); ``inc``,
    ``proj`` and ``section`` are the maps of the diagram.  The invariants
    live in :func:`check_extension`, not in the constructor, so that broken
    diagrams can still be represented in negative tests.
    """

    def __init__(self, total, sub, quot, inc, proj, section):
        e_mod = total.algebra.module
        if inc.source != sub.algebra.module or inc.target != e_mod:
            raise ModuleMismatchError("inc must map H into E")
        if proj.source != e_mod or proj.target != quot.algebra.module:
            raise ModuleMismatchError("proj must map E onto L")
        if section.source != quot.algebra.module or section.target != e_mod:
            raise ModuleMismatchError("section must map L into E")
        self.total = total
        self.sub = sub
        self.quot = quot
        self.inc = inc
        self.proj = proj
        self.section = section

    def retraction(self, section=None):
        """The H-valued retraction r with r inc = Id and r section = 0.

        The columns of inc and the section form a Q[del]-basis of E exactly
        when the diagram splits as modules; the retraction is the H-block of
        the inverse basis matrix.
        """
        section = section or self.section
        e_rank = self.total.algebra.module.rank
        h_rank = self.sub.algebra.module.rank
        matrix = [
            self.inc.matrix[i] + section.matrix[i] for i in range(e_rank)
        ]
        inverse = poly_unimodular_inverse(matrix)
        if inverse is None:
            raise PreconditionError(
                "inc and section do not split E over Q[del]"
            )
        return ConfLinMap(
            self.total.algebra.module,
            self.sub.algebra.module,
            inverse[:h_rank],
        )


def check_extension(ext):
    """Short-exact-sequence and operator-compatibility invariants."""
    report = Report("extension")
    report.add("proj-inc-zero", ext.proj.compose(ext.inc).is_zero())
    ident = ConfLinMap.identity(ext.quot.algebra.module)
    report.add(
        "proj-section-identity",
        (ext.proj.compose(ext.section) - ident).is_zero(),
    )
    report.add("inc-split-injective", is_split_injection(ext.inc.matrix))
    report.add("proj-split-surjective", is_split_surjection(ext.proj.matrix))
    m_inc = check_morphism(ext.sub.algebra, ext.total.algebra, ext.inc)
    report.add("inc-morphism", m_inc.passed, m_inc.witness_of("morphism"))
    m_proj = check_morphism(ext.total.algebra, ext.quot.algebra, ext.proj)
    report.add("proj-morphism", m_proj.passed, m_proj.witness_of("morphism"))
    report.add(
        "operator-sub",
        (ext.total.n.compose(ext.inc) - ext.inc.compose(ext.sub.n)).is_zero(),
    )
    report.add(
        "operator-quot",
        (ext.proj.compose(ext.total.n) - ext.quot.n.compose(ext.proj)).is_zero(),
    )
    return report


class NonAbelianCocycle:
    """Triple (chi, rho, Phi) of an extension with respect to a section.

    ``chi`` is a degree-2 cochain valued in H, ``rho`` a RepTable-shaped
    action of L on H (not necessarily a representation: its curvature is
    the adjoint of chi), ``phi`` a Q[del]-linear map L -> H.
    """

    def __init__(self, chi, rho, phi):
        if chi.degree != 2:
            raise ModuleMismatchError("chi must be a degree-2 cochain")
        if chi.target != rho.module:
            raise ModuleMismatchError("chi and rho have different coefficients")
        if phi.source != rho.algebra.module or phi.target != rho.module:
            raise ModuleMismatchError("phi endpoints do not match the triple")
        self.chi = chi
        self.rho = rho
        self.phi = phi

    def __eq__(self, other):
        if not isinstance(other, NonAbelianCocycle):
            return NotImplemented
        return (
            self.chi == other.chi
            and self.rho.action == other.rho.action
            and self.phi == other.phi
        )


def extract_cocycle(ext, section=None):
    """The triple of an extension: chi_lam(p,q) = [s p lam s q] - s[p lam q],
    rho(p)_lam h = [s p lam h], Phi = R s - s N.

    Every value is checked to lie in the kernel of proj before being
    rewritten in H-coordinates through the retraction.
    """
    if section is None:
        section = ext.section
    retraction = ext.retraction(section)
    l_mod = ext.quot.algebra.module
    h_mod = ext.sub.algebra.module
    total = ext.total.algebra

    def to_h(value, where):
        if not ext.proj.apply(value).is_zero():
            raise PreconditionError("%s escapes the kernel of proj" % where)
        return retraction.apply(value)

    rep = RepTable(ext.quot.algebra, h_mod)
    chi = Cochain(2, rep)
    rho = RepTable(ext.quot.algebra, h_mod)
    for i in range(l_mod.rank):
        sp = section.apply(l_mod.basis_elem(i))
        for j in range(l_mod.rank):
            sq = section.apply(l_mod.basis_elem(j))
            value = eval_bracket(total, sp, sq) - section.apply(
                ext.quot.algebra.bracket_basis(i, j)
            )
            chi.set_value((i, j), to_h(value, "chi(%d,%d)" % (i, j)))
        for j in range(h_mod.rank):
            value = eval_bracket(
                total, sp, ext.inc.apply(h_mod.basis_elem(j))
            )
            rho.set_action(i, j, to_h(value, "rho(%d,%d)" % (i, j)).coords)
    defect = ext.total.n.compose(section) - section.compose(ext.quot.n)
    columns = [
        to_h(defect.apply(l_mod.basis_elem(i)), "phi(%d)" % i)
        for i in range(l_mod.rank)
    ]
    phi = ConfLinMap(
        l_mod,
        h_mod,
        [
            [columns[c].coords[r] for c in range(l_mod.rank)]
            for r in range(h_mod.rank)
        ],
    )
    return NonAbelianCocycle(chi, rho, phi)


def _candidate_total(cocycle, quot, sub):
    """The bracket table and operator matrix carried by a triple on L (+) H.

    [(p,h) lam (q,k)] = ([p lam q], rho(p)_lam k - rho(q)_{-del-lam} h
    + chi_lam(p,q) + [h lam k]);  R(p,h) = (N p, Q h + Phi p).
    No axiom is assumed: the result is raw material for the checks below.
    """
    l_alg, h_alg = quot.algebra, sub.algebra
    rank_l, rank_h = l_alg.module.rank, h_alg.module.rank
    total = sum_algebra(l_alg, cocycle.rho, h_alg.table, cocycle.chi)
    total_mod = total.module
    zero = Poly.zero(0)
    r_matrix = [
        [quot.n.matrix[r][c] for c in range(rank_l)] + [zero] * rank_h
        for r in range(rank_l)
    ]
    for r in range(rank_h):
        r_matrix.append(
            [cocycle.phi.matrix[r][c] for c in range(rank_l)]
            + [sub.n.matrix[r][c] for c in range(rank_h)]
        )
    return total, ConfLinMap(total_mod, total_mod, r_matrix), rank_l


def check_nonabelian_cocycle(cocycle, quot, sub):
    """The defining identities of a non-abelian 2-cocycle triple.

    Each named check is the corresponding component restriction of the
    conformal axioms (or of the Nijenhuis identity) on the candidate total
    structure:

    * ``chi-skew``         -- skew-symmetry on L-L pairs;
    * ``rho-derivation``   -- Jacobi on (L, H, H) triples;
    * ``curvature``        -- Jacobi on (L, L, H) triples: the failure of
      rho to be a representation equals the adjoint action of chi;
    * ``jacobi``           -- Jacobi on (L, L, L) triples (the chi 2-cocycle
      condition twisted by rho);
    * ``operator-module``  -- the Nijenhuis identity on mixed pairs; when
      it holds, the Q[del]-linearity of the operator on torsion generators,
      which ``Phi`` can break (see :func:`_mixing_failures`);
    * ``operator-bracket`` -- the Nijenhuis identity on L-L pairs.

    The remaining components (H-H skew and Jacobi, H-H Nijenhuis) are the
    axioms of the validated inputs, so a passing report is exactly what
    :func:`build_extension` needs.

    When the candidate total is skew on all its pairs (the L-H pairs are by
    construction) and its torsion is inert under its bracket and operator,
    each component is evaluated on the non-decreasing tuples of its index
    sets only: L-L pairs i <= j, (L, H, H) with a <= b, (L, L, H) with
    i <= j, sorted (L, L, L) and the mixed pairs (i, a).  As in
    :func:`check_lca`, this leaves every witness unchanged.  Otherwise every
    tuple of each set is evaluated.
    """
    return _cocycle_report(*_candidate_total(cocycle, quot, sub))


def _cocycle_report(total, operator, rank_l):
    """The report of :func:`check_nonabelian_cocycle` on a candidate total."""
    rank = total.module.rank
    l_idx = range(rank_l)
    h_idx = range(rank_l, rank)
    skew_failures = _skew_failures(total, _output_tuples(rank, 2, True))
    sorted_only = not skew_failures and _torsion_is_inert(total, n=operator)

    def tuples(*index_sets):
        every = product(*index_sets)
        return [t for t in every if not sorted_only or list(t) == sorted(t)]

    report = Report("nonabelian-cocycle")
    report.add_failures("chi-skew", [f for f in skew_failures if f[0][1] < rank_l])
    for name, index_sets in (
        ("rho-derivation", (l_idx, h_idx, h_idx)),
        ("curvature", (l_idx, l_idx, h_idx)),
        ("jacobi", (l_idx, l_idx, l_idx)),
    ):
        report.add_failures(name, _jacobi_failures(total, tuples(*index_sets)))
    mixed = tuples(l_idx, h_idx) + tuples(h_idx, l_idx)
    report.add_failures(
        "operator-module",
        _nijenhuis_failures(total, operator, mixed) or _mixing_failures(operator),
    )
    report.add_failures(
        "operator-bracket", _nijenhuis_failures(total, operator, tuples(l_idx, l_idx))
    )
    return report


def _mixing_failures(mapping):
    """(entry, residual) of every entry (s, t) that :func:`_torsion_mixing`
    finds: coordinate s of mapping(del e_t) - del mapping(e_t), where del
    acts on the torsion generator e_t by a scalar a."""
    target = mapping.target

    def residual(s, t):
        entry = mapping.matrix[s][t]
        coords = [Poly.zero(0)] * target.rank
        coords[s] = entry.scale(mapping.source.actions[t]) - Poly.del_(0) * entry
        return Elem(target, coords)

    return failures_of((key, residual(*key)) for key in _torsion_mixing(mapping))


def build_extension(cocycle, quot, sub):
    """The extension on L (+) H carried by a non-abelian 2-cocycle.

    The total structure is constructor-validated, so the output genuinely
    satisfies the conformal axioms and the Nijenhuis identity; the canonical
    inclusion, projection and section are returned alongside.
    """
    report, ext = checked_extension(cocycle, quot, sub)
    if ext is None:
        raise PreconditionError(
            "triple is not a cocycle: %s"
            % "; ".join(line for line in report.lines() if "fail" in line)
        )
    return ext


def checked_extension(cocycle, quot, sub):
    """The report of :func:`check_nonabelian_cocycle` on a triple, and the
    extension of :func:`build_extension` when the report passes (else None).

    The candidate total is built and checked once for both.  An operator
    that is not Q[del]-linear on torsion is refused before the report, as
    :class:`NijenhuisLCA` refuses it.
    """
    total, operator, rank_l = _candidate_total(cocycle, quot, sub)
    _require_linear(operator)
    report = _cocycle_report(total, operator, rank_l)
    if not report.passed:
        return report, None
    total_n = NijenhuisLCA(total, operator)
    l_mod = quot.algebra.module
    h_mod = sub.algebra.module
    total_mod = total.module
    inc = ConfLinMap(
        h_mod,
        total_mod,
        [
            [Fraction(r == rank_l + c) for c in range(h_mod.rank)]
            for r in range(total_mod.rank)
        ],
    )
    proj = ConfLinMap(
        total_mod,
        l_mod,
        [[Fraction(r == c) for c in range(total_mod.rank)] for r in range(rank_l)],
    )
    section = ConfLinMap(
        l_mod,
        total_mod,
        [[Fraction(r == c) for c in range(l_mod.rank)] for r in range(total_mod.rank)],
    )
    return report, ExtensionData(total_n, sub, quot, inc, proj, section)


def _equivalence_residuals(c1, c2, quot, sub, tau):
    """Residual cochains of the three equivalence identities for a tau.

    action:   rho(p)_lam h - rho'(p)_lam h - [tau(p) lam h]_H;
    bracket:  chi - chi' - [tau p lam tau q]_H + tau[p lam q]
              - rho'(p)_lam tau q + rho'(q)_{-del-lam} tau p;
    operator: Phi - Phi' - Q tau + tau N.
    """
    l_alg, h_alg = quot.algebra, sub.algebra
    l_mod, h_mod = l_alg.module, h_alg.module
    lam1 = Poly.lam(1, 1)
    dag1 = dagger(lam1)
    rep = RepTable(l_alg, h_mod)

    action_res = Cochain(2, rep)
    bracket_res = Cochain(2, rep)
    for i in range(l_mod.rank):
        p = l_mod.basis_elem(i)
        tp = tau.apply(p)
        for j in range(h_mod.rank):
            h = h_mod.basis_elem(j)
            residual = (
                c1.rho.act_basis(i, j)
                - c2.rho.act_basis(i, j)
                - act_form(h_alg.table, h_mod, tp, h, lam1, 1)
            )
            action_res.set_value((i, j), residual)
        for j in range(l_mod.rank):
            q = l_mod.basis_elem(j)
            tq = tau.apply(q)
            residual = (
                c1.chi.value((i, j))
                - c2.chi.value((i, j))
                - act_form(h_alg.table, h_mod, tp, tq, lam1, 1)
                + tau.apply(l_alg.bracket_basis(i, j))
                - act_form(c2.rho.action, h_mod, p, tq, lam1, 1)
                + act_form(c2.rho.action, h_mod, q, tp, dag1, 1)
            )
            bracket_res.set_value((i, j), residual)

    operator_res = Cochain(1, rep)
    defect = c1.phi - c2.phi - sub.n.compose(tau) + tau.compose(quot.n)
    for i in range(l_mod.rank):
        operator_res.set_value((i,), defect.apply(l_mod.basis_elem(i)))
    return action_res, bracket_res, operator_res


def _default_tau_bound(c1, c2, quot):
    degree = 1
    for cocycle in (c1, c2):
        for value in cocycle.chi.values.values():
            for p in value.coords:
                degree = max(degree, p.total_degree())
        for row in cocycle.phi.matrix:
            for p in row:
                degree = max(degree, p.total_degree())
    for value in quot.algebra.table.entries.values():
        for p in value:
            degree = max(degree, p.total_degree())
    return degree


def map_system(l_mod, h_mod, bound, residuals):
    """The affine system for an unknown Q[del]-linear map t : L -> H.

    ``residuals(t)`` returns residual cochains that are affine in t.  The
    unknowns are the coefficients of del^e (e <= bound) in each entry of t.
    The column of an unknown is residuals(unit) - residuals(0) on every key
    of either side, and the right-hand side is -residuals(0).  Returns
    (columns, rhs, to_map), where ``to_map`` reads the map back from a
    solution of the system.
    """

    def vector(mapping):
        return {
            (tag,) + slot: coeff
            for tag, res in enumerate(residuals(mapping))
            for slot, coeff in _cochain_vector(res).items()
        }

    base = vector(ConfLinMap.zero(l_mod, h_mod))
    unknowns = [
        (r, c, e)
        for r in range(h_mod.rank)
        for c in range(l_mod.rank)
        for e in range(bound + 1)
    ]
    columns = []
    for r, c, e in unknowns:
        matrix = [[Poly.zero(0)] * l_mod.rank for _ in range(h_mod.rank)]
        matrix[r][c] = Poly(0, {(e,): Fraction(1)})
        column = vector(ConfLinMap(l_mod, h_mod, matrix))
        for key, coeff in base.items():
            column[key] = column.get(key, 0) - coeff
        columns.append(column)

    def to_map(solution):
        matrix = [
            [Poly.zero(0) for _ in range(l_mod.rank)] for _ in range(h_mod.rank)
        ]
        for (r, c, e), coeff in zip(unknowns, solution):
            if coeff:
                matrix[r][c] = matrix[r][c] + Poly(0, {(e,): coeff})
        return ConfLinMap(l_mod, h_mod, matrix)

    return columns, {key: -coeff for key, coeff in base.items()}, to_map


def cocycle_equivalence(c1, c2, quot, sub, tau=None, bound=None):
    """Equivalence of two triples: verify a given tau, or solve for one.

    With ``tau`` supplied, the three identities are checked directly (H may
    be non-abelian).  Without it, the H-bracket must be zero -- the
    identities are then affine in tau -- and a tau with entries of degree
    <= ``bound`` is solved for exactly; the default bound is the largest
    polynomial degree occurring in the two triples and the L-bracket.
    Returns (report, tau-or-None); a failed solve reports ``infeasible``
    with the bound it exhausted.
    """
    l_mod = quot.algebra.module
    h_mod = sub.algebra.module
    report = Report("cocycle-equivalence")
    if tau is not None:
        residuals = _equivalence_residuals(c1, c2, quot, sub, tau)
        for name, res in zip(("action", "bracket", "operator"), residuals):
            report.add(name, res.is_zero(), _cochain_witness(res))
        return report, tau

    abelian = not sub.algebra.table.entries
    if not abelian:
        raise PreconditionError("solving for tau needs an abelian H-bracket")
    if bound is None:
        bound = _default_tau_bound(c1, c2, quot)
    columns, rhs, to_map = map_system(
        l_mod,
        h_mod,
        bound,
        lambda t: _equivalence_residuals(c1, c2, quot, sub, t),
    )
    solution = solve(columns, rhs)
    if solution is None:
        report.add("solve", False, "infeasible within degree bound %d" % bound)
        return report, None
    tau = to_map(solution)
    verify, _ = cocycle_equivalence(c1, c2, quot, sub, tau=tau)
    report.add(
        "solve",
        verify.passed,
        None if verify.passed else "witness fails re-check",
    )
    return report, tau


def check_extension_equivalence(e1, e2, mapping):
    """mapping : E1 -> E2 is an equivalence of extensions.

    Bracket and operator morphism properties, together with commutation
    with both legs of the diagrams.
    """
    report = Report("extension-equivalence")
    morph = check_morphism(e1.total.algebra, e2.total.algebra, mapping)
    report.add("bracket-morphism", morph.passed, morph.witness_of("morphism"))
    report.add(
        "operator-morphism",
        (mapping.compose(e1.total.n) - e2.total.n.compose(mapping)).is_zero(),
    )
    report.add("inc-compatible", (mapping.compose(e1.inc) - e2.inc).is_zero())
    report.add(
        "proj-compatible", (e2.proj.compose(mapping) - e1.proj).is_zero()
    )
    return report


def shear_map(ext, tau):
    """gamma(x) = x + inc(tau(proj x)) on the total module of ``ext``.

    For a tau realizing a self-equivalence of the extracted triple this is
    an extension equivalence fixing both legs of the diagram.
    """
    if (
        tau.source != ext.quot.algebra.module
        or tau.target != ext.sub.algebra.module
    ):
        raise ModuleMismatchError("tau must map L into H")
    e_mod = ext.total.algebra.module
    return ConfLinMap.identity(e_mod) + ext.inc.compose(tau).compose(ext.proj)
