"""Non-abelian extensions of one Nijenhuis conformal algebra by another.

An extension 0 -> H -> E -> L -> 0 with a section s yields a triple
(chi, rho, Phi): the bracket defect of the section, the induced action of L
on H, and the operator defect R s - s N.  Each is read off in H through the
retraction: chi is minus the morphism residual of s (``lca._morphism``),
rho is tabulated (``lca._tabulated``) from the total's bracket at
(s p, inc h), and Phi is the retraction composed with the operator defect;
chi and rho read one holder of the total's bracket (``lca._BasisPairs``).
Conversely, a triple satisfying the cocycle conditions rebuilds an
extension on L (+) H.  The conditions are checked component-wise on the
candidate total structure, so every identity here is literally a
restriction of the conformal axioms or of the Nijenhuis identity -- no
separate sign conventions to maintain.

Equivalence of triples is decided exactly: by direct verification for a
supplied comparison map tau, or, when H is abelian, by a linear solve for
tau over a bounded polynomial coefficient space (with an honest
``infeasible`` verdict when the bound admits no solution).  A map L -> H is
a degree-1 cochain, so that space is the solver's degree-1 slice
(``cohomology._slice``): an evaluation H has finitely many unknowns by its
construction, constants on every entry, whatever the bound.  tau is an
equivalence exactly when the shear (p, h) -> (p, h + tau p) between the
extensions the two triples rebuild is a Nijenhuis morphism.  That residual,
:func:`_map_residuals`, is written once, over ``lca._morphism``: its source
side is read once from a holder of E1's bracket at (s, inc) and (s, s), and
every map gamma of one solve reads E2's bracket at (gamma s, gamma inc)
through one holder, the source one when E1 and E2 have one bracket, so no
value is evaluated twice in a solve.  It also gives the three conditions on
the eta map of a lift in :mod:`nijconf.wells`; so do the solve,
:func:`solve_map`, and its reports.
"""

from __future__ import annotations

from fractions import Fraction
from functools import partial
from itertools import product

# act_form is unused here; perfbench/tests checks the tracer rebinds it
from .cohomology import Cochain, _cells, _max_degree, _slice, act_form
from .errors import ModuleMismatchError, PreconditionError
from .lca import (
    LCA,
    ConfLinMap,
    Elem,
    RepTable,
    check_morphism,
    sum_algebra,
    _BasisPairs,
    _jacobi_failures,
    _morphism,
    _output_tuples,
    _skew_failures,
    _tabulated,
    _torsion_failures,
    _torsion_mixing,
)
from .linalg import (
    is_split_injection,
    is_split_surjection,
    poly_unimodular_inverse,
    solve,
)
from .nijenhuis import NijenhuisLCA, _nijenhuis_failures, _require_linear
from .poly import Poly
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

    ``chi`` is a degree-2 cochain of L valued in H, ``rho`` a
    RepTable-shaped action of L on H (not necessarily a representation: its
    curvature is the adjoint of chi), ``phi`` a Q[del]-linear map L -> H.
    A chi of another algebra than rho's is refused, since the candidate
    total reads chi's values at L's basis pairs.
    """

    def __init__(self, chi, rho, phi):
        if chi.degree != 2:
            raise ModuleMismatchError("chi must be a degree-2 cochain")
        if chi.source != rho.algebra:
            raise ModuleMismatchError("chi must be a cochain of rho's algebra")
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
    minus the morphism residual of s; rho(p)_lam h = [s p lam h];
    Phi = R s - s N.

    Every value of chi and rho, and every column of Phi, is checked to lie
    in the kernel of proj before being rewritten in H-coordinates through
    the retraction.
    """
    if section is None:
        section = ext.section
    retraction = ext.retraction(section)
    l_mod = ext.quot.algebra.module
    h_mod = ext.sub.algebra.module

    def to_h(value, where):
        if not ext.proj.apply(value).is_zero():
            raise PreconditionError("%s escapes the kernel of proj" % where)
        return retraction.apply(value)

    held = _BasisPairs.of_bracket(ext.total.algebra)
    s, inc = held.operator(section), held.operator(ext.inc)
    chi = Cochain(2, RepTable(ext.quot.algebra, h_mod))
    residual = _morphism(ext.quot.algebra.bracket_basis, held, section, section, section)
    for i, j in product(range(l_mod.rank), repeat=2):
        chi.set_value((i, j), to_h(-residual(i, j), "chi(%d,%d)" % (i, j)))

    def action(i, j):
        return to_h(held.at(s, inc, i, j), "rho(%d,%d)" % (i, j))

    rho = RepTable(ext.quot.algebra, h_mod, _tabulated(l_mod, h_mod, h_mod, action))
    defect = ext.total.n.compose(section) - section.compose(ext.quot.n)
    for i in range(l_mod.rank):
        to_h(defect.apply(l_mod.basis_elem(i)), "phi(%d)" % i)
    phi = retraction.compose(defect)
    return NonAbelianCocycle(chi, rho, phi)


def _candidate_total(cocycle, quot, sub):
    """The bracket table and operator matrix carried by a triple on L (+) H.

    [(p,h) lam (q,k)] = ([p lam q], rho(p)_lam k - rho(q)_{-del-lam} h
    + chi_lam(p,q) + [h lam k]);  R(p,h) = (N p, Q h + Phi p).
    No axiom is assumed: the result is raw material for the checks below.
    A triple whose rho is not an action of the quotient on the kernel's
    module is refused.
    """
    l_alg, h_alg = quot.algebra, sub.algebra
    if cocycle.rho.algebra != l_alg or cocycle.rho.module != h_alg.module:
        raise ModuleMismatchError("rho must act by the quotient on the kernel's module")
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

    * ``chi-skew``         -- skew-symmetry on L-L pairs; when it holds,
      sesquilinearity on those pairs: chi vanishes where either argument is
      torsion (see :func:`lca._torsion_failures`);
    * ``rho-derivation``   -- Jacobi on (L, H, H) triples;
    * ``curvature``        -- Jacobi on (L, L, H) triples: the failure of
      rho to be a representation equals the adjoint action of chi; when it
      holds, sesquilinearity on the pairs that meet H, as in the
      ``representation`` line of :func:`lca.check_representation`: rho acts
      on no torsion generator of H and no torsion generator of L acts;
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
    # a bracket or action on the total's torsion fails the line of its pair
    torsion = _torsion_failures(total.table, total.module, total.module)
    sorted_only = not (skew_failures or torsion or _torsion_mixing(operator))

    def tuples(*index_sets):
        every = product(*index_sets)
        return [t for t in every if not sorted_only or list(t) == sorted(t)]

    on_l = [f for f in torsion if max(f[0]) < rank_l]

    report = Report("nonabelian-cocycle")
    report.add_failures(
        "chi-skew", [f for f in skew_failures if f[0][1] < rank_l] or on_l
    )
    for name, index_sets, on_torsion in (
        ("rho-derivation", (l_idx, h_idx, h_idx), []),
        ("curvature", (l_idx, l_idx, h_idx), [f for f in torsion if f not in on_l]),
        ("jacobi", (l_idx, l_idx, l_idx), []),
    ):
        report.add_failures(
            name, _jacobi_failures(total, tuples(*index_sets)) or on_torsion
        )
    # both operator lines read one holder of images and bracket values
    held = _BasisPairs.of_bracket(total)
    mixed = tuples(l_idx, h_idx) + tuples(h_idx, l_idx)
    report.add_failures(
        "operator-module",
        _nijenhuis_failures(held, operator, mixed) or _mixing_failures(operator),
    )
    pairs = tuples(l_idx, l_idx)
    report.add_failures(
        "operator-bracket", _nijenhuis_failures(held, operator, pairs)
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

    The total structure is validated by :func:`check_nonabelian_cocycle`
    alone: with validated ``quot`` and ``sub``, a passing report means that
    it satisfies the conformal axioms and the Nijenhuis identity, which
    ``tests/test_totals.py`` pins on seeded random triples.  The canonical
    inclusion, projection and section are returned alongside.
    """
    report, ext = checked_extension(cocycle, quot, sub)
    if ext is None:
        raise PreconditionError("triple is not a cocycle: %s" % report.failing())
    return ext


def checked_extension(cocycle, quot, sub):
    """The report of :func:`check_nonabelian_cocycle` on a triple, and the
    extension of :func:`build_extension` when the report passes (else None).

    The candidate total is built and checked once for both, and the report
    is its only validation.  An operator that is not Q[del]-linear on
    torsion is refused before the report, as :class:`NijenhuisLCA` refuses
    it.
    """
    ext = _candidate_extension(cocycle, quot, sub)
    _require_linear(ext.total.n)
    report = _cocycle_report(ext.total.algebra, ext.total.n, quot.algebra.module.rank)
    return report, ext if report.passed else None


def _candidate_extension(cocycle, quot, sub):
    """The candidate total of a triple (:func:`_candidate_total`) in the
    diagram of its canonical inclusion, projection and section of L (+) H.
    No axiom is checked."""
    total, operator, rank_l = _candidate_total(cocycle, quot, sub)
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
    total_n = NijenhuisLCA.raw(total, operator)
    return ExtensionData(total_n, sub, quot, inc, proj, section)


def _map_residuals(e1, e2):
    """gamma -> the residual of "gamma : E1 -> E2 is a Nijenhuis morphism"
    on the arguments of e1's diagram: three dicts from basis tuples to
    elements of E2.

    ``action``   -- :func:`lca._morphism` on the pairs (s p_i, inc h_j);
    ``bracket``  -- :func:`lca._morphism` on the pairs (s p_i, s p_j);
    ``operator`` -- gamma R1 - R2 gamma on s p_i.

    The source side, [s p_i lam inc h_j]_1 and [s p_i lam s p_j]_1, is read
    from one holder of E1's bracket, and every gamma reads E2's bracket at
    its images of s p_i and inc h_j through one holder of E2's bracket,
    the same one when E1 and E2 have one bracket.  So each value is
    evaluated once, however many maps gamma are read.
    """
    l_mod, h_mod = e1.quot.algebra.module, e1.sub.algebra.module
    source = _BasisPairs.of_bracket(e1.total.algebra)
    s, inc = source.operator(e1.section), source.operator(e1.inc)
    held = source if e2.total is e1.total else _BasisPairs.of_bracket(e2.total.algebra)

    def residuals(gamma):
        image_s, image_inc = gamma.compose(e1.section), gamma.compose(e1.inc)
        action = _morphism(partial(source.at, s, inc), held, gamma, image_s, image_inc)
        bracket = _morphism(partial(source.at, s, s), held, gamma, image_s, image_s)
        defect = gamma.compose(e1.total.n) - e2.total.n.compose(gamma)
        return (
            {key: action(*key) for key in product(range(l_mod.rank), range(h_mod.rank))},
            {key: bracket(*key) for key in product(range(l_mod.rank), repeat=2)},
            {(i,): defect.apply(source.element(s, i)) for i in range(l_mod.rank)},
        )

    return residuals


def _equivalence_residuals(c1, c2, quot, sub):
    """tau -> the residuals of the three equivalence identities, read in H:
    those of the shear (p, h) -> (p, h + tau p) from the candidate extension
    of c1 to that of c2 (:func:`_map_residuals`).  In H they read

    action:   rho(p)_lam h - rho'(p)_lam h - [tau(p) lam h]_H;
    bracket:  chi - chi' - [tau p lam tau q]_H + tau[p lam q]
              - rho'(p)_lam tau q + rho'(q)_{-del-lam} tau p;
    operator: Phi - Phi' - Q tau + tau N.
    """
    e1 = _candidate_extension(c1, quot, sub)
    e2 = _candidate_extension(c2, quot, sub)
    retraction = e1.retraction()
    map_residuals = _map_residuals(e1, e2)

    def residuals(tau):
        return tuple(
            {key: retraction.apply(value) for key, value in res.items()}
            for res in map_residuals(shear_map(e1, tau))
        )

    return residuals


def solve_map(l_mod, h_mod, bound, residuals):
    """The Q[del]-linear map t : L -> H that makes every residual of
    ``residuals(t)`` vanish, or None when there is none.

    ``residuals(t)`` is a sequence of dicts from basis tuples to elements,
    affine in t.  A map L -> H is a degree-1 cochain of L with values in H,
    so the unknowns are the basis of the solver's degree-1 slice at
    ``bound`` (`cohomology._slice`): del^e (e <= bound) on a free coordinate
    of H, a constant on an evaluation one.  The image of a unit is its
    residuals in one dict, a key of the n-th residual dict read as
    (n,) + key; its column is that image minus the image of the zero map,
    and the right-hand side is minus the latter.  The answer is the sum of
    the units scaled by the solution.
    """
    rep = RepTable(LCA(l_mod), h_mod)

    def image(f):
        return {
            (tag,) + key: value
            for tag, res in enumerate(residuals(f.to_map()))
            for key, value in res.items()
        }

    base = _cells(image(Cochain(1, rep)))
    units, columns = _slice(rep, 1, bound, image)
    for column in columns:
        for key, coeff in base.items():
            column[key] = column.get(key, 0) - coeff
    solution = solve(columns, {key: -coeff for key, coeff in base.items()})
    if solution is None:
        return None
    return sum(map(Cochain.scale, units, solution), Cochain(1, rep)).to_map()


def residual_report(title, residuals):
    """The ``action``, ``bracket`` and ``operator`` lines of three residual
    dicts: each passes exactly when every residual of its dict vanishes."""
    report = Report(title)
    for name, res in zip(("action", "bracket", "operator"), residuals):
        report.add_failures(name, failures_of(res.items()))
    return report


def solve_report(title, found, residuals, bound, certified=False):
    """The ``solve`` line of a solve for a map: ``infeasible`` with the
    bound it exhausted when ``found`` is None, else whether every residual
    of ``residuals(found)`` vanishes on re-check."""
    report = Report(title)
    if found is None:
        witness = "infeasible within degree bound %d" % bound
        if certified:
            witness += " (certified: finite unknown space)"
        return report.add("solve", False, witness)
    ok = all(value.is_zero() for res in residuals(found) for value in res.values())
    return report.add("solve", ok, "witness fails re-check")


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

    residuals = _equivalence_residuals(c1, c2, quot, sub)
    title = "cocycle-equivalence"
    if tau is not None:
        return residual_report(title, residuals(tau)), tau
    if sub.algebra.table.entries:
        raise PreconditionError("solving for tau needs an abelian H-bracket")
    if bound is None:
        bound = _max_degree(
            *(value.coords for c in (c1, c2) for value in c.chi.values.values()),
            *c1.phi.matrix,
            *c2.phi.matrix,
            *quot.algebra.table.entries.values(),
        )
    tau = solve_map(quot.algebra.module, sub.algebra.module, bound, residuals)
    return solve_report(title, tau, residuals, bound), tau


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
