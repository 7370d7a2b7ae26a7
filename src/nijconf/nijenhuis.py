"""Nijenhuis operators on Lie conformal algebras.

An endomorphism N is Nijenhuis when

    [N(a) lam N(b)] = N([N(a) lam b] + [a lam N(b)] - N([a lam b]))

for all a, b; the right-hand inner combination is the deformed bracket
[a lam b]_N, which is again a conformal bracket with N still Nijenhuis.
Its residual, over a bracket or an action, is defined once
(:func:`_nijenhuis`): the Nijenhuis representation and the homotopy
Nijenhuis defects use it too.  So is the deformation of an action,
rho(N p) + rho(p) N_M - N_M rho(p) (:func:`_deformed_action`): the deformed
bracket is that of the adjoint action with N_M = N, and a crossed module
deforms its action by (N0, N1) through it.

Both read basis pairs through one `lca._BasisPairs` per loop: it holds the
basis elements, their images under the loop's operators, computed once,
and the bracket or action on pairs of held elements, read or evaluated on
first use.  An image equal to its basis element, or to another image, is
held as that element, so equal arguments share one value: under an
identity or projection column [N e_i, e_j] and [N e_i, N e_j] are one
evaluation.  A holder lasts for one check (both operator lines of an
extension's cocycle report share one) or, for the order residuals of
``deformation``, as long as its series is unchanged.

Which pairs a check evaluates reads the skew line of ``lca.check_lca`` as
the algebra holds it (``lca._skew_lines``, under its table's stamp), and
:class:`NijenhuisLCA` reads the algebra's held verdict on that check
(``lca._checked``), so neither is evaluated again while the table is
unchanged.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product

from .errors import ModuleMismatchError, PreconditionError
from .lca import (
    LCA,
    _BasisPairs,
    adjoint_rep,
    _checked,
    _output_tuples,
    _sorted_tuples_suffice,
    _tabulated,
    _torsion_mixing,
    check_lca,
    check_morphism,
    check_representation,
    sum_algebra,
)
from .report import Report, failures_of


def _require_endo(lca, n):
    if n.source != lca.module or n.target != lca.module:
        raise ModuleMismatchError("operator is not an endomorphism of the algebra")


def _require_linear(mapping, what="operator"):
    """Refuse a map that is not Q[del]-linear on torsion (see
    :func:`_torsion_mixing`), naming its least offending entry by its row
    in the target basis and its column in the source basis."""
    mixing = _torsion_mixing(mapping)
    if mixing:
        s, t = mapping.target.basis[mixing[0][0]], mapping.source.basis[mixing[0][1]]
        raise PreconditionError(
            "%s is not Q[del]-linear: its entry (%s, %s) maps the "
            "torsion generator %s onto %s, where del acts otherwise"
            % (what, s, t, t, s)
        )


def check_nijenhuis(lca, n):
    """The Nijenhuis identity, with its least failing basis pair.

    When the bracket is skew, so is the residual: N is Q[del]-linear, so the
    residual at (j, i) is minus the one at (i, j) with lam1 -> -del - lam1.
    Then, if the torsion is inert under the bracket and N, only pairs
    i <= j are evaluated.  Otherwise every pair is.
    """
    _require_endo(lca, n)
    pairs = _output_tuples(lca.module.rank, 2, _sorted_tuples_suffice(lca, n=n))
    report = Report("nijenhuis")
    held = _BasisPairs.of_bracket(lca)
    report.add_failures("nijenhuis", _nijenhuis_failures(held, n, pairs))
    return report


def _deformed(held, n_a, n_b, n_out, i, j):
    """[n_a a, b] + [a, n_b b] - n_out [a, b] at the basis elements a = e_i
    and b = e_j of ``held``, a `lca._BasisPairs` over a bracket or an
    action, whose operator slots n_a, n_b and n_out name the maps: the
    bracket deformed by N when all three are N.  Each image and each value
    is read from ``held``, so it is computed once while the holder lives,
    and equal images share one value."""
    deformed = held.at(n_a, None, i, j) + held.at(None, n_b, i, j)
    return deformed - held.apply(n_out, held.at(None, None, i, j))


def _nijenhuis(held, n, n_m, i, j):
    """[N e_i, N_M e_j] - N_M [e_i, e_j]_N over the bracket (N_M = N) or the
    action of the algebra of N on the module of N_M that ``held`` (a
    `lca._BasisPairs`) evaluates, n and n_m being the slots of the maps
    there: the residual of the Nijenhuis identity, or of a Nijenhuis
    representation, at the basis pair (i, j).  It reads every image and
    value from ``held`` (see :func:`_deformed`); where N e_i = e_i, the
    values [N e_i, N_M e_j] and [e_i, N_M e_j] are one."""
    lhs = held.at(n, n_m, i, j)
    return lhs - held.apply(n_m, _deformed(held, n, n_m, n_m, i, j))


def _nijenhuis_failures(held, n, pairs):
    """(pair, residual) of the Nijenhuis identity on the given basis pairs,
    read from ``held``, the `lca._BasisPairs` of the bracket, which the
    caller's other loops may share."""
    n = held.operator(n)
    return failures_of(((i, j), _nijenhuis(held, n, n, i, j)) for i, j in pairs)


class NijenhuisLCA:
    """An LCA together with a Nijenhuis operator.

    The constructor is the one validator of a Nijenhuis structure from
    outside: the operator must be Q[del]-linear, the algebra must pass
    :func:`check_lca` (run once per version of its table: the algebra
    holds the verdict, see ``lca._checked``) and the operator
    :func:`check_nijenhuis`.  ``raw``
    skips validation.  The builders of totals use it, because their own
    checks already imply both: :func:`nij_semidirect`,
    ``extension.checked_extension`` (through ``_candidate_extension``) and
    ``homotopy.crossed_direct_sum`` (each pinned by a seeded property test
    in ``tests/test_totals.py``).  ``extension.cocycle_equivalence`` reads
    the unchecked candidate totals of two triples only for their residuals.
    Negative tests use it to package failing operators.
    """

    def __init__(self, algebra, n):
        _require_endo(algebra, n)
        _require_linear(n)
        if not _checked(algebra):
            raise PreconditionError("underlying algebra fails check_lca")
        rep = check_nijenhuis(algebra, n)
        if not rep.passed:
            raise PreconditionError("operator is not Nijenhuis: %s" % rep.lines())
        self.algebra = algebra
        self.n = n

    @classmethod
    def raw(cls, algebra, n):
        _require_endo(algebra, n)
        nlca = cls.__new__(cls)
        nlca.algebra = algebra
        nlca.n = n
        return nlca


def _deformed_action(rep, n, n_m):
    """The table of rho(N p) + rho(p) N_M - N_M rho(p), the action of
    ``rep`` deformed by N on its algebra and N_M on its module: for the
    adjoint action with N_M = N, the deformed bracket."""
    algebra, module = rep.algebra.module, rep.module
    held = _BasisPairs.of_action(rep)
    n, n_m = held.operator(n), held.operator(n_m)

    def deformed(i, j):
        return _deformed(held, n, n_m, n_m, i, j)

    return _tabulated(algebra, module, module, deformed)


def deformed_table(lca, n):
    """Structure table of [a lam b]_N = [Na lam b] + [a lam Nb] - N[a lam b]."""
    return LCA(lca.module, _deformed_action(adjoint_rep(lca), n, n))


def power_compatibility_suite(nlca, k, l):
    """Power and compatibility statements for N^k and N^l.

    (1) N^k is Nijenhuis on the original bracket;
    (2) N^l is Nijenhuis on the N^k-deformed bracket;
    (3) deforming by N^k then N^l equals deforming by N^{k+l} (table equality);
    (4) N^l is a morphism from the N^{k+l}-deformed to the N^k-deformed bracket;
    (5) the N^k- and N^l-deformed brackets are compatible: their sum (and a
        random rational combination) satisfies the conformal axioms.
    """
    if not (0 <= k <= 3 and 0 <= l <= 3):
        raise PreconditionError("powers must lie in {0,1,2,3}")
    lca, n = nlca.algebra, nlca.n
    nk = n.power(k)
    nl = n.power(l)
    report = Report("power-compatibility")

    r1 = check_nijenhuis(lca, nk)
    report.add("power-nijenhuis", r1.passed, r1.witness_of("nijenhuis"))

    deformed_k = deformed_table(lca, nk)
    r2 = check_nijenhuis(deformed_k, nl)
    report.add("nijenhuis-on-deformed", r2.passed, r2.witness_of("nijenhuis"))

    iterated = deformed_table(deformed_k, nl)
    direct = deformed_table(lca, n.power(k + l))
    report.add("iterated-deformation", iterated.table == direct.table, "tables differ")

    r4 = check_morphism(direct, deformed_k, nl)
    report.add("power-morphism", r4.passed, r4.witness_of("morphism"))

    deformed_l = deformed_table(lca, nl)
    summed = LCA(lca.module, deformed_k.table + deformed_l.table)
    r5 = check_lca(summed)
    combo = LCA(
        lca.module,
        deformed_table(lca, nk.scale(Fraction(2))).table
        + deformed_table(lca, nl.scale(Fraction(3))).table,
    )
    # a second, scaled combination: c1^2 [.]_{N^k} + c2^2 [.]_{N^l}
    r5b = check_lca(combo)
    ok = r5.passed and r5b.passed
    witness = None
    if not r5.passed:
        witness = "sum: " + "; ".join(r5.lines())
    elif not r5b.passed:
        witness = "combination: " + "; ".join(r5b.lines())
    report.add("compatible", ok, witness)
    return report


class NijenhuisRep:
    """Representation data (M, rho, N_M) over a Nijenhuis conformal algebra.

    The constructor checks the shapes only: :func:`check_nij_representation`
    is the one validator of the data against a Nijenhuis algebra.
    """

    def __init__(self, rep, n_m):
        if n_m.source != rep.module or n_m.target != rep.module:
            raise ModuleMismatchError("N_M is not an endomorphism of the module")
        self.rep = rep
        self.n_m = n_m


def check_nij_representation(nlca, nrep):
    """rho(Np)_lam N_M m = N_M(rho(Np)_lam m + rho(p)_lam N_M m - N_M rho(p)_lam m)."""
    if nrep.rep.algebra is not nlca.algebra and nrep.rep.algebra != nlca.algebra:
        raise ModuleMismatchError("representation is over a different algebra")
    rep, n, n_m = nrep.rep, nlca.n, nrep.n_m
    base = check_representation(rep)
    report = Report("nij-representation")
    if not base.passed:
        report.add_status(
            "representation", "precondition-failed", "check_representation failed"
        )
        return report
    report.add("representation", True)

    algebra, module = rep.algebra.module, rep.module
    held = _BasisPairs.of_action(rep)
    n, n_m = held.operator(n), held.operator(n_m)

    def residual(i, j):
        return _nijenhuis(held, n, n_m, i, j)

    pairs = product(range(algebra.rank), range(module.rank))
    report.add_residuals("nijenhuis-representation", pairs, residual)
    return report


def nij_semidirect(nlca, nrep):
    """Semidirect product L (+) M with operator N (+) N_M.

    ``nlca`` is a validated Nijenhuis algebra.  A passing
    :func:`check_nij_representation` makes the total a Nijenhuis LCA: its
    representation line gives the conformal axioms, and its Nijenhuis line
    the identity on the L-M pairs.  Only the Q[del]-linearity of N_M is left
    to refuse.  ``tests/test_totals.py`` pins this on seeded random data.
    """
    pre = check_nij_representation(nlca, nrep)
    if not pre.passed:
        raise PreconditionError("check_nij_representation failed")
    op = nlca.n.direct_sum(nrep.n_m)
    _require_linear(op)
    return NijenhuisLCA.raw(sum_algebra(nrep.rep.algebra, nrep.rep), op)
