"""Nijenhuis operators on Lie conformal algebras.

An endomorphism N is Nijenhuis when

    [N(a) lam N(b)] = N([N(a) lam b] + [a lam N(b)] - N([a lam b]))

for all a, b; the right-hand inner combination is the deformed bracket
[a lam b]_N, which is again a conformal bracket with N still Nijenhuis.
"""

from __future__ import annotations

from fractions import Fraction
from functools import partial
from itertools import product

from .errors import ModuleMismatchError, PreconditionError
from .lca import (
    LCA,
    ConfLinMap,
    _output_tuples,
    _sorted_tuples_suffice,
    _torsion_mixing,
    check_lca,
    check_morphism,
    check_representation,
    eval_bracket,
)
from .report import Report, failures_of


def _require_endo(lca, n):
    if n.source != lca.module or n.target != lca.module:
        raise ModuleMismatchError("operator is not an endomorphism of the algebra")


def _require_linear(n):
    """Refuse an endomorphism that is not Q[del]-linear on torsion (see
    :func:`_torsion_mixing`), naming its least offending entry."""
    mixing = _torsion_mixing(n)
    if mixing:
        s, t = (n.source.basis[k] for k in mixing[0])
        raise PreconditionError(
            "operator is not Q[del]-linear: its entry (%s, %s) maps the "
            "torsion generator %s onto %s, where del acts otherwise"
            % (s, t, t, s)
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
    report.add_failures("nijenhuis", _nijenhuis_failures(lca, n, pairs))
    return report


def _deformed(bracket, n_a, n_b, n_out, a, b):
    """[n_a a, b] + [a, n_b b] - n_out [a, b] for ``bracket(a, b)`` a bracket
    or an action: the bracket deformed by N when all three maps are N."""
    deformed = bracket(n_a.apply(a), b) + bracket(a, n_b.apply(b))
    return deformed - n_out.apply(bracket(a, b))


def _nijenhuis_failures(lca, n, pairs):
    """(pair, residual) of the Nijenhuis identity on the given basis pairs."""
    basis, bracket = lca.module.basis_elem, partial(eval_bracket, lca)

    def residual(i, j):
        ei, ej = basis(i), basis(j)
        lhs = bracket(n.apply(ei), n.apply(ej))
        return lhs - n.apply(_deformed(bracket, n, n, n, ei, ej))

    return failures_of((key, residual(*key)) for key in pairs)


class NijenhuisLCA:
    """An LCA together with a Nijenhuis operator.

    The default constructor validates; ``raw`` skips validation so that
    failing operators can still be packaged for negative tests.
    """

    def __init__(self, algebra, n, validate=True):
        _require_endo(algebra, n)
        self.algebra = algebra
        self.n = n
        if validate:
            _require_linear(n)
            base = check_lca(algebra)
            if not base.passed:
                raise PreconditionError("underlying algebra fails check_lca")
            rep = check_nijenhuis(algebra, n)
            if not rep.passed:
                raise PreconditionError(
                    "operator is not Nijenhuis: %s" % rep.lines()
                )

    @classmethod
    def raw(cls, algebra, n):
        return cls(algebra, n, validate=False)


def deformed_table(lca, n):
    """Structure table of [a lam b]_N = [Na lam b] + [a lam Nb] - N[a lam b]."""
    out = LCA(lca.module)
    basis, bracket = lca.module.basis_elem, partial(eval_bracket, lca)
    for i, j in product(range(lca.module.rank), repeat=2):
        out.set_bracket(i, j, _deformed(bracket, n, n, n, basis(i), basis(j)).coords)
    return out


def deformed_bracket(nlca):
    """The deformed algebra of a (validated) Nijenhuis structure."""
    return deformed_table(nlca.algebra, nlca.n)


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
    report.add(
        "iterated-deformation",
        iterated.table == direct.table,
        None if iterated.table == direct.table else "tables differ",
    )

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
    """Representation data (M, rho, N_M) over a Nijenhuis conformal algebra."""

    def __init__(self, rep, n_m, nlca=None, validate=True):
        if n_m.source != rep.module or n_m.target != rep.module:
            raise ModuleMismatchError("N_M is not an endomorphism of the module")
        self.rep = rep
        self.n_m = n_m
        if validate:
            if nlca is None:
                raise PreconditionError("validation needs the Nijenhuis algebra")
            result = check_nij_representation(nlca, self)
            if not result.passed:
                raise PreconditionError(
                    "not a Nijenhuis representation: %s" % result.lines()
                )

    @classmethod
    def raw(cls, rep, n_m):
        return cls(rep, n_m, validate=False)


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

    def residual(i, j):
        ei, mj = rep.algebra.module.basis_elem(i), rep.module.basis_elem(j)
        lhs = rep.act(n.apply(ei), n_m.apply(mj))
        return lhs - n_m.apply(_deformed(rep.act, n, n_m, n_m, ei, mj))

    pairs = product(range(rep.algebra.module.rank), range(rep.module.rank))
    report.add_residuals("nijenhuis-representation", pairs, residual)
    return report


def nij_semidirect(nlca, nrep):
    """Semidirect product with operator N (+) N_M, constructor-validated."""
    from .lca import semidirect

    pre = check_nij_representation(nlca, nrep)
    if not pre.passed:
        raise PreconditionError("check_nij_representation failed")
    total = semidirect(nrep.rep)
    op = nlca.n.direct_sum(nrep.n_m)
    if op.source != total.module:
        # align the direct-sum module with the semidirect module's basis names
        op = ConfLinMap(total.module, total.module, op.matrix)
    return NijenhuisLCA(total, op)
