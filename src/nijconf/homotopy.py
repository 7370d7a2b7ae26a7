"""2-term homotopy Lie conformal algebras with homotopy Nijenhuis operators.

A 2-term structure is a complex d : L1 -> L0 with a graded bracket and a
Jacobiator l3; a homotopy Nijenhuis operator is a triple (N0, N1, N2).  The
skeletal case (d = 0) packages (l3, N2) as a 3-cocycle of the combined
complex, and the strict case (l3 = 0, N2 = 0) is equivalent to a crossed
module; both directions of that correspondence are implemented and the
round-trip is checked table-by-table.

The Jacobiator, N2 and the mixed bracket live in the same evaluation model
as cochains: l3 is stored exactly like a degree-3 cochain over L0 with
coefficients in L1 under the action rho(p)_lam m = [[p_lam m]].
"""

from __future__ import annotations

from functools import partial
from itertools import product

from .cohomology import (
    Cochain,
    CochainPair,
    act_form,
    apply_dNL,
    check_cochain_skew,
    eval_cochain,
    _basis_args,
)
from .errors import ModuleMismatchError, PreconditionError
from .lca import (
    LCA,
    ConfLinMap,
    RepTable,
    StructureTable,
    check_lca,
    check_morphism,
    check_representation,
    eval_bracket,
    sum_algebra,
    _output_tuples,
    _skew_failures,
)
from .nijenhuis import (
    NijenhuisLCA,
    NijenhuisRep,
    _deformed,
    _require_linear,
    check_nij_representation,
    check_nijenhuis,
    deformed_table,
)
from .poly import Poly, dagger
from .report import Report


class TwoTermConformal:
    """Chain complex d : L1 -> L0 with graded brackets and a Jacobiator.

    ``l0`` is an LCA carrying the degree-0 bracket; ``action`` is the
    structure table of [[p_lam m]] (degree 0 on degree 1); the bracket of two
    degree-1 elements must vanish and is stored only so that violations can
    be represented.  The [[m_lam p]] bracket is derived from conformal
    skew-symmetry.  ``l3`` is a degree-3 cochain with values in L1.
    """

    def __init__(self, l0, l1, d, action, l3=None, bracket_11=None):
        if d.source != l1 or d.target != l0.module:
            raise ModuleMismatchError("differential must map L1 to L0")
        _require_linear(d, "differential")
        if l3 is not None and (l3.degree != 3 or l3.source != l0 or l3.target != l1):
            raise ModuleMismatchError(
                "l3 must be a degree-3 cochain on L0 with values in L1"
            )
        self.l0 = l0
        self.l1 = l1
        self.d = d
        self.rep = RepTable(l0, l1, action)
        if bracket_11 is None:
            bracket_11 = StructureTable(l1.rank, l1.rank, l1.rank)
        self.bracket_11 = bracket_11
        if l3 is None:
            l3 = Cochain.zero(3, self.rep)
        self.l3 = l3

    @property
    def action(self):
        return self.rep.action

    def act(self, p, m, form, arity):
        """[[p_lam m]] evaluated at an explicit lambda-form."""
        return act_form(self.action, self.l1, p, m, form, arity)

    def act_rev(self, m, p, form, arity):
        """[[m_lam p]] := -[[p_{-del-lam} m]], the skew-derived mixed bracket."""
        return -self.act(p, m, dagger(form), arity)

    def bracket0(self, p, q, form, arity):
        return act_form(self.l0.table, self.l0.module, p, q, form, arity)

    def jacobiator(self, args, forms, arity):
        return eval_cochain(self.l3, args, forms, arity)


class HomotopyNijenhuis:
    """Operator triple (N0 on L0, N1 on L1, N2 : L0 x L0 -> L1[lam])."""

    def __init__(self, structure, n0, n1, n2=None):
        if n0.source != structure.l0.module or n0.target != structure.l0.module:
            raise ModuleMismatchError("N0 must be an endomorphism of L0")
        if n1.source != structure.l1 or n1.target != structure.l1:
            raise ModuleMismatchError("N1 must be an endomorphism of L1")
        if n2 is not None and (
            n2.degree != 2 or n2.source != structure.l0 or n2.target != structure.l1
        ):
            raise ModuleMismatchError(
                "N2 must be a degree-2 cochain on L0 with values in L1"
            )
        self.structure = structure
        self.n0 = n0
        self.n1 = n1
        if n2 is None:
            n2 = Cochain.zero(2, structure.rep)
        self.n2 = n2


def check_2term(structure):
    """The eight defining identities, each on all applicable basis tuples.

    L3, the skew-symmetry of the degree-0 bracket, is evaluated on pairs
    i <= j only, as in :func:`check_lca`: the residual at (j, i) is the one
    at (i, j) with lam1 -> -del - lam1.
    """
    report = Report("2term")
    t = structure
    mod0, mod1 = t.l0.module, t.l1
    d = t.d
    basis0, basis1 = mod0.basis_elem, mod1.basis_elem

    zero11 = all(
        all(p.is_zero() for p in value)
        for value in t.bracket_11.entries.values()
    )
    report.add("L1", zero11, None if zero11 else "degree-1 bracket is nonzero")

    # L2 holds by construction: the m-on-p bracket is defined through it.
    report.add("L2", True)

    report.add_failures("L3", _skew_failures(t.l0, _output_tuples(mod0.rank, 2, True)))

    lam1 = Poly.lam(1, 1)

    def l4(i, j):
        p, m = basis0(i), basis1(j)
        return d.apply(t.act(p, m, lam1, 1)) - t.bracket0(p, d.apply(m), lam1, 1)

    report.add_residuals("L4", product(range(mod0.rank), range(mod1.rank)), l4)

    def l5(i, j):
        m, n = basis1(i), basis1(j)
        return t.act(d.apply(m), n, lam1, 1) - t.act_rev(m, d.apply(n), lam1, 1)

    report.add_residuals("L5", product(range(mod1.rank), repeat=2), l5)

    la, mu = Poly.lam(1, 2), Poly.lam(2, 2)
    dagger2 = dagger(la + mu)

    def l6(*key):
        p, q, r = _basis_args(mod0, key)
        lhs = d.apply(t.jacobiator([p, q, r], [la, mu, dagger2], 2))
        return lhs - (
            t.bracket0(p, t.bracket0(q, r, mu, 2), la, 2)
            - t.bracket0(t.bracket0(p, q, la, 2), r, la + mu, 2)
            - t.bracket0(q, t.bracket0(p, r, la, 2), mu, 2)
        )

    report.add_residuals("L6", product(range(mod0.rank), repeat=3), l6)

    def l7(i, j, k):
        p, q, m = basis0(i), basis0(j), basis1(k)
        lhs = t.jacobiator([p, q, d.apply(m)], [la, mu, dagger2], 2)
        return lhs - (
            t.act(p, t.act(q, m, mu, 2), la, 2)
            - t.act(t.bracket0(p, q, la, 2), m, la + mu, 2)
            - t.act(q, t.act(p, m, la, 2), mu, 2)
        )

    triples = product(range(mod0.rank), range(mod0.rank), range(mod1.rank))
    report.add_residuals("L7", triples, l7)

    # L8 is the 4-argument cocycle identity for l3; the signs below are
    # pinned by requiring that, for a zero action, L8 holds exactly when
    # apply_delta(l3) vanishes (the skeletal correspondence).
    la, mu, nu = Poly.lam(1, 3), Poly.lam(2, 3), Poly.lam(3, 3)
    dag_mn = dagger(mu + nu)
    dag_ln = dagger(la + nu)
    dag_lm = dagger(la + mu)

    def l8(*key):
        p, q, r, w = _basis_args(mod0, key)
        lhs = (
            t.act(p, t.jacobiator([q, r, w], [mu, nu, dag_mn], 3), la, 3)
            - t.act(q, t.jacobiator([p, r, w], [la, nu, dag_ln], 3), mu, 3)
            + t.act(r, t.jacobiator([p, q, w], [la, mu, dag_lm], 3), nu, 3)
            - t.act(
                w,
                t.jacobiator([p, q, r], [la, mu, dag_lm], 3),
                dagger(la + mu + nu),
                3,
            )
        )
        rhs = (
            t.jacobiator(
                [t.bracket0(p, q, la, 3), r, w], [la + mu, nu, dag_mn - la], 3
            )
            + t.jacobiator(
                [q, t.bracket0(p, r, la, 3), w], [mu, la + nu, dag_mn - la], 3
            )
            + t.jacobiator(
                [q, r, t.bracket0(p, w, la, 3)], [mu, nu, dag_mn], 3
            )
            - t.jacobiator(
                [p, t.bracket0(q, r, mu, 3), w], [la, mu + nu, dag_lm - nu], 3
            )
            - t.jacobiator(
                [p, r, t.bracket0(q, w, mu, 3)], [la, nu, dag_ln], 3
            )
            + t.jacobiator(
                [p, q, t.bracket0(r, w, nu, 3)], [la, mu, dag_lm], 3
            )
        )
        return lhs - rhs

    report.add_residuals("L8", product(range(mod0.rank), repeat=4), l8)
    return report


def check_homomorphism(src, dst, f0, f1, f2):
    """The five conditions for a morphism (f0, f1, f2) of 2-term structures."""
    report = Report("2term-homomorphism")
    mod0, mod1 = src.l0.module, src.l1
    basis0, basis1 = mod0.basis_elem, mod1.basis_elem
    ok = (f0.compose(src.d) - dst.d.compose(f1)).is_zero()
    report.add("H1", ok, None if ok else "chain maps do not commute")

    lam1 = Poly.lam(1, 1)
    dag1 = dagger(lam1)

    def h2(i, j):
        p, q = basis0(i), basis0(j)
        lhs = dst.d.apply(eval_cochain(f2, [p, q], [lam1, dag1], 1))
        rhs = dst.bracket0(f0.apply(p), f0.apply(q), lam1, 1) - f0.apply(
            src.bracket0(p, q, lam1, 1)
        )
        return lhs - rhs

    report.add_residuals("H2", product(range(mod0.rank), repeat=2), h2)

    def h3(i, j):
        p, m = basis0(i), basis1(j)
        lhs = eval_cochain(f2, [p, src.d.apply(m)], [lam1, dag1], 1)
        rhs = -f1.apply(src.act(p, m, lam1, 1)) + dst.act(
            f0.apply(p), f1.apply(m), lam1, 1
        )
        return lhs - rhs

    report.add_residuals("H3", product(range(mod0.rank), range(mod1.rank)), h3)

    def h4(i, j):
        m, p = basis1(i), basis0(j)
        lhs = eval_cochain(f2, [src.d.apply(m), p], [lam1, dag1], 1)
        rhs = -f1.apply(src.act_rev(m, p, lam1, 1)) + dst.act_rev(
            f1.apply(m), f0.apply(p), lam1, 1
        )
        return lhs - rhs

    report.add_residuals("H4", product(range(mod1.rank), range(mod0.rank)), h4)

    la, mu = Poly.lam(1, 2), Poly.lam(2, 2)
    dagger2 = dagger(la + mu)

    def h5(*key):
        p, q, r = _basis_args(mod0, key)
        fp, fq, fr = f0.apply(p), f0.apply(q), f0.apply(r)
        lhs = dst.jacobiator([fp, fq, fr], [la, mu, dagger2], 2) - f1.apply(
            src.jacobiator([p, q, r], [la, mu, dagger2], 2)
        )
        rhs = (
            dst.act(fp, eval_cochain(f2, [q, r], [mu, dagger(mu)], 2), la, 2)
            + eval_cochain(f2, [p, src.bracket0(q, r, mu, 2)], [la, dagger(la)], 2)
            - dst.act(fq, eval_cochain(f2, [p, r], [la, dagger(la)], 2), mu, 2)
            - eval_cochain(f2, [q, dst.bracket0(fp, r, la, 2)], [mu, dagger(mu)], 2)
            - dst.act_rev(
                eval_cochain(f2, [p, q], [la, mu], 2), fr, la + mu, 2
            )
            - eval_cochain(
                f2,
                [dst.bracket0(fp, q, la, 2), r],
                [la + mu, dagger2],
                2,
            )
        )
        return lhs - rhs

    report.add_residuals("H5", product(range(mod0.rank), repeat=3), h5)
    return report


def check_homotopy_nijenhuis(structure, op):
    """The four identities of a homotopy Nijenhuis operator, plus N2 skewness."""
    pre = check_2term(structure)
    if not pre.passed:
        raise PreconditionError("underlying 2-term structure fails its axioms")
    t, n0, n1, n2 = structure, op.n0, op.n1, op.n2
    mod0, mod1 = t.l0.module, t.l1
    report = Report("homotopy-nijenhuis")

    skew = check_cochain_skew(n2)
    report.add("n2-skew", skew.passed, skew.witness_of("skew"))

    ok = (t.d.compose(n1) - n0.compose(t.d)).is_zero()
    report.add("chain-map", ok, None if ok else "d N1 != N0 d")

    lam1 = Poly.lam(1, 1)
    dag1 = dagger(lam1)
    bracket1 = partial(t.bracket0, form=lam1, arity=1)
    act1 = partial(t.act, form=lam1, arity=1)

    def square(i, j):
        p, q = mod0.basis_elem(i), mod0.basis_elem(j)
        lhs = t.d.apply(eval_cochain(n2, [p, q], [lam1, dag1], 1))
        rhs = n0.apply(_deformed(bracket1, n0, n0, n0, p, q)) - bracket1(
            n0.apply(p), n0.apply(q)
        )
        return lhs - rhs

    report.add_residuals("square-defect", product(range(mod0.rank), repeat=2), square)

    def module(i, j):
        p, m = mod0.basis_elem(i), mod1.basis_elem(j)
        lhs = eval_cochain(n2, [p, t.d.apply(m)], [lam1, dag1], 1)
        rhs = n1.apply(_deformed(act1, n0, n1, n1, p, m)) - act1(
            n0.apply(p), n1.apply(m)
        )
        return lhs - rhs

    pairs = product(range(mod0.rank), range(mod1.rank))
    report.add_residuals("module-defect", pairs, module)

    la, mu = Poly.lam(1, 2), Poly.lam(2, 2)
    dag_l, dag_m, dag_lm = dagger(la), dagger(mu), dagger(la + mu)
    deformed_la, deformed_mu = (
        partial(_deformed, partial(t.bracket0, form=form, arity=2), n0, n0, n0)
        for form in (la, mu)
    )

    def jacobiator(*key):
        p, q, r = _basis_args(mod0, key)
        n2_qr = eval_cochain(n2, [q, r], [mu, dag_m], 2)
        n2_pr = eval_cochain(n2, [p, r], [la, dag_l], 2)
        n2_pq = eval_cochain(n2, [p, q], [la, mu], 2)
        lhs = (
            t.act(n0.apply(p), n2_qr, la, 2)
            - t.act(n0.apply(q), n2_pr, mu, 2)
            - t.act_rev(n2_pq, n0.apply(r), la + mu, 2)
            - eval_cochain(n2, [deformed_la(p, q), r], [la + mu, dag_lm], 2)
            + eval_cochain(n2, [p, deformed_mu(q, r)], [la, dag_l], 2)
            - eval_cochain(n2, [q, deformed_la(p, r)], [mu, dag_m], 2)
            - n1.apply(
                t.act(p, n2_qr, la, 2)
                - t.act(q, n2_pr, mu, 2)
                - t.act_rev(n2_pq, r, la + mu, 2)
                - eval_cochain(
                    n2, [t.bracket0(p, q, la, 2), r], [la + mu, dag_lm], 2
                )
                + eval_cochain(
                    n2, [p, t.bracket0(q, r, mu, 2)], [la, dag_l], 2
                )
                - eval_cochain(
                    n2, [q, t.bracket0(p, r, la, 2)], [mu, dag_m], 2
                )
            )
        )
        np_, nq, nr = n0.apply(p), n0.apply(q), n0.apply(r)
        jac = lambda a, b, c: t.jacobiator([a, b, c], [la, mu, dag_lm], 2)  # noqa: E731
        rhs = (
            jac(np_, nq, nr)
            - n1.apply(jac(np_, nq, r) + jac(np_, q, nr) + jac(p, nq, nr))
            + n1.power(2).apply(jac(np_, q, r) + jac(p, nq, r) + jac(p, q, nr))
            - n1.power(3).apply(jac(p, q, r))
        )
        return lhs - rhs

    triples = product(range(mod0.rank), repeat=3)
    report.add_residuals("jacobiator-defect", triples, jacobiator)
    return report


def classify(structure, op):
    """skeletal (d = 0), strict (l3 = 0 and N2 = 0), or neither.

    A structure with d, l3 and N2 all zero is reported as strict.
    """
    strict = structure.l3.is_zero() and op.n2.is_zero()
    skeletal = structure.d.is_zero()
    if strict:
        return "strict"
    if skeletal:
        return "skeletal"
    return "neither"


def skeletal_to_cocycle(structure, op):
    """Package (l3, N2) of a skeletal structure as a cocycle of the combined
    complex over (L0, N0) with coefficients in (L1, N1)."""
    if not structure.d.is_zero():
        raise PreconditionError("structure is not skeletal")
    pair = CochainPair(structure.l3, op.n2)
    image = apply_dNL(pair, op.n0, op.n1, rep=structure.rep)
    report = Report("skeletal-cocycle")
    report.add(
        "cocycle",
        image.is_zero(),
        None if image.is_zero() else "d_NL(l3, N2) != 0",
    )
    return pair, report


class CrossedModule:
    """Quadruple (lower (L0, N0), upper (L1, N1), t : L1 -> L0, rho)."""

    def __init__(self, lower, upper, t, rho):
        if t.source != upper.algebra.module or t.target != lower.algebra.module:
            raise ModuleMismatchError("t must map the upper algebra to the lower")
        if rho.algebra != lower.algebra or rho.module != upper.algebra.module:
            raise ModuleMismatchError("rho must act by the lower algebra on the upper")
        _require_linear(t, "t")
        self.lower = lower
        self.upper = upper
        self.t = t
        self.rho = rho


def check_crossed_module(x):
    """Peiffer identities, morphism/representation axioms, and the derived
    crossed-module statements for the deformed algebras."""
    report = Report("crossed-module")
    lower, upper, t, rho = x.lower, x.upper, x.t, x.rho
    mod0, mod1 = lower.algebra.module, upper.algebra.module

    for name, nlca in (("lower", lower), ("upper", upper)):
        base = check_lca(nlca.algebra)
        nij = check_nijenhuis(nlca.algebra, nlca.n)
        ok = base.passed and nij.passed
        report.add(name + "-algebra", ok, None if ok else "validator failed")

    morph = check_morphism(upper.algebra, lower.algebra, t)
    chain = (t.compose(upper.n) - lower.n.compose(t)).is_zero()
    report.add(
        "t-morphism",
        morph.passed and chain,
        morph.witness_of("morphism") if not morph.passed else (
            None if chain else "t N1 != N0 t"
        ),
    )

    nrep = check_nij_representation(lower, NijenhuisRep.raw(rho, upper.n))
    report.add("representation", nrep.passed, None if nrep.passed else "; ".join(nrep.lines()))

    def peiffer(prefix, action, lower_alg, upper_alg):
        """t(rho(p)_lam m) = [p lam t m] and rho(t m)_lam n = [m lam n]."""

        def first(i, j):
            p, m = mod0.basis_elem(i), mod1.basis_elem(j)
            return t.apply(action.act(p, m)) - eval_bracket(lower_alg, p, t.apply(m))

        def second(i, j):
            m, n = mod1.basis_elem(i), mod1.basis_elem(j)
            return action.act(t.apply(m), n) - eval_bracket(upper_alg, m, n)

        pairs = product(range(mod0.rank), range(mod1.rank))
        report.add_residuals(prefix + "peiffer-1", pairs, first)
        pairs = product(range(mod1.rank), repeat=2)
        report.add_residuals(prefix + "peiffer-2", pairs, second)

    peiffer("", rho, lower.algebra, upper.algebra)
    if not report.passed:
        return report

    # derived statements: t intertwines the deformed brackets, and
    # rho1(p) = rho(N0 p) + rho(p) N1 - N1 rho(p) represents the deformed
    # algebra, forming a crossed module with the deformed structures.
    def_lower = deformed_table(lower.algebra, lower.n)
    def_upper = deformed_table(upper.algebra, upper.n)
    morph = check_morphism(def_upper, def_lower, t)
    report.add("t-deformed-morphism", morph.passed, morph.witness_of("morphism"))

    rho1 = RepTable(def_lower, mod1)
    for i, j in product(range(mod0.rank), range(mod1.rank)):
        value = _deformed(
            rho.act, lower.n, upper.n, upper.n, mod0.basis_elem(i), mod1.basis_elem(j)
        )
        rho1.set_action(i, j, value.coords)
    r = check_representation(rho1)
    report.add("deformed-representation", r.passed, None if r.passed else "; ".join(r.lines()))
    peiffer("deformed-", rho1, def_lower, def_upper)
    return report


def crossed_to_strict(x):
    """The strict 2-term structure of a crossed module."""
    structure = TwoTermConformal(x.lower.algebra, x.upper.algebra.module, x.t, x.rho.action)
    op = HomotopyNijenhuis(structure, x.lower.n, x.upper.n)
    return structure, op


def strict_to_crossed(structure, op):
    """The crossed module of a strict 2-term structure.

    The degree-1 bracket is recovered as [m_lam n] := [[t(m)_lam n]].
    """
    if not (structure.l3.is_zero() and op.n2.is_zero()):
        raise PreconditionError("structure is not strict")
    mod1 = structure.l1
    upper_alg = LCA(mod1)
    for i in range(mod1.rank):
        m = mod1.basis_elem(i)
        for j in range(mod1.rank):
            n = mod1.basis_elem(j)
            value = structure.act(structure.d.apply(m), n, Poly.lam(1, 1), 1)
            upper_alg.set_bracket(i, j, value.coords)
    lower = NijenhuisLCA.raw(structure.l0, op.n0)
    upper = NijenhuisLCA.raw(upper_alg, op.n1)
    rho = RepTable(structure.l0, mod1, structure.action)
    return CrossedModule(lower, upper, structure.d, rho)


def strict_crossed_roundtrip(x):
    """Crossed module -> strict 2-term structure -> crossed module, exactly."""
    pre = check_crossed_module(x)
    if not pre.passed:
        raise PreconditionError("input fails check_crossed_module")
    structure, op = crossed_to_strict(x)
    report = Report("strict-roundtrip")
    two = check_2term(structure)
    report.add("2term", two.passed, None if two.passed else "; ".join(two.lines()))
    hn = check_homotopy_nijenhuis(structure, op)
    report.add("homotopy-nijenhuis", hn.passed, None if hn.passed else "; ".join(hn.lines()))
    report.add("strict", classify(structure, op) == "strict")
    back = strict_to_crossed(structure, op)
    same = (
        back.lower.algebra == x.lower.algebra
        and back.upper.algebra == x.upper.algebra
        and back.lower.n == x.lower.n
        and back.upper.n == x.upper.n
        and back.t == x.t
        and back.rho.action == x.rho.action
    )
    report.add("tables-identical", same, None if same else "round-trip altered a table")
    return report


def crossed_direct_sum(x):
    """The Nijenhuis structure on L0 + L1 carried by a crossed module.

    [(p, m)_lam (q, n)] = ([p_lam q], rho(p)_lam n - rho(q)_{-del-lam} m
    + [m_lam n]); the operator is N0 + N1.  Constructor-validated.
    """
    pre = check_crossed_module(x)
    if not pre.passed:
        raise PreconditionError("input fails check_crossed_module")
    lower, upper = x.lower, x.upper
    total = sum_algebra(lower.algebra, x.rho, upper.algebra.table)
    total_mod = total.module
    op = lower.n.direct_sum(upper.n)
    op = ConfLinMap(total_mod, total_mod, op.matrix)
    return NijenhuisLCA(total, op)
