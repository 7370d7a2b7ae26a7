"""2-term homotopy Lie conformal algebras with homotopy Nijenhuis operators.

A 2-term structure is a complex d : L1 -> L0 with a graded bracket and a
Jacobiator l3; a homotopy Nijenhuis operator is a triple (N0, N1, N2).  The
skeletal case (d = 0) packages (l3, N2) as a 3-cocycle of the combined
complex, and the strict case (l3 = 0, N2 = 0) is equivalent to a crossed
module; both directions of that correspondence are implemented and the
round-trip is checked table-by-table.

The Jacobiator, N2 and the mixed bracket live in the same evaluation model
as cochains: l3 is stored exactly like a degree-3 cochain over L0 with
coefficients in L1 under the action rho(p)_lam m = [[p_lam m]].  So L8 and
the jacobiator defect are read off the planned differentials, and on a
skeletal structure they pass exactly when :func:`skeletal_to_cocycle` does.
The f2 terms of a homomorphism's H5 are the coboundary of f2 over the
target's action pulled back through f0, read off the same plan.

Every other identity is a strict axiom relaxed by a homotopy term (Baez-Crans,
"Higher-dimensional algebra VI: Lie 2-algebras", TAC 2004, for the Lie
2-algebra case), and its line is the strict axiom's residual, defined once in
``lca`` or ``nijenhuis``, plus that correction:

* L4 and peiffer-1: the intertwining residual d [[p lam m]] - [p lam dm]
  (``lca._intertwining``), with no correction;
* L6: d l3(p, q, r) minus the Jacobi residual of L0 (``lca._jacobi``);
* L7: l3(p, q, dm) plus the representation residual (``lca._representation``);
* H2: d f2(p, q) plus the morphism residual of f0 (``lca._morphism``);
* square-defect: d N2(p, q) plus the Nijenhuis residual of N0
  (``nijenhuis._nijenhuis``);
* module-defect: N2(p, dm) plus the Nijenhuis residual of (N0, N1) over the
  action.

A 2-term structure holds data only: [[p lam m]] is evaluated through its
representation, and the mixed bracket [[m lam p]] through the flipped action
table (``lca._flipped_action``), built once per check.  A line that needs a
cochain on basis arguments reads its stored value.  The deformed action of
a crossed module and the upper bracket of a strict structure are tables
tabulated from the action (``lca._tabulated``).
"""

from __future__ import annotations

from functools import partial
from itertools import product

from .cohomology import (
    Cochain,
    CochainPair,
    apply_delta,
    apply_dNL,
    apply_dNM,
    check_cochain_skew,
    eval_cochain,
    xi_map,
    _basis_args,
    _pulled_back,
)
from .errors import ModuleMismatchError, PreconditionError
from .lca import (
    LCA,
    RepTable,
    check_lca,
    check_morphism,
    check_representation,
    eval_bracket,
    sesqui_eval,
    sum_algebra,
    _flipped_action,
    _intertwining,
    _jacobi,
    _morphism,
    _output_tuples,
    _representation,
    _skew_failures,
    _tabulated,
    _torsion_failures,
)
from .nijenhuis import (
    NijenhuisLCA,
    NijenhuisRep,
    _deformed_action,
    _nijenhuis,
    _require_linear,
    check_nij_representation,
    check_nijenhuis,
    deformed_table,
)
from .poly import Poly, dagger
from .report import Report, failures_of


class TwoTermConformal:
    """Chain complex d : L1 -> L0 with graded brackets and a Jacobiator.

    ``l0`` is an LCA carrying the degree-0 bracket; ``action`` is the
    structure table of [[p_lam m]] (degree 0 on degree 1); the bracket of two
    degree-1 elements would land in degree 2, which the complex does not
    have, so it is not stored.  The [[m_lam p]] bracket is derived from
    conformal skew-symmetry: it is the flipped action
    (``lca._flipped_action``).  ``l3`` is a degree-3 cochain with values in
    L1.
    """

    def __init__(self, l0, l1, d, action, l3=None):
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
        if l3 is None:
            l3 = Cochain.zero(3, self.rep)
        self.l3 = l3

    @property
    def action(self):
        return self.rep.action


class HomotopyNijenhuis:
    """Operator triple (N0 on L0, N1 on L1, N2 : L0 x L0 -> L1[lam])."""

    def __init__(self, structure, n0, n1, n2=None):
        if n0.source != structure.l0.module or n0.target != structure.l0.module:
            raise ModuleMismatchError("N0 must be an endomorphism of L0")
        if n1.source != structure.l1 or n1.target != structure.l1:
            raise ModuleMismatchError("N1 must be an endomorphism of L1")
        _require_linear(n0, "N0")
        _require_linear(n1, "N1")
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
    """l3-skew, then the eight defining identities on all applicable tuples.

    Each line is a strict axiom's residual plus its homotopy correction,
    which is zero where none is named:

    * L1: the degree-1 bracket vanishes, which holds by construction;
    * L2: [[m lam p]] = -[[p_{-del-lam} m]], which holds by construction;
    * L3: skew-symmetry of the degree-0 bracket;
    * L4: the intertwining residual of d, d [[p lam m]] - [p lam dm];
    * L5: [[dm lam n]] - [[m lam dn]];
    * L6: d l3(p, q, r) minus the Jacobi residual of L0;
    * L7: l3(p, q, dm) plus the representation residual of the action;
    * L8: delta(l3), the higher Jacobi law of l3.

    L3 is evaluated on pairs i <= j only, as in :func:`check_lca`: the
    residual at (j, i) is the one at (i, j) with lam1 -> -del - lam1.  As
    in :func:`check_representation`, an action that satisfies L7 but is
    nonzero on an evaluation generator, which sesquilinearity forbids (see
    :func:`_torsion_failures`), fails L7 at its least such pair.  L8 is the
    Chevalley-Eilenberg cocycle condition delta(l3) = 0 over the action
    (Baez-Crans, TAC 2004), read off `apply_delta`; its witness is the least
    nonzero entry of delta(l3).
    """
    report = Report("2term")
    t = structure
    mod0, mod1 = t.l0.module, t.l1
    d = t.d
    basis0, basis1 = mod0.basis_elem, mod1.basis_elem

    skew = check_cochain_skew(t.l3)
    report.add("l3-skew", skew.passed, skew.witness_of("skew"))

    # L1 holds by construction: the complex has no degree-2 part, so the
    # bracket of two degree-1 elements vanishes.
    report.add("L1", True)

    # L2 holds by construction: the m-on-p bracket is defined through it.
    report.add("L2", True)

    report.add_failures("L3", _skew_failures(t.l0, _output_tuples(mod0.rank, 2, True)))

    pairs = product(range(mod0.rank), range(mod1.rank))
    report.add_residuals("L4", pairs, _intertwining(t.rep, d))

    lam1, flipped = Poly.lam(1, 1), _flipped_action(t.rep)

    def l5(i, j):
        m, n = basis1(i), basis1(j)
        mixed = sesqui_eval(flipped, mod1, m, d.apply(n), lam1, 1)
        return t.rep.act(d.apply(m), n) - mixed

    report.add_residuals("L5", product(range(mod1.rank), repeat=2), l5)

    la, mu = Poly.lam(1, 2), Poly.lam(2, 2)
    forms = [la, mu, dagger(la + mu)]
    jacobi, representation = _jacobi(t.l0), _representation(t.rep)

    def l6(*key):
        return d.apply(t.l3.value(key)) - jacobi(*key)

    report.add_residuals("L6", product(range(mod0.rank), repeat=3), l6)

    def l7(i, j, k):
        args = [basis0(i), basis0(j), d.apply(basis1(k))]
        return eval_cochain(t.l3, args, forms, 2) + representation(i, j, k)

    triples = product(range(mod0.rank), range(mod0.rank), range(mod1.rank))
    report.add_failures(
        "L7",
        failures_of((key, l7(*key)) for key in triples)
        or _torsion_failures(t.action, mod0, mod1),
    )
    # L8: l3 is a 3-cocycle of L0 with coefficients in L1 over the action
    l8 = apply_delta(t.l3, rep=t.rep)
    report.add_failures("L8", failures_of(l8.values.items()))
    return report


def check_homomorphism(src, dst, f0, f1, f2):
    """f2-skew, then the five conditions for a morphism (f0, f1, f2) of
    2-term structures.

    Each line is a strict axiom's residual plus its homotopy correction,
    which is zero where none is named:

    * f2-skew: skew-symmetry of f2;
    * H1: f0 d - d' f1, the chain-map condition;
    * H2: d' f2(p, q) plus the morphism residual of f0 on L0;
    * H3: f2(p, dm) plus f1 [[p lam m]] - [[f0 p lam f1 m]]';
    * H4: f2(dm, p) plus f1 [[m lam p]] - [[f1 m lam f0 p]]';
    * H5: l3'(f0 p, f0 q, f0 r) - f1 l3(p, q, r) minus delta(f2), the
      coboundary of f2 as a 2-cochain of the source L0 with values in L1'
      under the action of L0' pulled back through f0 (Baez-Crans, TAC
      2004).  Its bracket sum applies f2 to the source brackets, and on a
      skew f2 it is the six f2 terms of the Jacobiator law.
    """
    report = Report("2term-homomorphism")
    mod0, mod1 = src.l0.module, src.l1
    basis0, basis1 = mod0.basis_elem, mod1.basis_elem

    skew = check_cochain_skew(f2)
    report.add("f2-skew", skew.passed, skew.witness_of("skew"))

    ok = (f0.compose(src.d) - dst.d.compose(f1)).is_zero()
    report.add("H1", ok, "chain maps do not commute")

    lam1 = Poly.lam(1, 1)
    dag1 = dagger(lam1)
    morphism = _morphism(src.l0, dst.l0)(f0)

    def h2(i, j):
        return dst.d.apply(f2.value((i, j))) + morphism[i, j]

    report.add_residuals("H2", product(range(mod0.rank), repeat=2), h2)

    def h3(i, j):
        p, m = basis0(i), basis1(j)
        lhs = eval_cochain(f2, [p, src.d.apply(m)], [lam1, dag1], 1)
        rhs = -f1.apply(src.rep.act(p, m)) + dst.rep.act(f0.apply(p), f1.apply(m))
        return lhs - rhs

    report.add_residuals("H3", product(range(mod0.rank), range(mod1.rank)), h3)

    src_flipped, dst_flipped = _flipped_action(src.rep), _flipped_action(dst.rep)

    def h4(i, j):
        m, p = basis1(i), basis0(j)
        lhs = eval_cochain(f2, [src.d.apply(m), p], [lam1, dag1], 1)
        mixed = sesqui_eval(src_flipped, mod1, m, p, lam1, 1)
        image = sesqui_eval(dst_flipped, dst.l1, f1.apply(m), f0.apply(p), lam1, 1)
        return lhs + f1.apply(mixed) - image

    report.add_residuals("H4", product(range(mod1.rank), range(mod0.rank)), h4)

    la, mu = Poly.lam(1, 2), Poly.lam(2, 2)
    forms = [la, mu, dagger(la + mu)]
    delta_f2 = apply_delta(Cochain(2, _pulled_back(dst.rep, f0, src.l0), f2.values))

    def h5(*key):
        images = [f0.apply(x) for x in _basis_args(mod0, key)]
        lhs = eval_cochain(dst.l3, images, forms, 2) - f1.apply(src.l3.value(key))
        return lhs - delta_f2.value(key)

    report.add_residuals("H5", product(range(mod0.rank), repeat=3), h5)
    return report


def check_homotopy_nijenhuis(structure, op):
    """The four identities of a homotopy Nijenhuis operator, plus N2 skewness.

    Each line is a strict axiom's residual plus its homotopy correction:

    * n2-skew: skew-symmetry of N2;
    * chain-map: d N1 - N0 d;
    * square-defect: d N2(p, q) plus the Nijenhuis residual of N0 on L0;
    * module-defect: N2(p, dm) plus the Nijenhuis residual of (N0, N1) over
      the action, as in a Nijenhuis representation;
    * jacobiator-defect: the homotopy law of N2 against l3, below.

    The jacobiator defect is the second component of d_NL(l3, N2), that is
    d_{N,M}(N2) - xi(l3) with d_{N,M} and xi for N0 on L0 and N1 on L1,
    read off `apply_dNM` and `xi_map`; its witness is the least nonzero
    entry of that degree-3 cochain.
    """
    pre = check_2term(structure)
    if not pre.passed:
        raise PreconditionError(
            "underlying 2-term structure fails check_%s: %s"
            % (pre.title, pre.failing())
        )
    t, n0, n1, n2 = structure, op.n0, op.n1, op.n2
    mod0, mod1 = t.l0.module, t.l1
    report = Report("homotopy-nijenhuis")

    skew = check_cochain_skew(n2)
    report.add("n2-skew", skew.passed, skew.witness_of("skew"))

    ok = (t.d.compose(n1) - n0.compose(t.d)).is_zero()
    report.add("chain-map", ok, "d N1 != N0 d")

    forms = [Poly.lam(1, 1), dagger(Poly.lam(1, 1))]
    bracket = partial(eval_bracket, t.l0)

    def square(i, j):
        p, q = mod0.basis_elem(i), mod0.basis_elem(j)
        return t.d.apply(n2.value((i, j))) + _nijenhuis(bracket, n0, n0, p, q)

    report.add_residuals("square-defect", product(range(mod0.rank), repeat=2), square)

    def module(i, j):
        p, m = mod0.basis_elem(i), mod1.basis_elem(j)
        n2_pdm = eval_cochain(n2, [p, t.d.apply(m)], forms, 1)
        return n2_pdm + _nijenhuis(t.rep.act, n0, n1, p, m)

    pairs = product(range(mod0.rank), range(mod1.rank))
    report.add_residuals("module-defect", pairs, module)

    # the second component of d_NL(l3, N2): d_{N,M}(N2) + (-1)^3 xi(l3)
    defect = apply_dNM(n2, n0, n1, rep=t.rep) - xi_map(t.l3, n0, n1)
    report.add_failures("jacobiator-defect", failures_of(defect.values.items()))
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
    return pair, Report("skeletal-cocycle").add("cocycle", image.is_zero(), "d_NL(l3, N2) != 0")


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
    crossed-module statements for the deformed algebras.

    A crossed module is strict, so each line is a strict axiom's residual
    with no homotopy correction:

    * lower-algebra, upper-algebra: :func:`check_lca` and
      :func:`check_nijenhuis` of each Nijenhuis algebra;
    * t-morphism: the morphism residual of t, and t N1 = N0 t;
    * representation: :func:`check_nij_representation` of (rho, N1);
    * peiffer-1: the intertwining residual of t, t(rho(p)_lam m) - [p lam t m];
    * peiffer-2: rho(t m)_lam n - [m lam n];
    * the same lines over the deformed brackets and rho1, the action
      deformed by (N0, N1), once the plain lines pass.
    """
    report = Report("crossed-module")
    lower, upper, t, rho = x.lower, x.upper, x.t, x.rho
    mod0, mod1 = lower.algebra.module, upper.algebra.module

    for name, nlca in (("lower", lower), ("upper", upper)):
        base = check_lca(nlca.algebra)
        nij = check_nijenhuis(nlca.algebra, nlca.n)
        ok = base.passed and nij.passed
        report.add(name + "-algebra", ok, "validator failed")

    morph = check_morphism(upper.algebra, lower.algebra, t)
    chain = (t.compose(upper.n) - lower.n.compose(t)).is_zero()
    witness = morph.witness_of("morphism") if not morph.passed else "t N1 != N0 t"
    report.add("t-morphism", morph.passed and chain, witness)

    nrep = check_nij_representation(lower, NijenhuisRep(rho, upper.n))
    report.add("representation", nrep.passed, "; ".join(nrep.lines()))

    def peiffer(prefix, action, upper_alg):
        """t(rho(p)_lam m) = [p lam t m] and rho(t m)_lam n = [m lam n]."""

        def second(i, j):
            m, n = mod1.basis_elem(i), mod1.basis_elem(j)
            return action.act(t.apply(m), n) - eval_bracket(upper_alg, m, n)

        pairs = product(range(mod0.rank), range(mod1.rank))
        report.add_residuals(prefix + "peiffer-1", pairs, _intertwining(action, t))
        pairs = product(range(mod1.rank), repeat=2)
        report.add_residuals(prefix + "peiffer-2", pairs, second)

    peiffer("", rho, upper.algebra)
    if not report.passed:
        return report

    # derived statements: t intertwines the deformed brackets, and
    # rho1(p) = rho(N0 p) + rho(p) N1 - N1 rho(p) represents the deformed
    # algebra, forming a crossed module with the deformed structures.
    def_lower = deformed_table(lower.algebra, lower.n)
    def_upper = deformed_table(upper.algebra, upper.n)
    morph = check_morphism(def_upper, def_lower, t)
    report.add("t-deformed-morphism", morph.passed, morph.witness_of("morphism"))

    rho1 = RepTable(def_lower, mod1, _deformed_action(rho, lower.n, upper.n))
    r = check_representation(rho1)
    report.add("deformed-representation", r.passed, "; ".join(r.lines()))
    peiffer("deformed-", rho1, def_upper)
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
    mod1, d = structure.l1, structure.d

    def upper_bracket(i, j):
        return structure.rep.act(d.apply(mod1.basis_elem(i)), mod1.basis_elem(j))

    upper_alg = LCA(mod1, _tabulated(mod1, mod1, mod1, upper_bracket))
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
    report.add("2term", two.passed, "; ".join(two.lines()))
    hn = check_homotopy_nijenhuis(structure, op)
    report.add("homotopy-nijenhuis", hn.passed, "; ".join(hn.lines()))
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
    report.add("tables-identical", same, "round-trip altered a table")
    return report


def crossed_direct_sum(x):
    """The Nijenhuis structure on L0 + L1 carried by a crossed module.

    [(p, m)_lam (q, n)] = ([p_lam q], rho(p)_lam n - rho(q)_{-del-lam} m
    + [m_lam n]); the operator is N0 + N1.  A passing
    :func:`check_crossed_module` makes it a Nijenhuis LCA: rho is a
    Nijenhuis representation, and with the Peiffer identities it acts by
    derivations of L1.  Only the Q[del]-linearity of N0 and N1 is left to
    refuse.  ``tests/test_totals.py`` pins this on seeded random data.
    """
    pre = check_crossed_module(x)
    if not pre.passed:
        raise PreconditionError("input fails check_crossed_module")
    op = x.lower.n.direct_sum(x.upper.n)
    _require_linear(op)
    total = sum_algebra(x.lower.algebra, x.rho, x.upper.algebra.table)
    return NijenhuisLCA.raw(total, op)
