"""Lie conformal algebras over Q[del] at finite rank.

Modules are free Q[del]-modules given by a basis (plus rank-1 "evaluation"
modules where del acts as a fixed rational, used only as coefficient
targets).  A bracket or action is a structure table: for each ordered basis
pair a vector of arity-1 polynomials in (del, lam1), where del is understood
to act on the output.  Sesquilinearity is implemented by substitution:

* first argument:  del |-> -form in the argument's coefficients;
* second argument: del |-> del + form;
* table value:     lam1 |-> form, del kept outermost;

where the lambda-form is the slot variable lam_slot for a plain bracket, or
any polynomial standing for the argument's lambda inside a cochain.  A table
is a conformal 2-cochain, so tables and cochains share one evaluation core
(:func:`_evaluate`), one expansion of a stored value (:func:`_expansion`) and
one skew-symmetry residual (:func:`_skew_residual`).  All axioms
(skew-symmetry, Jacobi, representation identity) are checked by expanding
these substitutions to literal polynomial identities.  The Jacobi, the
representation and the morphism residuals on basis tuples (:func:`_jacobi`,
:func:`_representation`, :func:`_morphism`) are each defined once: the
2-term checks of ``homotopy`` add their homotopy corrections to them.  The
Jacobi residual is minus the representation residual of the adjoint action.

Stored values at images of basis elements are read by one holder,
:class:`_BasisPairs`, over a table or a cochain of degree n >= 2: ``at``
gives T(a e_i, b e_j), or a cochain's value at n mapped basis elements,
reading the stored value itself where every map is the identity, else
evaluating it by :func:`_evaluate` at lam1, ..., lam_{n-1} and the dagger;
it computes each image and each value once.  The morphism residual
(i, j) -> out(S_ij) - T(left e_i, right e_j) reads T there, S_ij being a
basis read of the source table or another holder's ``at``: it is the
morphism line of algebras, the intertwining of an action with a bracket
(L4 and peiffer-1), H2-H4 of a 2-term homomorphism, the chi of an
extracted triple and the residuals of a map between extension totals.  The
Nijenhuis and deformation residuals, the tables pulled back through a map,
the cochain terms of L7, H3-H5 and the module defect of ``homotopy`` and
the chi of a moved triple read holders too.  Outside the holder no
function evaluates a bracket, an action or a cochain at basis elements or
images of them, and no caller writes the lambda-forms of such a read.

A table derived from another structure is tabulated from that structure's
evaluator on basis pairs by :func:`_tabulated`, the one loop that fills a
table from an evaluator: the deformed bracket and action (``nijenhuis``),
the pulled-back action (``cohomology._pulled_back``), the upper bracket of
a strict 2-term structure and the actions of an extracted or a moved
triple, each read through a holder's ``at``, and the flipped action
[m lam x] = -rho(x)_{-del-lam} m, which only :func:`_flipped_action`
builds.  Outside this module only the parser writes table entries.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from itertools import combinations_with_replacement, product

from .errors import ModuleMismatchError, PreconditionError
from .grammar import format_poly
from .poly import Poly, Substitution, _trusted, dagger
from .report import PRECONDITION, Report, failures_of

FREE = "free"


class FreeModule:
    """Finite-rank module over Q[del].

    ``del_action`` is "free", a rational (del acts as that scalar on every
    generator), or a per-generator list mixing both -- the latter is what
    direct sums with central evaluation summands produce.
    """

    def __init__(self, basis_names, del_action=FREE):
        self.basis = list(basis_names)
        if len(set(self.basis)) != len(self.basis):
            raise ValueError("duplicate basis names")
        if isinstance(del_action, (list, tuple)):
            actions = [
                FREE if a == FREE else Fraction(a) for a in del_action
            ]
            if len(actions) != len(self.basis):
                raise ValueError("one del action per generator required")
        elif del_action == FREE:
            actions = [FREE] * len(self.basis)
        else:
            actions = [Fraction(del_action)] * len(self.basis)
        self.actions = actions
        # (index, action) of each evaluation generator
        self._evaluation = [(t, a) for t, a in enumerate(actions) if a != FREE]

    @property
    def del_action(self):
        if all(a == FREE for a in self.actions):
            return FREE
        if len(set(self.actions)) == 1:
            return self.actions[0]
        return list(self.actions)

    @property
    def rank(self):
        return len(self.basis)

    @property
    def is_evaluation(self):
        return all(a != FREE for a in self.actions)

    def zero(self, arity=0):
        return _trusted_elem(self, [Poly.zero(arity)] * self.rank)

    def basis_elem(self, index):
        coords = [Poly.zero(0)] * self.rank
        coords[index] = Poly.one(0)
        return _trusted_elem(self, coords)

    def elem(self, coords):
        return Elem(self, list(coords))

    def __eq__(self, other):
        return self is other or (
            isinstance(other, FreeModule)
            and self.basis == other.basis
            and self.actions == other.actions
        )

    def __repr__(self):
        tail = ", del=%s" % self.del_action if self._evaluation else ""
        return "FreeModule(%s%s)" % (",".join(self.basis), tail)

    def reduce_coords(self, coords):
        """Apply the evaluation substitution del |-> a where applicable."""
        out = list(coords)
        for t, action in self._evaluation:
            if out[t].uses_var(0):
                out[t] = out[t].substitute(0, Poly.const(action, out[t].arity))
        return out


class Elem:
    """Element of a FreeModule with coordinates in Q[del, lam...].

    Arity 0 elements are plain module elements; arity >= 1 elements are
    lambda-polynomial valued (outputs of brackets and cochains).  The
    constructor checks the coordinates and substitutes del on evaluation
    generators; results that are reduced already are built by
    :func:`_trusted_elem`.
    """

    def __init__(self, module, coords):
        if len(coords) != module.rank:
            raise ModuleMismatchError(
                "expected %d coordinates, got %d" % (module.rank, len(coords))
            )
        arities = {c.arity for c in coords}
        if len(arities) > 1:
            raise ModuleMismatchError("mixed coordinate arities %r" % arities)
        self.module = module
        self.coords = module.reduce_coords(coords)

    @property
    def arity(self):
        return self.coords[0].arity if self.coords else 0

    def with_arity(self, arity):
        if arity == self.arity:
            return self
        return _trusted_elem(self.module, [c.with_arity(arity) for c in self.coords])

    def _coerce(self, other):
        if not isinstance(other, Elem) or other.module != self.module:
            raise ModuleMismatchError("cannot combine elements of %r and %r"
                                      % (self.module, getattr(other, "module", other)))
        arity = max(self.arity, other.arity)
        return self.with_arity(arity), other.with_arity(arity)

    def __add__(self, other):
        a, b = self._coerce(other)
        return _trusted_elem(a.module, [x + y for x, y in zip(a.coords, b.coords)])

    def __sub__(self, other):
        a, b = self._coerce(other)
        return _trusted_elem(a.module, [x - y for x, y in zip(a.coords, b.coords)])

    def __neg__(self):
        return _trusted_elem(self.module, [-c for c in self.coords])

    def scale(self, value):
        return _trusted_elem(self.module, [c.scale(value) for c in self.coords])

    def mul_poly(self, poly):
        """Multiply by a polynomial coefficient (del acting on the module)."""
        arity = max(self.arity, poly.arity)
        poly = poly.with_arity(arity)
        return Elem(
            self.module, [c.with_arity(arity) * poly for c in self.coords]
        )

    def substitute(self, index, image):
        arity = max(self.arity, image.arity if isinstance(image, Poly) else 0)
        image = image.with_arity(arity) if isinstance(image, Poly) else image
        return Elem(
            self.module,
            [c.with_arity(arity).substitute(index, image) for c in self.coords],
        )

    def shrink(self, arity):
        return _trusted_elem(self.module, [c.with_arity(arity) for c in self.coords])

    def is_zero(self):
        return all(c.is_zero() for c in self.coords)

    def __eq__(self, other):
        if not isinstance(other, Elem) or other.module != self.module:
            return NotImplemented
        a, b = self._coerce(other)
        return a.coords == b.coords

    def __iter__(self):
        """The coordinates, as a stored table entry lists them."""
        return iter(self.coords)

    def __repr__(self):
        parts = []
        for name, coeff in zip(self.module.basis, self.coords):
            if not coeff.is_zero():
                parts.append("(%s)%s" % (format_poly(coeff), name))
        return " + ".join(parts) if parts else "0"


def _trusted_elem(module, coords):
    """Wrap coordinates that are already reduced, without revalidating them.

    ``coords`` must be a list of ``module.rank`` Polys of one arity with no
    del left on evaluation generators, as the results of ``+``, ``-``,
    ``scale``, ``with_arity`` and ``shrink`` on Elems are.  Anything into
    which del can enter on such a generator (``mul_poly``, ``substitute``,
    bracket values, parsed coordinates) goes through ``Elem(module, coords)``,
    or through ``module.reduce_coords`` when its shape is known, as in the
    evaluation core.
    """
    elem = object.__new__(Elem)
    elem.module = module
    elem.coords = coords
    return elem


class StructureTable:
    """Sparse table (i, j) -> coordinate vector of arity-1 Polys.

    ``set``, the one writer of ``entries``, bumps ``version``: what is
    derived from the table is stamped with its ``stamp``.
    """

    def __init__(self, rank_a, rank_b, rank_out, entries=None):
        self.shape = (rank_a, rank_b, rank_out)
        self.entries = {}
        self.version = 0
        if entries:
            for (i, j), value in entries.items():
                self.set(i, j, value)

    def set(self, i, j, value):
        rank_a, rank_b, rank_out = self.shape
        if not (0 <= i < rank_a and 0 <= j < rank_b):
            raise ModuleMismatchError("table index (%d,%d) out of range" % (i, j))
        value = [v if isinstance(v, Poly) else Poly.const(v, 1) for v in value]
        if len(value) != rank_out:
            raise ModuleMismatchError("table value has wrong length")
        value = [v.with_arity(1) for v in value]
        self.version += 1
        if any(v for v in value):
            self.entries[(i, j)] = value
        else:
            self.entries.pop((i, j), None)

    @property
    def stamp(self):
        """(table, version): equal only while no entry has been set."""
        return (self, self.version)

    def get(self, i, j):
        rank_out = self.shape[2]
        return self.entries.get((i, j), [Poly.zero(1)] * rank_out)

    def _combine(self, other, op):
        if self.shape != other.shape:
            raise ModuleMismatchError("table shapes differ")
        out = StructureTable(*self.shape)
        for key in set(self.entries) | set(other.entries):
            out.set(key[0], key[1], [op(a, b) for a, b in zip(self.get(*key), other.get(*key))])
        return out

    def __add__(self, other):
        return self._combine(other, operator.add)

    def __eq__(self, other):
        return (
            isinstance(other, StructureTable)
            and self.shape == other.shape
            and self.entries == other.entries
        )


def _expansion(forms, arity):
    """The map taking a stored value's polynomials to ``arity`` with
    lam_j |-> forms[j-1], del kept outermost: a relabel at distinct bare
    lambdas (see :func:`_relabeling`), else a `poly.Substitution`, which
    keeps each monomial's image while it is held."""
    slots = list(map(_bare_slot, forms))
    if arity and None not in slots and len(set(slots)) == len(slots):
        return _relabeling(slots, arity)
    return Substitution(arity, dict(enumerate(forms, 1)))


def _bare_slot(form):
    """s when ``form`` is the bare lam_s, else None."""
    if len(form.terms) == 1:
        ((key, coeff),) = form.terms.items()
        if coeff == 1 and not key[0] and sum(key) == 1:
            return key.index(1)
    return None


def _relabeling(slots, arity):
    """The expansion at the distinct bare lambdas lam_{slots[j-1]}, at
    ``arity`` >= 1: exponent j of a monomial moves to index slots[j-1], so
    no two monomials meet and nothing is multiplied."""
    pick = [len(slots) + 1] * (arity + 1)
    pick[0] = 0
    for j, s in enumerate(slots, 1):
        pick[s] = j
    pick = operator.itemgetter(*pick)
    return lambda poly: _trusted(
        arity, {pick(key + (0,)): c for key, c in poly.terms.items()}
    )


def _evaluate(values, target, args, forms, arity):
    """The evaluation core of tables and cochains, into ``target``.

    ``values`` maps basis n-tuples to stored vectors (a table's entries or a
    cochain's Elems) in del and lam_1..lam_{n-1}; ``args`` are n Elems and
    ``forms`` their lambda-forms at ``arity``.  For n >= 2 the last form may
    be left out: it is then the dagger -del - (sum of the others).  Argument
    k gets del |-> -form_k, lam_j becomes form_j (see :func:`_expansion`)
    and del stays outermost.  Only the values on the product of the
    arguments' nonzero coordinates are read, and only the coordinates that
    meet one are lifted (see :class:`_Lifted`); when none is met, the zero
    Elem is returned at once.
    """
    supports = [[i for i, c in enumerate(arg.coords) if c.terms] for arg in args]
    matched = [key for key in product(*supports) if key in values]
    if not matched:
        return target.zero(arity)
    lifted = [_Lifted(arg.coords, arity, form) for arg, form in zip(args, forms)]
    if len(forms) < len(args):
        lifted.append(_Lifted(args[-1].coords, arity, sum(forms[1:], forms[0]), True))
    expand = _expansion(forms[: len(args) - 1], arity)
    result = [Poly.zero(arity)] * target.rank
    for key in matched:
        factor = lifted[0][key[0]]
        for k in range(1, len(key)):
            factor = factor * lifted[k][key[k]]
        for t, poly in enumerate(values[key]):
            if poly.terms:
                result[t] = result[t] + factor * expand(poly)
    return _trusted_elem(target, target.reduce_coords(result))


def sesqui_eval(table, target, a, b, form, arity):
    """Sesquilinear extension of a structure table at a lambda-form.

    ``a`` and ``b`` are Elems whose coordinates may already involve other
    lambda-variables; ``form`` (a polynomial at ``arity``) is the lambda
    attached to this evaluation: the first argument's coefficients get
    del |-> -form, the second argument's get del |-> del + form, and the
    table value's lam1 becomes ``form``.  Returns an Elem of ``target``.
    The table is a 2-cochain whose arguments carry ``form`` and its dagger,
    evaluated by the core :func:`_evaluate` on the support of ``a`` and ``b``.
    """
    return _evaluate(table.entries, target, (a, b), (form,), arity)


class _Lifted(dict):
    """The coordinates of an argument with lambda-form ``form``, or with its
    dagger, lifted to ``arity`` with del |-> -form, or del |-> del + form,
    each when it is first used; that image is built only once a coordinate
    holds del, so basis arguments never build it."""

    def __init__(self, coords, arity, form, dagger=False):
        super().__init__()
        self.coords, self.arity, self.form, self.dagger = coords, arity, form, dagger
        self.image = None

    def __missing__(self, index):
        coord = self.coords[index].with_arity(self.arity)
        if coord.uses_var(0):
            if self.image is None:
                form = self.form
                self.image = Poly.del_(self.arity) + form if self.dagger else -form
            coord = coord.substitute(0, self.image)
        self[index] = coord
        return coord


class LCA:
    """A lambda-bracket structure table on a free module.

    Axioms are not enforced by storage -- use :func:`check_lca`.
    ``checked`` is the stamp of the table when it last passed.
    """

    def __init__(self, module, table=None):
        self.module = module
        if table is None:
            table = StructureTable(module.rank, module.rank, module.rank)
        if table.shape != (module.rank, module.rank, module.rank):
            raise ModuleMismatchError("bracket table shape mismatch")
        self.table = table
        self.checked = None

    def set_bracket(self, i, j, value):
        self.table.set(i, j, value)

    def bracket_basis(self, i, j, slot=1, arity=None):
        """[e_i lam_slot e_j] as an Elem."""
        return _basis_value(self.table, self.module, i, j, slot, arity)

    def __eq__(self, other):
        return (
            isinstance(other, LCA)
            and self.module == other.module
            and self.table == other.table
        )


def eval_bracket(lca, a, b, slot=1):
    """[a lam_slot b] by sesquilinear extension of the structure table."""
    for x in (a, b):
        if x.module != lca.module:
            raise ModuleMismatchError("element not in the algebra's module")
    arity = max(a.arity, b.arity, slot)
    return sesqui_eval(lca.table, lca.module, a, b, Poly.lam(slot, arity), arity)


def dagger_substitute(elem, slot):
    """Substitute lam_slot |-> -del - lam_1 - ... - lam_{slot-1}, del outside.

    The result is shrunk back so that lam_slot is out of scope whenever it
    was the top variable.  A zero element gives the zero element at that
    arity without building the dagger form.
    """
    arity = max(elem.arity, slot)
    if elem.is_zero():
        return elem.module.zero(arity - 1 if slot == arity else arity)
    earlier = sum((Poly.lam(i, arity) for i in range(1, slot)), Poly.zero(arity))
    out = elem.with_arity(arity).substitute(slot, dagger(earlier))
    if slot == arity:
        out = out.shrink(arity - 1)
    return out


def _output_tuples(rank, n, skew):
    """The basis n-tuples a residual is evaluated on: the non-decreasing ones
    when ``skew``, else all of them.

    With a conformally skew bracket whose torsion is inert (see
    :func:`_sorted_tuples_suffice`), the Jacobiator, the Nijenhuis and
    representation residuals and every coboundary are skew in their
    arguments: the value on a permuted tuple is, up to sign, an invertible
    substitution of the lambdas (and del) in the value on the sorted tuple.
    So a residual vanishes on a whole permutation orbit exactly when it
    vanishes on the orbit's sorted tuple, which is also the orbit's least
    tuple; the least failing tuple, and the residual printed there, are the
    ones a full pass would find.
    """
    if skew:
        return list(combinations_with_replacement(range(rank), n))
    return list(product(range(rank), repeat=n))


def _sorted_tuples_suffice(lca, n=None):
    """Whether residuals over ``lca`` and the operator ``n`` may be evaluated
    on non-decreasing tuples only (see :func:`_output_tuples`): the bracket
    is conformally skew, tested on pairs i <= j, and its torsion is inert."""
    skew = not _skew_failures(lca, _output_tuples(lca.module.rank, 2, True))
    return skew and _torsion_is_inert(lca, n=n)


def _torsion_failures(table, left, right):
    """(pair, value) of every nonzero table entry on an evaluation generator.

    ``table`` pairs generators of ``left`` with generators of ``right`` and
    takes values in ``right``: a bracket, or an action on ``right``.
    Sesquilinearity makes each such value zero.  If del acts on e_j by the
    scalar a, then [x lam del e_j] is both (del + lam) [x lam e_j] and
    a [x lam e_j]; if it acts on e_i by a, [del e_i lam y] is both
    -lam [e_i lam y] and a [e_i lam y].  A nonzero polynomial in lam times a
    nonzero value is nonzero, on free and on evaluation outputs alike, so
    torsion is central and the value itself is the residual.
    """
    return failures_of(
        (key, Elem(right, list(value)))
        for key, value in table.entries.items()
        if left.actions[key[0]] != FREE or right.actions[key[1]] != FREE
    )


def _torsion_is_inert(lca, n=None):
    """Whether no coordinate on an evaluation generator re-enters a residual.

    Such a generator is torsion (del acts on it by a scalar), and its
    coordinates are stored with del substituted.  That is exact while they
    are only ever output: when no bracket of ``lca`` involves a torsion
    generator (see :func:`_torsion_failures`), and the operator ``n`` maps
    it only onto generators with the same del action (see
    :func:`_torsion_mixing`).  Otherwise a
    substituted coordinate is fed back into a bracket or an operator, where
    the dagger rule no longer relates a residual's values on permuted
    tuples, so every tuple must be evaluated.
    """
    module = lca.module
    if _torsion_failures(lca.table, module, module):
        return False
    return n is None or not _torsion_mixing(n)


def _torsion_mixing(mapping):
    """(row, column) of every entry of ``mapping`` that sends an evaluation
    generator onto a generator with another del action, in order.

    If del acts on e_t by the scalar a, Q[del]-linearity asks that the
    coordinate m(del) e_s of mapping(e_t) satisfy del m e_s = a m e_s.  That
    fails unless m vanishes on e_s: always on a free e_s, and on an e_s where
    del acts by b != a unless m(b) = 0.  An entry in the row of such an e_s
    is held as m(b) (see `ConfLinMap`), so any nonzero entry fails.
    """
    source, target = mapping.source.actions, mapping.target.actions
    return [
        (s, t)
        for s, row in enumerate(mapping.matrix)
        for t, entry in enumerate(row)
        if entry and source[t] != FREE and target[s] != source[t]
    ]


def check_lca(lca):
    """Skew-symmetry and Jacobi, each with its least failing basis tuple.

    Skew-symmetry is evaluated on pairs i <= j only.  That needs no
    precondition: the residual at (j, i) is the one at (i, j) with
    lam1 -> -del - lam1.  The skew check also fails every nonzero bracket
    on an evaluation generator, at its pair, since sesquilinearity forbids
    it (see :func:`_torsion_failures`).  When the skew check passes,
    Jacobi is evaluated on sorted triples only (see :func:`_output_tuples`);
    otherwise on every triple.
    """
    module = lca.module
    report = Report("lca")
    skew = report.add_failures(
        "skew",
        _skew_failures(lca, _output_tuples(module.rank, 2, True))
        + _torsion_failures(lca.table, module, module),
    )
    report.add_residuals("jacobi", _output_tuples(module.rank, 3, not skew), _jacobi(lca))
    return report


def _skew_failures(lca, pairs):
    """(pair, residual) of conformal skew-symmetry on the given basis pairs
    (see :func:`_skew_residual`)."""
    entries, module = lca.table.entries, lca.module
    return failures_of((key, _skew_residual(entries, module, key, 0)) for key in pairs)


def _skew_residual(values, target, key, k):
    """The conformal skew-symmetry residual of stored ``values`` (as in
    :func:`_evaluate`) at the basis n-tuple ``key`` and the transposition of
    its slots k and k + 1: the value at ``key`` plus the relabelled value at
    the swapped tuple, then the dagger rule for the last lambda.  For a
    table, [e_i lam e_j] + [e_j_{-del-lam} e_i]."""
    n = len(key)
    slots = list(range(1, n + 1))
    slots[k], slots[k + 1] = slots[k + 1], slots[k]
    swapped = key[:k] + (key[k + 1], key[k]) + key[k + 2 :]
    coords = [Poly.zero(n)] * target.rank
    for value, relabel in (
        (values.get(key), _relabeling(range(1, n), n)),
        (values.get(swapped), _relabeling(slots[:-1], n)),
    ):
        if value is not None:
            coords = [acc + relabel(poly) for acc, poly in zip(coords, value)]
    return dagger_substitute(Elem(target, coords), n)


def _jacobi_failures(lca, triples):
    """(triple, residual) of the Jacobi identity on the given basis triples."""
    residual = _jacobi(lca)
    return failures_of((key, residual(*key)) for key in triples)


def _jacobi(lca):
    """The Jacobi residual (i, j, k) -> [e_i lam [e_j mu e_k]]
    - [e_j mu [e_i lam e_k]] - [[e_i lam e_j] lam+mu e_k] at arity 2, with
    lam = lam1 and mu = lam2: minus the representation residual of the
    adjoint action (:func:`_representation`)."""
    representation = _representation(adjoint_rep(lca))
    return lambda i, j, k: -representation(i, j, k)


class RepTable:
    """Conformal representation: action table rho(e_i)_lam m_j.  It holds
    its plans in ``_plans`` (see ``cohomology._held``)."""

    def __init__(self, algebra, module, action=None):
        self.algebra = algebra
        self.module = module
        if action is None:
            action = StructureTable(algebra.module.rank, module.rank, module.rank)
        if action.shape != (algebra.module.rank, module.rank, module.rank):
            raise ModuleMismatchError("action table shape mismatch")
        self.action = action
        self._plans = {}

    def set_action(self, i, j, value):
        self.action.set(i, j, value)

    def act(self, p, m, slot=1):
        """rho(p)_lam_slot m."""
        if p.module != self.algebra.module:
            raise ModuleMismatchError("first argument not in the algebra")
        if m.module != self.module:
            raise ModuleMismatchError("second argument not in the module")
        arity = max(p.arity, m.arity, slot)
        return sesqui_eval(
            self.action, self.module, p, m, Poly.lam(slot, arity), arity
        )

    def act_basis(self, i, j, slot=1, arity=None):
        """rho(e_i)_lam_slot m_j as an Elem."""
        return _basis_value(self.action, self.module, i, j, slot, arity)


def _basis_value(table, module, i, j, slot=1, arity=None):
    """The value of ``table`` at the basis pair (i, j) as an Elem of
    ``module``, its lam1 read as lam_slot at ``arity`` (``slot`` when None):
    the one reader of a bracket or an action on basis elements."""
    if arity is None:
        arity = slot
    relabel = _relabeling((slot,), arity)
    return Elem(module, [relabel(poly) for poly in table.get(i, j)])


def adjoint_rep(lca):
    """The adjoint action table of an algebra on its own module."""
    return RepTable(lca, lca.module, lca.table)


def check_representation(rep):
    """The representation identity, with its least failing (i, j, k).

    The algebra must pass :func:`check_lca` first.  Its bracket is then
    skew with central torsion, so when the action involves no torsion
    generator either, the residual at (j, i, k) is minus the one at
    (i, j, k) with lam1 and lam2 exchanged, and only i <= j is evaluated.
    Otherwise every (i, j, k) is.  An action that satisfies the identity
    but is nonzero on an evaluation generator, which sesquilinearity
    forbids (see :func:`_torsion_failures`), fails at its least such pair.
    """
    report = Report("representation")
    base = check_lca(rep.algebra)
    if not base.passed:
        report.add_status("algebra", PRECONDITION, "underlying check_lca failed")
        return report
    report.add("algebra", True)

    l_mod, m_mod = rep.algebra.module, rep.module
    torsion = _torsion_failures(rep.action, l_mod, m_mod)
    residual = _representation(rep)
    pairs = _output_tuples(l_mod.rank, 2, not torsion)
    triples = [pair + (k,) for pair in pairs for k in range(m_mod.rank)]
    report.add_failures(
        "representation",
        failures_of((key, residual(*key)) for key in triples) or torsion,
    )
    return report


def _representation(rep):
    """The residual (i, j, k) -> rho([e_i lam e_j])_{lam+mu} m_k
    - rho(e_i)_lam rho(e_j)_mu m_k + rho(e_j)_mu rho(e_i)_lam m_k of the
    representation identity at arity 2, with lam = lam1 and mu = lam2.

    A term whose inner value is zero is the zero Elem at arity 2, without
    evaluating the outer action against it."""
    l_mod, m_mod = rep.algebra.module, rep.module
    lam12 = Poly.lam(1, 3) + Poly.lam(2, 3)
    zero = m_mod.zero(2)

    def residual(i, j, k):
        inner = rep.algebra.bracket_basis(i, j, slot=1, arity=3)
        lhs = zero
        if not inner.is_zero():
            lhs = rep.act(inner, m_mod.basis_elem(k), slot=3)
            lhs = lhs.substitute(3, lam12).shrink(2)
        inner = rep.act_basis(j, k, slot=2, arity=2)
        right1 = zero if inner.is_zero() else rep.act(l_mod.basis_elem(i), inner, slot=1)
        inner = rep.act_basis(i, k, slot=1, arity=2)
        right2 = zero if inner.is_zero() else rep.act(l_mod.basis_elem(j), inner, slot=2)
        return lhs - right1 + right2

    return residual


def semidirect(rep):
    """Semidirect product conformal algebra on L (+) M."""
    base = check_representation(rep)
    if not base.passed:
        raise PreconditionError("check_representation failed: %s" % base.lines())
    return sum_algebra(rep.algebra, rep)


def _tabulated(left, right, target, value):
    """The table of ``value(i, j)``, an Elem of ``target``, on the basis
    pairs (e_i of ``left``, e_j of ``right``): the one loop that fills a
    table from an evaluator."""
    out = StructureTable(left.rank, right.rank, target.rank)
    for i, j in product(range(left.rank), range(right.rank)):
        out.set(i, j, value(i, j).coords)
    return out


class _BasisPairs:
    """The one reader of stored values at images of basis elements: the
    ``values`` of a bracket or an action table, or of a cochain of degree
    n >= 2, on basis n-tuples of the argument ``modules``, with values in
    ``target``.  `at` reads T(a_1 e_i1, ..., a_n e_in) for maps a_k into
    the k-th module, and reads the stored value itself at a tuple with no
    maps.  Each image and each value is computed once, on first use.

    A module's elements are held once each, keyed by their coordinates: an
    image equal to its basis element, or to an image held before, is that
    element, so equal arguments share one value.  So an element is named by
    its index among the elements held for its module (the basis first), and
    a map by the slot that `operator` gives it.  Equal modules share their
    elements.  A map's source need not be any of the modules, since the
    image of e_i is read off its matrix.

    A holder lives as long as whoever built it: one check (the N2, l3 and
    f2 lines of ``homotopy`` each hold their cochain), the chi and rho of
    an extracted or a moved triple, both operator lines of
    ``extension._cocycle_report``, one map solve of
    ``extension._map_residuals`` or a deformation series
    (``deformation._order_residuals``).
    """

    def __init__(self, values, modules, target):
        self.stored, self.target = values, target
        self.modules = modules = tuple(modules)
        # equal modules share their held elements
        first = [modules.index(m) for m in modules]
        distinct = {k: modules[k] for k in first}
        basis = {k: [m.basis_elem(i) for i in range(m.rank)] for k, m in distinct.items()}
        keys = {k: {tuple(e.coords): i for i, e in enumerate(held)} for k, held in basis.items()}
        self.elements, self.keys = [basis[k] for k in first], [keys[k] for k in first]
        self.forms = [Poly.lam(s, len(first) - 1) for s in range(1, len(first))]
        self.operators, self.slots, self.images, self.evaluated = [], {}, {}, {}

    @classmethod
    def of_bracket(cls, lca):
        return cls(lca.table.entries, (lca.module, lca.module), lca.module)

    @classmethod
    def of_action(cls, rep):
        return cls(rep.action.entries, (rep.algebra.module, rep.module), rep.module)

    @classmethod
    def of_cochain(cls, f):
        return cls(f.values, (f.source.module,) * f.degree, f.target)

    def operator(self, mapping):
        """The slot of ``mapping``, an equal map's when one is held already,
        or None for None, the identity.  The map takes the basis of any
        module into one of the holder's modules: its image of e_i is its
        column i, so the map is found by its target and its matrix."""
        if mapping is None:
            return None
        if mapping.target not in self.modules:
            raise ModuleMismatchError("map into a module the holder does not hold")
        key = (self.modules.index(mapping.target), tuple(map(tuple, mapping.matrix)))
        if key not in self.slots:
            self.slots[key] = len(self.operators)
            self.operators.append((mapping, key[0]))
        return self.slots[key]

    def image(self, slot, i):
        """The key of operator ``slot``'s image of basis element i."""
        key = self.images.get((slot, i))
        if key is None:
            mapping, target = self.operators[slot]
            # the image of e_i is column i, held reduced (see ConfLinMap)
            image = _trusted_elem(mapping.target, [row[i] for row in mapping.matrix])
            elements = self.elements[target]
            key = self.keys[target].setdefault(tuple(image.coords), len(elements))
            if key == len(elements):
                elements.append(image)
            self.images[slot, i] = key
        return key

    def element(self, slot, i):
        """Operator ``slot``'s image of basis element i, as held."""
        return self.elements[self.operators[slot][1]][self.image(slot, i)]

    def at(self, *call):
        """T(a_1 e_i1, ..., a_n e_in), called as at(a_1, ..., a_n, i1, ...,
        in) for the operator slots a_k (None for the identity): the stored
        value on held elements, read off a basis tuple, else evaluated by
        `_evaluate` at lam1, ..., lam_{n-1}, the last lambda the dagger."""
        n, target = len(self.modules), self.target
        key = tuple(i if a is None else self.image(a, i) for a, i in zip(call, call[n:]))
        value = self.evaluated.get(key)
        if value is None:
            if all(k < module.rank for k, module in zip(key, self.modules)):
                value = Elem(target, list(self.stored.get(key) or target.zero(n - 1)))
            else:
                args = [held[k] for held, k in zip(self.elements, key)]
                value = _evaluate(self.stored, target, args, self.forms, n - 1)
            self.evaluated[key] = value
        return value

    def apply(self, slot, elem):
        """Operator ``slot`` applied to ``elem``."""
        return self.operators[slot][0].apply(elem)


def _flipped_action(rho):
    """The action of L on M read as M acting on L: the table of
    [m_j lam e_i] = -rho(e_i)_{-del-lam} m_j at (j, i), the mixed bracket of
    a sum algebra and of a 2-term structure.  ``sum_algebra``, the
    coboundary's action sum (see ``cohomology._Coboundary``) and the L5 and
    H4 lines of ``homotopy`` read it."""

    def flipped(j, i):
        return -dagger_substitute(rho.act_basis(i, j, slot=2, arity=2), 2)

    return _tabulated(rho.module, rho.algebra.module, rho.module, flipped)


def sum_algebra(l_alg, rho, m_table=None, chi=None):
    """The lambda-bracket table on L (+) M built from an action rho of L on M.

    [(p,m) lam (q,n)] = ([p lam q], chi_lam(p,q) + rho(p)_lam n
    - rho(q)_{-del-lam} m + [m lam n]); the bracket table ``m_table`` of M
    and the degree-2 cochain ``chi`` default to zero.  No axiom is checked.
    """
    rank_l, rank_m = l_alg.module.rank, rho.module.rank
    out = LCA(_sum_module(l_alg.module, rho.module))
    zero_l, zero_m = [Poly.zero(1)] * rank_l, [Poly.zero(1)] * rank_m
    flipped = _flipped_action(rho)
    for i in range(rank_l):
        for j in range(rank_l):
            m_part = zero_m if chi is None else chi.value((i, j)).coords
            out.set_bracket(i, j, list(l_alg.table.get(i, j)) + list(m_part))
        for j in range(rank_m):
            # [e_i lam m_j] = rho(e_i)_lam m_j
            out.set_bracket(i, rank_l + j, zero_l + list(rho.action.get(i, j)))
            # [m_j lam e_i], the flipped action
            out.set_bracket(rank_l + j, i, zero_l + flipped.get(j, i))
    if m_table is not None:
        for i in range(rank_m):
            for j in range(rank_m):
                out.set_bracket(rank_l + i, rank_l + j, zero_l + list(m_table.get(i, j)))
    return out


class ConfLinMap:
    """Q[del]-linear map given by a matrix of del-only polynomials.

    Each column, the image of a source generator, is reduced through
    ``target.reduce_coords`` as an `Elem` is: on an evaluation generator
    del acts by a scalar, so an entry in its row is held with del |-> that
    scalar.  Maps that act alike on every generator then have one matrix,
    which ``==``, `compose` and the inverses read.
    """

    def __init__(self, source, target, matrix):
        if len(matrix) != target.rank or any(
            len(row) != source.rank for row in matrix
        ):
            raise ModuleMismatchError("matrix shape does not match modules")
        self.source = source
        self.target = target
        # arity -> rows of (column, entry lifted to that arity), nonzero only
        self._lifted = {}
        self.matrix = [
            [
                entry if isinstance(entry, Poly) else Poly.const(entry, 0)
                for entry in row
            ]
            for row in matrix
        ]
        for row in self.matrix:
            for entry in row:
                if entry.arity != 0:
                    raise ModuleMismatchError("matrix entries must be del-only")
        if target._evaluation and source.rank:
            columns = [target.reduce_coords(column) for column in zip(*self.matrix)]
            self.matrix = [list(row) for row in zip(*columns)]

    @classmethod
    def identity(cls, module):
        return cls(
            module,
            module,
            [
                [Poly.const(int(i == j), 0) for j in range(module.rank)]
                for i in range(module.rank)
            ],
        )

    @classmethod
    def zero(cls, source, target=None):
        target = target or source
        return cls(
            source,
            target,
            [[Poly.zero(0)] * source.rank for _ in range(target.rank)],
        )

    @classmethod
    def scalar(cls, module, value):
        return cls.identity(module).scale(value)

    @classmethod
    def diagonal(cls, module, values):
        mat = [[Poly.zero(0)] * module.rank for _ in range(module.rank)]
        for i, v in enumerate(values):
            mat[i][i] = v if isinstance(v, Poly) else Poly.const(v, 0)
        return cls(module, module, mat)

    @property
    def is_endomorphism(self):
        return self.source == self.target

    def apply(self, elem):
        if elem.module != self.source:
            raise ModuleMismatchError("element not in the map's source")
        arity, coords = elem.arity, elem.coords
        rows = self._lifted.get(arity)
        if rows is None:
            rows = self._lifted[arity] = [
                [(k, entry.with_arity(arity)) for k, entry in enumerate(row) if entry]
                for row in self.matrix
            ]
        zero = Poly.zero(arity)
        return Elem(self.target, [
            sum((entry * coords[k] for k, entry in row if coords[k].terms), zero)
            for row in rows
        ])

    def compose(self, other):
        """self o other."""
        if other.target != self.source:
            raise ModuleMismatchError("composition modules do not match")
        columns = list(zip(*other.matrix)) or [()] * other.source.rank
        # a zero entry of either factor adds no product
        mat = [
            [Poly.sum_of_products(0, filter(all, zip(row, col))) for col in columns]
            for row in self.matrix
        ]
        return ConfLinMap(other.source, self.target, mat)

    def __add__(self, other):
        if self.source != other.source or self.target != other.target:
            raise ModuleMismatchError("map shapes differ")
        return ConfLinMap(
            self.source,
            self.target,
            [
                [a + b for a, b in zip(ra, rb)]
                for ra, rb in zip(self.matrix, other.matrix)
            ],
        )

    def __sub__(self, other):
        return self + other.scale(-1)

    def __neg__(self):
        return self.scale(-1)

    def scale(self, value):
        return ConfLinMap(
            self.source,
            self.target,
            [[entry.scale(value) for entry in row] for row in self.matrix],
        )

    def power(self, n):
        if not self.is_endomorphism:
            raise ModuleMismatchError("powers need an endomorphism")
        result = ConfLinMap.identity(self.source)
        for _ in range(n):
            result = self.compose(result)
        return result

    def direct_sum(self, other):
        src = _sum_module(self.source, other.source)
        tgt = _sum_module(self.target, other.target)
        n1, m1 = self.source.rank, self.target.rank
        n2, m2 = other.source.rank, other.target.rank
        mat = [[Poly.zero(0)] * (n1 + n2) for _ in range(m1 + m2)]
        for i in range(m1):
            for j in range(n1):
                mat[i][j] = self.matrix[i][j]
        for i in range(m2):
            for j in range(n2):
                mat[m1 + i][n1 + j] = other.matrix[i][j]
        return ConfLinMap(src, tgt, mat)

    def __eq__(self, other):
        return (
            isinstance(other, ConfLinMap)
            and self.source == other.source
            and self.target == other.target
            and self.matrix == other.matrix
        )

    def is_zero(self):
        return all(entry.is_zero() for row in self.matrix for entry in row)

    def __repr__(self):
        rows = "; ".join(
            ", ".join(format_poly(e) for e in row) for row in self.matrix
        )
        return "ConfLinMap[%s]" % rows


def _sum_module(a, b):
    return FreeModule(
        [n + "#L" for n in a.basis] + [n + "#M" for n in b.basis],
        list(a.actions) + list(b.actions),
    )


def check_morphism(src, dst, mapping):
    """mapping([a lam b]_src) = [mapping(a) lam mapping(b)]_dst on all pairs."""
    if mapping.source != src.module or mapping.target != dst.module:
        raise ModuleMismatchError("map endpoints do not match the algebras")
    held = _BasisPairs.of_bracket(dst)
    residual = _morphism(src.bracket_basis, held, mapping, mapping, mapping)
    report = Report("morphism")
    report.add_residuals("morphism", product(range(src.module.rank), repeat=2), residual)
    return report


def _morphism(source, held, out, left, right):
    """The residual (i, j) -> out(S_ij) - T(left e_i, right e_j) of maps
    that respect a bracket or an action: S_ij = ``source(i, j)``, a basis
    read of the source table or another holder's `_BasisPairs.at`, and T
    the table that ``held``, a `_BasisPairs`, reads, at the images of
    ``left`` and ``right`` (the identity when None).  A morphism of
    algebras is (src bracket; dst bracket; f, f, f), and the intertwining
    of an action with a bracket by d is (action; bracket; d, id, d)."""
    left, right = held.operator(left), held.operator(right)
    return lambda i, j: out.apply(source(i, j)) - held.at(left, right, i, j)
