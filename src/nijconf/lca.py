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
any polynomial standing for the argument's lambda inside a cochain.  All
axioms (skew-symmetry, Jacobi, representation identity) are checked by
expanding these substitutions to literal polynomial identities.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product

from .errors import ModuleMismatchError, PreconditionError
from .grammar import format_poly
from .poly import Poly, _trusted, dagger

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
        return Elem(self, [Poly.zero(arity)] * self.rank)

    def basis_elem(self, index):
        coords = [Poly.zero(0)] * self.rank
        coords[index] = Poly.one(0)
        return Elem(self, coords)

    def elem(self, coords):
        return Elem(self, list(coords))

    def __eq__(self, other):
        return (
            isinstance(other, FreeModule)
            and self.basis == other.basis
            and self.actions == other.actions
        )

    def __repr__(self):
        tail = "" if all(a == FREE for a in self.actions) else (
            ", del=%s" % self.del_action
        )
        return "FreeModule(%s%s)" % (",".join(self.basis), tail)

    def reduce_coords(self, coords):
        """Apply the evaluation substitution del |-> a where applicable."""
        if all(a == FREE for a in self.actions):
            return list(coords)
        out = []
        for action, c in zip(self.actions, coords):
            if action == FREE:
                out.append(c)
            else:
                out.append(c.substitute(0, Poly.const(action, c.arity)))
        return out


class Elem:
    """Element of a FreeModule with coordinates in Q[del, lam...].

    Arity 0 elements are plain module elements; arity >= 1 elements are
    lambda-polynomial valued (outputs of brackets and cochains).
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
        return Elem(self.module, [c.with_arity(arity) for c in self.coords])

    def _coerce(self, other):
        if not isinstance(other, Elem) or other.module != self.module:
            raise ModuleMismatchError("cannot combine elements of %r and %r"
                                      % (self.module, getattr(other, "module", other)))
        arity = max(self.arity, other.arity)
        return self.with_arity(arity), other.with_arity(arity)

    def __add__(self, other):
        a, b = self._coerce(other)
        return Elem(a.module, [x + y for x, y in zip(a.coords, b.coords)])

    def __sub__(self, other):
        a, b = self._coerce(other)
        return Elem(a.module, [x - y for x, y in zip(a.coords, b.coords)])

    def __neg__(self):
        return Elem(self.module, [-c for c in self.coords])

    def scale(self, value):
        return Elem(self.module, [c.scale(value) for c in self.coords])

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
        return Elem(self.module, [c.with_arity(arity) for c in self.coords])

    def is_zero(self):
        return all(c.is_zero() for c in self.coords)

    def __eq__(self, other):
        if not isinstance(other, Elem) or other.module != self.module:
            return NotImplemented
        a, b = self._coerce(other)
        return a.coords == b.coords

    def __repr__(self):
        parts = []
        for name, coeff in zip(self.module.basis, self.coords):
            if not coeff.is_zero():
                parts.append("(%s)%s" % (format_poly(coeff), name))
        return " + ".join(parts) if parts else "0"


class StructureTable:
    """Sparse table (i, j) -> coordinate vector of arity-1 Polys."""

    def __init__(self, rank_a, rank_b, rank_out, entries=None):
        self.shape = (rank_a, rank_b, rank_out)
        self.entries = {}
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
        if any(v for v in value):
            self.entries[(i, j)] = value
        else:
            self.entries.pop((i, j), None)

    def get(self, i, j):
        rank_out = self.shape[2]
        return self.entries.get((i, j), [Poly.zero(1)] * rank_out)

    def __add__(self, other):
        if self.shape != other.shape:
            raise ModuleMismatchError("table shapes differ")
        out = StructureTable(*self.shape)
        for key in set(self.entries) | set(other.entries):
            out.set(key[0], key[1], [a + b for a, b in zip(self.get(*key), other.get(*key))])
        return out

    def __eq__(self, other):
        return (
            isinstance(other, StructureTable)
            and self.shape == other.shape
            and self.entries == other.entries
        )


def _expand_value(polys, forms, arity):
    """Map arity-k polynomials into the working arity: lam_j -> forms[j-1].

    del is left untouched (it acts on the output).
    """
    powers = {}
    out = []
    for poly in polys:
        acc = Poly.zero(arity)
        for key, coeff in poly.terms.items():
            term = _trusted(arity, {(key[0],) + (0,) * arity: coeff})
            for j, e in enumerate(key[1:]):
                if e:
                    power = powers.get((j, e))
                    if power is None:
                        power = powers[j, e] = forms[j] ** e
                    term = term * power
            acc = acc + term
        out.append(acc)
    return out


def sesqui_eval(table, target, a, b, form, arity):
    """Sesquilinear extension of a structure table at a lambda-form.

    ``a`` and ``b`` are Elems whose coordinates may already involve other
    lambda-variables; ``form`` (a polynomial at ``arity``) is the lambda
    attached to this evaluation: the first argument's coefficients get
    del |-> -form, the second argument's get del |-> del + form, and the
    table value's lam1 becomes ``form``.  Returns an Elem of ``target``.
    """
    a = a.with_arity(arity)
    b = b.with_arity(arity)
    minus = -form
    shift = Poly.del_(arity) + form
    result = [Poly.zero(arity)] * target.rank
    if a.is_zero():
        return Elem(target, result)
    shifted = [gb.substitute(0, shift) if gb else gb for gb in b.coords]
    for i, fa in enumerate(a.coords):
        if fa.is_zero():
            continue
        fa = fa.substitute(0, minus)
        for j, gb in enumerate(shifted):
            if gb.is_zero():
                continue
            value = table.get(i, j)
            if not any(value):
                continue
            factor = fa * gb
            for t, tpoly in enumerate(_expand_value(value, [form], arity)):
                if tpoly:
                    result[t] = result[t] + factor * tpoly
    return Elem(target, result)


class LCA:
    """A lambda-bracket structure table on a free module.

    Axioms are not enforced by storage -- use :func:`check_lca`.
    """

    def __init__(self, module, table=None):
        self.module = module
        if table is None:
            table = StructureTable(module.rank, module.rank, module.rank)
        if table.shape != (module.rank, module.rank, module.rank):
            raise ModuleMismatchError("bracket table shape mismatch")
        self.table = table

    def set_bracket(self, i, j, value):
        self.table.set(i, j, value)

    def bracket_basis(self, i, j, slot=1, arity=None):
        """[e_i lam_slot e_j] as an Elem."""
        if arity is None:
            arity = slot
        value = _expand_value(self.table.get(i, j), [Poly.lam(slot, arity)], arity)
        return Elem(self.module, value)

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
    was the top variable.
    """
    arity = max(elem.arity, slot)
    earlier = sum((Poly.lam(i, arity) for i in range(1, slot)), Poly.zero(arity))
    out = elem.with_arity(arity).substitute(slot, dagger(earlier))
    if slot == arity:
        out = out.shrink(arity - 1)
    return out


def check_lca(lca):
    """Skew-symmetry and Jacobi over all basis tuples, with first witness."""
    from .report import Report, first_witness

    basis = range(lca.module.rank)
    report = Report("lca")
    failures = _skew_failures(lca, product(basis, repeat=2))
    report.add("skew", not failures, first_witness(failures))
    failures = _jacobi_failures(lca, product(basis, repeat=3))
    report.add("jacobi", not failures, first_witness(failures))
    return report


def _skew_failures(lca, pairs):
    """(pair, residual) of conformal skew-symmetry on the given basis pairs."""
    failures = []
    for i, j in pairs:
        lhs = lca.bracket_basis(i, j, slot=1)
        flipped = lca.bracket_basis(j, i, slot=2, arity=2)
        residual = lhs + dagger_substitute(flipped, 2)
        if not residual.is_zero():
            failures.append(((i, j), repr(residual)))
    return failures


def _jacobi_failures(lca, triples):
    """(triple, residual) of the Jacobi identity on the given basis triples."""
    module = lca.module
    lam12 = Poly.lam(1, 3) + Poly.lam(2, 3)
    failures = []
    for i, j, k in triples:
        term1 = eval_bracket(
            lca, module.basis_elem(i), lca.bracket_basis(j, k, slot=2, arity=2), slot=1
        )
        term2 = eval_bracket(
            lca, module.basis_elem(j), lca.bracket_basis(i, k, slot=1, arity=2), slot=2
        )
        outer = eval_bracket(
            lca, lca.bracket_basis(i, j, slot=1, arity=3), module.basis_elem(k), slot=3
        )
        residual = term1 - term2 - outer.substitute(3, lam12).shrink(2)
        if not residual.is_zero():
            failures.append(((i, j, k), repr(residual)))
    return failures


class RepTable:
    """Conformal representation: action table rho(e_i)_lam m_j."""

    def __init__(self, algebra, module, action=None):
        self.algebra = algebra
        self.module = module
        if action is None:
            action = StructureTable(algebra.module.rank, module.rank, module.rank)
        if action.shape != (algebra.module.rank, module.rank, module.rank):
            raise ModuleMismatchError("action table shape mismatch")
        self.action = action

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
        if arity is None:
            arity = slot
        coords = _expand_value(self.action.get(i, j), [Poly.lam(slot, arity)], arity)
        return Elem(self.module, coords)


def check_representation(rep):
    """Def of a conformal representation on all basis tuples."""
    from .report import PRECONDITION, Report, first_witness

    report = Report("representation")
    base = check_lca(rep.algebra)
    if not base.passed:
        report.add_status("algebra", PRECONDITION, "underlying check_lca failed")
        return report
    report.add("algebra", True)

    failures = []
    rank_l = rep.algebra.module.rank
    rank_m = rep.module.rank
    for i in range(rank_l):
        ei = rep.algebra.module.basis_elem(i)
        for j in range(rank_l):
            ej = rep.algebra.module.basis_elem(j)
            for k in range(rank_m):
                mk = rep.module.basis_elem(k)
                # rho([e_i lam e_j])_{lam+mu} m_k
                inner_ij = rep.algebra.bracket_basis(i, j, slot=1, arity=3)
                lhs = sesqui_eval(
                    rep.action, rep.module, inner_ij, mk, Poly.lam(3, 3), 3
                )
                lam12 = Poly.lam(1, 3) + Poly.lam(2, 3)
                lhs = lhs.substitute(3, lam12).shrink(2)
                right1 = rep.act(ei, rep.act_basis(j, k, slot=2, arity=2), slot=1)
                right2 = rep.act(ej, rep.act_basis(i, k, slot=1, arity=2), slot=2)
                residual = lhs - right1 + right2
                if not residual.is_zero():
                    failures.append(((i, j, k), repr(residual)))
    report.add("representation", not failures, first_witness(failures))
    return report


def semidirect(rep):
    """Semidirect product conformal algebra on L (+) M."""
    base = check_representation(rep)
    if not base.passed:
        raise PreconditionError("check_representation failed: %s" % base.lines())
    rank_l = rep.algebra.module.rank
    rank_m = rep.module.rank
    total = _sum_module(rep.algebra.module, rep.module)
    out = LCA(total)
    for i in range(rank_l):
        for j in range(rank_l):
            value = rep.algebra.table.get(i, j)
            out.set_bracket(i, j, value + [Poly.zero(1)] * rank_m)
    zero_l = [Poly.zero(1)] * rank_l
    for i in range(rank_l):
        for j in range(rank_m):
            # [e_i lam m_j] = rho(e_i)_lam m_j
            value = rep.action.get(i, j)
            out.set_bracket(i, rank_l + j, zero_l + value)
            # [m_j lam e_i] = -rho(e_i)_{-del-lam} m_j
            flipped = rep.act_basis(i, j, slot=2, arity=2)
            flipped = dagger_substitute(flipped, 2)
            out.set_bracket(rank_l + j, i, zero_l + [-c for c in flipped.coords])
    return out


class ConfLinMap:
    """Q[del]-linear map given by a matrix of del-only polynomials."""

    def __init__(self, source, target, matrix):
        if len(matrix) != target.rank or any(
            len(row) != source.rank for row in matrix
        ):
            raise ModuleMismatchError("matrix shape does not match modules")
        self.source = source
        self.target = target
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
        arity = elem.arity
        coords = []
        for row in self.matrix:
            acc = Poly.zero(arity)
            for entry, c in zip(row, elem.coords):
                if entry and c:
                    acc = acc + entry.with_arity(arity) * c
            coords.append(acc)
        return Elem(self.target, coords)

    def compose(self, other):
        """self o other."""
        if other.target != self.source:
            raise ModuleMismatchError("composition modules do not match")
        rows = len(self.matrix)
        cols = len(other.matrix[0]) if other.matrix else 0
        inner = len(other.matrix)
        mat = []
        for i in range(rows):
            row = []
            for j in range(cols):
                acc = Poly.zero(0)
                for k in range(inner):
                    acc = acc + self.matrix[i][k] * other.matrix[k][j]
                row.append(acc)
            mat.append(row)
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
    from .report import Report, first_witness

    if mapping.source != src.module or mapping.target != dst.module:
        raise ModuleMismatchError("map endpoints do not match the algebras")
    failures = []
    rank = src.module.rank
    for i in range(rank):
        for j in range(rank):
            lhs = mapping.apply(src.bracket_basis(i, j))
            rhs = eval_bracket(
                dst,
                mapping.apply(src.module.basis_elem(i)),
                mapping.apply(src.module.basis_elem(j)),
                slot=1,
            )
            residual = lhs - rhs
            if not residual.is_zero():
                failures.append(((i, j), repr(residual)))
    report = Report("morphism")
    report.add("morphism", not failures, first_witness(failures))
    return report
