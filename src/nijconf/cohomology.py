"""Conformal cochains and the differentials living on them.

A degree-n cochain stores, for every ordered basis n-tuple of the source
algebra, a coefficient-module element whose coordinates are polynomials in
(del, lam1, ..., lam_{n-1}); the n-th lambda is implicit (it equals
-del - lam1 - ... - lam_{n-1} with del acting on the value).

Every operator here is built from one evaluation primitive: a cochain applied
to arguments that each carry an explicit "lambda-form" (an arbitrary
polynomial standing for that argument's lambda).  Sesquilinearity is then
uniform -- the coefficient of argument k is substituted del |-> -form_k, the
stored value's lam_j is substituted by form_j, and del stays outermost.
Working values keep a free temporary lambda for the last argument which is
eliminated at the very end by the dagger substitution.

Shuffle and sign conventions in the insertion product, the cup product and
the two graded brackets are pinned by oracle identities exercised in the
test-suite (bracket-of-structure vs. coboundary; the explicit degree-1
formula; the xi intertwining law).
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, permutations, product
from math import factorial

from .errors import DegreeOverflowError, ModuleMismatchError, PreconditionError
from .lca import (
    FREE,
    Elem,
    RepTable,
    _Lifted,
    _expand_value,
    _output_tuples,
    _sorted_tuples_suffice,
    dagger_substitute,
)
from .lca import sesqui_eval as act_form
from .nijenhuis import deformed_table
from .poly import Poly
from .report import Report, failures_of, first_witness

MAX_DEGREE = 4
# limits of the truncated solver: the cochain degree and the degree bound
MAX_SOLVER_DEGREE = 3
MAX_SOLVER_BOUND = 6


def adjoint_rep(lca):
    """The adjoint action table of an algebra on its own module."""
    return RepTable(lca, lca.module, lca.table)


def _require_adjoint(rep):
    if rep.module != rep.algebra.module:
        raise PreconditionError("operation needs adjoint coefficients")


class Cochain:
    """A conformal n-cochain given by its table on ordered basis tuples.

    ``rep`` supplies both the source algebra and the coefficient action used
    by the coboundary map.  Values are stored sparsely; skew-symmetry is a
    checked property (see :func:`check_cochain_skew`), not a storage
    invariant.
    """

    def __init__(self, degree, rep, values=None):
        if not 0 <= degree <= MAX_DEGREE:
            raise DegreeOverflowError("cochain degree %d out of range" % degree)
        self.degree = degree
        self.rep = rep
        self.source = rep.algebra
        self.target = rep.module
        self.values = {}
        if values:
            for key, value in values.items():
                self.set_value(key, value)

    @property
    def value_arity(self):
        return max(self.degree - 1, 0)

    @classmethod
    def zero(cls, degree, rep):
        return cls(degree, rep)

    @classmethod
    def from_map(cls, mapping, rep):
        """Wrap a Q[del]-linear map L -> M as a degree-1 cochain."""
        if mapping.source != rep.algebra.module or mapping.target != rep.module:
            raise ModuleMismatchError("map endpoints do not match the cochain data")
        out = cls(1, rep)
        for i in range(rep.algebra.module.rank):
            out.set_value((i,), mapping.apply(rep.algebra.module.basis_elem(i)))
        return out

    def to_map(self):
        """Degree-1 cochains are exactly Q[del]-linear maps."""
        from .lca import ConfLinMap

        if self.degree != 1:
            raise DegreeOverflowError("only degree-1 cochains are linear maps")
        rank = self.source.module.rank
        matrix = [
            [self.value((c,)).coords[r] for c in range(rank)]
            for r in range(self.target.rank)
        ]
        return ConfLinMap(self.source.module, self.target, matrix)

    def value(self, key):
        key = tuple(key)
        if key in self.values:
            return self.values[key]
        return self.target.zero(self.value_arity)

    def set_value(self, key, value):
        key = tuple(key)
        if len(key) != self.degree:
            raise ModuleMismatchError(
                "key %r does not index a degree-%d cochain" % (key, self.degree)
            )
        if not isinstance(value, Elem):
            value = Elem(self.target, list(value))
        value = value.with_arity(self.value_arity)
        if value.is_zero():
            self.values.pop(key, None)
        else:
            self.values[key] = value

    def _coerce(self, other):
        if (
            not isinstance(other, Cochain)
            or other.degree != self.degree
            or other.target != self.target
        ):
            raise ModuleMismatchError("cochains are not comparable")
        return other

    def __add__(self, other):
        other = self._coerce(other)
        out = Cochain(self.degree, self.rep)
        for key in set(self.values) | set(other.values):
            out.set_value(key, self.value(key) + other.value(key))
        return out

    def __sub__(self, other):
        return self + other.scale(-1)

    def __neg__(self):
        return self.scale(-1)

    def scale(self, factor):
        out = Cochain(self.degree, self.rep)
        for key, value in self.values.items():
            out.set_value(key, value.scale(factor))
        return out

    def map_target(self, mapping):
        """Post-compose every value with a Q[del]-linear endomap of M."""
        out = Cochain(self.degree, self.rep)
        for key, value in self.values.items():
            out.set_value(key, mapping.apply(value))
        return out

    def is_zero(self):
        return not self.values

    def __eq__(self, other):
        if not isinstance(other, Cochain):
            return NotImplemented
        return (
            self.degree == other.degree
            and self.target == other.target
            and self.values == other.values
        )

    def __repr__(self):
        return "Cochain(degree=%d, %d nonzero entries)" % (
            self.degree,
            len(self.values),
        )


def bracket_cochain(lca):
    """The algebra's own bracket as a degree-2 adjoint cochain."""
    rep = adjoint_rep(lca)
    out = Cochain(2, rep)
    rank = lca.module.rank
    for i in range(rank):
        for j in range(rank):
            out.set_value((i, j), lca.bracket_basis(i, j))
    return out


def eval_cochain(f, args, forms, arity):
    """Evaluate ``f`` on arguments carrying explicit lambda-forms.

    ``args`` are Elems (coordinates at most at ``arity``), ``forms`` the
    polynomials playing the role of each argument's lambda.  The last
    argument's form is whatever the caller supplies -- typically a free
    temporary variable eliminated later by `dagger_substitute`.

    Only the support of the arguments is touched: the stored values are
    looked up on the product of the arguments' nonzero coordinates (one
    lookup for basis arguments), and del |-> -form is substituted once in
    each coordinate that meets a stored value.  A zero argument, or no
    stored value on that product, gives the zero Elem.
    """
    n = f.degree
    if len(args) != n or len(forms) != n:
        raise ModuleMismatchError("expected %d arguments with forms" % n)
    if n == 0:
        return f.value(()).with_arity(arity)
    values = f.values
    supports = [[i for i, c in enumerate(arg.coords) if c.terms] for arg in args]
    matched = [(key, values[key]) for key in product(*supports) if key in values]
    if not matched:
        return f.target.zero(arity)
    lifted = [_Lifted(arg.coords, arity, -form) for arg, form in zip(args, forms)]
    coords = [Poly.zero(arity)] * f.target.rank
    for key, value in matched:
        factor = lifted[0][key[0]]
        for k in range(1, n):
            factor = factor * lifted[k][key[k]]
        for t, vp in enumerate(_expand_value(value.coords, forms, arity)):
            if vp:
                coords[t] = coords[t] + factor * vp
    return Elem(f.target, coords)


def _basis_args(module, key):
    return [module.basis_elem(i) for i in key]


def _forms(count, arity):
    return [Poly.lam(i + 1, arity) for i in range(count)]


def _skew_residuals(f, keys=None):
    """Yield ((key, k), residual) of conformal skew-symmetry for f.

    For each basis tuple (every one, or those in ``keys``) and adjacent
    transposition k the evaluation with swapped arguments and swapped
    lambda-roles must be the negative of the original; the last slot goes
    through the dagger substitution.
    """
    n = f.degree
    module = f.source.module
    forms = _forms(n, n)
    if keys is None:
        keys = product(range(module.rank), repeat=n)
    for key in keys:
        args = _basis_args(module, key)
        base = f.value(key).with_arity(n)
        for k in range(n - 1):
            s_args = list(args)
            s_args[k], s_args[k + 1] = s_args[k + 1], s_args[k]
            s_forms = list(forms)
            s_forms[k], s_forms[k + 1] = s_forms[k + 1], s_forms[k]
            swapped = eval_cochain(f, s_args, s_forms, n)
            yield (key, k), dagger_substitute(base + swapped, n)


def check_cochain_skew(f):
    """Conformal skew-symmetry of the stored table (see `_skew_residuals`)."""
    pairs = ((key + (k,), residual) for (key, k), residual in _skew_residuals(f))
    report = Report("cochain-skew")
    report.add_failures("skew", failures_of(pairs))
    return report


def _tabulate(rep, degree, value):
    """The degree-``degree`` cochain over ``rep`` whose value on each basis
    tuple is ``value(args, forms)`` after the dagger rule.

    ``args`` are the tuple's basis elements and ``forms`` the lambdas
    lam1..lam_degree, at working arity ``degree``; the one loop over basis
    tuples of every table builder.  A degree-0 value has no lambda to
    eliminate and is set as it is.
    """
    module = rep.algebra.module
    forms = _forms(degree, degree)
    out = Cochain(degree, rep)
    for key in product(range(module.rank), repeat=degree):
        acc = value(_basis_args(module, key), forms)
        out.set_value(key, dagger_substitute(acc, degree) if degree else acc)
    return out


def skew_symmetrize(f):
    """Project a cochain table onto its conformal skew-symmetric part."""
    n = f.degree
    if n <= 1:
        return f
    norm = Fraction(1, factorial(n))

    def value(args, forms):
        acc = f.target.zero(n)
        for perm in permutations(range(n)):
            term = eval_cochain(
                f, [args[p] for p in perm], [forms[p] for p in perm], n
            )
            acc = acc + term.scale(_perm_sign(perm))
        return acc.scale(norm)

    return _tabulate(f.rep, n, value)


def _perm_sign(perm):
    inversions = sum(a > b for a, b in combinations(perm, 2))
    return -1 if inversions % 2 else 1


def _shuffles(forms, size):
    """Yield (sign, block, rest, block form) of every shuffle that moves a
    ``size``-block of the slots of ``forms`` to the front: the block's and
    the rest's slots in order, the sign of that permutation and the sum of
    the block's lambda-forms."""
    total = len(forms)
    for block in combinations(range(total), size):
        rest = tuple(k for k in range(total) if k not in block)
        block_form = Poly.zero(total)
        for s in block:
            block_form = block_form + forms[s]
        yield _perm_sign(block + rest), block, rest, block_form


# ---------------------------------------------------------------------------
# the coboundary map and its twisted variants


class _Coboundary:
    """The conformal coboundary of one slice, planned once for its cochains.

    Everything about an output tuple that does not depend on the cochain is
    built here, once: its basis arguments and lambda-forms, the actors of
    the first sum and the brackets [x_i lam x_j] inserted in the second sum.
    With a structure operator ``n_op`` this is the twisted coboundary: the
    actors are N x_i and the inserted bracket is the deformed one.  ``keys``
    are the output tuples (every basis tuple by default).  ``readers`` maps
    each input tuple to the outputs that read it: the first sum reads the
    output tuple with slot i removed, the second sum each coordinate of an
    inserted bracket followed by the remaining slots.  A cochain is then
    mapped by evaluating only the outputs its support reaches; the others
    are zero.
    """

    def __init__(self, rep, degree, n_op=None, keys=None):
        if degree + 1 > MAX_DEGREE:
            raise DegreeOverflowError("coboundary would exceed degree %d" % MAX_DEGREE)
        module = rep.algebra.module
        arity = degree + 1
        forms = _forms(arity, arity)
        basis = _basis_args(module, range(module.rank))
        if n_op is None:
            insert_table, actors = rep.algebra.table, basis
        else:
            insert_table = deformed_table(rep.algebra, n_op).table
            actors = [n_op.apply(x) for x in basis]
        brackets = {}
        self.rep, self.degree, self.arity, self.forms = rep, degree, arity, forms
        self.outputs = []
        self.readers = {}
        if keys is None:
            keys = product(range(module.rank), repeat=arity)
        for index, key in enumerate(keys):
            args = [basis[k] for k in key]
            first = []
            reads = set()
            for i in range(arity):
                rest = key[:i] + key[i + 1 :]
                rest_args = args[:i] + args[i + 1 :]
                rest_forms = forms[:i] + forms[i + 1 :]
                first.append((i, actors[key[i]], rest, rest_args, rest_forms))
                reads.add(rest)
            second = []
            for i, j in combinations(range(arity), 2):
                slot = (key[i], key[j], i)
                inserted = brackets.get(slot)
                if inserted is None:
                    inserted = brackets[slot] = act_form(
                        insert_table, module, args[i], args[j], forms[i], arity
                    )
                rest = [k for k in range(arity) if k not in (i, j)]
                second.append(
                    (
                        i + j,
                        [inserted] + [args[k] for k in rest],
                        [forms[i] + forms[j]] + [forms[k] for k in rest],
                    )
                )
                rest_key = tuple(key[k] for k in rest)
                reads.update(
                    (c,) + rest_key for c, coord in enumerate(inserted.coords) if coord
                )
            self.outputs.append((key, first, second))
            for source in reads:
                self.readers.setdefault(source, []).append(index)

    def __call__(self, f):
        """The coboundary of ``f``, evaluated on the outputs it reaches."""
        rep, arity, forms = self.rep, self.arity, self.forms
        values = f.values
        reached = {o for key in values for o in self.readers.get(key, ())}
        out = Cochain(self.degree + 1, rep)
        # f on the arguments left after omitting slot i depends only on
        # (i, the remaining key), not on the omitted argument
        inners = {}
        for o in sorted(reached):
            key, first, second = self.outputs[o]
            acc = rep.module.zero(arity)
            for i, actor, rest, rest_args, rest_forms in first:
                if rest not in values:
                    continue
                inner = inners.get((i, rest))
                if inner is None:
                    inner = inners[i, rest] = eval_cochain(
                        f, rest_args, rest_forms, arity
                    )
                term = act_form(rep.action, rep.module, actor, inner, forms[i], arity)
                acc = acc + term if i % 2 == 0 else acc - term
            for sign, args, arg_forms in second:
                term = eval_cochain(f, args, arg_forms, arity)
                acc = acc + term if sign % 2 == 0 else acc - term
            out.set_value(key, dagger_substitute(acc, arity))
        return out


def _differential(rep, degree, n_op=None, n_m=None, keys=None):
    """The differential of degree-``degree`` cochains over ``rep``, planned
    once: delta when ``n_op`` is None, else d_{N,M}, the twisted coboundary
    minus N_M composed with the plain one (``n_m`` defaults to ``n_op``,
    which gives d_N)."""
    plain = _Coboundary(rep, degree, keys=keys)
    if n_op is None:
        return plain
    twisted = _Coboundary(rep, degree, n_op, keys)
    n_m = n_op if n_m is None else n_m
    return lambda f: twisted(f) - plain(f).map_target(n_m)


def apply_delta(f, rep=None):
    """The conformal coboundary for the coefficient action ``f.rep``, or for
    ``rep``, which also supplies the inserted bracket.  Only the outputs that
    read the support of ``f`` are evaluated (see `_Coboundary`).
    """
    return _Coboundary(f.rep if rep is None else rep, f.degree)(f)


def apply_dNM(f, n_op, n_m, rep=None):
    """General-coefficient differential of a structure operator pair.

    Equals the twisted coboundary (action through N, deformed bracket
    inserted) minus N_M composed with the plain coboundary, for ``f.rep`` or
    ``rep``.  At degree 0 this specializes to
    d(m)(p) = rho(N p)_lam m - N_M(rho(p)_lam m).
    """
    return _differential(f.rep if rep is None else rep, f.degree, n_op, n_m)(f)


def apply_dN(f, n_op):
    """Adjoint-coefficient differential of a structure operator."""
    _require_adjoint(f.rep)
    return _differential(f.rep, f.degree, n_op)(f)


# ---------------------------------------------------------------------------
# graded brackets on adjoint cochains


def circ_insert(J, K):
    """Insertion product: K evaluated on a shuffle block inside J's first slot."""
    _require_adjoint(J.rep)
    _require_adjoint(K.rep)
    m, n = J.degree, K.degree
    total = m + n - 1
    if total > MAX_DEGREE:
        raise DegreeOverflowError("insertion exceeds degree %d" % MAX_DEGREE)

    def value(args, forms):
        acc = J.target.zero(total)
        for sign, block, rest, block_form in _shuffles(forms, n):
            inner = eval_cochain(
                K, [args[s] for s in block], [forms[s] for s in block], total
            )
            term = eval_cochain(
                J,
                [inner] + [args[r] for r in rest],
                [block_form] + [forms[r] for r in rest],
                total,
            )
            acc = acc + term.scale(sign)
        return acc

    return _tabulate(J.rep, total, value)


def nr_bracket(J, K):
    """Degree -1 graded Lie bracket of insertion type.

    [J, K] = J(.)K - (-1)^{(m-1)(n-1)} K(.)J; the structure cochain of a
    bracket pairs with any f to give (-1)^{n-1} times its coboundary, which
    is the identity pinning this convention.
    """
    m, n = J.degree, K.degree
    second = circ_insert(K, J)
    sign = -1 if ((m - 1) * (n - 1)) % 2 == 0 else 1
    return circ_insert(J, K) + second.scale(sign)


def cup_product(J, K):
    """Shuffle-summed bracket of values: sum [J(block1) lam K(block2)]."""
    _require_adjoint(J.rep)
    _require_adjoint(K.rep)
    m, n = J.degree, K.degree
    total = m + n
    if total > MAX_DEGREE:
        raise DegreeOverflowError("cup product exceeds degree %d" % MAX_DEGREE)
    module, table = J.source.module, J.source.table

    def value(args, forms):
        acc = J.target.zero(total)
        for sign, block, rest, block_form in _shuffles(forms, m):
            left = eval_cochain(
                J, [args[s] for s in block], [forms[s] for s in block], total
            )
            right = eval_cochain(
                K, [args[r] for r in rest], [forms[r] for r in rest], total
            )
            term = act_form(table, module, left, right, block_form, total)
            acc = acc + term.scale(sign)
        return acc

    return _tabulate(J.rep, total, value)


def fn_bracket(J, K):
    """The degree-0 graded bracket combining cup and insertion terms.

    [J, K] = J cup K + (-1)^m K(.)delta J - (-1)^{(m+1)n} J(.)delta K, with
    the coboundaries inserted into the other factor's first slot.  The signs
    and insertion direction are pinned by two oracles: the explicit degree-1
    expansion and agreement of [N, -] with the operator differential.
    """
    m, n = J.degree, K.degree
    dJ = apply_delta(J)
    dK = apply_delta(K)
    term1 = cup_product(J, K)
    term2 = circ_insert(K, dJ).scale((-1) ** m)
    term3 = circ_insert(J, dK).scale(-((-1) ** (((m + 1) * n) % 2)))
    return term1 + term2 + term3


def fn_bracket_of_maps(lca, a, b):
    """FN bracket of two endomorphisms, as degree-1 adjoint cochains."""
    rep = adjoint_rep(lca)
    return fn_bracket(Cochain.from_map(a, rep), Cochain.from_map(b, rep))


# ---------------------------------------------------------------------------
# the combined complex


def xi_map(f, n_op, n_m):
    """Subset-alternating comparison map between the two complexes.

    xi(f)(p_1..p_n) = sum over subsets S of arguments of (-1)^{|S|}
    N_M^{|S|} applied to f evaluated with N on the arguments outside S.
    Pinned by the intertwining law d_{N,M} o xi = xi o delta.
    """
    n = f.degree
    if n == 0:
        return f
    powers = [n_m.power(k) for k in range(n + 1)]

    def value(base, forms):
        moved = [n_op.apply(x) for x in base]
        acc = f.target.zero(n)
        for size in range(n + 1):
            for subset in combinations(range(n), size):
                args = [base[k] if k in subset else moved[k] for k in range(n)]
                term = powers[size].apply(eval_cochain(f, args, forms, n))
                acc = acc + term if size % 2 == 0 else acc - term
        return acc

    return _tabulate(f.rep, n, value)


class CochainPair:
    """Element (f, g) of the combined complex; g is absent in low degree."""

    def __init__(self, f, g=None):
        if g is not None:
            if g.degree != f.degree - 1:
                raise ModuleMismatchError("second component must have degree n-1")
            if g.target != f.target:
                raise ModuleMismatchError("components have different coefficients")
        self.f = f
        self.g = g

    def is_zero(self):
        return self.f.is_zero() and (self.g is None or self.g.is_zero())

    def __eq__(self, other):
        if not isinstance(other, CochainPair):
            return NotImplemented
        ga, gb = self.g, other.g
        if (ga is None) != (gb is None):
            return (ga is None or ga.is_zero()) and (gb is None or gb.is_zero())
        return self.f == other.f and (ga is None or ga == gb)


def apply_dNL(pair, n_op, n_m, rep=None):
    """Differential of the combined complex.

    d(f) = (delta f, -xi f) when there is no second component, and
    d(f, g) = (delta f, (-1)^n xi(f) + d_{N,M}(g)) in general.
    """
    f, g = pair.f, pair.g
    df = apply_delta(f, rep=rep)
    xf = xi_map(f, n_op, n_m)
    if g is None:
        return CochainPair(df, xf.scale(-1))
    second = xf.scale((-1) ** f.degree) + apply_dNM(g, n_op, n_m, rep=rep)
    return CochainPair(df, second)


def phi_chain_check(f, n_op):
    """Sign-twisted coboundary intertwines the two differentials.

    Phi(f) = (-1)^{n+1} delta(f) satisfies delta_N(Phi f) = Phi(d_N f), where
    delta_N is the adjoint coboundary of the deformed algebra.
    """
    _require_adjoint(f.rep)
    if f.degree > 2:
        raise DegreeOverflowError("chain check needs degree at most 2")
    n = f.degree
    phi_f = apply_delta(f).scale((-1) ** (n + 1))
    deformed_rep = adjoint_rep(deformed_table(f.source, n_op))
    lhs = apply_delta(phi_f, rep=deformed_rep)
    rhs = apply_delta(apply_dN(f, n_op)).scale((-1) ** (n + 2))
    diff = lhs - rhs
    return Report("phi-chain").add("intertwine", diff.is_zero(), _cochain_witness(diff))


def _cochain_witness(res):
    """The least nonzero entry of a residual cochain, or None when it is zero."""
    if res.is_zero():
        return None
    key = min(res.values)
    return first_witness([(key, repr(res.values[key]))])


# ---------------------------------------------------------------------------
# degree-truncated linear solver


def _monomials(nvars, bound, include_del):
    """Exponent tuples (e_del, e_lam1, ..) of total degree <= bound, in
    lexicographic order; e_del is 0 unless ``include_del``."""
    exponents = range(bound + 1)
    del_exponents = exponents if include_del else range(1)
    return [
        mono
        for mono in product(del_exponents, *[exponents] * nvars)
        if sum(mono) <= bound
    ]


def _elementary_cochain(rep, degree, key, coord, mono):
    out = Cochain(degree, rep)
    arity = max(degree - 1, 0)
    coords = [Poly.zero(arity)] * rep.module.rank
    coords[coord] = Poly(arity, {mono: Fraction(1)})
    out.set_value(key, Elem(rep.module, coords))
    return out


def _cochain_vector(f):
    """The cochain as a sparse vector over (basis tuple, coordinate, monomial)."""
    return {
        (key, c, mono): coeff
        for key, value in f.values.items()
        for c, poly in enumerate(value.coords)
        for mono, coeff in poly.terms.items()
    }


def _combine(coeffs, cochains):
    """The rational combination sum(coeff * f) of cochains of one shape."""
    values = {}
    for coeff, f in zip(coeffs, cochains):
        if coeff:
            for key, value in f.values.items():
                term = value.scale(coeff)
                values[key] = values[key] + term if key in values else term
    return Cochain(cochains[0].degree, cochains[0].rep, values)


def cochain_space(rep, degree, bound):
    """Basis of conformally skew cochains with entries of total degree <= bound.

    del-powers are enumerated only on free coordinates: on an evaluation
    coordinate del is a scalar, so they would repeat (or kill) a monomial.
    The basis is the kernel of the skew residuals of the elementary cochains
    (one monomial on one coordinate at one basis tuple).  An elementary
    cochain's residuals vanish off the permutation orbit of its tuple, so
    only that orbit is evaluated.
    """
    from .linalg import nullspace

    module = rep.algebra.module
    nvars = max(degree - 1, 0)
    free_monos = _monomials(nvars, bound, True)
    fixed_monos = _monomials(nvars, bound, False)
    keys = list(product(range(module.rank), repeat=degree))
    cells = [
        (key, coord, mono)
        for key in keys
        for coord, action in enumerate(rep.module.actions)
        for mono in (free_monos if action == FREE else fixed_monos)
    ]
    elementary = [_elementary_cochain(rep, degree, *cell) for cell in cells]
    if degree <= 1:
        return elementary
    orbits = {key: sorted(set(permutations(key))) for key in keys}
    residual_cols = [
        {
            (k, res_key, c, mono): coeff
            for (res_key, k), residual in _skew_residuals(f, orbits[key])
            for c, poly in enumerate(residual.coords)
            for mono, coeff in poly.terms.items()
        }
        for (key, _, _), f in zip(cells, elementary)
    ]
    return [_combine(combo, elementary) for combo in nullspace(residual_cols)]


def _max_degree(*vectors):
    """The largest total degree of a polynomial in ``vectors``, and at least 1.

    Each vector is a sequence of polynomials: a table value, the coordinates
    of a cochain value or a row of a map.
    """
    return max([1] + [poly.total_degree() for vector in vectors for poly in vector])


def _slice(rep, degree, bound, operator=None, keys=None):
    """A bounded cochain slice: its basis, and the differential images of
    the basis cochains as sparse vectors on the output tuples ``keys``.

    The one builder of solver slices.  The basis is
    ``cochain_space(rep, degree, bound)``, and every basis cochain is mapped
    through one plan of the differential (see `_differential`): delta, or
    d_N of ``operator`` on adjoint coefficients.  The plan touches only the
    support of each cochain.
    """
    if operator is not None:
        _require_adjoint(rep)
    basis = cochain_space(rep, degree, bound)
    differential = _differential(rep, degree, operator, keys=keys)
    return basis, [_cochain_vector(differential(f)) for f in basis]


def solve_truncated(rep, degree, bound, operator=None):
    """Exact kernel/image dimensions of a degree-truncated cochain slice.

    The differential is delta, or d_N of the structure operator ``operator``
    (adjoint coefficients only).  Two truncations are taken.  The cochains
    are the skew ones of the given degree with polynomial entries of total
    degree <= ``bound``, and the cocycles solve differential = 0 among them.
    The coboundaries are the differential images V of the degree-(n-1)
    slice, truncated at ``bound +`` the structure degree, that stay inside
    the bounded slice: their dimension rank V - rank V_high equals that of
    V(ker V_high), where V_high is V restricted to the monomials of degree
    > bound.

    The differential is evaluated on non-decreasing output tuples only.
    This is exact when ``rep.algebra``'s bracket is conformally skew and its
    torsion central, and ``operator`` does not mix torsion (the action may
    be anything): the differential then maps skew cochains to skew
    cochains, and a skew cochain's value on any other permutation of a
    tuple is an invertible, degree-preserving substitution of its value on
    the sorted one.  So a skew cochain vanishes, or has degree <= bound,
    exactly when its values on sorted tuples do, and every kernel and rank
    is unchanged.  Otherwise every tuple is evaluated.
    """
    from .linalg import nullspace, rank

    if degree > MAX_SOLVER_DEGREE:
        raise DegreeOverflowError(
            "solver supports degree at most %d" % MAX_SOLVER_DEGREE
        )
    if bound > MAX_SOLVER_BOUND:
        raise PreconditionError("truncation bound too large")
    rank_l = rep.algebra.module.rank
    sorted_only = _sorted_tuples_suffice(rep.algebra, n=operator)
    keys = _output_tuples(rank_l, degree + 1, sorted_only)
    basis, images = _slice(rep, degree, bound, operator, keys)
    kernel = nullspace(images)
    cocycles = [_combine(combo, basis) for combo in kernel]

    dim_im = 0
    if degree >= 1:
        values = (*rep.algebra.table.entries.values(), *rep.action.entries.values())
        keys = _output_tuples(rank_l, degree, sorted_only)
        _, vecs = _slice(
            rep, degree - 1, bound + _max_degree(*values), operator, keys
        )
        high = {slot for vec in vecs for slot in vec if sum(slot[2]) > bound}
        dim_im = rank(vecs) - rank(vecs, keys=high)
    return {
        "cochain_dim": len(basis),
        "cocycle_dim": len(kernel),
        "coboundary_dim": dim_im,
        "h_dim": len(kernel) - dim_im,
        "cocycle_basis": cocycles,
    }


def image_contains(rep, bound, target, operator=None):
    """Whether ``target`` is an image of delta, or of d_N of ``operator``,
    within the bounded slice.

    Unlike `solve_truncated`'s coboundaries, the preimages are truncated at
    ``bound`` itself: the degree-(n-1) cochains with entries of total degree
    <= ``bound``, their images evaluated on every output tuple.
    """
    from .linalg import solve

    if bound > MAX_SOLVER_BOUND:
        raise PreconditionError("truncation bound too large")
    _, vecs = _slice(rep, target.degree - 1, bound, operator)
    return solve(vecs, _cochain_vector(target)) is not None


def random_cochain(rep, degree, rng, max_degree=2, density=2):
    """A seeded random skew cochain for property tests."""
    module = rep.algebra.module
    monos = _monomials(max(degree - 1, 0), max_degree, True)
    raw = Cochain(degree, rep)
    arity = max(degree - 1, 0)
    for key in product(range(module.rank), repeat=degree):
        coords = []
        for _ in range(rep.module.rank):
            terms = {}
            for _ in range(density):
                mono = monos[rng.randrange(len(monos))]
                terms[mono] = terms.get(mono, 0) + Fraction(rng.randint(-3, 3))
            coords.append(Poly(arity, terms))
        raw.set_value(key, Elem(rep.module, coords))
    return skew_symmetrize(raw)
