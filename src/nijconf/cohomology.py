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

from .errors import DegreeOverflowError, ModuleMismatchError, PreconditionError
from .lca import Elem, RepTable, _expand_value, dagger_substitute
from .lca import sesqui_eval as act_form
from .nijenhuis import deformed_table
from .poly import Poly
from .report import Report, first_witness

MAX_DEGREE = 4


def adjoint_rep(lca):
    """The adjoint action table of an algebra on its own module."""
    return RepTable(lca, lca.module, lca.table)


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
    """
    n = f.degree
    if len(args) != n or len(forms) != n:
        raise ModuleMismatchError("expected %d arguments with forms" % n)
    if n == 0:
        return f.value(()).with_arity(arity)
    subbed = []
    for k in range(n):
        image = -forms[k]
        subbed.append(
            [c.with_arity(arity).substitute(0, image) for c in args[k].coords]
        )
    coords = [Poly.zero(arity)] * f.target.rank
    for key, value in f.values.items():
        factor = None
        for k, i in enumerate(key):
            c = subbed[k][i]
            if c.is_zero():
                break
            factor = c if factor is None else factor * c
        else:
            for t, vp in enumerate(_expand_value(value.coords, forms, arity)):
                if vp:
                    coords[t] = coords[t] + factor * vp
    return Elem(f.target, coords)


def _basis_args(module, key):
    return [module.basis_elem(i) for i in key]


def _forms(count, arity):
    return [Poly.lam(i + 1, arity) for i in range(count)]


def _skew_residuals(f):
    """Yield ((key, k), residual) of conformal skew-symmetry for f.

    For each basis tuple and adjacent transposition k the evaluation with
    swapped arguments and swapped lambda-roles must be the negative of the
    original; the last slot goes through the dagger substitution.
    """
    n = f.degree
    module = f.source.module
    forms = _forms(n, n)
    for key in product(range(module.rank), repeat=n):
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
    failures = [
        (key + (k,), repr(residual))
        for (key, k), residual in _skew_residuals(f)
        if not residual.is_zero()
    ]
    return Report("cochain-skew").add("skew", not failures, first_witness(failures))


def skew_symmetrize(f):
    """Project a cochain table onto its conformal skew-symmetric part."""
    n = f.degree
    if n <= 1:
        return f
    module = f.source.module
    out = Cochain(n, f.rep)
    forms = _forms(n, n)
    norm = Fraction(1)
    for k in range(2, n + 1):
        norm = norm / k
    for key in product(range(module.rank), repeat=n):
        args = _basis_args(module, key)
        acc = f.target.zero(n)
        for perm in permutations(range(n)):
            sign = _perm_sign(perm)
            term = eval_cochain(
                f, [args[p] for p in perm], [forms[p] for p in perm], n
            )
            acc = acc + term.scale(sign)
        out.set_value(key, dagger_substitute(acc.scale(norm), n))
    return out


def _perm_sign(perm):
    inversions = sum(
        1
        for a in range(len(perm))
        for b in range(a + 1, len(perm))
        if perm[a] > perm[b]
    )
    return -1 if inversions % 2 else 1


# ---------------------------------------------------------------------------
# the coboundary map and its twisted variants


def apply_delta(f, rep=None, twist=None, insert_table=None):
    """The conformal coboundary, optionally twisted.

    With no options this is the classical two-sum coboundary for the
    coefficient action ``f.rep``.  ``twist`` composes the acting element with
    an endomorphism (action terms become rho(N p_i)); ``insert_table``
    replaces the bracket inserted in the second sum (e.g. by a deformed
    bracket).  ``rep`` overrides the coefficient data entirely, which also
    changes the inserted bracket's default.
    """
    if f.degree + 1 > MAX_DEGREE:
        raise DegreeOverflowError("coboundary would exceed degree %d" % MAX_DEGREE)
    if rep is None:
        rep = f.rep
    if insert_table is None:
        insert_table = rep.algebra.table
    n = f.degree
    module = rep.algebra.module
    arity = n + 1
    forms = _forms(arity, arity)
    out = Cochain(n + 1, rep)
    # f on the arguments left after omitting slot i depends only on
    # (i, the remaining key), not on the omitted argument
    inners = {}
    for key in product(range(module.rank), repeat=n + 1):
        args = _basis_args(module, key)
        acc = rep.module.zero(arity)
        for i in range(n + 1):
            rest_key = (i,) + key[:i] + key[i + 1 :]
            inner = inners.get(rest_key)
            if inner is None:
                rest_args = args[:i] + args[i + 1 :]
                rest_forms = forms[:i] + forms[i + 1 :]
                inner = inners[rest_key] = eval_cochain(
                    f, rest_args, rest_forms, arity
                )
            actor = args[i] if twist is None else twist.apply(args[i])
            term = act_form(rep.action, rep.module, actor, inner, forms[i], arity)
            acc = acc + term if i % 2 == 0 else acc - term
        for i in range(n + 1):
            for j in range(i + 1, n + 1):
                inserted = act_form(
                    insert_table, module, args[i], args[j], forms[i], arity
                )
                rest_args = [args[k] for k in range(n + 1) if k not in (i, j)]
                rest_forms = [forms[k] for k in range(n + 1) if k not in (i, j)]
                term = eval_cochain(
                    f,
                    [inserted] + rest_args,
                    [forms[i] + forms[j]] + rest_forms,
                    arity,
                )
                acc = acc + term if (i + j) % 2 == 0 else acc - term
        out.set_value(key, dagger_substitute(acc, arity))
    return out


def apply_dNM(f, n_op, n_m, rep=None):
    """General-coefficient differential of a structure operator pair.

    Equals the twisted coboundary (action through N, deformed bracket
    inserted) minus N_M composed with the plain coboundary.  At degree 0 this
    specializes to d(m)(p) = rho(N p)_lam m - N_M(rho(p)_lam m).
    """
    if rep is None:
        rep = f.rep
    deformed = deformed_table(rep.algebra, n_op)
    twisted = apply_delta(f, rep=rep, twist=n_op, insert_table=deformed.table)
    plain = apply_delta(f, rep=rep)
    return twisted - plain.map_target(n_m)


def apply_dN(f, n_op):
    """Adjoint-coefficient differential of a structure operator."""
    _require_adjoint(f)
    return apply_dNM(f, n_op, n_op)


# ---------------------------------------------------------------------------
# graded brackets on adjoint cochains


def _require_adjoint(f):
    if f.target != f.source.module:
        raise PreconditionError("operation needs adjoint coefficients")


def _shuffle_sign(sel, rest):
    return _perm_sign(tuple(sel) + tuple(rest))


def circ_insert(J, K):
    """Insertion product: K evaluated on a shuffle block inside J's first slot."""
    _require_adjoint(J)
    _require_adjoint(K)
    m, n = J.degree, K.degree
    total = m + n - 1
    if total > MAX_DEGREE:
        raise DegreeOverflowError("insertion exceeds degree %d" % MAX_DEGREE)
    module = J.source.module
    arity = total
    forms = _forms(arity, arity)
    out = Cochain(total, J.rep)
    for key in product(range(module.rank), repeat=total):
        args = _basis_args(module, key)
        acc = J.target.zero(arity)
        for sel in combinations(range(total), n):
            rest = [k for k in range(total) if k not in sel]
            sign = _shuffle_sign(sel, rest)
            inner = eval_cochain(
                K, [args[s] for s in sel], [forms[s] for s in sel], arity
            )
            sum_form = Poly.zero(arity)
            for s in sel:
                sum_form = sum_form + forms[s]
            term = eval_cochain(
                J,
                [inner] + [args[r] for r in rest],
                [sum_form] + [forms[r] for r in rest],
                arity,
            )
            acc = acc + term.scale(sign)
        out.set_value(key, dagger_substitute(acc, arity))
    return out


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
    _require_adjoint(J)
    _require_adjoint(K)
    m, n = J.degree, K.degree
    total = m + n
    if total > MAX_DEGREE:
        raise DegreeOverflowError("cup product exceeds degree %d" % MAX_DEGREE)
    module = J.source.module
    table = J.source.table
    arity = total
    forms = _forms(arity, arity)
    out = Cochain(total, J.rep)
    for key in product(range(module.rank), repeat=total):
        args = _basis_args(module, key)
        acc = J.target.zero(arity)
        for sel in combinations(range(total), m):
            rest = [k for k in range(total) if k not in sel]
            sign = _shuffle_sign(sel, rest)
            left = eval_cochain(
                J, [args[s] for s in sel], [forms[s] for s in sel], arity
            )
            right = eval_cochain(
                K, [args[r] for r in rest], [forms[r] for r in rest], arity
            )
            sum_form = Poly.zero(arity)
            for s in sel:
                sum_form = sum_form + forms[s]
            term = act_form(table, module, left, right, sum_form, arity)
            acc = acc + term.scale(sign)
        out.set_value(key, dagger_substitute(acc, arity))
    return out


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
    module = f.source.module
    arity = n
    forms = _forms(n, n)
    out = Cochain(n, f.rep)
    powers = [n_m.power(k) for k in range(n + 1)]
    for key in product(range(module.rank), repeat=n):
        base = _basis_args(module, key)
        acc = f.target.zero(arity)
        for size in range(n + 1):
            for subset in combinations(range(n), size):
                args = [
                    base[k] if k in subset else n_op.apply(base[k])
                    for k in range(n)
                ]
                term = powers[size].apply(eval_cochain(f, args, forms, arity))
                acc = acc + term if size % 2 == 0 else acc - term
        out.set_value(key, dagger_substitute(acc, arity))
    return out


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
        ga = self.g if self.g is not None else None
        gb = other.g if other.g is not None else None
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
    _require_adjoint(f)
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
    """Exponent tuples (e_del, e_lam1, ..) of total degree <= bound."""
    out = []

    def rec(prefix, remaining):
        if len(prefix) == nvars + 1:
            out.append(tuple(prefix))
            return
        for e in range(remaining + 1):
            rec(prefix + [e], remaining - e)

    top = bound if include_del else 0
    for e0 in range(top + 1):
        rec([e0], bound - e0)
    # drop duplicates introduced when include_del is False and e0 capped
    return sorted(set(out))


def _elementary_cochain(rep, degree, key, coord, mono):
    out = Cochain(degree, rep)
    arity = max(degree - 1, 0)
    coords = [Poly.zero(arity)] * rep.module.rank
    coords[coord] = Poly(arity, {mono: Fraction(1)})
    out.set_value(key, Elem(rep.module, coords))
    return out


def _cochain_vector(f, index):
    """Flatten a cochain over a (growable) monomial index map."""
    entries = {}
    for key, value in f.values.items():
        for c, poly in enumerate(value.coords):
            for mono, coeff in poly.terms.items():
                slot = (key, c, mono)
                if slot not in index:
                    index[slot] = len(index)
                entries[index[slot]] = coeff
    return entries


def _to_dense(sparse_vectors, length):
    return [
        [vec.get(i, Fraction(0)) for i in range(length)] for vec in sparse_vectors
    ]


def cochain_space(rep, degree, bound):
    """Basis of conformally skew cochains with entries of total degree <= bound."""
    from .linalg import nullspace

    module = rep.algebra.module
    include_del = any(a == "free" for a in rep.module.actions)
    monos = _monomials(max(degree - 1, 0), bound, include_del)
    slots = []
    for key in product(range(module.rank), repeat=degree):
        for coord in range(rep.module.rank):
            for mono in monos:
                slots.append((key, coord, mono))
    elementary = [
        _elementary_cochain(rep, degree, key, coord, mono)
        for key, coord, mono in slots
    ]
    # drop slots killed by the coefficient module's del-evaluation
    kept = [e for e in elementary if not e.is_zero()]
    if degree <= 1:
        return kept
    index = {}
    residual_cols = []
    for cochain in kept:
        col = {}
        for (key, k), residual in _skew_residuals(cochain):
            for c, poly in enumerate(residual.coords):
                for mono, coeff in poly.terms.items():
                    slot = (k, key, c, mono)
                    if slot not in index:
                        index[slot] = len(index)
                    col[index[slot]] = coeff
        residual_cols.append(col)
    nrows = len(index)
    rows = [
        [residual_cols[j].get(i, Fraction(0)) for j in range(len(kept))]
        for i in range(nrows)
    ]
    combos = nullspace(rows, ncols=len(kept))
    basis = []
    for combo in combos:
        acc = Cochain.zero(degree, rep)
        for coeff, cochain in zip(combo, kept):
            if coeff:
                acc = acc + cochain.scale(coeff)
        basis.append(acc)
    return basis


def _structure_degree(rep):
    degree = 1
    for table in (rep.algebra.table, rep.action):
        for value in table.entries.values():
            for poly in value:
                degree = max(degree, poly.total_degree())
    return degree


def solve_truncated(rep, degree, bound, differential=None):
    """Exact kernel/image dimensions of a degree-truncated cochain slice.

    Enumerates skew cochains of the given degree with polynomial entries of
    total degree <= bound, solves differential = 0 for the cocycles, and
    intersects the differential image of the degree-(n-1) slice (enumerated
    at bound + structure degree) with the bounded slice for the coboundaries.
    """
    from .linalg import independent_subset, nullspace, rank as mat_rank

    if degree > 3:
        raise DegreeOverflowError("solver supports degree at most 3")
    if bound > 6:
        raise PreconditionError("truncation bound too large")
    if differential is None:
        differential = lambda f: apply_delta(f)  # noqa: E731
    basis = cochain_space(rep, degree, bound)
    index = {}
    image_cols = [_cochain_vector(differential(f), index) for f in basis]
    nrows = len(index)
    rows = [
        [image_cols[j].get(i, Fraction(0)) for j in range(len(basis))]
        for i in range(nrows)
    ]
    kernel_combos = nullspace(rows, ncols=len(basis))
    cocycles = []
    for combo in kernel_combos:
        acc = Cochain.zero(degree, rep)
        for coeff, f in zip(combo, basis):
            if coeff:
                acc = acc + f.scale(coeff)
        cocycles.append(acc)

    coboundaries = []
    if degree >= 1:
        lower_bound = bound + _structure_degree(rep)
        lower = cochain_space(rep, degree - 1, lower_bound)
        images = [differential(g) for g in lower]
        # keep only combinations staying inside the bounded slice
        vec_index = {}
        vecs = [_cochain_vector(h, vec_index) for h in images]
        high = [
            i
            for (key, c, mono), i in vec_index.items()
            if sum(mono) > bound
        ]
        if high:
            high_rows = [
                [vecs[j].get(i, Fraction(0)) for j in range(len(images))]
                for i in high
            ]
            inside = nullspace(high_rows, ncols=len(images))
        else:
            inside = [
                [Fraction(int(i == j)) for j in range(len(images))]
                for i in range(len(images))
            ]
        candidates = []
        for combo in inside:
            acc = Cochain.zero(degree, rep)
            for coeff, h in zip(combo, images):
                if coeff:
                    acc = acc + h.scale(coeff)
            if not acc.is_zero():
                candidates.append(acc)
        cand_index = {}
        cand_vecs = [_cochain_vector(h, cand_index) for h in candidates]
        dense = _to_dense(cand_vecs, len(cand_index))
        for i in independent_subset(dense):
            coboundaries.append(candidates[i])

    coc_index = {}
    coc_vecs = [_cochain_vector(f, coc_index) for f in cocycles + coboundaries]
    dense = _to_dense(coc_vecs, len(coc_index))
    dim_ker = mat_rank(dense[: len(cocycles)])
    dim_im = mat_rank(dense[len(cocycles) :])
    return {
        "cochain_dim": len(basis),
        "cocycle_dim": dim_ker,
        "coboundary_dim": dim_im,
        "h_dim": dim_ker - dim_im,
        "cocycle_basis": cocycles,
        "coboundary_basis": coboundaries,
    }


def image_contains(rep, bound, differential, target):
    """Whether ``target`` is a differential image within the bounded slice."""
    from .linalg import column_space_contains

    lower = cochain_space(rep, target.degree - 1, bound)
    images = [differential(g) for g in lower]
    index = {}
    vecs = [_cochain_vector(h, index) for h in images]
    tvec = _cochain_vector(target, index)
    length = len(index)
    columns = [
        [vec.get(i, Fraction(0)) for i in range(length)] for vec in vecs
    ]
    dense_target = [tvec.get(i, Fraction(0)) for i in range(length)]
    return column_space_contains(columns, dense_target)


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
