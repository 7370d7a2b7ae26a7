"""Conformal cochains and the differentials living on them.

A degree-n cochain stores, for every ordered basis n-tuple of the source
algebra, a coefficient-module element whose coordinates are polynomials in
(del, lam1, ..., lam_{n-1}); the n-th lambda is implicit (it equals
-del - lam1 - ... - lam_{n-1} with del acting on the value).

Every operator here rests on one evaluation rule: a cochain applied to
arguments that each carry an explicit "lambda-form" (an arbitrary
polynomial standing for that argument's lambda).  Sesquilinearity is then
uniform -- the coefficient of argument k is substituted del |-> -form_k, the
stored value's lam_j is substituted by form_j, and del stays outermost.
`eval_cochain` is that rule through the evaluation core of `lca`, which
evaluates structure tables too (a table is a 2-cochain); no operator here
calls it.  The skew-symmetry of a stored cochain is read by
`lca._skew_residual` (`check_cochain_skew`).  `cochain_space` keeps its own
`_swap_residual`, the same residual of one monomial under a transposition
of equal entries, because it reads the block substitutions that the
representation holds, where `_skew_residual` expands every cell afresh:
reading `_skew_residual` per cell takes `cochain_space(vir adjoint, 3, 6)`
from about 6 to 10 ms (Intel Xeon, Python 3.11).  Its basis is pinned to
the kernel of the `_skew_residual` residuals on every tuple
(`tests/test_cohomology.py`).  The linear maps of a cochain are
planned once: the coboundary (`_Coboundary`), xi (`_Xi`), the
insertion product with one factor fixed (`_Insertion`) and the skew
projection (`_Skew`) each build, per output tuple, a list of terms, and one
loop (`_Plan.__call__`) maps every cochain through them.  A term takes one
coordinate of one input value under a substitution of its degree
(`_substitutions`), times a held polynomial that does not depend on the
cochain mapped, into one output coordinate.  The coboundary is two
insertions (`_inserted`): f into the first slot of the flipped action
(`lca._flipped_action`), and the bracket cochain into f; the twisted
coboundary of an operator N is the plain plan over the deformed algebra
acting through N (`_pulled_back`).  A representation holds the
first two plans, and the fixed factor the third, each through one lookup
(`_held`) that builds a plan again when the table stamps or operator maps
it was built from change.  The cup
product is an insertion too: J inserted into K's left bracket
(`_left_bracket`), whose values are one `act_form` per stored value and
generator.
The public operators -- delta, d_N, d_{N,M} (so d_NL), xi and the NR
bracket -- evaluate one tuple per permutation orbit when the image of their
input is skew (`_mapped`): the algebra has rank >= 2, the tables and the
operators keep skew cochains skew (`_sorted_outputs`, the precondition the
solver's sorted slices share; the NR bracket asks for a module without
torsion), and the input passes an exact skew test (`_is_skew`).  The plans
then map onto the non-decreasing tuples only, and `_Orbit` fills every
other tuple from its sorted one by the block of its sorting permutation.
Any other input is mapped on every tuple, and those plans are built only
when such an input arrives; both paths give the same cochain.
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
from math import comb, factorial

from .errors import (
    DegreeOverflowError,
    ModuleMismatchError,
    PreconditionError,
    UnsupportedModeError,
)
from .lca import (
    FREE,
    ConfLinMap,
    Elem,
    RepTable,
    adjoint_rep,
    _BasisPairs,
    _evaluate,
    _flipped_action,
    _output_tuples,
    _relabeling,
    _skew_residual,
    _sorted_tuples_suffice,
    _tabulated,
    _torsion_failures,
    _torsion_mixing,
)
from .lca import sesqui_eval as act_form
from .nijenhuis import deformed_table
from .poly import Poly, Substitution, dagger
from .report import Report, failures_of

MAX_DEGREE = 4
# limits of the truncated solver: the cochain degree, the degree bound and
# the cells of one slice (see `_slice_cells`)
MAX_SOLVER_DEGREE = 3
MAX_SOLVER_BOUND = 6
MAX_SLICE_CELLS = 4096


def _require_adjoint(rep):
    if rep.module != rep.algebra.module:
        raise PreconditionError("operation needs adjoint coefficients")


class Cochain:
    """A conformal n-cochain given by its table on ordered basis tuples.

    ``rep`` supplies both the source algebra and the coefficient action used
    by the coboundary map.  Values are stored sparsely; skew-symmetry is a
    checked property (see :func:`check_cochain_skew`), not a storage
    invariant.  A cochain holds the plans of its insertion products in
    ``_plans`` (see `_held`), and the answer of its skew test in
    ``_skew`` (see `_is_skew`); `set_value`, the one writer of ``values``,
    drops them.  A multiple of a skew cochain, and a sum of two, hold that
    they are skew.
    """

    # None until a plan or an answer is held, so a cochain stores nothing
    _plans = _skew = None

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
        """Store ``value`` at the basis tuple ``key``, dropping a zero value.

        The one writer of ``values``: the insertion plans that the cochain
        holds were read off its values, so they are dropped.  A key outside
        the source basis, which no differential would read, and a value in
        another module are refused.
        """
        key = tuple(key)
        if len(key) != self.degree:
            raise ModuleMismatchError(
                "key %r does not index a degree-%d cochain" % (key, self.degree)
            )
        if key and not (0 <= min(key) and max(key) < self.source.module.rank):
            raise ModuleMismatchError("key %r is outside the source basis" % (key,))
        if not isinstance(value, Elem):
            value = Elem(self.target, list(value))
        elif value.module is not self.target and value.module != self.target:
            raise ModuleMismatchError("value is not in the coefficient module")
        value = value.with_arity(self.value_arity)
        if self._plans is not None or self._skew is not None:
            self._plans = self._skew = None
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
        if self._skew and other._skew:
            out._skew = True
        return out

    def __sub__(self, other):
        return self + other.scale(-1)

    def __neg__(self):
        return self.scale(-1)

    def scale(self, factor):
        out = Cochain(self.degree, self.rep)
        for key, value in self.values.items():
            out.set_value(key, value.scale(factor))
        if self._skew:
            out._skew = True
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
    """The algebra's own bracket as a degree-2 adjoint cochain: its table,
    reduced on evaluation generators by `Cochain.set_value` as `act_form`
    reduces it, which is the left bracket (`_left_bracket`) of the identity
    1-cochain."""
    return Cochain(2, adjoint_rep(lca), lca.table.entries)


def _left_bracket(K):
    """The degree-(n+1) cochain (x_0, x_1..x_n) |-> [x_0 lam_0 K(x_1..x_n)]
    of an adjoint n-cochain K, over ``K.rep``.

    Its value at (a,) + key is `act_form` of e_a and K's value at key, with
    K's lam_j relabelled lam_{j+1} and x_0's form lam_1, which is the
    implicit -del at n = 0: one sesquilinear evaluation per stored value and
    generator.
    """
    n, algebra = K.degree, K.rep.algebra
    basis = _basis_args(algebra.module, range(algebra.module.rank))
    form = Poly.lam(1, n) if n else -Poly.del_(0)
    relabel = _relabeling(range(2, n + 1), n) if n else None
    out = Cochain(n + 1, K.rep)
    for key, value in K.values.items():
        if relabel:
            value = Elem(value.module, [relabel(poly) for poly in value.coords])
        for a, x in enumerate(basis):
            image = act_form(algebra.table, algebra.module, x, value, form, n)
            out.set_value((a,) + key, image)
    return out


def eval_cochain(f, args, forms, arity):
    """Evaluate ``f`` on arguments carrying explicit lambda-forms.

    ``args`` are Elems (coordinates at most at ``arity``), ``forms`` the
    polynomials playing the role of each argument's lambda.  The last
    argument's form is whatever the caller supplies -- typically a free
    temporary variable eliminated later by `dagger_substitute`.

    This is one call of the evaluation core `lca._evaluate`, which it shares
    with every table: only the support of the arguments is touched, and a
    zero argument, or no stored value on the product of their nonzero
    coordinates, gives the zero Elem.
    """
    n = f.degree
    if len(args) != n or len(forms) != n:
        raise ModuleMismatchError("expected %d arguments with forms" % n)
    if n == 0:
        return f.value(()).with_arity(arity)
    return _evaluate(f.values, f.target, args, forms, arity)


def _value_images(forms):
    """The images of a stored value's variables when the arguments carry
    ``forms``: lam_j |-> forms[j-1], the last form staying implicit, and del
    kept outermost."""
    return dict(enumerate(forms[:-1], 1))


def _basis_args(module, key):
    return [module.basis_elem(i) for i in key]


def _forms(count, arity):
    return [Poly.lam(i + 1, arity) for i in range(count)]


def check_cochain_skew(f):
    """Conformal skew-symmetry of the stored table: on every basis tuple and
    adjacent transposition k, the residual of `lca._skew_residual`, witnessed
    at the tuple followed by k."""
    n = f.degree
    residuals = (
        (key + (k,), _skew_residual(f.values, f.target, key, k))
        for key in product(range(f.source.module.rank), repeat=n)
        for k in range(n - 1)
    )
    report = Report("cochain-skew")
    report.add_failures("skew", failures_of(residuals))
    return report


def skew_symmetrize(f):
    """Project a cochain table onto its conformal skew-symmetric part
    (`_Skew`), which holds that it is skew (see `_is_skew`)."""
    if f.degree <= 1:
        return f
    out = _Skew(f.rep, f.degree)(f, f.rep)
    out._skew = True
    return out


def _perm_sign(perm):
    inversions = sum(a > b for a, b in combinations(perm, 2))
    return -1 if inversions % 2 else 1


def _shuffles(total, size):
    """Yield (sign, block, rest) of every shuffle that moves a ``size``-block
    of ``total`` slots to the front: the block's and the rest's slots in
    order, and the sign of that permutation."""
    for block in combinations(range(total), size):
        rest = tuple(k for k in range(total) if k not in block)
        yield _perm_sign(block + rest), block, rest


# ---------------------------------------------------------------------------
# the coboundary map and its twisted variants


def _substitutions(degree):
    """(dagger, block) at working arity degree + 1, each substitution into a
    stored value then daggered.

    ``block(inside, slots)``, built when first asked for and kept, reads a
    value at a shuffle block of slots: inside, with the block inserted in
    its first slot (lam_1 |-> the sum of their forms, then the other forms,
    del kept); else evaluated on the block (their forms, and del |-> -(the
    sum of their forms)), to be inserted itself.  The coboundary's two
    insertions (`_inserted`) read both sides: f evaluated on the blocks that
    omit one slot i, inserted into the flipped action (under the dagger,
    the sum of the other forms is -del - form_i), and each pair i < j
    inside f, the bracket inserted there evaluated on the pair.  Evaluated
    on a permutation of every slot, a block keeps del: it moves a value
    along the permutation (`_Skew`, `_Orbit`).
    """
    arity = degree + 1
    forms = _forms(arity, arity)
    earlier = sum(_forms(degree, degree), Poly.zero(degree))
    final = Substitution(degree, {arity: dagger(earlier)})
    held = {}

    def then_dagger(images):
        return Substitution(degree, {v: final(p) for v, p in images.items()})

    def block(inside, slots):
        substitution = held.get((inside, slots))
        if substitution is None:
            summed = sum((forms[s] for s in slots), Poly.zero(arity))
            if inside:
                images = _value_images(
                    [summed] + [forms[k] for k in range(arity) if k not in slots]
                )
            else:
                images = _value_images([forms[s] for s in slots])
                images[0] = -summed
            substitution = held[inside, slots] = then_dagger(images)
        return substitution

    return final, block


def _held(owner, key, build, *sources):
    """What ``owner._plans`` holds under ``key``, built by ``build()`` when
    it is missing or was built from other ``sources``: the table stamps and
    operator maps that it reads, compared by ``==``.

    The one reader and writer of ``_plans``, which a representation binds
    in ``RepTable.__init__`` and a cochain gets here, and which
    `Cochain.set_value` drops.  An entry is the pair (sources, what was
    built), so a plan carries no stamp or operator of its own.
    """
    if owner._plans is None:
        owner._plans = {}
    held = owner._plans.get(key)
    if held is None or held[0] != sources:
        held = owner._plans[key] = sources, build()
    return held[1]


def _stamps(rep):
    """The stamps of the bracket and action tables of ``rep``."""
    return rep.algebra.table.stamp, rep.action.stamp


def _shared_substitutions(rep, degree):
    """The `_substitutions` of ``degree`` that ``rep`` holds for its plans
    and its cochains' insertion plans; they depend on nothing else, so they
    are built once."""
    return _held(rep, degree, lambda: _substitutions(degree))


class _Plan:
    """A linear map of cochains, planned once over its output tuples.

    Every kind describes an output tuple as a list of terms ``(negative,
    slot, source, [(s, t, factor)])``: coordinate s of the mapped cochain's
    value at the input tuple ``source``, substituted by
    ``self.substitutions[slot]``, times the held ``factor``, goes into
    output coordinate t, with a minus sign when ``negative``.  The
    coboundary `_Coboundary`, the comparison map `_Xi`, the insertion
    `_Insertion`, the skew projection `_Skew` and the orbit fill `_Orbit`
    are the five kinds; each only builds its terms (see `_index`), and
    `__call__` is the one mapping loop.  ``degree`` is the output degree.
    A representation holds its plans, and a cochain its insertion plans,
    through `_held`; a plan holds neither, nor what it was built from, so
    dropping the owner frees its plans at once.
    """

    def _index(self, keys, terms_of):
        """Hold the terms ``terms_of(key)`` of each output tuple of
        ``keys``, and ``readers``, which maps each input tuple to the
        indices of the outputs that read it."""
        self.outputs, self.terms, self.readers = keys, [], {}
        for index, key in enumerate(keys):
            terms = terms_of(key)
            self.terms.append(terms)
            for source in {source for _, _, source, _ in terms}:
                self.readers.setdefault(source, []).append(index)

    def __call__(self, f, rep, out=None):
        """The image of ``f``, as a cochain over ``rep``, evaluated on the
        outputs that f's support reaches; the others are zero.  It is
        written into ``out`` when given, whose values on the outputs no term
        may read (see `_filled`).

        Each value of f that a term reads is substituted once per slot, and
        each output coordinate is one `Poly.sum_of_products` of the held
        factors and those images.
        """
        values = f.values
        out = Cochain(self.degree, rep) if out is None else out
        arity, rank = out.value_arity, rep.module.rank
        # f's value at an input tuple, substituted for a slot
        inners = {}
        for o in sorted({o for key in values for o in self.readers.get(key, ())}):
            # the pairs of sign +1 and of sign -1, per output coordinate
            pairs = [[[] for _ in range(rank)] for _ in range(2)]
            for negative, slot, source, coefficients in self.terms[o]:
                value = values.get(source)
                if value is None:
                    continue
                inner = inners.get((slot, source))
                if inner is None:
                    substitution = self.substitutions[slot]
                    inner = inners[slot, source] = [
                        substitution(poly) if poly.terms else None
                        for poly in value.coords
                    ]
                into = pairs[negative]
                for s, t, factor in coefficients:
                    if inner[s] is not None:
                        into[t].append((factor, inner[s]))
            coords = [
                Poly.sum_of_products(arity, plus, minus) for plus, minus in zip(*pairs)
            ]
            out.set_value(self.outputs[o], Elem(rep.module, coords))
        return out


class _Skew(_Plan):
    """The projection onto conformally skew cochains of a degree n >= 2,
    built per call and held by nobody.  On an output tuple ``key`` it has,
    per permutation p of the slots, the terms (see `_Plan`) of sign(p): f's
    value at ``key[p[0]], .., key[p[n-1]]`` under the block of p that
    ``rep`` holds for degree n - 1, times 1/n!, on every coordinate."""

    def __init__(self, rep, degree):
        block = _shared_substitutions(rep, degree - 1)[1]
        perms = [(_perm_sign(p) < 0, p) for p in permutations(range(degree))]
        norm = Poly.const(Fraction(1, factorial(degree)), degree - 1)
        coefficients = [(t, t, norm) for t in range(rep.module.rank)]
        self.degree = degree
        self.substitutions = {p: block(False, p) for _, p in perms}

        def terms(key):
            return [
                (negative, p, tuple(key[k] for k in p), coefficients)
                for negative, p in perms
            ]

        self._index(_output_tuples(rep.algebra.module.rank, degree, False), terms)


class _Orbit(_Plan):
    """The orbit fill of a degree n >= 2: from a cochain's values on the
    non-decreasing tuples, the values on every other tuple of the skew
    cochain that agrees with it there.  A representation holds one per
    degree (see `_filled`).

    A skew cochain's value on a tuple u is sign(p) times its value at the
    sorted tuple u[p[0]], .., u[p[n-1]] under the block of p (as in
    `_Skew`), for the stable sorting permutation p of u; that is u's one
    term (see `_Plan`), on every coordinate.
    """

    def __init__(self, rep, degree):
        block = _shared_substitutions(rep, degree - 1)[1]
        coefficients = [(t, t, Poly.one(degree - 1)) for t in range(rep.module.rank)]
        self.degree = degree
        self.substitutions = {p: block(False, p) for p in permutations(range(degree))}

        def terms(key):
            p = tuple(sorted(range(degree), key=key.__getitem__))
            return [(_perm_sign(p) < 0, p, tuple(key[k] for k in p), coefficients)]

        keys = _output_tuples(rep.algebra.module.rank, degree, False)
        self._index([key for key in keys if list(key) != sorted(key)], terms)


class _Coboundary(_Plan):
    """The conformal coboundary of one degree, planned once for its cochains.

    ``keys`` are the output tuples (every basis tuple by default).  Its
    terms (see `_Plan`) are those of two insertions (`_inserted`):

    * the action sum: f inserted into the first slot of the flipped action
      [m lam x] = -rho(x)_{-del-lam} m (`lca._flipped_action`), J outside.
      The shuffle that moves slot i last has sign (-1)^(n - i), the flip
      gives -rho(x_i) at slot i's lambda, and the coboundary's term is
      (-1)^i: so each term's sign is flipped at even degree n;
    * the bracket sum: the algebra's bracket cochain inserted inside f,
      each term's sign flipped, since the shuffle of the slots i < j has
      sign (-1)^(i + j - 1) and the coboundary's term (-1)^(i + j).

    Both are read off their tables, daggered, while the plan is built.  The
    twisted coboundary of an operator is this plan over a pulled-back action
    (see `_differential`).  The representation holds the plan until its
    tables change and passes itself to each call; ``substitutions`` are the
    degree's `_substitutions`, shared by its plans of that degree.
    """

    def __init__(self, rep, degree, substitutions, keys=None):
        if degree + 1 > MAX_DEGREE:
            raise DegreeOverflowError("coboundary would exceed degree %d" % MAX_DEGREE)
        block, rank = substitutions[1], rep.module.rank
        flipped = _flipped_action(rep).entries
        acting, actions = _inserted(flipped, 2, False, degree, block, rank)
        inserted, brackets = _inserted(
            bracket_cochain(rep.algebra).values, 2, True, degree, block, rank
        )
        self.degree = degree + 1
        self.substitutions = acting | inserted

        def terms(key):
            return [
                (negative != flip, *term)
                for flip, side in ((degree % 2 == 0, actions), (True, brackets))
                for negative, *term in side(key)
            ]

        if keys is None:
            keys = _output_tuples(rep.algebra.module.rank, self.degree, False)
        self._index(keys, terms)


def _pulled_back(rep, mapping, algebra):
    """The action of ``algebra`` on ``rep.module`` pulled back through
    ``mapping``, a map from ``algebra``'s module to ``rep.algebra``'s: its
    (i, j) entry is rep's action of mapping(e_i) on m_j."""
    held = _BasisPairs.of_action(rep)
    slot = held.operator(mapping)
    table = _tabulated(
        algebra.module, rep.module, rep.module, lambda i, j: held.at(slot, None, i, j)
    )
    return RepTable(algebra, rep.module, table)


def _differential(rep, degree, n_op=None, n_m=None, sorted_only=False):
    """The differential of degree-``degree`` cochains over ``rep``: delta
    when ``n_op`` is None, else d_{N,M}, the twisted coboundary minus N_M
    composed with the plain one (``n_m`` defaults to ``n_op``, which gives
    d_N), on the non-decreasing output tuples when ``sorted_only``.

    The twisted coboundary is the plain plan over the deformed algebra
    acting through N (`_pulled_back`): N x acts, and the deformed bracket
    [.,.]_N is inserted.  ``rep`` holds one plan per (degree, twisted,
    sorted_only) (`_held`), built from the bracket and action tables'
    stamps and the operator, and built again when one of them is another.
    Under ``degree`` it holds the `_substitutions` its plans of that degree
    share (see `_shared_substitutions`).
    """

    def plan(operator):
        def build():
            keys = _output_tuples(rep.algebra.module.rank, degree + 1, sorted_only)
            over = rep
            if operator is not None:
                over = _pulled_back(rep, operator, deformed_table(rep.algebra, operator))
            return _Coboundary(over, degree, _shared_substitutions(rep, degree), keys)

        slot = (degree, operator is not None, sorted_only)
        return _held(rep, slot, build, *_stamps(rep), operator)

    plain = plan(None)
    if n_op is None:
        return lambda f: plain(f, rep)
    twisted = plan(n_op)
    n_m = n_op if n_m is None else n_m
    return lambda f: twisted(f, rep) - plain(f, rep).map_target(n_m)


def _sorted_outputs(rep, n_op=None, n_m=None):
    """Whether the images of skew cochains over ``rep`` are skew, so that
    they may be evaluated on the non-decreasing output tuples only: the one
    precondition of the solver's sorted slices and of orbit evaluation
    (`_mapped`).

    The bracket must be conformally skew with inert torsion, and ``n_op``
    mix no torsion (`lca._sorted_tuples_suffice`); the action must act on
    no torsion generator (`lca._torsion_failures`), and ``n_m`` mix no
    torsion either.  An action on a torsion generator, which sesquilinearity
    forbids, makes delta of a skew cochain fail the skew check.
    ``rep`` holds the verdict on the tables, built from their stamps
    (`_held`); the operators are read on each call.
    """

    def build():
        return _sorted_tuples_suffice(rep.algebra) and not _torsion_failures(
            rep.action, rep.algebra.module, rep.module
        )

    return _held(rep, "sorted", build, *_stamps(rep)) and not any(
        _torsion_mixing(m) for m in (n_op, n_m) if m is not None
    )


def _is_skew(f):
    """Whether ``f`` passes `check_cochain_skew`, as every cochain below
    degree 2 does; ``f._skew`` holds the answer until `Cochain.set_value`."""
    if f._skew is None:
        f._skew = f.degree < 2 or check_cochain_skew(f).passed
    return f._skew


def _filled(rep, image, sorted_only):
    """``image``, a fresh cochain, filled on the tuples that are not
    non-decreasing through the `_Orbit` plan that ``rep`` holds for the
    degree (`_held`) when ``sorted_only`` (below degree 2 every tuple is
    sorted); it is then skew by construction, and holds that answer
    (`_is_skew`)."""
    n = image.degree
    if sorted_only and n > 1:
        _held(rep, ("orbit", n), lambda: _Orbit(rep, n))(image, rep, out=image)
        image._skew = True
    return image


def _mapped(plan, rep, f, n_op=None, n_m=None):
    """The image of ``f`` under ``plan(rep, f.degree, n_op, n_m,
    sorted_only)``, `_differential` or `_comparison`, evaluated one tuple
    per permutation orbit when it can be.

    That is when the algebra has rank >= 2, `_sorted_outputs` holds for the
    operators, and ``f`` is skew (`_is_skew`): then the image is skew, and
    it is mapped on the non-decreasing output tuples and filled
    (`_filled`).  Any other ``f`` is mapped on every tuple, whose plans are
    built only then.
    """
    sorted_only = (
        rep.algebra.module.rank > 1 and _sorted_outputs(rep, n_op, n_m) and _is_skew(f)
    )
    return _filled(rep, plan(rep, f.degree, n_op, n_m, sorted_only)(f), sorted_only)


def apply_delta(f, rep=None):
    """The conformal coboundary for the coefficient action ``f.rep``, or for
    ``rep``, which also supplies the inserted bracket.  Only the outputs that
    read the support of ``f`` are evaluated (see `_Coboundary`), one per
    permutation orbit when they can be (`_mapped`); the representation holds
    the plan until its tables change.
    """
    return _mapped(_differential, f.rep if rep is None else rep, f)


def apply_dNM(f, n_op, n_m, rep=None):
    """General-coefficient differential of a structure operator pair.

    Equals the twisted coboundary (action through N, deformed bracket
    inserted) minus N_M composed with the plain coboundary, for ``f.rep`` or
    ``rep``, which holds both plans until its tables change or another
    operator is given (`_held`); evaluated as `apply_delta` is.  At degree 0
    this specializes to d(m)(p) = rho(N p)_lam m - N_M(rho(p)_lam m).
    """
    return _mapped(_differential, f.rep if rep is None else rep, f, n_op, n_m)


def apply_dN(f, n_op):
    """Adjoint-coefficient differential of a structure operator."""
    _require_adjoint(f.rep)
    return _mapped(_differential, f.rep, f, n_op)


# ---------------------------------------------------------------------------
# graded brackets on adjoint cochains


def _require_factors(J, K):
    """The bilinear products take adjoint cochains over one module."""
    _require_adjoint(J.rep)
    _require_adjoint(K.rep)
    if J.source.module != K.source.module:
        raise ModuleMismatchError("cochains are over different modules")


def _inserted(values, order, inside, degree, block, rank):
    """The substitutions and the terms (see `_Plan`) of the insertion of a
    fixed cochain J of degree ``order``, whose values are ``values``, into
    the cochains K of ``degree``, J outside or ``inside``; ``rank`` is the
    coordinate count of K's values.

    On an output tuple ``key`` the insertion is a signed sum over the
    shuffle blocks b of the inner factor, of products of a factor read off
    J and a coordinate of K's value; ``terms(key)`` lists them with the
    slot (inside, b):

    * J outside: coordinate c of K's value at key[b], evaluated on b, times
      J's value at (c,) + key[rest] with b inserted in its first slot; every
      c is read off K's one value at key[b], so a block has one term, whose
      coefficients are held per (b, key[rest]);
    * J inside: K's value at (c,) + key[rest] with b inserted, times
      coordinate c of J's value at key[b], evaluated on b.

    Both substitutions of b depend only on the degree (`_substitutions`'
    ``block``, the dagger included), so the factors are held at the final
    arity, each read off J when ``terms`` first asks for it: a plan on the
    non-decreasing tuples reads about half of them.  The insertion plan and
    both sums of the coboundary read it.
    """
    total = order + degree - 1
    shuffles = [
        (sign < 0, (inside, b), b, rest)
        for sign, b, rest in _shuffles(total, order if inside else degree)
    ]
    # K's values are substituted on the side opposite J's
    substitutions = {slot: block(*slot) for _, slot, _, _ in shuffles}
    held = {}

    def factors(b, source):
        """The coefficients under b of J's values: inside, (c, [(t, t,
        factor)]) per coordinate c of J's value at ``source``, key[b], the
        factor of every coordinate t of K's value at (c,) + key[rest];
        outside, the [(c, t, factor)] of every coordinate c of K's value at
        key[b], J's value read at (c,) + ``source``, key[rest]."""
        out = held.get((b, source))
        if out is None:
            substitution = block(not inside, b)

            def images(at):
                value = values.get(at, ())
                images = [(t, substitution(p)) for t, p in enumerate(value) if p]
                return [(t, factor) for t, factor in images if factor]

            if inside:
                out = [(c, [(t, t, f) for t in range(rank)]) for c, f in images(source)]
            else:
                out = [(c, t, f) for c in range(rank) for t, f in images((c,) + source)]
            held[b, source] = out
        return out

    def terms(key):
        out = []
        for negative, slot, b, rest in shuffles:
            inner = tuple(key[k] for k in b)
            outer = tuple(key[k] for k in rest)
            if inside:
                out += [
                    (negative, slot, (c,) + outer, coefficients)
                    for c, coefficients in factors(b, inner)
                ]
            else:
                coefficients = factors(b, outer)
                if coefficients:
                    out.append((negative, slot, inner, coefficients))
        return out

    return substitutions, terms


class _Insertion(_Plan):
    """The insertion product with one cochain J fixed, planned once for the
    cochains K of one degree, on the non-decreasing output tuples when
    ``sorted_only``.

    Both K |-> circ_insert(J, K) (J outside) and K |-> circ_insert(K, J)
    (J ``inside``) are linear in K; their terms are `_inserted`'s.  The
    plan holds neither J nor a representation (see `_insertion`).
    """

    def __init__(self, J, inside, degree, block, sorted_only=False):
        self.degree = J.degree + degree - 1
        self.substitutions, terms = _inserted(
            J.values, J.degree, inside, degree, block, J.target.rank
        )
        self._index(_output_tuples(J.source.module.rank, self.degree, sorted_only), terms)


def _insertion(J, inside, K, sorted_only=False):
    """J's `_Insertion` plan, outside or ``inside``, for K's degree, on
    the non-decreasing output tuples when ``sorted_only``.

    J holds one per (side, degree, sorted_only) (`_held`), at most 10 of
    each kind since a product has degree 0 to MAX_DEGREE, until
    `Cochain.set_value` drops them.  Their blocks are those of the
    `_substitutions` that ``K.rep`` holds for the product's degree; for J of
    degree 2 they are the blocks of K's coboundary.
    """
    total = J.degree + K.degree - 1
    if not 0 <= total <= MAX_DEGREE:
        raise DegreeOverflowError("insertion degree %d out of range" % total)

    def build():
        # at degree 0 the one block is empty, and the blocks of working
        # arity 1 leave no lambda: del |-> 0 evaluated on it, else nothing
        block = _shared_substitutions(K.rep, max(total - 1, 0))[1]
        return _Insertion(J, inside, K.degree, block, sorted_only)

    return _held(J, (inside, K.degree, sorted_only), build)


def circ_insert(J, K):
    """Insertion product: K evaluated on a shuffle block inside J's first slot.

    It is linear in K, and K is mapped through the plan that J holds for
    K's degree (see `_Insertion`), so a repeated product with the same J
    builds nothing.  Both are adjoint cochains over one module.
    """
    _require_factors(J, K)
    return _insertion(J, False, K)(K, J.rep)


def nr_bracket(J, K):
    """Degree -1 graded Lie bracket of insertion type.

    [J, K] = J(.)K - (-1)^{(m-1)(n-1)} K(.)J; the structure cochain of a
    bracket pairs with any f to give (-1)^{n-1} times its coboundary, which
    is the identity pinning this convention.  Both terms are linear in K,
    and J holds the plan of each (see `_Insertion`).

    The bracket of skew cochains over a module without torsion, of rank at
    least 2, is skew, and is evaluated one tuple per permutation orbit
    (`_filled`).  A torsion generator breaks that even where no bracket
    involves it, since the insertion feeds its del-reduced coordinates back
    into an argument; then, as for any other pair, every tuple is mapped.
    """
    _require_factors(J, K)
    m, n = J.degree, K.degree
    sign = -1 if ((m - 1) * (n - 1)) % 2 == 0 else 1
    sorted_only = (
        J.source.module.rank > 1
        and J.target.del_action == FREE
        and _is_skew(J)
        and _is_skew(K)
    )
    first = _insertion(J, False, K, sorted_only)(K, J.rep)
    image = first + _insertion(J, True, K, sorted_only)(K, K.rep).scale(sign)
    return _filled(J.rep, image, sorted_only)


def cup_product(J, K):
    """Shuffle-summed bracket of values: sum [J(block1) lam K(block2)], of
    adjoint cochains over one module.

    For deg J >= 1 this is J inserted into K's left bracket (`_left_bracket`),
    mapped through the plan that the left bracket holds (`_Insertion`).  At
    deg J = 0, J = a, it is K followed by [a _0 -], the bracket cochain with
    a inserted: there the empty block's lambda is 0, while a left bracket of
    degree 1 would give x_0 the implicit -del, and at deg K = 4 it would
    exceed MAX_DEGREE.
    """
    _require_factors(J, K)
    if J.degree + K.degree > MAX_DEGREE:
        raise DegreeOverflowError("cup product exceeds degree %d" % MAX_DEGREE)
    if J.degree == 0:
        return K.map_target(circ_insert(bracket_cochain(K.source), J).to_map())
    return circ_insert(_left_bracket(K), J)


def fn_bracket(J, K):
    """The degree-0 graded bracket combining cup and insertion terms.

    [J, K] = J cup K + (-1)^m K(.)delta J - (-1)^{(m+1)n} J(.)delta K, with
    the coboundaries inserted into the other factor's first slot.  The signs
    and insertion direction are pinned by two oracles: the explicit degree-1
    expansion and agreement of [N, -] with the operator differential.  The
    insertions are mapped through plans of the fresh coboundaries, inside,
    and the cup product through the plan of K's left bracket (see
    `cup_product`), so no term is evaluated tuple by tuple.
    """
    m, n = J.degree, K.degree
    dJ = apply_delta(J)
    dK = apply_delta(K)
    term1 = cup_product(J, K)
    term2 = _insertion(dJ, True, K)(K, K.rep).scale((-1) ** m)
    term3 = _insertion(dK, True, J)(J, J.rep).scale(-((-1) ** (((m + 1) * n) % 2)))
    return term1 + term2 + term3


def fn_bracket_of_maps(lca, a, b):
    """FN bracket of two endomorphisms, as degree-1 adjoint cochains."""
    rep = adjoint_rep(lca)
    return fn_bracket(Cochain.from_map(a, rep), Cochain.from_map(b, rep))


# ---------------------------------------------------------------------------
# the combined complex


class _Xi(_Plan):
    """The comparison map xi of one degree, planned once for its cochains.

    xi is linear in f.  Its value on an output tuple ``key``, at coefficient
    coordinate t, is the sum over input tuples c and coordinates s of
    P[key, c][t][s] f_{c,s}.  P[key, c] is the sum over the subsets S of the
    slots of (-1)^{|S|} N_M^{|S|} times the product, over the slots k
    outside S, of the c_k-th coordinate of N x_{key_k} with del |-> -lam_k;
    on S, c_k = key_k.  The dagger lam_n |-> -del - lam_1 - ... - lam_{n-1}
    is a ring map and f's values hold no lam_n, so it is applied once, to
    each held P; ``final`` is that substitution (None at degree 0, which has
    no lambda).  The terms (see `_Plan`) of an output are the (c, [(s, t,
    P)]) of its nonzero P, of sign +1, and f's values are read as they are:
    the one slot's substitution is the identity.  The outputs are the
    non-decreasing tuples when ``sorted_only``.  The representation holds
    the plan (see `_comparison`).
    """

    def __init__(self, rep, degree, n_op, n_m, final, sorted_only=False):
        module = rep.algebra.module
        forms = _forms(degree, degree)
        self.degree = degree
        self.substitutions = {None: lambda poly: poly}
        one = Poly.one(degree)
        images = [n_op.apply(x).coords for x in _basis_args(module, range(module.rank))]

        def lift(poly, form):
            poly = poly.with_arity(degree)
            return poly.substitute(0, -form) if poly.uses_var(0) else poly

        # per slot k and basis index i, the nonzero coordinates (c, poly) of
        # N x_i with del |-> -lam_k
        moved = [
            [[(c, lift(p, form)) for c, p in enumerate(coords) if p] for coords in images]
            for form in forms
        ]
        # per |S|, the nonzero entries (t, s, entry) of N_M^{|S|}
        powers = [
            [
                (t, s, entry.with_arity(degree))
                for t, row in enumerate(n_m.power(size).matrix)
                for s, entry in enumerate(row)
                if entry
            ]
            for size in range(degree + 1)
        ]

        def terms(key):
            # (c, s, t) -> the (entry, factor) pairs of even and of odd |S|
            sums = {}
            for size in range(degree + 1):
                for subset in combinations(range(degree), size):
                    choices = [
                        [(key[k], None)] if k in subset else moved[k][key[k]]
                        for k in range(degree)
                    ]
                    for picks in product(*choices):
                        c = tuple(i for i, _ in picks)
                        factor = one
                        for _, poly in picks:
                            if poly is not None:
                                factor = factor * poly
                        for t, s, entry in powers[size]:
                            pairs = sums.setdefault((c, s, t), ([], []))
                            pairs[size % 2].append((entry, factor))
            held = {}
            for (c, s, t), (plus, minus) in sums.items():
                poly = Poly.sum_of_products(degree, plus, minus)
                if degree:
                    poly = final(poly)
                if poly.terms:
                    held.setdefault(c, []).append((s, t, poly))
            return [(False, None, c, coefficients) for c, coefficients in held.items()]

        self._index(_output_tuples(module.rank, degree, sorted_only), terms)


def _comparison(rep, degree, n_op, n_m, sorted_only=False):
    """xi of degree-``degree`` cochains over ``rep``, through the `_Xi` plan
    that ``rep`` holds for the degree, on the non-decreasing output tuples
    when ``sorted_only``.

    There is one per (degree, sorted_only) (`_held`), built from ``n_op``
    and ``n_m`` and built again when it is asked for with others; xi reads
    neither the bracket nor the action table, so no stamp applies.  Its
    dagger is that of the `_substitutions` of degree - 1, which the
    coboundary plans of that degree share.
    """

    def build():
        final = _shared_substitutions(rep, degree - 1)[0] if degree else None
        return _Xi(rep, degree, n_op, n_m, final, sorted_only)

    held = _held(rep, ("xi", degree, sorted_only), build, n_op, n_m)
    return lambda f: held(f, rep)


def xi_map(f, n_op, n_m):
    """Subset-alternating comparison map between the two complexes.

    xi(f)(p_1..p_n) = sum over subsets S of arguments of (-1)^{|S|}
    N_M^{|S|} applied to f evaluated with N on the arguments outside S; at
    degree 0 it is the identity.  Pinned by the intertwining law
    d_{N,M} o xi = xi o delta.  xi is linear in f, and ``f.rep`` holds its
    plan for the degree (see `_Xi`), so only the outputs that read the
    support of ``f`` are evaluated, one per permutation orbit when they can
    be (`_mapped`), and a repeated call with equal operators builds
    nothing.
    """
    return _mapped(_comparison, f.rep, f, n_op, n_m)


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
        if ga is None or gb is None:
            # a missing second component equals a zero one
            same = all(g is None or g.is_zero() for g in (ga, gb))
        else:
            same = ga == gb
        return self.f == other.f and same


def apply_dNL(pair, n_op, n_m, rep=None):
    """Differential of the combined complex.

    d(f, g) = (delta f, (-1)^n xi(f) + d_{N,M}(g)) for f of degree n, a
    missing g read as zero, so d(d(f, g)) = 0 at every degree (by d_{N,M}
    xi = xi delta).  delta, xi and d_{N,M} are each mapped through the plan
    that ``rep`` (by default ``f.rep``) holds, one tuple per permutation
    orbit when they can be (`_mapped`), so both components are cochains
    over it.
    """
    f, g = pair.f, pair.g
    rep = f.rep if rep is None else rep
    second = _mapped(_comparison, rep, f, n_op, n_m).scale((-1) ** f.degree)
    if g is not None:
        second = second + apply_dNM(g, n_op, n_m, rep=rep)
    return CochainPair(apply_delta(f, rep=rep), second)


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
    report = Report("phi-chain")
    report.add_failures("intertwine", failures_of(diff.values.items()))
    return report


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


def _cells(values):
    """A ``{basis tuple: Elem}`` dict as a sparse vector over (tuple,
    coordinate, monomial): the one cell format of the solver's columns."""
    return {
        (key, c, mono): coeff
        for key, value in values.items()
        for c, poly in enumerate(value.coords)
        for mono, coeff in poly.terms.items()
    }


def cochain_space(rep, degree, bound):
    """Basis of conformally skew cochains with entries of total degree <= bound.

    del-powers are enumerated only on free coordinates: on an evaluation
    coordinate del is a scalar, so they would repeat (or kill) a monomial.
    The basis is the reduced kernel basis of the skew residuals of the
    elementary cochains (one monomial on one coordinate at one basis tuple),
    in the order (tuple, coordinate, monomial); it is built one permutation
    orbit at a time, since the residuals never leave an orbit.

    A skew cochain's values on an orbit are its value w on the orbit's
    lexicographically last tuple moved by `_Skew`'s blocks, so the kernel's
    free columns are that tuple's cells.  When the tuple's entries are
    distinct, w is free, and each cell gives one basis cochain whose value
    there is its monomial.  When an entry repeats, w must be fixed by the
    transpositions of equal entries, and a small kernel on the tuple's cells
    gives the w's.  Below degree 2 every elementary cochain is skew.
    """
    from .linalg import nullspace

    module = rep.algebra.module
    nvars = max(degree - 1, 0)
    free_monos = _monomials(nvars, bound, True)
    fixed_monos = _monomials(nvars, bound, False)
    cells = [
        (coord, mono)
        for coord, action in enumerate(rep.module.actions)
        for mono in (free_monos if action == FREE else fixed_monos)
    ]
    if degree <= 1:
        values = [rep.module.basis_elem(c).mul_poly(Poly(0, {m: 1})) for c, m in cells]
        return [
            Cochain(degree, rep, {key: value})
            for key in product(range(module.rank), repeat=degree)
            for value in values
        ]
    # value on the tuple u, for the permutation p with u[p[k]] = last[k]:
    # lam_{k+1} |-> the lambda of slot p[k], the last slot's being the
    # dagger of the others, and del kept
    block = _shared_substitutions(rep, degree - 1)[1]
    moves = {perm: block(False, perm) for perm in permutations(range(degree))}
    basis = []
    for last in product(range(module.rank), repeat=degree):
        if any(a < b for a, b in zip(last, last[1:])):
            continue
        orbit = {}
        for perm in moves:
            u = [None] * degree
            for k, p in enumerate(perm):
                u[p] = last[k]
            orbit.setdefault(tuple(u), perm)
        swaps = [
            tuple(range(k)) + (k + 1, k) + tuple(range(k + 2, degree))
            for k in range(nvars)
            if last[k] == last[k + 1]
        ]
        kernel = nullspace(
            [_swap_residual(rep.module, cell, moves, swaps) for cell in cells]
        )
        for vec in kernel:
            combo = [(c, v) for c, v in enumerate(vec) if v]
            f = Cochain(degree, rep)
            for u, perm in orbit.items():
                coords = [Poly.zero(nvars)] * rep.module.rank
                for c, coeff in combo:
                    coord, mono = cells[c]
                    image = moves[perm][mono].scale(coeff * _perm_sign(perm))
                    coords[coord] = coords[coord] + image
                f.set_value(u, Elem(rep.module, coords))
            basis.append(f)
    return basis


def _swap_residual(module, cell, moves, swaps):
    """The skew residuals of one cell's monomial under each transposition of
    equal entries, as a sparse vector over (swap, coordinate, monomial);
    empty when the entries are distinct, which leaves every cell free."""
    coord, mono = cell
    monomial = Poly(len(mono) - 1, {mono: 1})
    out = {}
    for swap in swaps:
        coords = [Poly.zero(monomial.arity)] * module.rank
        coords[coord] = monomial + moves[swap][mono]
        residual = module.reduce_coords(coords)[coord]
        out.update(((swap, coord, m), v) for m, v in residual.terms.items())
    return out


def _max_degree(*vectors):
    """The largest total degree of a polynomial in ``vectors``, and at least 1.

    Each vector is a sequence of polynomials: a table value, the coordinates
    of a cochain value or a row of a map.
    """
    return max([1] + [poly.total_degree() for vector in vectors for poly in vector])


def _slice_cells(rep, degree, bound):
    """The cells of a bounded slice: its non-decreasing basis tuples times
    the monomials of every coefficient coordinate that `cochain_space`
    enumerates, with del-powers on free coordinates only."""
    nvars = max(degree - 1, 0)
    monomials = sum(
        comb(bound + nvars + free, nvars + free)
        for free in (action == FREE for action in rep.module.actions)
    )
    return comb(rep.algebra.module.rank + degree - 1, degree) * monomials


def _refuse_large_slices(rep, *slices):
    """Refuse the slices, given as (degree, bound), if one has more than
    MAX_SLICE_CELLS cells; called before any of them is built."""
    for degree, bound in slices:
        cells = _slice_cells(rep, degree, bound)
        if cells > MAX_SLICE_CELLS:
            raise UnsupportedModeError(
                "a degree-%d slice at bound %d has %d cells, above the cap of %d"
                % (degree, bound, cells, MAX_SLICE_CELLS)
            )


def _slice(rep, degree, bound, image):
    """A bounded cochain slice: its basis ``cochain_space(rep, degree,
    bound)``, and the cells (`_cells`) of ``image(f)``, a ``{tuple: Elem}``
    dict, for each basis cochain f.

    The one builder of solve columns: the solver's images are the values of
    the differential that ``rep`` holds (see `_differential`), and a map
    solve's are the residuals of a map L -> H, a degree-1 cochain
    (`extension.solve_map`).  The solver's callers refuse a slice of more
    than MAX_SLICE_CELLS cells (`_refuse_large_slices`) before it is built.
    """
    basis = cochain_space(rep, degree, bound)
    return basis, [_cells(image(f)) for f in basis]


def _lower(rep, degree, bound):
    """The (degree, bound) of the slice whose images are the coboundaries
    of degree ``degree`` at ``bound``: degree - 1, at ``bound`` plus the
    structure degree, the largest degree of a bracket or action entry."""
    values = (*rep.algebra.table.entries.values(), *rep.action.entries.values())
    return degree - 1, bound + _max_degree(*values)


def _coboundaries(rep, degree, bound, operator=None, sorted_only=False):
    """The coboundaries of degree ``degree`` at ``bound``: the images of the
    `_lower` slice, and the set of their cells of degree > ``bound``.

    The coboundaries in the bounded slice are the combinations of the images
    that vanish on those cells; their dimension is rank V - rank V_high,
    V_high being the images restricted to the cells.  The one truncation
    convention of `solve_truncated` and `image_contains`.
    """
    lower, top = _lower(rep, degree, bound)
    differential = _differential(rep, lower, operator, sorted_only=sorted_only)
    _, vecs = _slice(rep, lower, top, lambda f: differential(f).values)
    return vecs, {slot for vec in vecs for slot in vec if sum(slot[2]) > bound}


def _check_solve(rep, bound, operator):
    """Refuse a truncation bound outside 0..MAX_SOLVER_BOUND, and an
    operator over coefficients that are not adjoint."""
    if bound < 0:
        raise PreconditionError("truncation bound %d is negative" % bound)
    if bound > MAX_SOLVER_BOUND:
        raise PreconditionError("truncation bound too large")
    if operator is not None:
        _require_adjoint(rep)


def solve_truncated(rep, degree, bound, operator=None):
    """Exact kernel/image dimensions of a degree-truncated cochain slice.

    The differential is delta, or d_N of the structure operator ``operator``
    (adjoint coefficients only).  Two truncations are taken.  The cochains
    are the skew ones of the given degree with polynomial entries of total
    degree <= ``bound``, and the cocycles solve differential = 0 among them.
    The coboundaries are those of `_coboundaries`: the differential images
    V of the degree-(n-1) slice, truncated at ``bound +`` the structure
    degree, that stay inside the bounded slice.  Their dimension
    rank V - rank V_high equals that of V(ker V_high), where V_high is V
    restricted to the monomials of degree > bound.

    Returns the four dimensions and ``kernel``, the cocycles as coefficient
    vectors over ``cochain_space(rep, degree, bound)``.  Both slices are
    refused before either is built when one has more than MAX_SLICE_CELLS
    cells.

    The differential is evaluated on non-decreasing output tuples only
    when `_sorted_outputs` holds: ``rep.algebra``'s bracket is conformally
    skew and its torsion inert, ``operator`` does not mix torsion, and the
    action acts on no torsion generator.  The differential then maps skew
    cochains to skew cochains, and a skew cochain's value on any other
    permutation of a tuple is an invertible, degree-preserving substitution
    of its value on the sorted one.  So a skew cochain vanishes, or has
    degree <= bound, exactly when its values on sorted tuples do, and every
    kernel and rank is unchanged.  Otherwise every tuple is evaluated.
    """
    from .linalg import nullspace, rank

    if degree < 0:
        raise DegreeOverflowError("cochain degree %d out of range" % degree)
    if degree > MAX_SOLVER_DEGREE:
        raise DegreeOverflowError(
            "solver supports degree at most %d" % MAX_SOLVER_DEGREE
        )
    _check_solve(rep, bound, operator)
    lower = [_lower(rep, degree, bound)] if degree >= 1 else []
    _refuse_large_slices(rep, (degree, bound), *lower)
    sorted_only = _sorted_outputs(rep, operator)
    differential = _differential(rep, degree, operator, sorted_only=sorted_only)
    basis, images = _slice(rep, degree, bound, lambda f: differential(f).values)
    kernel = nullspace(images)

    dim_im = 0
    if lower:
        vecs, high = _coboundaries(rep, degree, bound, operator, sorted_only)
        dim_im = rank(vecs) - rank(vecs, keys=high)
    return {
        "cochain_dim": len(basis),
        "cocycle_dim": len(kernel),
        "coboundary_dim": dim_im,
        "h_dim": len(kernel) - dim_im,
        "kernel": kernel,
    }


def image_contains(rep, bound, target, operator=None):
    """Whether ``target`` is an image, under delta or d_N of ``operator``,
    of the lower slice from which `solve_truncated` counts its coboundaries
    at ``bound`` (`_coboundaries`).

    Its preimages are the degree-(n-1) cochains with entries of total
    degree <= ``bound +`` the structure degree, not ``bound``; the target
    itself is not asked to have degree <= ``bound``.  So a target inside
    the bounded slice is contained exactly when it is one of those
    coboundaries, and a coboundary of higher degree with such a preimage is
    contained too.  The images are evaluated on every output tuple, since a
    target need not be skew.  The slice is refused before it is built when
    it has more than MAX_SLICE_CELLS cells.
    """
    from .linalg import solve

    if target.degree == 0:
        raise DegreeOverflowError("a degree-0 target has no preimages")
    _check_solve(rep, bound, operator)
    _refuse_large_slices(rep, _lower(rep, target.degree, bound))
    vecs, _ = _coboundaries(rep, target.degree, bound, operator)
    return solve(vecs, _cells(target.values)) is not None


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
