"""Test-only reference: the dense element and cochain evaluators, and the
coboundary evaluated cochain by cochain.

These are the sesquilinear evaluator, the cochain evaluator and the dagger
substitution as the engine had them before they worked only on the support
of their arguments: every coordinate of both arguments is lifted and
substituted, every table pair is read through ``StructureTable.get``, and a
cochain evaluation scans every stored value.  ``apply_delta`` is the
coboundary as it was before it was planned once per slice: every output
tuple is evaluated, and every inserted bracket is built again for every
cochain; ``apply_dNM`` is its twisted difference.  ``skew_symmetrize``,
``circ_insert``, ``cup_product`` and ``xi_map`` are the table builders as
each walked the basis tuples and enumerated its shuffles on its own.
``xi_map`` is also the comparison map as it was before it was planned once
per degree: 2^n cochain evaluations per output tuple, with N applied to the
arguments and the powers of N_M computed again on every call.
``circ_insert`` is also the insertion product as it was before it was
planned once per fixed cochain: two cochain evaluations per shuffle block
and output tuple, on every call.  ``cup_product`` is also the cup product
as it was before it became an insertion into its right factor's left
bracket: two cochain evaluations and a bracket per shuffle and output
tuple.  They
are kept, unoptimised, as the definitions that ``nijconf.lca.sesqui_eval``,
``nijconf.cohomology.eval_cochain``, ``nijconf.lca.dagger_substitute``, the
coboundaries, the table builders, the planned xi, the planned insertion and
the cup product of ``nijconf.cohomology`` are pinned to by
``tests/test_eval_reference.py``.  The engine evaluates tables and
cochains with one core, ``nijconf.lca._evaluate``, which relabels a stored
value at distinct bare lambdas; the two evaluators here stay separate, and
both expand every stored value by multiplying out powers of the forms.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, permutations, product

from nijconf import cohomology, lca
from nijconf.errors import ModuleMismatchError
from nijconf.lca import Elem, _trusted_elem
from nijconf.nijenhuis import deformed_table
from nijconf.poly import Poly, _trusted, dagger


def expand_value(polys, forms, arity):
    """Map arity-k polynomials into the working arity: lam_j -> forms[j-1]."""
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
    """Sesquilinear extension of a structure table at a lambda-form."""
    a = a.with_arity(arity)
    b = b.with_arity(arity)
    minus = -form
    shift = Poly.del_(arity) + form
    result = [Poly.zero(arity)] * target.rank
    if a.is_zero():
        return _trusted_elem(target, result)
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
            for t, tpoly in enumerate(expand_value(value, [form], arity)):
                if tpoly:
                    result[t] = result[t] + factor * tpoly
    return Elem(target, result)


def eval_cochain(f, args, forms, arity):
    """Evaluate ``f`` on arguments carrying explicit lambda-forms."""
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
            for t, vp in enumerate(expand_value(value.coords, forms, arity)):
                if vp:
                    coords[t] = coords[t] + factor * vp
    return Elem(f.target, coords)


def dagger_substitute(elem, slot):
    """Substitute lam_slot |-> -del - lam_1 - ... - lam_{slot-1}, del outside."""
    arity = max(elem.arity, slot)
    earlier = sum((Poly.lam(i, arity) for i in range(1, slot)), Poly.zero(arity))
    out = elem.with_arity(arity).substitute(slot, dagger(earlier))
    if slot == arity:
        out = out.shrink(arity - 1)
    return out


def apply_delta(f, rep=None, twist=None, insert_table=None, keys=None):
    """The conformal coboundary of ``f`` on every output tuple (or those in
    ``keys``), with the options of ``nijconf.cohomology.apply_delta``."""
    if rep is None:
        rep = f.rep
    if insert_table is None:
        insert_table = rep.algebra.table
    n = f.degree
    module = rep.algebra.module
    arity = n + 1
    forms = [Poly.lam(i + 1, arity) for i in range(arity)]
    out = cohomology.Cochain(n + 1, rep)
    if keys is None:
        keys = product(range(module.rank), repeat=n + 1)
    for key in keys:
        args = [module.basis_elem(i) for i in key]
        acc = rep.module.zero(arity)
        for i in range(n + 1):
            inner = cohomology.eval_cochain(
                f, args[:i] + args[i + 1 :], forms[:i] + forms[i + 1 :], arity
            )
            actor = args[i] if twist is None else twist.apply(args[i])
            term = cohomology.act_form(
                rep.action, rep.module, actor, inner, forms[i], arity
            )
            acc = acc + term if i % 2 == 0 else acc - term
        for i in range(n + 1):
            for j in range(i + 1, n + 1):
                inserted = cohomology.act_form(
                    insert_table, module, args[i], args[j], forms[i], arity
                )
                rest_args = [args[k] for k in range(n + 1) if k not in (i, j)]
                rest_forms = [forms[k] for k in range(n + 1) if k not in (i, j)]
                term = cohomology.eval_cochain(
                    f,
                    [inserted] + rest_args,
                    [forms[i] + forms[j]] + rest_forms,
                    arity,
                )
                acc = acc + term if (i + j) % 2 == 0 else acc - term
        out.set_value(key, lca.dagger_substitute(acc, arity))
    return out


def apply_dNM(f, n_op, n_m, rep=None, keys=None):
    """The twisted coboundary (action through N, deformed bracket inserted)
    minus N_M composed with the plain one."""
    if rep is None:
        rep = f.rep
    deformed = deformed_table(rep.algebra, n_op)
    twisted = apply_delta(f, rep=rep, twist=n_op, insert_table=deformed.table, keys=keys)
    return twisted - apply_delta(f, rep=rep, keys=keys).map_target(n_m)


# ---------------------------------------------------------------------------
# the table builders as each walked its own tuples: skew_symmetrize,
# circ_insert, cup_product and xi_map, every one with its own loop over the
# basis tuples and its own shuffle enumeration


def _perm_sign(perm):
    inversions = sum(
        1
        for a in range(len(perm))
        for b in range(a + 1, len(perm))
        if perm[a] > perm[b]
    )
    return -1 if inversions % 2 else 1


def _forms(count, arity):
    return [Poly.lam(i + 1, arity) for i in range(count)]


def skew_symmetrize(f):
    """Project a cochain table onto its conformal skew-symmetric part."""
    n = f.degree
    if n <= 1:
        return f
    module = f.source.module
    out = cohomology.Cochain(n, f.rep)
    forms = _forms(n, n)
    norm = Fraction(1)
    for k in range(2, n + 1):
        norm = norm / k
    for key in product(range(module.rank), repeat=n):
        args = [module.basis_elem(i) for i in key]
        acc = f.target.zero(n)
        for perm in permutations(range(n)):
            sign = _perm_sign(perm)
            term = cohomology.eval_cochain(
                f, [args[p] for p in perm], [forms[p] for p in perm], n
            )
            acc = acc + term.scale(sign)
        out.set_value(key, lca.dagger_substitute(acc.scale(norm), n))
    return out


def circ_insert(J, K):
    """Insertion product: K evaluated on a shuffle block inside J's first slot."""
    m, n = J.degree, K.degree
    total = m + n - 1
    module = J.source.module
    arity = total
    forms = _forms(arity, arity)
    out = cohomology.Cochain(total, J.rep)
    for key in product(range(module.rank), repeat=total):
        args = [module.basis_elem(i) for i in key]
        acc = J.target.zero(arity)
        for sel in combinations(range(total), n):
            rest = [k for k in range(total) if k not in sel]
            sign = _perm_sign(tuple(sel) + tuple(rest))
            inner = cohomology.eval_cochain(
                K, [args[s] for s in sel], [forms[s] for s in sel], arity
            )
            sum_form = Poly.zero(arity)
            for s in sel:
                sum_form = sum_form + forms[s]
            term = cohomology.eval_cochain(
                J,
                [inner] + [args[r] for r in rest],
                [sum_form] + [forms[r] for r in rest],
                arity,
            )
            acc = acc + term.scale(sign)
        out.set_value(key, lca.dagger_substitute(acc, arity) if arity else acc)
    return out


def cup_product(J, K):
    """Shuffle-summed bracket of values: sum [J(block1) lam K(block2)]."""
    m, n = J.degree, K.degree
    total = m + n
    module = J.source.module
    table = J.source.table
    arity = total
    forms = _forms(arity, arity)
    out = cohomology.Cochain(total, J.rep)
    for key in product(range(module.rank), repeat=total):
        args = [module.basis_elem(i) for i in key]
        acc = J.target.zero(arity)
        for sel in combinations(range(total), m):
            rest = [k for k in range(total) if k not in sel]
            sign = _perm_sign(tuple(sel) + tuple(rest))
            left = cohomology.eval_cochain(
                J, [args[s] for s in sel], [forms[s] for s in sel], arity
            )
            right = cohomology.eval_cochain(
                K, [args[r] for r in rest], [forms[r] for r in rest], arity
            )
            sum_form = Poly.zero(arity)
            for s in sel:
                sum_form = sum_form + forms[s]
            term = cohomology.act_form(table, module, left, right, sum_form, arity)
            acc = acc + term.scale(sign)
        out.set_value(key, lca.dagger_substitute(acc, arity) if arity else acc)
    return out


def xi_map(f, n_op, n_m):
    """Subset-alternating comparison map between the two complexes."""
    n = f.degree
    if n == 0:
        return f
    module = f.source.module
    arity = n
    forms = _forms(n, n)
    out = cohomology.Cochain(n, f.rep)
    powers = [n_m.power(k) for k in range(n + 1)]
    for key in product(range(module.rank), repeat=n):
        base = [module.basis_elem(i) for i in key]
        acc = f.target.zero(arity)
        for size in range(n + 1):
            for subset in combinations(range(n), size):
                args = [
                    base[k] if k in subset else n_op.apply(base[k])
                    for k in range(n)
                ]
                term = powers[size].apply(
                    cohomology.eval_cochain(f, args, forms, arity)
                )
                acc = acc + term if size % 2 == 0 else acc - term
        out.set_value(key, lca.dagger_substitute(acc, arity))
    return out
