"""Test-only reference: the dense element and cochain evaluators.

These are the sesquilinear evaluator, the cochain evaluator and the dagger
substitution as the engine had them before they worked only on the support
of their arguments: every coordinate of both arguments is lifted and
substituted, every table pair is read through ``StructureTable.get``, and a
cochain evaluation scans every stored value.  They are kept, unoptimised, as
the definitions that ``nijconf.lca.sesqui_eval``,
``nijconf.cohomology.eval_cochain`` and ``nijconf.lca.dagger_substitute``
are pinned to by ``tests/test_eval_reference.py``.
"""

from __future__ import annotations

from nijconf.errors import ModuleMismatchError
from nijconf.lca import Elem, _trusted_elem
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
