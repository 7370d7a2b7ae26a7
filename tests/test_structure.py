"""Source-level rules: one failure collector and one witness format, one
validation of a Nijenhuis structure, one builder of solve columns, one cell
format and one space of coboundaries, one obstruction, one solver for a map
L -> H, one Jacobi residual, one morphism residual and one reader of a
bracket, an action or a cochain at mapped basis elements, one evaluation
core and one expansion, one builder of derived tables, and a documented workspace
grammar.

Every axiom check turns its (tuple, residual) pairs into failures through
``report.failures_of`` and adds them through a ``Report`` method, which
names the least failing tuple in the one ``at=... residual=[...]`` format of
``report.first_witness``.  A module that formats that witness itself, or
appends to a failure list by hand, has grown a second copy of this logic.
A Nijenhuis structure from outside is validated once, by the constructor of
``NijenhuisLCA``; the builders of totals trust their own checks and package
the total with ``NijenhuisLCA.raw`` (pinned by ``tests/test_totals.py``), so
no module calls the validating constructor.  ``cochain_space(`` is called
only from ``cohomology._slice``, the one builder of solve columns, which
turns the image of every basis cochain into cells.  ``_slice(`` is called
only by ``solve_truncated`` and by ``_coboundaries``, the one space of
coboundaries and so the one truncation convention, which
``image_contains`` reads too, each through one plan of the differential;
and by ``extension.solve_map``, whose unknowns are the degree-1 slice,
since a map L -> H is a degree-1 cochain.  So no solve keeps an unknown
space of its own, and the (tuple, coordinate, monomial) cell format is
written only by ``cohomology._cells``: no other comprehension flattens an
element's coordinates and their terms.  Each slice of the solver is
refused once, before any is built:
``_refuse_large_slices(`` is called only by ``solve_truncated`` and
``image_contains``.  ``linalg.solve`` is called only from
``extension.solve_map``, the one solver for a map L -> H (the tau of an
equivalence and the eta of a lift), and from ``cohomology.image_contains``,
which tests a target against the coboundaries ``solve_truncated`` counts.
One obstruction: ``deformation`` calls neither ``fn_bracket`` nor
``fn_bracket_of_maps``, since the obstruction is minus the next-order
residual of ``deformation._order_residuals``; the FN bracket is the
oracle that the tests hold it to.
One residual per axiom: ``lca._jacobi`` is minus the representation
residual of the adjoint action, so it calls ``_representation`` and
evaluates nothing itself.
Tables and cochains share one evaluator: ``_Lifted(`` is called only by
``lca._evaluate``, the evaluation core.  One coboundary formula: the
coboundary plan is two insertions, of f into the flipped action and of the
bracket cochain into f, so ``cohomology._inserted`` is called only by
``_Insertion.__init__`` and twice by ``_Coboundary.__init__``, and in
``cohomology`` only ``_left_bracket`` calls ``act_form``.  The action flip
[m lam x] = -rho(x)_{-del-lam} m, a ``dagger_substitute`` of an
``act_basis(..., slot=2, ...)``, is written only in ``lca._flipped_action``,
which the coboundary, ``lca.sum_algebra`` and the mixed bracket of the L5
and H4 lines of ``homotopy.check_2term`` and ``check_homomorphism`` read.
``_Coboundary.__init__`` takes no operator, and the twisted coboundary and
H5 are that plan over a pulled-back action, so ``cohomology._pulled_back``
is called only by ``_differential`` and ``homotopy.check_homomorphism``.
A 2-term structure holds data only: ``TwoTermConformal`` defines no ``act``
or ``act_rev``, and ``homotopy`` neither imports nor calls ``act_form``.
One builder fills derived tables: a table writer (``set_bracket``,
``set_action`` or a table's ``.set``) is called only by the parser in
``cli``, by the table's own methods, by ``lca._tabulated``, which tabulates
every derived bracket and action from its owner's evaluator, and by
``lca.sum_algebra``.  The
linear maps of cochains share one mapping loop: among ``cohomology._Plan``
and its subclasses only ``_Plan`` defines ``__call__``, and the coboundary,
xi and the insertion only build terms for it, as does the skew projection.
Outside ``poly.py``, a ``Substitution(`` is built only by
``lca._expansion``, the one expansion of a stored value, and by
``cohomology._substitutions``, which holds its substitutions for every plan
and for the orbit moves of ``cochain_space``.
No function of ``cohomology`` calls ``eval_cochain``: the coboundary, xi,
the insertion product in the factor that is not fixed and the skew
projection are linear and planned (``cohomology._Plan``), and the cup
product is an insertion into its right factor's left bracket, so evaluating
one of them tuple by tuple would be a second code path.  Nor does any
module call ``eval_cochain`` on basis arguments only, whose value it reads
with ``Cochain.value``; and since a cochain at mapped basis elements is read
from an ``lca._BasisPairs`` too (L7, H3, H4, the target side of H5, the
module defect and the chi of ``wells.transform_cocycle``), no module calls
``eval_cochain`` at all.
``nijenhuis._deformed``, the deformed bracket, is called only by
``nijenhuis._nijenhuis``, the one residual of the Nijenhuis identity over a
bracket or an action, by ``nijenhuis._deformed_action``, the one deformed
action, which ``deformed_table`` and ``homotopy.check_crossed_module``
read, and by the loop that ``deformation._order_residuals`` holds; so no
check writes that identity a second time.  Each residual loop over basis
pairs reads its images and brackets from an ``lca._BasisPairs``, which
computes each once: no function that calls ``_nijenhuis`` or ``_deformed``
applies a map to a basis element, passes one to them, or passes them a bare
``partial(eval_bracket, ...)``.
Likewise ``lca._morphism``, the one residual out(S_ij) - T(left e_i,
right e_j) of maps that respect a bracket or an action, is called only by
``lca.check_morphism``, by ``homotopy.check_2term`` (L4), by the
``peiffer`` lines of ``homotopy.check_crossed_module`` (peiffer-1), three
times by ``homotopy.check_homomorphism`` (H2, H3 and H4), by
``extension.extract_cocycle``, whose chi is minus the section's residual,
and twice by the residuals of ``extension._map_residuals``, the one
residual of a Nijenhuis morphism between extension totals, which both the
tau of an equivalence and the eta of a lift read.  In ``extension`` and
``wells`` no function evaluates a bracket by hand: neither
``eval_bracket`` nor ``act_form`` is called there.  One reader of a
bracket, an action or a cochain at mapped basis elements: outside
``lca._BasisPairs``, no function calls ``eval_bracket``, ``act``,
``sesqui_eval`` or ``act_form`` with both element arguments, or
``eval_cochain`` with every argument, a basis element or a map's image of
one (a name, list item, held ``.element`` or comprehension bound to one
included); such a value is read from a holder's ``at``, which picks the
lambda-forms itself.  So outside ``poly``, ``grammar``, ``lca`` and
``cohomology`` nothing calls ``Poly.lam`` or ``dagger``.
No module keeps an unused import, but for the four aliases that
``perfbench/tests`` checks the tracer rebinds.
Every block kind of ``cli._BLOCKS`` and each of its options is named in the
README's workspace grammar.  ``src/nijconf`` holds no module-level mutable
cache: no ``lru_cache`` or ``cache`` decorator, no module-level dict, list
or set that a function writes to, and no ``global`` rebinding.  A cache
lives on the object that owns it (a representation holds its coboundary
plans), so nothing it holds outlives that object.  Such a cache is stamped
with the version of the structure tables it was derived from, so only
``StructureTable.set``, which bumps the version, writes a table's entries,
and ``.table`` and ``.action`` are bound only in an ``__init__``.  A
cochain holds the insertion plans read off its values, so only
``Cochain.set_value``, which drops them, writes a cochain's ``.values``,
bound only in ``Cochain.__init__``.  Every value an object derives from its
own data (a held plan, an algebra's check and skew verdicts, a cochain's
skew verdict, a map's lifted rows) is fetched through one lookup with one
staleness rule: only ``lca._held`` reads or writes an owner's ``._plans``,
bar its drop in ``Cochain.set_value``; no function writes a ``.checked``,
``._skew`` or ``._lifted`` of its own; and no function of ``cohomology``
sets a ``.stamp``, ``.n_op`` or ``.n_m`` on a plan.
"""

import ast
import glob
import os
import re

from nijconf import cli

from test_cli import ROOT

SOURCES = sorted(glob.glob(os.path.join(ROOT, "src", "nijconf", "*.py")))

RULES = [
    ("formats an at= witness", re.compile(r"""["']at=""")),
    ("appends to a failure list", re.compile(r"\bfailures\s*(\.append\(|\+=)")),
    ("validates a Nijenhuis structure again", re.compile(r"\bNijenhuisLCA\(")),
]


def test_only_report_collects_failures_and_formats_witnesses():
    assert SOURCES
    offences = []
    for path in SOURCES:
        if os.path.basename(path) == "report.py":
            continue
        with open(path) as handle:
            for number, line in enumerate(handle, 1):
                offences += [
                    "%s:%d %s: %s" % (os.path.basename(path), number, what, line.strip())
                    for what, pattern in RULES
                    if pattern.search(line)
                ]
    assert offences == []


def _calls(node, name):
    return isinstance(node, ast.Call) and name in (
        getattr(node.func, "id", None),
        getattr(node.func, "attr", None),
    )


def _sources():
    """(module, source text) of every module of the package."""
    for path in SOURCES:
        with open(path) as handle:
            yield os.path.basename(path)[:-3], handle.read()


def _callers(name, sources=None):
    """(module, function) of every call of ``name``, by source line, in the
    package or in the (module, source text) pairs ``sources``."""
    found = []
    for module, source in _sources() if sources is None else sources:
        tree = ast.parse(source)
        functions = [n for n in ast.walk(tree) if isinstance(n, ast.FunctionDef)]
        for node in ast.walk(tree):
            if _calls(node, name):
                # the innermost function whose lines hold the call
                owner = min(
                    (f for f in functions if f.lineno <= node.lineno <= f.end_lineno),
                    key=lambda f: f.end_lineno - f.lineno,
                    default=None,
                )
                found.append((module, owner.name if owner else None))
    return sorted(found)


def _owners(name, sources=None, keep=lambda call: True):
    """(module, owner) of every call of ``name`` that ``keep`` accepts, in
    the package or in the (module, source text) pairs ``sources``: the owner
    is the dotted path of the classes and functions around the call."""
    found = []

    def visit(module, node, path):
        for child in ast.iter_child_nodes(node):
            if _calls(child, name) and keep(child):
                found.append((module, ".".join(path)))
            named = isinstance(child, (ast.FunctionDef, ast.ClassDef))
            visit(module, child, path + (child.name,) if named else path)

    for module, source in _sources() if sources is None else sources:
        visit(module, ast.parse(source), ())
    return sorted(found)


def _actors(module, sources=None):
    """The owners of every call of ``act_form`` in ``module``."""
    return [owner for name, owner in _owners("act_form", sources) if name == module]


def _flips_an_action(call):
    """Whether ``call``'s first argument is an ``act_basis`` at slot 2."""
    inner = call.args[0] if call.args else None
    if not _calls(inner, "act_basis"):
        return False
    slots = inner.args[2:3] + [k.value for k in inner.keywords if k.arg == "slot"]
    return any(getattr(slot, "value", None) == 2 for slot in slots)


def _action_flips(sources=None):
    """(module, owner) of every ``dagger_substitute`` of an ``act_basis``
    at slot 2: the action flip [m lam x] = -rho(x)_{-del-lam} m."""
    return _owners("dagger_substitute", sources, keep=_flips_an_action)


def test_one_coboundary_formula():
    assert _owners("_inserted") == [
        ("cohomology", "_Coboundary.__init__"),
        ("cohomology", "_Coboundary.__init__"),
        ("cohomology", "_Insertion.__init__"),
    ]
    assert _actors("cohomology") == ["_left_bracket"]
    assert _action_flips() == [("lca", "_flipped_action.flipped")]
    # H4 flips the source's action and the target's, once each
    assert _owners("_flipped_action") == [
        ("cohomology", "_Coboundary.__init__"),
        ("homotopy", "check_2term"),
        ("homotopy", "check_homomorphism"),
        ("homotopy", "check_homomorphism"),
        ("lca", "sum_algebra"),
    ]
    assert _owners("_pulled_back") == [
        ("cohomology", "_differential.plan.build"),
        ("homotopy", "check_homomorphism"),
    ]
    tree = ast.parse(dict(_sources())["cohomology"])
    init = next(
        item
        for node in ast.walk(tree)
        if isinstance(node, ast.ClassDef) and node.name == "_Coboundary"
        for item in node.body
        if isinstance(item, ast.FunctionDef) and item.name == "__init__"
    )
    assert [arg.arg for arg in init.args.args] == [
        "self", "rep", "degree", "substitutions", "keys"
    ]
    assert _actors("homotopy") == []


def test_the_coboundary_rule_sees_a_hand_written_h5():
    source = """
def check_homomorphism(src, dst, f0, f1, f2):
    def h5(*key):
        p, q, r = _basis_args(mod0, key)
        fp, fq, fr = f0.apply(p), f0.apply(q), f0.apply(r)
        lhs = eval_cochain(dst.l3, [fp, fq, fr], forms, 2) - f1.apply(
            eval_cochain(src.l3, [p, q, r], forms, 2)
        )
        qr = act_form(src0.table, src0.module, q, r, mu, 2)
        pr = act_form(src0.table, src0.module, p, r, la, 2)
        pq = act_form(src0.table, src0.module, p, q, la, 2)
        rhs = (
            dst.act(fp, eval_cochain(f2, [q, r], [mu, dagger(mu)], 2), la, 2)
            + eval_cochain(f2, [p, qr], [la, dagger(la)], 2)
            - dst.act(fq, eval_cochain(f2, [p, r], [la, dagger(la)], 2), mu, 2)
            - eval_cochain(f2, [q, pr], [mu, dagger(mu)], 2)
            - dst.act_rev(eval_cochain(f2, [p, q], [la, mu], 2), fr, la + mu, 2)
            - eval_cochain(f2, [pq, r], [la + mu, forms[2]], 2)
        )
        return lhs - rhs

    report.add_residuals("H5", product(range(mod0.rank), repeat=3), h5)
"""
    actors = _actors("homotopy", [("homotopy", source)])
    assert actors == ["check_homomorphism.h5"] * 3


def test_the_coboundary_rule_sees_a_hand_written_action_sum():
    # the coboundary whose action sum evaluated the action table itself
    source = """
class _Coboundary(_Plan):
    def __init__(self, rep, degree, substitutions, keys=None):
        module, target = rep.algebra.module, rep.module
        arity = degree + 1
        forms = _forms(arity, arity)
        basis = _basis_args(module, range(module.rank))
        final, self.spreads, block = substitutions
        inserted, brackets = _inserted(
            bracket_cochain(rep.algebra), True, degree, block, target.rank
        )
        self.degree = arity
        self.substitutions = dict(enumerate(self.spreads)) | inserted
        actions = {}

        def action(i, generator):
            held = actions.get((i, generator))
            if held is None:
                held = actions[i, generator] = []
                for b in range(target.rank):
                    image = act_form(
                        rep.action, target, basis[generator],
                        target.basis_elem(b), forms[i], arity,
                    )
                    held += [(b, t, final(p)) for t, p in enumerate(image.coords) if p]
            return held

        def terms(key):
            out = []
            for i in range(arity):
                coefficients = action(i, key[i])
                if coefficients:
                    out.append((i % 2, i, key[:i] + key[i + 1 :], coefficients))
            return out + [(not negative, *term) for negative, *term in brackets(key)]

        self._index(keys, terms)
"""
    sources = [("cohomology", source)]
    assert _actors("cohomology", sources) == ["_Coboundary.__init__.action"]
    assert _owners("_inserted", sources) == [("cohomology", "_Coboundary.__init__")]


def test_the_flip_rule_sees_a_hand_written_flip():
    # the sum algebra's bracket [m_j lam e_i], flipped by hand; a flip at
    # slot 1, or of a bracket, is no action flip
    source = """
def sum_algebra(l_alg, rho, m_table=None, chi=None):
    for i in range(rank_l):
        for j in range(rank_m):
            flipped = dagger_substitute(rho.act_basis(i, j, slot=2, arity=2), 2)
            out.set_bracket(rank_l + j, i, zero_l + [-c for c in flipped.coords])


def _moved(rep, i, j):
    return dagger_substitute(rep.act_basis(i, j, 2, 2), 2)


def _kept(rep, lca, i, j):
    first = dagger_substitute(rep.act_basis(i, j, slot=1, arity=2), 2)
    return first, dagger_substitute(lca.bracket_basis(i, j, slot=2, arity=2), 2)
"""
    flips = _action_flips([("lca", source)])
    assert flips == [("lca", "_moved"), ("lca", "sum_algebra")]


def _table_writes(sources=None):
    """(module, owner) of every call of a table writer: ``set_bracket``,
    ``set_action`` or a ``.set`` attribute, the setter of a table."""

    def on_attribute(call):
        return isinstance(call.func, ast.Attribute)

    return sorted(
        found
        for name in ("set_bracket", "set_action", "set")
        for found in _owners(name, sources, keep=on_attribute)
    )


def test_only_the_parser_and_the_tabulator_write_tables():
    assert _table_writes() == [
        ("cli", "_build_algebra"),
        ("cli", "_build_rep"),
        ("lca", "LCA.set_bracket"),
        ("lca", "RepTable.set_action"),
        ("lca", "StructureTable.__init__"),
        ("lca", "StructureTable._combine"),
        ("lca", "_tabulated"),
    ] + [("lca", "sum_algebra")] * 4


def test_the_table_rule_sees_a_hand_written_pull_back():
    # the pulled-back action, tabulated by hand
    source = """
def _pulled_back(rep, mapping, algebra):
    out = RepTable(algebra, rep.module)
    for i, j in product(range(algebra.module.rank), range(rep.module.rank)):
        x = mapping.apply(algebra.module.basis_elem(i))
        out.set_action(i, j, rep.act(x, rep.module.basis_elem(j)).coords)
    return out
"""
    assert _table_writes([("cohomology", source)]) == [("cohomology", "_pulled_back")]


def _evaluators_of_two_term(source):
    """The methods that ``TwoTermConformal`` defines among ``act`` and
    ``act_rev``, and the names ``homotopy`` imports as ``act_form``, in the
    source text of ``homotopy``."""
    tree = ast.parse(source)
    methods = [
        item.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ClassDef) and node.name == "TwoTermConformal"
        for item in node.body
        if isinstance(item, ast.FunctionDef) and item.name in ("act", "act_rev")
    ]
    imports = [
        alias.asname or alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
        if alias.name == "act_form"
    ]
    return methods, imports


def test_the_two_term_structure_holds_data_only():
    assert _evaluators_of_two_term(dict(_sources())["homotopy"]) == ([], [])


def test_the_two_term_rule_sees_an_evaluator_on_the_structure():
    source = """
from .cohomology import Cochain, act_form, eval_cochain


class TwoTermConformal:
    @property
    def action(self):
        return self.rep.action

    def act(self, p, m, form, arity):
        return act_form(self.action, self.l1, p, m, form, arity)

    def act_rev(self, m, p, form, arity):
        return -self.act(p, m, dagger(form), arity)
"""
    assert _evaluators_of_two_term(source) == (["act", "act_rev"], ["act_form"])


def _bindings(function, outer):
    """``outer`` updated with the names that the assignments in ``function``
    bind, each to its value, a tuple unpacked element by element."""
    bound = dict(outer)
    for node in ast.walk(function):
        if isinstance(node, ast.Assign):
            for target in node.targets:
                pairs = [(target, node.value)]
                if isinstance(target, ast.Tuple) and isinstance(node.value, ast.Tuple):
                    pairs = zip(target.elts, node.value.elts)
                bound.update((t.id, v) for t, v in pairs if isinstance(t, ast.Name))
    return bound


def _basis_valued(node, bound, depth=0):
    """Whether ``node`` is a basis element or a list of them: a call of
    ``_basis_args`` or of a ``basis_elem``, a list of such, or a name that
    ``bound`` binds to one."""
    if isinstance(node, ast.Name) and depth < 4:
        return node.id in bound and _basis_valued(bound[node.id], bound, depth + 1)
    if isinstance(node, (ast.List, ast.Tuple)):
        return bool(node.elts) and all(_basis_valued(e, bound, depth) for e in node.elts)
    if isinstance(node, ast.Call):
        func = node.func
        if isinstance(func, ast.Name):
            func = bound.get(func.id, func)
        return _calls(node, "_basis_args") or _is_attribute(func, "basis_elem")
    return False


def _basis_evaluations(sources=None):
    """(module, owner) of every ``eval_cochain`` call on basis arguments
    only: it returns the stored value, which ``Cochain.value`` reads."""
    found = []

    def visit(module, node, path, bound):
        for child in ast.iter_child_nodes(node):
            inner = bound
            if isinstance(child, ast.FunctionDef):
                inner = _bindings(child, bound)
            if _calls(child, "eval_cochain") and len(child.args) > 1:
                if _basis_valued(child.args[1], bound):
                    found.append((module, ".".join(path)))
            named = isinstance(child, (ast.FunctionDef, ast.ClassDef))
            visit(module, child, path + (child.name,) if named else path, inner)

    for module, source in _sources() if sources is None else sources:
        visit(module, ast.parse(source), (), {})
    return sorted(found)


def test_basis_values_are_read_not_evaluated():
    assert _basis_evaluations() == []
    # a cochain at mapped basis elements is read from its holder
    assert _owners("eval_cochain") == []


def test_the_basis_rule_sees_evaluations_at_basis_arguments():
    # L6, H2 and the square defect, each evaluating a stored value
    source = """
def check_2term(structure):
    def l6(*key):
        l3 = eval_cochain(t.l3, _basis_args(mod0, key), forms, 2)
        return d.apply(l3) - jacobi(*key)

    def l7(i, j, k):
        args = [basis0(i), basis0(j), d.apply(basis1(k))]
        return eval_cochain(t.l3, args, forms, 2) + representation(i, j, k)


def check_homomorphism(src, dst, f0, f1, f2):
    basis0, basis1 = mod0.basis_elem, mod1.basis_elem

    def h2(i, j):
        f2_pq = eval_cochain(f2, [basis0(i), basis0(j)], [lam1, dag1], 1)
        return dst.d.apply(f2_pq) + morphism[i, j]

    def h5(*key):
        args = _basis_args(mod0, key)
        return eval_cochain(dst.l3, [f0.apply(x) for x in args], forms, 2) - f1.apply(
            eval_cochain(src.l3, args, forms, 2)
        )


def check_homotopy_nijenhuis(structure, op):
    def square(i, j):
        p, q = mod0.basis_elem(i), mod0.basis_elem(j)
        n2_pq = eval_cochain(n2, [p, q], forms, 1)
        return t.d.apply(n2_pq) + _nijenhuis(bracket, n0, n0, p, q)

    def module(i, j):
        p, m = mod0.basis_elem(i), mod1.basis_elem(j)
        return eval_cochain(n2, [p, t.d.apply(m)], forms, 1)
"""
    assert _basis_evaluations([("homotopy", source)]) == [
        ("homotopy", "check_2term.l6"),
        ("homotopy", "check_homomorphism.h2"),
        ("homotopy", "check_homomorphism.h5"),
        ("homotopy", "check_homotopy_nijenhuis.square"),
    ]


# imports that perfbench/tests pins: the tracer must rebind each alias
_PINNED_IMPORTS = [
    ("cli", "apply_delta"),
    ("extension", "act_form"),
    ("homotopy", "eval_cochain"),
    ("wells", "solve"),
]


def _unused_imports(sources=None):
    """(module, name) of every name that a module imports and never reads;
    the package's ``__init__`` re-exports what it imports."""
    found = []
    for module, source in _sources() if sources is None else sources:
        if module == "__init__":
            continue
        tree = ast.parse(source)
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        found += [
            (module, name)
            for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom))
            and getattr(node, "module", None) != "__future__"
            for name in [(alias.asname or alias.name).split(".")[0] for alias in node.names]
            if name not in read
        ]
    return sorted(found)


def test_no_module_keeps_an_unused_import():
    assert _unused_imports() == _PINNED_IMPORTS


def test_the_import_rule_sees_an_import_left_behind():
    # the moved triple's action read through RepTable.act, with the import
    # of the evaluator it replaced left in place
    source = """
from .cohomology import Cochain, act_form, eval_cochain
from .lca import ConfLinMap, RepTable, check_morphism, _tabulated


def transform_cocycle(cocycle, pair):
    def action(i, j):
        value = cocycle.rho.act(moved[i], a_inv.apply(h_mod.basis_elem(j)))
        return pair.alpha.apply(value)

    chi = Cochain(2, cocycle.chi.rep, eval_cochain)
    rho = RepTable(cocycle.rho.algebra, h_mod, _tabulated(l_mod, h_mod, h_mod, action))
"""
    assert _unused_imports([("wells", source)]) == [
        ("wells", "ConfLinMap"),
        ("wells", "act_form"),
        ("wells", "check_morphism"),
    ]


def test_only_the_slice_builder_calls_cochain_space():
    assert _callers("cochain_space") == [("cohomology", "_slice")]


def test_one_space_of_coboundaries_and_each_slice_refused_once():
    assert _callers("_slice") == [
        ("cohomology", "_coboundaries"),
        ("cohomology", "solve_truncated"),
        ("extension", "solve_map"),
    ]
    assert _callers("_refuse_large_slices") == [
        ("cohomology", "image_contains"),
        ("cohomology", "solve_truncated"),
    ]


def test_the_slice_rules_see_a_second_convention_and_a_second_refusal():
    # the image test that truncated its preimages at the bound itself, and
    # the slice builder that refused its slice a second time
    source = """
def _slice(rep, degree, bound, operator=None, sorted_only=False):
    if operator is not None:
        _require_adjoint(rep)
    _refuse_large_slices(rep, (degree, bound))
    basis = cochain_space(rep, degree, bound)
    differential = _differential(rep, degree, operator, sorted_only=sorted_only)
    return basis, [_cochain_vector(differential(f)) for f in basis]


def image_contains(rep, bound, target, operator=None):
    from .linalg import solve

    if target.degree == 0:
        raise DegreeOverflowError("a degree-0 target has no preimages")
    _check_bound(bound)
    _, vecs = _slice(rep, target.degree - 1, bound, operator)
    return solve(vecs, _cochain_vector(target)) is not None
"""
    sources = [("cohomology", source)]
    assert _callers("_slice", sources) == [("cohomology", "image_contains")]
    assert _callers("_refuse_large_slices", sources) == [("cohomology", "_slice")]


def _cell_writers(sources=None):
    """(module, owner) of every comprehension, in the package or in the
    (module, source text) pairs ``sources``, that writes the solver's cell
    format: it enumerates an element's ``coords`` and reads a polynomial's
    ``terms.items()``, flattening values into (coordinate, monomial) cells."""

    def reads(generators, attr, call):
        return any(
            _calls(g.iter, call)
            and any(_is_attribute(arg, attr) for arg in ast.walk(g.iter))
            for g in generators
        )

    found = []

    def visit(module, node, path):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.DictComp, ast.ListComp, ast.SetComp, ast.GeneratorExp)):
                generators = child.generators
                if reads(generators, "coords", "enumerate") and reads(
                    generators, "terms", "items"
                ):
                    found.append((module, ".".join(path)))
            named = isinstance(child, (ast.FunctionDef, ast.ClassDef))
            visit(module, child, path + (child.name,) if named else path)

    for module, source in _sources() if sources is None else sources:
        visit(module, ast.parse(source), ())
    return sorted(found)


def test_one_cell_format_for_every_solve():
    assert _cell_writers() == [("cohomology", "_cells")]


def test_the_cell_rule_sees_a_map_solve_with_its_own_cells():
    # the map solve that flattened its residuals into cells of its own
    source = """
def solve_map(l_mod, h_mod, bound, residuals):
    def vector(mapping):
        return {
            (tag, key, c, mono): coeff
            for tag, res in enumerate(residuals(mapping))
            for key, value in res.items()
            for c, poly in enumerate(value.coords)
            for mono, coeff in poly.terms.items()
        }

    base = vector(ConfLinMap.zero(l_mod, h_mod))
    unknowns = [
        (r, c, e)
        for r in range(h_mod.rank)
        for c in range(l_mod.rank)
        for e in range(bound + 1)
    ]
    columns = []
    for r, c, e in unknowns:
        matrix = [[Poly.zero(0)] * l_mod.rank for _ in range(h_mod.rank)]
        matrix[r][c] = Poly(0, {(e,): Fraction(1)})
        column = vector(ConfLinMap(l_mod, h_mod, matrix))
        for key, coeff in base.items():
            column[key] = column.get(key, 0) - coeff
        columns.append(column)
    return solve(columns, {key: -coeff for key, coeff in base.items()})
"""
    assert _cell_writers([("extension", source)]) == [("extension", "solve_map.vector")]


_EVALUATORS = ("eval_bracket", "sesqui_eval", "act", "act_form", "_evaluate")


def _jacobi_evaluations(sources=None):
    """(evaluator, owner) of every evaluation inside ``lca._jacobi``."""
    return [
        (name, owner)
        for name in _EVALUATORS
        for module, owner in _owners(name, sources)
        if module == "lca" and owner.split(".")[0] == "_jacobi"
    ]


def test_the_jacobi_residual_is_the_adjoint_representation_residual():
    assert _jacobi_evaluations() == []
    assert ("lca", "_jacobi") in _callers("_representation")


def test_the_jacobi_rule_sees_a_hand_written_jacobi_residual():
    source = """
def _jacobi(lca):
    module = lca.module
    lam12 = Poly.lam(1, 3) + Poly.lam(2, 3)
    zero = module.zero(2)

    def residual(i, j, k):
        inner = lca.bracket_basis(j, k, slot=2, arity=2)
        term1 = zero
        if not inner.is_zero():
            term1 = eval_bracket(lca, module.basis_elem(i), inner, slot=1)
        inner = lca.bracket_basis(i, k, slot=1, arity=2)
        term2 = zero
        if not inner.is_zero():
            term2 = eval_bracket(lca, module.basis_elem(j), inner, slot=2)
        inner = lca.bracket_basis(i, j, slot=1, arity=3)
        term3 = zero
        if not inner.is_zero():
            outer = eval_bracket(lca, inner, module.basis_elem(k), slot=3)
            term3 = outer.substitute(3, lam12).shrink(2)
        return term1 - term2 - term3

    return residual
"""
    assert _jacobi_evaluations([("lca", source)]) == [
        ("eval_bracket", "_jacobi.residual"),
        ("eval_bracket", "_jacobi.residual"),
        ("eval_bracket", "_jacobi.residual"),
    ]


def _fn_brackets(module, sources=None):
    """(module, caller) of every call of an FN bracket in ``module``."""
    return [
        caller
        for name in ("fn_bracket", "fn_bracket_of_maps")
        for caller in _callers(name, sources)
        if caller[0] == module
    ]


def test_the_obstruction_is_read_off_the_next_order_residual():
    assert _fn_brackets("deformation") == []
    assert ("deformation", "obstruction") in _callers("_order_residuals")


def test_the_obstruction_rule_sees_the_fn_bracket_sum():
    source = """
def obstruction(series, bound=3):
    pre = check_order(series)
    if not pre.passed:
        raise PreconditionError(
            "series fails its own order conditions: %s" % pre.lines()
        )
    base = series.base
    lca = base.algebra
    rep = adjoint_rep(lca)
    k = series.order
    ob = Cochain.zero(2, rep)
    for i in range(1, k + 1):
        ob = ob + fn_bracket_of_maps(lca, series.term(i), series.term(k + 1 - i))
    ob = ob.scale(Fraction(-1, 2))
    report = Report("obstruction")
    image = apply_dN(ob, base.n)
    report.add_failures("cocycle", failures_of(image.values.items()))
    extensible = ob.is_zero() or image_contains(rep, bound, ob, operator=base.n)
    report.add_status(
        "extensibility",
        "extensible@%d" % bound if extensible else "obstructed@%d" % bound,
    )
    return ob, report
"""
    sources = [("deformation", source)]
    assert _fn_brackets("deformation", sources) == [("deformation", "obstruction")]


def test_only_the_evaluation_core_lifts_arguments():
    assert _callers("_Lifted") == [
        ("lca", "_evaluate"),
        ("lca", "_evaluate"),
    ]


def _mapping_loops(source):
    """The classes among ``_Plan`` and its subclasses, in ``source``, that
    define ``__call__``."""
    classes = {
        node.name: node
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ClassDef)
    }

    def is_plan(node):
        return node.name == "_Plan" or any(
            getattr(base, "id", None) in classes and is_plan(classes[base.id])
            for base in node.bases
        )

    return sorted(
        name
        for name, node in classes.items()
        if is_plan(node)
        and any(
            isinstance(item, ast.FunctionDef) and item.name == "__call__"
            for item in node.body
        )
    )


def test_only_the_plan_base_maps_cochains():
    sources = dict(_sources())
    assert "_Plan" in sources["cohomology"]
    assert _mapping_loops(sources["cohomology"]) == ["_Plan"]


def test_the_mapping_loop_rule_sees_a_plan_with_its_own_loop():
    source = """
class _Plan:
    def __call__(self, f, rep):
        return f


class _Coboundary(_Plan):
    def __init__(self):
        self.degree = 1


class _Insertion(_Coboundary):
    def __call__(self, K, rep):
        return K


class Report:
    def __call__(self):
        return None
"""
    assert _mapping_loops(source) == ["_Insertion", "_Plan"]


def test_only_the_expansion_and_the_plans_build_substitutions():
    # then_dagger is the helper nested in cohomology._substitutions
    assert _callers("Substitution") == [
        ("cohomology", "_substitutions"),
        ("cohomology", "then_dagger"),
        ("lca", "_expansion"),
    ]


def _cohomology_evaluators(sources=None):
    """The functions of ``cohomology`` that call ``eval_cochain``."""
    return [
        caller
        for caller in _callers("eval_cochain", sources)
        if caller[0] == "cohomology"
    ]


def test_no_function_of_cohomology_evaluates_cochains():
    assert _cohomology_evaluators() == []


def test_the_evaluation_rule_sees_a_tabulated_comparison_map():
    source = """
def xi_map(f, n_op, n_m):
    out = Cochain(f.degree, f.rep)
    for key in product(range(f.source.module.rank), repeat=f.degree):
        args = _basis_args(f.source.module, key)
        out.set_value(key, eval_cochain(f, args, _forms(f.degree, f.degree), f.degree))
    return out
"""
    assert _cohomology_evaluators([("cohomology", source)]) == [
        ("cohomology", "xi_map")
    ]


def test_the_evaluation_rule_sees_a_tabulated_insertion():
    source = """
def circ_insert(J, K):
    total = J.degree + K.degree - 1
    out, forms = Cochain(total, J.rep), _forms(total, total)
    for key in product(range(J.source.module.rank), repeat=total):
        args = _basis_args(J.source.module, key)
        inner = eval_cochain(K, args[: K.degree], forms[: K.degree], total)
        rest = args[K.degree :]
        out.set_value(key, eval_cochain(J, [inner] + rest, forms[K.degree - 1 :], total))
    return out
"""
    assert _cohomology_evaluators([("cohomology", source)]) == [
        ("cohomology", "circ_insert"),
        ("cohomology", "circ_insert"),
    ]


_DEFORMERS = [
    ("deformation", "_order_residuals.build"),
    ("nijenhuis", "_deformed_action.deformed"),
    ("nijenhuis", "_nijenhuis"),
]


def test_only_the_nijenhuis_residual_and_the_deformers_deform_a_bracket():
    assert _owners("_deformed") == _DEFORMERS
    assert _owners("_deformed_action") == [
        ("homotopy", "check_crossed_module"),
        ("nijenhuis", "deformed_table"),
    ]


def test_the_deformation_rule_sees_a_hand_written_nijenhuis_residual():
    source = """
def check_homotopy_nijenhuis(structure, op):
    def square(i, j):
        p, q = basis(i), basis(j)
        lhs = t.d.apply(eval_cochain(n2, [p, q], forms, 1))
        rhs = n0.apply(_deformed(bracket, n0, n0, n0, p, q)) - bracket(
            n0.apply(p), n0.apply(q)
        )
        return lhs - rhs

    return square
"""
    found = _owners("_deformed", [("homotopy", source)])
    assert found == [("homotopy", "check_homotopy_nijenhuis.square")]
    assert not set(found) <= set(_DEFORMERS)


def test_the_deformation_rule_sees_a_hand_written_deformed_action():
    # the deformed action rho1 of a crossed module, tabulated by hand
    source = """
def check_crossed_module(x):
    rho1 = RepTable(def_lower, mod1)
    for i, j in product(range(mod0.rank), range(mod1.rank)):
        value = _deformed(
            rho.act, lower.n, upper.n, upper.n, mod0.basis_elem(i), mod1.basis_elem(j)
        )
        rho1.set_action(i, j, value.coords)
"""
    found = _owners("_deformed", [("homotopy", source)])
    assert found == [("homotopy", "check_crossed_module")]
    assert not set(found) <= set(_DEFORMERS)


_RESIDUALS = ("_nijenhuis", "_deformed")


def _bound_names(tree, is_value):
    """The names that an assignment in ``tree`` binds to an expression that
    ``is_value`` accepts, pairing the elements of a tuple assignment."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign):
            for target in node.targets:
                pairs = [(target, node.value)]
                if isinstance(target, ast.Tuple) and isinstance(node.value, ast.Tuple):
                    pairs = zip(target.elts, node.value.elts)
                names |= {
                    t.id for t, v in pairs if isinstance(t, ast.Name) and is_value(v)
                }
    return names


def _residual_offences(sources=None):
    """(module, function, what) in every function that calls ``_nijenhuis``
    or ``_deformed``, a residual loop over basis pairs, which reads its
    images and brackets from an ``lca._BasisPairs``: each map applied to a
    basis element, each basis element passed to those residuals, which
    apply the loop's maps to it, and each bare ``partial(eval_bracket,
    ...)`` passed to them.  A basis element is a ``basis_elem`` call, or a
    name bound to one or to a ``.basis_elem`` that is then called."""
    found = set()
    for module, function in _residual_loops(sources):
        readers = _bound_names(function, lambda v: _is_attribute(v, "basis_elem"))

        def is_basis(node):
            called = getattr(node, "func", None)
            return _calls(node, "basis_elem") or getattr(called, "id", None) in readers

        elements = _bound_names(function, is_basis)
        brackets = _bound_names(function, _is_bare_bracket)
        for node in ast.walk(function):
            if not isinstance(node, ast.Call):
                continue
            basis = [
                a for a in node.args if is_basis(a) or getattr(a, "id", None) in elements
            ]
            residual = any(_calls(node, name) for name in _RESIDUALS)
            if _calls(node, "apply") and basis:
                found.add((module, function.name, "applies a map to a basis element"))
            if residual and basis:
                found.add((module, function.name, "passes a basis element"))
            first = node.args[0] if residual and node.args else None
            if _is_bare_bracket(first) or getattr(first, "id", None) in brackets:
                found.add((module, function.name, "passes a bare bracket"))
    return sorted(found)


def _residual_loops(sources=None):
    """(module, function) of every function that calls ``_nijenhuis`` or
    ``_deformed``, nested ones too."""
    return [
        (module, node)
        for module, source in (_sources() if sources is None else sources)
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.FunctionDef)
        and any(_calls(call, name) for call in ast.walk(node) for name in _RESIDUALS)
    ]


def _is_bare_bracket(node):
    """Whether ``node`` is a call ``partial(eval_bracket, ...)``."""
    return (
        _calls(node, "partial")
        and bool(node.args)
        and getattr(node.args[0], "id", None) == "eval_bracket"
    )


def test_residual_loops_read_images_and_brackets_from_their_holder():
    assert _residual_offences() == []
    # the rule reads the loops it is meant for
    loops = {(module, function.name) for module, function in _residual_loops()}
    assert {
        ("deformation", "_order_residuals"),
        ("homotopy", "check_homotopy_nijenhuis"),
        ("nijenhuis", "_deformed_action"),
        ("nijenhuis", "_nijenhuis_failures"),
        ("nijenhuis", "check_nij_representation"),
    } <= loops


def test_the_holder_rule_sees_residuals_that_apply_maps_to_the_basis():
    # the Nijenhuis failures and the order residuals that evaluated their
    # brackets afresh for every pair
    source = """
def _nijenhuis_failures(lca, n, pairs):
    basis, bracket = lca.module.basis_elem, partial(eval_bracket, lca)
    return failures_of(
        ((i, j), _nijenhuis(bracket, n, n, basis(i), basis(j))) for i, j in pairs
    )


def _order_residuals(series, n):
    module = series.base.algebra.module
    bracket = partial(eval_bracket, series.base.algebra)
    maps = [series.term(i) for i in range(n + 1)]
    residuals = {}
    for a, b in product(range(module.rank), repeat=2):
        pa, qb = module.basis_elem(a), module.basis_elem(b)
        lhs = rhs = module.zero(1)
        for left, right in zip(maps, reversed(maps)):
            lhs = lhs + bracket(left.apply(pa), right.apply(qb))
            rhs = rhs + left.apply(_deformed(bracket, right, right, right, pa, qb))
        residuals[a, b] = lhs - rhs
    return residuals
"""
    assert _residual_offences([("nijenhuis", source)]) == [
        ("nijenhuis", "_nijenhuis_failures", "passes a bare bracket"),
        ("nijenhuis", "_nijenhuis_failures", "passes a basis element"),
        ("nijenhuis", "_order_residuals", "applies a map to a basis element"),
        ("nijenhuis", "_order_residuals", "passes a bare bracket"),
        ("nijenhuis", "_order_residuals", "passes a basis element"),
    ]


def _extension_evaluators(sources=None):
    """(name, owner) of every call of ``eval_bracket`` or ``act_form`` in
    ``extension`` and ``wells``."""
    return [
        (name, owner)
        for name in ("act_form", "eval_bracket")
        for owner in _owners(name, sources)
        if owner[0] in ("extension", "wells")
    ]


def test_one_morphism_residual_behind_tau_and_eta():
    # the chi of an extracted triple is minus the section's morphism
    # residual; L4 and peiffer-1 are the intertwining of an action with a
    # bracket, and H2, H3 and H4 the morphism residuals of f0 and f1
    assert _owners("_morphism") == [
        ("extension", "_map_residuals.residuals"),
        ("extension", "_map_residuals.residuals"),
        ("extension", "extract_cocycle"),
        ("homotopy", "check_2term"),
        ("homotopy", "check_crossed_module.peiffer"),
        ("homotopy", "check_homomorphism"),
        ("homotopy", "check_homomorphism"),
        ("homotopy", "check_homomorphism"),
        ("lca", "check_morphism"),
    ]
    assert _extension_evaluators() == []


def test_the_morphism_rule_sees_a_hand_written_lift_residual():
    source = '''
def _lift_residuals(ext, gamma):
    """Automorphism defect of the lift gamma, split by argument type.

    ``action``   -- morphism residual on (section, inclusion) pairs;
    ``bracket``  -- morphism residual on (section, section) pairs;
    ``operator`` -- (gamma R - R gamma) on section images.
    With the pair itself valid, these are exactly the three lifting
    conditions on eta.
    """
    total = ext.total
    l_mod = ext.quot.algebra.module
    h_mod = ext.sub.algebra.module
    e_mod = total.algebra.module
    rep = RepTable(ext.quot.algebra, e_mod)

    action_res = Cochain(2, rep)
    bracket_res = Cochain(2, rep)
    sections = [
        ext.section.apply(l_mod.basis_elem(i)) for i in range(l_mod.rank)
    ]
    included = [ext.inc.apply(h_mod.basis_elem(j)) for j in range(h_mod.rank)]
    g_sections = [gamma.apply(x) for x in sections]
    g_included = [gamma.apply(x) for x in included]
    for i in range(l_mod.rank):
        for j in range(h_mod.rank):
            residual = gamma.apply(
                eval_bracket(total.algebra, sections[i], included[j])
            ) - eval_bracket(total.algebra, g_sections[i], g_included[j])
            action_res.set_value((i, j), residual)
        for j in range(l_mod.rank):
            residual = gamma.apply(
                eval_bracket(total.algebra, sections[i], sections[j])
            ) - eval_bracket(total.algebra, g_sections[i], g_sections[j])
            bracket_res.set_value((i, j), residual)

    operator_res = Cochain(1, rep)
    defect = gamma.compose(total.n) - total.n.compose(gamma)
    for i in range(l_mod.rank):
        operator_res.set_value((i,), defect.apply(sections[i]))
    return action_res, bracket_res, operator_res
'''
    assert _extension_evaluators([("wells", source)]) == [
        ("eval_bracket", ("wells", "_lift_residuals")),
        ("eval_bracket", ("wells", "_lift_residuals")),
        ("eval_bracket", ("wells", "_lift_residuals")),
        ("eval_bracket", ("wells", "_lift_residuals")),
    ]


# the arguments of an evaluator that are elements: eval_bracket(lca, a, b),
# RepTable.act(p, m), sesqui_eval and act_form(table, target, a, b, ...),
# and the list of eval_cochain(f, args, forms, arity)
_ELEMENT_ARGS = {"eval_bracket": (1, 2), "act": (0, 1), "sesqui_eval": (2, 3),
                 "act_form": (2, 3), "eval_cochain": (1,)}


def _mapped_basis(node, bound, depth=0):
    """Whether ``node`` is a basis element or a map's image of one, or a
    list of them: what ``_basis_valued`` accepts, a ``.apply`` of one, a
    holder's ``.element`` (a held image), a list of such, an item of such a
    list, a comprehension over one or building them, either branch of a
    conditional, or a name that ``bound`` binds to one."""
    if depth > 16:
        return False
    if isinstance(node, ast.Name):
        return node.id in bound and _mapped_basis(bound[node.id], bound, depth + 1)
    if isinstance(node, (ast.List, ast.Tuple)):
        return bool(node.elts) and all(_mapped_basis(e, bound, depth + 1) for e in node.elts)
    if _calls(node, "element"):
        return True
    if isinstance(node, ast.Subscript):
        return _mapped_basis(node.value, bound, depth + 1)
    if isinstance(node, ast.IfExp):
        return any(_mapped_basis(n, bound, depth + 1) for n in (node.body, node.orelse))
    if isinstance(node, (ast.ListComp, ast.GeneratorExp)):
        inner = dict(bound)
        for generator in node.generators:
            target, items = generator.target, generator.iter
            if _calls(items, "enumerate") and isinstance(target, ast.Tuple):
                target, items = target.elts[-1], items.args[0]
            if isinstance(target, ast.Name):
                inner[target.id] = ast.Subscript(value=items, slice=ast.Constant(0))
        return _mapped_basis(node.elt, inner, depth + 1)
    if _calls(node, "apply") and node.args:
        return _mapped_basis(node.args[-1], bound, depth + 1)
    return _basis_valued(node, bound)


def _basis_pair_evaluations(sources=None):
    """(module, owner, evaluator) of every call of ``eval_bracket``,
    ``act``, ``sesqui_eval``, ``act_form`` or ``eval_cochain`` outside
    ``lca._BasisPairs`` whose element arguments are each a basis element or
    a map's image of one (see :func:`_mapped_basis`): such a value is read
    from a holder."""
    found = []

    def visit(module, node, path, bound):
        for child in ast.iter_child_nodes(node):
            inner = bound
            if isinstance(child, ast.FunctionDef):
                inner = _bindings(child, bound)
            for name, places in _ELEMENT_ARGS.items():
                if not _calls(child, name) or path[:1] == ("_BasisPairs",):
                    continue
                args = [child.args[k] for k in places if k < len(child.args)]
                if len(args) == len(places) and all(_mapped_basis(a, inner) for a in args):
                    found.append((module, ".".join(path), name))
            named = isinstance(child, (ast.FunctionDef, ast.ClassDef))
            visit(module, child, path + (child.name,) if named else path, inner)

    for module, source in _sources() if sources is None else sources:
        visit(module, ast.parse(source), (), {})
    return sorted(found)


def test_basis_pairs_are_read_from_their_holder():
    assert _basis_pair_evaluations() == []
    # the holder itself evaluates what it holds, through the evaluation core
    assert ("lca", "_BasisPairs.at") in _owners("_evaluate")


def test_the_holder_read_rule_sees_evaluations_at_mapped_basis_elements():
    # the evaluations at mapped basis elements that the holder replaced
    sources = [("lca", """
def _morphism(src, dst, left=None, right=None):
    on_basis = left is None
    if on_basis:
        left = right = [src.module.basis_elem(i) for i in range(src.module.rank)]
    brackets = {
        (i, j): src.bracket_basis(i, j) if on_basis else eval_bracket(src, x, y)
        for (i, x), (j, y) in product(enumerate(left), enumerate(right))
    }

    def residuals(mapping):
        image_left = [mapping.apply(x) for x in left]
        image_right = image_left if right is left else [mapping.apply(y) for y in right]
        return {
            (i, j): mapping.apply(value)
            - eval_bracket(dst, image_left[i], image_right[j], slot=1)
            for (i, j), value in brackets.items()
        }

    return residuals


def _intertwining(rep, mapping):
    algebra, module = rep.algebra, rep.module

    def residual(i, j):
        e, m = algebra.module.basis_elem(i), module.basis_elem(j)
        return mapping.apply(rep.act(e, m)) - eval_bracket(algebra, e, mapping.apply(m))

    return residual
"""), ("homotopy", """
def check_2term(structure):
    basis0, basis1 = mod0.basis_elem, mod1.basis_elem

    def l5(i, j):
        m, n = basis1(i), basis1(j)
        mixed = sesqui_eval(flipped, mod1, m, d.apply(n), lam1, 1)
        return t.rep.act(d.apply(m), n) - mixed


def check_homomorphism(src, dst, f0, f1, f2):
    basis0, basis1 = mod0.basis_elem, mod1.basis_elem

    def h3(i, j):
        p, m = basis0(i), basis1(j)
        lhs = eval_cochain(f2, [p, src.d.apply(m)], [lam1, dag1], 1)
        rhs = -f1.apply(src.rep.act(p, m)) + dst.rep.act(f0.apply(p), f1.apply(m))
        return lhs - rhs

    def h4(i, j):
        m, p = basis1(i), basis0(j)
        mixed = sesqui_eval(src_flipped, mod1, m, p, lam1, 1)
        image = sesqui_eval(dst_flipped, dst.l1, f1.apply(m), f0.apply(p), lam1, 1)
        return lhs + f1.apply(mixed) - image


def strict_to_crossed(structure, op):
    def upper_bracket(i, j):
        return structure.rep.act(d.apply(mod1.basis_elem(i)), mod1.basis_elem(j))
"""), ("extension", """
def extract_cocycle(ext, section=None):
    sections = [section.apply(l_mod.basis_elem(i)) for i in range(l_mod.rank)]

    def action(i, j):
        value = eval_bracket(total, sections[i], ext.inc.apply(h_mod.basis_elem(j)))
        return to_h(value, "rho(%d,%d)" % (i, j))
"""), ("cohomology", """
def _pulled_back(rep, mapping, algebra):
    def pulled(i, j):
        x = mapping.apply(algebra.module.basis_elem(i))
        return rep.act(x, rep.module.basis_elem(j))
""")]
    assert _basis_pair_evaluations(sources) == [
        ("cohomology", "_pulled_back.pulled", "act"),
        ("extension", "extract_cocycle.action", "eval_bracket"),
        ("homotopy", "check_2term.l5", "act"),
        ("homotopy", "check_2term.l5", "sesqui_eval"),
        ("homotopy", "check_homomorphism.h3", "act"),
        ("homotopy", "check_homomorphism.h3", "act"),
        ("homotopy", "check_homomorphism.h3", "eval_cochain"),
        ("homotopy", "check_homomorphism.h4", "sesqui_eval"),
        ("homotopy", "check_homomorphism.h4", "sesqui_eval"),
        ("homotopy", "strict_to_crossed.upper_bracket", "act"),
        ("lca", "_intertwining.residual", "act"),
        ("lca", "_intertwining.residual", "eval_bracket"),
        ("lca", "_morphism.residuals", "eval_bracket"),
    ]


# the cochain evaluations at mapped basis elements that the holder replaced:
# L7, H3, H4, H5, the module defect and the moved chi
_HAND_WRITTEN_COCHAIN_READS = [("homotopy", """
def check_2term(structure):
    basis0 = mod0.basis_elem
    la, mu = Poly.lam(1, 2), Poly.lam(2, 2)
    forms = [la, mu, dagger(la + mu)]

    def l7(i, j, k):
        args = [basis0(i), basis0(j), action.element(on_action, k)]
        return eval_cochain(t.l3, args, forms, 2) + representation(i, j, k)


def check_homomorphism(src, dst, f0, f1, f2):
    basis0, basis1 = mod0.basis_elem, mod1.basis_elem
    lam1 = Poly.lam(1, 1)
    dag1 = dagger(lam1)

    def h3(i, j):
        lhs = eval_cochain(f2, [basis0(i), src.d.apply(basis1(j))], [lam1, dag1], 1)
        return lhs + intertwining(i, j)

    def h4(i, j):
        lhs = eval_cochain(f2, [src.d.apply(basis1(i)), basis0(j)], [lam1, dag1], 1)
        return lhs + mixed(i, j)

    def h5(*key):
        images = [bracket.element(on_f0, k) for k in key]
        lhs = eval_cochain(dst.l3, images, forms, 2) - f1.apply(src.l3.value(key))
        return lhs - delta_f2.value(key)


def check_homotopy_nijenhuis(structure, op):
    forms = [Poly.lam(1, 1), dagger(Poly.lam(1, 1))]

    def module(i, j):
        dm = action.element(d, j)
        n2_pdm = eval_cochain(n2, [mod0.basis_elem(i), dm], forms, 1)
        return n2_pdm + _nijenhuis(action, on_mod0, on_mod1, i, j)
"""), ("wells", """
def transform_cocycle(cocycle, pair):
    lam1 = Poly.lam(1, 1)
    dag1 = dagger(lam1)
    for i, j in product(range(l_mod.rank), repeat=2):
        args = [held.element(on_l, i), held.element(on_l, j)]
        value = eval_cochain(cocycle.chi, args, [lam1, dag1], 1)
        chi.set_value((i, j), pair.alpha.apply(value))
""")]


def test_the_holder_read_rule_sees_cochains_evaluated_at_mapped_basis_elements():
    assert _basis_pair_evaluations(_HAND_WRITTEN_COCHAIN_READS) == [
        ("homotopy", "check_2term.l7", "eval_cochain"),
        ("homotopy", "check_homomorphism.h3", "eval_cochain"),
        ("homotopy", "check_homomorphism.h4", "eval_cochain"),
        ("homotopy", "check_homomorphism.h5", "eval_cochain"),
        ("homotopy", "check_homotopy_nijenhuis.module", "eval_cochain"),
        ("wells", "transform_cocycle", "eval_cochain"),
    ]


# the modules that may build a lambda-form: the polynomials, the parser, the
# evaluation layer and the cochain operators
_FORM_BUILDERS = ("poly", "grammar", "lca", "cohomology")


def _form_builds(sources=None):
    """(module, owner, name) of every call of ``Poly.lam`` or ``dagger``
    outside ``_FORM_BUILDERS``: a lambda-form written by hand, where the
    evaluation layer's holder picks the forms itself."""
    return sorted(
        (module, owner, name)
        for name in ("lam", "dagger")
        for module, owner in _owners(name, sources)
        if module not in _FORM_BUILDERS
    )


def test_only_the_evaluation_layers_build_lambda_forms():
    assert _form_builds() == []


def test_the_form_rule_sees_forms_written_by_hand():
    assert _form_builds(_HAND_WRITTEN_COCHAIN_READS) == [
        ("homotopy", "check_2term", "dagger"),
        ("homotopy", "check_2term", "lam"),
        ("homotopy", "check_2term", "lam"),
        ("homotopy", "check_homomorphism", "dagger"),
        ("homotopy", "check_homomorphism", "lam"),
        ("homotopy", "check_homotopy_nijenhuis", "dagger"),
        ("homotopy", "check_homotopy_nijenhuis", "lam"),
        ("homotopy", "check_homotopy_nijenhuis", "lam"),
        ("wells", "transform_cocycle", "dagger"),
        ("wells", "transform_cocycle", "lam"),
    ]


def test_only_the_map_solver_and_the_image_test_call_solve():
    assert _callers("solve") == [
        ("cohomology", "image_contains"),
        ("extension", "solve_map"),
    ]


_CONTAINERS = (ast.Dict, ast.List, ast.Set, ast.DictComp, ast.ListComp, ast.SetComp)
_CONTAINER_CALLS = {"dict", "list", "set", "defaultdict", "OrderedDict", "Counter"}
_MUTATORS = {
    "append", "extend", "insert", "update", "setdefault", "pop", "popitem",
    "clear", "remove", "add", "discard", "sort", "reverse",
}


def _module_containers(tree):
    """Names bound at module level to a mutable container."""
    names = set()
    for node in tree.body:
        targets = (
            node.targets if isinstance(node, ast.Assign)
            else [node.target] if isinstance(node, ast.AnnAssign) and node.value
            else []
        )
        value = getattr(node, "value", None)
        if isinstance(value, _CONTAINERS) or (
            isinstance(value, ast.Call)
            and getattr(value.func, "id", getattr(value.func, "attr", None))
            in _CONTAINER_CALLS
        ):
            names.update(t.id for t in targets if isinstance(t, ast.Name))
    return names


def _cache_offences(tree):
    """(line, what) of every module-level cache in a module's syntax tree."""
    containers = _module_containers(tree)
    functions = [
        n for n in ast.walk(tree) if isinstance(n, (ast.FunctionDef, ast.Lambda))
    ]
    offences = []
    for function in functions:
        for decorator in getattr(function, "decorator_list", []):
            target = decorator.func if isinstance(decorator, ast.Call) else decorator
            name = getattr(target, "id", getattr(target, "attr", None))
            if name in ("lru_cache", "cache"):
                offences.append((decorator.lineno, "a %s decorator" % name))
        for node in ast.walk(function):
            if isinstance(node, ast.Global):
                offences.append((node.lineno, "rebinds %s" % ", ".join(node.names)))
            written = None
            if isinstance(node, ast.Subscript) and isinstance(node.ctx, (ast.Store, ast.Del)):
                written = node.value
            elif isinstance(node, ast.AugAssign):
                written = node.target
            elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
                if node.func.attr in _MUTATORS:
                    written = node.func.value
            if isinstance(written, ast.Name) and written.id in containers:
                offences.append((node.lineno, "writes the module's %s" % written.id))
    # a nested function is walked with its enclosing one too
    return sorted(set(offences))


def test_no_module_level_cache():
    offences = []
    for path in SOURCES:
        with open(path) as handle:
            tree = ast.parse(handle.read())
        offences += [
            "%s:%d %s" % (os.path.basename(path), line, what)
            for line, what in _cache_offences(tree)
        ]
    assert offences == []


def test_the_cache_rule_sees_each_kind_of_module_level_cache():
    source = """
import functools
_MEMO = {}
_SEEN = []
_TOTAL = 0

@functools.lru_cache(maxsize=None)
def cached(x):
    return x

def memo(x):
    _MEMO[x] = x
    _SEEN.append(x)
    global _TOTAL
    _TOTAL += 1

def local(x):
    table = {}
    table[x] = x
    return table
"""
    assert sorted(what for _, what in _cache_offences(ast.parse(source))) == [
        "a lru_cache decorator",
        "rebinds _TOTAL",
        "writes the module's _MEMO",
        "writes the module's _SEEN",
    ]


def _is_attribute(node, attr):
    return isinstance(node, ast.Attribute) and node.attr == attr


def _writes(tree, attr):
    """(line, kind, owner) of every write of an attribute ``attr`` in a
    module's syntax tree: kind "binds" when ``x.attr`` itself is assigned or
    deleted, "writes" when one of its items is, or a mutating method is
    called on it; owner is the path of class and function names around it."""
    found = []

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                visit(child, owner + (child.name,))
                continue
            stored = isinstance(getattr(child, "ctx", None), (ast.Store, ast.Del))
            if stored and _is_attribute(child, attr):
                found.append((child.lineno, "binds", owner))
            written = (
                stored
                and isinstance(child, ast.Subscript)
                and _is_attribute(child.value, attr)
            ) or (
                isinstance(child, ast.Call)
                and isinstance(child.func, ast.Attribute)
                and child.func.attr in _MUTATORS
                and _is_attribute(child.func.value, attr)
            )
            if written:
                found.append((child.lineno, "writes", owner))
            visit(child, owner)

    visit(tree, ())
    return found


def _stamp_offences(tree):
    """(line, what) of every write of a table's ``.entries`` outside
    ``StructureTable.set`` (bar its binding in ``StructureTable.__init__``),
    and of every binding of ``.table`` or ``.action`` outside an
    ``__init__``: a write that skips ``set`` would not bump the version
    that what ``lca._held`` holds is stamped with (a representation's
    plans, an algebra's check and skew verdicts)."""
    offences = [
        (line, "%s .entries" % kind)
        for line, kind, owner in _writes(tree, "entries")
        if owner[-2:] != ("StructureTable", "__init__" if kind == "binds" else "set")
    ]
    offences += [
        (line, "binds .%s" % attr)
        for attr in ("table", "action")
        for line, kind, owner in _writes(tree, attr)
        if kind == "binds" and owner[-1:] != ("__init__",)
    ]
    return sorted(offences)


def _values_offences(tree):
    """(line, what) of every write of a cochain's ``.values`` outside
    ``Cochain.set_value`` (bar its binding in ``Cochain.__init__``): a write
    that skips ``set_value`` would leave the insertion plans that the
    cochain holds reading its old values."""
    return sorted(
        (line, "%s .values" % kind)
        for line, kind, owner in _writes(tree, "values")
        if owner[-2:] != ("Cochain", "__init__" if kind == "binds" else "set_value")
    )


def test_only_the_table_setter_writes_entries():
    offences = []
    for path in SOURCES:
        with open(path) as handle:
            tree = ast.parse(handle.read())
        offences += [
            "%s:%d %s" % (os.path.basename(path), line, what)
            for line, what in _stamp_offences(tree)
        ]
    assert offences == []


def test_the_entries_rule_sees_each_kind_of_write():
    source = """
class StructureTable:
    def __init__(self):
        self.entries = {}

    def set(self, key, value):
        self.entries[key] = value
        self.entries.pop(key, None)


class RepTable:
    def __init__(self, algebra, action):
        self.algebra = algebra
        self.action = action


def poke(table, rep):
    table.entries[0, 0] = []
    del table.entries[0, 0]
    table.entries.pop((0, 0))
    table.entries.update({})
    table.entries.clear()
    table.entries = {}
    rep.action = table
    rep.algebra.table = table
"""
    assert [what for _, what in _stamp_offences(ast.parse(source))] == [
        "writes .entries",
        "writes .entries",
        "writes .entries",
        "writes .entries",
        "writes .entries",
        "binds .entries",
        "binds .action",
        "binds .table",
    ]


def test_only_the_cochain_setter_writes_values():
    offences = []
    for path in SOURCES:
        with open(path) as handle:
            tree = ast.parse(handle.read())
        offences += [
            "%s:%d %s" % (os.path.basename(path), line, what)
            for line, what in _values_offences(tree)
        ]
    assert offences == []


def test_the_values_rule_sees_each_kind_of_write():
    source = """
class Cochain:
    def __init__(self):
        self.values = {}

    def set_value(self, key, value):
        self.values[key] = value
        self.values.pop(key, None)


def poke(f, g):
    f.values[0, 0] = None
    del f.values[0, 0]
    f.values.pop((0, 0))
    f.values.update(g.values)
    f.values.clear()
    f.values = {}
    return list(g.values.values())
"""
    assert [what for _, what in _values_offences(ast.parse(source))] == [
        "writes .values",
        "writes .values",
        "writes .values",
        "writes .values",
        "writes .values",
        "binds .values",
    ]


def _holder_offences(tree, module):
    """(line, what) of every read or write of an attribute ``_plans`` in the
    package's ``module`` outside ``lca._held`` and ``Cochain.set_value``;
    of every write of ``.checked``, ``._skew`` or ``._lifted``, a cache an
    object would keep of its own data beside ``_plans``; and, in
    ``cohomology``, of every binding of ``.stamp``, ``.n_op`` or ``.n_m`` on
    a plan (a NijenhuisRep holds its own n_m): a lookup of its own would
    bring its own key scheme and staleness rule."""
    exempt = {("lca", ("_held",)), ("cohomology", ("Cochain", "set_value"))}
    plan_fields = ("stamp", "n_op", "n_m") if module == "cohomology" else ()
    found = [
        (line, "%s .%s" % (kind, attr))
        for attr in ("checked", "_skew", "_lifted")
        for line, kind, _ in _writes(tree, attr)
    ]

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                visit(child, owner + (child.name,))
                continue
            if _is_attribute(child, "_plans") and (module, owner) not in exempt:
                found.append((child.lineno, "._plans in %s" % ".".join(owner)))
            stored = isinstance(getattr(child, "ctx", None), ast.Store)
            if stored and isinstance(child, ast.Attribute):
                if child.attr in plan_fields:
                    found.append((child.lineno, "binds .%s" % child.attr))
            visit(child, owner)

    visit(tree, ())
    return sorted(found)


def test_only_the_holder_reads_or_writes_plans():
    holders = [
        module
        for module, source in _sources()
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.FunctionDef) and node.name == "_held"
    ]
    assert holders == ["lca"]
    offences = [
        "%s:%d %s" % (module, line, what)
        for module, source in _sources()
        for line, what in _holder_offences(ast.parse(source), module)
    ]
    assert offences == []


def test_the_holder_rule_sees_a_hand_written_lookup():
    # the orbit fill and the coboundary lookup, each with a key scheme and a
    # staleness rule of its own
    source = """
def _filled(rep, image, sorted_only):
    if sorted_only and image.degree > 1:
        held = rep._plans.get(("orbit", image.degree))
        if held is None:
            held = rep._plans["orbit", image.degree] = _Orbit(rep, image.degree)
        held(image, rep, out=image)
        image._skew = True
    return image


def _differential(rep, degree, n_op=None, n_m=None, sorted_only=False):
    plans = rep._plans
    stamp = rep.algebra.table.stamp + rep.action.stamp

    def plan(operator):
        held = plans.get(degree)
        if held is None or held.stamp != stamp or held.n_op is not operator:
            held = plans[degree] = _Coboundary(rep, degree)
            held.stamp, held.n_op = stamp, operator
        return held
"""
    assert _holder_offences(ast.parse(source), "cohomology") == [
        (4, "._plans in _filled"),
        (6, "._plans in _filled"),
        (8, "binds ._skew"),
        (13, "._plans in _differential"),
        (20, "binds .n_op"),
        (20, "binds .stamp"),
    ]


def test_the_holder_rule_sees_each_cache_kept_beside_it():
    # the parent's caches: a holder in cohomology, an algebra's checked
    # stamp, a cochain's skew answer, set by its test and by the orbit
    # fill, and a map's lifted rows
    source = """
def _held(owner, key, build, *sources):
    if owner._plans is None:
        owner._plans = {}
    held = owner._plans.get(key)
    if held is None or held[0] != sources:
        held = owner._plans[key] = sources, build()
    return held[1]


class NijenhuisLCA:
    def __init__(self, algebra, n):
        if algebra.checked != algebra.table.stamp:
            if not check_lca(algebra).passed:
                raise PreconditionError("underlying algebra fails check_lca")
            algebra.checked = algebra.table.stamp


def _is_skew(f):
    if f._skew is None:
        f._skew = f.degree < 2 or check_cochain_skew(f).passed
    return f._skew


def _filled(rep, image, sorted_only):
    n = image.degree
    if sorted_only and n > 1:
        _held(rep, ("orbit", n), lambda: _Orbit(rep, n))(image, rep, out=image)
        image._skew = True
    return image


class ConfLinMap:
    def apply(self, elem):
        arity, coords = elem.arity, elem.coords
        rows = self._lifted.get(arity)
        if rows is None:
            rows = self._lifted[arity] = [
                [(k, entry.with_arity(arity)) for k, entry in enumerate(row) if entry]
                for row in self.matrix
            ]
        return rows
"""
    assert _holder_offences(ast.parse(source), "cohomology") == [
        (3, "._plans in _held"),
        (4, "._plans in _held"),
        (5, "._plans in _held"),
        (7, "._plans in _held"),
        (16, "binds .checked"),
        (21, "binds ._skew"),
        (29, "binds ._skew"),
        (38, "writes ._lifted"),
    ]
    # in lca the same holder is the one allowed
    assert _holder_offences(ast.parse(source), "lca") == [
        (16, "binds .checked"),
        (21, "binds ._skew"),
        (29, "binds ._skew"),
        (38, "writes ._lifted"),
    ]


def test_readme_grammar_names_every_block_kind_and_option():
    with open(os.path.join(ROOT, "README.md")) as handle:
        readme = handle.read()
    section = readme.split("### Workspace grammar", 1)[1].split("\n## ", 1)[0]
    names = [
        name
        for kind, (options, _, _) in cli._BLOCKS.items()
        for name in [kind] + [option.key for option in options]
    ]
    assert [name for name in names if "`%s`" % name not in section] == []
