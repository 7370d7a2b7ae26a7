"""Source-level rules: one failure collector and one witness format, one
validation of a Nijenhuis structure, one builder of solver slices and one
space of coboundaries, one obstruction, one solver for a map L -> H, one
evaluation core and one expansion, and a documented workspace grammar.

Every axiom check turns its (tuple, residual) pairs into failures through
``report.failures_of`` and adds them through a ``Report`` method, which
names the least failing tuple in the one ``at=... residual=[...]`` format of
``report.first_witness``.  A module that formats that witness itself, or
appends to a failure list by hand, has grown a second copy of this logic.
A Nijenhuis structure from outside is validated once, by the constructor of
``NijenhuisLCA``; the builders of totals trust their own checks and package
the total with ``NijenhuisLCA.raw`` (pinned by ``tests/test_totals.py``), so
no module calls the validating constructor.  ``cochain_space(`` is called
only from ``cohomology._slice``, the one slice builder, which maps every
basis cochain through one plan of the differential.  ``_slice(`` is called
only by ``solve_truncated`` and by ``_coboundaries``, the one space of
coboundaries and so the one truncation convention, which
``image_contains`` reads too; so no caller of the solver keeps a slice of
its own.  Each slice is refused once, before any is built:
``_refuse_large_slices(`` is called only by ``solve_truncated`` and
``image_contains``.  ``linalg.solve`` is called only from
``extension.solve_map``, the one solver for a map L -> H (the tau of an
equivalence and the eta of a lift), and from ``cohomology.image_contains``,
which tests a target against the coboundaries ``solve_truncated`` counts.
One obstruction: ``deformation`` calls neither ``fn_bracket`` nor
``fn_bracket_of_maps``, since the obstruction is minus the next-order
residual of ``deformation._order_residuals``; the FN bracket is the
oracle that the tests hold it to.
Tables and cochains share one evaluator: ``_Lifted(`` is called only by
``lca._evaluate``, the evaluation core.  One coboundary formula: the
coboundary plan is two insertions, of f into the flipped action and of the
bracket cochain into f, so ``cohomology._inserted`` is called only by
``_Insertion.__init__`` and twice by ``_Coboundary.__init__``, and in
``cohomology`` only ``_left_bracket`` calls ``act_form``.  The action flip
[m lam x] = -rho(x)_{-del-lam} m, a ``dagger_substitute`` of an
``act_basis(..., slot=2, ...)``, is written only in ``lca._flipped_action``,
which the coboundary and ``lca.sum_algebra`` read.
``_Coboundary.__init__`` takes no operator, and the twisted coboundary and
H5 are that plan over a pulled-back action, so ``cohomology._pulled_back``
is called only by ``_differential`` and ``homotopy.check_homomorphism``,
and in ``homotopy`` only ``TwoTermConformal.act`` calls ``act_form``.  The
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
one of them tuple by tuple would be a second code path.
``nijenhuis._deformed``, the deformed bracket, is called only by
``nijenhuis._nijenhuis``, the one residual of the Nijenhuis identity over a
bracket or an action, by ``nijenhuis.deformed_table``, by
``deformation._order_residuals`` and by ``homotopy.check_crossed_module``
for its deformed action; so no check writes that identity a second time.
Likewise ``lca._morphism``, the residual of a morphism of algebras, is
called only by ``lca.check_morphism``, ``homotopy.check_homomorphism`` and
``extension._map_residuals``, the one residual of a Nijenhuis morphism
between extension totals, which both the tau of an equivalence and the eta
of a lift read.  In ``extension`` and ``wells`` no other function evaluates
a bracket by hand: ``eval_bracket`` is called only by
``extension.extract_cocycle`` and ``act_form`` only by
``wells.transform_cocycle``.
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
bound only in ``Cochain.__init__``.
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
    assert _action_flips() == [("lca", "_flipped_action")]
    assert _owners("_flipped_action") == [
        ("cohomology", "_Coboundary.__init__"),
        ("lca", "sum_algebra"),
    ]
    assert _owners("_pulled_back") == [
        ("cohomology", "_differential.plan"),
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
    assert _actors("homotopy") == ["TwoTermConformal.act"]


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


def test_only_the_slice_builder_calls_cochain_space():
    assert _callers("cochain_space") == [("cohomology", "_slice")]


def test_one_space_of_coboundaries_and_each_slice_refused_once():
    assert _callers("_slice") == [
        ("cohomology", "_coboundaries"),
        ("cohomology", "solve_truncated"),
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
    ("deformation", "_order_residuals"),
    ("homotopy", "check_crossed_module"),
    ("nijenhuis", "_nijenhuis"),
    ("nijenhuis", "deformed_table"),
]


def test_only_the_nijenhuis_residual_and_the_deformers_deform_a_bracket():
    assert _callers("_deformed") == _DEFORMERS


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
    found = _callers("_deformed", [("homotopy", source)])
    assert found == [("homotopy", "square")]
    assert not set(found) <= set(_DEFORMERS)


def _extension_evaluators(sources=None):
    """(name, caller) of every call of ``eval_bracket`` or ``act_form`` in
    ``extension`` and ``wells``."""
    return [
        (name, caller)
        for name in ("act_form", "eval_bracket")
        for caller in _callers(name, sources)
        if caller[0] in ("extension", "wells")
    ]


def test_one_morphism_residual_behind_tau_and_eta():
    assert _callers("_morphism") == [
        ("extension", "_map_residuals"),
        ("extension", "_map_residuals"),
        ("homotopy", "check_homomorphism"),
        ("lca", "check_morphism"),
    ]
    assert _extension_evaluators() == [
        ("act_form", ("wells", "transform_cocycle")),
        ("eval_bracket", ("extension", "extract_cocycle")),
        ("eval_bracket", ("extension", "extract_cocycle")),
    ]


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
    that held coboundary plans and ``LCA.checked`` are stamped with."""
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
