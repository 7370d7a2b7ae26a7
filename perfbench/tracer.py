"""Per-layer tracing of the engine, done entirely from outside it.

``Tracer.install`` wraps every public function defined in a ``nijconf``
module and rebinds each name that refers to it -- the defining module, every
module that did ``from .x import f``, the package namespace and class
attributes.  Function-local imports (``solve_truncated`` importing from
``linalg``) read the module attribute at call time, so they see the wrapper
too.  ``Tracer.uninstall`` puts every original back.

A wrapped call records a span (id, parent id, task id, name, start, end).
Self time is the span's duration minus the time covered by its child spans
and by ``Poly`` methods called directly inside it.  ``Poly`` methods,
including the ``__radd__``/``__rmul__`` aliases and the classmethod
constructors, are counted and timed but are not spans: a run makes millions
of them.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import sys
from collections import Counter
from time import perf_counter

LAYERS = (
    "poly",
    "grammar",
    "report",
    "lca",
    "nijenhuis",
    "cohomology",
    "linalg",
    "deformation",
    "homotopy",
    "extension",
    "wells",
    "cli",
)

# linalg's univariate helpers run thousands of times inside one Q[del]
# routine; as spans they would cost more than the work they measure.  Their
# time stays in the calling routine's self time.
NOT_SPANS = {
    "upoly_from",
    "upoly_to",
    "utrim",
    "uadd",
    "uneg",
    "umul",
    "udivmod",
    "ugcd",
    "poly_matrix_to_u",
}

# __repr__ calls grammar.format_poly, a span; it is left unwrapped so that
# Poly time never contains span time.
POLY_KINDS = {
    "__add__": "add",
    "__radd__": "add",
    "__mul__": "mul",
    "__rmul__": "mul",
    "__init__": "init",
    "substitute": "substitute",
    "with_arity": "with_arity",
}

# The Q[del] half of linalg: polynomial matrices rather than rational ones.
QDEL = (
    "linalg.poly_rank",
    "linalg.smith_invariants",
    "linalg.is_split_injection",
    "linalg.is_split_surjection",
    "linalg.poly_det",
    "linalg.poly_unimodular_inverse",
)


def _count_nonzero_eval(extra, args, result):
    extra["eval_cochain_attempts"] += 1
    extra["eval_cochain_nonzero"] += any(c.terms for c in result.coords)


def _count_rref_cells(extra, args, result):
    rows = result[0]
    extra["rref_cells"] += len(rows) * len(rows[0]) if rows else 0


def _count_independent(extra, args, result):
    extra["independent_candidates"] += len(args[0])
    extra["independent_kept"] += len(result)


HOOKS = {
    "cohomology.eval_cochain": _count_nonzero_eval,
    "linalg.rref": _count_rref_cells,
    "linalg.independent_subset": _count_independent,
}


def engine_modules():
    return [sys.modules["nijconf"]] + [sys.modules["nijconf." + layer] for layer in LAYERS]


def _namespaces(modules):
    """Every dict through which engine code can look up a function."""
    for mod in modules:
        yield mod
        for value in list(vars(mod).values()):
            if inspect.isclass(value) and value.__module__.startswith("nijconf"):
                yield value


class Tracer:
    """Wraps the engine's layer functions while installed and aggregates spans."""

    def __init__(self):
        self.task = 0
        self.spans = []
        self.calls = Counter()
        self.self_s = Counter()
        self.inclusive_s = Counter()
        self.extra = Counter()
        self.poly_calls = Counter()
        self.poly_s = 0.0
        self.wrapped = {}  # original function -> wrapper
        self._stack = []
        self._ids = itertools.count(1)
        self._depth = Counter()
        self._poly_depth = 0
        self._patches = []

    # -- installing -----------------------------------------------------

    def install(self):
        modules = engine_modules()
        for layer, mod in zip(LAYERS, modules[1:]):
            for name, value in vars(mod).items():
                if (
                    inspect.isfunction(value)
                    and value.__module__ == mod.__name__
                    and not name.startswith("_")
                    and name not in NOT_SPANS
                ):
                    qualified = "%s.%s" % (layer, name)
                    self.wrapped[value] = self._span(qualified, value, HOOKS.get(qualified))
        for owner in _namespaces(modules):
            for attr, value in list(vars(owner).items()):
                if inspect.isfunction(value) and value in self.wrapped:
                    self._patch(owner, attr, self.wrapped[value])
        poly = sys.modules["nijconf.poly"].Poly
        for attr, value in list(vars(poly).items()):
            kind = POLY_KINDS.get(attr, attr.strip("_"))
            if isinstance(value, classmethod):
                self._patch(poly, attr, classmethod(self._poly_method(kind, value.__func__)))
            elif inspect.isfunction(value) and attr != "__repr__":
                self._patch(poly, attr, self._poly_method(kind, value))
        return self

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def _patch(self, owner, attr, replacement):
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, replacement)

    # -- wrappers -------------------------------------------------------

    def _span(self, name, fn, hook):
        tracer = self
        stack = self._stack
        depth = self._depth

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = next(tracer._ids)
            frame = [span_id, 0.0]
            parent = stack[-1][0] if stack else 0
            stack.append(frame)
            depth[name] += 1
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                depth[name] -= 1
                duration = end - start
                tracer.calls[name] += 1
                tracer.self_s[name] += duration - frame[1]
                if not depth[name]:
                    tracer.inclusive_s[name] += duration
                if stack:
                    stack[-1][1] += duration
                tracer.spans.append((span_id, parent, tracer.task, name, start, end))
            if hook is not None:
                hook(tracer.extra, args, result)
            return result

        return traced

    def _poly_method(self, kind, fn):
        tracer = self
        stack = self._stack
        counts = self.poly_calls

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[kind] += 1
            if tracer._poly_depth:
                return fn(*args, **kwargs)
            tracer._poly_depth = 1
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                spent = perf_counter() - start
                tracer._poly_depth = 0
                tracer.poly_s += spent
                if stack:
                    stack[-1][1] += spent

        return counted

    # -- results --------------------------------------------------------

    def layer_self_s(self, layer):
        prefix = layer + "."
        return sum(v for k, v in self.self_s.items() if k.startswith(prefix))

    def metrics(self, scale):
        """Per-layer metrics; ``scale`` converts raw seconds to calibrated ones."""
        calls, own, extra = self.calls, self.self_s, self.extra
        out = {}

        def count(name, value):
            out[name] = (value, "count")

        def seconds(name, value):
            out[name] = (value * scale, "s")

        def ratio(name, num, den):
            out[name] = (num / den if den else 0.0, "ratio")

        for kind in ("mul", "add", "substitute", "with_arity", "init"):
            count("poly.%s_calls" % kind, self.poly_calls[kind])
        seconds("poly.self_s", self.poly_s)
        for fn in ("apply_delta", "eval_cochain", "act_form"):
            count("cohomology.%s_calls" % fn, calls["cohomology." + fn])
            seconds("cohomology.%s_self_s" % fn, own["cohomology." + fn])
        ratio(
            "cohomology.eval_cochain_nonzero_frac",
            extra["eval_cochain_nonzero"],
            extra["eval_cochain_attempts"],
        )
        for fn in ("cochain_space", "solve_truncated", "xi_map"):
            seconds("cohomology.%s_self_s" % fn, own["cohomology." + fn])
        count("linalg.rref_calls", calls["linalg.rref"])
        count("linalg.rref_cells", extra["rref_cells"])
        seconds("linalg.rref_self_s", own["linalg.rref"])
        count("linalg.rank_calls", calls["linalg.rank"])
        ratio(
            "linalg.independent_kept_frac",
            extra["independent_kept"],
            extra["independent_candidates"],
        )
        count("linalg.solve_calls", calls["linalg.solve"])
        count("linalg.poly_det_calls", calls["linalg.poly_det"])
        seconds("linalg.qdel_self_s", sum(own[name] for name in QDEL))
        for fn in ("sesqui_eval", "check_lca", "dagger_substitute"):
            count("lca.%s_calls" % fn, calls["lca." + fn])
            seconds("lca.%s_self_s" % fn, own["lca." + fn])
        count("nijenhuis.check_nijenhuis_calls", calls["nijenhuis.check_nijenhuis"])
        count("nijenhuis.deformed_table_calls", calls["nijenhuis.deformed_table"])
        count(
            "extension.check_nonabelian_cocycle_calls",
            calls["extension.check_nonabelian_cocycle"],
        )
        count("wells.inducibility_calls", calls["wells.inducibility"])
        for layer in ("nijenhuis", "extension", "wells", "homotopy", "deformation", "cli", "grammar"):
            seconds("%s.self_s" % layer, self.layer_self_s(layer))
        count("cli.parse_workspace_calls", calls["cli.parse_workspace"])
        seconds("cli.parse_workspace_s", self.inclusive_s["cli.parse_workspace"])
        count("grammar.parse_poly_calls", calls["grammar.parse_poly"])
        return out

    def write_spans(self, path):
        with open(path, "w") as handle:
            handle.write("id\tparent\ttask\tname\tstart_s\tend_s\n")
            for span_id, parent, task, name, start, end in sorted(self.spans):
                handle.write(
                    "%d\t%d\t%d\t%s\t%.9f\t%.9f\n" % (span_id, parent, task, name, start, end)
                )
