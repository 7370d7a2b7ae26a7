"""Command-line front end: definition files, dispatch, structured reports.

A workspace is a set of named objects parsed from line-oriented definition
files (one object per block, two-space indented property lines).  Verbs
dispatch to the library operations and print a ``key: value`` report to
standard output; reports are byte-identical across runs for identical
inputs, which is why wall-clock timing goes to standard error only.

Exit codes: 0 pass, 1 fail or infeasible, 2 usage or parse error,
3 internal invariant violation.
"""

from __future__ import annotations

import argparse
import os
import re
import sys
import time
from collections import namedtuple
from fractions import Fraction

from .cohomology import (
    MAX_DEGREE,
    MAX_SOLVER_BOUND,
    MAX_SOLVER_DEGREE,
    Cochain,
    adjoint_rep,
    apply_delta,  # unused here; perfbench/tests checks the tracer rebinds it
    solve_truncated,
)
from .deformation import DeformationSeries, check_order, infinitesimal_cocycle, obstruction
from .errors import ModuleMismatchError, PreconditionError, StructuralError, UnsupportedModeError
from .extension import (
    NonAbelianCocycle,
    build_extension,
    check_extension,
    check_nonabelian_cocycle,
    checked_extension,
    extract_cocycle,
)
from .grammar import ParseError, format_poly, parse_poly
from .homotopy import HomotopyNijenhuis, TwoTermConformal, check_2term, check_homotopy_nijenhuis, classify
from .lca import LCA, ConfLinMap, FreeModule, RepTable, check_lca, check_representation
from .nijenhuis import NijenhuisLCA, _require_linear, check_nijenhuis
from .report import FAIL, PASS
from .wells import (
    AutomorphismPair,
    check_automorphism_pair,
    inducibility,
    lift,
    wells_obstruction,
    _lift,
)

SEARCH_PATH_VAR = "NIJCONF_PATH"
# degree bound of the cohomology and deform verbs when --bound is not given
DEFAULT_BOUND = 3
# Most basis names a module block may declare.  Checking a bracket costs the
# cube of its module's rank (Jacobi runs over every triple), so the rank is
# bounded where it is read.
MAX_RANK = 16


class WorkspaceError(Exception):
    """A definition-file diagnostic carrying file, line and column."""

    def __init__(self, path, line, column, message):
        super().__init__("%s:%d:%d: %s" % (path, line, column, message))
        self.path = path
        self.line = line
        self.column = column


def _usage(message):
    """A usage error: a diagnostic about the command line, not a file."""
    return WorkspaceError("<args>", 0, 0, message)


class Workspace:
    """Named objects resolved from definition files."""

    def __init__(self):
        self.objects = {}  # name -> (kind, value)

    def define(self, name, kind, value, where):
        if name in self.objects:
            raise WorkspaceError(
                where[0], where[1], where[2], "duplicate object name %r" % name
            )
        self.objects[name] = (kind, value)

    def get(self, name, kind=None, where=("<args>", 0, 0)):
        if name not in self.objects:
            raise WorkspaceError(
                where[0], where[1], where[2], "unknown object %r" % name
            )
        actual, value = self.objects[name]
        if kind is not None and actual != kind:
            raise WorkspaceError(
                where[0],
                where[1],
                where[2],
                "object %r is a %s, expected %s" % (name, actual, kind),
            )
        return value


def _split_block(lines):
    """Group (lineno, text) pairs into blocks separated by blank lines."""
    blocks = []
    current = []
    for lineno, text in lines:
        stripped = text.rstrip()
        if not stripped or stripped.lstrip().startswith("#"):
            if current and not stripped:
                blocks.append(current)
                current = []
            continue
        current.append((lineno, stripped))
    if current:
        blocks.append(current)
    return blocks


def _indent(text):
    return len(text) - len(text.lstrip())


def _parse_entry_polys(path, lineno, text, start, arity, count):
    """Parse the comma-separated coordinate vector of polynomial literals
    that fills ``text`` from index ``start`` on."""
    parts = text[start:].split(",")
    if len(parts) != count:
        raise WorkspaceError(
            path, lineno, start + _indent(text[start:]) + 1,
            "expected %d coordinates, got %d" % (count, len(parts)),
        )
    out = []
    offset = start  # index in text of the current part
    for part in parts:
        try:
            out.append(parse_poly(part, arity))
        except (ParseError, StructuralError) as exc:
            column = offset + getattr(exc, "pos", _indent(part)) + 1
            raise WorkspaceError(path, lineno, column, str(exc))
        offset += len(part) + 1
    return out


def _parse_rational(path, lineno, text, start):
    """The rational constant literal that fills ``text`` from ``start`` on."""
    (value,) = _parse_entry_polys(path, lineno, text, start, 0, 1)
    if value.total_degree() > 0:
        raise WorkspaceError(
            path, lineno, start + _indent(text[start:]) + 1,
            "expected a rational constant, got %s" % format_poly(value),
        )
    return Fraction(value.terms.get((0,), 0))


def _basis_index(module, name, path, lineno, column):
    if name in module.basis:
        return module.basis.index(name)
    try:
        index = int(name)
    except ValueError:
        raise WorkspaceError(
            path, lineno, column, "unknown basis name %r" % name
        )
    if not 0 <= index < module.rank:
        raise WorkspaceError(path, lineno, column, "basis index out of range")
    return index


def _entry_key(modules, path, lineno, text):
    """The basis indices named between a bracket, action or value line's
    keyword and its ``=``, one in each of ``modules``: exactly that many
    names, else a positioned error at the first surplus name or at the ``=``."""
    equals = text.index("=")
    words = list(re.finditer(r"\S+", text[:equals]))[1:]
    if len(words) != len(modules):
        surplus = len(words) > len(modules)
        raise WorkspaceError(
            path, lineno, words[len(modules)].start() + 1 if surplus else equals + 1,
            "expected %d basis names, got %d" % (len(modules), len(words)),
        )
    return tuple(
        _basis_index(module, w.group(), path, lineno, w.start() + 1)
        for module, w in zip(modules, words)
    )


def _entry_lines(path, body, keyword, modules, arity, rank):
    """(key, coordinates) of each line of a block body, which must all be
    ``keyword`` (bracket, action or value) lines: the basis indices named
    before the ``=``, one in each of ``modules``, and the ``rank``
    polynomial coordinates of the given arity after it."""
    for bl, bt in body:
        if bt.split()[0] != keyword or "=" not in bt:
            article = "an" if keyword[0] in "aeiou" else "a"
            message = "expected %s %s line" % (article, keyword)
            raise WorkspaceError(path, bl, 1, message)
        key = _entry_key(modules, path, bl, bt)
        yield key, _parse_entry_polys(path, bl, bt, bt.index("=") + 1, arity, rank)


def _build_module(path, lineno, body, del_literal):
    basis = []
    for bl, bt in body:
        bw = bt.split()
        if bw[0] == "basis":
            column = bt.index("basis") + len("basis")
            for word in bw[1:]:
                column = bt.index(word, column)
                if word in basis:
                    raise WorkspaceError(
                        path, bl, column + 1, "duplicate basis name %r" % word
                    )
                if len(basis) == MAX_RANK:
                    raise WorkspaceError(
                        path, bl, column + 1,
                        "module rank exceeds the bound %d" % MAX_RANK,
                    )
                basis.append(word)
                column += len(word)
        elif bw[0] == "del" and len(bw) == 2:
            del_literal = (bl, bt, bt.index("del") + len("del"))
        else:
            raise WorkspaceError(path, bl, 1, "expected a basis or del line")
    if not basis:
        raise WorkspaceError(path, lineno, 1, "module has no basis")
    if del_literal is None:
        return FreeModule(basis)
    return FreeModule(basis, _parse_rational(path, *del_literal))


def _build_algebra(path, lineno, body, module):
    algebra = LCA(module)
    for (i, j), coords in _entry_lines(
        path, body, "bracket", (module, module), 1, module.rank
    ):
        algebra.set_bracket(i, j, coords)
    return algebra


def _build_map(path, lineno, body, source, target):
    rows = []
    for bl, bt in body:
        bw = bt.split(None, 1)
        if bw[0] != "row":
            raise WorkspaceError(path, bl, 1, "expected a row line")
        start = _indent(bt) + len(bw[0])
        rows.append(_parse_entry_polys(path, bl, bt, start, 0, source.rank))
    if len(rows) != target.rank:
        raise WorkspaceError(
            path, lineno, 1, "expected %d rows, got %d" % (target.rank, len(rows))
        )
    return ConfLinMap(source, target, rows)


def _build_rep(path, lineno, body, algebra, module):
    rep = RepTable(algebra, module)
    for (i, j), coords in _entry_lines(
        path, body, "action", (algebra.module, module), 1, module.rank
    ):
        rep.set_action(i, j, coords)
    return rep


def _build_cochain(path, lineno, body, rep, degree_literal):
    line, text, start = degree_literal
    degree = text[start:]
    if not (degree.isascii() and degree.isdigit()) or int(degree) > MAX_DEGREE:
        raise WorkspaceError(
            path, line, start + 1,
            "cochain degree must be an integer from 0 to %d, got %r"
            % (MAX_DEGREE, degree),
        )
    cochain = Cochain(int(degree), rep)
    for key, coords in _entry_lines(
        path, body, "value", (rep.algebra.module,) * cochain.degree,
        cochain.value_arity, rep.module.rank,
    ):
        cochain.set_value(key, coords)
    return cochain


def _build_twoterm(l0, l1, d, action, l3):
    structure = TwoTermConformal(l0, l1, d, action.action, l3)
    if action.algebra != l0 or action.module != l1:
        raise ModuleMismatchError("action must be a rep of L0 on L1")
    return structure


def _build_homotopyop(n0, n1, n2):
    """The operator triple, refused here when N0 or N1 is not Q[del]-linear;
    the structure it acts on is named only by `classify`."""
    _require_linear(n0, "N0")
    _require_linear(n1, "N1")
    return n0, n1, n2


_Option = namedtuple("_Option", "key kind required")


def _options(spec):
    """The header options of a block kind, from ``key:kind`` words in the
    order they are resolved: the option names an object of that kind, and
    a kind ending in ``+`` a ``+``-separated list of such objects.  A word
    without ``:kind`` is a literal, passed on as the (line number, text,
    start) of its value.  A trailing ``?`` marks an optional option."""
    return tuple(
        _Option(key, kind or None, not word.endswith("?"))
        for word in spec.split()
        for key, _, kind in [word.rstrip("?").partition(":")]
    )


# Each block kind: its header options, its builder, and whether it reads
# body lines.  A builder that does is called with (path, header line number,
# body) before the options; the other kinds only name other objects and
# refuse body lines.
_BLOCKS = {
    "module": (_options("del?"), _build_module, True),
    "algebra": (_options("module:module"), _build_algebra, True),
    "map": (_options("source:module target:module"), _build_map, True),
    "nijenhuis": (_options("algebra:algebra operator:map"), NijenhuisLCA, False),
    "rep": (_options("algebra:algebra module:module"), _build_rep, True),
    "cochain": (_options("rep:rep degree"), _build_cochain, True),
    "cocycle": (_options("chi:cochain rho:rep phi:map"), NonAbelianCocycle, False),
    "extension": (
        _options("cocycle:cocycle quot:nijenhuis sub:nijenhuis"), build_extension, False
    ),
    "pair": (_options("alpha:map beta:map"), AutomorphismPair, False),
    "series": (_options("base:nijenhuis terms:map+"), DeformationSeries, False),
    "twoterm": (
        _options("l0:algebra l1:module d:map action:rep l3:cochain?"),
        _build_twoterm,
        False,
    ),
    "homotopyop": (_options("n0:map n1:map n2:cochain?"), _build_homotopyop, False),
}


def _parse_block(ws, path, block):
    lineno, header = block[0]
    words = [(m.group(), m.start()) for m in re.finditer(r"\S+", header)]
    kind = words[0][0]
    if len(words) < 2:
        raise WorkspaceError(path, lineno, 1, "missing object name")
    if len(words) % 2:
        raise WorkspaceError(path, lineno, 1, "malformed %s header" % kind)
    if kind not in _BLOCKS:
        raise WorkspaceError(path, lineno, 1, "unknown object kind %r" % kind)
    options, builder, reads_body = _BLOCKS[kind]
    given = {}  # key -> (value, its index in the header)
    for (key, key_start), value in zip(words[2::2], words[3::2]):
        if key not in [option.key for option in options]:
            raise WorkspaceError(
                path, lineno, key_start + 1, "unknown %s option %r" % (kind, key)
            )
        given[key] = value
    body = block[1:]
    if body and not reads_body:
        raise WorkspaceError(
            path, body[0][0], 1, "a %s block takes no body lines" % kind
        )
    where = (path, lineno, 1)
    args = [path, lineno, body] if reads_body else []
    for option in options:
        if option.key not in given:
            if option.required:
                raise WorkspaceError(
                    path, lineno, 1, "%s needs a %r option" % (kind, option.key)
                )
            args.append(None)
            continue
        value, start = given[option.key]
        if option.kind is None:
            args.append((lineno, header[: start + len(value)], start))
        elif option.kind.endswith("+"):
            args.append([ws.get(v, option.kind[:-1], where) for v in value.split("+")])
        else:
            args.append(ws.get(value, option.kind, where))
    try:
        obj = builder(*args)
    except (StructuralError, PreconditionError) as exc:
        raise WorkspaceError(path, lineno, 1, str(exc))
    ws.define(words[1][0], kind, obj, where)


def _resolve(path, search):
    if os.path.exists(path):
        return path
    for directory in search:
        candidate = os.path.join(directory, path)
        if os.path.exists(candidate):
            return candidate
    return path


def parse_workspace(paths):
    """Parse definition files into a Workspace, or raise WorkspaceError."""
    search = [
        d for d in os.environ.get(SEARCH_PATH_VAR, "").split(os.pathsep) if d
    ]
    ws = Workspace()
    for path in paths:
        resolved = _resolve(path, search)
        try:
            with open(resolved, "rb") as handle:
                data = handle.read()
        except OSError as exc:
            raise WorkspaceError(path, 0, 0, str(exc))
        try:
            text = data.decode("utf-8")
        except UnicodeDecodeError as exc:
            line = data.count(b"\n", 0, exc.start) + 1
            column = exc.start - data.rfind(b"\n", 0, exc.start)
            raise WorkspaceError(
                resolved, line, column, "invalid UTF-8 byte 0x%02x" % data[exc.start]
            )
        lines = list(enumerate(text.splitlines(), start=1))
        for block in _split_block(lines):
            _parse_block(ws, resolved, block)
    return ws


# ---------------------------------------------------------------------------
# report plumbing


def _emit(out, key, value, indent=0):
    out.append("%s%s: %s" % ("  " * indent, key, value))


def _emit_report(out, report, indent=1):
    for line in report.lines():
        out.append("  " * indent + line)


def _emit_matrix(out, name, mapping, indent=1):
    _emit(out, name, "", indent)
    for row in mapping.matrix:
        out.append(
            "  " * (indent + 1)
            + "row: "
            + ", ".join(format_poly(entry) for entry in row)
        )


# ---------------------------------------------------------------------------
# verbs


def _check_nijenhuis_object(value):
    report = check_lca(value.algebra)
    report.checks += check_nijenhuis(value.algebra, value.n).checks
    return report


# kind -> checker; the cocycle and pair checkers also take --quot and --sub
_CHECKERS = {
    "algebra": check_lca,
    "nijenhuis": _check_nijenhuis_object,
    "rep": check_representation,
    "extension": check_extension,
    "cocycle": check_nonabelian_cocycle,
    "pair": check_automorphism_pair,
    "twoterm": check_2term,
}


def _verb_check(ws, args, out):
    kind, value = ws.objects.get(args.name, (None, None))
    if kind is None:
        raise _usage("unknown object %r" % args.name)
    if kind not in _CHECKERS:
        raise _usage("object kind %r has no checker" % kind)
    extra = []
    if kind in ("cocycle", "pair"):
        extra = [ws.get(n, "nijenhuis") for n in (args.quot, args.sub) if n]
        if len(extra) < 2:
            raise _usage("checking a %s needs --quot and --sub" % kind)
    report = _CHECKERS[kind](value, *extra)
    _emit(out, "object", "%s (%s)" % (args.name, kind))
    _emit_report(out, report)
    return report.passed


def _verb_deform(ws, args, out):
    series = ws.get(args.name, "series")
    order = check_order(series)
    _emit(out, "object", args.name)
    _emit_report(out, order)
    passed = order.passed
    if series.order >= 1:
        inf = infinitesimal_cocycle(series)
        _emit_report(out, inf)
        passed = passed and inf.passed
        if order.passed:
            ob, ob_report = obstruction(series, bound=_bound(args))
            _emit_report(out, ob_report)
            _emit(out, "obstruction-entries", len(ob.values), 1)
            passed = passed and all(
                status == PASS
                for key, status, _ in ob_report.checks
                if key != "extensibility"
            )
    return passed


def _bound(args):
    return DEFAULT_BOUND if args.bound is None else args.bound


def _verb_cohomology(ws, args, out):
    if not 0 <= args.degree <= MAX_SOLVER_DEGREE:
        raise _usage(
            "--degree must be between 0 and %d, got %d"
            % (MAX_SOLVER_DEGREE, args.degree)
        )
    kind, value = ws.objects.get(args.name, (None, None))
    if kind == "nijenhuis":
        algebra, operator = value.algebra, value.n
    elif kind == "algebra":
        algebra, operator = value, None
    else:
        raise _usage("cohomology needs an algebra or nijenhuis object")
    if args.coeffs:
        rep = ws.get(args.coeffs, "rep")
        if rep.algebra != algebra:
            raise _usage(
                "rep %r is not over the algebra of %r" % (args.coeffs, args.name)
            )
    else:
        rep = adjoint_rep(algebra)
    if not args.operator:
        operator = None
    elif operator is None:
        raise _usage("--operator needs a nijenhuis object")
    elif rep.module != algebra.module:
        raise _usage("--operator needs adjoint coefficients")
    # the solver assumes a complex: on a non-LCA d^2 need not vanish
    report = check_representation(rep) if args.coeffs else check_lca(algebra)
    if not report.passed:
        raise PreconditionError(
            "%s fails check_%s: %s"
            % (args.coeffs or args.name, report.title, report.failing())
        )
    result = solve_truncated(rep, args.degree, _bound(args), operator=operator)
    _emit(out, "object", args.name)
    for key in ("cochain_dim", "cocycle_dim", "coboundary_dim", "h_dim"):
        _emit(out, key.replace("_", "-"), result[key], 1)
    return True


def _verb_extend(ws, args, out):
    if not (args.quot and args.sub):
        raise _usage("extend needs --quot and --sub")
    cocycle = ws.get(args.name, "cocycle")
    quot = ws.get(args.quot, "nijenhuis")
    sub = ws.get(args.sub, "nijenhuis")
    report, ext = checked_extension(cocycle, quot, sub)
    _emit(out, "object", args.name)
    _emit_report(out, report)
    if ext is None:
        return False
    invariants = check_extension(ext)
    _emit_report(out, invariants)
    roundtrip = extract_cocycle(ext) == cocycle
    _emit(out, "roundtrip", PASS if roundtrip else FAIL, 1)
    return invariants.passed and roundtrip


def _pair_from_args(ws, args):
    if args.pair:
        return ws.get(args.pair, "pair")
    if args.alpha and args.beta:
        return AutomorphismPair(
            ws.get(args.alpha, "map"), ws.get(args.beta, "map")
        )
    raise _usage("needs --pair or both --alpha and --beta")


def _verb_wells(ws, args, out):
    ext = ws.get(args.name, "extension")
    pair = _pair_from_args(ws, args)
    report = wells_obstruction(ext, pair, bound=args.bound)
    _emit(out, "object", args.name)
    _emit_report(out, report)
    others_pass = all(
        status == PASS for key, status, _ in report.checks if key != "class"
    )
    return report.status_of("class").startswith("zero") and others_pass


def _verb_induce(ws, args, out):
    ext = ws.get(args.name, "extension")
    pair = _pair_from_args(ws, args)
    _emit(out, "object", args.name)
    given = ws.get(args.eta, "map") if args.eta else None
    report, eta = inducibility(ext, pair, given, bound=args.bound)
    _emit(out, "mode", "solve" if given is None else "verify", 1)
    _emit_report(out, report)
    if report.passed and eta is not None:
        _emit_matrix(out, "eta", eta)
    return report.passed


def _verb_lift(ws, args, out):
    ext = ws.get(args.name, "extension")
    pair = _pair_from_args(ws, args)
    if args.eta:
        report, gamma = lift(ext, pair, ws.get(args.eta, "map"))
    else:
        solve_report, eta = inducibility(ext, pair, bound=args.bound)
        if eta is None:
            _emit(out, "object", args.name)
            _emit_report(out, solve_report)
            return False
        # inducibility has checked the pair
        report, gamma = _lift(ext, pair, eta)
    _emit(out, "object", args.name)
    _emit_report(out, report)
    if report.passed:
        _emit_matrix(out, "gamma", gamma)
    return report.passed


def _verb_classify(ws, args, out):
    structure = ws.get(args.name, "twoterm")
    try:
        op = HomotopyNijenhuis(structure, *ws.get(args.op, "homotopyop"))
    except StructuralError as exc:
        raise _usage(str(exc))
    report = check_homotopy_nijenhuis(structure, op)
    _emit(out, "object", args.name)
    _emit_report(out, report)
    if report.passed:
        _emit(out, "class", classify(structure, op), 1)
    return report.passed


_VERBS = {
    "check": _verb_check,
    "deform": _verb_deform,
    "cohomology": _verb_cohomology,
    "extend": _verb_extend,
    "wells": _verb_wells,
    "induce": _verb_induce,
    "lift": _verb_lift,
    "classify": _verb_classify,
}


def _build_parser():
    common = argparse.ArgumentParser(add_help=False, argument_default=argparse.SUPPRESS)
    common.add_argument(
        "-f",
        "--file",
        action="append",
        dest="files",
        help="definition file (repeatable); also searched in $%s" % SEARCH_PATH_VAR,
    )
    common.add_argument("--report", help="also write the report to this path")
    common.add_argument("--bound", type=int, help="polynomial degree bound")
    parser = argparse.ArgumentParser(
        prog="nijconf",
        description="exact checks on Nijenhuis Lie conformal algebras",
        parents=[common],
    )
    sub = parser.add_subparsers(dest="verb", required=True)
    for verb in sorted(_VERBS):
        p = sub.add_parser(verb, parents=[common])
        p.add_argument("name")
        if verb == "cohomology":
            p.add_argument("--coeffs", help="coefficient rep (default adjoint)")
            p.add_argument("--degree", type=int, default=2)
            p.add_argument(
                "--operator",
                action="store_true",
                help="use the operator differential instead of the bracket one",
            )
        if verb in ("check", "extend"):
            p.add_argument("--quot")
            p.add_argument("--sub")
        if verb in ("wells", "induce", "lift"):
            p.add_argument("--pair")
            p.add_argument("--alpha")
            p.add_argument("--beta")
        if verb in ("induce", "lift"):
            p.add_argument("--eta")
        if verb == "classify":
            p.add_argument("--op", required=True)
    return parser


# How main reports an exception: the first entry whose classes match gives
# the status line, the diagnostic's format (of the exception) and the exit
# code.  Any other exception is an internal invariant violation.
_ERRORS = (
    (WorkspaceError, "error", "{0}", 2),
    (UnsupportedModeError, "error", "unsupported mode: {0}", 2),
    ((StructuralError, PreconditionError), "error", "{0}", 1),
    (Exception, "internal-error", "{0.__class__.__name__}: {0}", 3),
)


def main(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    for attr, default in (("files", []), ("report", None), ("bound", None)):
        if not hasattr(args, attr):
            setattr(args, attr, default)
    started = time.monotonic()
    out = []
    _emit(out, "command", args.verb + " " + args.name)
    try:
        if args.bound is not None and args.bound < 0:
            raise _usage("--bound must be nonnegative, got %d" % args.bound)
        if args.bound is not None and args.bound > MAX_SOLVER_BOUND:
            raise _usage(
                "--bound must be at most %d, got %d" % (MAX_SOLVER_BOUND, args.bound)
            )
        ws = parse_workspace(args.files)
        passed = _VERBS[args.verb](ws, args, out)
    except Exception as exc:
        status, diagnostic, code = next(
            entry[1:] for entry in _ERRORS if isinstance(exc, entry[0])
        )
        _emit(out, "status", status)
        _emit(out, "diagnostic", diagnostic.format(exc))
    else:
        status = PASS if passed else FAIL
        _emit(out, "status", "infeasible" if _infeasible(out, status) else status)
        code = 0 if passed else 1
    _finish(args, out, started)
    return code


def _infeasible(out, status):
    return status == FAIL and any("infeasible" in line for line in out)


def _finish(args, out, started):
    text = "\n".join(out) + "\n"
    sys.stdout.write(text)
    if args.report:
        with open(args.report, "w") as handle:
            handle.write(text)
    elapsed = (time.monotonic() - started) * 1000.0
    sys.stderr.write("timing: %.1f ms\n" % elapsed)


if __name__ == "__main__":
    sys.exit(main())
