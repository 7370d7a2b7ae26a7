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
from fractions import Fraction

from .cohomology import (
    MAX_DEGREE,
    MAX_SOLVER_BOUND,
    MAX_SOLVER_DEGREE,
    Cochain,
    adjoint_rep,
    apply_delta,
    apply_dN,
    solve_truncated,
)
from .deformation import DeformationSeries, check_order, infinitesimal_cocycle, obstruction
from .errors import StructuralError, PreconditionError, UnsupportedModeError
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
from .nijenhuis import NijenhuisLCA, check_nijenhuis
from .report import FAIL, PASS
from .wells import (
    LIFT,
    SOLVE,
    VERIFY,
    AutomorphismPair,
    check_automorphism_pair,
    inducibility,
    wells_obstruction,
)

SEARCH_PATH_VAR = "NIJCONF_PATH"
# degree bound of the cohomology and deform verbs when --bound is not given
DEFAULT_BOUND = 3


class WorkspaceError(Exception):
    """A definition-file diagnostic carrying file, line and column."""

    def __init__(self, path, line, column, message):
        super().__init__("%s:%d:%d: %s" % (path, line, column, message))
        self.path = path
        self.line = line
        self.column = column


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


def _option_column(header, key):
    """The 1-based column of the value of option ``key`` in a block header
    (its last occurrence, as in :func:`_header_kv`)."""
    words = [(m.group(), m.start() + 1) for m in re.finditer(r"\S+", header)]
    column = 1
    for (word, _), (_, value_column) in zip(words[2::2], words[3::2]):
        if word == key:
            column = value_column
    return column


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


def _header_kv(words):
    """Turn ["algebra", "sl2", "module", "m"] into (name, {module: m})."""
    name = words[1]
    options = {}
    rest = words[2:]
    if len(rest) % 2:
        return name, None
    for key, value in zip(rest[::2], rest[1::2]):
        options[key] = value
    return name, options


def _parse_block(ws, path, block):
    lineno, header = block[0]
    words = header.split()
    kind = words[0]
    if len(words) < 2:
        raise WorkspaceError(path, lineno, 1, "missing object name")
    name, options = _header_kv(words)
    if options is None:
        raise WorkspaceError(path, lineno, 1, "malformed %s header" % kind)
    where = (path, lineno, 1)
    body = block[1:]

    def need(key):
        if key not in options:
            raise WorkspaceError(
                path, lineno, 1, "%s needs a %r option" % (kind, key)
            )
        return options[key]

    if kind == "module":
        basis = []
        del_action = None  # (line number, text, start) of the del literal
        if "del" in options:
            column = _option_column(header, "del")
            end = column - 1 + len(options["del"])
            del_action = (lineno, header[:end], column - 1)
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
                    basis.append(word)
                    column += len(word)
            elif bw[0] == "del" and len(bw) == 2:
                del_action = (bl, bt, bt.index("del") + len("del"))
            else:
                raise WorkspaceError(path, bl, 1, "expected a basis or del line")
        if not basis:
            raise WorkspaceError(path, lineno, 1, "module has no basis")
        if del_action is not None:
            module = FreeModule(basis, _parse_rational(path, *del_action))
        else:
            module = FreeModule(basis)
        ws.define(name, "module", module, where)
    elif kind == "algebra":
        module = ws.get(need("module"), "module", where)
        algebra = LCA(module)
        for bl, bt in body:
            bw = bt.split()
            if bw[0] != "bracket" or "=" not in bt:
                raise WorkspaceError(path, bl, 1, "expected a bracket line")
            i, j = _entry_key((module, module), path, bl, bt)
            start = bt.index("=") + 1
            algebra.set_bracket(
                i, j, _parse_entry_polys(path, bl, bt, start, 1, module.rank)
            )
        ws.define(name, "algebra", algebra, where)
    elif kind == "map":
        source = ws.get(need("source"), "module", where)
        target = ws.get(need("target"), "module", where)
        rows = []
        for bl, bt in body:
            bw = bt.split(None, 1)
            if bw[0] != "row":
                raise WorkspaceError(path, bl, 1, "expected a row line")
            start = _indent(bt) + len(bw[0])
            rows.append(
                _parse_entry_polys(path, bl, bt, start, 0, source.rank)
            )
        if len(rows) != target.rank:
            raise WorkspaceError(
                path, lineno, 1,
                "expected %d rows, got %d" % (target.rank, len(rows)),
            )
        ws.define(name, "map", ConfLinMap(source, target, rows), where)
    elif kind == "nijenhuis":
        algebra = ws.get(need("algebra"), "algebra", where)
        operator = ws.get(need("operator"), "map", where)
        try:
            ws.define(
                name, "nijenhuis", NijenhuisLCA(algebra, operator), where
            )
        except (StructuralError, PreconditionError) as exc:
            raise WorkspaceError(path, lineno, 1, str(exc))
    elif kind == "rep":
        algebra = ws.get(need("algebra"), "algebra", where)
        module = ws.get(need("module"), "module", where)
        rep = RepTable(algebra, module)
        for bl, bt in body:
            bw = bt.split()
            if bw[0] != "action" or "=" not in bt:
                raise WorkspaceError(path, bl, 1, "expected an action line")
            i, j = _entry_key((algebra.module, module), path, bl, bt)
            start = bt.index("=") + 1
            rep.set_action(
                i, j, _parse_entry_polys(path, bl, bt, start, 1, module.rank)
            )
        ws.define(name, "rep", rep, where)
    elif kind == "cochain":
        rep = ws.get(need("rep"), "rep", where)
        degree = need("degree")
        if not (degree.isascii() and degree.isdigit()) or int(degree) > MAX_DEGREE:
            raise WorkspaceError(
                path, lineno, _option_column(header, "degree"),
                "cochain degree must be an integer from 0 to %d, got %r"
                % (MAX_DEGREE, degree),
            )
        degree = int(degree)
        cochain = Cochain(degree, rep)
        arity = max(degree - 1, 0)
        for bl, bt in body:
            bw = bt.split()
            if bw[0] != "value" or "=" not in bt:
                raise WorkspaceError(path, bl, 1, "expected a value line")
            key = _entry_key((rep.algebra.module,) * degree, path, bl, bt)
            start = bt.index("=") + 1
            cochain.set_value(
                key,
                _parse_entry_polys(path, bl, bt, start, arity, rep.module.rank),
            )
        ws.define(name, "cochain", cochain, where)
    elif kind == "cocycle":
        chi = ws.get(need("chi"), "cochain", where)
        rho = ws.get(need("rho"), "rep", where)
        phi = ws.get(need("phi"), "map", where)
        try:
            ws.define(
                name, "cocycle", NonAbelianCocycle(chi, rho, phi), where
            )
        except StructuralError as exc:
            raise WorkspaceError(path, lineno, 1, str(exc))
    elif kind == "extension":
        cocycle = ws.get(need("cocycle"), "cocycle", where)
        quot = ws.get(need("quot"), "nijenhuis", where)
        sub = ws.get(need("sub"), "nijenhuis", where)
        try:
            ws.define(
                name, "extension", build_extension(cocycle, quot, sub), where
            )
        except (StructuralError, PreconditionError) as exc:
            raise WorkspaceError(path, lineno, 1, str(exc))
    elif kind == "pair":
        alpha = ws.get(need("alpha"), "map", where)
        beta = ws.get(need("beta"), "map", where)
        ws.define(name, "pair", AutomorphismPair(alpha, beta), where)
    elif kind == "series":
        base = ws.get(need("base"), "nijenhuis", where)
        terms = [
            ws.get(t, "map", where) for t in need("terms").split("+")
        ]
        ws.define(name, "series", DeformationSeries(base, terms), where)
    elif kind == "twoterm":
        l0 = ws.get(need("l0"), "algebra", where)
        l1 = ws.get(need("l1"), "module", where)
        d = ws.get(need("d"), "map", where)
        action = ws.get(need("action"), "rep", where)
        l3 = ws.get(options["l3"], "cochain", where) if "l3" in options else None
        ws.define(
            name,
            "twoterm",
            TwoTermConformal(l0, l1, d, action.action, l3=l3),
            where,
        )
    elif kind == "homotopyop":
        n0 = ws.get(need("n0"), "map", where)
        n1 = ws.get(need("n1"), "map", where)
        n2 = ws.get(options["n2"], "cochain", where) if "n2" in options else None
        ws.define(name, "homotopyop", (n0, n1, n2), where)
    else:
        raise WorkspaceError(path, lineno, 1, "unknown object kind %r" % kind)


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


def _verb_check(ws, args, out):
    kind, value = ws.objects.get(args.name, (None, None))
    if kind is None:
        raise WorkspaceError("<args>", 0, 0, "unknown object %r" % args.name)
    if kind == "algebra":
        report = check_lca(value)
    elif kind == "nijenhuis":
        report = check_lca(value.algebra)
        for key, status, witness in check_nijenhuis(value.algebra, value.n).checks:
            report.add_status(key, status, witness)
    elif kind == "rep":
        report = check_representation(value)
    elif kind == "extension":
        report = check_extension(value)
    elif kind == "cocycle":
        quot = ws.get(args.quot, "nijenhuis") if args.quot else None
        sub = ws.get(args.sub, "nijenhuis") if args.sub else None
        if quot is None or sub is None:
            raise WorkspaceError(
                "<args>", 0, 0, "checking a cocycle needs --quot and --sub"
            )
        report = check_nonabelian_cocycle(value, quot, sub)
    elif kind == "pair":
        quot = ws.get(args.quot, "nijenhuis") if args.quot else None
        sub = ws.get(args.sub, "nijenhuis") if args.sub else None
        if quot is None or sub is None:
            raise WorkspaceError(
                "<args>", 0, 0, "checking a pair needs --quot and --sub"
            )
        report = check_automorphism_pair(value, quot, sub)
    elif kind == "twoterm":
        report = check_2term(value)
    else:
        raise WorkspaceError(
            "<args>", 0, 0, "object kind %r has no checker" % kind
        )
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
        raise WorkspaceError(
            "<args>",
            0,
            0,
            "--degree must be between 0 and %d, got %d"
            % (MAX_SOLVER_DEGREE, args.degree),
        )
    if _bound(args) > MAX_SOLVER_BOUND:
        raise WorkspaceError(
            "<args>",
            0,
            0,
            "--bound must be at most %d, got %d" % (MAX_SOLVER_BOUND, args.bound),
        )
    kind, value = ws.objects.get(args.name, (None, None))
    if kind == "nijenhuis":
        algebra, operator = value.algebra, value.n
    elif kind == "algebra":
        algebra, operator = value, None
    else:
        raise WorkspaceError(
            "<args>", 0, 0, "cohomology needs an algebra or nijenhuis object"
        )
    if args.coeffs:
        rep = ws.get(args.coeffs, "rep")
        if rep.algebra != algebra:
            raise WorkspaceError(
                "<args>", 0, 0,
                "rep %r is not over the algebra of %r" % (args.coeffs, args.name),
            )
    else:
        rep = adjoint_rep(algebra)
    if args.operator:
        if operator is None:
            raise WorkspaceError(
                "<args>", 0, 0, "--operator needs a nijenhuis object"
            )

        def differential(f, keys=None):
            return apply_dN(f, operator, keys=keys)

    else:
        differential = apply_delta
    # the solver assumes a complex: on a non-LCA d^2 need not vanish
    report = check_representation(rep) if args.coeffs else check_lca(algebra)
    if not report.passed:
        raise PreconditionError(
            "%s fails check_%s: %s"
            % (
                args.coeffs or args.name,
                report.title,
                "; ".join(line for line in report.lines() if "fail" in line),
            )
        )
    result = solve_truncated(
        rep, args.degree, _bound(args), differential=differential
    )
    _emit(out, "object", args.name)
    for key in ("cochain_dim", "cocycle_dim", "coboundary_dim", "h_dim"):
        _emit(out, key.replace("_", "-"), result[key], 1)
    return True


def _verb_extend(ws, args, out):
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
    raise WorkspaceError(
        "<args>", 0, 0, "needs --pair or both --alpha and --beta"
    )


def _verb_wells(ws, args, out):
    ext = ws.get(args.name, "extension")
    pair = _pair_from_args(ws, args)
    _, report = wells_obstruction(ext, pair, bound=args.bound)
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
    if args.eta:
        eta = ws.get(args.eta, "map")
        report, _ = inducibility(ext, pair, VERIFY, eta, bound=args.bound)
        _emit(out, "mode", "verify", 1)
    else:
        report, eta = inducibility(ext, pair, SOLVE, bound=args.bound)
        _emit(out, "mode", "solve", 1)
    _emit_report(out, report)
    if report.passed and eta is not None:
        _emit_matrix(out, "eta", eta)
    return report.passed


def _verb_lift(ws, args, out):
    ext = ws.get(args.name, "extension")
    pair = _pair_from_args(ws, args)
    if args.eta:
        eta = ws.get(args.eta, "map")
    else:
        solve_report, eta = inducibility(ext, pair, SOLVE, bound=args.bound)
        if eta is None:
            _emit(out, "object", args.name)
            _emit_report(out, solve_report)
            return False
    report, gamma = inducibility(ext, pair, LIFT, eta)
    _emit(out, "object", args.name)
    _emit_report(out, report)
    if report.passed:
        _emit_matrix(out, "gamma", gamma)
    return report.passed


def _verb_classify(ws, args, out):
    structure = ws.get(args.name, "twoterm")
    n0, n1, n2 = ws.get(args.op, "homotopyop")
    op = HomotopyNijenhuis(structure, n0, n1, n2)
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
            raise WorkspaceError(
                "<args>", 0, 0, "--bound must be nonnegative, got %d" % args.bound
            )
        ws = parse_workspace(args.files)
        passed = _VERBS[args.verb](ws, args, out)
        status = PASS if passed else FAIL
        code = 0 if passed else 1
    except WorkspaceError as exc:
        _emit(out, "status", "error")
        _emit(out, "diagnostic", str(exc))
        _finish(args, out, started)
        return 2
    except UnsupportedModeError as exc:
        _emit(out, "status", "error")
        _emit(out, "diagnostic", "unsupported mode: %s" % exc)
        _finish(args, out, started)
        return 2
    except (StructuralError, PreconditionError) as exc:
        _emit(out, "status", "error")
        _emit(out, "diagnostic", str(exc))
        _finish(args, out, started)
        return 1
    except Exception as exc:  # internal invariant violation
        _emit(out, "status", "internal-error")
        _emit(out, "diagnostic", "%s: %s" % (type(exc).__name__, exc))
        _finish(args, out, started)
        return 3
    _emit(out, "status", "infeasible" if _infeasible(out, status) else status)
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
