"""Fuzz the input contract: malformed workspaces and argv exit 2, never 3.

``test_mutated_input_never_exits_three`` mutates a few lines of
``fixtures/core.ws`` (deleting, repeating or truncating a line, or putting a
token into it) and runs one well-formed command of ``COMMANDS`` on it, so
that every case gets past the argv to the objects.  Two cases in three
first make one well-formed change through the workspace grammar, so that the
case can reach the builders and checks.  Either they mutate one block header
through the block grammar of ``cli._BLOCKS``: they rename one of its
options, or point one of its references at another object of the kind it
names.  Or they change one body line and keep it well formed: one entry of a
map's ``row`` line becomes another polynomial in del, a module's ``del``
line another rational, or a ``rep`` block gains an ``action`` line.
``test_mutated_argv_never_exits_three``
builds an argv from the CLI's verbs, the workspace's object names and its
flags, with a few tokens dropped or added, and runs it on the unmutated
fixture.  ``cli.main`` runs in-process.  Whatever the input, the exit code is
0, 1 or 2; an internal error (3), or a case that runs past its time budget,
fails.  Solver limits are kept small (degree at most 2, bound at most 1) so
that a well-formed case stays cheap.
"""

import contextlib
import io
import os
import signal
import tempfile

from hypothesis import HealthCheck, given, settings, strategies as st

from nijconf import cli

from test_cli import CORE

# seconds one case may take; a well-formed case takes well under one
BUDGET = 20

with open(CORE) as _handle:
    CORE_LINES = _handle.read().splitlines()

NAMES = [
    "vir", "sl2", "sl2p", "sl2id", "virid", "ctriv", "ctrivid", "zerorep",
    "zerorepvir", "kmchi", "km", "kmext", "gf", "gfext", "wellsbad",
    "wellsgood", "idsl2", "scale2c", "triv0", "nonesuch",
]
TOKENS = [
    "0", "1", "-1", "1/2", "1/0", "2^17", "lam1^99", "del", "lam1", "lam2",
    "lam9", "e", "h", "f", "L", "c", ",", "=", "(", ")", "*", "^", "/", "+",
    "", "  ", "\t", "é", "9" * 30, "basis", "bracket", "row", "value",
    "module", "algebra", "map", "source", "target", "degree", "rep", "del",
    "del 1", "free", "x", "nan", "0.5", "1e5",
] + NAMES
# the headers of the fixture's blocks, the objects they define by kind, and
# every option key of the block grammar
HEADERS = [i for i, line in enumerate(CORE_LINES) if line.split(" ")[0] in cli._BLOCKS]
OBJECTS = {}
for _kind, _name, *_ in (CORE_LINES[i].split() for i in HEADERS):
    OBJECTS.setdefault(_kind, []).append(_name)
OPTION_KEYS = sorted(
    {option.key for options, _, _ in cli._BLOCKS.values() for option in options}
)
# body lines whose literals a grammar-aware mutation changes, and the rep
# headers, after which it adds an action line
BODY = [
    i for i, line in enumerate(CORE_LINES)
    if line.startswith("  ") and line.split()[0] in ("row", "del")
]
REPS = [i for i in HEADERS if CORE_LINES[i].startswith("rep ")]
BASES = {
    CORE_LINES[i].split()[1]: CORE_LINES[i + 1].split()[1:]
    for i in HEADERS
    if CORE_LINES[i].startswith("module ")
}
ALGEBRA_MODULES = {
    words[1]: words[3]
    for words in (CORE_LINES[i].split() for i in HEADERS)
    if words[0] == "algebra"
}
# well-formed literals: in del alone for map rows, in del and lam1 for
# action entries, rationals for a del action
ROW_LITERALS = ["0", "1", "-1", "2", "1/2", "del", "-del", "del^2 + 1"]
ENTRY_LITERALS = ROW_LITERALS + ["lam1", "-2*lam1", "del + 2*lam1", "lam1^2", "lam1^3"]
DEL_LITERALS = ["0", "1", "-2", "1/2"]
VERBS = ["check", "cohomology", "extend", "wells", "induce", "lift", "deform", "classify"]
FLAGS = [
    [], ["--bound", "0"], ["--bound", "-1"], ["--bound", "7"], ["--bound", "x"],
    ["--degree", "0"], ["--degree", "1"], ["--degree", "4"], ["--degree", "-1"],
    ["--operator"], ["--quot", "sl2id"], ["--sub", "ctrivid"], ["--quot", "virid"],
    ["--pair", "wellsgood"], ["--pair", "wellsbad"], ["--alpha", "idc"],
    ["--beta", "innerbeta"], ["--op", "idop"], ["--eta", "zerophi"], ["--bogus"],
] + [["--coeffs", name] for name in ("zerorep", "zerorepvir", "nonesuch")]


def _mutate_header(draw, words):
    """Rename one option of a block header, or point one of its references
    at another object of the kind it names."""
    options = {option.key: option for option in cli._BLOCKS[words[0]][0]}
    references = [k for k in range(2, len(words), 2) if options[words[k]].kind]
    if draw(st.booleans()) or not references:
        words[draw(st.sampled_from(range(2, len(words), 2)))] = draw(
            st.sampled_from(OPTION_KEYS)
        )
    else:
        k = draw(st.sampled_from(references))
        kind = options[words[k]].kind.rstrip("+")
        words[k + 1] = draw(st.sampled_from(OBJECTS[kind]))


def _mutate_body(draw, lines):
    """Change one entry of a ``row`` line or the rational of a ``del`` line
    to another well-formed literal, or add an ``action`` line to a rep."""
    if draw(st.integers(0, 3)) == 0:
        i = draw(st.sampled_from(REPS))
        words = lines[i].split()
        options = dict(zip(words[2::2], words[3::2]))
        acting = BASES[ALGEBRA_MODULES[options["algebra"]]]
        module = BASES[options["module"]]
        entry = ", ".join(draw(st.sampled_from(ENTRY_LITERALS)) for _ in module)
        lines.insert(i + 1, "  action %s %s = %s" % (
            draw(st.sampled_from(acting)), draw(st.sampled_from(module)), entry
        ))
        return
    i = draw(st.sampled_from(BODY))
    kind, rest = lines[i].split(None, 1)
    if kind == "del":
        lines[i] = "  del " + draw(st.sampled_from(DEL_LITERALS))
        return
    entries = rest.split(", ")
    entries[draw(st.integers(0, len(entries) - 1))] = draw(st.sampled_from(ROW_LITERALS))
    lines[i] = "  row " + ", ".join(entries)


@st.composite
def workspaces(draw):
    lines = list(CORE_LINES)
    grammar = draw(st.sampled_from(["header", "body", None]))
    if grammar == "header":
        i = draw(st.sampled_from([i for i in HEADERS if len(lines[i].split()) > 2]))
        words = lines[i].split()
        _mutate_header(draw, words)
        lines[i] = " ".join(words)
    elif grammar == "body":
        _mutate_body(draw, lines)
    # a changed body line is left well formed, so that the case can reach the checks
    low, high = {"header": (0, 3), "body": (0, 0), None: (1, 3)}[grammar]
    for _ in range(draw(st.integers(low, high))):
        i = draw(st.integers(0, len(lines) - 1))
        line = lines[i]
        action = draw(st.sampled_from(["delete", "repeat", "truncate", "replace", "insert"]))
        if action == "delete":
            del lines[i]
        elif action == "repeat":
            lines.insert(i, line)
        elif action == "truncate":
            lines[i] = line[: draw(st.integers(0, len(line)))]
        else:
            words = line.split(" ")
            j = draw(st.integers(0, len(words) - 1))
            token = draw(st.sampled_from(TOKENS))
            if action == "replace":
                words[j] = token
            else:
                words.insert(j, token)
            lines[i] = " ".join(words)
    return "\n".join(lines) + "\n"


# well-formed commands, run on every mutated workspace
COMMANDS = [
    ["check", "vir"],
    ["check", "sl2p"],
    ["check", "zerorep"],
    ["check", "kmext"],
    ["check", "km", "--quot", "sl2id", "--sub", "ctrivid"],
    ["check", "wellsgood", "--quot", "sl2id", "--sub", "ctrivid"],
    ["extend", "km", "--quot", "sl2id", "--sub", "ctrivid"],
    ["extend", "gf", "--quot", "virid", "--sub", "ctrivid"],
    ["cohomology", "vir", "--coeffs", "zerorepvir"],
    ["cohomology", "sl2", "--coeffs", "zerorep"],
    ["cohomology", "sl2p", "--operator", "--degree", "1"],
    ["wells", "kmext", "--pair", "wellsgood"],
    ["induce", "kmext", "--pair", "wellsbad"],
    ["lift", "kmext", "--pair", "wellsgood"],
]


@st.composite
def argvs(draw):
    argv = [draw(st.sampled_from(VERBS)), draw(st.sampled_from(NAMES))]
    for flag in draw(st.lists(st.sampled_from(FLAGS), max_size=2)):
        argv += flag
    if "--bound" not in argv:
        argv += ["--bound", "1"]
    for _ in range(draw(st.integers(0, 2))):
        i = draw(st.integers(0, len(argv)))
        if draw(st.booleans()) and i < len(argv):
            del argv[i]
        else:
            argv.insert(i, draw(st.sampled_from(TOKENS + VERBS)))
    return argv


class _OverBudget(BaseException):
    """Raised by the timer; not an Exception, so cli.main cannot catch it."""


def _over_budget(signum, frame):
    raise _OverBudget()


def _run(path, argv):
    out, err = io.StringIO(), io.StringIO()
    previous = signal.signal(signal.SIGALRM, _over_budget)
    signal.setitimer(signal.ITIMER_REAL, BUDGET)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(["-f", path] + argv)
    except _OverBudget:
        raise AssertionError("%r ran past %d s" % (argv, BUDGET)) from None
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    return code, out.getvalue()


FUZZ = settings(
    max_examples=40,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)


@FUZZ
@given(workspaces(), st.sampled_from(COMMANDS))
def test_mutated_input_never_exits_three(text, command):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "core.ws")
        with open(path, "w") as handle:
            handle.write(text)
        code, out = _run(path, command + ["--bound", "1"])
    assert code in (0, 1, 2), out


@FUZZ
@given(argvs())
def test_mutated_argv_never_exits_three(argv):
    code, out = _run(CORE, argv)
    assert code in (0, 1, 2), out


def test_a_slice_above_the_cell_cap_exits_two_within_the_budget(tmp_path):
    # on the abelian algebra of a 16-name module this exited 3 with
    # MemoryError after 23.5 s under a 3 GB address-space limit
    ws = tmp_path / "wide.ws"
    names = " ".join("x%d" % i for i in range(16))
    ws.write_text("module m\n  basis %s\n\nalgebra ab module m\n" % names)
    code, out = _run(str(ws), ["cohomology", "ab", "--degree", "3", "--bound", "2"])
    assert (code, out.splitlines()[-1]) == (2, (
        "diagnostic: unsupported mode: a degree-3 slice at bound 2 has 130560 "
        "cells, above the cap of 4096"
    ))
