"""Fuzz the input contract: malformed workspaces and argv exit 2, never 3.

Each case mutates a few lines of ``fixtures/core.ws`` (deleting, repeating
or truncating a line, or putting a token into it) and builds an argv from
the CLI's verbs, the workspace's object names and its flags, with a few
tokens dropped or added.  Half the cases first mutate one block header
through the block grammar of ``cli._BLOCKS``: they rename one of its
options, or point one of its references at another object of the kind it
names, so that the header stays well formed and the case can reach the
builders and checks.  ``cli.main`` runs in-process.  Whatever the input,
the exit code is 0, 1 or 2; an internal error (3), or a case that runs past
its time budget, fails.  Solver limits are kept small (degree at most 2,
bound at most 1) so that a well-formed case stays cheap.
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


@st.composite
def workspaces(draw):
    lines = list(CORE_LINES)
    header = draw(st.booleans())
    if header:
        i = draw(st.sampled_from([i for i in HEADERS if len(lines[i].split()) > 2]))
        words = lines[i].split()
        _mutate_header(draw, words)
        lines[i] = " ".join(words)
    for _ in range(draw(st.integers(0 if header else 1, 3))):
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


# well-formed commands, so that half the cases get past argv to the objects
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
    if draw(st.booleans()):
        return draw(st.sampled_from(COMMANDS)) + ["--bound", "1"]
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


@settings(
    max_examples=40,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(workspaces(), argvs())
def test_mutated_input_never_exits_three(text, argv):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "core.ws")
        with open(path, "w") as handle:
            handle.write(text)
        code, out = _run(path, argv)
    assert code in (0, 1, 2), out
