"""Source-level rules: one failure collector and one witness format, one
validation of a Nijenhuis structure, one builder of solver slices, one
solver for a map L -> H, and a documented workspace grammar.

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
basis cochain through one plan of the differential; so no caller of the
solver keeps a slice of its own.  ``linalg.solve`` is called only from
``extension.solve_map``, the one solver for a map L -> H (the tau of an
equivalence and the eta of a lift), and from ``cohomology.image_contains``.
Every block kind of ``cli._BLOCKS`` and each of its options is named in the
README's workspace grammar.
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


def _callers(name):
    """(module, function) of every call of ``name``, by source line."""
    found = []
    for path in SOURCES:
        module = os.path.basename(path)[:-3]
        with open(path) as handle:
            tree = ast.parse(handle.read())
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


def test_only_the_slice_builder_calls_cochain_space():
    assert _callers("cochain_space") == [("cohomology", "_slice")]


def test_only_the_map_solver_and_the_image_test_call_solve():
    assert _callers("solve") == [
        ("cohomology", "image_contains"),
        ("extension", "solve_map"),
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
