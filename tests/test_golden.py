"""Byte-for-byte stdout and exit code of every benchmark verb and README command,
plus the extension and automorphism-pair checks that decide over Q[del].

``tests/golden/`` holds the stdout each command printed before the refactor
that touched its code path (the evaluator, dagger and witness-formatter
merges; the unimodular Q[del] reduction for the two checks; the evaluation
of rank-3 coboundary images on non-decreasing tuples; the evaluation of
brackets and cochains on the support of their arguments, for the degree-3
slices); a refactor that moves a single byte of a report fails here.  Regenerate a file only for an
intended change of output.
"""

import os

import pytest

from test_cli import CORE as CORE_WS, HOMOTOPY, ROOT, run_cli

GOLDEN = os.path.join(ROOT, "tests", "golden")
CORE = ["-f", CORE_WS]
BOTH = CORE + ["-f", HOMOTOPY]

# (golden file stem, argv, exit code)
COMMANDS = [
    ("check-vir", CORE + ["check", "vir"], 0),
    ("check-sl2p", CORE + ["check", "sl2p"], 0),
    ("check-kmext", CORE + ["check", "kmext"], 0),
    ("check-wellsgood",
     CORE + ["check", "wellsgood", "--quot", "sl2id", "--sub", "ctrivid"], 0),
    ("cohomology-vir-zerorepvir-b3",
     CORE + ["cohomology", "vir", "--coeffs", "zerorepvir", "--bound", "3"], 0),
    ("cohomology-sl2-b2", CORE + ["cohomology", "sl2", "--bound", "2"], 0),
    ("cohomology-sl2-zerorep-b3",
     CORE + ["cohomology", "sl2", "--coeffs", "zerorep", "--bound", "3"], 0),
    ("cohomology-sl2p-operator-b2",
     CORE + ["cohomology", "sl2p", "--operator", "--bound", "2"], 0),
    ("cohomology-sl2-d3-b1",
     CORE + ["cohomology", "sl2", "--degree", "3", "--bound", "1"], 0),
    ("cohomology-sl2p-operator-d3-b1",
     CORE + ["cohomology", "sl2p", "--operator", "--degree", "3", "--bound", "1"], 0),
    ("extend-km", CORE + ["extend", "km", "--quot", "sl2id", "--sub", "ctrivid"], 0),
    ("extend-gf", CORE + ["extend", "gf", "--quot", "virid", "--sub", "ctrivid"], 0),
    ("wells-kmext-wellsgood", CORE + ["wells", "kmext", "--pair", "wellsgood"], 0),
    ("wells-kmext-wellsbad", CORE + ["wells", "kmext", "--pair", "wellsbad"], 1),
    ("induce-kmext-wellsbad", CORE + ["induce", "kmext", "--pair", "wellsbad"], 1),
    ("induce-kmext-wellsgood", CORE + ["induce", "kmext", "--pair", "wellsgood"], 0),
    ("lift-kmext-wellsgood", CORE + ["lift", "kmext", "--pair", "wellsgood"], 0),
    ("deform-scaledp", BOTH + ["deform", "scaledp"], 0),
    ("classify-virskeletal-idop", BOTH + ["classify", "virskeletal", "--op", "idop"], 0),
    ("check-nonesuch", CORE + ["check", "nonesuch"], 2),
]


@pytest.mark.parametrize("stem,argv,code", COMMANDS, ids=[c[0] for c in COMMANDS])
def test_stdout_matches_golden(stem, argv, code):
    with open(os.path.join(GOLDEN, stem + ".out")) as handle:
        expected = handle.read()
    assert run_cli(*argv)[:2] == (code, expected)
