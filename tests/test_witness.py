"""Exact stdout of checks that fail a conformal axiom.

Each failing check names its least failing basis tuple and the residual
there.  These lines were recorded before the checks moved to orbit
representatives (sorted tuples of a skew bracket), so a witness that moves
by a byte, or a failure that goes unreported, fails here.
"""

import os

import pytest

from test_cli import CORE, ROOT, run_cli

WITNESS = os.path.join(ROOT, "tests", "witness.ws")
NOT_NIJENHUIS = os.path.join(ROOT, "tests", "notnijenhuis.ws")
WS = ["-f", CORE, "-f", WITNESS]
KM = ["--quot", "sl2id", "--sub", "ctrivid"]

# (test id, argv, exit code, stdout lines)
CASES = [
    ("check-skew-not-jacobi", WS + ["check", "sl2skew"], 1, [
        "command: check sl2skew",
        "object: sl2skew (algebra)",
        "  skew: pass",
        "  jacobi: fail at=0,0,2 residual=[(2*lam1 - 2*lam2)e]",
        "status: fail",
    ]),
    ("check-not-skew", WS + ["check", "sl2noskew"], 1, [
        "command: check sl2noskew",
        "object: sl2noskew (algebra)",
        "  skew: fail at=0,2 residual=[(lam1)h]",
        "  jacobi: fail at=0,0,2 residual=[(2*lam1 - 2*lam2)e]",
        "status: fail",
    ]),
    ("check-representation", WS + ["check", "badrep"], 1, [
        "command: check badrep",
        "object: badrep (rep)",
        "  algebra: pass",
        "  representation: fail at=0,1,0 residual=[(-2*lam1 - 2*lam2)c]",
        "status: fail",
    ]),
    ("extend-not-cocycle", WS + ["extend", "km3"] + KM, 1, [
        "command: extend km3",
        "object: km3",
        "  chi-skew: pass",
        "  rho-derivation: pass",
        "  curvature: pass",
        "  jacobi: fail at=0,1,2 residual=[(-lam2)c#M]",
        "  operator-module: pass",
        "  operator-bracket: pass",
        "status: fail",
    ]),
    ("extend-not-skew", WS + ["extend", "kmsq"] + KM, 1, [
        "command: extend kmsq",
        "object: kmsq",
        "  chi-skew: fail at=0,0 residual=[(2*lam1^2)c#M]",
        "  rho-derivation: pass",
        "  curvature: pass",
        "  jacobi: fail at=0,0,1 residual=[(-2*lam1^2 + 2*lam2^2)c#M]",
        "  operator-module: pass",
        "  operator-bracket: pass",
        "status: fail",
    ]),
    ("extend-curvature", WS + ["extend", "kmbadrho"] + KM, 1, [
        "command: extend kmbadrho",
        "object: kmbadrho",
        "  chi-skew: pass",
        "  rho-derivation: pass",
        "  curvature: fail at=0,1,3 residual=[(2*lam1 + 2*lam2)c#M]",
        "  jacobi: fail at=0,1,1 residual=[(2*lam1*lam2)c#M]",
        "  operator-module: pass",
        "  operator-bracket: pass",
        "status: fail",
    ]),
    ("check-cocycle", WS + ["check", "km3"] + KM, 1, [
        "command: check km3",
        "object: km3 (cocycle)",
        "  chi-skew: pass",
        "  rho-derivation: pass",
        "  curvature: pass",
        "  jacobi: fail at=0,1,2 residual=[(-lam2)c#M]",
        "  operator-module: pass",
        "  operator-bracket: pass",
        "status: fail",
    ]),
    ("nijenhuis-block", ["-f", CORE, "-f", NOT_NIJENHUIS, "check", "sl2diag"], 2, [
        "command: check sl2diag",
        "status: error",
        "diagnostic: %s:9:1: operator is not Nijenhuis: "
        "['nijenhuis: fail at=0,2 residual=[(-1)h]']" % NOT_NIJENHUIS,
    ]),
]


@pytest.mark.parametrize("argv,code,lines", [c[1:] for c in CASES], ids=[c[0] for c in CASES])
def test_failing_check_names_its_least_witness(argv, code, lines):
    assert run_cli(*argv)[:2] == (code, "\n".join(lines) + "\n")
