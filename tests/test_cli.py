import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CORE = os.path.join(ROOT, "fixtures", "core.ws")
HOMOTOPY = os.path.join(ROOT, "fixtures", "homotopy.ws")


def run_cli(*argv, timeout=None):
    proc = subprocess.run(
        [sys.executable, "-m", "nijconf.cli"] + list(argv),
        capture_output=True,
        text=True,
        timeout=timeout,
    )
    return proc.returncode, proc.stdout, proc.stderr


def test_check_passes_and_exits_zero():
    code, out, _ = run_cli("-f", CORE, "check", "vir")
    assert code == 0
    assert "status: pass" in out


def test_package_runs_as_a_module():
    argv = ["-f", CORE, "check", "sl2p"]
    proc = subprocess.run(
        [sys.executable, "-m", "nijconf"] + argv, capture_output=True, text=True
    )
    assert (proc.returncode, proc.stdout) == run_cli(*argv)[:2]
    assert proc.returncode == 0 and "status: pass" in proc.stdout


def test_check_failure_exits_one(tmp_path):
    bad = tmp_path / "bad.ws"
    bad.write_text(
        "module vm\n  basis L\n\nalgebra v3 module vm\n"
        "  bracket L L = del + 3*lam1\n"
    )
    code, out, _ = run_cli("-f", str(bad), "check", "v3")
    assert code == 1
    assert "jacobi: fail" in out
    assert "residual=" in out
    assert "status: fail" in out


def test_parse_error_exits_two(tmp_path):
    bad = tmp_path / "syntax.ws"
    bad.write_text("module m\n  basis a\n\nalgebra x module m\n  bracket a zz = 1\n")
    code, out, _ = run_cli("-f", str(bad), "check", "x")
    assert code == 2
    assert "syntax.ws" in out
    assert "unknown basis name" in out


def test_unknown_object_exits_two():
    code, out, _ = run_cli("-f", CORE, "check", "nonesuch")
    assert code == 2


def test_duplicate_basis_name_exits_two_with_position(tmp_path):
    bad = tmp_path / "dup.ws"
    bad.write_text("module m\n  basis a b\n  basis c  b\n")
    code, out, _ = run_cli("-f", str(bad), "check", "m")
    assert code == 2
    assert "dup.ws:3:12: duplicate basis name 'b'" in out
    assert "status: error" in out


def test_negative_bound_exits_two():
    code, out, _ = run_cli(
        "-f", CORE, "cohomology", "vir", "--coeffs", "zerorepvir", "--bound", "-1"
    )
    assert code == 2
    assert "--bound must be nonnegative" in out
    assert "status: error" in out


def test_bound_zero_is_honoured():
    code, out, _ = run_cli(
        "-f", CORE, "cohomology", "vir", "--coeffs", "zerorepvir", "--bound", "0"
    )
    assert code == 0
    # the bound-0 slice is empty; bound 3 (the default) has h-dim 1
    assert "  cochain-dim: 0\n" in out
    assert "  h-dim: 0\n" in out


@pytest.mark.parametrize(
    "flags,message",
    [
        (["--bound", "7"], "--bound must be at most 6, got 7"),
        (["--degree", "4"], "--degree must be between 0 and 3, got 4"),
        (["--degree", "-1"], "--degree must be between 0 and 3, got -1"),
    ],
)
def test_solver_limits_are_usage_errors(flags, message):
    code, out, _ = run_cli("-f", CORE, "cohomology", "vir", *flags)
    assert code == 2
    assert "<args>:0:0: " + message in out
    assert "status: error" in out


def test_non_utf8_workspace_exits_two_with_position(tmp_path):
    bad = tmp_path / "latin1.ws"
    bad.write_bytes(b"module m\n  basis a\n# caf\xe9\n")
    code, out, _ = run_cli("-f", str(bad), "check", "m")
    assert code == 2
    assert "latin1.ws:3:6: invalid UTF-8 byte 0xe9" in out
    assert "status: error" in out


@pytest.mark.parametrize(
    "literal,column,degree",
    [
        ("lam1^999999999", 22, 999999999),
        ("((del+lam1)^9)^9", 32, 81),
        ("del + 2^999999999*lam1", 25, 999999999),
    ],
)
def test_literal_degree_is_bounded(tmp_path, literal, column, degree):
    # each of these ran for more than 10 s before the power was bounded
    bad = tmp_path / "big.ws"
    bad.write_text(
        "module vm\n  basis L\n\nalgebra v3 module vm\n  bracket L L = %s\n"
        % literal
    )
    code, out, _ = run_cli("-f", str(bad), "check", "v3", timeout=10)
    assert code == 2
    assert "big.ws:5:%d: power of degree %d exceeds the bound 16" % (
        column, degree
    ) in out
    assert "status: error" in out


@pytest.mark.parametrize(
    "body,diagnostic",
    [
        # first coordinate, later coordinate, two equal coordinates
        ("bracket a a = lam1^99, 0",
         "5:22: power of degree 99 exceeds the bound 16"),
        ("bracket a a = lam1, lam1^99",
         "5:28: power of degree 99 exceeds the bound 16"),
        ("bracket a a = 0, lam1^99",
         "5:25: power of degree 99 exceeds the bound 16"),
        ("bracket a a = lam1^99, lam1^99",
         "5:22: power of degree 99 exceeds the bound 16"),
        ("bracket a a = 0,del + ??", "5:25: unexpected character '?'"),
        ("bracket a a = 0, del + foo", "5:26: unknown variable 'foo'"),
        ("bracket a a = lam1, lam2", "5:23: variable lam2 exceeds arity 1"),
        ("bracket a a = lam1, del + lam2", "5:29: variable lam2 exceeds arity 1"),
        ("bracket a a = 1", "5:17: expected 2 coordinates, got 1"),
    ],
)
def test_literal_errors_name_one_exact_column(tmp_path, body, diagnostic):
    bad = tmp_path / "lit.ws"
    bad.write_text("module m\n  basis a b\n\nalgebra x module m\n  %s\n" % body)
    code, out, _ = run_cli("-f", str(bad), "check", "x")
    assert code == 2
    assert "diagnostic: %s:%s\n" % (bad, diagnostic) in out


@pytest.mark.parametrize(
    "rows,diagnostic",
    [
        ("  row 1, 0\n  row 0, lam1\n", "6:10: variable lam1 exceeds arity 0"),
        # a row without coordinates raised IndexError (exit 3)
        ("  row\n  row 0, 1\n", "5:6: expected 2 coordinates, got 1"),
    ],
)
def test_map_row_errors_name_one_exact_column(tmp_path, rows, diagnostic):
    bad = tmp_path / "row.ws"
    bad.write_text("module m\n  basis a b\n\nmap q source m target m\n" + rows)
    code, out, _ = run_cli("-f", str(bad), "check", "q")
    assert code == 2
    assert "diagnostic: %s:%s\n" % (bad, diagnostic) in out


ENTRY_WS = (
    "module m\n  basis e h\n\nalgebra x module m\n%s\n"
    "rep r algebra x module m\n%s\n"
    "cochain k rep r degree 2\n%s"
)


@pytest.mark.parametrize(
    "bracket,action,value,diagnostic",
    [
        # surplus names were ignored: the first of these exited 1 with a
        # skew failure, the second and third passed
        ("  bracket e e e = 1, 0\n", "", "", "5:15: expected 2 basis names, got 3"),
        ("", "  action e h h = 0, 0\n", "", "7:14: expected 2 basis names, got 3"),
        ("", "", "  value e h e = lam1, 0\n", "9:13: expected 2 basis names, got 3"),
        # a missing name was read as the name '=' at column 1
        ("  bracket e = 1, 0\n", "", "", "5:13: expected 2 basis names, got 1"),
        ("  bracket e zz = 1, 0\n", "", "", "5:13: unknown basis name 'zz'"),
    ],
)
def test_entry_lines_take_exactly_their_basis_names(
    tmp_path, bracket, action, value, diagnostic
):
    bad = tmp_path / "names.ws"
    bad.write_text(ENTRY_WS % (bracket, action, value))
    code, out, _ = run_cli("-f", str(bad), "check", "x")
    assert (code, out.splitlines()[-1]) == (2, "diagnostic: %s:%s" % (bad, diagnostic))


# phi sends the torsion generator c onto the free generator h, so the total
# operator of the triple cc is not Q[del]-linear
MIX_WS = (
    "module q\n  basis c\n  del 0\n\nmodule s\n  basis h\n\n"
    "algebra qa module q\n\nalgebra sa module s\n\n"
    "map idq source q target q\n  row 1\n\n"
    "map ids source s target s\n  row 1\n\n"
    "map phi source q target s\n  row 1\n\n"
    "nijenhuis qn algebra qa operator idq\n\n"
    "nijenhuis sn algebra sa operator ids\n\n"
    "rep zero algebra qa module s\n\n"
    "cochain chi degree 2 rep zero\n\n"
    "cocycle cc chi chi rho zero phi phi\n"
)


def test_cocycle_operator_must_be_linear_on_torsion(tmp_path):
    # the check passed this triple, which the extension block below refuses
    ws = tmp_path / "mix.ws"
    ws.write_text(MIX_WS)
    code, out, _ = run_cli("-f", str(ws), "check", "cc", "--quot", "qn", "--sub", "sn")
    assert (code, out) == (1, "\n".join([
        "command: check cc",
        "object: cc (cocycle)",
        "  chi-skew: pass",
        "  rho-derivation: pass",
        "  curvature: pass",
        "  jacobi: pass",
        "  operator-module: fail at=1,0 residual=[(-del)h#M]",
        "  operator-bracket: pass",
        "status: fail",
    ]) + "\n")


def test_extension_operator_must_be_linear_on_torsion(tmp_path):
    # the block used to be accepted
    ws = tmp_path / "mix.ws"
    ws.write_text(MIX_WS + "\nextension ext cocycle cc quot qn sub sn\n")
    code, out, _ = run_cli("-f", str(ws), "check", "ext")
    assert (code, out.splitlines()[-1]) == (2, (
        "diagnostic: %s:31:1: operator is not Q[del]-linear: its entry "
        "(h#M, c#L) maps the torsion generator c#L onto h#M, where del acts otherwise"
    ) % ws)


REP_WS = "module m\n  basis a\n\nalgebra g module m\n\nrep r algebra g module m\n\n"


@pytest.mark.parametrize(
    "text,diagnostic",
    [
        # each of the first four raised ValueError or ZeroDivisionError (exit 3)
        ("module m\n  basis a\n  del x\n", "3:7: unknown variable 'x'"),
        ("module m\n  basis a\n  del 1/0\n", "3:9: denominator must be a positive integer"),
        ("module m del nan\n  basis a\n", "1:14: unknown variable 'nan'"),
        (REP_WS + "cochain k rep r degree x\n",
         "8:24: cochain degree must be an integer from 0 to 4, got 'x'"),
        # these exited 1 without a position
        (REP_WS + "cochain k degree 9 rep r\n",
         "8:18: cochain degree must be an integer from 0 to 4, got '9'"),
        ("module m\n  basis a\n  del del\n", "3:7: expected a rational constant, got del"),
        ("module m\n  basis a\n  del 0.5\n", "3:8: unexpected character '.'"),
    ],
)
def test_header_and_del_literals_name_their_column(tmp_path, text, diagnostic):
    bad = tmp_path / "lit.ws"
    bad.write_text(text)
    code, out, _ = run_cli("-f", str(bad), "check", "m")
    assert (code, out.splitlines()[-1]) == (2, "diagnostic: %s:%s" % (bad, diagnostic))


@pytest.mark.parametrize("flag", [["--seed", "1"], ["--parallel"]])
def test_removed_flags_are_unknown_arguments(flag):
    code, out, _ = run_cli("-f", CORE, "check", "vir", *flag)
    assert code == 2
    assert out == ""


def test_byte_identical_reruns():
    args = ("-f", CORE, "extend", "km", "--quot", "sl2id", "--sub", "ctrivid")
    first = run_cli(*args)
    second = run_cli(*args)
    assert first[0] == second[0] == 0
    assert first[1] == second[1]
    # timing goes to stderr so stdout stays reproducible
    assert "timing" not in first[1]
    assert "timing" in first[2]


def test_cohomology_dimensions():
    code, out, _ = run_cli(
        "-f", CORE, "cohomology", "vir", "--coeffs", "zerorepvir", "--bound", "3"
    )
    assert code == 0
    assert "h-dim: 1" in out


def test_wells_rescaling_is_infeasible():
    code, out, _ = run_cli(
        "-f", CORE, "induce", "kmext", "--pair", "wellsbad"
    )
    assert code == 1
    assert "status: infeasible" in out


def test_wells_inner_pair_lifts():
    code, out, _ = run_cli("-f", CORE, "lift", "kmext", "--pair", "wellsgood")
    assert code == 0
    assert "gamma" in out


def test_deform_and_classify_verbs():
    code, out, _ = run_cli("-f", CORE, "-f", HOMOTOPY, "deform", "scaledp")
    assert code == 0
    code, out, _ = run_cli(
        "-f", CORE, "-f", HOMOTOPY, "classify", "virskeletal", "--op", "idop"
    )
    assert code == 0
    assert "class:" in out


def test_report_flag_duplicates_stdout(tmp_path):
    target = tmp_path / "report.txt"
    code, out, _ = run_cli(
        "-f", CORE, "check", "vir", "--report", str(target)
    )
    assert code == 0
    assert target.read_text() == out


def test_search_path_env(tmp_path):
    env = dict(os.environ)
    env["NIJCONF_PATH"] = os.path.join(ROOT, "fixtures")
    proc = subprocess.run(
        [sys.executable, "-m", "nijconf.cli", "-f", "core.ws", "check", "sl2"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0


WITNESS = os.path.join(ROOT, "tests", "witness.ws")


@pytest.mark.parametrize(
    "argv,lines",
    [
        (["sl2skew"], [
            "command: cohomology sl2skew",
            "status: error",
            "diagnostic: sl2skew fails check_lca: "
            "jacobi: fail at=0,0,2 residual=[(2*lam1 - 2*lam2)e]",
        ]),
        (["sl2", "--coeffs", "badrep"], [
            "command: cohomology sl2",
            "status: error",
            "diagnostic: badrep fails check_representation: "
            "representation: fail at=0,1,0 residual=[(-2*lam1 - 2*lam2)c]",
        ]),
    ],
    ids=["algebra", "rep"],
)
def test_cohomology_needs_coefficients_that_pass_their_axioms(argv, lines):
    # without the check, d^2 need not vanish and h-dim reads -9 and -3
    code, out, _ = run_cli(
        "-f", CORE, "-f", WITNESS, "cohomology", *argv, "--bound", "1"
    )
    assert (code, out) == (1, "\n".join(lines) + "\n")


TORSION_WS = (
    "module tm\n  basis x c\n  del 0\n\n"
    "algebra tors module tm\n  bracket x c = 0, 1\n  bracket c x = 0, -1\n"
)


def test_brackets_on_torsion_fail_check_and_cohomology(tmp_path):
    # del acts on x and c by 0, so sesquilinearity gives lam [x lam c] = 0;
    # the bracket used to pass `check`, and `cohomology` printed h-dim -6
    ws = tmp_path / "tors.ws"
    ws.write_text(TORSION_WS)
    code, out, _ = run_cli("-f", str(ws), "check", "tors")
    assert (code, out) == (1, "\n".join([
        "command: check tors",
        "object: tors (algebra)",
        "  skew: fail at=0,1 residual=[(1)c]",
        "  jacobi: pass",
        "status: fail",
    ]) + "\n")
    code, out, _ = run_cli(
        "-f", str(ws), "cohomology", "tors", "--degree", "3", "--bound", "1"
    )
    assert (code, out) == (1, "\n".join([
        "command: cohomology tors",
        "status: error",
        "diagnostic: tors fails check_lca: skew: fail at=0,1 residual=[(1)c]",
    ]) + "\n")


def test_cohomology_rejects_a_rep_of_another_algebra():
    # zerorep is a rep of sl2; it used to give sl2's dimensions under vir
    code, out, _ = run_cli(
        "-f", CORE, "cohomology", "vir", "--coeffs", "zerorep", "--bound", "1"
    )
    assert code == 2
    assert out == (
        "command: cohomology vir\nstatus: error\n"
        "diagnostic: <args>:0:0: rep 'zerorep' is not over the algebra of 'vir'\n"
    )
    code, out, _ = run_cli(
        "-f", CORE, "cohomology", "sl2p", "--coeffs", "zerorep", "--bound", "1"
    )
    assert code == 0 and "h-dim: 1" in out
