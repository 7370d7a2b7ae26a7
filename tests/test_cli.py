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


def test_module_rank_above_the_bound_exits_two_at_the_first_surplus_name(tmp_path):
    from nijconf.cli import MAX_RANK

    names = ["g%d" % i for i in range(MAX_RANK + 2)]
    first, rest = names[:3], names[3:]
    bad = tmp_path / "wide.ws"
    bad.write_text("module m\n  basis %s\n  basis %s\n" % (" ".join(first), " ".join(rest)))
    code, out, _ = run_cli("-f", str(bad), "check", "m")
    assert code == 2
    column = len("  basis ") + len(" ".join(rest[: MAX_RANK - 3])) + 2
    assert "wide.ws:3:%d: module rank exceeds the bound %d" % (column, MAX_RANK) in out
    assert "status: error" in out
    ok = tmp_path / "full.ws"
    ok.write_text("module m\n  basis %s\n\nalgebra z module m\n" % " ".join(names[:MAX_RANK]))
    code, out, _ = run_cli("-f", str(ok), "check", "z")
    assert code == 0, out


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


@pytest.mark.parametrize(
    "argv",
    [
        ["-f", HOMOTOPY, "deform", "scaledp"],
        ["induce", "kmext", "--pair", "wellsgood"],
        ["wells", "kmext", "--pair", "wellsgood"],
        ["lift", "kmext", "--pair", "wellsgood"],
    ],
)
def test_bound_above_the_solver_limit_exits_two_for_every_verb(argv):
    # each verb's solve grows with the bound, so every verb caps it
    code, out, _ = run_cli("-f", CORE, *argv, "--bound", "7")
    assert code == 2
    assert "<args>:0:0: --bound must be at most 6, got 7" in out
    assert "status: error" in out


def test_non_utf8_workspace_exits_two_with_position(tmp_path):
    bad = tmp_path / "latin1.ws"
    bad.write_bytes(b"module m\n  basis a\n# caf\xe9\n")
    code, out, _ = run_cli("-f", str(bad), "check", "m")
    assert code == 2
    assert "latin1.ws:3:6: invalid UTF-8 byte 0xe9" in out
    assert "status: error" in out


# twelve factors, each a power within the bound; the second one crosses it
_TWELVE_POWERS = "*".join(["(del+lam1)^16"] * 12)


@pytest.mark.parametrize(
    "literal,column,degree",
    [
        ("lam1^999999999", 22, 999999999),
        ("((del+lam1)^9)^9", 32, 81),
        ("del + 2^999999999*lam1", 25, 999999999),
        pytest.param(_TWELVE_POWERS, 31, 32, id="twelve-powers-of-degree-16"),
    ],
)
def test_literal_degree_is_bounded(tmp_path, literal, column, degree):
    # each of these ran for more than 10 s before its degree was bounded
    bad = tmp_path / "big.ws"
    bad.write_text(
        "module vm\n  basis L\n\nalgebra v3 module vm\n  bracket L L = %s\n"
        % literal
    )
    code, out, _ = run_cli("-f", str(bad), "check", "v3", timeout=10)
    assert code == 2
    kind = "product" if literal == _TWELVE_POWERS else "power"
    assert "big.ws:5:%d: %s of degree %d exceeds the bound 16" % (
        column, kind, degree
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


# a rank-1 trivial algebra on a module other than core.ws's triv0
DTRIV_WS = (
    "module triv1\n  basis d\n  del 0\n\n"
    "map idd source triv1 target triv1\n  row 1\n\n"
    "algebra dtriv module triv1\n\n"
    "nijenhuis dtrivid algebra dtriv operator idd\n"
)
OFF_TRIPLE = "rho must act by the quotient on the kernel's module"


@pytest.mark.parametrize("verb", ["check", "extend"])
@pytest.mark.parametrize("quot,sub", [("virid", "ctrivid"), ("sl2id", "dtrivid")])
def test_a_triple_over_another_quotient_or_kernel_is_an_error(
    tmp_path, verb, quot, sub
):
    # km's rho is sl2 acting on triv0: check passed every line and exited 0,
    # and extend failed only its roundtrip
    ws = tmp_path / "dtriv.ws"
    ws.write_text(DTRIV_WS)
    code, out, _ = run_cli(
        "-f", CORE, "-f", str(ws), verb, "km", "--quot", quot, "--sub", sub
    )
    assert (code, out) == (1, "\n".join([
        "command: %s km" % verb,
        "status: error",
        "diagnostic: " + OFF_TRIPLE,
    ]) + "\n")


def test_an_extension_block_over_another_kernel_exits_two(tmp_path):
    ws = tmp_path / "dtriv.ws"
    ws.write_text(DTRIV_WS + "\nextension bad cocycle km quot sl2id sub dtrivid\n")
    code, out, _ = run_cli("-f", CORE, "-f", str(ws), "check", "bad")
    diagnostic = "diagnostic: %s:12:1: %s" % (ws, OFF_TRIPLE)
    assert (code, out.splitlines()[-1]) == (2, diagnostic)


@pytest.mark.parametrize("verb", ["check", "extend"])
@pytest.mark.parametrize(
    "triple,quot",
    [
        ("kmchi rho zerorepvir phi zerophivir", "virid"),
        ("virchi rho zerorep phi zerophi", "sl2id"),
    ],
)
def test_a_triple_whose_chi_is_over_another_algebra_exits_two(
    tmp_path, verb, triple, quot
):
    # chi was read at the quotient's basis pairs by index: the first triple
    # passed check and failed only extend's roundtrip, the second failed
    # jacobi on vir's value read as chi(e, e)
    ws = tmp_path / "mixed.ws"
    ws.write_text("cocycle mixed chi %s\n" % triple)
    code, out, _ = run_cli(
        "-f", CORE, "-f", str(ws), verb, "mixed", "--quot", quot, "--sub", "ctrivid"
    )
    assert (code, out) == (2, "\n".join([
        "command: %s mixed" % verb,
        "status: error",
        "diagnostic: %s:1:1: chi must be a cochain of rho's algebra" % ws,
    ]) + "\n")


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


def test_twoterm_with_a_non_skew_l3_fails_l3_skew(tmp_path):
    # l3 = 1 at (a, b, b) only is not skew, but L1-L8 pass on it, and `check
    # tt` used to exit 0 while `classify` called the structure skeletal
    ws = tmp_path / "tt.ws"
    ws.write_text(
        "module om\n  basis a b\n\nmodule tm\n  basis m\n\n"
        "algebra ab module om\n\nrep zr algebra ab module tm\n\n"
        "map zd source tm target om\n  row 0\n  row 0\n\n"
        "map idom source om target om\n  row 1, 0\n  row 0, 1\n\n"
        "map idtm source tm target tm\n  row 1\n\n"
        "cochain l3c rep zr degree 3\n  value a b b = 1\n\n"
        "twoterm tt l0 ab l1 tm d zd action zr l3 l3c\n\n"
        "homotopyop op n0 idom n1 idtm\n"
    )
    code, out, _ = run_cli("-f", str(ws), "check", "tt")
    lines = out.splitlines()
    assert (code, lines[2], lines[-1]) == (
        1, "  l3-skew: fail at=0,1,1,0 residual=[(1)m]", "status: fail"
    )
    assert all(line.endswith(": pass") for line in lines[3:-1])
    code, out, _ = run_cli("-f", str(ws), "classify", "tt", "--op", "op")
    assert code == 1
    assert "class: skeletal" not in out
    # the diagnostic names the failing line and its witness, as `check` does
    assert (
        "diagnostic: underlying 2-term structure fails check_2term: "
        "l3-skew: fail at=0,1,1,0 residual=[(1)m]"
    ) in out.splitlines()


@pytest.mark.parametrize("missing", ["--quot", "--sub"])
def test_extend_without_quot_or_sub_is_a_usage_error(missing):
    # a missing --sub used to print "unknown object None"
    flags = {"--quot": "sl2id", "--sub": "ctrivid"}
    del flags[missing]
    code, out, _ = run_cli("-f", CORE, "extend", "km", *[*flags.items()][0])
    assert (code, out.splitlines()[-1]) == (
        2, "diagnostic: <args>:0:0: extend needs --quot and --sub"
    )


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


def test_a_pair_written_with_del_on_the_central_line_is_the_pair_without(tmp_path):
    # del acts by 0 on triv0, so alpha = del + 2 is the map alpha = 2 of
    # wellsbad, and every Wells verb prints wellsbad's lines
    extra = tmp_path / "pdel.ws"
    extra.write_text(
        "map delplus2 source triv0 target triv0\n  row del + 2\n\n"
        "pair pdel alpha delplus2 beta idsl2\n"
    )
    for verb in ("wells", "induce", "lift"):
        got = run_cli("-f", CORE, "-f", str(extra), verb, "kmext", "--pair", "pdel")
        want = run_cli("-f", CORE, verb, "kmext", "--pair", "wellsbad")
        assert got[:2] == want[:2]
        assert verb != "wells" or "class: nonzero-certified" in got[1]


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


def test_operator_cohomology_with_another_module_is_a_usage_error():
    # exited 1 with the solver's "operation needs adjoint coefficients"
    code, out, _ = run_cli(
        "-f", CORE, "cohomology", "sl2p", "--coeffs", "zerorep", "--operator"
    )
    assert (code, out) == (2, (
        "command: cohomology sl2p\nstatus: error\n"
        "diagnostic: <args>:0:0: --operator needs adjoint coefficients\n"
    ))


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


# blocks the refusal cases below build on; each case's block is line 31
BLOCK_WS = (
    "module vm\n  basis L\n\nmodule tm\n  basis c\n  del 0\n\n"
    "algebra vir module vm\n  bracket L L = del + 2*lam1\n\n"
    "rep zr algebra vir module tm\n\n"
    "map idv source vm target vm\n  row 1\n\n"
    "map idt source tm target tm\n  row 1\n\n"
    "map zd source tm target vm\n  row 0\n\n"
    "map td source tm target vm\n  row 1\n\n"
    "nijenhuis vn algebra vir operator idv\n\n"
    "cochain k2 degree 2 rep zr\n\n"
    "cochain k3 degree 3 rep zr\n\n"
)


@pytest.mark.parametrize(
    "block,diagnostic",
    [
        # the misspelled option was dropped: classify printed class: strict
        ("twoterm tt l0 vir l1 tm d zd action zr L3 k2",
         "31:40: unknown twoterm option 'L3'"),
        # the bracket line was ignored, and `check nn` passed
        ("nijenhuis nn algebra vir operator idv\n  bracket L L = 1",
         "32:1: a nijenhuis block takes no body lines"),
        # these four exited 1 without a position
        ("pair p alpha idt beta zd", "31:1: pair components must be endomorphisms"),
        ("series s base vn terms idv+idt",
         "31:1: deformation terms must be endomorphisms of the algebra"),
        ("twoterm tt l0 vir l1 vm d zd action zr",
         "31:1: differential must map L1 to L0"),
        ("twoterm tt l0 vir l1 tm d zd action zr l3 k2",
         "31:1: l3 must be a degree-3 cochain on L0 with values in L1"),
        # d(del c) = 0 but del d(c) = del L; `check tt` evaluated the laws
        ("twoterm tt l0 vir l1 tm d td action zr",
         "31:1: differential is not Q[del]-linear: its entry (L, c) maps the "
         "torsion generator c onto L, where del acts otherwise"),
        # `check op` said that a homotopyop has no checker, and `classify`
        # reached the operator only to refuse it as no endomorphism
        ("homotopyop op n0 idv n1 td",
         "31:1: N1 is not Q[del]-linear: its entry (L, c) maps the "
         "torsion generator c onto L, where del acts otherwise"),
    ],
    ids=["unknown-option", "body-line", "pair", "series", "d-source", "l3-degree",
         "d-torsion", "n1-torsion"],
)
def test_refused_blocks_exit_two_with_position(tmp_path, block, diagnostic):
    bad = tmp_path / "blocks.ws"
    bad.write_text(BLOCK_WS + block + "\n")
    name = block.split()[1]
    code, out, _ = run_cli("-f", str(bad), "check", name)
    assert (code, out.splitlines()[-1]) == (2, "diagnostic: %s:%s" % (bad, diagnostic))


@pytest.mark.parametrize(
    "op,message",
    [
        # exited 1 with "expected 3 arguments with forms"
        ("homotopyop op n0 idv n1 idt n2 k3",
         "N2 must be a degree-2 cochain on L0 with values in L1"),
        # exited 1 without a position
        ("homotopyop op n0 idt n1 idv", "N0 must be an endomorphism of L0"),
    ],
    ids=["n2-degree", "n0-module"],
)
def test_classify_reports_an_op_that_does_not_fit(tmp_path, op, message):
    ws = tmp_path / "op.ws"
    ws.write_text(BLOCK_WS + "twoterm tt l0 vir l1 tm d zd action zr\n\n" + op + "\n")
    code, out, _ = run_cli("-f", str(ws), "classify", "tt", "--op", "op")
    assert (code, out.splitlines()[-1]) == (2, "diagnostic: <args>:0:0: " + message)


def test_cocycle_action_on_torsion_fails_the_check(tmp_path):
    # rho(L)_lam c = c on the torsion generator c; the check used to pass
    ws = tmp_path / "tc.ws"
    ws.write_text(
        "module vm\n  basis L\n\nmodule tm\n  basis c\n  del 0\n\n"
        "algebra ab module vm\n\nalgebra ct module tm\n\n"
        "map idv source vm target vm\n  row 1\n\n"
        "map idt source tm target tm\n  row 1\n\n"
        "nijenhuis abid algebra ab operator idv\n\n"
        "nijenhuis ctid algebra ct operator idt\n\n"
        "rep onrep algebra ab module tm\n  action L c = 1\n\n"
        "cochain zchi degree 2 rep onrep\n\n"
        "map zphi source vm target tm\n  row 0\n\n"
        "cocycle tc chi zchi rho onrep phi zphi\n"
    )
    code, out, _ = run_cli("-f", str(ws), "check", "tc", "--quot", "abid", "--sub", "ctid")
    assert (code, out) == (1, "\n".join([
        "command: check tc",
        "object: tc (cocycle)",
        "  chi-skew: pass",
        "  rho-derivation: pass",
        "  curvature: fail at=0,1 residual=[(1)c#M]",
        "  jacobi: pass",
        "  operator-module: pass",
        "  operator-bracket: pass",
        "status: fail",
    ]) + "\n")


@pytest.mark.parametrize("algebra", ["other", "vir"], ids=["algebra", "module"])
def test_twoterm_refuses_an_action_of_another_algebra_or_module(tmp_path, algebra):
    # orep has the shape of an action of vir on tm but acts on wm, and with
    # `other` by another algebra; `check tt` read its table as [[L_lam x]]
    # and exited 1 on "L7: fail at=0,0,0 residual=[(lam1^2 - lam2^2)x]"
    ws = tmp_path / "probe.ws"
    ws.write_text(
        "module om\n  basis L\n\nmodule wm\n  basis c\n\n"
        "module tm\n  basis x\n  del 0\n\n"
        "algebra other module om\n\n"
        "rep orep algebra %s module wm\n  action L c = lam1\n\n"
        "map zd source tm target virmod\n  row 0\n\n"
        "twoterm tt l0 vir l1 tm d zd action orep\n" % algebra
    )
    code, out, _ = run_cli("-f", CORE, "-f", str(ws), "check", "tt")
    assert (code, out.splitlines()[-1]) == (
        2, "diagnostic: %s:19:1: action must be a rep of L0 on L1" % ws
    )


def test_twoterm_action_on_torsion_fails_l7(tmp_path):
    # [[L_lam x]] = x on the torsion generator x satisfies L1-L8, and `check
    # tt` used to pass while `check trep` failed the same action
    ws = tmp_path / "tt.ws"
    ws.write_text(
        "module om\n  basis L\n\nmodule tm\n  basis x\n  del 0\n\n"
        "algebra ab module om\n\n"
        "rep trep algebra ab module tm\n  action L x = 1\n\n"
        "map zd source tm target om\n  row 0\n\n"
        "twoterm tt l0 ab l1 tm d zd action trep\n"
    )
    code, out, _ = run_cli("-f", str(ws), "check", "tt")
    assert (code, out) == (1, "\n".join([
        "command: check tt",
        "object: tt (twoterm)",
        "  l3-skew: pass",
        "  L1: pass",
        "  L2: pass",
        "  L3: pass",
        "  L4: pass",
        "  L5: pass",
        "  L6: pass",
        "  L7: fail at=0,0 residual=[(1)x]",
        "  L8: pass",
        "status: fail",
    ]) + "\n")
