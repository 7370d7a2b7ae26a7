import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CORE = os.path.join(ROOT, "fixtures", "core.ws")
HOMOTOPY = os.path.join(ROOT, "fixtures", "homotopy.ws")


def run_cli(*argv):
    proc = subprocess.run(
        [sys.executable, "-m", "nijconf.cli"] + list(argv),
        capture_output=True,
        text=True,
    )
    return proc.returncode, proc.stdout, proc.stderr


def test_check_passes_and_exits_zero():
    code, out, _ = run_cli("-f", CORE, "check", "vir")
    assert code == 0
    assert "status: pass" in out


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
