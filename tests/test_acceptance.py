"""Acceptance checks, one per criterion.  Each test prints a single
pass/fail line (visible with ``pytest -s`` or in the captured output of a
failing run) and enforces its runtime budget."""

import os
import subprocess
import sys
import time
from fractions import Fraction
from random import Random

import pytest

from nijconf.cohomology import (
    Cochain,
    CochainPair,
    adjoint_rep,
    apply_dN,
    apply_dNL,
    apply_dNM,
    apply_delta,
    bracket_cochain,
    eval_cochain,
    fn_bracket,
    fn_bracket_of_maps,
    image_contains,
    nr_bracket,
    random_cochain,
    solve_truncated,
    xi_map,
)
from nijconf.deformation import DeformationSeries, check_order, obstruction
from nijconf.extension import (
    build_extension,
    check_extension,
    cocycle_equivalence,
    extract_cocycle,
    shear_map,
)
from nijconf.homotopy import (
    CrossedModule,
    check_crossed_module,
    crossed_direct_sum,
    strict_crossed_roundtrip,
)
from nijconf.lca import LCA, ConfLinMap, FreeModule, RepTable, check_lca
from nijconf.nijenhuis import (
    NijenhuisLCA,
    check_nijenhuis,
    power_compatibility_suite,
)
from nijconf.poly import Poly
from nijconf.wells import (
    AutomorphismPair,
    check_h_automorphism,
    induced_pair,
    inducibility,
    lift,
    wells_obstruction,
    wells_sequence_check,
)

from conftest import DEL, LAM, make_vir

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


class _budget:
    def __init__(self, number, label, seconds):
        self.number = number
        self.label = label
        self.seconds = seconds

    def __enter__(self):
        self.started = time.monotonic()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.monotonic() - self.started
        within = elapsed < self.seconds
        verdict = "PASS" if exc_type is None and within else "FAIL"
        overrun = "" if within else ", over its %gs budget" % self.seconds
        print(
            "criterion %02d %s: %s (%.2fs%s)"
            % (self.number, self.label, verdict, elapsed, overrun)
        )
        if exc_type is None:
            assert within, (
                "criterion %d exceeded %.0fs budget (%.2fs)"
                % (self.number, self.seconds, elapsed)
            )
        return False


def test_criterion_01_axiom_gate(vir):
    with _budget(1, "axiom-gate", 1.0):
        assert check_lca(vir).passed
        mutated = make_vir()
        mutated.set_bracket(0, 0, [DEL + LAM.scale(3)])
        report = check_lca(mutated)
        assert report.status_of("jacobi") == "fail"
        assert "residual=" in report.witness_of("jacobi")


def test_criterion_02_differentials_square_to_zero(sl2, sl2_p, proj_p, vir):
    with _budget(2, "d-squared-zero", 10.0):
        ad = adjoint_rep(sl2)
        # evaluation-type coefficient line over the current algebra
        mm = FreeModule(["m"])
        line = RepTable(sl2, mm)
        # weight-2 coefficient module over the rank-1 algebra
        md = RepTable(vir, FreeModule(["m"]))
        md.set_action(0, 0, [DEL + LAM.scale(2)])
        scalar = ConfLinMap.identity(mm)
        rng = Random(2024)
        count = 0
        for n, rounds, bound in ((1, 3, 2), (2, 1, 1)):
            for _ in range(rounds):
                f = random_cochain(ad, n, rng, max_degree=bound)
                assert apply_delta(apply_delta(f)).is_zero()
                assert apply_dN(apply_dN(f, proj_p), proj_p).is_zero()
                g = (
                    random_cochain(ad, n - 1, rng, max_degree=bound)
                    if n == 2
                    else None
                )
                pair = CochainPair(f, g)
                assert apply_dNL(
                    apply_dNL(pair, proj_p, proj_p), proj_p, proj_p
                ).is_zero()
                count += 1
        for n, rounds in ((1, 3), (2, 2)):
            for _ in range(rounds):
                f = random_cochain(line, n, rng, max_degree=1)
                assert apply_delta(apply_delta(f)).is_zero()
                assert apply_dNM(
                    apply_dNM(f, proj_p, scalar), proj_p, scalar
                ).is_zero()
                count += 1
        for n, rounds in ((1, 6), (2, 5)):
            for _ in range(rounds):
                f = random_cochain(md, n, rng)
                assert apply_delta(apply_delta(f)).is_zero()
                count += 1
        assert count == 20


def test_criterion_03_convention_oracles(sl2, proj_p):
    with _budget(3, "convention-oracles", 10.0):
        ad = adjoint_rep(sl2)
        rng = Random(7)
        mc = bracket_cochain(sl2)
        for n in (1, 2):
            f = random_cochain(ad, n, rng)
            assert nr_bracket(mc, f) == apply_delta(f).scale((-1) ** (n - 1))
            lhs = apply_dNM(xi_map(f, proj_p, proj_p), proj_p, proj_p)
            assert lhs == xi_map(apply_delta(f), proj_p, proj_p)
        J = ConfLinMap.diagonal(sl2.module, [1, 2, 5])
        K = ConfLinMap(sl2.module, sl2.module, [[0, 1, 0], [3, 0, 0], [0, 0, -1]])
        from nijconf.lca import eval_bracket

        got = fn_bracket_of_maps(sl2, J, K)
        for i in range(3):
            for j in range(3):
                p, q = sl2.module.basis_elem(i), sl2.module.basis_elem(j)
                br = eval_bracket(sl2, p, q)
                expect = (
                    eval_bracket(sl2, J.apply(p), K.apply(q))
                    + eval_bracket(sl2, K.apply(p), J.apply(q))
                    + J.apply(K.apply(br))
                    + K.apply(J.apply(br))
                    - K.apply(
                        eval_bracket(sl2, J.apply(p), q)
                        + eval_bracket(sl2, p, J.apply(q))
                    )
                    - J.apply(
                        eval_bracket(sl2, K.apply(p), q)
                        + eval_bracket(sl2, p, K.apply(q))
                    )
                )
                assert got.value((i, j)) == expect
        cJ = Cochain.from_map(J, ad)
        cK = Cochain.from_map(K, ad)
        assert apply_delta(fn_bracket(cJ, cK)) == nr_bracket(
            apply_delta(cJ), apply_delta(cK)
        )


def test_criterion_04_maurer_cartan(sl2):
    with _budget(4, "maurer-cartan", 10.0):
        m = sl2.module
        for op in (
            ConfLinMap.zero(m, m),
            ConfLinMap.identity(m),
            ConfLinMap.diagonal(m, [1, 1, 0]),
            ConfLinMap.diagonal(m, [1, 2, 3]),
        ):
            mc_zero = fn_bracket_of_maps(sl2, op, op).is_zero()
            assert mc_zero == check_nijenhuis(sl2, op).passed


def test_criterion_05_power_compatibility(sl2_p):
    with _budget(5, "power-compatibility", 10.0):
        for k in (1, 2):
            for l in (1, 2):
                report = power_compatibility_suite(sl2_p, k, l)
                assert report.passed, report.lines()


def test_criterion_06_obstruction(sl2_p, proj_p):
    with _budget(6, "obstruction", 10.0):
        series = DeformationSeries(sl2_p, [proj_p])
        assert check_order(series).passed
        ob, report = obstruction(series, bound=3)
        assert report.status_of("cocycle") == "pass"
        status = report.status_of("extensibility")
        ad = adjoint_rep(sl2_p.algebra)
        within = ob.is_zero() or image_contains(ad, 3, ob, operator=sl2_p.n)
        assert status == ("extensible@3" if within else "obstructed@3")


def test_criterion_07_central_charge_slice(vir, central_line):
    with _budget(7, "central-charge-slice", 5.0):
        rep = RepTable(vir, central_line)
        res = solve_truncated(rep, 2, 3)
        assert res["cocycle_dim"] == 2
        assert res["coboundary_dim"] == 1
        assert res["h_dim"] == 1
        assert solve_truncated(rep, 2, 1)["h_dim"] == 0


def test_criterion_08_crossed_module_round_trip(sl2, sl2_p):
    with _budget(8, "crossed-module", 10.0):
        ad = RepTable(sl2, sl2.module, sl2.table)
        crossed = CrossedModule(
            sl2_p, sl2_p, ConfLinMap.identity(sl2.module), ad
        )
        assert check_crossed_module(crossed).passed
        assert strict_crossed_roundtrip(crossed).passed
        ds = crossed_direct_sum(crossed)
        assert check_nijenhuis(ds.algebra, ds.n).passed


def test_criterion_09_extension_round_trip(
    sl2_p, sl2_id, vir_id, c_triv, c_km, c_gf, ext_km, ext_gf
):
    with _budget(9, "extension-round-trip", 10.0):
        from nijconf.extension import NonAbelianCocycle

        zero = NonAbelianCocycle(
            Cochain(2, RepTable(sl2_p.algebra, c_triv.algebra.module)),
            RepTable(sl2_p.algebra, c_triv.algebra.module),
            ConfLinMap.zero(sl2_p.algebra.module, c_triv.algebra.module),
        )
        for cocycle, quot in ((zero, sl2_p), (c_km, sl2_id), (c_gf, vir_id)):
            ext = build_extension(cocycle, quot, c_triv)
            assert check_extension(ext).passed
            assert extract_cocycle(ext) == cocycle
            assert check_nijenhuis(ext.total.algebra, ext.total.n).passed


def test_criterion_10_section_independence(ext_km, c_km, sl2_id, c_triv):
    with _budget(10, "section-independence", 10.0):
        m = sl2_id.algebra.module
        cm = c_triv.algebra.module
        tau = ConfLinMap(m, cm, [[2, 0, -3]])
        other = extract_cocycle(
            ext_km, section=ext_km.section + ext_km.inc.compose(tau)
        )
        assert other != c_km
        report, _ = cocycle_equivalence(
            c_km, other, sl2_id, c_triv, tau=tau.scale(-1)
        )
        assert report.passed, report.lines()


def test_criterion_11_wells_decision(ext_km, sl2_id, c_triv, central_line):
    with _budget(11, "wells-decision", 5.0):
        rescale = AutomorphismPair(
            ConfLinMap.scalar(central_line, 2),
            ConfLinMap.identity(sl2_id.algebra.module),
        )
        report = wells_obstruction(ext_km, rescale)
        assert report.status_of("class") == "nonzero-certified"
        solved, eta = inducibility(ext_km, rescale)
        assert eta is None and not solved.passed
        assert any("infeasible" in line for line in solved.lines())

        inner = AutomorphismPair(
            ConfLinMap.identity(central_line),
            ConfLinMap.diagonal(sl2_id.algebra.module, [2, 1, Fraction(1, 2)]),
        )
        report = wells_obstruction(ext_km, inner)
        assert report.status_of("class").startswith("zero@")
        solved, eta = inducibility(ext_km, inner)
        assert solved.passed and eta is not None
        lifted, gamma = lift(ext_km, inner, eta)
        assert lifted.passed
        assert induced_pair(ext_km, gamma) == inner


def test_criterion_12_wells_sequence(shear_setup, c_triv, central_line):
    with _budget(12, "wells-sequence", 10.0):
        ab_n, _, ext = shear_setup
        am = ab_n.algebra.module
        identity = AutomorphismPair.identity(ab_n, c_triv)
        shears = [
            shear_map(ext, ConfLinMap(am, central_line, [[1, 0]])),
            shear_map(ext, ConfLinMap(am, central_line, [[-7, 0]])),
        ]
        for gamma in shears:
            assert check_h_automorphism(ext, gamma).passed
            assert induced_pair(ext, gamma) == identity
        report = wells_sequence_check(ext, shears, [identity])
        assert report.passed, report.lines()


def test_criterion_13_cli_determinism():
    with _budget(13, "cli-determinism", 30.0):
        core = os.path.join(ROOT, "fixtures", "core.ws")

        def run(*argv):
            return subprocess.run(
                [sys.executable, "-m", "nijconf.cli"] + list(argv),
                capture_output=True,
                text=True,
            )

        cases = [
            (("-f", core, "check", "vir"), 0),
            (("-f", core, "extend", "km", "--quot", "sl2id", "--sub", "ctrivid"), 0),
            (("-f", core, "induce", "kmext", "--pair", "wellsbad"), 1),
            (("-f", core, "check", "nonesuch"), 2),
        ]
        for argv, expected in cases:
            first = run(*argv)
            second = run(*argv)
            assert first.returncode == expected, first.stdout
            assert second.returncode == expected
            assert first.stdout == second.stdout
