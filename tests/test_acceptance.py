"""Acceptance suite: one test per criterion, at the stated tolerances, over
the built-in model set (cyclic 2..8, dihedral 3..4, s3, s4).

Run with `pytest tests/test_acceptance.py -v -s` to see one PASS/FAIL line per
criterion.
"""

import json
import time

import numpy as np
import pytest

from qgft import groups, models
from qgft.cli import main, matrix_to_json
from qgft.engine import (
    MultiplicativeUnitary,
    antipode_from_slices,
    antipode_hat_from_slices,
    check_pentagon,
    pontryagin_check,
    sharp,
)
from qgft.fourier import (
    check_inversion,
    check_pairing_axioms,
    check_plancherel,
    convolve,
    convolve_direct,
    convolve_dual,
    convolve_dual_direct,
    fourier,
    inverse_fourier,
    pairing,
)
from qgft.linalg import Functional, deviation, flip

SEED = 8088


def builtin_groups():
    gs = [groups.cyclic(n) for n in range(2, 9)]
    gs += [groups.dihedral(3), groups.dihedral(4)]
    gs += [groups.symmetric(3), groups.symmetric(4)]
    return gs


@pytest.fixture(scope="module")
def built():
    return [models.build(g) for g in builtin_groups()]


def report_line(num, name, passed, detail):
    status = "PASS" if passed else "FAIL"
    print(f"\nACCEPTANCE {num:2d} {name:24s} {status}  ({detail})")


def test_criterion_01_pentagon(built):
    worst_dense = 0.0
    worst_time = 0.0
    ok = True
    for mdl in built:
        start = time.perf_counter()
        structured = check_pentagon(mdl.qg.mu)
        ok &= structured.passed and structured.deviation == 0.0
        if mdl.n <= 12:
            dense = check_pentagon(MultiplicativeUnitary.from_dense(mdl.qg.w))
            worst_dense = max(worst_dense, dense.deviation)
            ok &= dense.deviation <= 1e-12
        elapsed = time.perf_counter() - start
        worst_time = max(worst_time, elapsed)
        ok &= elapsed <= 1.0
    report_line(1, "pentagon", ok,
                f"dense dev {worst_dense:.2e}, slowest group {worst_time:.3f}s")
    assert ok


def test_criterion_02_transform_is_regular_representation(built):
    rng = np.random.default_rng(SEED)
    worst = 0.0
    for mdl in built:
        for _ in range(20):
            a = rng.standard_normal(mdl.n) + 1j * rng.standard_normal(mdl.n)
            worst = max(worst, np.max(np.abs(
                fourier(mdl.qg, models.pi(mdl, a)) - models.L(mdl, a))))
            b = rng.standard_normal(mdl.n) + 1j * rng.standard_normal(mdl.n)
            worst = max(worst, np.max(np.abs(
                inverse_fourier(mdl.qg, models.L(mdl, b)) - models.pi(mdl, b))))
    report_line(2, "transform-vs-L", worst <= 1e-12, f"max dev {worst:.2e}")
    assert worst <= 1e-12


def test_criterion_03_inversion(built):
    worst = 0.0
    for mdl in built:
        worst = max(worst, check_inversion(mdl.qg).deviation)
    report_line(3, "fourier-inversion", worst <= 1e-10, f"max dev {worst:.2e}")
    assert worst <= 1e-10


def test_criterion_04_plancherel(built):
    rng = np.random.default_rng(SEED)
    worst = 0.0
    for mdl in built:
        for _ in range(50):
            a = rng.standard_normal(mdl.n) + 1j * rng.standard_normal(mdl.n)
            fa = fourier(mdl.qg, models.pi(mdl, a))
            lhs = mdl.qg.phihat.value(fa.conj().T @ fa)
            rhs = mdl.qg.phi.value(models.pi(mdl, a.conj() * a))
            norm_sq = float(np.sum(np.abs(a) ** 2))
            worst = max(worst, abs(lhs - norm_sq), abs(rhs - norm_sq))
        worst = max(worst, check_plancherel(mdl.qg).deviation)
    report_line(4, "plancherel", worst <= 1e-10, f"max dev {worst:.2e}")
    assert worst <= 1e-10


def test_criterion_05_convolution(built):
    rng = np.random.default_rng(SEED)
    worst = 0.0
    for mdl in built:
        g = mdl.group
        for _ in range(20):
            fa = rng.standard_normal(mdl.n) + 1j * rng.standard_normal(mdl.n)
            fc = rng.standard_normal(mdl.n) + 1j * rng.standard_normal(mdl.n)
            a, c = models.pi(mdl, fa), models.pi(mdl, fc)
            first = convolve(mdl.qg, a, c)
            worst = max(worst, np.max(np.abs(first - convolve_direct(mdl.qg, a, c))))
            classical = models.classical_convolution(g, fa, fc)
            worst = max(worst, np.max(np.abs(np.diagonal(first) - classical)))
            fb = rng.standard_normal(mdl.n) + 1j * rng.standard_normal(mdl.n)
            fd = rng.standard_normal(mdl.n) + 1j * rng.standard_normal(mdl.n)
            b, d = models.L(mdl, fb), models.L(mdl, fd)
            dual = convolve_dual(mdl.qg, b, d)
            worst = max(worst, np.max(np.abs(dual - convolve_dual_direct(mdl.qg, b, d))))
            worst = max(worst, np.max(np.abs(models.L_function(mdl, dual) - fb * fd)))
    report_line(5, "convolution", worst <= 1e-10, f"max dev {worst:.2e}")
    assert worst <= 1e-10


def test_criterion_06_pairing(built):
    rng = np.random.default_rng(SEED)
    worst = 0.0
    for mdl in built:
        for _ in range(50):
            fa = rng.standard_normal(mdl.n) + 1j * rng.standard_normal(mdl.n)
            fb = rng.standard_normal(mdl.n) + 1j * rng.standard_normal(mdl.n)
            value = pairing(mdl.qg, models.L(mdl, fb), models.pi(mdl, fa))
            worst = max(worst, value.spread,
                        abs(value.via_inverse - complex(np.sum(fa * fb))))
        axioms = check_pairing_axioms(mdl.qg)
        worst = max(worst, axioms.deviation)
    report_line(6, "pairing", worst <= 1e-10, f"max dev {worst:.2e}")
    assert worst <= 1e-10


def test_criterion_07_gns_transport(built):
    # Lambda_hat(F(a)) = Lambda(a) and Lambda(F^{-1}(b)) = Lambda_hat(b),
    # computed by hand on random elements of M and Mhat
    rng = np.random.default_rng(SEED)
    worst = 0.0
    for mdl in built:
        qg = mdl.qg
        for _ in range(20):
            fa = rng.standard_normal(mdl.n) + 1j * rng.standard_normal(mdl.n)
            fb = rng.standard_normal(mdl.n) + 1j * rng.standard_normal(mdl.n)
            a, b = models.pi(mdl, fa), models.L(mdl, fb)
            worst = max(worst, deviation(qg.phihat.gns(fourier(qg, a)), qg.phi.gns(a)),
                        deviation(qg.phi.gns(inverse_fourier(qg, b)), qg.phihat.gns(b)))
    report_line(7, "gns-transport", worst <= 1e-10, f"max dev {worst:.2e}")
    assert worst <= 1e-10


def test_criterion_08_antipode_and_sharp(built):
    rng = np.random.default_rng(SEED)
    worst = 0.0
    exact = True
    for mdl in built:
        qg = mdl.qg
        s_mat, s_res = antipode_from_slices(qg.mu, qg.m_basis)
        _, sh_res = antipode_hat_from_slices(qg.mu, qg.mhat_basis)
        worst = max(worst, s_res, sh_res, np.max(np.abs(s_mat - qg.s_mat)))
        for _ in range(20):
            density = rng.standard_normal((mdl.n, mdl.n)) \
                + 1j * rng.standard_normal((mdl.n, mdl.n))
            omega = Functional(density)
            omega_sharp = sharp(omega, qg.s_mat, qg.span)
            lhs = np.einsum("ij,jkil->kl", density, qg.w4).conj().T
            rhs = np.einsum("ij,jkil->kl", omega_sharp.density, qg.w4)
            worst = max(worst, np.max(np.abs(lhs - rhs)))
        exact &= bool(np.array_equal(qg.s_mat @ qg.s_mat, np.eye(mdl.n)))
    ok = worst <= 1e-10 and exact
    report_line(8, "antipode-and-sharp", ok,
                f"max dev {worst:.2e}, S^2 exact: {exact}")
    assert worst <= 1e-10
    assert exact


def test_criterion_09_pontryagin(built):
    worst = 0.0
    for mdl in built:
        report = pontryagin_check(mdl.qg.mu)
        assert report.passed
        worst = max(worst, report.deviation)
    report_line(9, "pontryagin", worst == 0.0, f"max dev {worst:.2e}")
    assert worst == 0.0


def test_criterion_10_abelian_dft_oracle():
    rng = np.random.default_rng(SEED)
    worst = 0.0
    for n in range(2, 9):
        mdl = models.build(groups.cyclic(n))
        a = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        cmp = models.dft_compare(mdl, a)
        worst = max(worst, cmp.deviation)
    report_line(10, "abelian-dft-oracle", worst <= 1e-10, f"max dev {worst:.2e}")
    assert worst <= 1e-10


def test_criterion_11_cli_contract(tmp_path, capsys):
    out = tmp_path / "report.json"
    start = time.perf_counter()
    code = main(["verify", "--group", "cyclic:6", "--out", str(out)])
    elapsed = time.perf_counter() - start
    with open(out) as fh:
        report = json.load(fh)
    schema_ok = (set(report.keys()) == {"model", "seed", "suite_version", "checks"}
                 and all(set(c.keys()) == {"name", "pass", "deviation", "tolerance",
                                           "elapsed_ms"} for c in report["checks"]))
    ok = code == 0 and elapsed <= 5.0 and schema_ok

    broken = flip(2) @ models.build(groups.cyclic(2)).qg.w
    wpath = tmp_path / "broken_w.json"
    wpath.write_text(json.dumps(matrix_to_json(broken, 2)))
    code2 = main(["verify", "--unitary", str(wpath), "--out",
                  str(tmp_path / "broken_report.json")])
    err = capsys.readouterr().err
    ok &= code2 == 1 and "pentagon" in err

    report_line(11, "cli-contract", ok,
                f"verify exit {code} in {elapsed:.2f}s, broken-W exit {code2}")
    assert code == 0 and elapsed <= 5.0 and schema_ok
    assert code2 == 1 and "pentagon" in err
