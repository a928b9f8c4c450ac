"""The suite stages that check one identity on the full algebra bases as
matrix products, against the per-element loops they replace (kept here as
references), on the dense sources of `tools/suite_snapshot.py` and on the
transported dihedral:3 pair and its dual; the suite seed does not reach them;
and each catches a code mutation that no earlier stage catches."""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

from qgft import engine
from qgft import fourier as ft
from qgft.linalg import Functional, deviation, flat_rows, left_slicer, slice_family
from qgft.verify import run_suite

SNAPSHOT = importlib.util.spec_from_file_location(
    "suite_snapshot", Path(__file__).resolve().parent.parent / "tools" / "suite_snapshot.py")
suite_snapshot = importlib.util.module_from_spec(SNAPSHOT)
SNAPSHOT.loader.exec_module(suite_snapshot)


@pytest.fixture(scope="module")
def pairs() -> dict:
    """label -> pair: every dense snapshot source's derived pair, and the
    dual of the transported dihedral:3 pair."""
    sources = {**dict(suite_snapshot.dense_unitaries(11)),
               "transported-dihedral3": suite_snapshot.transported("dihedral:3", 5),
               "transported-dihedral8": suite_snapshot.transported("dihedral:8", 8)}
    out = {label: engine.pair_from_unitary(w) for label, w in sources.items()}
    out["transported-dihedral3-dual"] = out["transported-dihedral3"].dual
    return out


def inversion_loop(qg):
    dev = 0.0
    for a in qg.m_basis:
        dev = max(dev, deviation(ft.inverse_fourier(qg, ft.fourier(qg, a)), a))
    for b in qg.mhat_basis:
        dev = max(dev, deviation(ft.fourier(qg, ft.inverse_fourier(qg, b)), b))
    return dev


def plancherel_loop(qg):
    dev = 0.0
    for side in (qg, qg.dual):
        for a in side.m_basis:
            dev = max(dev, deviation(side.phihat.gns(ft.fourier(side, a)), side.phi.gns(a)))
    return dev


def convolution_loop(qg):
    dev = 0.0
    for a in qg.m_basis:
        for c in qg.m_basis:
            dev = max(dev, deviation(ft.convolve(qg, a, c), ft.convolve_direct(qg, a, c)))
    for b in qg.mhat_basis:
        for e in qg.mhat_basis:
            dev = max(dev, deviation(ft.convolve_dual(qg, b, e),
                                     ft.convolve_dual_direct(qg, b, e)))
    return dev


def pairing_loop(qg):
    return max(ft.pairing(qg, b, a).spread for a in qg.m_basis for b in qg.mhat_basis)


def ft_pairing_loop(qg):
    # <Lambda_hat(b), Lambda(a^*)>, linear in its first slot
    return max(abs(ft.pairing(qg, b, a).via_inverse
                   - np.vdot(qg.phi.gns(a.conj().T), qg.phihat.gns(b)))
               for a in qg.m_basis for b in qg.mhat_basis)


def presenting(qg, leg, basis):
    """Functionals whose slices of W on `leg` are the elements of basis: the
    least-squares densities over the slice family."""
    rows = flat_rows(slice_family(qg.w, qg.n, leg))
    densities = np.linalg.lstsq(rows.T, flat_rows(basis).T, rcond=None)[0].T
    return [Functional(r.reshape(qg.n, qg.n)) for r in densities]


def pairing_axioms_loop(qg):
    """The three laws one element at a time, each element presented as a
    slice: y_a = (omega_a (x) id)(W), so <b | y_a> needs no pairing route,
    and x_k = (id (x) theta_k)(W)."""
    m, mhat = qg.m_basis.shape[0], qg.mhat_basis.shape[0]
    d, dh = qg.delta_coeffs.reshape(m * m, m), qg.dual.delta_coeffs.reshape(mhat * mhat, mhat)
    omegas, thetas = presenting(qg, 1, qg.mhat_basis), presenting(qg, 2, qg.m_basis)
    omega_values = [w.values_on(qg.m_basis) for w in omegas]
    theta_values = [t.values_on(qg.mhat_basis) for t in thetas]
    dev = 0.0
    for b1, v1 in zip(qg.mhat_basis, omega_values):
        for b2, v2 in zip(qg.mhat_basis, omega_values):
            for a, t in zip(qg.m_basis, thetas):
                # (1) <b1 b2 | a> = (omega1 (x) omega2)(delta a)
                delta_a = (d @ qg.coords_m(a)).reshape(m, m)
                dev = max(dev, abs(t(b1 @ b2) - v1 @ delta_a @ v2))
    for a1, u1 in zip(qg.m_basis, theta_values):
        for a2, u2 in zip(qg.m_basis, theta_values):
            for b, w in zip(qg.mhat_basis, omegas):
                # (2) <b | a1 a2> = (theta2 (x) theta1)(delta_hat b)
                delta_hat_b = (dh @ qg.dual.coords_m(b)).reshape(mhat, mhat)
                dev = max(dev, abs(w(a1 @ a2) - u2 @ delta_hat_b @ u1))
    for b, w in zip(qg.mhat_basis, omegas):
        for a, t in zip(qg.m_basis, thetas):
            # (3) <b | S(a)> = <Shat^{-1}(b) | a>
            dev = max(dev, abs(w(qg.apply_s(a)) - t(qg.dual.apply_s_inv(b))))
    return dev


def sharp_loop(qg):
    n, dev = qg.n, 0.0
    lam_w = left_slicer(qg.w, n)
    for unit in np.eye(n * n).reshape(n * n, n, n):
        omega = Functional(unit)
        omega_sharp = engine.sharp(omega, qg.s_mat, qg.span)
        dev = max(dev, deviation(lam_w(omega).conj().T, lam_w(omega_sharp)))
        twice = engine.sharp(omega_sharp, qg.s_mat, qg.span)
        dev = max(dev, deviation(omega.values_on(qg.m_basis), twice.values_on(qg.m_basis)))
    return dev


# stage -> (its check, the per-element loop it replaces)
STAGES = {
    "sharp-involution": (engine.check_sharp_involution, sharp_loop),
    "fourier-inversion": (ft.check_inversion, inversion_loop),
    "plancherel": (ft.check_plancherel, plancherel_loop),
    "convolution-agreement": (ft.check_convolution, convolution_loop),
    "pairing": (ft.check_pairing, pairing_loop),
    "pairing-axioms": (ft.check_pairing_axioms, pairing_axioms_loop),
    "ft-pairing": (ft.check_ft_pairing, ft_pairing_loop),
}


@pytest.mark.parametrize("stage", list(STAGES))
def test_full_basis_form_equals_the_per_element_loop(pairs, stage):
    check, loop = STAGES[stage]
    for label, qg in pairs.items():
        got, want = check(qg).deviation, loop(qg)
        assert abs(got - want) <= 1e-13, (label, got, want)
        assert got <= 1e-12, (label, got)


def test_full_basis_stages_read_no_seed(pairs):
    for label, qg in pairs.items():
        first, second = ({c.name: c.deviation for c in run_suite(qg, seed=seed).checks}
                         for seed in (11, 24))
        assert all(first[stage] == second[stage] for stage in STAGES), label


def cycled(m):
    """The permutation matrix of a 3-cycle of the first three of m indices."""
    return np.eye(m)[[1, 2, 0, *range(3, m)]]


# mutation -> (the stage that must fail first, a one-line code mutation)
MUTATIONS = {
    "convolution-table-without-s-inverse": ("convolution-agreement", lambda mp: mp.setattr(
        engine.QuantumGroupPair, "convolution_table",
        property(lambda qg: (qg.phi.xi.conj() @ qg.m_basis) @ (qg.m_basis @ qg.phi.xi).T))),
    "sharp-with-s-mat-for-its-transpose": ("sharp-involution", lambda mp: mp.setattr(
        engine, "_sharp", lambda d, s_mat, span, sharp=engine._sharp: sharp(d, s_mat.T, span))),
    "antipode-twisted-by-a-3-cycle": ("pairing-axioms", lambda mp: mp.setattr(
        engine.QuantumGroupPair, "shat_inv_mat",
        property(lambda qg: cycled(qg.mhat_basis.shape[0]) @ qg.dual.s_inv_mat))),
}


@pytest.mark.parametrize("mutation", list(MUTATIONS))
def test_a_mutation_fails_first_at_its_stage(mutation, monkeypatch):
    # on the transported dihedral:3 pair, whose M and Mhat are both complex;
    # the mutated code serves no stage before the named one, so the pair
    # derived again for pair-agreement is unchanged
    stage, mutate = MUTATIONS[mutation]
    mutate(monkeypatch)
    report = run_suite(engine.pair_from_unitary(suite_snapshot.transported("dihedral:3", 5)))
    assert report.first_failed == stage
    assert next(c for c in report.checks if c.name == stage).deviation > 0.1
