"""Verification suite orchestration: check ordering, abort behavior, report
invariants, and the generic dense-unitary path."""

import numpy as np
import pytest

from qgft import engine, groups, models
from qgft import fourier as ft
from qgft.linalg import flip, random_complex
from qgft.verify import SUITE_VERSION, run_suite

EXPECTED_MODEL_CHECKS = {
    "unitarity", "pentagon", "algebra-generation", "haar-weights",
    "antipode-assembly", "pair-agreement", "w-membership", "coassociativity", "coassociativity-dual",
    "left-invariance", "right-invariance", "left-invariance-dual",
    "right-invariance-dual", "gns-duality-phihat",
    "gns-duality-phihatdual", "antipode-slices", "sharp-involution",
    "slice-product-laws", "fourier-inversion", "plancherel",
    "convolution-agreement", "pairing", "pairing-axioms", "ft-pairing",
    "pontryagin",
}


@pytest.mark.parametrize("group", [
    groups.cyclic(1), groups.cyclic(2), groups.cyclic(6), groups.dihedral(3),
    groups.symmetric(3), groups.direct_product(groups.cyclic(2), groups.cyclic(3)),
])
def test_suite_passes_on_models(group):
    report = run_suite(models.build(group))
    assert report.first_failed is None
    names = {c.name for c in report.checks}
    assert EXPECTED_MODEL_CHECKS <= names


def test_suite_passes_on_s4():
    model = models.build(groups.symmetric(4))
    report = run_suite(model)
    assert report.first_failed is None
    # pontryagin compares index maps and leaves the dual of What without a dense copy
    assert model.qg.mu.dual.dual._dense is None


def test_report_invariants():
    report = run_suite(models.build(groups.cyclic(4)))
    names = [c.name for c in report.checks]
    assert len(names) == len(set(names))  # each check appears exactly once
    for check in report.checks:
        assert check.passed == (check.deviation <= check.tolerance)
        assert check.elapsed_ms >= 0.0
    assert report.suite_version == SUITE_VERSION


def test_report_json_sorted_by_name():
    report = run_suite(models.build(groups.cyclic(3)))
    data = report.to_json_dict()
    names = [c["name"] for c in data["checks"]]
    assert names == sorted(names)


def test_suite_on_generic_dense_unitary():
    w = models.build(groups.dihedral(2)).qg.w
    report = run_suite(np.asarray(w), model_name="dense-d2")
    assert report.first_failed is None
    assert report.model == "dense-d2"
    assert "antipode-assembly" in {c.name for c in report.checks}


@pytest.mark.parametrize("source", ["dense", "model"])
def test_suite_fits_each_antipode_once(source, monkeypatch):
    # antipode-assembly fits both antipodes of W; antipode-slices and pontryagin
    # fit none
    mdl = models.build(groups.dihedral(3))
    fit, calls = engine.antipode_from_slices, []

    def counted(*args, **kwargs):
        calls.append(args)
        return fit(*args, **kwargs)

    monkeypatch.setattr(engine, "antipode_from_slices", counted)
    report = run_suite(np.asarray(mdl.qg.w) if source == "dense" else mdl)
    assert report.first_failed is None
    assert len(calls) == 2
    engine.check_antipode(mdl.qg)
    assert len(calls) == 2


KERNELS = ("slice_spans", "slice_span_m", "slice_span_mhat", "comult_coeff_tensor")


def count_builds(monkeypatch) -> dict:
    """Calls of each span and comultiplication kernel, with the unitary each
    took, and under "svd" the shape of every SVD of an n^2 x n^2 matrix: a
    slice family."""
    calls = {name: [] for name in (*KERNELS, "svd")}
    for name in KERNELS:
        def counted(mu, *args, name=name, built=getattr(engine, name)):
            calls[name].append(mu)
            return built(mu, *args)
        monkeypatch.setattr(engine, name, counted)
    svd = np.linalg.svd

    def counted_svd(a, *args, **kwargs):
        side = round(a.shape[0] ** 0.5)
        if a.shape == (side * side, side * side):
            calls["svd"].append(a.shape)
        return svd(a, *args, **kwargs)
    monkeypatch.setattr(np.linalg, "svd", counted_svd)
    return calls


def test_nothing_is_built_twice_on_a_dense_w(monkeypatch):
    # one slice-family SVD per derivation gives both spans, which the pentagon
    # hands on with (D, rho_delta); the dual side builds its own once
    w = np.asarray(models.build(groups.dihedral(3)).qg.w)
    calls = count_builds(monkeypatch)
    report = run_suite(w)
    assert report.passed
    assert calls["svd"] == [(36, 36)]
    assert [len(calls[name]) for name in KERNELS[:3]] == [1, 0, 0]
    mu = calls["comult_coeff_tensor"][0]
    assert calls["comult_coeff_tensor"] == [mu, mu.dual]

    calls = count_builds(monkeypatch)
    engine.pair_from_unitary(w)
    assert calls["svd"] == [(36, 36)] and len(calls["slice_spans"]) == 1
    assert len(calls["comult_coeff_tensor"]) == 1, calls


def test_a_group_model_derivation_runs_no_slice_family_svd(monkeypatch):
    # the exact pentagon builds no span, so algebra-generation spans both
    # algebras once, from W's index maps with no SVD; the model's pair
    # builds (D, rho_delta) once per side
    mdl = models.build(groups.dihedral(3))
    calls = count_builds(monkeypatch)
    assert run_suite(mdl).passed
    assert calls["svd"] == []
    assert [len(calls[name]) for name in KERNELS[:3]] == [1, 0, 0]
    assert calls["comult_coeff_tensor"] == [mdl.qg.mu, mdl.qg.mu.dual]


def test_suite_on_transported_unitary():
    # same quantum group conjugated by u (x) u: dense complex W, nothing
    # diagonal, all structure derived
    rng = np.random.default_rng(99)
    w = models.build(groups.symmetric(3)).qg.w
    q, _ = np.linalg.qr(rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6)))
    uu = np.kron(q, q)
    report = run_suite(uu @ w @ uu.conj().T, model_name="transported-s3")
    assert report.first_failed is None


def test_suite_on_dual_unitary():
    # Sigma W^* Sigma of a nonabelian group: noncommutative primary algebra
    w = models.build(groups.symmetric(3)).qg.w
    sigma = flip(6)
    report = run_suite(sigma @ w.conj().T @ sigma, model_name="dual-s3")
    assert report.first_failed is None


@pytest.mark.parametrize("label", ["s3", "transported-dihedral3"])
def test_suite_passes_on_the_dual_pair(label):
    if label == "s3":
        qg = models.build(groups.symmetric(3)).qg
    else:
        q, _ = np.linalg.qr(random_complex(np.random.default_rng(5), (6, 6)))
        uu = np.kron(q, q)
        qg = engine.pair_from_unitary(uu @ models.build(groups.dihedral(3)).qg.w
                                      @ uu.conj().T)
    report = run_suite(qg.dual)
    assert report.first_failed is None
    assert EXPECTED_MODEL_CHECKS <= {c.name for c in report.checks}


def test_suite_aborts_on_pentagon_failure():
    w = flip(2) @ models.build(groups.cyclic(2)).qg.w
    report = run_suite(np.asarray(w))
    assert report.first_failed == "pentagon"
    assert [c.name for c in report.checks] == ["unitarity", "pentagon"]


def test_suite_reports_an_engine_error_as_a_failed_stage(monkeypatch):
    # the suite names the stage and the exception instead of raising it
    def refuse(*args):
        raise ValueError("no span today")

    monkeypatch.setattr(engine, "slice_spans", refuse)
    report = run_suite(np.asarray(models.build(groups.cyclic(3)).qg.w))
    assert report.first_failed == "pentagon"
    assert [c.name for c in report.checks] == ["unitarity", "pentagon"]
    assert report.checks[-1].note == "ValueError: no span today"


def test_suite_aborts_on_non_unitary():
    report = run_suite(np.diag([2.0, 1.0, 1.0, 1.0]))
    assert report.first_failed == "unitarity"
    assert [c.name for c in report.checks] == ["unitarity"]


def test_overflowing_dense_unitarity_fails_without_a_warning():
    # W W^* overflows for a finite W = 1e200 I; under the error filter a numpy
    # warning would fail the stage through the exception path instead
    report = run_suite(1e200 * np.eye(4))
    (check,) = report.checks
    assert report.first_failed == "unitarity"
    assert check.note == "non-finite deviation: inf"


def test_suite_fails_weights_off_gns_position():
    # the identity is a multiplicative unitary, but its slice algebras are the
    # scalars and the carrier space is not the GNS space: no Haar vector
    report = run_suite(np.eye(9))
    assert report.first_failed == "haar-weights"
    executed = [c.name for c in report.checks]
    assert executed[-1] == "haar-weights"
    assert "algebra-generation" in executed


def near_unitary_dihedral3():
    """dihedral:3's W conjugated by u (x) u, with u the seed-5 QR unitary
    times 1 + 3e-11 diag(normal): the pentagon holds to rounding, and W misses
    unitarity by 4.9e-11, between the dense bound 1e-12 and DEFAULT_TOL."""
    rng = np.random.default_rng(5)
    q, _ = np.linalg.qr(random_complex(rng, (6, 6)))
    u = q @ np.diag(1 + 3e-11 * rng.standard_normal(6))
    uu = np.kron(u, u)
    return uu @ models.build(groups.dihedral(3)).qg.w @ np.linalg.inv(uu)


def phased_dense_cyclic13():
    """cyclic:13's W as a dense matrix (n = 13) with column 5 phased."""
    w = np.array(models.build(groups.cyclic(13)).qg.w)
    w[:, 5] *= np.exp(0.3j)
    return w


STRUCTURAL_FAILURES = {
    "near-unitary": (near_unitary_dihedral3, "unitarity", ValueError, "unitarity deviation"),
    "flipped-z2": (lambda: flip(2) @ models.build(groups.cyclic(2)).qg.w,
                   "pentagon", ValueError, "pentagon deviation"),
    "ones": (lambda: np.ones((4, 4)), "unitarity", ValueError, "unitarity deviation"),
    "phased-dense-cyclic13": (phased_dense_cyclic13, "pentagon", ValueError,
                              "pentagon deviation"),
    "identity": (lambda: np.eye(4), "haar-weights", engine.WeightDerivationError,
                 "fixed space has dimension"),
}


@pytest.mark.parametrize("label", STRUCTURAL_FAILURES)
def test_pair_from_unitary_fails_where_the_suite_does(label):
    build, stage, error, match = STRUCTURAL_FAILURES[label]
    w = build()
    assert run_suite(w).first_failed == stage
    with pytest.raises(error, match=match):
        engine.pair_from_unitary(w)


def test_suite_deterministic_given_seed():
    a = run_suite(models.build(groups.cyclic(5)), seed=5)
    b = run_suite(models.build(groups.cyclic(5)), seed=5)
    for ca, cb in zip(a.checks, b.checks):
        assert ca.name == cb.name
        assert ca.deviation == cb.deviation


@pytest.mark.parametrize("tol_value", [float("nan"), float("inf"), -1.0])
def test_run_suite_rejects_a_bad_tolerance(tol_value):
    with pytest.raises(ValueError, match="tol_value must be finite and non-negative"):
        run_suite(models.build(groups.cyclic(2)), tol_value=tol_value)


# Stages with their own fixed bound; every other stage reads tol_value.
FIXED_BOUNDS = {
    "model": {"unitarity": 0.0, "pentagon": 0.0, "pontryagin": 0.0},
    "dense": {"unitarity": 1e-12, "pentagon": 1e-12, "pontryagin": 0.0},
}


@pytest.mark.parametrize("source", ["model", "dense"])
def test_tol_value_reaches_every_stage(source):
    mdl = models.build(groups.symmetric(3))
    report = run_suite(mdl if source == "model" else np.asarray(mdl.qg.w), tol_value=3e-9)
    assert report.passed
    fixed = FIXED_BOUNDS[source]
    for check in report.checks:
        assert check.tolerance == fixed.get(check.name, 3e-9), check.name
    assert fixed.keys() <= {c.name for c in report.checks}


S3_PAIR = models.build(groups.symmetric(3)).qg


def test_library_checks_default_to_one_absolute_bound():
    assert engine.check_coassociativity(S3_PAIR).tolerance == 1e-10


def scaled_phihat(eps):
    qg = S3_PAIR
    return engine.QuantumGroupPair(qg.mu, qg.m_basis, qg.mhat_basis, qg.phi,
                                   engine.Weight(qg.phihat.xi * (1 + eps)),
                                   qg.s_mat, qg.shat_mat)


def perturbed_s_mat(eps):
    # The change to column 2 sums to 0, and phi is constant on the s3 basis, so
    # psi = s_mat^T phi, and with it right invariance, is unchanged.
    qg = S3_PAIR
    s_mat = qg.s_mat.copy()
    s_mat[0, 2] += eps
    s_mat[1, 2] -= eps
    return engine.QuantumGroupPair(qg.mu, qg.m_basis, qg.mhat_basis, qg.phi, qg.phihat,
                                   s_mat, qg.shat_mat)


def tilted_phihat(eps):
    # xi_phihat + eps e_1 leaves the Haar vector's line; haar-weights alone
    # would pass it, and left-invariance-dual would catch it at 0.82 eps
    qg = S3_PAIR
    xi = qg.phihat.xi + eps * np.eye(qg.n)[1]
    return engine.QuantumGroupPair(qg.mu, qg.m_basis, qg.mhat_basis, qg.phi,
                                   engine.Weight(xi), qg.s_mat, qg.shat_mat)


def phased_dense_w(eps):
    w = np.array(S3_PAIR.w)
    w[:, 0] *= np.exp(1j * eps)  # still unitary, no longer pentagonal
    return w


@pytest.mark.parametrize("eps", [1e-6, 1e-4])
@pytest.mark.parametrize("corrupt, stage", [
    (scaled_phihat, "gns-duality-phihat"),
    (perturbed_s_mat, "pair-agreement"),
    (tilted_phihat, "pair-agreement"),
    (phased_dense_w, "pentagon"),
], ids=["phihat-scaled", "s-mat-perturbed", "phihat-tilted", "w-column-phased"])
def test_suite_blames_the_corrupted_stage(corrupt, stage, eps):
    report = run_suite(corrupt(eps))
    checks = {c.name: c for c in report.checks}
    assert report.first_failed == stage
    # The phased column reads 2.45 eps: the pentagon's entrywise bound
    # (kappa^2 phi, Cauchy-Schwarz over every (k, k')) sits above the worst
    # entry of W12 W13 W23 - W23 W12, which reads 1.00 eps.
    ceiling = 2.5 if corrupt is phased_dense_w else 2
    assert 0.5 * eps <= checks[stage].deviation <= ceiling * eps
    if "right-invariance" in checks:
        assert checks["right-invariance"].deviation == 0.0
    assert checks["unitarity"].deviation <= 1.2e-16


def replayed_checks(mu, qg, model, seed, tol=1e-10):
    """Every check stage of run_suite, called directly in suite order, with a
    generator seeded like the suite's for the stage that draws; a group model
    also adds its oracles.
    The pair is derived by engine.derive_pair, whose four stages, the pentagon
    first, are recorded too; a given qg is then compared with it
    (pair-agreement)."""
    rng = np.random.default_rng(seed)
    stages = {"unitarity": engine.check_unitarity(mu)}

    def record(stage, fn):
        stages[stage] = fn()
        return stages[stage].passed

    derived = engine.derive_pair(mu, record, tol)
    if qg is None:
        qg = derived
    else:
        stages["pair-agreement"] = engine.CheckReport(
            "pair-agreement", engine.pair_deviation(qg, derived), tol)
    stages["w-membership"] = engine.check_w_membership(qg, tol)
    for side, suffix in ((qg, ""), (qg.dual, "-dual")):
        stages["coassociativity" + suffix] = engine.check_coassociativity(side, tol)
    for side, suffix in ((qg, ""), (qg.dual, "-dual")):
        stages["left-invariance" + suffix] = engine.check_left_invariance(side, tol)
        stages["right-invariance" + suffix] = engine.check_right_invariance(side, tol)
    stages["gns-duality-phihat"] = engine.check_gns_duality_phihat(qg, tol)
    stages["gns-duality-phihatdual"] = engine.check_gns_duality_phihatdual(qg, tol)
    stages["antipode-slices"] = engine.check_antipode(qg, tol)
    stages["sharp-involution"] = engine.check_sharp_involution(qg, tol)
    stages["slice-product-laws"] = engine.check_slice_product_laws(qg, rng, tol)
    stages["fourier-inversion"] = ft.check_inversion(qg, tol)
    stages["plancherel"] = ft.check_plancherel(qg, tol)
    stages["convolution-agreement"] = ft.check_convolution(qg, tol)
    if model is not None:
        stages["convolution-agreement"].deviation = max(
            stages["convolution-agreement"].deviation,
            models.convolution_oracle_deviation(model))
    stages["pairing"] = ft.check_pairing(qg, tol)
    if model is not None:
        stages["pairing"].deviation = max(stages["pairing"].deviation,
                                          models.pairing_oracle_deviation(model))
    stages["pairing-axioms"] = ft.check_pairing_axioms(qg, tol)
    stages["ft-pairing"] = ft.check_ft_pairing(qg, tol)
    stages["pontryagin"] = engine.pontryagin_check(mu)
    return stages


@pytest.mark.parametrize("label", ["s3", "transported-dihedral3"])
def test_run_suite_only_orders_the_checks(label):
    if label == "s3":
        source = model = models.build(groups.symmetric(3))
        mu, qg = model.qg.mu, model.qg
    else:
        q, _ = np.linalg.qr(random_complex(np.random.default_rng(5), (6, 6)))
        uu = np.kron(q, q)
        source = uu @ models.build(groups.dihedral(3)).qg.w @ uu.conj().T
        model, qg = None, None
        mu = engine.MultiplicativeUnitary.from_dense(source)
    report = run_suite(source, seed=17)
    assert report.passed
    stages = replayed_checks(mu, qg, model, seed=17)
    assert [c.name for c in report.checks] == list(stages)
    for check in report.checks:
        assert check.deviation == stages[check.name].deviation, check.name
        assert check.tolerance == stages[check.name].tolerance, check.name
