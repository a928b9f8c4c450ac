"""Verification suite orchestration: check ordering, abort behavior, report
invariants, and the generic dense-unitary path."""

import numpy as np
import pytest

from qgft import engine, groups, models
from qgft.linalg import flip, random_complex
from qgft.verify import SUITE_VERSION, run_suite

EXPECTED_MODEL_CHECKS = {
    "unitarity", "pentagon", "algebra-generation", "haar-weights",
    "w-membership", "coassociativity", "coassociativity-dual",
    "left-invariance", "right-invariance", "left-invariance-dual",
    "right-invariance-dual", "gns-consistency", "gns-duality-phihat",
    "gns-duality-phihatdual", "antipode-slices", "sharp-involution",
    "slice-product-laws", "gns-transport", "fourier-inversion", "plancherel",
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
    report = run_suite(models.build(groups.symmetric(4)))
    assert report.first_failed is None
    # dense pentagon is skipped above the dimension cap
    assert "pentagon-dense" not in {c.name for c in report.checks}


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
    # a dense source reuses the antipode-assembly fits in antipode-slices;
    # a given pair has no assembly stage and is fitted there
    mdl = models.build(groups.dihedral(3))
    fit, calls = engine.antipode_from_slices, []

    def counted(*args, **kwargs):
        calls.append(args)
        return fit(*args, **kwargs)

    monkeypatch.setattr(engine, "antipode_from_slices", counted)
    report = run_suite(np.asarray(mdl.qg.w) if source == "dense" else mdl)
    assert report.first_failed is None
    assert len(calls) == 2
    monkeypatch.undo()
    if source == "dense":
        refit = engine.check_antipode(engine.pair_from_unitary(np.asarray(mdl.qg.w)))
        slices = next(c for c in report.checks if c.name == "antipode-slices")
        assert slices.deviation == refit.deviation


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


def test_suite_reports_an_engine_error_as_a_failed_stage():
    # the dense pentagon refuses n = 13; the suite names the stage and the
    # exception instead of raising it
    report = run_suite(np.asarray(models.build(groups.cyclic(13)).qg.w))
    assert report.first_failed == "pentagon"
    assert [c.name for c in report.checks] == ["unitarity", "pentagon"]
    assert report.checks[-1].note.startswith("ValueError: dense pentagon check needs n <= 12")


def test_suite_aborts_on_non_unitary():
    report = run_suite(np.diag([2.0, 1.0, 1.0, 1.0]))
    assert report.first_failed == "unitarity"
    assert [c.name for c in report.checks] == ["unitarity"]


def test_suite_fails_weights_off_gns_position():
    # the identity is a multiplicative unitary, but its slice algebras are the
    # scalars and the carrier space is not the GNS space: no Haar vector
    report = run_suite(np.eye(9))
    assert report.first_failed == "haar-weights"
    executed = [c.name for c in report.checks]
    assert executed[-1] == "haar-weights"
    assert "algebra-generation" in executed


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
    "model": {"unitarity": 0.0, "pentagon": 0.0, "pentagon-dense": 1e-12,
              "haar-weights": 0.0, "pontryagin": 1e-8},
    "dense": {"unitarity": 1e-12, "pentagon": 1e-12, "pontryagin": 1e-8},
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


def phased_dense_w(eps):
    w = np.array(S3_PAIR.w)
    w[:, 0] *= np.exp(1j * eps)  # still unitary, no longer pentagonal
    return w


@pytest.mark.parametrize("eps", [1e-6, 1e-4])
@pytest.mark.parametrize("corrupt, stage", [
    (scaled_phihat, "gns-duality-phihat"),
    (perturbed_s_mat, "antipode-slices"),
    (phased_dense_w, "pentagon"),
], ids=["phihat-scaled", "s-mat-perturbed", "w-column-phased"])
def test_suite_blames_the_corrupted_stage(corrupt, stage, eps):
    report = run_suite(corrupt(eps))
    checks = {c.name: c for c in report.checks}
    assert report.first_failed == stage
    assert 0.5 * eps <= checks[stage].deviation <= 2 * eps
    if "right-invariance" in checks:
        assert checks["right-invariance"].deviation == 0.0
    assert checks["unitarity"].deviation <= 1.2e-16
