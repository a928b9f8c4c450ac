"""Ordered verification suite over a group model or a raw multiplicative
unitary, producing a machine-readable report.

Stage order: unitarity, pentagon (exact for permutation forms, dense up to
n = 12), slice-algebra generation and closure, Haar-weight recovery, W
membership in M (x) Mhat, coassociativity, invariance (left and right, both
sides), GNS consistency and the two duality relations, antipode slice
consistency, the sharp involution, slice product laws, GNS transport, Fourier
inversion, Plancherel, convolution agreement, pairing spread and axioms, the
inner-product pairing description, and the Pontryagin double-dual span check.

Stages are bounded by `tol_value`, except unitarity, the pentagons, exact model
weights and pontryagin (PONTRYAGIN_TOL), which keep their own bounds.  Randomized
stages draw from a generator seeded with the recorded seed, so a report is
reproducible bit for bit apart from the elapsed-time fields.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from . import engine, models
from .engine import (
    CheckReport,
    MultiplicativeUnitary,
    QuantumGroupPair,
    Weight,
    check_pentagon,
)
from .fourier import (
    check_convolution,
    check_ft_pairing,
    check_gns_transport,
    check_inversion,
    check_pairing_axioms,
    check_plancherel,
    convolve,
    convolve_dual,
    pairing,
)
from .linalg import DEFAULT_TOL, deviation, random_complex, random_element, subspace_equal

SUITE_VERSION = "qgft-suite/1"
DEFAULT_SEED = 20201
DENSE_CHECK_TOL = 1e-12
PONTRYAGIN_TOL = 1e-8

INVERSION_SAMPLES = 10
PLANCHEREL_SAMPLES = 50
CONVOLUTION_SAMPLES = 20
PAIRING_SAMPLES = 50
PAIRING_AXIOM_SAMPLES = 20
SHARP_SAMPLES = 20
FT_PAIRING_SAMPLES = 10
PRODUCT_LAW_SAMPLES = 5


@dataclass
class VerificationReport:
    model: str
    seed: int
    suite_version: str = SUITE_VERSION
    checks: list[CheckReport] = field(default_factory=list)
    first_failed: str | None = None

    @property
    def passed(self) -> bool:
        return self.first_failed is None

    def to_json_dict(self) -> dict:
        return {
            "model": self.model,
            "seed": self.seed,
            "suite_version": self.suite_version,
            "checks": [
                {
                    "name": c.name,
                    "pass": bool(c.passed),
                    "deviation": float(c.deviation),
                    "tolerance": float(c.tolerance),
                    "elapsed_ms": float(c.elapsed_ms),
                }
                for c in sorted(self.checks, key=lambda c: c.name)
            ],
        }


class _Abort(Exception):
    pass


class _Runner:
    def __init__(self, report: VerificationReport):
        self.report = report

    def run(self, name: str, fn, abort_on_fail: bool = False) -> CheckReport:
        start = time.perf_counter()
        try:
            check = fn()
            check.name = name
        except Exception as exc:
            check = CheckReport(name, 1.0, 0.0, note=f"{type(exc).__name__}: {exc}")
        check.elapsed_ms = (time.perf_counter() - start) * 1e3
        self.report.checks.append(check)
        if not check.passed and self.report.first_failed is None:
            self.report.first_failed = name
        if not check.passed and abort_on_fail:
            raise _Abort
        return check


def run_suite(source, tol_value: float = DEFAULT_TOL, seed: int = DEFAULT_SEED,
              model_name: str | None = None) -> VerificationReport:
    """Run every check on a GroupModel, QuantumGroupPair, MultiplicativeUnitary
    or dense unitary matrix.  Structural failures abort the remaining stages;
    the first failing check is recorded by name.  ValueError if tol_value is
    negative, infinite or NaN."""
    if not 0.0 <= tol_value < float("inf"):  # also rejects NaN
        raise ValueError(f"tol_value must be finite and non-negative, got {tol_value}")
    model: models.GroupModel | None = None
    qg: QuantumGroupPair | None = None

    if isinstance(source, models.GroupModel):
        model = source
        qg = source.qg
        mu = qg.mu
        name = model_name or source.group.name
    elif isinstance(source, QuantumGroupPair):
        qg = source
        mu = qg.mu
        name = model_name or f"pair:{qg.n}"
    else:
        mu = (source if isinstance(source, MultiplicativeUnitary)
              else MultiplicativeUnitary.from_dense(source))
        name = model_name or f"unitary:{mu.n}"

    report = VerificationReport(model=name, seed=seed)
    runner = _Runner(report)
    rng = np.random.default_rng(seed)

    try:
        _run_stages(runner, mu, model, qg, tol_value, rng)
    except _Abort:
        pass
    return report


def _run_stages(runner: _Runner, mu: MultiplicativeUnitary,
                model: models.GroupModel | None, qg: QuantumGroupPair | None,
                tol: float, rng: np.random.Generator):
    n = mu.n

    def unitarity():
        dev = mu.unitarity_deviation()
        bound = 0.0 if mu.is_permutation else DENSE_CHECK_TOL
        return CheckReport("", dev, bound)

    runner.run("unitarity", unitarity, abort_on_fail=True)
    runner.run("pentagon", lambda: check_pentagon(mu), abort_on_fail=True)
    if mu.is_permutation and n <= engine.DENSE_PENTAGON_MAX_DIM:
        dense_mu = MultiplicativeUnitary.from_dense(mu.dense)
        runner.run("pentagon-dense", lambda: check_pentagon(dense_mu))

    # Slice-algebra generation and closure; for models, also against the
    # exact built-in bases.
    state: dict = {}

    def generation():
        m_span = engine.slice_span_m(mu, tol)
        mhat_span = engine.slice_span_mhat(mu, tol)
        dev = max(engine.algebra_closure_deviation(m_span),
                  engine.algebra_closure_deviation(mhat_span))
        if qg is not None:
            dev = max(dev,
                      subspace_equal(m_span, qg.m_basis, tol).deviation,
                      subspace_equal(mhat_span, qg.mhat_basis, tol).deviation)
        state["m_span"], state["mhat_span"] = m_span, mhat_span
        return CheckReport("", dev, tol)

    runner.run("algebra-generation", generation, abort_on_fail=True)

    def weights():
        if model is not None:
            return CheckReport("", 0.0, 0.0, note="exact model weights")
        xi_phi, xi_phihat = engine.derive_haar_vectors(mu, state["m_span"], tol)
        state["weights"] = (Weight(xi_phi), Weight(xi_phihat))
        return CheckReport("", 0.0, tol)

    runner.run("haar-weights", weights, abort_on_fail=True)

    if qg is None:
        def antipodes():
            fits = (engine.antipode_from_slices(mu, state["m_span"], tol),
                    engine.antipode_hat_from_slices(mu, state["mhat_span"], tol))
            state["antipode_fits"] = fits
            return CheckReport("", max(fits[0][1], fits[1][1]), tol)

        runner.run("antipode-assembly", antipodes, abort_on_fail=True)
        phi, phihat = state["weights"]
        (s_mat, _), (shat_mat, _) = state["antipode_fits"]
        qg = QuantumGroupPair(mu, state["m_span"], state["mhat_span"],
                              phi, phihat, s_mat, shat_mat)

    pair = qg

    def w_membership():
        dev = pair.w_membership_residual
        return CheckReport("", dev, tol)

    runner.run("w-membership", w_membership)

    # Mhat-side stages are M-side stages of the dual; runner.run calls fn at once.
    sides = ((pair, ""), (pair.dual, "-dual"))
    for side, suffix in sides:
        runner.run("coassociativity" + suffix, lambda: engine.check_coassociativity(side, tol))
    for side, suffix in sides:
        runner.run("left-invariance" + suffix, lambda: engine.check_left_invariance(side, tol))
        runner.run("right-invariance" + suffix, lambda: engine.check_right_invariance(side, tol))

    runner.run("gns-consistency", lambda: engine.check_gns_consistency(pair, tol))
    runner.run("gns-duality-phihat", lambda: engine.check_gns_duality_phihat(pair, tol))
    runner.run("gns-duality-phihatdual",
               lambda: engine.check_gns_duality_phihatdual(pair, tol))

    runner.run("antipode-slices",
               lambda: engine.check_antipode(pair, tol, state.get("antipode_fits")))
    runner.run("sharp-involution",
               lambda: engine.check_sharp_involution(pair, rng, SHARP_SAMPLES, tol))
    runner.run("slice-product-laws",
               lambda: engine.check_slice_product_laws(pair, rng, PRODUCT_LAW_SAMPLES, tol))

    runner.run("gns-transport", lambda: check_gns_transport(pair, tol))
    runner.run("fourier-inversion",
               lambda: check_inversion(pair, tol, rng, INVERSION_SAMPLES))

    def plancherel():
        dev = 0.0
        for _ in range(PLANCHEREL_SAMPLES):
            a = random_element(rng, pair.m_basis)
            result = check_plancherel(pair, a)
            dev = max(dev, result.deviation,
                      abs(result.lhs.imag), abs(result.rhs.imag))
        return CheckReport("", dev, tol)

    runner.run("plancherel", plancherel)

    def convolution():
        check = check_convolution(pair, rng, CONVOLUTION_SAMPLES, tol)
        dev = check.deviation
        if model is not None:
            for _ in range(CONVOLUTION_SAMPLES):
                fa = random_complex(rng, n)
                fc = random_complex(rng, n)
                out = convolve(pair, models.pi(model, fa), models.pi(model, fc))
                dev = max(dev, deviation(models.pi_function(model, out),
                                         models.classical_convolution(model.group, fa, fc)))
                fb = random_complex(rng, n)
                fd = random_complex(rng, n)
                out = convolve_dual(pair, models.L(model, fb), models.L(model, fd))
                dev = max(dev, deviation(models.L_function(model, out), fb * fd))
        return CheckReport("", dev, tol)

    runner.run("convolution-agreement", convolution)

    def pairing_spread():
        dev = 0.0
        for _ in range(PAIRING_SAMPLES):
            a = random_element(rng, pair.m_basis)
            b = random_element(rng, pair.mhat_basis)
            value = pairing(pair, b, a)
            dev = max(dev, value.spread)
        if model is not None:
            for _ in range(PAIRING_SAMPLES):
                fa = random_complex(rng, n)
                fb = random_complex(rng, n)
                value = pairing(pair, models.L(model, fb), models.pi(model, fa))
                dev = max(dev, value.spread,
                          abs(value.via_inverse - complex(np.sum(fa * fb))))
        return CheckReport("", dev, tol)

    runner.run("pairing", pairing_spread)
    runner.run("pairing-axioms",
               lambda: check_pairing_axioms(pair, rng, PAIRING_AXIOM_SAMPLES, tol))

    def ft_pairing():
        dev = 0.0
        for _ in range(FT_PAIRING_SAMPLES):
            a = random_element(rng, pair.m_basis)
            b = random_element(rng, pair.mhat_basis)
            dev = max(dev, check_ft_pairing(pair, a, b, tol).deviation)
        return CheckReport("", dev, tol)

    runner.run("ft-pairing", ft_pairing)
    runner.run("pontryagin", lambda: engine.pontryagin_check(pair, PONTRYAGIN_TOL))
