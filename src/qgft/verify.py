"""Ordered verification suite over a group model or a raw multiplicative
unitary, producing a machine-readable report.

Stage order: unitarity, the derivation of the pair (the pentagon, exact for
permutation forms and in coefficient space for a dense W, or block by block
when its M spans more than n elements; slice-algebra generation and closure,
Haar weights, antipode assembly), agreement of a given pair with it, W
membership in M (x) Mhat, coassociativity, invariance (left and right, both
sides), the two GNS duality relations, the antipode laws, the sharp
involution, slice product laws, Fourier inversion, Plancherel (the GNS
isometry on full bases), convolution agreement, pairing spread and axioms, the
inner-product pairing description, and Pontryagin duality.

`run_suite` derives every source's pair through `engine.derive_pair`, as
`engine.pair_from_unitary` does; a given pair (a group model or a
`QuantumGroupPair`) must agree with it by `engine.pair_deviation`
(pair-agreement), and the checks then run on the given pair.  Otherwise it only
calls the `check_*` functions of `engine` and `fourier` in this order.  For a
group model, `convolution-agreement` and `pairing` also take the model's
classical oracle (`models.*_oracle_deviation`), drawn after `slice-product-laws`.

Stages are bounded by `tol_value`, except unitarity, the pentagon and
pontryagin, which keep their own bounds.  No stage draws except
`slice-product-laws` and a group model's two oracles, which draw from a
generator seeded with the recorded seed, so a report is reproducible bit for
bit apart from the elapsed-time fields.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from . import engine, fourier, models
from .engine import CheckReport, MultiplicativeUnitary, QuantumGroupPair
# derive_pair runs the pentagon; the name stays here for tracers that wrap
# every module's reference to it (perfbench/tracing.py).
from .engine import check_pentagon  # noqa: F401
from .linalg import DEFAULT_TOL

SUITE_VERSION = "qgft-suite/1"
DEFAULT_SEED = 20201


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


def run_suite(source, tol_value: float = DEFAULT_TOL, seed: int = DEFAULT_SEED,
              model_name: str | None = None) -> VerificationReport:
    """Run every check on a GroupModel, QuantumGroupPair, MultiplicativeUnitary
    or dense unitary matrix.  A stage that raises or has a non-finite deviation
    fails.  Structural failures abort the remaining stages; the first failing
    check is recorded by name.  ValueError if tol_value is negative, infinite
    or NaN."""
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
    tol, rng = tol_value, np.random.default_rng(seed)

    def run(stage: str, fn) -> bool:
        """Time fn() into the report as `stage`; an exception or a non-finite
        deviation fails the stage.  Returns whether the stage passed."""
        start = time.perf_counter()
        try:
            check = fn()
            check.name = stage
        except Exception as exc:
            check = CheckReport(stage, 1.0, 0.0, note=f"{type(exc).__name__}: {exc}")
        if not np.isfinite(check.deviation):  # JSON has no inf or nan
            check = CheckReport(stage, 1.0, 0.0, note=f"non-finite deviation: {check.deviation}")
        check.elapsed_ms = (time.perf_counter() - start) * 1e3
        report.checks.append(check)
        if not check.passed and report.first_failed is None:
            report.first_failed = stage
        return check.passed

    # A failed structural stage returns the report at once.
    if not run("unitarity", lambda: engine.check_unitarity(mu)):
        return report

    # Every source's pair is derived stage by stage, the pentagon first; a
    # given pair must agree with it.
    derived = engine.derive_pair(mu, run, tol)
    if derived is None:
        return report
    if qg is None:
        qg = derived
    elif not run("pair-agreement",
                 lambda: CheckReport("", engine.pair_deviation(qg, derived), tol)):
        return report

    def with_oracle(check: CheckReport, oracle) -> CheckReport:
        if model is not None:
            check.deviation = max(check.deviation, oracle(model, rng))
        return check

    run("w-membership", lambda: engine.check_w_membership(qg, tol))

    # Mhat-side stages are M-side stages of the dual; run calls fn at once.
    sides = ((qg, ""), (qg.dual, "-dual"))
    for side, suffix in sides:
        run("coassociativity" + suffix, lambda: engine.check_coassociativity(side, tol))
    for side, suffix in sides:
        run("left-invariance" + suffix, lambda: engine.check_left_invariance(side, tol))
        run("right-invariance" + suffix, lambda: engine.check_right_invariance(side, tol))

    run("gns-duality-phihat", lambda: engine.check_gns_duality_phihat(qg, tol))
    run("gns-duality-phihatdual", lambda: engine.check_gns_duality_phihatdual(qg, tol))

    run("antipode-slices", lambda: engine.check_antipode(qg, tol))
    run("sharp-involution", lambda: engine.check_sharp_involution(qg, tol))
    run("slice-product-laws", lambda: engine.check_slice_product_laws(qg, rng, tol))

    run("fourier-inversion", lambda: fourier.check_inversion(qg, tol))
    run("plancherel", lambda: fourier.check_plancherel(qg, tol))
    run("convolution-agreement", lambda: with_oracle(fourier.check_convolution(qg, tol),
                                                     models.convolution_oracle_deviation))
    run("pairing", lambda: with_oracle(fourier.check_pairing(qg, tol),
                                       models.pairing_oracle_deviation))
    run("pairing-axioms", lambda: fourier.check_pairing_axioms(qg, tol))
    run("ft-pairing", lambda: fourier.check_ft_pairing(qg, tol))
    run("pontryagin", lambda: engine.pontryagin_check(mu))
    return report
