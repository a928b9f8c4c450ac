"""The benchmark's workloads.  Each is a closed loop with one client: the next
call starts only when the previous one has returned.

A workload has three steps, which the runner times separately:

* `setup()` makes every input from the workload seed and builds what the
  timed phase needs;
* `sweep(index)` makes one pass of timed calls into qgft and returns one
  `Op` per call, holding its output, and does no checking;
* `check(ops)` compares the outputs with their oracles, outside the timed
  interval, and marks each op passed or failed with its worst margin
  (deviation / tolerance).

All calls go through module attributes (`cli.main`, `ft.fourier`, ...) so that
the tracer's wrappers see them.
"""

from __future__ import annotations

import contextlib
import io
import json
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from qgft import cli, engine, groups, models
from qgft import fourier as ft
from qgft.linalg import deviation, flip

# Absolute tolerance for oracle comparisons: the suite's default bound.
ORACLE_TOL = 1e-10

OPS = ("fourier", "inverse_fourier", "convolve", "convolve_direct", "convolve_dual",
       "convolve_dual_direct", "pairing")
POOL = 64  # input sets per pair; round r of the stream uses set r % POOL


@dataclass
class Op:
    name: str
    seconds: float
    output: object = None
    error: str = ""
    context: tuple = ()
    passed: bool = False
    margin: float = 0.0
    stages: dict = field(default_factory=dict)   # check name -> elapsed_ms


def transported(w: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """(u (x) u) W (u (x) u)^* for a random unitary u: the same quantum group,
    with a dense complex W and every structure left for the engine to derive."""
    n = int(round(np.sqrt(w.shape[0])))
    q, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    uu = np.kron(q, q)
    return uu @ w @ uu.conj().T


def dense_unitaries(seed: int) -> list[tuple[str, np.ndarray]]:
    """The two n = 12 dense unitaries of `verify-dense`."""
    rng = np.random.default_rng(seed)
    w_d6 = models.build(groups.dihedral(6)).qg.w
    w_c12 = models.build(groups.cyclic(12)).qg.w
    sigma = flip(12)
    return [("transported-dihedral6", transported(w_d6, rng)),
            ("dual-cyclic12", sigma @ w_c12.conj().T @ sigma)]


class VerifyDense:
    """One sweep runs `qgft verify --unitary` in-process on each dense unitary,
    written to a file during set-up."""

    def __init__(self, seed: int, workdir: Path, make_unitaries=dense_unitaries):
        self.seed = seed
        self.workdir = Path(workdir)
        self.make_unitaries = make_unitaries
        self.sources: list[tuple[str, Path]] = []

    def setup(self):
        self.sources = []
        for label, w in self.make_unitaries(self.seed):
            path = self.workdir / f"{label}.json"
            n = int(round(np.sqrt(w.shape[0])))
            cli.write_json(cli.matrix_to_json(w, n), str(path))
            self.sources.append((label, path))

    def sweep(self, index: int) -> list[Op]:
        ops = []
        for k, (label, path) in enumerate(self.sources):
            report = self.workdir / f"report-{k}.json"
            report.unlink(missing_ok=True)
            argv = ["verify", "--unitary", str(path), "--seed", str(self.seed + index),
                    "--out", str(report)]
            stderr = io.StringIO()
            start = time.perf_counter()
            try:
                with contextlib.redirect_stderr(stderr):
                    code = cli.main(argv)
                error = ""
            except (Exception, SystemExit) as exc:
                code, error = None, repr(exc)
            seconds = time.perf_counter() - start
            ops.append(Op(f"verify {label}", seconds, code, error or stderr.getvalue(),
                          (report,)))
        return ops

    def check(self, ops: list[Op]):
        for op in ops:
            if op.output != 0 or not op.context[0].exists():
                continue
            checks = json.loads(op.context[0].read_text())["checks"]
            op.stages = {c["name"]: c["elapsed_ms"] for c in checks}
            op.margin = max((c["deviation"] / c["tolerance"] for c in checks
                             if c["tolerance"] > 0), default=0.0)
            op.passed = bool(checks) and all(c["pass"] for c in checks)


@dataclass
class _Inputs:
    args: dict      # op -> positional arguments after the pair
    raw: tuple      # what the oracle needs


class GroupPair:
    """A group model: every op has a closed-form classical oracle."""

    def __init__(self, model: models.GroupModel):
        self.model = model
        self.qg = model.qg
        self.label = model.group.name

    def draw(self, rng: np.random.Generator) -> _Inputs:
        n = self.model.n
        a, c, b, d = (rng.standard_normal(n) + 1j * rng.standard_normal(n)
                      for _ in range(4))
        pa, pc = models.pi(self.model, a), models.pi(self.model, c)
        lb, ld = models.L(self.model, b), models.L(self.model, d)
        args = {"fourier": (pa,), "inverse_fourier": (lb,),
                "convolve": (pa, pc), "convolve_direct": (pa, pc),
                "convolve_dual": (lb, ld), "convolve_dual_direct": (lb, ld),
                "pairing": (lb, pa)}
        return _Inputs(args, (a, b, c, d))

    def deviation(self, op: str, inputs: _Inputs, out) -> float:
        a, b, c, d = inputs.raw
        mdl = self.model
        if op == "fourier":                       # F(pi(a)) = L(a)
            return deviation(out, models.L(mdl, a))
        if op == "inverse_fourier":               # F^{-1}(L(b)) = pi(b)
            return deviation(out, models.pi(mdl, b))
        if op in ("convolve", "convolve_direct"):
            return deviation(out, models.pi(mdl, models.classical_convolution(
                mdl.group, a, c)))
        if op in ("convolve_dual", "convolve_dual_direct"):
            return deviation(out, models.L(mdl, b * d))
        return max(out.spread, abs(out.via_inverse - complex(np.sum(a * b))))


class DensePair:
    """A pair derived from a dense W: the oracles are the F^{-1}F round trip,
    agreement of the two convolution routes, and the pairing spread."""

    ROUTES = {"convolve": "convolve_direct", "convolve_direct": "convolve",
              "convolve_dual": "convolve_dual_direct",
              "convolve_dual_direct": "convolve_dual"}

    def __init__(self, qg: engine.QuantumGroupPair, label: str):
        self.qg = qg
        self.label = label

    def draw(self, rng: np.random.Generator) -> _Inputs:
        def element(basis):
            k = basis.shape[0]
            coeffs = rng.standard_normal(k) + 1j * rng.standard_normal(k)
            return np.einsum("k,kab->ab", coeffs, basis)

        a, c = element(self.qg.m_basis), element(self.qg.m_basis)
        b, d = element(self.qg.mhat_basis), element(self.qg.mhat_basis)
        args = {"fourier": (a,), "inverse_fourier": (b,),
                "convolve": (a, c), "convolve_direct": (a, c),
                "convolve_dual": (b, d), "convolve_dual_direct": (b, d),
                "pairing": (b, a)}
        return _Inputs(args, (a, b))

    def deviation(self, op: str, inputs: _Inputs, out) -> float:
        a, b = inputs.raw
        if op == "fourier":
            return deviation(ft.inverse_fourier(self.qg, out), a)
        if op == "inverse_fourier":
            return deviation(ft.fourier(self.qg, out), b)
        if op in self.ROUTES:
            other = getattr(ft, self.ROUTES[op])(self.qg, *inputs.args[op])
            return deviation(out, other)
        return out.spread


def fill_caches(qg: engine.QuantumGroupPair):
    """Build the lazily cached data the transform calls read."""
    for name in ("delta_coeffs", "delta_hat_coeffs", "s_inv_mat", "shat_inv_mat"):
        getattr(qg, name)


class TransformStream:
    """Single transform, convolution and pairing calls on two pairs that are
    already built.  A sweep is one round: every (op, pair) combination once,
    in a seeded order."""

    def __init__(self, seed: int, workdir: Path | None = None, group: str = "s4",
                 dense_group: str = "dihedral:6"):
        self.seed = seed
        self.group = group
        self.dense_group = dense_group

    def setup(self):
        rng = np.random.default_rng(self.seed)
        model = models.build(cli.parse_group_spec(self.group))
        dense_model = models.build(cli.parse_group_spec(self.dense_group))
        w = transported(dense_model.qg.w, rng)
        pair = engine.pair_from_unitary(w)
        self.pairs = [GroupPair(model),
                      DensePair(pair, f"transported-{dense_model.group.name}")]
        for p in self.pairs:
            fill_caches(p.qg)
        self.pool = [[p.draw(rng) for _ in range(POOL)] for p in self.pairs]
        combos = [(i, op) for i in range(len(self.pairs)) for op in OPS]
        self.orders = [[combos[j] for j in rng.permutation(len(combos))]
                       for _ in range(POOL)]

    def sweep(self, index: int) -> list[Op]:
        k = index % POOL
        ops = []
        for i, op in self.orders[k]:
            pair, inputs = self.pairs[i], self.pool[i][k]
            fn = getattr(ft, op)
            start = time.perf_counter()
            try:
                out, error = fn(pair.qg, *inputs.args[op]), ""
            except Exception as exc:
                out, error = None, repr(exc)
            seconds = time.perf_counter() - start
            ops.append(Op(f"{op}@{pair.label}", seconds, out, error, (pair, op, inputs)))
        return ops

    def check(self, ops: list[Op]):
        for op in ops:
            if op.error:
                continue
            pair, name, inputs = op.context
            try:
                dev = pair.deviation(name, inputs, op.output)
            except Exception as exc:
                op.error = f"oracle raised {exc!r}"
                continue
            op.margin = dev / ORACLE_TOL
            op.passed = dev <= ORACLE_TOL


WORKLOADS = {"verify-dense": VerifyDense, "transform-stream": TransformStream}
