"""Wall time and memory peak of the engine's heaviest kernels.

    python3 tools/kernel_times.py [SPEC ...]      (default: s4)

Prints JSON with one record per kernel and source: the best of 5 timed calls
(`best_ms`) and the tracemalloc peak of one more call (`peak_mib`).  Run it
from the repository root; it imports the package from `src/`, so running the
same file from a copy of another commit measures that commit.  The kernels are

* `comult_coeff_tensor` on each group SPEC, on its M basis (side M) and on
  the dual's (side Mhat), each followed by `comult_residual` of that side's
  tensor, then the `fourier_table` and `pairing_table` of that side, each
  built on a fresh `QuantumGroupPair` of the side's fields, so no call finds
  the table cached, then one `require_in_m` and one `fourier` call of the
  side (the span kernel and the table built before timing) on a seeded
  random element of its algebra;
* `check_pairing_axioms` on each group SPEC's pair, with a generator seeded
  at the suite seed on every call, after the first call has filled the
  pair's caches, and `pontryagin_check` on its W;
* on the two n = 12 dense unitaries of the verify-dense benchmark workload
  (workload seed 11): `cli.write_json` of each one's `matrix_to_json` to a
  temporary file and `cli.load_unitary` of that file, then `check_pentagon`,
  `slice_span_m`, `slice_span_mhat` and `pair_from_unitary`, then
  `check_antipode` on the pair derived from each, `require_in_m` and
  `fourier` on its M and Mhat sides as above, `pontryagin_check` on W, and
  `run_suite` on W at suite seed 11;
* `run_suite` on each group SPEC at suite seed 11, on a freshly built model
  per call, so no cached table carries over from one call to the next.
"""

from __future__ import annotations

import json
import os
import platform
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench.workloads import dense_unitaries
from qgft import cli, engine, models
from qgft.fourier import check_pairing_axioms, fourier
from qgft.linalg import random_element
from qgft.verify import run_suite

REPEATS = 5
SUITE_SEED = 11
DENSE_SEED = 11


def measure(call) -> dict:
    """Best-of-REPEATS wall time of call(), then the tracemalloc peak of one
    more call."""
    times = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        call()
        times.append(time.perf_counter() - start)
    tracemalloc.start()
    try:
        call()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return {"best_ms": min(times) * 1e3, "peak_mib": peak / 2 ** 20}


def fresh(qg: engine.QuantumGroupPair) -> engine.QuantumGroupPair:
    """A pair of qg's fields with every cache empty."""
    return engine.QuantumGroupPair(qg.mu, qg.m_basis, qg.mhat_basis, qg.phi, qg.phihat,
                                   qg.s_mat, qg.shat_mat)


def projections(pair: engine.QuantumGroupPair, source: str, side: str):
    """(kernel, source, side, call) for one `require_in_m` and one `fourier`
    call on pair, the pair of one side, with its caches filled first."""
    a = random_element(np.random.default_rng(SUITE_SEED), pair.span)
    fourier(pair, a)
    yield "require_in_m", source, side, lambda: pair.require_in_m(a)
    yield "fourier", source, side, lambda: fourier(pair, a)


def kernels(groups: list):
    """(kernel, source, side, call) for every measured kernel, given
    (spec, FiniteGroup) pairs."""
    for spec, group in groups:
        qg = models.build(group).qg
        for side, pair in (("M", qg), ("Mhat", qg.dual)):
            yield ("comult_coeff_tensor", spec, side,
                   lambda pair=pair: engine.comult_coeff_tensor(pair.mu, pair.m_basis))
            yield ("comult_residual", spec, side,
                   lambda pair=pair, d=pair.delta_coeffs:
                   engine.comult_residual(pair.mu, pair.m_basis, d))
            for table in ("fourier_table", "pairing_table"):
                yield table, spec, side, lambda pair=pair, table=table: getattr(fresh(pair), table)
            yield from projections(pair, spec, side)
        yield ("check_pairing_axioms", spec, "",
               lambda qg=qg: check_pairing_axioms(qg, np.random.default_rng(SUITE_SEED)))
        yield "pontryagin_check", spec, "", lambda qg=qg: engine.pontryagin_check(qg.mu)
    with tempfile.TemporaryDirectory() as tmp:
        for label, w in dense_unitaries(DENSE_SEED):
            path, data = str(Path(tmp) / f"{label}.json"), cli.matrix_to_json(w, 12)
            yield "write_json", label, "", lambda data=data, path=path: cli.write_json(data, path)
            yield "load_unitary", label, "", lambda path=path: cli.load_unitary(path)
            mu = engine.MultiplicativeUnitary.from_dense(w)
            yield "check_pentagon", label, "", lambda mu=mu: engine.check_pentagon(mu)
            yield "slice_span_m", label, "", lambda mu=mu: engine.slice_span_m(mu)
            yield "slice_span_mhat", label, "", lambda mu=mu: engine.slice_span_mhat(mu)
            yield "pair_from_unitary", label, "", lambda w=w: engine.pair_from_unitary(w)
            qg = engine.pair_from_unitary(w)
            yield "check_antipode", label, "", lambda qg=qg: engine.check_antipode(qg)
            for side, pair in (("M", qg), ("Mhat", qg.dual)):
                yield from projections(pair, label, side)
            yield "pontryagin_check", label, "", lambda mu=mu: engine.pontryagin_check(mu)
            yield "run_suite", label, "", lambda w=w: run_suite(w, seed=SUITE_SEED)
    for spec, group in groups:
        yield "run_suite", spec, "", lambda group=group: run_suite(models.build(group),
                                                                   seed=SUITE_SEED)


def main(argv: list[str]) -> int:
    if any(arg.startswith("-") for arg in argv):
        print(__doc__, file=sys.stderr)
        return 2
    try:
        groups = [(spec, cli.parse_group_spec(spec)) for spec in argv or ["s4"]]
    except (ValueError, OSError) as exc:
        print(f"kernel_times: {exc}", file=sys.stderr)
        return 2
    records = [{"kernel": kernel, "source": source, "side": side, **measure(call)}
               for kernel, source, side, call in kernels(groups)]
    environment = {"python": platform.python_version(), "numpy": np.__version__,
                   "nproc": os.cpu_count(), "repeats": REPEATS}
    json.dump({"environment": environment, "kernels": records}, sys.stdout, indent=1)
    print()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
