"""Wall time and memory peak of the engine's heaviest kernels.

    python3 tools/kernel_times.py [SPEC ...]      (default: s4)

Prints JSON with one record per kernel and source: the best of 5 timed calls
(`best_ms`) and the tracemalloc peak of one more call (`peak_mib`).  Run it
from the repository root; it imports the package from `src/`, so running the
same file from a copy of another commit measures that commit.  The kernels are

* `comult_coeff_tensor` (D and rho_delta in one pass) on each group SPEC,
  on its M basis (side M) and on the dual's (side Mhat), then the
  `fourier_table` and `pairing_table` of that side, each
  built on a fresh `QuantumGroupPair` of the side's fields, so no call finds
  the table cached, then the side's `product_constants` (on a fresh pair
  whose span is the side's), its convolution tensor through F
  (`engine.fourier_convolution_tensor` of the side and the other side, their
  Fourier tables, spans and the other side's product constants built before
  timing), its `pairing_inverse_table`
  and `pairing_forward_table` (each on a fresh pair whose Fourier tables and
  spans, and its dual's, are the side's), then one `require_in_m` and one
  `fourier` call of the side (the span kernel and the table built before
  timing) on a seeded random element of its algebra;
* `check_pairing_axioms` on each group SPEC's pair, after the first call has
  filled the pair's caches, and `pontryagin_check` on its W;
* on the two n = 12 dense unitaries of the verify-dense benchmark workload
  (workload seed 11): `cli.write_json` of each one's `matrix_to_json` to a
  temporary file and `cli.load_unitary` of that file, then `check_pentagon`,
  `slice_spans` (both spans from one SVD), the one-side `slice_span_m` and
  `slice_span_mhat` and `pair_from_unitary`, then `check_antipode` on the
  pair derived from each, `comult_coeff_tensor`, `require_in_m` and
  `fourier` on its M and Mhat sides as above, each full-basis check of
  `FULL_BASIS_CHECKS` on the pair (caches filled by the first call),
  `pontryagin_check` on W, and `run_suite` on W at suite seed 11;
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
from qgft import fourier as ft
from qgft.fourier import fourier
from qgft.linalg import random_complex
from qgft.verify import run_suite

REPEATS = 5
SUITE_SEED = 11
DENSE_SEED = 11
# The suite stages that check one identity on the full bases, as matrix products.
FULL_BASIS_CHECKS = (engine.check_sharp_involution, ft.check_inversion, ft.check_plancherel,
                     ft.check_convolution, ft.check_pairing, ft.check_pairing_axioms,
                     ft.check_ft_pairing)


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


def with_transforms(pair: engine.QuantumGroupPair,
                    other: engine.QuantumGroupPair) -> engine.QuantumGroupPair:
    """A fresh pair of pair's fields, with other as its dual, whose Fourier
    tables and spans are pair's and other's; every other cache empty."""
    out = fresh(pair)
    out.dual = fresh(other)
    for new, old in ((out, pair), (out.dual, other)):
        new.fourier_table, new.span = old.fourier_table, old.span
    return out


def coeff_tensor(pair: engine.QuantumGroupPair, source: str, side: str):
    """(kernel, source, side, call) for `comult_coeff_tensor` on pair's M basis."""
    return ("comult_coeff_tensor", source, side,
            lambda: engine.comult_coeff_tensor(pair.mu, pair.m_basis))


def projections(pair: engine.QuantumGroupPair, source: str, side: str):
    """(kernel, source, side, call) for one `require_in_m` and one `fourier`
    call on pair, the pair of one side, with its caches filled first."""
    a = pair.span.reconstruct(random_complex(np.random.default_rng(SUITE_SEED), pair.span.dim))
    fourier(pair, a)
    yield "require_in_m", source, side, lambda: pair.require_in_m(a)
    yield "fourier", source, side, lambda: fourier(pair, a)


def kernels(groups: list):
    """(kernel, source, side, call) for every measured kernel, given
    (spec, FiniteGroup) pairs."""
    for spec, group in groups:
        qg = models.build(group).qg
        for side, pair, other in (("M", qg, qg.dual), ("Mhat", qg.dual, qg)):
            yield coeff_tensor(pair, spec, side)
            for table in ("fourier_table", "pairing_table"):
                yield table, spec, side, lambda pair=pair, table=table: getattr(fresh(pair), table)
            pair.fourier_table, other.fourier_table, pair.span, other.span
            yield ("product_constants", spec, side,
                   lambda pair=pair, other=other: with_transforms(pair, other).product_constants)
            other.product_constants
            yield ("fourier_convolution_tensor", spec, side,
                   lambda pair=pair, other=other: engine.fourier_convolution_tensor(pair, other))
            for table in ("pairing_inverse_table", "pairing_forward_table"):
                yield (table, spec, side, lambda pair=pair, other=other, table=table:
                       getattr(with_transforms(pair, other), table))
            yield from projections(pair, spec, side)
        yield ("check_pairing_axioms", spec, "",
               lambda qg=qg: ft.check_pairing_axioms(qg))
        yield "pontryagin_check", spec, "", lambda qg=qg: engine.pontryagin_check(qg.mu)
    with tempfile.TemporaryDirectory() as tmp:
        for label, w in dense_unitaries(DENSE_SEED):
            path, data = str(Path(tmp) / f"{label}.json"), cli.matrix_to_json(w, 12)
            yield "write_json", label, "", lambda data=data, path=path: cli.write_json(data, path)
            yield "load_unitary", label, "", lambda path=path: cli.load_unitary(path)
            mu = engine.MultiplicativeUnitary.from_dense(w)
            yield "check_pentagon", label, "", lambda mu=mu: engine.check_pentagon(mu)
            yield "slice_spans", label, "", lambda mu=mu: engine.slice_spans(mu)
            yield "slice_span_m", label, "", lambda mu=mu: engine.slice_span_m(mu)
            yield "slice_span_mhat", label, "", lambda mu=mu: engine.slice_span_mhat(mu)
            yield "pair_from_unitary", label, "", lambda w=w: engine.pair_from_unitary(w)
            qg = engine.pair_from_unitary(w)
            yield "check_antipode", label, "", lambda qg=qg: engine.check_antipode(qg)
            for side, pair in (("M", qg), ("Mhat", qg.dual)):
                yield coeff_tensor(pair, label, side)
                yield from projections(pair, label, side)
            for check in FULL_BASIS_CHECKS:
                yield check.__name__, label, "", lambda qg=qg, check=check: check(qg)
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
