"""Span tracing of qgft, done entirely from outside the package.

`Tracer.install` replaces each function named in `TRACED` by a timing
wrapper, in its defining module and in every qgft module that imported it by
name (so `verify.check_pentagon` and `engine.check_pentagon` are the same
wrapper).  `Tracer.remove` puts the originals back.  Spans are kept in memory
with their parent and the run id of the work item that caused them, and are
written out once, at the end of the benchmark.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import asdict, dataclass

# layer (qgft submodule) -> functions wrapped in that layer
TRACED = {
    "cli": ("main", "load_unitary", "write_json"),
    "verify": ("run_suite",),
    "engine": ("check_pentagon", "slice_span_m", "slice_span_mhat",
               "algebra_closure_deviation", "comult_coeff_tensor", "comultiply",
               "dual_comultiply", "derive_haar_vectors", "antipode_from_slices",
               "antipode_hat_from_slices", "check_slice_product_laws",
               "check_antipode", "pontryagin_check", "pair_from_unitary"),
    "linalg": ("span_basis", "leg_embed", "subspace_equal"),
    "fourier": ("fourier", "inverse_fourier", "convolve", "convolve_direct",
                "convolve_dual", "convolve_dual_direct", "pairing"),
    "models": ("build",),
    "groups": ("from_cayley_table", "cyclic", "dihedral", "symmetric"),
}
LAYERS = tuple(TRACED)


@dataclass(frozen=True)
class Span:
    id: int
    parent: int | None
    run: str
    name: str   # "<layer>.<function>", or "bench.<phase>" for a work item
    start: float
    end: float

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans: list[Span | None] = []
        self._stack: list[int] = []
        self._run: str | None = None
        self._patched: list[tuple[object, str, object]] = []

    def install(self):
        wrappers = {}
        for layer, names in TRACED.items():
            module = importlib.import_module(f"qgft.{layer}")
            for name in names:
                original = getattr(module, name)
                wrappers[id(original)] = self._wrap(f"{layer}.{name}", original)
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "qgft" and not mod_name.startswith("qgft."):
                continue
            for attr, value in list(vars(module).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    self._patched.append((module, attr, value))
                    setattr(module, attr, wrapper)

    def remove(self):
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    @contextmanager
    def run(self, run_id: str, name: str):
        """Record spans for one work item under a root span `name`."""
        self._run = run_id
        try:
            with self._span(name):
                yield
        finally:
            self._run = None

    @contextmanager
    def _span(self, name: str):
        span_id = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else None
        self._stack.append(span_id)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[span_id] = Span(span_id, parent, self._run, name, start, end)

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self._run is None:
                return fn(*args, **kwargs)
            with self._span(name):
                return fn(*args, **kwargs)
        return wrapper

    def write(self, path):
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(asdict(span)) + "\n")


@dataclass
class LayerSummary:
    calls: dict[str, int]       # "<layer>.<fn>" -> number of spans
    seconds: dict[str, float]   # "<layer>.<fn>" -> inclusive time
    self_s: dict[str, float]    # layer -> time not covered by child spans


def summarize(spans, runs=None) -> LayerSummary:
    """Per-function calls and inclusive time, and per-layer self time, over the
    spans whose run id is in `runs` (all spans when None).  Self time is a
    span's duration minus the time covered by its direct children; children
    of one span never overlap because the benchmark is single-threaded."""
    chosen = [s for s in spans if runs is None or s.run in runs]
    covered = defaultdict(float)
    for s in chosen:
        if s.parent is not None:
            covered[s.parent] += s.seconds
    out = LayerSummary(defaultdict(int), defaultdict(float), defaultdict(float))
    for s in chosen:
        out.calls[s.name] += 1
        out.seconds[s.name] += s.seconds
        out.self_s[s.name.split(".", 1)[0]] += s.seconds - covered[s.id]
    return out
