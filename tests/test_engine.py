"""Engine tests: pentagon, slice-algebra generation, comultiplications,
invariance, antipodes, sharp, GNS duality, pair comparison and Pontryagin duality,
exercised on group models (exact) and on generic dense unitaries (derived)."""

import gc
import importlib.util
import tempfile
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest

from qgft import engine, groups, linalg, models
from qgft import fourier as ft
from qgft.cli import parse_group_spec
from qgft.engine import (
    ANTIPODE_SINGULAR_RTOL,
    InconsistentSlices,
    MultiplicativeUnitary,
    QuantumGroupPair,
    SingularAntipode,
    Weight,
    WeightDerivationError,
    algebra_closure_deviation,
    antipode_from_slices,
    antipode_hat_from_slices,
    check_antipode,
    check_coassociativity,
    check_gns_duality_phihat,
    check_gns_duality_phihatdual,
    check_left_invariance,
    check_pentagon,
    check_right_invariance,
    check_sharp_involution,
    check_slice_product_laws,
    check_w_membership,
    comult_coeff_tensor,
    comultiply,
    derive_haar_vectors,
    derive_pair,
    dual_comultiply,
    lam,
    leg1_contraction,
    lam_hat,
    pair_deviation,
    pair_from_unitary,
    pontryagin_check,
    sharp,
    slice_span_m,
    slice_span_mhat,
    slice_spans,
)
from qgft.fourier import check_inversion, check_pairing_axioms, inverse_fourier
from qgft.linalg import (
    Functional,
    deviation,
    flat_rows,
    flip,
    kron,
    leg_embed,
    slice_family,
    slice_left,
    slice_right,
    span_basis,
    subspace_equal,
)
from qgft.verify import run_suite

RNG = np.random.default_rng(11)

SNAPSHOT = importlib.util.spec_from_file_location(
    "suite_snapshot", Path(__file__).resolve().parent.parent / "tools" / "suite_snapshot.py")
suite_snapshot = importlib.util.module_from_spec(SNAPSHOT)
SNAPSHOT.loader.exec_module(suite_snapshot)


def model(group):
    return models.build(group)


def matrix_unit_functional(n, i, j):
    density = np.zeros((n, n), dtype=complex)
    density[i, j] = 1.0
    return Functional(density)


def z2():
    return model(groups.cyclic(2))


# ---------------------------------------------------------------- pentagon

def dense_pentagon_oracle(w, n):
    """Largest entry of W12 W13 W23 - W23 W12: the engine's exact block
    kernel read in full, n^8 work in n^4 memory (checked against leg
    embeddings and a leg-by-leg contraction below)."""
    return max(engine._pentagon_blocks(MultiplicativeUnitary.from_dense(w)))


def assert_bounds_the_oracle(w):
    """The pentagon fails wherever the n^8 oracle exceeds DENSE_W_TOL.  On
    the coefficient route (M spans at most n elements) it reads at least the
    oracle; on the block route (more than n) it reads the oracle's worst
    entry over the blocks it read, all of them unless it stopped at one
    above DENSE_W_TOL."""
    n = round(np.sqrt(w.shape[0]))
    mu = MultiplicativeUnitary.from_dense(w)
    oracle = dense_pentagon_oracle(w, n)
    report = check_pentagon(mu)
    if slice_span_m(mu).shape[0] > n:
        assert report.deviation == oracle or oracle >= report.deviation > engine.DENSE_W_TOL
    else:
        assert report.deviation >= oracle
    if oracle > engine.DENSE_W_TOL:
        assert not report.passed
    return report, oracle


def test_pentagon_identity_passes():
    # the dense route spans M by an SVD, so it reads the identity at rounding
    report = check_pentagon(MultiplicativeUnitary.from_dense(np.eye(4)))
    assert report.passed and report.deviation < 1e-15


def test_pentagon_group_w_exact():
    report = check_pentagon(z2().qg.mu)
    assert report.passed and report.deviation == 0.0 and report.tolerance == 0.0


def test_pentagon_flipped_w_fails_dense():
    w = flip(2) @ z2().qg.w
    # brute-force triple product via Kronecker embeddings
    w12 = kron(w, np.eye(2))
    w23 = kron(np.eye(2), w)
    swap23 = kron(np.eye(2), flip(2))
    w13 = swap23 @ w12 @ swap23
    brute = np.max(np.abs(w12 @ w13 @ w23 - w23 @ w12))
    assert brute >= 1.0
    report = check_pentagon(MultiplicativeUnitary.from_dense(w))
    assert not report.passed and report.deviation >= 1.0


def test_pentagon_flipped_w_fails_structured():
    g = groups.cyclic(2)
    sig = g.mult
    tau = np.broadcast_to(np.arange(2)[:, None], (2, 2)).copy()
    report = check_pentagon(MultiplicativeUnitary.from_permutation(sig, tau))
    assert not report.passed and report.deviation == 1.0


def test_pentagon_structured_matches_dense_for_builtins():
    for g in [groups.cyclic(5), groups.dihedral(3), groups.symmetric(3)]:
        mu = model(g).qg.mu
        assert check_pentagon(mu).passed
        assert check_pentagon(MultiplicativeUnitary.from_dense(mu.dense)).passed


@pytest.mark.parametrize("spec", suite_snapshot.GROUP_SPECS)
def test_snapshot_models_pass_both_pentagon_routes(spec):
    # the exact route on the model's permutation W, the coefficient route on
    # its dense copy
    mu = model(parse_group_spec(spec)).qg.mu
    exact = check_pentagon(mu)
    assert exact.deviation == 0.0 and exact.note == "exact"
    dense = check_pentagon(MultiplicativeUnitary.from_dense(mu.dense))
    assert dense.passed and dense.tolerance == engine.DENSE_W_TOL


def test_suite_passes_dense_transported_dihedral8():
    # n = 16, a snapshot source past the n <= 12 the n^8 pentagon allowed
    report = run_suite(suite_snapshot.transported("dihedral:8", 8), seed=7)
    assert report.passed and report.model == "unitary:16"


def test_dense_pentagon_has_no_dimension_cap():
    # n = 13 has no n^8 kernel to refuse it
    mu = MultiplicativeUnitary.from_dense(model(groups.cyclic(13)).qg.w)
    assert check_pentagon(mu).passed
    phased = np.array(mu.dense)
    phased[:, 5] *= np.exp(0.3j)
    assert not check_pentagon(MultiplicativeUnitary.from_dense(phased)).passed


def random_unitary(rng, dim):
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, _ = np.linalg.qr(z)
    return q


@pytest.mark.parametrize("n", [2, 3, 4])
def test_dense_pentagon_deviation_matches_leg_embeddings(n):
    # a random unitary violates the pentagon by O(1) in scattered entries;
    # the oracle reports the embedded product's worst entry, and the check,
    # whose M spans n^2 > n elements, an entry of it above DENSE_W_TOL
    w = random_unitary(np.random.default_rng(100 + n), n * n)
    brute = np.max(np.abs(leg_embed(w, 12, n) @ leg_embed(w, 13, n) @ leg_embed(w, 23, n)
                          - leg_embed(w, 23, n) @ leg_embed(w, 12, n)))
    report, oracle = assert_bounds_the_oracle(w)
    assert not report.passed
    assert oracle == pytest.approx(brute, abs=1e-13)


def test_dense_pentagon_memory_at_dimension_cap():
    # the three n^3 x n^3 leg embeddings at n = 12 alone take 143 MB
    n = 12
    sigma = flip(n)
    mu = MultiplicativeUnitary.from_dense(sigma @ model(groups.cyclic(n)).qg.w.conj().T @ sigma)
    tracemalloc.start()
    try:
        report = check_pentagon(mu)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.passed
    assert peak < 64 * 2 ** 20


def transported_dihedral6():
    """(u (x) u) W (u (x) u)^* for dihedral:6 (n = 12) and a seeded random u."""
    u = random_unitary(np.random.default_rng(6), 12)
    uu = kron(u, u)
    return uu @ model(groups.dihedral(6)).qg.w @ uu.conj().T


@pytest.mark.parametrize("label", ["transported-dihedral6", "dual-cyclic12"])
def test_dense_pentagon_memory_stays_at_n4_blocks(label):
    # W, T and one comultiplication block take n^4 entries each, 0.3 MiB at
    # n = 12; one n^5 block alone is 3.8 MiB
    sigma = flip(12)
    w = transported_dihedral6() if label == "transported-dihedral6" else \
        sigma @ model(groups.cyclic(12)).qg.w.conj().T @ sigma
    mu = MultiplicativeUnitary.from_dense(w)
    tracemalloc.start()
    try:
        report = check_pentagon(mu)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.passed
    assert peak < 6 * 2 ** 20


def chunked_pentagon_deviation(w, n):
    """W12 W13 W23 - W23 W12 contracted leg by leg, one n^5 block
    [:, :, :, x, :, :] per first output leg x."""
    w4 = w.reshape(n, n, n, n)
    dev = 0.0
    for x in range(n):
        wx = w4[:, :, x, :]
        w13w23 = np.tensordot(wx, w4, axes=([2], [1])).transpose(0, 2, 1, 3, 4)
        lhs = (w @ w13w23.reshape(n * n, n ** 3)).reshape(n, n, n, n, n)
        rhs = np.tensordot(wx, w4, axes=([1], [2])).transpose(0, 2, 3, 1, 4)
        dev = max(dev, np.max(np.abs(lhs - rhs)))
    return float(dev)


def test_dense_pentagon_matches_chunked_contraction_at_dimension_cap():
    # a phased column breaks the pentagon by about 0.05 at n = 12, beyond the
    # reach of the brute-force leg embeddings; its M spans 24 > n elements
    w = transported_dihedral6()
    w[:, 5] *= np.exp(0.3j)
    report, oracle = assert_bounds_the_oracle(w)
    assert not report.passed and report.deviation > 1e-2
    assert oracle == pytest.approx(chunked_pentagon_deviation(w, 12), abs=1e-13)


def corrupted_family(w, rng, hermitians):
    """W exp(i eps H) at eps = 1e-14 ... 1e-3 for each of `hermitians` seeded
    Hermitian H, then W with its column 5 phased, and W times diagonal phases
    on leg 1 and on leg 2."""
    n2 = w.shape[0]
    n = round(np.sqrt(n2))
    hs = [h + h.conj().T for h in (random_unitary(rng, n2) for _ in range(hermitians))]
    for eps in 10.0 ** np.arange(-14, -2):
        for h in hs:
            vals, vecs = np.linalg.eigh(h)
            yield w @ ((vecs * np.exp(1j * eps * vals)) @ vecs.conj().T)
    phased = np.array(w)
    phased[:, 5] *= np.exp(0.3j)
    yield phased
    phases = np.diag(np.exp(0.3j * rng.standard_normal(n)))
    yield w @ np.kron(phases, np.eye(n))
    yield w @ np.kron(np.eye(n), phases)


@pytest.mark.parametrize("label, hermitians", [
    ("transported-dihedral3", 3), ("transported-dihedral6", 1), ("dual-cyclic12", 1)])
def test_dense_pentagon_fails_every_corruption_the_oracle_fails(label, hermitians):
    # the full family on n = 6; one H per decade on the two verify-dense
    # unitaries (workload seed 11), where each oracle call does n^8 = 4e8 work
    if label == "transported-dihedral3":
        w = transported_dihedral3()
    else:
        w = dict(suite_snapshot.dense_unitaries(11))[label]
        clean, _ = assert_bounds_the_oracle(w)
        assert clean.deviation <= 3e-2 * engine.DENSE_W_TOL
    oracles = [assert_bounds_the_oracle(corrupted)[1]
               for corrupted in corrupted_family(w, np.random.default_rng(26), hermitians)]
    # the oracle itself fails every eps from 1e-11 up and the three phasings
    assert sum(oracle > engine.DENSE_W_TOL for oracle in oracles) >= 9 * hermitians + 3


def failing_w(label):
    if label == "random":
        return random_unitary(np.random.default_rng(12), 144)
    w = transported_dihedral6()
    w[:, 5] *= np.exp(0.3j)
    return w


@pytest.mark.parametrize("label", ["random", "phased-transported-dihedral6"])
def test_failing_dense_pentagon_stops_at_its_first_failing_block(label, monkeypatch):
    # their M spans 144 and 24 > n = 12 elements, where D would take m^3
    # memory: no D is built, W12 W13 W23 - W23 W12 is read one n^4 block at a
    # time, and the first block already fails
    def refuse(*args):
        raise AssertionError("built D or rho_delta")

    monkeypatch.setattr(engine, "comult_coeff_tensor", refuse)
    blocks, kernel = [], engine._pentagon_blocks
    monkeypatch.setattr(engine, "_pentagon_blocks",
                        lambda mu: (blocks.append(dev) or dev for dev in kernel(mu)))
    mu = MultiplicativeUnitary.from_dense(failing_w(label))
    tracemalloc.start()
    try:
        report = check_pentagon(mu)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert not report.passed and report.deviation == blocks[0] and len(blocks) == 1
    assert report.note.startswith("M spans")
    assert peak < 6 * 2 ** 20
    with pytest.raises(ValueError, match="pentagon"):
        pair_from_unitary(mu)


@pytest.mark.parametrize("sig, tau", [
    ([[0, 0], [1, 1]], [[0, -1], [0, 1]]),  # would wrap into the last row
    ([[0, 0], [1, 1]], [[0, 2], [1, 0]]),   # would land on another basis vector
    ([[0, 2], [1, 1]], [[0, 1], [0, 1]]),
])
def test_from_permutation_rejects_out_of_range_entries(sig, tau):
    with pytest.raises(ValueError, match="lie in"):
        MultiplicativeUnitary.from_permutation(sig, tau)


def test_unitarity_deviation():
    assert z2().qg.mu.unitarity_deviation() == 0.0
    bad = MultiplicativeUnitary.from_dense(np.eye(4) * 2.0)
    assert bad.unitarity_deviation() > 1.0


# ----------------------------------------------------- algebra generation

@pytest.mark.parametrize("n", [2, 3])
def test_slice_families_match_single_slice_kernel(n):
    # the batched families are gathers of W; entry i*n + j must be the slice
    # by the matrix unit E_ij through the one single-functional kernel
    rng = np.random.default_rng(40 + n)
    w = rng.standard_normal((n * n, n * n)) + 1j * rng.standard_normal((n * n, n * n))
    leg1, leg2 = slice_family(w, n, 1), slice_family(w, n, 2)
    for i in range(n):
        for j in range(n):
            unit = matrix_unit_functional(n, i, j)
            np.testing.assert_array_equal(leg1[i * n + j], slice_left(unit, w))
            np.testing.assert_array_equal(leg2[i * n + j], slice_right(unit, w))


def test_generate_z2_spans():
    qg = z2().qg
    m = slice_span_m(qg.mu)
    assert m.shape[0] == 2
    assert algebra_closure_deviation(m) <= 1e-10
    diagonals = span_basis([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])])
    assert subspace_equal(m, diagonals) <= 1e-10

    mhat = slice_span_mhat(qg.mu)
    assert mhat.shape[0] == 2
    assert algebra_closure_deviation(mhat) <= 1e-10
    swap = np.array([[0.0, 1.0], [1.0, 0.0]])
    group_algebra = span_basis([np.eye(2), swap])
    assert subspace_equal(mhat, group_algebra) <= 1e-10


def snapshot_unitaries():
    """(label, W) for every `tools/suite_snapshot.py` source and its dual."""
    with tempfile.TemporaryDirectory() as tmp:
        seen = set()
        for name, _, source in suite_snapshot.sources(Path(tmp)):
            mu = source.qg.mu if isinstance(source, models.GroupModel) else \
                source.mu if isinstance(source, QuantumGroupPair) else \
                MultiplicativeUnitary.from_dense(np.asarray(source))
            if name not in seen:
                seen.add(name)
                yield from ((name, mu), (f"{name}/dual", mu.dual))


def test_one_svd_spans_mhat_on_every_snapshot_source():
    # Mhat from U of the leg-2 family's SVD is an orthonormal basis of the
    # leg-1 family's span, with the rank of M
    for label, mu in snapshot_unitaries():
        m, mhat = slice_spans(mu)
        leg1 = span_basis(slice_family(mu.dense, mu.n, 1))
        assert subspace_equal(mhat, leg1) <= 1e-14, label
        gram = flat_rows(mhat) @ flat_rows(mhat).conj().T
        assert deviation(gram, np.eye(len(mhat))) <= 1e-14, label
        assert len(mhat) == len(m) == len(leg1), label


def count_svds(monkeypatch) -> list:
    """The shapes of every later np.linalg.svd call."""
    shapes, svd = [], np.linalg.svd

    def counted(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return svd(a, *args, **kwargs)
    monkeypatch.setattr(np.linalg, "svd", counted)
    return shapes


@pytest.mark.parametrize("spec", suite_snapshot.GROUP_SPECS)
def test_a_permutation_w_spans_its_slices_exactly(spec, monkeypatch):
    # every group model and its dual: an orthonormal indicator basis of each
    # algebra, in the index layout, read from the index maps with no SVD and
    # no dense W, spanning what the SVD of the dense family spans
    qg = model(parse_group_spec(spec)).qg
    for pair in (qg, qg.dual):
        mu = MultiplicativeUnitary.from_permutation(*pair.mu.perm)
        svds = count_svds(monkeypatch)
        spans = slice_spans(mu)
        assert svds == [] and mu._dense is None, spec
        monkeypatch.undo()
        svd_spans = slice_spans(MultiplicativeUnitary.from_dense(mu.dense))
        for basis, svd_basis in zip(spans, svd_spans):
            assert linalg.SpanKernel(basis).layout == "index", spec
            gram = flat_rows(basis) @ flat_rows(basis).conj().T
            assert deviation(gram, np.eye(len(basis))) <= 1e-15, spec
            assert len(basis) == len(svd_basis) == qg.n, spec
            assert subspace_equal(basis, svd_basis) <= 1e-14, spec
        assert pair_deviation(pair, pair_from_unitary(mu)) <= 1e-14, spec


def test_a_permutation_w_with_overlapping_slices_keeps_the_svd(monkeypatch):
    # a random bijection of basis pairs: two distinct leg-2 slices share an
    # entry, so no indicator basis is orthonormal and the one SVD runs
    n = 3
    sig, tau = np.divmod(np.random.default_rng(3).permutation(n * n).reshape(n, n), n)
    mu = MultiplicativeUnitary.from_permutation(sig, tau)
    assert engine._indicator_basis(tau.T, sig.T, linalg.DEFAULT_TOL) is None
    svds = count_svds(monkeypatch)
    spans = slice_spans(mu)
    assert svds == [(n * n, n * n)]
    for basis, svd_basis in zip(spans, slice_spans(MultiplicativeUnitary.from_dense(mu.dense))):
        assert np.array_equal(basis, svd_basis)


def test_the_exact_spans_keep_the_rank_rule():
    # a cutoff above a singular value sqrt(copies * size) of the family sends
    # the span to the SVD, which drops the same directions
    mu = model(groups.cyclic(3)).qg.mu            # every slice value has sqrt(3)
    assert [len(b) for b in slice_spans(mu, tol=1.7)] == [3, 3]
    assert [len(b) for b in slice_spans(mu, tol=1.8)] == [0, 0]


def test_dense_spans_sit_at_the_rounding_floor():
    # the singular vectors' part off the span moves tenfold with the transport
    # (W's residual on them ran 3e-16 to 2.8e-15 on these seeds); after the
    # refinement step it stays at the floor, on orthonormal bases of the
    # families' spans
    for seed in range(8):
        w = suite_snapshot.transported("dihedral:6", seed)
        n, n2 = 12, 144
        m, mhat = slice_spans(MultiplicativeUnitary.from_dense(w))
        t = np.ascontiguousarray(w.reshape(n, n, n, n).transpose(0, 2, 1, 3)).reshape(n2, n2)
        rows = flat_rows(m)
        assert np.abs(t - rows.T @ (rows.conj() @ t)).max() <= 6e-16, seed
        for basis, leg in ((m, 2), (mhat, 1)):
            gram = flat_rows(basis) @ flat_rows(basis).conj().T
            assert deviation(gram, np.eye(n)) <= 1e-14, seed
            assert subspace_equal(basis, span_basis(slice_family(w, n, leg))) <= 1e-14, seed


def test_a_dense_permutation_matrix_takes_the_refinement_step():
    # the dense route on a group W refines the SVD's vectors like any other
    # W's: orthonormal bases of the same spans, no longer the vectors' bits
    w = model(groups.symmetric(3)).qg.w
    family = slice_family(w, 6, 2).reshape(36, 36)
    u, _, vh = np.linalg.svd(family, full_matrices=False)
    m, mhat = slice_spans(MultiplicativeUnitary.from_dense(w))
    svd_m, svd_mhat = vh[:6].reshape(6, 6, 6), u[:, :6].T.reshape(6, 6, 6).transpose(0, 2, 1)
    assert not np.array_equal(m, svd_m)
    for basis, svd_basis in ((m, svd_m), (mhat, svd_mhat)):
        assert deviation(flat_rows(basis) @ flat_rows(basis).conj().T, np.eye(6)) <= 1e-14
        assert subspace_equal(basis, svd_basis) <= 1e-14


def test_generate_identity_w_gives_scalars():
    mu = MultiplicativeUnitary.from_dense(np.eye(9))
    for span in (slice_span_m(mu), slice_span_mhat(mu)):
        assert span.shape[0] == 1
        assert algebra_closure_deviation(span) <= 1e-10


def test_generate_span_dims_equal_group_order():
    for g in [groups.cyclic(4), groups.symmetric(3)]:
        qg = model(g).qg
        assert slice_span_m(qg.mu).shape[0] == g.order
        assert slice_span_mhat(qg.mu).shape[0] == g.order


def test_closure_failure_on_crafted_slices():
    # a crafted (non-unitary) operator whose leg-2 slices span {E01, E10},
    # which is adjoint-closed but not closed under products
    n = 2
    e01 = np.zeros((n, n)); e01[0, 1] = 1.0
    e10 = np.zeros((n, n)); e10[1, 0] = 1.0
    slices = {(0, 0): e01, (0, 1): e10, (1, 0): e10, (1, 1): e01}
    w4 = np.zeros((n, n, n, n), dtype=complex)
    for (k, l), mat in slices.items():
        for i in range(n):
            for j in range(n):
                w4[i, l, j, k] = mat[i, j]
    mu = MultiplicativeUnitary.from_dense(w4.reshape(n * n, n * n))
    assert algebra_closure_deviation(slice_span_m(mu)) > 1e-10
    # the pentagon makes the slice spaces algebras, so the derivation stops
    # at its first stage; past a pentagon taken as passed, it stops at closure
    stages = []
    assert derive_pair(mu, lambda stage, fn: stages.append(fn()) or stages[-1].passed) is None
    assert [(c.name, c.passed) for c in stages] == [("pentagon", False)]
    stages.clear()
    assert derive_pair(mu, lambda stage, fn: stages.append(fn())
                       or stages[-1].passed or stage == "pentagon") is None
    assert [(c.name, c.passed) for c in stages] == [("pentagon", False),
                                                    ("algebra-generation", False)]


# ------------------------------------------------------- comultiplications

def test_comultiply_unital():
    qg = z2().qg
    np.testing.assert_allclose(comultiply(qg.mu, np.eye(2)), np.eye(4), atol=1e-14)


def test_comultiply_z2_diagonal_rule():
    qg = z2().qg
    a = np.array([2.0, 5.0])
    out = comultiply(qg.mu, np.diag(a))
    expected = np.diag([a[(x + y) % 2] for x in range(2) for y in range(2)])
    np.testing.assert_allclose(out, expected, atol=1e-14)


def test_comultiply_z3_diagonal_unit():
    qg = model(groups.cyclic(3)).qg
    e00 = np.zeros((3, 3)); e00[0, 0] = 1.0
    out = comultiply(qg.mu, e00)
    expected = np.zeros((9, 9))
    for x in range(3):
        y = (3 - x) % 3  # x + y = 0 mod 3
        expected[x * 3 + y, x * 3 + y] = 1.0
    np.testing.assert_allclose(out, expected, atol=1e-14)


def test_dual_comultiply_unital():
    qg = z2().qg
    np.testing.assert_allclose(dual_comultiply(qg.mu, np.eye(2)), np.eye(4), atol=1e-14)


def test_dual_comultiply_swap():
    qg = z2().qg
    swap = np.array([[0.0, 1.0], [1.0, 0.0]])
    np.testing.assert_allclose(dual_comultiply(qg.mu, swap), kron(swap, swap), atol=1e-14)


def test_comultiplications_match_kron_flip_formulas():
    rng = np.random.default_rng(7)
    mdl = model(groups.dihedral(3))
    n = 6
    u = random_unitary(rng, n)
    uu = kron(u, u)
    mu = MultiplicativeUnitary.from_dense(uu @ mdl.qg.w @ uu.conj().T)
    w, eye, sigma = mu.dense, np.eye(n), flip(n)
    for _ in range(3):
        x = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        np.testing.assert_allclose(comultiply(mu, x), w.conj().T @ kron(eye, x) @ w,
                                   rtol=0, atol=1e-13)
        np.testing.assert_allclose(dual_comultiply(mu, x),
                                   sigma @ w @ kron(x, eye) @ w.conj().T @ sigma,
                                   rtol=0, atol=1e-13)


@pytest.mark.parametrize("spec", ["dihedral:3", "product:cyclic:2xcyclic:3"])
def test_permutation_comultiplications_match_kron_flip_formulas_exactly(spec):
    # the gather on a permutation W is exact: one nonzero term per entry
    rng = np.random.default_rng(7)
    mu = model(parse_group_spec(spec)).qg.mu
    assert mu.is_permutation
    n = mu.n
    w, eye, sigma = mu.dense, np.eye(n), flip(n)
    for _ in range(3):
        x = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        np.testing.assert_array_equal(comultiply(mu, x), w.conj().T @ kron(eye, x) @ w)
        np.testing.assert_array_equal(dual_comultiply(mu, x),
                                      sigma @ w @ kron(x, eye) @ w.conj().T @ sigma)


def test_dual_comultiply_group_algebra_rule():
    g = groups.symmetric(3)
    mdl = model(g)
    b = RNG.standard_normal(6) + 1j * RNG.standard_normal(6)
    out = dual_comultiply(mdl.qg.mu, models.L(mdl, b))
    expected = np.zeros((36, 36), dtype=complex)
    for t in range(6):
        delta_t = np.zeros(6); delta_t[t] = 1.0
        lt = models.L(mdl, delta_t)
        expected += b[t] * kron(lt, lt)
    np.testing.assert_allclose(out, expected, atol=1e-12)


def test_coassociativity_on_models():
    for g in [groups.cyclic(2), groups.cyclic(6), groups.symmetric(3)]:
        qg = model(g).qg
        primal = check_coassociativity(qg)
        dual = check_coassociativity(qg.dual)
        assert primal.passed and primal.deviation <= 1e-12
        assert dual.passed and dual.deviation <= 1e-12


def test_coassociativity_coefficient_route_matches_dense():
    # the dense tensor-cube identity, cross-validating the coefficient route
    qg = model(groups.cyclic(3)).qg
    n = 3
    for x in qg.m_basis:
        dx = comultiply(qg.mu, x)
        w12 = kron(qg.w, np.eye(n))
        lhs = w12.conj().T @ kron(np.eye(n), dx) @ w12
        w23 = kron(np.eye(n), qg.w)
        swap23 = kron(np.eye(n), flip(n))
        embed13 = swap23 @ kron(dx, np.eye(n)) @ swap23
        rhs = w23.conj().T @ embed13 @ w23
        np.testing.assert_allclose(lhs, rhs, atol=1e-12)


def einsum_coeff_tensor(mu, basis):
    """comult_coeff_tensor written as two einsum contractions per element."""
    m, n = basis.shape[0], basis.shape[1]
    coeffs = np.zeros((m, m, m), dtype=complex)
    residual = 0.0
    for i in range(m):
        t4 = comultiply(mu, basis[i]).reshape(n, n, n, n)
        c = np.einsum("kac,lbd,abcd->kl", basis.conj(), basis.conj(), t4, optimize=True)
        recon = np.einsum("kl,kac,lbd->abcd", c, basis, basis, optimize=True)
        residual = max(residual, np.max(np.abs(t4 - recon)))
        coeffs[:, :, i] = c
    return coeffs, float(residual)


@pytest.mark.parametrize("side", ["pair", "dual", "dropped"])
@pytest.mark.parametrize("label", ["s3", "dihedral:3", "transported-dihedral3"])
def test_coeff_tensor_matches_einsum_formulas(label, side):
    # "dropped" leaves one M-basis element out, so comult leaves span (x) span
    qg = pair_from_unitary(transported_dihedral3()) if label.startswith("transported") \
        else model(parse_group_spec(label)).qg
    qg = qg.dual if side == "dual" else qg
    basis = qg.m_basis[:-1] if side == "dropped" else qg.m_basis
    coeffs, residual = comult_coeff_tensor(qg.mu, basis)
    want_coeffs, want_residual = einsum_coeff_tensor(qg.mu, basis)
    assert np.max(np.abs(coeffs - want_coeffs)) <= 1e-13
    assert residual == pytest.approx(want_residual, abs=1e-13)
    assert (residual > 0.1) == (side == "dropped")


def two_pass_coeff_tensor(mu, basis):
    """The dense route as two passes, each forming every delta(x_i) through
    `comultiply`: D by (conj(B) @ T) @ conj(B)^T, then rho_delta by
    B^T @ (D[:, :, i] @ B) - T, n rows at a time."""
    m, n = basis.shape[0], mu.n
    flat = basis.reshape(m, -1)

    def blocks():
        for x in basis:
            yield np.ascontiguousarray(
                comultiply(mu, x).reshape(n, n, n, n).transpose(0, 2, 1, 3)).reshape(n * n, n * n)

    coeffs = np.empty((m, m, m), dtype=complex)
    for i, t in enumerate(blocks()):
        coeffs[:, :, i] = (flat.conj() @ t) @ flat.conj().T
    residual = 0.0
    for i, t in enumerate(blocks()):
        cb = coeffs[:, :, i] @ flat
        for r in range(0, n * n, n):
            residual = max(residual, float(np.abs(flat.T[r:r + n] @ cb - t[r:r + n]).max()))
    return coeffs, residual


@pytest.mark.parametrize("label", ["transported-dihedral3", "transported-dihedral6",
                                   "dual-cyclic12"])
def test_dense_coefficient_pass_equals_the_two_pass_route(label):
    # one pass forms each delta(x_i) once and reads D and rho_delta from it,
    # with the arithmetic of the two passes it replaces, so both are equal
    # bit for bit and the dense pentagon deviations do not move; the residual
    # is read in one n^4 block per element, and the reference's blocks of n
    # rows give the same entries
    w = transported_dihedral3() if label == "transported-dihedral3" else \
        dict(suite_snapshot.dense_unitaries(11))[label]
    qg = pair_from_unitary(w)
    for pair in (qg, qg.dual):
        coeffs, residual = comult_coeff_tensor(pair.mu, pair.m_basis)
        want_coeffs, want_residual = two_pass_coeff_tensor(pair.mu, pair.m_basis)
        assert np.array_equal(coeffs, want_coeffs) and residual == want_residual
        assert np.array_equal(pair.delta_coeffs, coeffs) and pair.delta_residual == residual


def rotated(basis, seed):
    """The basis rotated by a seeded random m x m unitary: another orthonormal
    basis of the same span, with dense elements."""
    m = basis.shape[0]
    u = random_unitary(np.random.default_rng(seed), m)
    return (u @ basis.reshape(m, -1)).reshape(basis.shape)


def spy_index_route(monkeypatch) -> list:
    """The bases that `comult_coeff_tensor` sends to the index route."""
    calls, kernel = [], engine._indexed_coeff_tensor
    monkeypatch.setattr(engine, "_indexed_coeff_tensor",
                        lambda mu, span: calls.append(span) or kernel(mu, span))
    return calls


def assert_matches_the_dense_route(mu, basis, got):
    """got = (D, rho_delta) of the permutation W mu agrees with the dense
    route on mu's dense W within 1e-13."""
    want_coeffs, want_residual = comult_coeff_tensor(MultiplicativeUnitary.from_dense(mu.dense),
                                                     basis)
    assert np.max(np.abs(got[0] - want_coeffs), initial=0.0) <= 1e-13
    assert abs(got[1] - want_residual) <= 1e-13


@pytest.mark.parametrize("kind", ["exact", "rotated", "dropped", "rotated-dropped"])
@pytest.mark.parametrize("side", ["pair", "dual"])
@pytest.mark.parametrize("spec", ["dihedral:6", "s4"])
def test_permutation_coeff_tensor_matches_the_dense_route(spec, side, kind, monkeypatch):
    # an indicator basis takes the index route and agrees with the dense
    # route on the dense W; a rotated basis takes the dense route itself, on
    # delta(x) gathered from the index maps, and its D is the exact basis's D
    # carried over by the rotation u: x'_k = sum_j u[k, j] x_j
    qg = model(parse_group_spec(spec)).qg
    qg = qg.dual if side == "dual" else qg
    basis = rotated(qg.m_basis, 3) if kind.startswith("rotated") else qg.m_basis
    basis = basis[:-1] if kind.endswith("dropped") else basis
    routes = spy_index_route(monkeypatch)
    coeffs, residual = comult_coeff_tensor(qg.mu, basis)
    assert len(routes) == (0 if kind.startswith("rotated") else 1)
    if kind.startswith("rotated"):
        m = qg.m_basis.shape[0]
        u = basis.reshape(len(basis), -1) @ qg.m_basis.reshape(m, -1).conj().T
        exact = qg.delta_coeffs
        carried = np.einsum("ia,kb,lc,bca->kli", u, u.conj(), u.conj(), exact, optimize=True)
        assert np.max(np.abs(coeffs - carried)) <= 1e-13
        assert qg.mu._dense is None
    else:
        assert_matches_the_dense_route(qg.mu, basis, (coeffs, residual))
    # delta(L_g) = L_g (x) L_g on the dual's exact basis, so dropping one of
    # its elements leaves the others inside span (x) span
    leaves_span = kind == "rotated-dropped" or (kind == "dropped" and side == "pair")
    assert (residual > 0.01) == leaves_span
    assert (residual == 0.0) == (kind == "exact" or (kind == "dropped" and side == "dual"))


def coarsened(basis, seed):
    """Consecutive pairs of basis elements, summed, normalised and each
    turned by a seeded phase: an indicator basis with complex constants whose
    span delta leaves, so blocks S_k x S_l are partly filled."""
    m = basis.shape[0] // 2 * 2
    pairs = (basis[0:m:2] + basis[1:m:2]) / np.sqrt(2)
    return pairs * np.exp(2j * np.pi * np.random.default_rng(seed).random(len(pairs)))[:, None, None]


@pytest.mark.parametrize("spec", [spec for spec in suite_snapshot.GROUP_SPECS
                                  if spec not in ("dihedral:6", "s4")])
def test_index_route_matches_the_dense_route_on_every_group_model(spec, monkeypatch):
    # dihedral:6 and s4 are the exact and dropped rows of the test above
    qg = model(parse_group_spec(spec)).qg
    routes = spy_index_route(monkeypatch)
    for pair in (qg, qg.dual):
        exact = comult_coeff_tensor(pair.mu, pair.m_basis)
        assert_matches_the_dense_route(pair.mu, pair.m_basis, exact)
        assert exact[1] == 0.0
        for basis in (pair.m_basis[:-1], coarsened(pair.m_basis, 5)):
            assert_matches_the_dense_route(pair.mu, basis, comult_coeff_tensor(pair.mu, basis))
    assert len(routes) == (6 if qg.n > 1 else 2)    # an empty basis returns first


@pytest.mark.parametrize("seed", range(6))
def test_index_route_matches_the_dense_route_on_random_permutations(seed, monkeypatch):
    # any bijection of basis pairs, not only a group's, and random indicator
    # bases with complex constants, covering the n^2 entries in full or in
    # part, so blocks are empty, partly or fully filled
    rng = np.random.default_rng(seed)
    n = 4
    sig, tau = np.divmod(rng.permutation(n * n).reshape(n, n), n)
    mu = MultiplicativeUnitary.from_permutation(sig, tau)
    routes = spy_index_route(monkeypatch)
    for m, s in ((16, 1), (8, 2), (4, 4), (5, 3), (3, 2)):
        support = rng.permutation(n * n)[:m * s].reshape(m, s)
        basis = np.zeros((m, n * n), dtype=complex)
        phases = np.exp(2j * np.pi * rng.random(m)) / np.sqrt(s)
        basis[np.arange(m)[:, None], support] = phases[:, None]
        basis = basis.reshape(m, n, n)
        assert_matches_the_dense_route(mu, basis, comult_coeff_tensor(mu, basis))
    assert len(routes) == 5


def test_index_route_reads_the_empty_entry_of_a_block_more_than_half_full():
    # on this non-bijective map delta(x) fills 3 of the 4 entries of its one
    # block, so the largest residual is the block mean at the empty entry
    mu = MultiplicativeUnitary.from_permutation([[0, 1], [0, 0]], [[0, 1], [1, 1]])
    basis = np.array([[[1.0, 1.0], [0.0, 0.0]]]) / np.sqrt(2)
    got = comult_coeff_tensor(mu, basis)
    assert got[1] == pytest.approx(0.75 / np.sqrt(2), abs=1e-15)
    assert_matches_the_dense_route(mu, basis, got)


def permutation_and_dense(spec):
    mu = model(parse_group_spec(spec)).qg.mu
    return [mu, MultiplicativeUnitary.from_dense(mu.dense)]


@pytest.mark.parametrize("route", [0, 1], ids=["permutation", "dense"])
def test_coeff_tensor_of_an_empty_basis(route):
    mu = permutation_and_dense("s3")[route]
    for basis in (np.zeros((0, 6, 6), dtype=complex), np.zeros((0, 0, 0), dtype=complex)):
        coeffs, residual = comult_coeff_tensor(mu, basis)
        assert coeffs.shape == (0, 0, 0) and residual == 0.0


@pytest.mark.parametrize("route", [0, 1], ids=["permutation", "dense"])
def test_coeff_tensor_rejects_a_basis_of_another_leg_dimension(route):
    mu = permutation_and_dense("s3")[route]
    with pytest.raises(ValueError):
        comult_coeff_tensor(mu, np.eye(5, dtype=complex)[None])


@pytest.mark.parametrize("side", ["pair", "dual"])
def test_permutation_coeff_tensor_memory_peak_on_s4(side):
    # s4's indicator bases take the index route; the dense route holds two
    # n^4 operators per element, 11.3 MiB at n = 24
    qg = model(groups.symmetric(4)).qg
    pair = qg.dual if side == "dual" else qg

    def traced(call):
        tracemalloc.start()
        try:
            result = call()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 10 * 2 ** 20
        return result

    traced(lambda: comult_coeff_tensor(pair.mu, pair.m_basis))


def test_coeff_tensors_of_a_permutation_w_build_no_dense_w():
    qg = model(groups.symmetric(4)).qg
    qg.delta_coeffs, qg.dual.delta_coeffs, qg.delta_residual, qg.dual.delta_residual
    assert qg.mu._dense is None and qg.mu.dual._dense is None


def test_transform_ops_of_a_permutation_w_build_no_dense_w():
    rng = np.random.default_rng(4)
    for group in (groups.symmetric(4), groups.dihedral(3)):
        qg = model(group).qg
        for _ in range(2):
            a, c = (qg.span.reconstruct(linalg.random_complex(rng, qg.span.dim))
                    for _ in range(2))
            b, d = (qg.dual.span.reconstruct(linalg.random_complex(rng, qg.dual.span.dim))
                    for _ in range(2))
            ft.fourier(qg, a), ft.inverse_fourier(qg, b), ft.pairing(qg, b, a)
            ft.convolve(qg, a, c), ft.convolve_direct(qg, a, c)
            ft.convolve_dual(qg, b, d), ft.convolve_dual_direct(qg, b, d)
        assert qg.mu._dense is None and qg.mu.dual._dense is None


def group_sides():
    for spec in suite_snapshot.GROUP_SPECS:
        qg = model(parse_group_spec(spec)).qg
        yield from ((spec, qg), (f"{spec}/dual", qg.dual))


def test_leg1_contraction_of_a_permutation_w_equals_the_dense_tensordot():
    rng = np.random.default_rng(6)
    for label, qg in group_sides():
        n = qg.n
        w4 = qg.mu.dense.reshape(n, n, n, n)
        for v in (qg.phi.xi.conj(), linalg.random_complex(rng, (n,))):
            got = leg1_contraction(qg.mu, v)
            assert np.array_equal(got, np.tensordot(v, w4, axes=(0, 0))), label


def test_tables_of_a_permutation_w_equal_those_of_its_dense_w():
    for label, qg in group_sides():
        dense = QuantumGroupPair(MultiplicativeUnitary.from_dense(qg.mu.dense), qg.m_basis,
                                 qg.mhat_basis, qg.phi, qg.phihat, qg.s_mat, qg.shat_mat)
        assert np.array_equal(qg.fourier_table, dense.fourier_table), label
        assert np.array_equal(qg.pairing_table, dense.pairing_table), label


def test_one_coefficient_pass_per_side_per_pair(monkeypatch):
    # D and rho_delta come from one comult_coeff_tensor call per side, cached
    # as the pair's `comult`: the dense W's pentagon hands its M side on, and
    # the transforms, the residual and the checks all read that one call
    calls = []
    kernel = engine.comult_coeff_tensor
    monkeypatch.setattr(engine, "comult_coeff_tensor",
                        lambda mu, basis: calls.append(mu) or kernel(mu, basis))
    rng = np.random.default_rng(9)
    pairs = model(groups.symmetric(4)).qg, pair_from_unitary(transported_dihedral3())
    assert calls == [pairs[1].mu]                           # the dense W's pentagon
    for qg in pairs:
        a, c = (qg.span.reconstruct(linalg.random_complex(rng, qg.span.dim))
                for _ in range(2))
        b, d = (qg.dual.span.reconstruct(linalg.random_complex(rng, qg.dual.span.dim))
                for _ in range(2))
        ft.fourier(qg, a), ft.inverse_fourier(qg, b), ft.pairing(qg, b, a)
        ft.convolve(qg, a, c), ft.convolve_direct(qg, a, c)
        ft.convolve_dual(qg, b, d), ft.convolve_dual_direct(qg, b, d)
        qg.delta_residual, qg.dual.delta_residual
    sides = [mu for qg in pairs for mu in (qg.mu, qg.mu.dual)]
    assert sorted(map(id, calls)) == sorted(map(id, sides))

    calls.clear()
    mdl = model(groups.symmetric(4))
    assert run_suite(mdl).passed
    assert sorted(map(id, calls)) == sorted(map(id, [mdl.qg.mu, mdl.qg.mu.dual]))
    mdl.qg.delta_residual, mdl.qg.dual.delta_residual
    assert len(calls) == 2


# ------------------------------------------------------------- invariance

def test_left_invariance_models():
    for g in [groups.cyclic(1), groups.cyclic(3), groups.dihedral(3)]:
        qg = model(g).qg
        assert check_left_invariance(qg).passed
        assert check_left_invariance(qg.dual).passed


def test_right_invariance_models():
    for g in [groups.cyclic(4), groups.symmetric(3)]:
        qg = model(g).qg
        assert check_right_invariance(qg).passed


def test_left_invariance_fails_for_wrong_vector():
    qg = z2().qg
    wrong = Weight(np.array([1.0, 0.0]))  # evaluation at one point is not Haar
    report = check_left_invariance(QuantumGroupPair(qg.mu, qg.m_basis, qg.mhat_basis, wrong,
                                                    qg.phihat, qg.s_mat, qg.shat_mat))
    assert not report.passed


S3 = model(groups.symmetric(3)).qg


def corrupted_s3(**fields):
    """The s3 model's pair with the named constructor arguments replaced."""
    parts = dict(mu=S3.mu, m_basis=S3.m_basis, mhat_basis=S3.mhat_basis, phi=S3.phi,
                 phihat=S3.phihat, s_mat=S3.s_mat, shat_mat=S3.shat_mat)
    return QuantumGroupPair(**{**parts, **fields})


def zero_column(mat, j):
    out = mat.copy()
    out[:, j] = 0
    return out


def pair_agreement(qg):
    """The suite's pair-agreement stage: qg against the pair derived from its W."""
    return engine.CheckReport("pair-agreement", pair_deviation(qg, pair_from_unitary(qg.mu)),
                              linalg.DEFAULT_TOL)


def seeded(check):
    """A sampled check run on draws seeded by 0."""
    return lambda qg: check(qg, np.random.default_rng(0))


def column_phased(w, j, angle):
    out = w.copy()
    out[:, j] *= np.exp(1j * angle)
    return out


TWISTED_S = np.eye(S3.n)[[1, 2, 0, 3, 4, 5]] @ S3.s_mat


# Swapping two columns of s_mat leaves right invariance at 0, because psi = phi o S
# is constant on the s3 basis; the suite blames that corruption at pair-agreement.
# A 3-cycle alpha of three points of s3 is an automorphism of the commutative M, so
# alpha S stays anti-multiplicative; (alpha S)^2 != id and the Kac law catch it.
# A weight that is not faithful (x xi = 0 for some x != 0 in M) makes F(x) = 0, so
# the full-basis inversion fails: phi's vector scaled by 1e-12 is caught first by
# the phihat duality, and xi_phi with its first entry zeroed by inversion.
@pytest.mark.parametrize("check, fields, want", [
    (check_coassociativity, dict(m_basis=S3.m_basis[:-1]), 2.45),
    (check_right_invariance, dict(s_mat=zero_column(S3.s_mat, 0)), 1.0),
    (pair_agreement, dict(mhat_basis=S3.m_basis), 1.0),
    (check_antipode, dict(s_mat=TWISTED_S), 1.0),
    (check_sharp_involution, dict(s_mat=TWISTED_S), 1.0),
    (seeded(check_slice_product_laws),
     dict(mu=MultiplicativeUnitary.from_dense(column_phased(S3.mu.dense, 0, 1e-4))), 9.4e-4),
    (check_pairing_axioms, dict(s_mat=TWISTED_S), 0.408),
    (check_gns_duality_phihat, dict(phi=Weight(S3.phi.xi * 1e-12)), 1.0),
    (check_inversion, dict(phi=Weight(S3.phi.xi * (np.arange(S3.n) != 0))), 1.0),
], ids=["coassociativity-dropped-basis-element", "right-invariance-zeroed-s-column",
        "pair-agreement-mhat-replaced-by-m", "antipode-slices-s-twisted-by-a-3-cycle",
        "sharp-involution-s-twisted-by-a-3-cycle", "slice-product-laws-w-column-phased",
        "pairing-axioms-s-twisted-by-a-3-cycle", "gns-duality-phihat-phi-below-rank-floor",
        "fourier-inversion-phi-not-faithful"])
def test_pair_check_fails_on_a_corrupted_field(check, fields, want):
    report = check(corrupted_s3(**fields))
    assert not report.passed
    # within 0.01, and within 1% of a deviation below 1
    assert report.deviation == pytest.approx(want, abs=min(0.01, want / 100))


# --------------------------------------------------------------- antipodes

def test_antipode_z2_fixes_diagonal_units():
    qg = z2().qg
    s_mat, residual = antipode_from_slices(qg.mu, qg.m_basis)
    assert residual < 1e-12
    np.testing.assert_allclose(s_mat, np.eye(2), atol=1e-12)


def test_antipode_z3_is_inversion_permutation():
    g = groups.cyclic(3)
    qg = model(g).qg
    s_mat, _ = antipode_from_slices(qg.mu, qg.m_basis)
    expected = np.zeros((3, 3))
    expected[g.inv, np.arange(3)] = 1.0
    np.testing.assert_allclose(s_mat, expected, atol=1e-12)
    np.testing.assert_allclose(s_mat, qg.s_mat, atol=1e-12)


def test_antipode_identity_w():
    mu = MultiplicativeUnitary.from_dense(np.eye(4))
    basis = span_basis([np.eye(2)])
    s_mat, residual = antipode_from_slices(mu, basis)
    np.testing.assert_allclose(s_mat, np.eye(1), atol=1e-12)
    assert residual < 1e-12


def test_antipode_hat_z4_generator():
    g = groups.cyclic(4)
    mdl = model(g)
    qg = mdl.qg
    shat_mat, _ = antipode_hat_from_slices(qg.mu, qg.mhat_basis)
    delta1 = np.zeros(4); delta1[1] = 1.0
    delta3 = np.zeros(4); delta3[3] = 1.0
    l1 = models.L(mdl, delta1)
    coords = qg.dual.coords_m(l1)
    out = shat_mat @ coords
    recon = np.einsum("k,kab->ab", out, qg.mhat_basis)
    np.testing.assert_allclose(recon, models.L(mdl, delta3), atol=1e-12)


def test_antipode_hat_trivial_group():
    qg = model(groups.cyclic(1)).qg
    shat_mat, _ = antipode_hat_from_slices(qg.mu, qg.mhat_basis)
    np.testing.assert_allclose(shat_mat, np.eye(1), atol=1e-14)


def test_antipode_inconsistent_on_too_small_span():
    qg = z2().qg
    scalars = span_basis([np.eye(2)])
    with pytest.raises(InconsistentSlices):
        antipode_from_slices(qg.mu, scalars)


def test_antipode_check_group_models():
    for g in [groups.cyclic(3), groups.symmetric(3)]:
        qg = model(g).qg
        report = check_antipode(qg)
        assert report.passed
        # S^2 = id exactly for the stored permutation antipode
        np.testing.assert_array_equal(qg.s_mat @ qg.s_mat, np.eye(g.order))


def loop_antipode_deviation(qg):
    """check_antipode's deviation with anti-multiplicativity and the Kac
    property checked one basis element, or pair, at a time, and S^2 = id."""
    dev = 0.0
    basis = qg.m_basis
    m = basis.shape[0]
    s_on_basis = np.einsum("pk,pab->kab", qg.s_mat, basis)
    for i in range(m):
        for j in range(m):
            diff = qg.apply_s(basis[i] @ basis[j]) - s_on_basis[j] @ s_on_basis[i]
            dev = max(dev, np.max(np.abs(diff)))
    dev = max(dev, np.max(np.abs(qg.s_mat @ qg.s_mat - np.eye(m))))
    for x in basis:
        diff = qg.apply_s(x.conj().T).conj().T - qg.apply_s_inv(x)
        dev = max(dev, np.max(np.abs(diff)))
    return float(dev)


@pytest.mark.parametrize("label", ["s3", "transported-dihedral3",
                                   "transported-dihedral3-perturbed"])
def test_batched_antipode_check_equals_the_loop(label):
    # On the s3 basis the batched contractions sum each entry in the loop's
    # order.  On a dense basis a one-row product (the loop's) and a stacked one
    # (the batch's) round differently in the last bit, so the two agree to
    # rounding: 6.1e-16 and 5.4e-16 as derived, 2.9e-5 to 13 digits when a
    # perturbed s_mat breaks anti-multiplicativity.
    if label == "s3":
        qg = model(groups.symmetric(3)).qg
        assert check_antipode(qg).deviation == loop_antipode_deviation(qg)
        return
    qg = pair_from_unitary(transported_dihedral3())
    if label.endswith("perturbed"):
        s_mat = qg.s_mat.copy()
        s_mat[0, 2] += 1e-4
        s_mat[1, 2] -= 1e-4
        qg = QuantumGroupPair(qg.mu, qg.m_basis, qg.mhat_basis, qg.phi, qg.phihat, s_mat,
                              qg.shat_mat)
    assert check_antipode(qg).deviation == pytest.approx(loop_antipode_deviation(qg),
                                                         rel=1e-12, abs=1e-15)


def test_singular_antipode_raises():
    qg = z2().qg
    broken = QuantumGroupPair(qg.mu, qg.m_basis, qg.mhat_basis, qg.phi, qg.phihat,
                              np.zeros((2, 2)), qg.shat_mat)
    with pytest.raises(SingularAntipode):
        broken.s_inv_mat


@pytest.mark.parametrize("ratio, singular", [(2e-10, False), (0.5e-10, True)])
def test_antipode_singularity_cutoff_edge(ratio, singular):
    # smallest/largest singular value on either side of the cutoff
    assert (ratio < ANTIPODE_SINGULAR_RTOL) == singular
    qg = z2().qg
    pair = QuantumGroupPair(qg.mu, qg.m_basis, qg.mhat_basis, qg.phi, qg.phihat,
                            np.diag([1.0, ratio]), qg.shat_mat)
    if singular:
        with pytest.raises(SingularAntipode):
            pair.s_inv_mat
    else:
        np.testing.assert_allclose(pair.s_inv_mat, np.diag([1.0, 1.0 / ratio]))


# ------------------------------------------------------------------- sharp

def test_sharp_identity_evaluation_z2():
    qg = z2().qg
    omega = matrix_unit_functional(2, 0, 0)  # evaluation at the identity element
    out = sharp(omega, qg.s_mat, qg.span)
    vals = [omega(x) for x in qg.m_basis]
    vals_sharp = [out(x) for x in qg.m_basis]
    np.testing.assert_allclose(vals, vals_sharp, atol=1e-14)


def test_sharp_delta_evaluation_moves_to_inverse():
    g = groups.cyclic(3)
    qg = model(g).qg
    omega = matrix_unit_functional(3, 1, 1)  # delta evaluation at g = 1
    out = sharp(omega, qg.s_mat, qg.span)
    e22 = np.zeros((3, 3)); e22[2, 2] = 1.0  # inverse of 1 is 2 in Z/3
    assert out(e22) == pytest.approx(1.0)
    e11 = np.zeros((3, 3)); e11[1, 1] = 1.0
    assert out(e11) == pytest.approx(0.0)


def test_sharp_involution_check():
    for g in [groups.cyclic(4), groups.symmetric(3)]:
        assert check_sharp_involution(model(g).qg).passed


def test_sharp_involution_holds_one_n4_array_on_s4():
    # an n^4 array of s4 is 5.1 MiB; the stage held several at once (the unit
    # densities, the sharps' densities, the family, its adjoint and their
    # slices: a 23.6 MiB peak).  The sharps stay in coordinates and the
    # slices are compared one row index at a time, beside the one family.
    qg = model(groups.symmetric(4)).qg
    check_sharp_involution(qg)                     # W itself is built once, before
    tracemalloc.start()
    try:
        report = check_sharp_involution(qg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.passed
    assert peak <= 23.6 / 2 * 2 ** 20


def test_sharp_functional_bundle():
    qg = model(groups.cyclic(4)).qg
    density = RNG.standard_normal((4, 4)) + 1j * RNG.standard_normal((4, 4))
    omega = Functional(density)
    omega_sharp = sharp(omega, qg.s_mat, qg.span)
    assert deviation(lam(qg.mu, omega).conj().T, lam(qg.mu, omega_sharp)) < 1e-12
    twice = sharp(omega_sharp, qg.s_mat, qg.span)
    vals = [omega(x) for x in qg.m_basis]
    vals_twice = [twice(x) for x in qg.m_basis]
    np.testing.assert_allclose(vals, vals_twice, atol=1e-12)


def test_canonical_embeddings_land_in_the_algebras():
    qg = model(groups.symmetric(3)).qg
    density = RNG.standard_normal((6, 6)) + 1j * RNG.standard_normal((6, 6))
    omega = Functional(density)
    assert qg.dual.span.project(lam(qg.mu, omega))[1] < 1e-12
    assert qg.span.project(lam_hat(qg.mu, omega))[1] < 1e-12


# ------------------------------------------------- GNS and duality relations

def test_gns_duality_relations():
    for g in [groups.cyclic(3), groups.symmetric(3)]:
        qg = model(g).qg
        assert check_gns_duality_phihat(qg).passed
        assert check_gns_duality_phihatdual(qg).passed


def test_gns_duality_phihat_by_hand():
    # <Lambda_hat((omega (x) id)(W)), Lambda(x)> = omega(x^*) on the Z/2 model
    mdl = z2()
    qg = mdl.qg
    density = RNG.standard_normal((2, 2)) + 1j * RNG.standard_normal((2, 2))
    omega = Functional(density)
    y = np.einsum("ij,jkil->kl", density, qg.w4)
    for x in qg.m_basis:
        lhs = np.vdot(x @ qg.phi.xi, y @ qg.phihat.xi)
        rhs = omega(x.conj().T)
        assert lhs == pytest.approx(rhs, abs=1e-12)


def test_slice_product_laws():
    for g in [groups.cyclic(3), groups.symmetric(3)]:
        qg = model(g).qg
        rng = np.random.default_rng(5)
        assert check_slice_product_laws(qg, rng).passed


def test_slice_product_laws_do_not_depend_on_the_layout_of_w():
    qg = pair_from_unitary(transported_dihedral3())
    fortran_w = np.asfortranarray(qg.w)
    assert not fortran_w.flags.c_contiguous
    fortran = QuantumGroupPair(MultiplicativeUnitary(qg.n, dense=fortran_w), qg.m_basis,
                               qg.mhat_basis, qg.phi, qg.phihat, qg.s_mat, qg.shat_mat)
    want = check_slice_product_laws(qg, np.random.default_rng(3)).deviation
    assert check_slice_product_laws(fortran, np.random.default_rng(3)).deviation == want


def test_slicing_checks_lay_each_operand_out_once(monkeypatch):
    # three operands for the slice-product laws (W on each leg, W^* on leg 2),
    # whatever the sample count; one for the sharp involution, W on leg 1,
    # whose n^2 matrix-unit slices are that layout's rows; none for the pairing
    # axioms, which read W's slices through its coefficients on M (x) Mhat
    layouts = []
    lay_out = linalg._legs
    monkeypatch.setattr(linalg, "_legs", lambda *args: layouts.append(args[2]) or lay_out(*args))
    qg = model(groups.symmetric(3)).qg
    for samples in (1, 4):
        monkeypatch.setattr(engine, "PRODUCT_LAW_SAMPLES", samples)
        layouts.clear()
        check_slice_product_laws(qg, np.random.default_rng(1))
        assert len(layouts) == 3
    layouts.clear()
    check_sharp_involution(qg)
    assert layouts == [(2, 0, 1, 3)]
    layouts.clear()
    check_pairing_axioms(qg)
    assert layouts == []


def test_slice_product_law_functionals_match_einsum_formulas():
    # the three functionals check_slice_product_laws tabulates, against the
    # four-operand sums that define them
    n, rng = 3, np.random.default_rng(8)
    w4 = random_unitary(rng, n * n).reshape(n, n, n, n)
    r1, r2 = rng.standard_normal((2, n, n)) + 1j * rng.standard_normal((2, n, n))
    delta = engine._conjugated_unit_values(w4.conj().transpose(2, 3, 1, 0))
    delta_hat_cop = engine._conjugated_unit_values(w4)
    cases = [(delta(r1, r2), "ij,kl,pajl,pbik->ab", w4.conj(), w4),
             (delta_hat_cop(r1, r2), "ij,kl,jlaq,ikbq->ab", w4, w4.conj()),
             (delta_hat_cop(r2, r1), "ij,kl,ljaq,kibq->ab", w4, w4.conj())]
    for got, spec, x, y in cases:
        np.testing.assert_allclose(got, np.einsum(spec, r1, r2, x, y), atol=1e-12)


# ------------------------------------------------------------- pontryagin

def test_pontryagin_models():
    for g in [groups.cyclic(1), groups.cyclic(2), groups.symmetric(3)]:
        qg = model(g).qg
        report = pontryagin_check(qg.mu)
        assert report.passed and report.deviation == 0.0


@pytest.mark.parametrize("form", ["permutation", "dense"])
def test_pontryagin_fails_when_the_dual_of_what_is_not_w(form):
    # s3's W with cyclic:6's What cached as its dual, whose dual is cyclic:6's W
    c6 = model(groups.cyclic(6)).qg.mu
    if form == "permutation":
        mu = MultiplicativeUnitary.from_permutation(*S3.mu.perm)
        mu.dual = c6.dual
    else:
        mu = MultiplicativeUnitary.from_dense(S3.w)
        mu.dual = MultiplicativeUnitary.from_dense(c6.dual.dense)
    report = pontryagin_check(mu)
    assert not report.passed
    assert report.deviation == 1.0
    assert (mu.dual.dual._dense is None) == (form == "permutation")


@pytest.mark.parametrize("group", [groups.symmetric(3), groups.cyclic(5), groups.dihedral(4)])
def test_pair_deviation_from_the_derived_pair(group):
    qg = model(group).qg
    assert pair_deviation(qg, pair_from_unitary(qg.w)) <= 1e-14


@pytest.mark.parametrize("factor", [3j, 0.5])
def test_pair_deviation_ignores_the_scale_of_the_weights(factor):
    scaled = corrupted_s3(phi=Weight(S3.phi.xi * factor), phihat=Weight(S3.phihat.xi * factor))
    derived = pair_from_unitary(S3.w)
    assert pair_deviation(S3, scaled) <= 1e-15
    assert pair_deviation(scaled, derived) == pytest.approx(pair_deviation(S3, derived), abs=1e-15)


def test_pair_deviation_reads_one_when_m_and_mhat_are_swapped():
    swapped = corrupted_s3(m_basis=S3.mhat_basis, mhat_basis=S3.m_basis)
    assert pair_deviation(S3, swapped) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("eps", [1e-6, 1e-4])
def test_pair_agreement_fails_on_a_tilted_phihat(eps):
    # xi_phihat + eps e_1 leaves the dual pair's phi off the Haar line
    tilted = corrupted_s3(phihat=Weight(S3.phihat.xi + eps * np.eye(S3.n)[1]))
    report = pair_agreement(tilted)
    assert not report.passed
    assert report.deviation == pytest.approx(eps, rel=1e-3)


# ------------------------------------------------ generic dense-W pipeline

def test_weight_derivation_recovers_haar_vectors():
    g = groups.cyclic(3)
    qg = model(g).qg
    m_span = slice_span_m(qg.mu)
    xi_phi, xi_phihat = derive_haar_vectors(qg.mu, m_span)
    # up to a global phase, xi_phi is the all-ones vector and xi_phihat the
    # identity basis vector
    assert np.abs(np.vdot(xi_phi, xi_phi)) == pytest.approx(3.0)
    np.testing.assert_allclose(np.abs(xi_phi), np.ones(3), atol=1e-12)
    np.testing.assert_allclose(np.abs(xi_phihat), [1.0, 0.0, 0.0], atol=1e-12)
    phase = xi_phi[0]
    np.testing.assert_allclose(xi_phi / phase, np.ones(3), atol=1e-12)
    np.testing.assert_allclose(xi_phihat / phase, [1.0, 0, 0], atol=1e-12)


def test_weight_derivation_fails_off_gns_position():
    with pytest.raises(WeightDerivationError):
        mu = MultiplicativeUnitary.from_dense(np.eye(4))
        derive_haar_vectors(mu, span_basis([np.eye(2)]))


@pytest.mark.parametrize("group", [groups.cyclic(3), groups.symmetric(3),
                                   groups.dihedral(2)])
def test_pair_from_unitary_matches_model(group):
    mdl = model(group)
    qg = pair_from_unitary(mdl.qg.w)
    assert subspace_equal(qg.m_basis, mdl.qg.m_basis) <= 1e-10
    assert subspace_equal(qg.mhat_basis, mdl.qg.mhat_basis) <= 1e-10
    assert check_gns_duality_phihat(qg).passed
    assert check_gns_duality_phihatdual(qg).passed
    assert check_left_invariance(qg).passed
    assert check_antipode(qg).passed


def test_pair_from_unitary_rejects_non_pentagon():
    w = flip(2) @ z2().qg.w
    with pytest.raises(ValueError, match="pentagon"):
        pair_from_unitary(w)


def test_pair_from_unitary_rejects_non_unitary():
    with pytest.raises(ValueError, match="unitary"):
        pair_from_unitary(np.ones((4, 4)))


def test_pair_from_transported_unitary():
    # conjugating W by u (x) u transports the whole structure; the engine
    # must recover it from the dense matrix alone, with nothing diagonal left
    rng = np.random.default_rng(99)
    mdl = model(groups.symmetric(3))
    q, _ = np.linalg.qr(rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6)))
    uu = kron(q, q)
    qg = pair_from_unitary(uu @ mdl.qg.w @ uu.conj().T)
    target = q @ np.ones(6)
    overlap = abs(np.vdot(target, qg.phi.xi))
    assert overlap == pytest.approx(np.linalg.norm(target) * np.linalg.norm(qg.phi.xi),
                                    abs=1e-10)
    assert check_gns_duality_phihat(qg).passed
    assert check_antipode(qg).passed
    transported = span_basis([q @ x @ q.conj().T for x in mdl.qg.m_basis])
    assert subspace_equal(qg.m_basis, transported) <= 1e-10


def test_pair_from_dual_unitary_noncommutative_side():
    # Sigma W^* Sigma carries the dual quantum group; for a nonabelian group
    # its primary algebra is the (noncommutative) group von Neumann algebra
    mdl = model(groups.symmetric(3))
    sigma = flip(6)
    qg = pair_from_unitary(sigma @ mdl.qg.w.conj().T @ sigma)
    assert subspace_equal(qg.m_basis, mdl.qg.mhat_basis) <= 1e-10
    assert subspace_equal(qg.mhat_basis, mdl.qg.m_basis) <= 1e-10
    products = [qg.m_basis[1] @ qg.m_basis[2], qg.m_basis[2] @ qg.m_basis[1]]
    assert np.max(np.abs(products[0] - products[1])) > 1e-6
    assert check_left_invariance(qg).passed


def transported_dihedral3():
    """(u (x) u) W (u (x) u)^* for dihedral:3 and a seeded random unitary u."""
    u = random_unitary(np.random.default_rng(5), 6)
    uu = kron(u, u)
    return uu @ model(groups.dihedral(3)).qg.w @ uu.conj().T


def test_dual_unitary_is_flipped_adjoint():
    w = transported_dihedral3()
    qg = pair_from_unitary(w)
    np.testing.assert_array_equal(qg.dual.mu.dense, flip(6) @ w.conj().T @ flip(6))
    assert qg.dual.mu is qg.mu.dual
    assert qg.dual.m_basis is qg.mhat_basis and qg.dual.mhat_basis is qg.m_basis
    assert qg.dual.phi is qg.phihat and qg.dual.phihat is qg.phi
    assert qg.dual.s_mat is qg.shat_mat and qg.dual.shat_mat is qg.s_mat


@pytest.mark.parametrize("spec", ["cyclic:1", "s3", "dihedral:3",
                                  "product:cyclic:2xcyclic:3", "cyclic:12"])
def test_dual_of_a_permutation_unitary_is_a_permutation(spec):
    mu = model(parse_group_spec(spec)).qg.mu
    n = mu.n
    assert mu.dual.is_permutation
    np.testing.assert_array_equal(mu.dual.dense, flip(n) @ mu.dense.conj().T @ flip(n))
    for table, original in zip(mu.dual.dual.perm, mu.perm):
        np.testing.assert_array_equal(table, original)
    report = check_pentagon(mu.dual)
    assert (report.deviation, report.note) == (0.0, "exact")


def test_dual_of_a_non_bijective_permutation_raises():
    mu = MultiplicativeUnitary.from_permutation([[0, 0], [1, 1]], [[0, 0], [1, 1]])
    with pytest.raises(ValueError, match="bijection"):
        mu.dual


@pytest.mark.parametrize("label", ["s4", "non-bijective", "random-map"])
def test_comult_gather_pairs_every_entry_of_equal_sig(label):
    # grouping the flat indices by sig gives the pairs of the n^2 x n^2 mask
    # sig_p == sig_q in its order, and delta(x) = W^* (1 (x) x) W holds for any
    # index map, a bijection or not
    if label == "s4":
        mu = model(groups.symmetric(4)).qg.mu
    elif label == "non-bijective":
        mu = MultiplicativeUnitary.from_permutation([[0, 0], [1, 1]], [[0, 0], [1, 1]])
    else:
        rng = np.random.default_rng(13)
        mu = MultiplicativeUnitary.from_permutation(*rng.integers(0, 5, (2, 5, 5)))
    n = mu.n
    sig, tau = (a.ravel() for a in mu.perm)
    p, q = np.nonzero(sig[:, None] == sig[None, :])
    dst, src = mu.comult_gather
    np.testing.assert_array_equal(dst, p * n * n + q)
    np.testing.assert_array_equal(src, tau[p] * n + tau[q])
    x = linalg.random_complex(np.random.default_rng(14), (n, n))
    np.testing.assert_allclose(comultiply(mu, x),
                               mu.dense.conj().T @ kron(np.eye(n), x) @ mu.dense, atol=1e-13)


def test_dual_pair_holds_no_reference_back():
    # a back-pointer from the dual would make a cycle, and every discarded
    # pair would then live until a full garbage-collection pass
    qg = pair_from_unitary(transported_dihedral3())
    qg.delta_hat_coeffs, qg.shat_inv_mat
    inverse_fourier(qg, qg.mhat_basis[0])
    refs = [weakref.ref(obj) for obj in (qg, qg.mu, qg.dual)]
    gc.disable()
    try:
        del qg
        assert [ref() for ref in refs] == [None, None, None]
    finally:
        gc.enable()


def test_w_membership_in_m_tensor_mhat():
    for g in [groups.cyclic(4), groups.symmetric(3)]:
        qg = model(g).qg
        assert check_w_membership(qg).deviation < 1e-12


def test_membership_helpers():
    qg = z2().qg
    assert qg.span.project(np.diag([1.0, 2.0]))[1] < 1e-14
    off = np.zeros((2, 2)); off[0, 1] = 1.0
    assert qg.span.project(off)[1] == pytest.approx(1.0)
