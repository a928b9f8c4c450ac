"""Tensor kernel tests: Kronecker index algebra, flip, leg embeddings,
functional slices and span machinery, each against brute-force oracles."""

import numpy as np
import pytest

from qgft import linalg, models
from qgft.cli import parse_group_spec
from qgft.engine import pair_from_unitary
from qgft.linalg import (
    DEFAULT_TOL,
    RANK_RTOL,
    Functional,
    SpanKernel,
    as_complex_matrix,
    flip,
    kron,
    left_slicer,
    leg_embed,
    random_complex,
    rank,
    right_slicer,
    slice_family,
    slice_left,
    slice_right,
    span_basis,
    subspace_equal,
)

RNG = np.random.default_rng(7)


def random_matrix(rows, cols=None):
    cols = rows if cols is None else cols
    return RNG.standard_normal((rows, cols)) + 1j * RNG.standard_normal((rows, cols))


def matrix_unit_functional(n, i, j):
    density = np.zeros((n, n), dtype=complex)
    density[i, j] = 1.0
    return Functional(density)


def trace_functional(n):
    return Functional(np.eye(n, dtype=complex))


def basis_vector(n, i):
    e = np.zeros(n, dtype=complex)
    e[i] = 1.0
    return e


def z2_model_w():
    """W e_s (x) e_t = e_s (x) e_{s+t mod 2}, built entry by entry."""
    w = np.zeros((4, 4), dtype=complex)
    for s in range(2):
        for t in range(2):
            w[s * 2 + ((s + t) % 2), s * 2 + t] = 1.0
    return w


# ---------------------------------------------------------------- kron / flip

def test_kron_identity():
    np.testing.assert_array_equal(kron(np.eye(2), np.eye(2)), np.eye(4))


def test_kron_swap_block_structure():
    swap = np.array([[0, 1], [1, 0]], dtype=complex)
    out = kron(swap, np.eye(2))
    expected = np.zeros((4, 4))
    expected[0, 2] = expected[1, 3] = expected[2, 0] = expected[3, 1] = 1
    np.testing.assert_array_equal(out, expected)


def test_kron_entry_formula():
    a, b = random_matrix(2), random_matrix(3)
    out = kron(a, b)
    # oracle: direct index arithmetic, (i*rB + k, j*cB + l) -> a[i,j] b[k,l]
    assert out[5, 5] == pytest.approx(a[1, 1] * b[2, 2])
    for i in range(2):
        for j in range(2):
            for k in range(3):
                for l in range(3):
                    assert out[i * 3 + k, j * 3 + l] == pytest.approx(a[i, j] * b[k, l])


def test_kron_associative_exactly():
    # integer entries make the floating-point products exact, isolating the
    # index arithmetic, which must agree entrywise exactly
    a = RNG.integers(-5, 5, (2, 2)) + 1j * RNG.integers(-5, 5, (2, 2))
    b = RNG.integers(-5, 5, (3, 3)) + 1j * RNG.integers(-5, 5, (3, 3))
    c = RNG.integers(-5, 5, (2, 2)) + 1j * RNG.integers(-5, 5, (2, 2))
    np.testing.assert_array_equal(kron(kron(a, b), c), kron(a, kron(b, c)))
    f, g, h = random_matrix(2), random_matrix(3), random_matrix(2)
    np.testing.assert_allclose(kron(kron(f, g), h), kron(f, kron(g, h)), atol=1e-12)


def test_flip_trivial_and_involution():
    np.testing.assert_array_equal(flip(1), np.eye(1))
    sigma = flip(2)
    np.testing.assert_array_equal(sigma @ sigma, np.eye(4))


def test_flip_basis_action():
    sigma = flip(2)
    e01 = kron(basis_vector(2, 0).reshape(-1, 1), basis_vector(2, 1).reshape(-1, 1))
    e10 = kron(basis_vector(2, 1).reshape(-1, 1), basis_vector(2, 0).reshape(-1, 1))
    np.testing.assert_array_equal(sigma @ e01, e10)
    e00 = kron(basis_vector(2, 0).reshape(-1, 1), basis_vector(2, 0).reshape(-1, 1))
    np.testing.assert_array_equal(sigma @ e00, e00)


def test_flip_conjugation_swaps_factors():
    for n in (2, 3):
        a, b = random_matrix(n), random_matrix(n)
        sigma = flip(n)
        np.testing.assert_allclose(sigma @ kron(a, b) @ sigma, kron(b, a), atol=1e-13)


# ---------------------------------------------------------------- leg_embed

def test_leg_embed_identity():
    np.testing.assert_array_equal(leg_embed(np.eye(4), 12, 2), np.eye(8))
    np.testing.assert_array_equal(leg_embed(np.eye(4), 13, 2), np.eye(8))
    np.testing.assert_array_equal(leg_embed(np.eye(4), 23, 2), np.eye(8))


def triple(n, i, j, k):
    v = np.zeros(n ** 3, dtype=complex)
    v[(i * n + j) * n + k] = 1.0
    return v


def test_leg_embed_flip_on_legs12():
    out = leg_embed(flip(2), 12, 2) @ triple(2, 0, 1, 0)
    np.testing.assert_array_equal(out, triple(2, 1, 0, 0))


def test_leg_embed_w_on_legs23():
    out = leg_embed(z2_model_w(), 23, 2) @ triple(2, 0, 1, 1)
    np.testing.assert_array_equal(out, triple(2, 0, 1, 0))  # 1+1 = 0 mod 2


def test_leg_embed_13_against_brute_force():
    n = 3
    x = random_matrix(n * n)
    out = leg_embed(x, 13, n)
    # oracle: entrywise definition of acting on legs 1 and 3
    x4 = x.reshape(n, n, n, n)
    expected = np.zeros((n ** 3, n ** 3), dtype=complex)
    for i in range(n):
        for k in range(n):
            for j in range(n):
                for l in range(n):
                    for m in range(n):
                        expected[(i * n + m) * n + k, (j * n + m) * n + l] += x4[i, k, j, l]
    np.testing.assert_allclose(out, expected, atol=1e-13)


def test_leg_embed_dimension_mismatch():
    with pytest.raises(ValueError):
        leg_embed(np.eye(3), 12, 2)


# ---------------------------------------------------------------- slices

def slice_left_oracle(density, x, n):
    out = np.zeros((n, n), dtype=complex)
    for k in range(n):
        for l in range(n):
            for i in range(n):
                for j in range(n):
                    out[k, l] += density[i, j] * x[j * n + k, i * n + l]
    return out


def slice_right_oracle(density, x, n):
    out = np.zeros((n, n), dtype=complex)
    for i in range(n):
        for j in range(n):
            for k in range(n):
                for l in range(n):
                    out[i, j] += density[k, l] * x[i * n + l, j * n + k]
    return out


def test_slice_rank_one_tensors():
    for n in (2, 3):
        a, b = random_matrix(n), random_matrix(n)
        x = kron(a, b)
        omega = Functional(random_matrix(n))
        np.testing.assert_allclose(slice_left(omega, x), omega(a) * b, atol=1e-12)
        np.testing.assert_allclose(slice_right(omega, x), omega(b) * a, atol=1e-12)


def test_slice_trace_functional():
    a, b = random_matrix(2), random_matrix(2)
    tr = trace_functional(2)
    np.testing.assert_allclose(slice_left(tr, kron(a, b)), np.trace(a) * b, atol=1e-12)
    np.testing.assert_allclose(slice_right(tr, kron(a, b)), np.trace(b) * a, atol=1e-12)


def test_slice_zero_functional():
    x = random_matrix(4)
    zero = Functional(np.zeros((2, 2)))
    np.testing.assert_array_equal(slice_left(zero, x), np.zeros((2, 2)))
    np.testing.assert_array_equal(slice_right(zero, x), np.zeros((2, 2)))


def test_slice_left_of_z2_w_with_corner_unit():
    omega = matrix_unit_functional(2, 0, 0)
    np.testing.assert_array_equal(slice_left(omega, z2_model_w()), np.eye(2))


def test_slice_right_of_z2_w_with_corner_unit():
    theta = matrix_unit_functional(2, 0, 0)
    # brute-force expansion of W fixes the answer: diag(1, 0)
    expected = slice_right_oracle(theta.density, z2_model_w(), 2)
    np.testing.assert_array_equal(expected, np.diag([1.0, 0.0]))
    np.testing.assert_array_equal(slice_right(theta, z2_model_w()), expected)


def test_slices_match_oracle_on_random_input():
    n = 3
    x = random_matrix(n * n)
    density = random_matrix(n)
    np.testing.assert_allclose(slice_left(Functional(density), x),
                               slice_left_oracle(density, x, n), atol=1e-12)
    np.testing.assert_allclose(slice_right(Functional(density), x),
                               slice_right_oracle(density, x, n), atol=1e-12)


@pytest.mark.parametrize("layout", [np.ascontiguousarray, np.asfortranarray])
def test_slicers_match_single_slices_bit_for_bit(layout):
    # one layout of x serves many functionals with the arithmetic of one
    # slice_left / slice_right call each
    n = 3
    x = layout(random_matrix(n * n))
    left, right = left_slicer(x, n), right_slicer(x, n)
    for _ in range(4):
        omega = Functional(random_matrix(n))
        np.testing.assert_array_equal(left(omega), slice_left(omega, x))
        np.testing.assert_array_equal(right(omega), slice_right(omega, x))
        np.testing.assert_allclose(left(omega), slice_left_oracle(omega.density, x, n), atol=1e-12)


def test_slicers_reject_mismatched_dimensions():
    with pytest.raises(ValueError, match="leg dimension"):
        left_slicer(random_matrix(9), 2)
    with pytest.raises(ValueError, match="leg dimension"):
        right_slicer(random_matrix(4), 3)
    with pytest.raises(ValueError):
        left_slicer(random_matrix(4), 2)(Functional(random_matrix(3)))
    with pytest.raises(ValueError):
        right_slicer(random_matrix(4), 2)(Functional(random_matrix(3)))


@pytest.mark.parametrize("leg", [0, 3, "1"])
def test_slice_family_rejects_other_legs(leg):
    with pytest.raises(ValueError, match="leg must be 1 or 2"):
        slice_family(random_matrix(4), 2, leg)


# ---------------------------------------------------------------- spans

def test_span_collinear():
    basis = span_basis([np.eye(2), 2 * np.eye(2)])
    assert basis.shape[0] == 1
    # the single element is proportional to the identity
    assert SpanKernel(basis).project(np.eye(2))[1] < 1e-12


def test_span_matrix_units_full():
    n = 3
    units = []
    for i in range(n):
        for j in range(n):
            unit = np.zeros((n, n), dtype=complex)
            unit[i, j] = 1.0
            units.append(unit)
    assert span_basis(units).shape[0] == n * n


def test_span_diagonal_units():
    units = [np.diag([1.0, 0, 0]), np.diag([0, 1.0, 0]), np.diag([0, 0, 1.0])]
    assert span_basis(units).shape[0] == 3


def test_span_empty():
    assert span_basis([]).shape[0] == 0


def test_rank_empty_is_zero():
    assert rank(np.zeros(0)) == 0


def test_rank_counts_nothing_below_the_floor():
    assert rank(np.array([0.5, 0.1]) * DEFAULT_TOL) == 0
    assert rank(np.zeros(3)) == 0
    assert rank(np.array([1e-3, 1e-6]), tol=1e-2) == 0


def test_rank_relative_cutoff():
    # above the floor, a value counts iff it exceeds RANK_RTOL times the largest
    svals = np.array([1e4, 2 * RANK_RTOL * 1e4, 0.5 * RANK_RTOL * 1e4, 0.0])
    assert rank(svals) == 2
    assert rank(np.array([1.0, 1e-9, 1e-11])) == 1
    assert rank(np.array([1.0, 1e-9]), tol=0.0) == 1
    assert rank(np.array([1.0, 1e-7]), tol=0.0) == 2


def test_span_idempotent():
    mats = [random_matrix(3) for _ in range(4)] + [np.zeros((3, 3))]
    first = span_basis(mats)
    second = span_basis(list(first))
    assert subspace_equal(first, second) < 1e-12


def test_subspace_equal_cases():
    e0 = np.zeros((2, 2), dtype=complex)
    e0[0, 0] = 1.0
    e1 = np.zeros((2, 2), dtype=complex)
    e1[1, 1] = 1.0
    assert subspace_equal(span_basis([e0]), span_basis([e0])) == 0.0
    assert subspace_equal(span_basis([e0]), span_basis([e1])) == pytest.approx(1.0)
    assert subspace_equal(span_basis([]), span_basis([])) == 0.0
    assert subspace_equal(span_basis([e0]), span_basis([])) == 1.0
    diagonals = span_basis([e0, e1])
    everything = span_basis([random_matrix(2) for _ in range(6)])
    assert everything.shape[0] == 4
    assert subspace_equal(diagonals, everything) > 0.5


def test_subspace_dimension_mismatch():
    with pytest.raises(ValueError):
        subspace_equal(span_basis([np.eye(2)]), span_basis([np.eye(3)]))


# ---------------------------------------------------------------- plumbing

def test_as_complex_matrix_rejects_nonfinite():
    with pytest.raises(ValueError):
        as_complex_matrix([[np.nan, 0], [0, 1]])
    with pytest.raises(ValueError):
        as_complex_matrix([[np.inf, 0], [0, 1]])


def test_functional_evaluation():
    density = random_matrix(3)
    x = random_matrix(3)
    assert Functional(density)(x) == pytest.approx(np.trace(density @ x))


def test_random_draws_take_the_real_part_first():
    # suite reports are reproducible only if every draw keeps this order
    fresh = np.random.default_rng(5)
    real, imag = fresh.standard_normal((3, 2)), fresh.standard_normal((3, 2))
    np.testing.assert_array_equal(random_complex(np.random.default_rng(5), (3, 2)),
                                  real + 1j * imag)
    basis = span_basis([random_matrix(2) for _ in range(3)])
    fresh = np.random.default_rng(6)
    coeffs = fresh.standard_normal(3) + 1j * fresh.standard_normal(3)
    span = SpanKernel(basis)
    np.testing.assert_array_equal(span.reconstruct(random_complex(np.random.default_rng(6), span.dim)),
                                  (coeffs.reshape(1, 3) @ basis.reshape(3, 4)).reshape(2, 2))


def reversed_strides(a):
    """The same entries as a, as a view with negative strides."""
    return np.flip(np.flip(a, -1).copy(), -1)


LAYOUTS = (np.ascontiguousarray, np.asfortranarray, reversed_strides)


def test_kernels_do_not_depend_on_memory_layout():
    # operands are made C-contiguous before each product or gather, so every
    # layout of the same entries sums in the same order, on both span layouts
    n = 3
    bases = {"dense": span_basis([random_matrix(n) for _ in range(5)]),
             "index": group_pair(f"cyclic:{n}").mhat_basis}
    x, density, w = random_matrix(n), random_matrix(n), random_matrix(n * n)
    stack = np.stack([random_matrix(n) for _ in range(4)])
    for expected, basis in bases.items():
        coeffs = random_matrix(4, len(basis))
        results = []
        for layout in LAYOUTS:
            b, f = layout(basis), Functional(layout(density))
            assert layout is np.ascontiguousarray or not b.flags.c_contiguous
            span = SpanKernel(b)
            assert span.layout == expected
            results.append((span.coords(layout(x)), span.coords(layout(stack)),
                            span.reconstruct(layout(coeffs)), span.reconstruct(layout(coeffs[0])),
                            *span.project(layout(stack)), *span.project(layout(x)),
                            slice_left(f, layout(w)), slice_right(f, layout(w)),
                            f(layout(x)), f.values_on(b)))
        for other in results[1:]:
            for got, want in zip(other, results[0]):
                np.testing.assert_array_equal(got, want)


# ------------------------------------------------------------- span layouts

INDEX_LAYOUT_SPECS = ("cyclic:1", "cyclic:6", "s3", "dihedral:4", "s4")


def group_pair(spec):
    return models.build(parse_group_spec(spec)).qg


def dense_layout(basis, monkeypatch):
    """The kernel of basis with the index layout switched off."""
    with monkeypatch.context() as patch:
        patch.setattr(linalg, "_indicator_layout", lambda rows: None)
        return SpanKernel(basis)


@pytest.mark.parametrize("spec", INDEX_LAYOUT_SPECS)
def test_group_model_bases_take_the_index_layout(spec):
    qg = group_pair(spec)
    assert qg.span.layout == "index" and qg.dual.span.layout == "index"
    for basis in (qg.m_basis, qg.mhat_basis):
        assert SpanKernel(basis).layout == "index"


@pytest.mark.parametrize("spec", INDEX_LAYOUT_SPECS)
def test_index_layout_matches_the_dense_layout(spec, monkeypatch):
    rng = np.random.default_rng(17)
    qg = group_pair(spec)
    for basis in (qg.m_basis, qg.mhat_basis):
        index, dense = SpanKernel(basis), dense_layout(basis, monkeypatch)
        assert (index.layout, dense.layout) == ("index", "dense")
        m, n = basis.shape[0], basis.shape[1]
        coeffs = random_complex(rng, (3, m))
        in_span = index.reconstruct(coeffs)
        off_span = in_span + 1e-6 * random_complex(rng, (3, n, n))
        for x in (in_span[0], in_span, off_span[0], off_span):
            got, want = index.project(x), dense.project(x)
            assert np.abs(got[0] - want[0]).max() <= 1e-14
            assert abs(got[1] - want[1]) <= 1e-14
            assert np.abs(index.coords(x) - dense.coords(x)).max() <= 1e-14
        assert index.project(in_span)[1] <= 1e-14
        if m < n * n:   # on cyclic:1 the span is all of B(C^1)
            assert index.project(off_span)[1] >= 1e-7
        for c in (coeffs[0], coeffs):
            assert np.abs(index.reconstruct(c) - dense.reconstruct(c)).max() <= 1e-14


def test_other_bases_take_the_dense_layout():
    s3 = group_pair("s3")
    u, _ = np.linalg.qr(random_matrix(6))
    uu = kron(u, u)
    derived = pair_from_unitary(uu @ s3.w @ uu.conj().T)  # transported: no 0/1 slices
    assert SpanKernel(derived.m_basis).layout == "dense"
    assert SpanKernel(derived.mhat_basis).layout == "dense"
    assert derived.span.layout == derived.dual.span.layout == "dense"

    one_ulp = s3.mhat_basis.copy()
    k = np.flatnonzero(one_ulp[0])[1]
    one_ulp[0].flat[k] = np.nextafter(one_ulp[0].flat[k].real, 1.0)
    assert SpanKernel(one_ulp).layout == "dense"

    e = np.eye(3, dtype=complex)
    overlapping = np.stack([np.diag(e[0] + e[1]), np.diag(e[1] + e[2])]) / np.sqrt(2)
    unequal = np.stack([np.diag(e[0]), np.diag(e[1] + e[2]) / np.sqrt(2)])
    for basis in (overlapping, unequal):
        kernel = SpanKernel(basis)
        assert kernel.layout == "dense"
        x = random_matrix(3)
        np.testing.assert_allclose(kernel.coords(x), np.einsum("kab,ab->k", basis.conj(), x),
                                   rtol=0, atol=1e-14)


def test_flat_kernels_match_einsum_oracles():
    n = 3
    basis = span_basis([random_matrix(n) for _ in range(5)])
    stack, coeffs = np.stack([random_matrix(n) for _ in range(4)]), random_matrix(4, len(basis))
    f, w = Functional(random_matrix(n)), random_matrix(n * n)
    span = SpanKernel(basis)
    np.testing.assert_allclose(span.coords(stack),
                               np.einsum("kab,sab->sk", basis.conj(), stack), atol=1e-13)
    np.testing.assert_allclose(span.reconstruct(coeffs),
                               np.einsum("sk,kab->sab", coeffs, basis), atol=1e-13)
    np.testing.assert_allclose(f.values_on(basis),
                               np.einsum("ij,kji->k", f.density, basis), atol=1e-13)
    assert f(w[:n, :n]) == pytest.approx(np.trace(f.density @ w[:n, :n]), abs=1e-13)


def test_flat_kernels_reject_mismatched_shapes():
    # a flat product would silently pair entries of operands of equal size
    basis = span_basis([random_matrix(2) for _ in range(3)])
    with pytest.raises(ValueError):
        SpanKernel(basis).coords(random_matrix(1, 4))
    with pytest.raises(ValueError):
        Functional(random_matrix(2))(random_matrix(1, 4))
    # and a coordinate vector must have one entry per basis element, on both
    # span layouts
    for b in (basis, group_pair("cyclic:2").mhat_basis):
        for coeffs in (random_matrix(1, 4), random_matrix(2, 1), random_matrix(1, 1)[0]):
            with pytest.raises(ValueError):
                SpanKernel(b).reconstruct(coeffs)
