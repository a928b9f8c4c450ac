"""Tensor kernel tests: Kronecker index algebra, flip, leg embeddings,
functional slices and span machinery, each against brute-force oracles."""

import numpy as np
import pytest

from qgft.linalg import (
    Functional,
    as_complex_matrix,
    flip,
    kron,
    leg_embed,
    matrix_unit_functional,
    membership_residual,
    random_complex,
    random_element,
    slice_left,
    slice_right,
    span_basis,
    subspace_equal,
    trace_functional,
)

RNG = np.random.default_rng(7)


def random_matrix(rows, cols=None):
    cols = rows if cols is None else cols
    return RNG.standard_normal((rows, cols)) + 1j * RNG.standard_normal((rows, cols))


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


# ---------------------------------------------------------------- spans

def test_span_collinear():
    basis = span_basis([np.eye(2), 2 * np.eye(2)])
    assert basis.shape[0] == 1
    # the single element is proportional to the identity
    assert membership_residual(np.eye(2), basis) < 1e-12


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


def test_span_idempotent():
    mats = [random_matrix(3) for _ in range(4)] + [np.zeros((3, 3))]
    first = span_basis(mats)
    second = span_basis(list(first))
    cmp = subspace_equal(first, second)
    assert cmp.equal and cmp.deviation < 1e-12


def test_subspace_equal_cases():
    e0 = np.zeros((2, 2), dtype=complex)
    e0[0, 0] = 1.0
    e1 = np.zeros((2, 2), dtype=complex)
    e1[1, 1] = 1.0
    same = subspace_equal(span_basis([e0]), span_basis([e0]))
    assert same.equal and same.deviation == 0.0
    assert not subspace_equal(span_basis([e0]), span_basis([e1])).equal
    diagonals = span_basis([e0, e1])
    everything = span_basis([random_matrix(2) for _ in range(6)])
    assert everything.shape[0] == 4
    assert not subspace_equal(diagonals, everything).equal


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
    np.testing.assert_array_equal(random_element(np.random.default_rng(6), basis),
                                  np.einsum("k,kab->ab", coeffs, basis))
