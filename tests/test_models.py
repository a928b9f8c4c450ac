"""Group model tests: structured W, embeddings, Haar weights, involutions,
and the abelian DFT oracle against brute-force eigendecomposition."""

import json

import numpy as np
import pytest

from qgft import groups, models
from qgft.fourier import fourier
from qgft.groups import NonAbelianInput, characters
from qgft.linalg import kron, subspace_equal

RNG = np.random.default_rng(31)


def random_function(n):
    return RNG.standard_normal(n) + 1j * RNG.standard_normal(n)


# ---------------------------------------------------------------- structure

def test_trivial_group_model():
    mdl = models.build(groups.cyclic(1))
    assert mdl.n == 1
    assert mdl.qg.w.shape == (1, 1)
    assert mdl.qg.m_basis.shape == (1, 1, 1)


def test_z2_w_matrix():
    mdl = models.build(groups.cyclic(2))
    expected = np.zeros((4, 4))
    expected[0, 0] = expected[1, 1] = 1.0  # fixes (0,0), (0,1)
    expected[3, 2] = expected[2, 3] = 1.0  # swaps the e1-sector per t -> 1+t
    np.testing.assert_array_equal(mdl.qg.w.real, expected)


def test_w_unitary_and_pentagon_exact():
    for g in [groups.cyclic(6), groups.dihedral(4), groups.symmetric(4)]:
        mu = models.build(g).qg.mu
        assert mu.unitarity_deviation() == 0.0
        from qgft.engine import check_pentagon
        report = check_pentagon(mu)
        assert report.passed and report.deviation == 0.0


def test_span_dimensions_s3():
    mdl = models.build(groups.symmetric(3))
    assert mdl.qg.m_basis.shape[0] == 6
    assert mdl.qg.mhat_basis.shape[0] == 6
    diagonals = np.zeros((6, 6, 6), dtype=complex)
    diagonals[np.arange(6), np.arange(6), np.arange(6)] = 1.0
    assert subspace_equal(mdl.qg.m_basis, diagonals) <= 1e-10


def test_haar_weight_values():
    for g in [groups.cyclic(5), groups.symmetric(3)]:
        mdl = models.build(g)
        a = random_function(g.order)
        assert mdl.qg.phi.value(models.pi(mdl, a)) == pytest.approx(np.sum(a))
        b = random_function(g.order)
        assert mdl.qg.phihat.value(models.L(mdl, b)) == pytest.approx(b[g.identity])


def test_phihat_equals_corner_entry_and_normalized_trace():
    # on the group algebra, phihat(y) = y[e, e] = trace(y)/n
    g = groups.dihedral(3)
    mdl = models.build(g)
    y = models.L(mdl, random_function(g.order))
    e = g.identity
    val = mdl.qg.phihat.value(y)
    assert val == pytest.approx(y[e, e])
    assert val == pytest.approx(np.trace(y) / g.order)


def test_antipodes_squared_identity_exactly():
    for g in [groups.cyclic(8), groups.dihedral(4), groups.symmetric(4)]:
        qg = models.build(g).qg
        np.testing.assert_array_equal(qg.s_mat @ qg.s_mat, np.eye(g.order))
        np.testing.assert_array_equal(qg.shat_mat @ qg.shat_mat, np.eye(g.order))


# --------------------------------------------------------------- embeddings

def test_pi_all_ones_is_identity():
    mdl = models.build(groups.cyclic(3))
    np.testing.assert_array_equal(models.pi(mdl, np.ones(3)), np.eye(3))


def test_L_z2_generator_is_swap():
    mdl = models.build(groups.cyclic(2))
    np.testing.assert_array_equal(models.L(mdl, [0.0, 1.0]),
                                  np.array([[0.0, 1.0], [1.0, 0.0]]))


def test_L_z3_generator_is_cyclic_shift():
    mdl = models.build(groups.cyclic(3))
    out = models.L(mdl, [0.0, 1.0, 0.0])
    # left translation by the generator: e_x -> e_{x+1}
    expected = np.zeros((3, 3))
    for x in range(3):
        expected[(x + 1) % 3, x] = 1.0
    np.testing.assert_array_equal(out, expected)


def test_L_is_group_homomorphism_on_deltas():
    g = groups.symmetric(3)
    mdl = models.build(g)
    for s in range(6):
        for t in range(6):
            ds = np.zeros(6); ds[s] = 1.0
            dt = np.zeros(6); dt[t] = 1.0
            dst = np.zeros(6); dst[g.multiply(s, t)] = 1.0
            np.testing.assert_allclose(models.L(mdl, ds) @ models.L(mdl, dt),
                                       models.L(mdl, dst), atol=1e-14)


def test_function_length_mismatch():
    mdl = models.build(groups.cyclic(3))
    with pytest.raises(ValueError, match="length"):
        models.pi(mdl, [1.0, 2.0])
    with pytest.raises(ValueError, match="length"):
        models.L(mdl, [1.0, 2.0, 3.0, 4.0])


def test_function_extraction_roundtrip():
    g = groups.dihedral(3)
    mdl = models.build(g)
    a = random_function(6)
    np.testing.assert_allclose(models.pi_function(mdl, models.pi(mdl, a)), a)
    np.testing.assert_allclose(models.L_function(mdl, models.L(mdl, a)), a)


# -------------------------------------------------------------- involutions

def test_star_real_function_fixed():
    a = np.array([1.0, 2.0, 3.0])
    np.testing.assert_array_equal(models.pointwise_star(a), a)


def test_star_z2_frozen():
    mdl = models.build(groups.cyclic(2))
    out = models.convolution_star(mdl, [1.0j, 2.0])
    np.testing.assert_allclose(out, [-1.0j, 2.0])


def test_star_z3_delta_moves_to_inverse():
    mdl = models.build(groups.cyclic(3))
    delta1 = np.zeros(3); delta1[1] = 1.0
    out = models.convolution_star(mdl, delta1)
    expected = np.zeros(3); expected[2] = 1.0
    np.testing.assert_array_equal(out, expected)


def test_stars_implement_adjoints():
    g = groups.symmetric(3)
    mdl = models.build(g)
    a, b = random_function(6), random_function(6)
    np.testing.assert_allclose(models.pi(mdl, a).conj().T,
                               models.pi(mdl, models.pointwise_star(a)), atol=1e-14)
    np.testing.assert_allclose(models.L(mdl, b).conj().T,
                               models.L(mdl, models.convolution_star(mdl, b)), atol=1e-14)


# ------------------------------------------------------------- convolution

def test_classical_convolution_matches_loop_oracle():
    g = groups.dihedral(3)
    a, c = random_function(6), random_function(6)
    out = models.classical_convolution(g, a, c)
    expected = np.zeros(6, dtype=complex)
    for y in range(6):
        for x in range(6):
            expected[y] += a[x] * c[g.multiply(g.inverse(x), y)]
    np.testing.assert_allclose(out, expected, atol=1e-13)


# -------------------------------------------------------------- DFT oracle

def test_dft_z2_delta_identity():
    mdl = models.build(groups.cyclic(2))
    cmp = models.dft_compare(mdl, [1.0, 0.0])
    np.testing.assert_allclose(sorted(cmp.diagonal.real), [1.0, 1.0], atol=1e-12)
    assert cmp.deviation <= 1e-12


def test_dft_z2_generator_eigenvalues():
    mdl = models.build(groups.cyclic(2))
    cmp = models.dft_compare(mdl, [0.0, 1.0])
    np.testing.assert_allclose(sorted(cmp.diagonal.real), [-1.0, 1.0], atol=1e-12)
    assert cmp.deviation <= 1e-12


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7, 8])
def test_dft_cyclic_random_against_eigendecomposition(n):
    mdl = models.build(groups.cyclic(n))
    a = random_function(n)
    cmp = models.dft_compare(mdl, a)
    assert cmp.offdiagonal_deviation <= 1e-10
    assert cmp.diagonal_deviation <= 1e-10
    # independent eigen-oracle on L_a
    eigs = np.linalg.eigvals(models.L(mdl, a))
    matched = models._multiset_deviation(cmp.diagonal, eigs)
    assert matched <= 1e-10


def test_dft_matches_character_sums_product_group():
    g = groups.direct_product(groups.cyclic(2), groups.cyclic(4))
    mdl = models.build(g)
    a = random_function(8)
    cmp = models.dft_compare(mdl, a)
    chars = characters(g)
    np.testing.assert_allclose(cmp.character_sums, chars.conj() @ a, atol=1e-12)
    assert cmp.deviation <= 1e-10


def test_dft_diagonalizes_the_transform():
    # the conjugated operator is exactly the transformed multiplication operator
    g = groups.cyclic(5)
    mdl = models.build(g)
    a = random_function(5)
    fa = fourier(mdl.qg, models.pi(mdl, a))
    chars = characters(g)
    u = chars / np.sqrt(5)
    conjugated = u @ fa @ u.conj().T
    np.testing.assert_allclose(conjugated, np.diag(np.diagonal(conjugated)), atol=1e-10)


def test_dft_rejects_non_abelian():
    mdl = models.build(groups.symmetric(3))
    with pytest.raises(NonAbelianInput):
        models.dft_compare(mdl, random_function(6))


# ---------------------------------------------------------------- file I/O

def test_function_json_roundtrip(tmp_path):
    values = random_function(4)
    path = tmp_path / "f.json"
    path.write_text(json.dumps(models.function_to_json(values)))
    loaded = models.load_function(path, 4)
    np.testing.assert_allclose(loaded, values, atol=1e-15)


def test_function_json_length_check(tmp_path):
    path = tmp_path / "f.json"
    path.write_text(json.dumps({"values": [[1.0, 0.0]]}))
    with pytest.raises(ValueError, match="length"):
        models.load_function(path, 3)


def test_w_tensor_decomposition():
    # W = sum_s E_ss (x) L_{delta_s}: the structured form against Kronecker sums
    g = groups.cyclic(3)
    mdl = models.build(g)
    expected = np.zeros((9, 9), dtype=complex)
    for s in range(3):
        e_ss = np.zeros((3, 3)); e_ss[s, s] = 1.0
        delta_s = np.zeros(3); delta_s[s] = 1.0
        expected += kron(e_ss, models.L(mdl, delta_s))
    np.testing.assert_array_equal(mdl.qg.w, expected)
