"""Engine tests: pentagon, slice-algebra generation, comultiplications,
invariance, antipodes, sharp, GNS duality and the double-dual span check,
exercised on group models (exact) and on generic dense unitaries (derived)."""

import gc
import tracemalloc
import weakref

import numpy as np
import pytest

from qgft import groups, models
from qgft.cli import parse_group_spec
from qgft.engine import (
    ClosureFailure,
    InconsistentSlices,
    MultiplicativeUnitary,
    QuantumGroupPair,
    SharpFunctional,
    SingularAntipode,
    Weight,
    WeightDerivationError,
    antipode_from_slices,
    antipode_hat_from_slices,
    check_antipode,
    check_coassociativity,
    check_gns_consistency,
    check_gns_duality_phihat,
    check_gns_duality_phihatdual,
    check_left_invariance,
    check_pentagon,
    check_right_invariance,
    check_sharp_involution,
    check_slice_product_laws,
    comultiply,
    derive_haar_vectors,
    dual_comultiply,
    generate_M,
    generate_Mhat,
    lam,
    lam_hat,
    pair_from_unitary,
    pontryagin_check,
    sharp,
    slice_family_leg1,
    slice_family_leg2,
    slice_span_m,
    slice_span_mhat,
)
from qgft.fourier import inverse_fourier
from qgft.linalg import (
    Functional,
    flip,
    kron,
    leg_embed,
    matrix_unit_functional,
    membership_residual,
    slice_left,
    slice_right,
    span_basis,
    subspace_equal,
)

RNG = np.random.default_rng(11)


def model(group):
    return models.build(group)


def z2():
    return model(groups.cyclic(2))


# ---------------------------------------------------------------- pentagon

def test_pentagon_identity_passes():
    report = check_pentagon(MultiplicativeUnitary.from_dense(np.eye(4)))
    assert report.passed and report.deviation == 0.0


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


def test_dense_pentagon_dimension_cap():
    mu = MultiplicativeUnitary.from_dense(np.eye(13 * 13))
    with pytest.raises(ValueError, match="n <= 12"):
        check_pentagon(mu)


def random_unitary(rng, dim):
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, _ = np.linalg.qr(z)
    return q


@pytest.mark.parametrize("n", [2, 3, 4])
def test_dense_pentagon_deviation_matches_leg_embeddings(n):
    # a random unitary violates the pentagon by O(1) in scattered entries;
    # the contraction must report the same worst entry as the embedded product
    w = random_unitary(np.random.default_rng(100 + n), n * n)
    brute = np.max(np.abs(leg_embed(w, 12, n) @ leg_embed(w, 13, n) @ leg_embed(w, 23, n)
                          - leg_embed(w, 23, n) @ leg_embed(w, 12, n)))
    report = check_pentagon(MultiplicativeUnitary.from_dense(w))
    assert not report.passed
    assert report.deviation == pytest.approx(brute, abs=1e-13)


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
    leg1, leg2 = slice_family_leg1(w, n), slice_family_leg2(w, n)
    for i in range(n):
        for j in range(n):
            unit = matrix_unit_functional(n, i, j)
            np.testing.assert_array_equal(leg1[i * n + j], slice_left(unit, w))
            np.testing.assert_array_equal(leg2[i * n + j], slice_right(unit, w))


def test_generate_z2_spans():
    qg = z2().qg
    m = generate_M(qg.mu)
    assert m.shape[0] == 2
    diagonals = span_basis([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])])
    assert subspace_equal(m, diagonals).equal

    mhat = generate_Mhat(qg.mu)
    assert mhat.shape[0] == 2
    swap = np.array([[0.0, 1.0], [1.0, 0.0]])
    group_algebra = span_basis([np.eye(2), swap])
    assert subspace_equal(mhat, group_algebra).equal


def test_generate_identity_w_gives_scalars():
    mu = MultiplicativeUnitary.from_dense(np.eye(9))
    assert generate_M(mu).shape[0] == 1
    assert generate_Mhat(mu).shape[0] == 1


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
    with pytest.raises(ClosureFailure):
        generate_M(mu)


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
        primal = check_coassociativity(qg.m_basis, qg.delta)
        dual = check_coassociativity(qg.mhat_basis, qg.dual.delta)
        assert primal.passed and primal.deviation <= 1e-12
        assert dual.passed and dual.deviation <= 1e-12


def test_coassociativity_coefficient_route_matches_dense():
    # the dense tensor-cube identity, cross-validating the coefficient route
    qg = model(groups.cyclic(3)).qg
    n = 3
    for x in qg.m_basis:
        dx = qg.delta(x)
        w12 = kron(qg.w, np.eye(n))
        lhs = w12.conj().T @ kron(np.eye(n), dx) @ w12
        w23 = kron(np.eye(n), qg.w)
        swap23 = kron(np.eye(n), flip(n))
        embed13 = swap23 @ kron(dx, np.eye(n)) @ swap23
        rhs = w23.conj().T @ embed13 @ w23
        np.testing.assert_allclose(lhs, rhs, atol=1e-12)


# ------------------------------------------------------------- invariance

def test_left_invariance_models():
    for g in [groups.cyclic(1), groups.cyclic(3), groups.dihedral(3)]:
        qg = model(g).qg
        assert check_left_invariance(qg.phi, qg.delta, qg.m_basis).passed
        assert check_left_invariance(qg.phihat, qg.dual.delta, qg.mhat_basis).passed


def test_right_invariance_models():
    for g in [groups.cyclic(4), groups.symmetric(3)]:
        qg = model(g).qg
        psi = qg.s_mat.T @ qg.phi.values_on(qg.m_basis)
        assert check_right_invariance(psi, qg.delta, qg.m_basis).passed


def test_left_invariance_fails_for_wrong_vector():
    qg = z2().qg
    wrong = Weight(np.array([1.0, 0.0]))  # evaluation at one point is not Haar
    report = check_left_invariance(wrong, qg.delta, qg.m_basis)
    assert not report.passed


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


def test_singular_antipode_raises():
    qg = z2().qg
    broken = QuantumGroupPair(qg.mu, qg.m_basis, qg.mhat_basis, qg.phi, qg.phihat,
                              np.zeros((2, 2)), qg.shat_mat)
    with pytest.raises(SingularAntipode):
        broken.s_inv_mat


# ------------------------------------------------------------------- sharp

def test_sharp_identity_evaluation_z2():
    qg = z2().qg
    omega = matrix_unit_functional(2, 0, 0)  # evaluation at the identity element
    out = sharp(omega, qg.s_mat, qg.m_basis)
    vals = [omega(x) for x in qg.m_basis]
    vals_sharp = [out(x) for x in qg.m_basis]
    np.testing.assert_allclose(vals, vals_sharp, atol=1e-14)


def test_sharp_delta_evaluation_moves_to_inverse():
    g = groups.cyclic(3)
    qg = model(g).qg
    omega = matrix_unit_functional(3, 1, 1)  # delta evaluation at g = 1
    out = sharp(omega, qg.s_mat, qg.m_basis)
    e22 = np.zeros((3, 3)); e22[2, 2] = 1.0  # inverse of 1 is 2 in Z/3
    assert out(e22) == pytest.approx(1.0)
    e11 = np.zeros((3, 3)); e11[1, 1] = 1.0
    assert out(e11) == pytest.approx(0.0)


def test_sharp_involution_check():
    for g in [groups.cyclic(4), groups.symmetric(3)]:
        qg = model(g).qg
        rng = np.random.default_rng(3)
        assert check_sharp_involution(qg, rng, samples=10).passed


def test_sharp_functional_bundle():
    qg = model(groups.cyclic(4)).qg
    density = RNG.standard_normal((4, 4)) + 1j * RNG.standard_normal((4, 4))
    bundle = SharpFunctional.of(Functional(density), qg.s_mat, qg.m_basis)
    assert bundle.adjoint_deviation(qg.mu) < 1e-12
    twice = SharpFunctional.of(bundle.omega_sharp, qg.s_mat, qg.m_basis)
    vals = [bundle.omega(x) for x in qg.m_basis]
    vals_twice = [twice.omega_sharp(x) for x in qg.m_basis]
    np.testing.assert_allclose(vals, vals_twice, atol=1e-12)


def test_canonical_embeddings_land_in_the_algebras():
    qg = model(groups.symmetric(3)).qg
    density = RNG.standard_normal((6, 6)) + 1j * RNG.standard_normal((6, 6))
    omega = Functional(density)
    assert membership_residual(lam(qg.mu, omega), qg.mhat_basis) < 1e-12
    assert membership_residual(lam_hat(qg.mu, omega), qg.m_basis) < 1e-12


# ------------------------------------------------- GNS and duality relations

def test_gns_consistency_models():
    for g in [groups.cyclic(2), groups.cyclic(5), groups.dihedral(3)]:
        assert check_gns_consistency(model(g).qg).passed


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
        assert check_slice_product_laws(qg, rng, samples=3).passed


# ------------------------------------------------------------- pontryagin

def test_pontryagin_models():
    for g in [groups.cyclic(1), groups.cyclic(2), groups.symmetric(3)]:
        qg = model(g).qg
        report = pontryagin_check(qg.mu, qg.m_basis, qg.mhat_basis)
        assert report.passed and report.deviation <= 1e-10


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
    assert subspace_equal(qg.m_basis, mdl.qg.m_basis).equal
    assert subspace_equal(qg.mhat_basis, mdl.qg.mhat_basis).equal
    assert check_gns_consistency(qg).passed
    assert check_gns_duality_phihat(qg).passed
    assert check_gns_duality_phihatdual(qg).passed
    assert check_left_invariance(qg.phi, qg.delta, qg.m_basis).passed
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
    assert subspace_equal(qg.m_basis, transported).equal


def test_pair_from_dual_unitary_noncommutative_side():
    # Sigma W^* Sigma carries the dual quantum group; for a nonabelian group
    # its primary algebra is the (noncommutative) group von Neumann algebra
    mdl = model(groups.symmetric(3))
    sigma = flip(6)
    qg = pair_from_unitary(sigma @ mdl.qg.w.conj().T @ sigma)
    assert subspace_equal(qg.m_basis, mdl.qg.mhat_basis).equal
    assert subspace_equal(qg.mhat_basis, mdl.qg.m_basis).equal
    products = [qg.m_basis[1] @ qg.m_basis[2], qg.m_basis[2] @ qg.m_basis[1]]
    assert np.max(np.abs(products[0] - products[1])) > 1e-6
    assert check_gns_consistency(qg).passed
    assert check_left_invariance(qg.phi, qg.delta, qg.m_basis).passed


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


@pytest.mark.parametrize("side", ["pair", "dual"])
def test_w_adj_is_fortran_ordered(side):
    # np.einsum sums in layout order: a C-ordered W^* moved the s4
    # slice-product-laws deviation from 6.03e-14 to 7.25e-14, so the
    # reproducible suite reports depend on this layout
    qg = model(groups.symmetric(3)).qg
    qg = qg if side == "pair" else qg.dual
    assert qg.w_adj.flags.f_contiguous and not qg.w_adj.flags.c_contiguous


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
        assert qg.w_membership_residual < 1e-12


def test_membership_helpers():
    qg = z2().qg
    assert membership_residual(np.diag([1.0, 2.0]), qg.m_basis) < 1e-14
    off = np.zeros((2, 2)); off[0, 1] = 1.0
    assert membership_residual(off, qg.m_basis) == pytest.approx(1.0)
