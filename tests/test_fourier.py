"""Fourier transform, inversion, Plancherel, convolutions and the dual
pairing, checked against the classical finite-group formulas computed by
independent brute-force oracles."""

import tracemalloc
from functools import cached_property

import numpy as np
import pytest

from qgft import fourier as ft
from qgft import groups, models
from qgft.engine import NotInAlgebra, QuantumGroupPair, pair_from_unitary
from qgft.fourier import (
    check_convolution,
    check_ft_pairing,
    check_inversion,
    check_pairing,
    check_pairing_axioms,
    check_plancherel,
    convolve,
    convolve_direct,
    convolve_dual,
    convolve_dual_direct,
    fourier,
    inverse_fourier,
    pairing,
)
from qgft.linalg import DEFAULT_TOL, deviation, kron, random_complex
from qgft.verify import run_suite

RNG = np.random.default_rng(23)


def model(group):
    return models.build(group)


def random_function(n):
    return RNG.standard_normal(n) + 1j * RNG.standard_normal(n)


def conv_oracle(group, a, c):
    """(a * c)(y) = sum_x a(x) c(x^{-1} y), by explicit loops."""
    n = group.order
    out = np.zeros(n, dtype=complex)
    for y in range(n):
        for x in range(n):
            out[y] += a[x] * c[group.multiply(group.inverse(x), y)]
    return out


# ---------------------------------------------------------------- transform

def test_fourier_delta_at_identity_is_one():
    mdl = model(groups.cyclic(2))
    out = fourier(mdl.qg, np.diag([1.0, 0.0]))
    np.testing.assert_allclose(out, np.eye(2), atol=1e-13)


def test_fourier_delta_at_generator_is_shift():
    mdl = model(groups.cyclic(2))
    out = fourier(mdl.qg, np.diag([0.0, 1.0]))
    np.testing.assert_allclose(out, np.array([[0.0, 1.0], [1.0, 0.0]]), atol=1e-13)


@pytest.mark.parametrize("group", [groups.cyclic(3), groups.cyclic(6),
                                   groups.dihedral(3), groups.symmetric(3)])
def test_fourier_is_left_regular_representation(group):
    mdl = model(group)
    for _ in range(5):
        a = random_function(group.order)
        np.testing.assert_allclose(fourier(mdl.qg, models.pi(mdl, a)),
                                   models.L(mdl, a), atol=1e-12)


def test_inverse_fourier_of_identity():
    mdl = model(groups.cyclic(2))
    out = inverse_fourier(mdl.qg, np.eye(2))
    np.testing.assert_allclose(out, np.diag([1.0, 0.0]), atol=1e-13)


@pytest.mark.parametrize("group", [groups.cyclic(4), groups.symmetric(3)])
def test_inverse_fourier_is_multiplication_operator(group):
    mdl = model(group)
    for _ in range(5):
        b = random_function(group.order)
        np.testing.assert_allclose(inverse_fourier(mdl.qg, models.L(mdl, b)),
                                   models.pi(mdl, b), atol=1e-12)


def test_inversion_random_elements_s3():
    mdl = model(groups.symmetric(3))
    for _ in range(10):
        a = models.pi(mdl, random_function(6))
        np.testing.assert_allclose(inverse_fourier(mdl.qg, fourier(mdl.qg, a)), a,
                                   atol=1e-11)


@pytest.mark.parametrize("group", [groups.cyclic(1), groups.cyclic(6),
                                   groups.dihedral(3)])
def test_check_inversion(group):
    report = check_inversion(model(group).qg)
    assert report.passed and report.deviation <= 1e-10


def test_fourier_rejects_off_algebra_input():
    mdl = model(groups.cyclic(2))
    off_diagonal = np.array([[0.0, 1.0], [0.0, 0.0]])
    with pytest.raises(NotInAlgebra):
        fourier(mdl.qg, off_diagonal)
    with pytest.raises(NotInAlgebra):
        inverse_fourier(mdl.qg, np.diag([1.0, 2.0]))


def test_fourier_linearity():
    mdl = model(groups.dihedral(2))
    a, c = random_function(4), random_function(4)
    z = complex(RNG.standard_normal() + 1j * RNG.standard_normal())
    lhs = fourier(mdl.qg, models.pi(mdl, a + z * c))
    rhs = fourier(mdl.qg, models.pi(mdl, a)) + z * fourier(mdl.qg, models.pi(mdl, c))
    np.testing.assert_allclose(lhs, rhs, atol=1e-12)


def test_inverse_fourier_linearity():
    mdl = model(groups.cyclic(5))
    b, d = models.L(mdl, random_function(5)), models.L(mdl, random_function(5))
    z = complex(RNG.standard_normal() + 1j * RNG.standard_normal())
    lhs = inverse_fourier(mdl.qg, b + z * d)
    rhs = inverse_fourier(mdl.qg, b) + z * inverse_fourier(mdl.qg, d)
    np.testing.assert_allclose(lhs, rhs, atol=1e-12)


def test_convolution_linear_in_each_slot():
    mdl = model(groups.symmetric(3))
    a1, a2, c = (models.pi(mdl, random_function(6)) for _ in range(3))
    z = complex(RNG.standard_normal() + 1j * RNG.standard_normal())
    np.testing.assert_allclose(convolve(mdl.qg, a1 + z * a2, c),
                               convolve(mdl.qg, a1, c) + z * convolve(mdl.qg, a2, c),
                               atol=1e-11)
    np.testing.assert_allclose(convolve(mdl.qg, c, a1 + z * a2),
                               convolve(mdl.qg, c, a1) + z * convolve(mdl.qg, c, a2),
                               atol=1e-11)


# ------------------------------------------------------------ GNS transport

@pytest.mark.parametrize("group", [groups.cyclic(2), groups.cyclic(5),
                                   groups.symmetric(3)])
def test_gns_transport(group):
    report = check_plancherel(model(group).qg)
    assert report.passed and report.deviation <= 1e-10


def test_fourier_report_vectors():
    mdl = model(groups.cyclic(3))
    a = random_function(3)
    qg, pi_a, l_a = mdl.qg, models.pi(mdl, a), models.L(mdl, a)
    # Lambda(pi_a) is the function itself; Lambda_hat(L_a) likewise
    gns_in, gns_out = qg.phi.gns(pi_a), qg.phihat.gns(fourier(qg, pi_a))
    np.testing.assert_allclose(gns_in, a, atol=1e-13)
    np.testing.assert_allclose(gns_out, a, atol=1e-12)
    assert deviation(gns_out, gns_in) <= 1e-12
    assert deviation(qg.phi.gns(inverse_fourier(qg, l_a)), qg.phihat.gns(l_a)) <= 1e-12


def test_plancherel_as_isometry():
    mdl = model(groups.dihedral(3))
    for _ in range(5):
        a = models.pi(mdl, random_function(6))
        assert np.linalg.norm(mdl.qg.phihat.gns(fourier(mdl.qg, a))) == pytest.approx(
            np.linalg.norm(mdl.qg.phi.gns(a)), abs=1e-11)


# --------------------------------------------------------------- plancherel

def plancherel_sides(qg, a):
    """phihat(F(a)^* F(a)) and phi(a^* a)."""
    a = np.asarray(a, dtype=complex)
    fa = fourier(qg, a)
    return qg.phihat.value(fa.conj().T @ fa), qg.phi.value(a.conj().T @ a)


def test_plancherel_z3_frozen_value():
    mdl = model(groups.cyclic(3))
    lhs, rhs = plancherel_sides(mdl.qg, models.pi(mdl, [1.0, 2.0j, -1.0]))
    assert rhs == pytest.approx(6.0, abs=1e-12)   # 1 + 4 + 1
    assert lhs == pytest.approx(6.0, abs=1e-12)


def test_plancherel_zero():
    mdl = model(groups.cyclic(3))
    lhs, rhs = plancherel_sides(mdl.qg, np.zeros((3, 3)))
    assert lhs == 0 and rhs == 0


def test_plancherel_z2_ones():
    mdl = model(groups.cyclic(2))
    lhs, rhs = plancherel_sides(mdl.qg, models.pi(mdl, [1.0, 1.0]))
    assert lhs == pytest.approx(2.0, abs=1e-12)
    assert rhs == pytest.approx(2.0, abs=1e-12)


@pytest.mark.parametrize("group", [groups.cyclic(7), groups.symmetric(3)])
def test_plancherel_matches_norm_squared(group):
    mdl = model(group)
    for _ in range(10):
        a = random_function(group.order)
        lhs, _ = plancherel_sides(mdl.qg, models.pi(mdl, a))
        assert lhs == pytest.approx(np.sum(np.abs(a) ** 2), abs=1e-10)
        assert abs(lhs.imag) < 1e-12 and lhs.real >= 0
    report = check_plancherel(mdl.qg)
    assert report.passed and report.deviation <= 1e-10


def test_plancherel_catches_a_norm_preserving_wrong_transform():
    # F followed by a random unitary of M's coordinates keeps every norm
    # ||Lambda_hat(F(a))|| = ||Lambda(a)||, but not the GNS vectors themselves
    qg = model(groups.symmetric(3)).qg
    qg = QuantumGroupPair(qg.mu, qg.m_basis, qg.mhat_basis, qg.phi, qg.phihat,
                          qg.s_mat, qg.shat_mat)
    m = len(qg.m_basis)
    u, _ = np.linalg.qr(random_complex(np.random.default_rng(3), (m, m)))
    qg.fourier_table = u @ qg.fourier_table   # sets the cached property's value
    for a in qg.m_basis:
        lhs, rhs = plancherel_sides(qg, a)
        assert lhs == pytest.approx(rhs, abs=1e-12)
    report = check_plancherel(qg)
    assert not report.passed
    assert report.deviation == pytest.approx(1.56, abs=0.01)


# -------------------------------------------------------------- convolution

def test_convolve_z2_frozen():
    mdl = model(groups.cyclic(2))
    out = convolve(mdl.qg, models.pi(mdl, [1.0, 2.0]), models.pi(mdl, [3.0, 4.0]))
    np.testing.assert_allclose(np.diagonal(out), [11.0, 10.0], atol=1e-12)


def test_convolve_delta_identity_is_unit():
    mdl = model(groups.symmetric(3))
    c = random_function(6)
    delta_e = np.zeros(6); delta_e[mdl.group.identity] = 1.0
    out = convolve(mdl.qg, models.pi(mdl, delta_e), models.pi(mdl, c))
    np.testing.assert_allclose(np.diagonal(out), c, atol=1e-12)


def test_convolve_uniform_z3():
    mdl = model(groups.cyclic(3))
    ones = models.pi(mdl, [1.0, 1.0, 1.0])
    out = convolve(mdl.qg, ones, ones)
    np.testing.assert_allclose(np.diagonal(out), [3.0, 3.0, 3.0], atol=1e-12)


def test_convolve_direct_same_outputs():
    mdl = model(groups.cyclic(2))
    a, c = models.pi(mdl, [1.0, 2.0]), models.pi(mdl, [3.0, 4.0])
    np.testing.assert_allclose(np.diagonal(convolve_direct(mdl.qg, a, c)),
                               [11.0, 10.0], atol=1e-12)
    out = convolve_direct(mdl.qg, models.pi(mdl, [1.0, 0.0]), models.pi(mdl, [0.0, 1.0]))
    np.testing.assert_allclose(np.diagonal(out), [0.0, 1.0], atol=1e-13)


def test_convolve_trivial_group_is_scalar_product():
    mdl = model(groups.cyclic(1))
    out = convolve_direct(mdl.qg, np.array([[3.0]]), np.array([[5.0]]))
    np.testing.assert_allclose(out, [[15.0]], atol=1e-13)


@pytest.mark.parametrize("group", [groups.cyclic(5), groups.dihedral(3),
                                   groups.symmetric(3)])
def test_convolution_matches_classical_oracle(group):
    mdl = model(group)
    for _ in range(5):
        a, c = random_function(group.order), random_function(group.order)
        out = convolve(mdl.qg, models.pi(mdl, a), models.pi(mdl, c))
        np.testing.assert_allclose(np.diagonal(out), conv_oracle(group, a, c),
                                    atol=1e-10)
        direct = convolve_direct(mdl.qg, models.pi(mdl, a), models.pi(mdl, c))
        np.testing.assert_allclose(out, direct, atol=1e-10)


def test_convolve_dual_pointwise_frozen():
    mdl = model(groups.cyclic(2))
    out = convolve_dual(mdl.qg, models.L(mdl, [5.0, 7.0]), models.L(mdl, [2.0, 3.0]))
    np.testing.assert_allclose(models.L_function(mdl, out), [10.0, 21.0], atol=1e-12)


def test_convolve_dual_constant_one_is_unit():
    mdl = model(groups.cyclic(4))
    b = random_function(4)
    out = convolve_dual(mdl.qg, models.L(mdl, b), models.L(mdl, np.ones(4)))
    np.testing.assert_allclose(models.L_function(mdl, out), b, atol=1e-12)


def test_convolve_dual_routes_agree_z4():
    mdl = model(groups.cyclic(4))
    for _ in range(5):
        b, d = models.L(mdl, random_function(4)), models.L(mdl, random_function(4))
        np.testing.assert_allclose(convolve_dual(mdl.qg, b, d),
                                   convolve_dual_direct(mdl.qg, b, d), atol=1e-10)


def test_convolve_dual_pointwise_nonabelian():
    mdl = model(groups.symmetric(3))
    fb, fd = random_function(6), random_function(6)
    out = convolve_dual(mdl.qg, models.L(mdl, fb), models.L(mdl, fd))
    np.testing.assert_allclose(models.L_function(mdl, out), fb * fd, atol=1e-10)


# ------------------------------------------------------------------ pairing

def test_pairing_z2_frozen():
    mdl = model(groups.cyclic(2))
    value = pairing(mdl.qg, models.L(mdl, [3.0, 4.0]), models.pi(mdl, [1.0, 2.0]))
    assert value.via_inverse == pytest.approx(11.0, abs=1e-12)
    assert value.via_forward == pytest.approx(11.0, abs=1e-12)
    assert value.via_w == pytest.approx(11.0, abs=1e-12)
    assert value.spread <= 1e-12


def test_pairing_zero():
    mdl = model(groups.cyclic(2))
    value = pairing(mdl.qg, models.L(mdl, [3.0, 4.0]), np.zeros((2, 2)))
    assert abs(value.via_inverse) < 1e-14 and value.spread < 1e-14


def test_pairing_deltas_disjoint_support():
    mdl = model(groups.cyclic(3))
    da = np.zeros(3); da[1] = 1.0
    db = np.zeros(3); db[2] = 1.0
    value = pairing(mdl.qg, models.L(mdl, db), models.pi(mdl, da))
    assert abs(value.via_inverse) < 1e-12
    same = pairing(mdl.qg, models.L(mdl, da), models.pi(mdl, da))
    assert same.via_inverse == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("group", [groups.cyclic(6), groups.dihedral(3),
                                   groups.symmetric(3)])
def test_pairing_equals_group_sum(group):
    mdl = model(group)
    for _ in range(10):
        fa, fb = random_function(group.order), random_function(group.order)
        value = pairing(mdl.qg, models.L(mdl, fb), models.pi(mdl, fa))
        expected = complex(np.sum(fa * fb))
        assert value.via_inverse == pytest.approx(expected, abs=1e-10)
        assert value.spread <= 1e-10


def test_pairing_bilinear():
    mdl = model(groups.cyclic(3))
    fa1, fa2, fb1, fb2 = (random_function(3) for _ in range(4))
    z = complex(RNG.standard_normal() + 1j * RNG.standard_normal())
    b = models.L(mdl, fb1)
    lhs = pairing(mdl.qg, b, models.pi(mdl, fa1 + z * fa2)).via_inverse
    rhs = pairing(mdl.qg, b, models.pi(mdl, fa1)).via_inverse \
        + z * pairing(mdl.qg, b, models.pi(mdl, fa2)).via_inverse
    assert lhs == pytest.approx(rhs, abs=1e-11)
    a = models.pi(mdl, fa1)
    lhs = pairing(mdl.qg, models.L(mdl, fb1 + z * fb2), a).via_inverse
    rhs = pairing(mdl.qg, models.L(mdl, fb1), a).via_inverse \
        + z * pairing(mdl.qg, models.L(mdl, fb2), a).via_inverse
    assert lhs == pytest.approx(rhs, abs=1e-11)


def test_pairing_axioms_trivial_group():
    qg = model(groups.cyclic(1)).qg
    report = check_pairing_axioms(qg)
    assert report.passed and report.deviation <= 1e-12


@pytest.mark.parametrize("group", [groups.cyclic(4), groups.symmetric(3)])
def test_pairing_axioms(group):
    qg = model(group).qg
    report = check_pairing_axioms(qg)
    assert report.passed and report.deviation <= 1e-10


def test_pairing_axioms_hold_one_layout_of_w_at_a_time():
    # an n^4 array of s4 is 5.1 MiB: W's layout for its coefficients and each
    # stack of basis products (m^2 n^2 entries) are held one at a time
    qg = model(groups.symmetric(4)).qg
    check_pairing_axioms(qg)
    tracemalloc.start()
    try:
        report = check_pairing_axioms(qg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.passed
    assert peak <= 9 * 2 ** 20


@pytest.mark.parametrize("group", [groups.cyclic(4), groups.symmetric(3)])
def test_pairing_routes_agree(group):
    report = check_pairing(model(group).qg)
    assert report.passed and report.deviation <= 1e-10


def ft_pairing_gap(qg, a, b):
    """|<b|a> - <Lambda_hat(b), Lambda(a^*)>|, the inner product linear in its first slot."""
    a, b = np.asarray(a, dtype=complex), np.asarray(b, dtype=complex)
    return abs(pairing(qg, b, a).via_inverse - np.vdot(qg.phi.gns(a.conj().T), qg.phihat.gns(b)))


def test_ft_pairing_frozen():
    mdl = model(groups.cyclic(2))
    assert ft_pairing_gap(mdl.qg, models.pi(mdl, [1.0, 2.0]), models.L(mdl, [3.0, 4.0])) <= 1e-10
    for group in [groups.cyclic(2), groups.symmetric(3)]:
        report = check_ft_pairing(model(group).qg)
        assert report.passed and report.deviation <= 1e-10


def test_ft_pairing_identity_overlap():
    # <Lambda_hat(1), Lambda(1)> = <xi_phihat, xi_phi> = 1 for group models
    for group in [groups.cyclic(3), groups.symmetric(3)]:
        mdl = model(group)
        qg = mdl.qg
        value = pairing(mdl.qg, np.eye(group.order), np.eye(group.order))
        overlap = np.vdot(qg.phi.gns(np.eye(group.order)),
                          qg.phihat.gns(np.eye(group.order)))
        assert overlap == pytest.approx(1.0, abs=1e-12)
        assert value.via_inverse == pytest.approx(1.0, abs=1e-11)
        assert ft_pairing_gap(qg, np.eye(group.order), np.eye(group.order)) <= 1e-10


def test_ft_pairing_zero():
    mdl = model(groups.cyclic(2))
    assert ft_pairing_gap(mdl.qg, models.pi(mdl, [1.0, 1.0]), np.zeros((2, 2))) < 1e-14


# ------------------------------------------- tables against the contractions
#
# fourier, the direct convolutions and pairing.via_w read per-pair tables on
# the algebra bases.  The references below are the per-call contractions of W
# they replace, written out in full.

def reference_transform(qg, a):
    """F(a) = (phi (x) id)(W (a (x) 1)), contracted on the whole W."""
    return np.einsum("i,ikpl,pj,j->kl", qg.phi.xi.conj(), qg.w4, a, qg.phi.xi,
                     optimize=True)


def reference_convolve_direct(qg, a, c):
    """(phi (x) id)([(S^{-1} (x) id)(delta c)](a (x) 1)), with S^{-1} applied
    to the whole basis and phi evaluated on the operator S^{-1}(x_k) a."""
    basis, xi = qg.m_basis, qg.phi.xi
    pair_coeffs = np.einsum("kli,i->kl", qg.delta_coeffs, qg.coords_m(c))
    sinv_on_basis = np.einsum("pk,pab->kab", qg.s_inv_mat, basis)
    vals = np.einsum("kuv,v,u->k", sinv_on_basis, a @ xi, xi.conj())
    return np.einsum("kl,k,lab->ab", pair_coeffs, vals, basis)


def reference_via_w(qg, b, a):
    """(phi (x) phihat)[(a (x) 1) W^* (1 (x) b)], contracted on the whole W^*."""
    n = qg.n
    return complex(np.einsum("i,k,ip,pkjq,ql,j,l->", qg.phi.xi.conj(),
                             qg.phihat.xi.conj(), a, qg.w.conj().T.reshape(n, n, n, n), b,
                             qg.phi.xi, qg.phihat.xi, optimize=True))


def transported_dihedral3_pair():
    """The pair derived from (u (x) u) W (u (x) u)^* for dihedral:3, with u
    the seeded random unitary of the engine tests."""
    rng = np.random.default_rng(5)
    u, _ = np.linalg.qr(rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6)))
    uu = kron(u, u)
    return pair_from_unitary(uu @ model(groups.dihedral(3)).qg.w @ uu.conj().T)


TABLE_PAIRS = {
    "transported-dihedral3": transported_dihedral3_pair,
    "s3": lambda: model(groups.symmetric(3)).qg,
    "dihedral3": lambda: model(groups.dihedral(3)).qg,
}


@pytest.mark.parametrize("label", sorted(TABLE_PAIRS))
def test_tables_agree_with_contractions(label):
    qg = TABLE_PAIRS[label]()
    rng = np.random.default_rng(7)
    for _ in range(5):
        a, c = (qg.span.reconstruct(random_complex(rng, qg.span.dim)) for _ in range(2))
        b, d = (qg.dual.span.reconstruct(random_complex(rng, qg.dual.span.dim))
                for _ in range(2))
        np.testing.assert_allclose(fourier(qg, a), reference_transform(qg, a),
                                   rtol=0, atol=1e-13)
        np.testing.assert_allclose(inverse_fourier(qg, b), reference_transform(qg.dual, b),
                                   rtol=0, atol=1e-13)
        np.testing.assert_allclose(convolve_direct(qg, a, c),
                                   reference_convolve_direct(qg, a, c), rtol=0, atol=1e-13)
        np.testing.assert_allclose(convolve_dual_direct(qg, b, d),
                                   reference_convolve_direct(qg.dual, b, d),
                                   rtol=0, atol=1e-13)
        value = pairing(qg, b, a)
        assert abs(value.via_w - reference_via_w(qg, b, a)) <= 1e-13
        assert abs(value.via_inverse
                   - qg.phi.value(a @ reference_transform(qg.dual, b))) <= 1e-13
        forward = reference_transform(qg, a.conj().T).conj().T
        assert abs(value.via_forward - qg.phihat.value(forward @ b)) <= 1e-13


def test_convolve_direct_rejects_off_algebra_operands():
    mdl = model(groups.cyclic(2))
    good = models.pi(mdl, [1.0, 2.0])
    off_diagonal = np.array([[0.0, 1.0], [0.0, 0.0]])
    with pytest.raises(NotInAlgebra):
        convolve_direct(mdl.qg, off_diagonal, good)
    with pytest.raises(NotInAlgebra):
        convolve_direct(mdl.qg, good, off_diagonal)


def test_pairing_rejects_off_algebra_operands():
    mdl = model(groups.cyclic(2))
    a, b = models.pi(mdl, [1.0, 2.0]), models.L(mdl, [3.0, 4.0])
    with pytest.raises(NotInAlgebra):
        pairing(mdl.qg, np.diag([1.0, 2.0]), a)     # M element in the Mhat slot
    with pytest.raises(NotInAlgebra):
        pairing(mdl.qg, b, np.array([[0.0, 1.0], [1.0, 0.0]]))  # Mhat element in the M slot


def test_pairing_allocates_no_operator_on_the_tensor_square():
    # a per-call contraction of the s4 W^* holds an n^4 intermediate (5.3 MiB);
    # the first call builds the tables from W's index maps, with no dense W
    mdl = model(groups.symmetric(4))
    rng = np.random.default_rng(3)
    a, b = models.pi(mdl, rng.standard_normal(24)), models.L(mdl, rng.standard_normal(24))

    def peak_of(call):
        tracemalloc.start()
        try:
            call()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak_of(lambda: pairing(mdl.qg, b, a)) < 2 * 2 ** 20
    assert peak_of(lambda: pairing(mdl.qg, b, a)) < 2 ** 20


@pytest.mark.parametrize("label", ["s4", "transported-dihedral3"])
def test_pairing_reads_the_adjoint_from_the_operand_coordinates(label, monkeypatch):
    # conj(coords(a^*)) = alpha @ conj(A) on the *-closed M, so via_forward
    # matches projecting a^* on its own, and no call projects it
    qg = model(groups.symmetric(4)).qg if label == "s4" else transported_dihedral3_pair()
    rng = np.random.default_rng(7)
    draws = [(qg.span.reconstruct(random_complex(rng, qg.span.dim)),
              qg.dual.span.reconstruct(random_complex(rng, qg.dual.span.dim)))
             for _ in range(5)]
    for a, b in draws:
        own = qg.coords_m(a.conj().T).conj() @ qg.pairing_forward_table \
            @ qg.dual.coords_m(b)
        assert abs(pairing(qg, b, a).via_forward - own) <= 1e-13, label

    def forbidden(self, x):
        raise AssertionError("pairing projected an operand on its own")

    monkeypatch.setattr(QuantumGroupPair, "coords_m", forbidden)
    for a, b in draws:
        pairing(qg, b, a)


def test_transform_and_inverse_do_not_call_each_other(monkeypatch):
    # the benchmark's per-layer call counts of fourier and inverse_fourier
    # count only direct calls
    mdl = model(groups.symmetric(3))
    a, b = models.pi(mdl, random_function(6)), models.L(mdl, random_function(6))

    def forbidden(*args):
        raise AssertionError("unexpected call")

    with monkeypatch.context() as patch:
        patch.setattr(ft, "fourier", forbidden)
        inverse_fourier(mdl.qg, b)
    with monkeypatch.context() as patch:
        patch.setattr(ft, "inverse_fourier", forbidden)
        fourier(mdl.qg, a)


# Operand contract of the seven ops, on both span layouts: the s4 model's
# indicator bases take the index layout, the SVD bases of a derived pair the
# dense one.

CONTRACT_PAIRS = {
    "s4": (lambda: model(groups.symmetric(4)).qg, "index"),
    "transported-dihedral3": (transported_dihedral3_pair, "dense"),
}

# The algebra of each operand slot, by op.
SLOTS = {"fourier": ("M",), "inverse_fourier": ("Mhat",), "convolve": ("M", "M"),
         "convolve_direct": ("M", "M"), "convolve_dual": ("Mhat", "Mhat"),
         "convolve_dual_direct": ("Mhat", "Mhat"), "pairing": ("Mhat", "M")}


@pytest.fixture(scope="module", params=sorted(CONTRACT_PAIRS))
def contract_pair(request):
    build, layout = CONTRACT_PAIRS[request.param]
    qg = build()
    assert qg.span.layout == qg.dual.span.layout == layout
    return qg


def contract_operands(qg, op, rng):
    bases = {"M": qg.m_basis, "Mhat": qg.mhat_basis}
    return [np.einsum("k,kab->ab", random_complex(rng, len(bases[s])), bases[s])
            for s in SLOTS[op]]


def einsum_oracle(qg, op, args):
    """The op's output from whole-W contractions (`reference_transform`,
    `reference_convolve_direct`, `reference_via_w`)."""
    fwd, inv = (lambda x: reference_transform(qg, x)), (lambda y: reference_transform(qg.dual, y))
    if op == "fourier":
        return fwd(*args)
    if op == "inverse_fourier":
        return inv(*args)
    if op == "convolve":
        return inv(fwd(args[0]) @ fwd(args[1]))
    if op == "convolve_dual":
        return fwd(inv(args[0]) @ inv(args[1]))
    if op == "convolve_direct":
        return reference_convolve_direct(qg, *args)
    if op == "convolve_dual_direct":
        return reference_convolve_direct(qg.dual, *args)
    b, a = args
    return (qg.phi.value(a @ inv(b)), qg.phihat.value(fwd(a.conj().T).conj().T @ b),
            reference_via_w(qg, b, a))


@pytest.mark.parametrize("op", sorted(SLOTS))
def test_ops_match_the_einsum_oracle(contract_pair, op):
    rng = np.random.default_rng(29)
    for _ in range(2):
        args = contract_operands(contract_pair, op, rng)
        got, want = getattr(ft, op)(contract_pair, *args), einsum_oracle(contract_pair, op, args)
        if op == "pairing":
            got = (got.via_inverse, got.via_forward, got.via_w)
        assert np.abs(np.subtract(got, want)).max() <= 1e-13


@pytest.mark.parametrize("op", sorted(SLOTS))
def test_ops_reject_non_finite_operands(contract_pair, op):
    # require_in_m must catch a non-finite entry, in either memory layout,
    # from the operand's sum of squares, before any arithmetic that would warn
    rng = np.random.default_rng(31)
    fn = getattr(ft, op)
    for slot in range(len(SLOTS[op])):
        for bad in (np.nan, np.inf, complex(0, -np.inf)):
            for layout in (np.ascontiguousarray, np.asfortranarray):
                args = contract_operands(contract_pair, op, rng)
                args[slot] = layout(args[slot])
                args[slot][1, 0] = bad
                with pytest.raises(ValueError, match="finite") as info:
                    fn(contract_pair, *args)
                assert not isinstance(info.value, NotInAlgebra)


@pytest.mark.parametrize("op", sorted(SLOTS))
def test_ops_reject_operands_off_their_span(contract_pair, op):
    rng = np.random.default_rng(37)
    n, fn = contract_pair.n, getattr(ft, op)
    for slot in range(len(SLOTS[op])):
        args = contract_operands(contract_pair, op, rng)
        args[slot] = args[slot] + 1e-6 * random_complex(rng, (n, n))
        with pytest.raises(NotInAlgebra):
            fn(contract_pair, *args)


def test_membership_is_decided_by_the_largest_residual_entry(contract_pair):
    # require_in_m accepts at once on a small residual norm and otherwise
    # reads the largest residual entry: an off-span part whose norm exceeds
    # DEFAULT_TOL passes while every entry stays below it, and fails when one
    # entry exceeds it
    rng = np.random.default_rng(59)
    for side in (contract_pair, contract_pair.dual):
        r = random_complex(rng, (side.n, side.n))
        off = r - side.span.reconstruct(side.span.coords(r))
        off /= np.abs(off).max()
        assert np.linalg.norm(off) > 2
        side.require_in_m(0.9 * DEFAULT_TOL * off)
        with pytest.raises(NotInAlgebra):
            side.require_in_m(1.1 * DEFAULT_TOL * off)


@pytest.mark.parametrize("op", sorted(SLOTS))
def test_ops_reject_operands_of_the_wrong_shape(contract_pair, op):
    rng = np.random.default_rng(41)
    n, fn = contract_pair.n, getattr(ft, op)
    for slot in range(len(SLOTS[op])):
        for shape in ((n + 1, n + 1), (n, n - 1), (1, n, n), (n * n,)):
            args = contract_operands(contract_pair, op, rng)
            args[slot] = np.zeros(shape, dtype=complex)
            with pytest.raises(ValueError):
                fn(contract_pair, *args)


# ------------------------------------------- the convolution and pairing tables
#
# convolve_dual and pairing read per-pair tables built once on first use, and
# check_convolution, check_pairing and check_ft_pairing compare the same
# tables: the tensors through F of both sides (each with its residual), and
# the inverse and forward routes of the pairing.  The tensors read the product
# constants of each side's basis, which check_pairing_axioms reads too.

PAIR_TABLES = ("fourier_convolution", "fourier_convolution_hat", "pairing_inverse_table",
               "pairing_forward_table")


def spy_on_tables(monkeypatch) -> list:
    """Record (table, pair id) at every build of a PAIR_TABLES entry or of
    the product constants."""
    builds = []
    for name in (*PAIR_TABLES, "product_constants"):
        build = QuantumGroupPair.__dict__[name].func
        spy = cached_property(lambda qg, name=name, build=build:
                              builds.append((name, id(qg))) or build(qg))
        spy.__set_name__(QuantumGroupPair, name)
        monkeypatch.setattr(QuantumGroupPair, name, spy)
    return builds


@pytest.mark.parametrize("label", ["s3", "transported-dihedral3"])
def test_each_table_is_built_once_per_pair(label, monkeypatch):
    builds = spy_on_tables(monkeypatch)
    source = model(groups.symmetric(3)) if label == "s3" else transported_dihedral3_pair()
    qg = source.qg if label == "s3" else source
    assert run_suite(source).passed
    rng = np.random.default_rng(43)
    for _ in range(100):
        a, c = (qg.span.reconstruct(random_complex(rng, qg.span.dim)) for _ in range(2))
        b, d = (qg.dual.span.reconstruct(random_complex(rng, qg.dual.span.dim))
                for _ in range(2))
        convolve(qg, a, c), convolve_dual(qg, b, d), pairing(qg, b, a)
    check_convolution(qg), check_pairing(qg), check_ft_pairing(qg), check_pairing_axioms(qg)
    assert sorted(builds) == sorted([(name, id(qg)) for name in PAIR_TABLES]
                                    + [("product_constants", id(side)) for side in (qg, qg.dual)])
    # both sides' tensors come from qg and qg.dual: the dual's dual, a pair
    # with empty caches, is never built
    assert "dual" not in vars(qg.dual)


def traced_peak(call) -> int:
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_first_table_builds_on_s4_form_no_stack_of_basis_products():
    # the m^2 products y_a y_b of the s4 Mhat basis, as one (576, 24, 24)
    # stack, take 5.1 MiB; the tensors project them one row a at a time
    mdl = model(groups.symmetric(4))
    qg, rng = mdl.qg, np.random.default_rng(47)
    a, c = (models.pi(mdl, rng.standard_normal(24)) for _ in range(2))
    b, d = (models.L(mdl, rng.standard_normal(24)) for _ in range(2))
    assert traced_peak(lambda: (convolve(qg, a, c), convolve_dual(qg, b, d),
                                pairing(qg, b, a))) < 2 * 2 ** 20
    fresh = model(groups.symmetric(4)).qg
    fresh.delta_coeffs, fresh.dual.delta_coeffs, fresh.s_inv_mat, fresh.shat_inv_mat
    assert traced_peak(lambda: check_convolution(fresh)) < 2 * 2 ** 20


def test_both_convolutions_raise_on_a_truncated_mhat_basis():
    # with one Mhat basis element dropped, F(x_i) leaves the Mhat span: the
    # route through F has no inverse transform on either side
    qg = model(groups.symmetric(3)).qg
    cut = QuantumGroupPair(qg.mu, qg.m_basis, qg.mhat_basis[:-1], qg.phi, qg.phihat,
                           qg.s_mat, qg.shat_mat[:-1, :-1])
    rng = np.random.default_rng(53)
    a, c = (cut.span.reconstruct(random_complex(rng, cut.span.dim)) for _ in range(2))
    b, d = (cut.dual.span.reconstruct(random_complex(rng, cut.dual.span.dim))
            for _ in range(2))
    assert cut.fourier_convolution_hat[1] > 1e-3
    with pytest.raises(NotInAlgebra):
        convolve(cut, a, c)
    with pytest.raises(NotInAlgebra):
        convolve_dual(cut, b, d)
    assert not check_convolution(cut).passed
