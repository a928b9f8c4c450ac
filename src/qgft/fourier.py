"""Fourier transform, inversion, Plancherel, convolution products and the
dual pairing on a quantum group pair.

The transform and its inverse are weighted slices of W,

    F(a)      = (phi (x) id)(W (a (x) 1))
    F^{-1}(b) = (id (x) phihat)(W^* (1 (x) b)),

with the sliced leg contracted against the weight's implementing vector.
F, the direct convolution and the pairing are (bi)linear maps between the
algebras, so each is tabulated once per pair on the orthonormal bases
(`QuantumGroupPair.fourier_table`, `convolution_table`, `pairing_table`), and
a call is a projection onto the basis plus an O(m n^2) product.  This is
exact because every operand must pass the span membership precondition
(`require_in_m`, NotInAlgebra otherwise), so it equals its projection.

F^{-1} is the transform of the dual pair (What = Sigma W^* Sigma), and every
Mhat-side function here is its M-side twin applied to `qg.dual`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .engine import CheckReport, Functional, QuantumGroupPair, sharp
from .linalg import (
    DEFAULT_TOL,
    as_complex_matrix,
    deviation,
    inner,
    max_abs,
    random_complex,
    random_element,
    slice_left,
    slice_right,
    span_reconstruct,
)


def _from_table(qg: QuantumGroupPair, coords: np.ndarray) -> np.ndarray:
    return (coords @ qg.fourier_table).reshape(qg.n, qg.n)


def _transform(qg: QuantumGroupPair, a) -> np.ndarray:
    return _from_table(qg, qg.require_in_m(as_complex_matrix(a, qg.n, qg.n)))


def fourier(qg: QuantumGroupPair, a) -> np.ndarray:
    """Fourier transform of an element of M; lands in Mhat."""
    return _transform(qg, a)


def inverse_fourier(qg: QuantumGroupPair, b) -> np.ndarray:
    """Inverse Fourier transform of an element of Mhat; lands in M.  It is the
    transform of the dual pair."""
    return _transform(qg.dual, b)


@dataclass(frozen=True)
class FourierReport:
    """A transform together with its GNS transport: the transform is isometric
    on GNS vectors, Lambda_hat(F(a)) = Lambda(a)."""

    input: np.ndarray
    output: np.ndarray
    gns_input: np.ndarray
    gns_output: np.ndarray

    @property
    def deviation(self) -> float:
        return max_abs(self.gns_output - self.gns_input)


def fourier_report(qg: QuantumGroupPair, a) -> FourierReport:
    out = fourier(qg, a)
    return FourierReport(np.asarray(a, dtype=complex), out,
                         qg.phi.gns(np.asarray(a, dtype=complex)), qg.phihat.gns(out))


def inverse_fourier_report(qg: QuantumGroupPair, b) -> FourierReport:
    return fourier_report(qg.dual, b)


def check_inversion(qg: QuantumGroupPair, tol: float = DEFAULT_TOL,
                    rng: np.random.Generator | None = None,
                    samples: int = 0) -> CheckReport:
    """Both composites of F and F^{-1} deviate from the identity by at most
    tol, on full algebra bases and optionally on random samples."""
    dev = 0.0
    elements_m = list(qg.m_basis)
    elements_mhat = list(qg.mhat_basis)
    if rng is not None and samples > 0:
        for _ in range(samples):
            elements_m.append(random_element(rng, qg.m_basis))
            elements_mhat.append(random_element(rng, qg.mhat_basis))
    for a in elements_m:
        dev = max(dev, deviation(inverse_fourier(qg, fourier(qg, a)), a))
    for b in elements_mhat:
        dev = max(dev, deviation(fourier(qg, inverse_fourier(qg, b)), b))
    return CheckReport("fourier-inversion", dev, tol)


def check_gns_transport(qg: QuantumGroupPair, tol: float = DEFAULT_TOL) -> CheckReport:
    """Lambda_hat(F(a)) = Lambda(a) and Lambda(F^{-1}(b)) = Lambda_hat(b) on
    full bases."""
    dev = 0.0
    for side in (qg, qg.dual):
        for a in side.m_basis:
            dev = max(dev, fourier_report(side, a).deviation)
    return CheckReport("gns-transport", dev, tol)


@dataclass(frozen=True)
class PlancherelResult:
    lhs: complex  # phihat(F(a)^* F(a))
    rhs: complex  # phi(a^* a)

    @property
    def deviation(self) -> float:
        return abs(self.lhs - self.rhs)


def check_plancherel(qg: QuantumGroupPair, a) -> PlancherelResult:
    a = np.asarray(a, dtype=complex)
    fa = fourier(qg, a)
    return PlancherelResult(qg.phihat.value(fa.conj().T @ fa),
                            qg.phi.value(a.conj().T @ a))


def convolve(qg: QuantumGroupPair, a, c) -> np.ndarray:
    """Convolution on M: a * c = F^{-1}(F(a) F(c))."""
    return inverse_fourier(qg, fourier(qg, a) @ fourier(qg, c))


def convolve_direct(qg: QuantumGroupPair, a, c) -> np.ndarray:
    """Convolution on M without the transform:
    a * c = (phi (x) id)([(S^{-1} (x) id)(delta c)](a (x) 1)),
    tabulated on the basis: with alpha, gamma the operands' coordinates, D the
    comultiplication coefficient tensor and G[k, j] = phi(S^{-1}(x_k) x_j),
    a * c has coordinates (G @ alpha) @ (D @ gamma).  Exact because both
    operands must lie in M."""
    alpha = qg.require_in_m(as_complex_matrix(a, qg.n, qg.n))
    gamma = qg.require_in_m(as_complex_matrix(c, qg.n, qg.n))
    coeffs = (qg.convolution_table @ alpha) @ (qg.delta_coeffs[0] @ gamma)
    return span_reconstruct(coeffs, qg.m_basis)


def convolve_dual(qg: QuantumGroupPair, b, d) -> np.ndarray:
    """Convolution on Mhat: b * d = F(F^{-1}(b) F^{-1}(d))."""
    return fourier(qg, inverse_fourier(qg, b) @ inverse_fourier(qg, d))


def convolve_dual_direct(qg: QuantumGroupPair, b, d) -> np.ndarray:
    """Dual-side convolution through delta_hat and the dual antipode: the
    direct convolution of the dual pair."""
    return convolve_direct(qg.dual, b, d)


def check_convolution(qg: QuantumGroupPair, rng: np.random.Generator,
                      samples: int = 20, tol: float = DEFAULT_TOL) -> CheckReport:
    """Both convolution routes agree, on both sides, for random pairs."""
    dev = 0.0
    for _ in range(samples):
        a, c = random_element(rng, qg.m_basis), random_element(rng, qg.m_basis)
        dev = max(dev, deviation(convolve(qg, a, c), convolve_direct(qg, a, c)))
        b, e = random_element(rng, qg.mhat_basis), random_element(rng, qg.mhat_basis)
        dev = max(dev, deviation(convolve_dual(qg, b, e), convolve_dual_direct(qg, b, e)))
    return CheckReport("convolution-agreement", dev, tol)


@dataclass(frozen=True)
class PairingValue:
    """The dual pairing <b|a> along its three Haar-weight routes."""

    via_inverse: complex  # phi(a F^{-1}(b))
    via_forward: complex  # phihat(F(a^*)^* b)
    via_w: complex        # (phi (x) phihat)[(a (x) 1) W^* (1 (x) b)]

    @property
    def spread(self) -> float:
        vals = (self.via_inverse, self.via_forward, self.via_w)
        return max(abs(x - y) for x in vals for y in vals)

    @property
    def value(self) -> complex:
        return self.via_inverse


def pairing(qg: QuantumGroupPair, b, a) -> PairingValue:
    """Evaluate <b|a> for b in Mhat, a in M, independently along all three
    Haar-weight descriptions, each tabulated on the bases: via_inverse from
    the F^{-1} table, via_forward from the F table and via_w = alpha @ P @ beta
    from the W^* `pairing_table`.  Exact because a must lie in M and b in Mhat."""
    a = as_complex_matrix(a, qg.n, qg.n)
    b = as_complex_matrix(b, qg.n, qg.n)
    alpha = qg.require_in_m(a)
    beta = qg.dual.require_in_m(b)
    via_inverse = qg.phi.value(a @ _from_table(qg.dual, beta))
    via_forward = qg.phihat.value(_from_table(qg, qg.coords_m(a.conj().T)).conj().T @ b)
    via_w = complex(alpha @ qg.pairing_table @ beta)
    return PairingValue(via_inverse, via_forward, via_w)


def check_pairing_axioms(qg: QuantumGroupPair, rng: np.random.Generator,
                         samples: int = 20, tol: float = DEFAULT_TOL) -> CheckReport:
    """The defining properties of the dual pairing, for elements presented as
    explicit slices b = (omega (x) id)(W), a = (id (x) theta)(W) so that
    <b|a> = omega(a) = theta(b):

      (1) <b1 b2 | a> = (omega1 (x) omega2)(delta a)
      (2) <b | a1 a2> = (theta1 (x) theta2)(delta_hat_cop b)
      (3) <b | S(a)>  = <Shat^{-1}(b) | a>, with omega built from a sharp.
    """
    n = qg.n
    d, _ = qg.delta_coeffs
    dh, _ = qg.dual.delta_coeffs
    w = qg.w
    dev = 0.0

    def vals_on(omega, basis):
        return np.einsum("ij,kji->k", omega.density, basis)

    for _ in range(samples):
        w1, w2, t1, t2 = (Functional(random_complex(rng, (n, n))) for _ in range(4))

        # (1): theta-presentation of a evaluates the left side.
        a = slice_right(t1, w)
        b1, b2 = slice_left(w1, w), slice_left(w2, w)
        lhs = t1(b1 @ b2)
        a_coords = qg.coords_m(a)
        rhs = complex(np.einsum("i,kli,k,l->", a_coords, d,
                                vals_on(w1, qg.m_basis), vals_on(w2, qg.m_basis)))
        dev = max(dev, abs(lhs - rhs))

        # (2): omega-presentation of b evaluates the left side.
        b = slice_left(w1, w)
        a1, a2 = slice_right(t1, w), slice_right(t2, w)
        lhs = w1(a1 @ a2)
        b_coords = qg.dual.coords_m(b)
        rhs = complex(np.einsum("i,kli,l,k->", b_coords, dh,
                                vals_on(t1, qg.mhat_basis), vals_on(t2, qg.mhat_basis)))
        dev = max(dev, abs(lhs - rhs))

        # (3): omega = (omega0)^sharp exercises the sharp construction.
        omega = sharp(w2, qg.s_mat, qg.m_basis)
        b = slice_left(omega, w)
        a = slice_right(t2, w)
        lhs = omega(qg.apply_s(a))
        rhs = t2(qg.dual.apply_s_inv(b))
        dev = max(dev, abs(lhs - rhs))

    return CheckReport("pairing-axioms", dev, tol)


def check_ft_pairing(qg: QuantumGroupPair, a, b, tol: float = DEFAULT_TOL) -> CheckReport:
    """Inner-product description of the pairing:
    <b|a> = <Lambda_hat(b), Lambda(a^*)>."""
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    lhs = pairing(qg, b, a).via_inverse
    rhs = inner(qg.phihat.gns(b), qg.phi.gns(a.conj().T))
    dev = abs(lhs - rhs)
    return CheckReport("ft-pairing", dev, tol)
