"""Fourier transform, inversion, Plancherel, convolution products and the
dual pairing on a quantum group pair.

The transform and its inverse are weighted slices of W,

    F(a)      = (phi (x) id)(W (a (x) 1))
    F^{-1}(b) = (id (x) phihat)(W^* (1 (x) b)),

with the sliced leg contracted against the weight's implementing vector.
F, the direct convolution and the pairing are (bi)linear maps between the
algebras, so each is tabulated once per pair on the orthonormal bases
(`QuantumGroupPair.fourier_table`, `convolution_table`, `pairing_table`), and
a call is a projection onto the basis by the pair's cached span kernel
(`qg.span`: O(n^2) gathers on the indicator bases of a group model, two
O(m n^2) products on any other basis) plus an O(m n^2) product with a table.
This is exact because every operand must pass the span membership
precondition (`require_in_m`, NotInAlgebra otherwise), so it equals its
projection.  An operand is not copied or scanned beforehand: `require_in_m`
rejects a non-finite entry, and the kernel lays it out C-contiguous.

F^{-1} is the transform of the dual pair (What = Sigma W^* Sigma), and every
Mhat-side function here is its M-side twin applied to `qg.dual`.

Each result is one check, `check_*(qg, tol)`, which draws nothing: each
identity is linear, antilinear or bilinear in its operands, so the full
algebra bases decide it, and each is evaluated once as a few stacked products
on the bases' coordinates.  F~[k, l] holds the coordinates of F(x_k) on the
Mhat basis, the projection of the stack `_images(qg)` by `qg.dual.span`, and
F~^{-1} is the dual pair's; the product constants of a basis are its stack of
products projected back onto it.  A residual of a basis image off the span it
must lie in (`require_in_m` for one operand) is part of the deviation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .engine import CheckReport, QuantumGroupPair, w_coefficients
from .linalg import DEFAULT_TOL, deviation, flat_rows


def _from_table(qg: QuantumGroupPair, coords: np.ndarray) -> np.ndarray:
    return (coords @ qg.fourier_table).reshape(qg.n, qg.n)


def _operand(qg: QuantumGroupPair, x) -> np.ndarray:
    """x as a complex n x n array; ValueError for another shape.  Its entries
    are checked by `require_in_m`."""
    x = np.asarray(x, dtype=complex)
    if x.shape != (qg.n, qg.n):
        raise ValueError(f"operand shape {x.shape} is not {(qg.n, qg.n)}")
    return x


def _transform(qg: QuantumGroupPair, a) -> np.ndarray:
    return _from_table(qg, qg.require_in_m(_operand(qg, a)))


def fourier(qg: QuantumGroupPair, a) -> np.ndarray:
    """Fourier transform of an element of M; lands in Mhat."""
    return _transform(qg, a)


def inverse_fourier(qg: QuantumGroupPair, b) -> np.ndarray:
    """Inverse Fourier transform of an element of Mhat; lands in M.  It is the
    transform of the dual pair."""
    return _transform(qg.dual, b)


def _images(side: QuantumGroupPair) -> np.ndarray:
    """F(x_k) for every element of side's M basis, as an (m, n, n) stack."""
    return side.fourier_table.reshape(-1, side.n, side.n)


def check_inversion(qg: QuantumGroupPair, tol: float = DEFAULT_TOL) -> CheckReport:
    """Both composites of F and F^{-1} are the identity on the full bases:
    F~ F~^{-1} = 1 and F~^{-1} F~ = 1, and every F(x_k) lies in Mhat and every
    F^{-1}(y_l) in M, each within tol."""
    f, f_off = qg.dual.span.project(_images(qg))                               # F~
    g, g_off = qg.span.project(_images(qg.dual))                               # F~^{-1}
    dev = max(deviation(f @ g, np.eye(len(f))), deviation(g @ f, np.eye(len(g))), f_off, g_off)
    return CheckReport("fourier-inversion", dev, tol)


def check_plancherel(qg: QuantumGroupPair, tol: float = DEFAULT_TOL) -> CheckReport:
    """Plancherel: the transform is isometric on GNS vectors,
    Lambda_hat(F(a)) = Lambda(a) and Lambda(F^{-1}(b)) = Lambda_hat(b), on the
    full bases, one product per side."""
    dev = max(deviation(_images(side) @ side.phihat.xi, side.m_basis @ side.phi.xi)
              for side in (qg, qg.dual))
    return CheckReport("plancherel", dev, tol)


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
    alpha = qg.require_in_m(_operand(qg, a))
    gamma = qg.require_in_m(_operand(qg, c))
    coeffs = (qg.convolution_table @ alpha) @ (qg.delta_coeffs @ gamma)
    return qg.span.reconstruct(coeffs)


def convolve_dual(qg: QuantumGroupPair, b, d) -> np.ndarray:
    """Convolution on Mhat: b * d = F(F^{-1}(b) F^{-1}(d))."""
    return fourier(qg, inverse_fourier(qg, b) @ inverse_fourier(qg, d))


def convolve_dual_direct(qg: QuantumGroupPair, b, d) -> np.ndarray:
    """Dual-side convolution through delta_hat and the dual antipode: the
    direct convolution of the dual pair."""
    return convolve_direct(qg.dual, b, d)


def _convolution_deviation(side: QuantumGroupPair, other: QuantumGroupPair) -> float:
    """How far side's two convolution routes are apart on its full basis, as
    coefficient tensors [i, j, k] of x_i * x_j.  Through F (other =
    side.dual): sum F~[i, a] F~[j, b] Phat[a, b, c] F~^{-1}[c, k], with Phat
    the product constants of other's basis; direct: sum_p G[p, i] D[p, k, j].
    The residuals of F(x_i), y_a y_b and F^{-1}(y_c) off their spans count."""
    f, f_off = other.span.project(_images(side))
    g, g_off = side.span.project(_images(other))
    y = other.m_basis
    p_hat, p_off = other.span.project(y[:, None] @ y[None, :])                   # [a, b, c]
    m, mh = f.shape
    via_f = np.matmul(f, (f @ p_hat.reshape(mh, mh * mh)).reshape(m, mh, mh)) @ g
    gd = side.convolution_table.T @ side.delta_coeffs.reshape(m, m * m)          # [i, (k j)]
    return max(deviation(via_f, gd.reshape(m, m, m).transpose(0, 2, 1)), f_off, g_off, p_off)


def check_convolution(qg: QuantumGroupPair, tol: float = DEFAULT_TOL) -> CheckReport:
    """Both convolution routes agree on the full bases of both sides."""
    dev = max(_convolution_deviation(qg, qg.dual), _convolution_deviation(qg.dual, qg))
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


def pairing(qg: QuantumGroupPair, b, a) -> PairingValue:
    """Evaluate <b|a> for b in Mhat, a in M, independently along all three
    Haar-weight descriptions, each tabulated on the bases: via_inverse from
    the F^{-1} table, via_forward from the F table and via_w = alpha @ P @ beta
    from the W^* `pairing_table`.  Exact because a must lie in M and b in Mhat."""
    a, b = _operand(qg, a), _operand(qg, b)
    alpha = qg.require_in_m(a)
    beta = qg.dual.require_in_m(b)
    via_inverse = qg.phi.value(a @ _from_table(qg.dual, beta))
    via_forward = qg.phihat.value(_from_table(qg, qg.coords_m(a.conj().T)).conj().T @ b)
    via_w = complex(alpha @ qg.pairing_table @ beta)
    return PairingValue(via_inverse, via_forward, via_w)


def _inverse_route(qg: QuantumGroupPair) -> tuple[np.ndarray, np.ndarray]:
    """u[k] = xi_phi-bar x_k = conj(Lambda(x_k^*)), and <y_l | x_k> =
    phi(x_k F^{-1}(y_l)) = u[k] . Lambda(F^{-1}(y_l)) as an m x mhat matrix."""
    u = qg.phi.xi.conj() @ qg.m_basis
    return u, u @ (_images(qg.dual) @ qg.phi.xi).T


def check_pairing(qg: QuantumGroupPair, tol: float = DEFAULT_TOL) -> CheckReport:
    """The three Haar-weight routes of <y_l | x_k> agree on the full bases
    (the largest `PairingValue.spread`), each as an m x mhat matrix: via_w is
    `pairing_table`, and via_forward is phihat(F(x_k^*)^* y_l) =
    <y_l xi_phihat, F(x_k^*) xi_phihat>."""
    xihat = qg.phihat.xi
    forward = qg.coords_m(qg.m_basis.conj().swapaxes(1, 2)) @ (_images(qg) @ xihat)
    routes = (_inverse_route(qg)[1], forward.conj() @ (qg.mhat_basis @ xihat).T,
              qg.pairing_table)
    return CheckReport("pairing", max(deviation(x, y) for x in routes for y in routes), tol)


def _product_constants(basis: np.ndarray) -> np.ndarray:
    """P[i, j, k] = <x_i x_j, x_k> on an orthonormal basis: one stack of
    products and one product with the conjugate rows, so an indicator basis
    gathers no second stack, as its span kernel would."""
    return flat_rows(basis[:, None] @ basis[None, :]) @ flat_rows(basis).conj().T


def check_pairing_axioms(qg: QuantumGroupPair, tol: float = DEFAULT_TOL) -> CheckReport:
    """The defining properties of the dual pairing on the full bases.

    Pi[k, l] = <y_l | x_k> is read from W's slices, independently of the
    pairing routes: (omega (x) id)(W) = sum C[k, l] omega(x_k) y_l with C
    W's coefficients on M (x) Mhat (`engine.w_coefficients`), and
    <(omega (x) id)(W) | a> = omega(a) for every omega makes C Pi^T = 1,
    solved by least squares; its residual counts.  With P, Phat the product
    constants of the M and Mhat bases and D, Dhat the comultiplication
    tensors:

      (1) <y_a y_b | x_k> = (omega_a (x) omega_b)(delta x_k), omega_a = <y_a | .>:
          sum_c Phat[a, b, c] Pi[k, c] = sum_ij D[i, j, k] Pi[i, a] Pi[j, b];
      (2) <y_l | x_i x_j> = (theta_i (x) theta_j)(delta_hat_cop y_l):
          sum_k P[i, j, k] Pi[k, l] = sum_pq Dhat[p, q, l] Pi[j, p] Pi[i, q];
      (3) <y_l | S(x_k)> = <Shat^{-1}(y_l) | x_k>: s_mat^T Pi = Pi shat_inv_mat.

    W's one n^4 layout is dropped before the product stacks are formed.
    """
    c = w_coefficients(qg)[1]
    m, mh = c.shape
    pi = np.linalg.lstsq(c, np.eye(m), rcond=None)[0].T
    d, dh = qg.delta_coeffs.reshape(m, m * m), qg.dual.delta_coeffs.reshape(mh, mh * mh)
    dev = max(deviation(c @ pi.T, np.eye(m)),
              deviation(_product_constants(qg.mhat_basis) @ pi.T,                 # (1) [a, b, k]
                        np.matmul(pi.T, (pi.T @ d).reshape(mh, m, m))),
              deviation(_product_constants(qg.m_basis) @ pi,                      # (2) [i, j, l]
                        np.matmul(pi, (pi @ dh).reshape(m, mh, mh)).swapaxes(0, 1)),
              deviation(qg.s_mat.T @ pi, pi @ qg.shat_inv_mat))                   # (3) [k, l]
    return CheckReport("pairing-axioms", dev, tol)


def check_ft_pairing(qg: QuantumGroupPair, tol: float = DEFAULT_TOL) -> CheckReport:
    """Inner-product description of the pairing on the full bases,
    <y_l | x_k> = <Lambda_hat(y_l), Lambda(x_k^*)>, as an m x mhat matrix."""
    u, via_inverse = _inverse_route(qg)
    return CheckReport("ft-pairing", deviation(via_inverse, u @ (qg.mhat_basis @ qg.phihat.xi).T),
                       tol)
