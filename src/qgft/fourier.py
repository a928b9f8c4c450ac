"""Fourier transform, inversion, Plancherel, convolution products and the
dual pairing on a quantum group pair.

The transform and its inverse are weighted slices of W,

    F(a)      = (phi (x) id)(W (a (x) 1))
    F^{-1}(b) = (id (x) phihat)(W^* (1 (x) b)),

with the sliced leg contracted against the weight's implementing vector.
The transform, the convolutions and the pairing are (bi)linear maps between
the algebras, so each is tabulated once per pair on the orthonormal bases, on
first use, and a call is a projection of each operand onto its basis by the
pair's cached span kernel (`qg.span`: O(n^2) gathers on the indicator bases
of a group model, two O(m n^2) products on any other basis) plus a product
with one table:

    fourier, inverse_fourier   `fourier_table` of the pair or of its dual
    convolve_direct and dual   `convolution_table` and `delta_coeffs`
    convolve_dual              `fourier_convolution_hat`, a tensor T[i, j, k]
    pairing                    `pairing_inverse_table`, `pairing_forward_table`
                               and `pairing_table`, one per route

This is exact because every operand must pass the span membership
precondition (`require_in_m`, NotInAlgebra otherwise), so it equals its
projection.  `require_in_m` reads two sums of squares, the operand's (a
non-finite one rejects it, ValueError) and its residual's, and the kernel
lays the operand out C-contiguous.
`convolve` is the one op that composes others: two `fourier` calls and one
`inverse_fourier`, whose membership check of F(a) F(c) raises NotInAlgebra.
`convolve_dual` raises it instead when its tensor's residual exceeds
DEFAULT_TOL, since a product of inverse transforms is then off M.

F^{-1} is the transform of the dual pair (What = Sigma W^* Sigma), and the
Mhat-side functions here apply their M-side twins to `qg.dual`, except
`convolve_dual`, which reads the pair's own tensor so that `qg.dual.dual`
(a pair with empty caches) is never built.

Each result is one check, `check_*(qg, tol)`, which draws nothing: each
identity is linear, antilinear or bilinear in its operands, so the full
algebra bases decide it, and each is evaluated once as a few stacked products
on the bases' coordinates.  F~[k, l] holds the coordinates of F(x_k) on the
Mhat basis, the projection of the stack `qg.fourier_images` by
`qg.dual.span`, and F~^{-1} is the dual pair's; the product constants of a
basis are its products projected back onto it.  The convolution and pairing
checks compare the very tables the ops read (`engine.fourier_convolution_tensor`
on each side, `pairing_routes`).  A residual of a basis image off the span
it must lie in (`require_in_m` for one operand) is part of the deviation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .engine import CheckReport, NotInAlgebra, QuantumGroupPair, w_coefficients
from .linalg import DEFAULT_TOL, deviation


def _operand(qg: QuantumGroupPair, x) -> np.ndarray:
    """x as a complex n x n array; ValueError for another shape.  Its entries
    are checked by `require_in_m`."""
    x = np.asarray(x, dtype=complex)
    if x.shape != (qg.n, qg.n):
        raise ValueError(f"operand shape {x.shape} is not {(qg.n, qg.n)}")
    return x


def _transform(qg: QuantumGroupPair, a) -> np.ndarray:
    return (qg.require_in_m(_operand(qg, a)) @ qg.fourier_table).reshape(qg.n, qg.n)


def fourier(qg: QuantumGroupPair, a) -> np.ndarray:
    """Fourier transform of an element of M; lands in Mhat."""
    return _transform(qg, a)


def inverse_fourier(qg: QuantumGroupPair, b) -> np.ndarray:
    """Inverse Fourier transform of an element of Mhat; lands in M.  It is the
    transform of the dual pair."""
    return _transform(qg.dual, b)


def check_inversion(qg: QuantumGroupPair, tol: float = DEFAULT_TOL) -> CheckReport:
    """Both composites of F and F^{-1} are the identity on the full bases:
    F~ F~^{-1} = 1 and F~^{-1} F~ = 1, and every F(x_k) lies in Mhat and every
    F^{-1}(y_l) in M, each within tol."""
    f, f_off = qg.dual.span.project(qg.fourier_images)                         # F~
    g, g_off = qg.span.project(qg.dual.fourier_images)                         # F~^{-1}
    dev = max(deviation(f @ g, np.eye(len(f))), deviation(g @ f, np.eye(len(g))), f_off, g_off)
    return CheckReport("fourier-inversion", dev, tol)


def check_plancherel(qg: QuantumGroupPair, tol: float = DEFAULT_TOL) -> CheckReport:
    """Plancherel: the transform is isometric on GNS vectors,
    Lambda_hat(F(a)) = Lambda(a) and Lambda(F^{-1}(b)) = Lambda_hat(b), on the
    full bases, one product per side."""
    dev = max(deviation(side.fourier_images @ side.phihat.xi, side.m_basis @ side.phi.xi)
              for side in (qg, qg.dual))
    return CheckReport("plancherel", dev, tol)


def convolve(qg: QuantumGroupPair, a, c) -> np.ndarray:
    """Convolution on M: a * c = F^{-1}(F(a) F(c)), by two `fourier` calls and
    one `inverse_fourier`; NotInAlgebra if an operand is off M or F(a) F(c)
    off Mhat.  Its tensor `fourier_convolution` serves the checks only: the
    benchmark's tracer test (perfbench/test_perfbench.py) counts these nested
    calls, and perfbench/ changes only with the benchmark."""
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
    """Convolution on Mhat: b * d = F(F^{-1}(b) F^{-1}(d)), one contraction of
    the operands' coordinates beta, delta with the pair's tensor (T, rho) =
    `fourier_convolution_hat` (built once, `engine.fourier_convolution_tensor`):
    coordinates sum T[i, j, k] beta_i delta_j.  NotInAlgebra if an operand is
    off Mhat, or if rho exceeds DEFAULT_TOL: some F^{-1}(y_a) F^{-1}(y_b) is
    then off M, where the per-call route checked F^{-1}(b) F^{-1}(d)."""
    side = qg.dual
    beta = side.require_in_m(_operand(qg, b))
    delta = side.require_in_m(_operand(qg, d))
    tensor, residual = qg.fourier_convolution_hat
    if not residual <= DEFAULT_TOL:
        raise NotInAlgebra(f"the convolution tensor leaves its spans (residual {residual:.3e})")
    m = len(beta)
    return side.span.reconstruct(delta @ (beta @ tensor.reshape(m, m * m)).reshape(m, m))


def convolve_dual_direct(qg: QuantumGroupPair, b, d) -> np.ndarray:
    """Dual-side convolution through delta_hat and the dual antipode: the
    direct convolution of the dual pair."""
    return convolve_direct(qg.dual, b, d)


def _direct_convolution_tensor(side: QuantumGroupPair) -> np.ndarray:
    """sum_p G[p, i] D[p, k, j] as [i, j, k]: the coordinates of x_i * x_j
    along `convolve_direct`."""
    m = len(side.convolution_table)
    gd = side.convolution_table.T @ side.delta_coeffs.reshape(m, m * m)          # [i, (k j)]
    return gd.reshape(m, m, m).transpose(0, 2, 1)


def check_convolution(qg: QuantumGroupPair, tol: float = DEFAULT_TOL) -> CheckReport:
    """Both convolution routes agree on the full bases of both sides, as
    coefficient tensors [i, j, k] of x_i * x_j: the pair's tensors through F
    (`fourier_convolution`, `fourier_convolution_hat`, whose residuals count)
    against the direct route's."""
    dev = max(max(deviation(tensor, _direct_convolution_tensor(side)), residual)
              for side, (tensor, residual) in ((qg, qg.fourier_convolution),
                                               (qg.dual, qg.fourier_convolution_hat)))
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
    Haar-weight descriptions, each a bilinear form on the coordinates alpha
    of a and beta of b with a table of the pair: via_inverse = alpha @ Q_inv
    @ beta (`pairing_inverse_table`), via_forward = conj(coords(a^*)) @ Q_fwd
    @ beta (`pairing_forward_table`; a^* is projected on its own) and via_w
    = alpha @ P @ beta (`pairing_table`).  NotInAlgebra unless a lies in M
    and b in Mhat."""
    a, b = _operand(qg, a), _operand(qg, b)
    alpha = qg.require_in_m(a)
    beta = qg.dual.require_in_m(b)
    via_inverse = complex(alpha @ qg.pairing_inverse_table @ beta)
    via_forward = complex(qg.coords_m(a.conj().T).conj() @ qg.pairing_forward_table @ beta)
    via_w = complex(alpha @ qg.pairing_table @ beta)
    return PairingValue(via_inverse, via_forward, via_w)


def pairing_routes(qg: QuantumGroupPair) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """<y_l | x_k> along the three routes of `pairing`, as m x mhat matrices
    read from the same tables: Q_inv, conj(coords(x_k^*)) @ Q_fwd and P."""
    adjoints = qg.coords_m(qg.m_basis.conj().swapaxes(1, 2))                   # x_k^*
    return (qg.pairing_inverse_table, adjoints.conj() @ qg.pairing_forward_table,
            qg.pairing_table)


def check_pairing(qg: QuantumGroupPair, tol: float = DEFAULT_TOL) -> CheckReport:
    """The three Haar-weight routes of <y_l | x_k> agree on the full bases
    (the largest `PairingValue.spread`), each as an m x mhat matrix
    (`pairing_routes`)."""
    routes = pairing_routes(qg)
    return CheckReport("pairing", max(deviation(x, y) for x in routes for y in routes), tol)


def check_pairing_axioms(qg: QuantumGroupPair, tol: float = DEFAULT_TOL) -> CheckReport:
    """The defining properties of the dual pairing on the full bases.

    Pi[k, l] = <y_l | x_k> is read from W's slices, independently of the
    pairing routes: (omega (x) id)(W) = sum C[k, l] omega(x_k) y_l with C
    W's coefficients on M (x) Mhat (`engine.w_coefficients`), and
    <(omega (x) id)(W) | a> = omega(a) for every omega makes C Pi^T = 1,
    solved by least squares; its residual counts.  With P, Phat the product
    constants of the M and Mhat bases (`product_constants` of the pair and
    its dual, which the convolution tensors read too) and D, Dhat the
    comultiplication tensors:

      (1) <y_a y_b | x_k> = (omega_a (x) omega_b)(delta x_k), omega_a = <y_a | .>:
          sum_c Phat[a, b, c] Pi[k, c] = sum_ij D[i, j, k] Pi[i, a] Pi[j, b];
      (2) <y_l | x_i x_j> = (theta_i (x) theta_j)(delta_hat_cop y_l):
          sum_k P[i, j, k] Pi[k, l] = sum_pq Dhat[p, q, l] Pi[j, p] Pi[i, q];
      (3) <y_l | S(x_k)> = <Shat^{-1}(y_l) | x_k>: s_mat^T Pi = Pi shat_inv_mat.

    W's one n^4 layout is dropped before the product constants are read.
    """
    c = w_coefficients(qg)[1]
    m, mh = c.shape
    pi = np.linalg.lstsq(c, np.eye(m), rcond=None)[0].T
    d, dh = qg.delta_coeffs.reshape(m, m * m), qg.dual.delta_coeffs.reshape(mh, mh * mh)
    dev = max(deviation(c @ pi.T, np.eye(m)),
              deviation(qg.dual.product_constants[0] @ pi.T,                      # (1) [a, b, k]
                        np.matmul(pi.T, (pi.T @ d).reshape(mh, m, m))),
              deviation(qg.product_constants[0] @ pi,                             # (2) [i, j, l]
                        np.matmul(pi, (pi @ dh).reshape(m, mh, mh)).swapaxes(0, 1)),
              deviation(qg.s_mat.T @ pi, pi @ qg.shat_inv_mat))                   # (3) [k, l]
    return CheckReport("pairing-axioms", dev, tol)


def check_ft_pairing(qg: QuantumGroupPair, tol: float = DEFAULT_TOL) -> CheckReport:
    """Inner-product description of the pairing on the full bases,
    <y_l | x_k> = <Lambda_hat(y_l), Lambda(x_k^*)>, against the pair's
    `pairing_inverse_table` as an m x mhat matrix."""
    u = qg.phi.xi.conj() @ qg.m_basis                                          # conj Lambda(x_k^*)
    return CheckReport("ft-pairing", deviation(qg.pairing_inverse_table,
                                               u @ (qg.mhat_basis @ qg.phihat.xi).T), tol)
