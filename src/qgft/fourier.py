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

Each result is one check: `check_plancherel(qg, tol)` on the full bases, and
the sampled `check_*(qg, rng, tol)`, each on its *_SAMPLES random draws.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .engine import CheckReport, Functional, QuantumGroupPair, sharp
from .linalg import (
    DEFAULT_TOL,
    deviation,
    inner,
    left_slicer,
    random_complex,
    random_element,
    right_slicer,
)

# Random draws of each sampled check.
INVERSION_SAMPLES = 10
CONVOLUTION_SAMPLES = 20
PAIRING_SAMPLES = 50
PAIRING_AXIOM_SAMPLES = 20
FT_PAIRING_SAMPLES = 10


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


def check_inversion(qg: QuantumGroupPair, rng: np.random.Generator,
                    tol: float = DEFAULT_TOL) -> CheckReport:
    """Both composites of F and F^{-1} deviate from the identity by at most
    tol, on the full algebra bases and on INVERSION_SAMPLES random elements of
    each algebra."""
    samples = [(random_element(rng, qg.span), random_element(rng, qg.dual.span))
               for _ in range(INVERSION_SAMPLES)]
    dev = 0.0
    for a in [*qg.m_basis, *(a for a, _ in samples)]:
        dev = max(dev, deviation(inverse_fourier(qg, fourier(qg, a)), a))
    for b in [*qg.mhat_basis, *(b for _, b in samples)]:
        dev = max(dev, deviation(fourier(qg, inverse_fourier(qg, b)), b))
    return CheckReport("fourier-inversion", dev, tol)


def check_plancherel(qg: QuantumGroupPair, tol: float = DEFAULT_TOL) -> CheckReport:
    """Plancherel: the transform is isometric on GNS vectors,
    Lambda_hat(F(a)) = Lambda(a) and Lambda(F^{-1}(b)) = Lambda_hat(b), on the
    full bases."""
    dev = 0.0
    for side in (qg, qg.dual):
        for a in side.m_basis:
            dev = max(dev, deviation(side.phihat.gns(fourier(side, a)), side.phi.gns(a)))
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


def check_convolution(qg: QuantumGroupPair, rng: np.random.Generator,
                      tol: float = DEFAULT_TOL) -> CheckReport:
    """Both convolution routes agree, on both sides, for CONVOLUTION_SAMPLES
    random pairs."""
    dev = 0.0
    for _ in range(CONVOLUTION_SAMPLES):
        a, c = random_element(rng, qg.span), random_element(rng, qg.span)
        dev = max(dev, deviation(convolve(qg, a, c), convolve_direct(qg, a, c)))
        b, e = random_element(rng, qg.dual.span), random_element(rng, qg.dual.span)
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


def check_pairing(qg: QuantumGroupPair, rng: np.random.Generator,
                  tol: float = DEFAULT_TOL) -> CheckReport:
    """The three Haar-weight routes of <b|a> agree (`PairingValue.spread`) for
    PAIRING_SAMPLES random b in Mhat and a in M."""
    dev = 0.0
    for _ in range(PAIRING_SAMPLES):
        a = random_element(rng, qg.span)
        b = random_element(rng, qg.dual.span)
        dev = max(dev, pairing(qg, b, a).spread)
    return CheckReport("pairing", dev, tol)


def check_pairing_axioms(qg: QuantumGroupPair, rng: np.random.Generator,
                         tol: float = DEFAULT_TOL) -> CheckReport:
    """The defining properties of the dual pairing, for elements presented as
    explicit slices b = (omega (x) id)(W), a = (id (x) theta)(W) so that
    <b|a> = omega(a) = theta(b), over PAIRING_AXIOM_SAMPLES random draws of
    four functionals:

      (1) <b1 b2 | a> = (omega1 (x) omega2)(delta a)
      (2) <b | a1 a2> = (theta1 (x) theta2)(delta_hat_cop b)
      (3) <b | S(a)>  = <Shat^{-1}(b) | a>, with omega built from a sharp.

    Every functional is drawn first; then every left slice is taken and W's
    leg-1 layout dropped before the leg-2 layout is made, so one n^4 layout
    of W is held at a time.
    """
    n = qg.n
    d, dh = qg.delta_coeffs, qg.dual.delta_coeffs
    m, mhat = d.shape[0], dh.shape[0]
    draws = [[Functional(random_complex(rng, (n, n))) for _ in range(4)]
             for _ in range(PAIRING_AXIOM_SAMPLES)]
    # (3) takes omega = (omega2)^sharp to exercise the sharp construction.
    sharps = [sharp(w2, qg.s_mat, qg.span) for _, w2, _, _ in draws]
    w_left = left_slicer(qg.w, n)
    lefts = [(w_left(w1), w_left(w2), w_left(omega))
             for (w1, w2, _, _), omega in zip(draws, sharps)]
    del w_left
    w_right = right_slicer(qg.w, n)
    rights = [(w_right(t1), w_right(t2)) for _, _, t1, t2 in draws]

    dev = 0.0
    for (w1, w2, t1, t2), omega, (b1, b2, b_omega), (a1, a2) in zip(draws, sharps, lefts, rights):
        # (1): theta-presentation of a = a1 evaluates the left side.
        lhs = t1(b1 @ b2)
        delta_a = (d.reshape(m * m, m) @ qg.coords_m(a1)).reshape(m, m)
        rhs = complex(w1.values_on(qg.m_basis) @ delta_a @ w2.values_on(qg.m_basis))
        dev = max(dev, abs(lhs - rhs))

        # (2): omega-presentation of b = b1 evaluates the left side.
        lhs = w1(a1 @ a2)
        delta_hat_b = (dh.reshape(mhat * mhat, mhat) @ qg.dual.coords_m(b1)).reshape(mhat, mhat)
        rhs = complex(t2.values_on(qg.mhat_basis) @ delta_hat_b @ t1.values_on(qg.mhat_basis))
        dev = max(dev, abs(lhs - rhs))

        # (3): b = (omega (x) id)(W) for the sharp omega, and a = a2.
        lhs = omega(qg.apply_s(a2))
        rhs = t2(qg.dual.apply_s_inv(b_omega))
        dev = max(dev, abs(lhs - rhs))

    return CheckReport("pairing-axioms", dev, tol)


def check_ft_pairing(qg: QuantumGroupPair, rng: np.random.Generator,
                     tol: float = DEFAULT_TOL) -> CheckReport:
    """Inner-product description of the pairing,
    <b|a> = <Lambda_hat(b), Lambda(a^*)>, for FT_PAIRING_SAMPLES random b in
    Mhat and a in M."""
    dev = 0.0
    for _ in range(FT_PAIRING_SAMPLES):
        a = random_element(rng, qg.span)
        b = random_element(rng, qg.dual.span)
        lhs = pairing(qg, b, a).via_inverse
        dev = max(dev, abs(lhs - inner(qg.phihat.gns(b), qg.phi.gns(a.conj().T))))
    return CheckReport("ft-pairing", dev, tol)
