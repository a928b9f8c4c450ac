"""Multiplicative-unitary engine.

Builds and checks the full structure carried by a multiplicative unitary W on
the tensor square of an n-dimensional Hilbert space: the pentagon relation,
the two slice algebras M (leg-2 slices of W) and Mhat (leg-1 slices), the
comultiplications, the antipodes recovered from slice consistency, invariant
(Haar) weights realized as implementing vectors, the sharp involution on
functionals, and Pontryagin duality.

Comultiplications act by conjugation with W:

    delta(x)     = W^* (1 (x) x) W
    delta_hat(y) = Sigma W (y (x) 1) W^* Sigma

The Mhat side is the M side of the dual unitary What = Sigma W^* Sigma
(`MultiplicativeUnitary.dual`, `QuantumGroupPair.dual`), so each hat-side
function here is the M-side function applied to the dual.

Heavy identities on the generated algebras (coassociativity, invariance) are
checked in coefficient space, on the pair's cached tensor `qg.delta_coeffs`:
with orthonormal algebra bases it reproduces the operator-level Frobenius
deviations exactly, up to the separately reported span-membership residual
`qg.delta_residual`, and never materializes operators on the tensor cube.
Two kernels build them: `comult_coeff_tensor` the tensor, which the
transforms and the pairing axioms also read, and `comult_residual` the
residual, which only those checks read.  For a permutation W the tensor is
read from W's inverse index maps in O(m^2 n^3), with no operator on the tensor
square; the residual covers every entry of every delta(x_i) on both routes.
A check of a built pair is `check_*(qg, tol)`, or `check_*(qg, rng, tol)` on
its *_SAMPLES random draws; `tol` is one float absolute bound.
`check_unitarity(mu)` and `check_pentagon(mu)` bound by 0, or by DENSE_W_TOL
for a dense W.  The pair caches no dense W, and its Fourier and pairing tables
start from `leg1_contraction`, which places n^2 entries for a permutation W:
the transforms, convolutions and pairing of a group model never build one.

A pair is derived from W only by `derive_pair`, in three stages handed to a
runner: `verify.run_suite` records each, `pair_from_unitary` raises at the
first that fails.  `pair_deviation` compares a given pair with it, and
`pontryagin_check(mu)` bounds by 0 that the dual of What is W.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .linalg import (
    DEFAULT_TOL,
    Functional,
    SpanKernel,
    as_complex_matrix,
    deviation,
    flat_rows,
    left_slicer,
    max_abs,
    random_complex,
    rank,
    right_slicer,
    slice_family,
    slice_left,
    span_basis,
    subspace_equal,
)

DENSE_PENTAGON_MAX_DIM = 12
# Bound of the unitarity and pentagon checks of a dense W.
DENSE_W_TOL = 1e-12
# The antipode matrix is singular when its smallest singular value is at most
# this fraction of its largest.
ANTIPODE_SINGULAR_RTOL = 1e-10
# Random draws of each sampled check.
SHARP_SAMPLES = 20
PRODUCT_LAW_SAMPLES = 5
# A permutation W's coefficient-tensor residual is reconstructed in blocks of
# rows holding at most this many entries.
_RESIDUAL_BLOCK_ENTRIES = 1 << 15


class InconsistentSlices(ValueError):
    """The slice relation does not define a linear antipode on the span."""


class SingularAntipode(ValueError):
    """The assembled antipode matrix is not invertible within tolerance."""


class NotInAlgebra(ValueError):
    """An operand lies outside the relevant algebra span."""


class WeightDerivationError(ValueError):
    """No (or no unique) invariant implementing vector could be recovered."""


@dataclass
class CheckReport:
    name: str
    deviation: float
    tolerance: float
    elapsed_ms: float = 0.0
    note: str = ""

    @property
    def passed(self) -> bool:
        return self.deviation <= self.tolerance


class MultiplicativeUnitary:
    """A unitary on the tensor square, dense or in structured permutation form.

    The permutation form stores index maps (s, t) -> (sig[s, t], tau[s, t]),
    W e_(s,t) = e_(sig, tau).  The kernels that use it are exact index
    computations: unitarity and the pentagon compare index tables, `dual`
    returns the permutation form of What, `comultiply` is a gather,
    `comult_coeff_tensor` reads its coefficients from `inverse_perm`, and
    `leg1_contraction` places W's n^2 entries.
    """

    def __init__(self, n: int, dense: np.ndarray | None = None,
                 perm: tuple[np.ndarray, np.ndarray] | None = None):
        if (dense is None) == (perm is None):
            raise ValueError("provide exactly one of dense or perm")
        self.n = n
        self._dense = dense
        self.perm = perm

    @classmethod
    def from_dense(cls, w) -> "MultiplicativeUnitary":
        w = as_complex_matrix(w)
        n = math.isqrt(w.shape[0])
        if w.shape != (n * n, n * n):
            raise ValueError(f"operator shape {w.shape} is not a square tensor square")
        return cls(n, dense=w)

    @classmethod
    def from_permutation(cls, sig, tau) -> "MultiplicativeUnitary":
        sig = np.asarray(sig, dtype=np.intp)
        tau = np.asarray(tau, dtype=np.intp)
        if sig.shape != tau.shape or sig.ndim != 2 or sig.shape[0] != sig.shape[1]:
            raise ValueError("permutation maps must be square index tables of equal shape")
        n = sig.shape[0]
        if np.any((sig < 0) | (sig >= n) | (tau < 0) | (tau >= n)):
            raise ValueError(f"permutation map entries must lie in [0, {n})")
        return cls(n, perm=(sig, tau))

    @property
    def is_permutation(self) -> bool:
        return self.perm is not None

    @property
    def dense(self) -> np.ndarray:
        if self._dense is None:
            sig, tau = self.perm
            n = self.n
            w = np.zeros((n * n, n * n), dtype=complex)
            s, t = np.divmod(np.arange(n * n), n)
            w[sig[s, t] * n + tau[s, t], s * n + t] = 1.0
            self._dense = w
        return self._dense

    @cached_property
    def dual(self) -> "MultiplicativeUnitary":
        """What = Sigma W^* Sigma; it holds no reference back to W.

        For a permutation W, What e_(tau, sig) = e_(t, s), so What is the
        permutation with sig_hat[tau, sig] = t and tau_hat[tau, sig] = s,
        read from `inverse_perm`.
        """
        if not self.is_permutation:
            return MultiplicativeUnitary(self.n, dense=_swap_legs(self.dense.conj().T, self.n))
        s_of, t_of = self.inverse_perm
        return MultiplicativeUnitary.from_permutation(np.ascontiguousarray(t_of.T),
                                                      np.ascontiguousarray(s_of.T))

    @cached_property
    def inverse_perm(self) -> tuple[np.ndarray, np.ndarray]:
        """The inverse index maps of a permutation W: index tables s_of, t_of
        over (sig, tau) with W e_(s_of[sig, tau], t_of[sig, tau]) = e_(sig, tau)."""
        if self.unitarity_deviation() != 0.0:
            raise ValueError("permutation maps are not a bijection of basis pairs")
        sig, tau = self.perm
        s, t = np.indices(sig.shape)
        s_of, t_of = np.empty_like(sig), np.empty_like(tau)
        s_of[sig, tau] = s
        t_of[sig, tau] = t
        return s_of, t_of

    @cached_property
    def comult_gather(self) -> tuple[np.ndarray, np.ndarray]:
        """Flat index pairs (dst, src) with delta(x).ravel()[dst] =
        x.ravel()[src] for a permutation W; every other entry of delta(x) is 0.

        delta(x)[p, q] = [sig_p = sig_q] x[tau_p, tau_q] for flattened
        p = s n + t, so only pairs with equal sig carry an entry.
        """
        sig, tau = (a.ravel() for a in self.perm)
        p, q = np.nonzero(sig[:, None] == sig[None, :])
        return p * sig.size + q, tau[p] * self.n + tau[q]

    def unitarity_deviation(self) -> float:
        if self.is_permutation:
            sig, tau = self.perm
            flat = np.sort((sig * self.n + tau).ravel())
            return 0.0 if np.array_equal(flat, np.arange(self.n * self.n)) else 1.0
        w = self.dense
        eye = np.eye(w.shape[0])
        with np.errstate(over="ignore", invalid="ignore"):  # inf or nan fails the stage
            return max(deviation(w @ w.conj().T, eye), deviation(w.conj().T @ w, eye))


def check_unitarity(mu: MultiplicativeUnitary) -> CheckReport:
    """W W^* = W^* W = 1, exactly for a permutation W, within DENSE_W_TOL
    for a dense W."""
    return CheckReport("unitarity", mu.unitarity_deviation(),
                       0.0 if mu.is_permutation else DENSE_W_TOL)


def _pentagon_permutation_deviation(mu: MultiplicativeUnitary) -> float:
    """Exact pentagon check on all n^3 basis triples of a permutation W."""
    sig, tau = mu.perm
    n = mu.n
    s, t, u = np.meshgrid(np.arange(n), np.arange(n), np.arange(n), indexing="ij")

    # W12 W13 W23, applied right to left.
    a, b, c = s, sig[t, u], tau[t, u]
    a, b, c = sig[a, c], b, tau[a, c]
    a, b, c = sig[a, b], tau[a, b], c

    # W23 W12.
    p, q, r = sig[s, t], tau[s, t], u
    p, q, r = p, sig[q, r], tau[q, r]

    same = np.array_equal(a, p) and np.array_equal(b, q) and np.array_equal(c, r)
    return 0.0 if same else 1.0


def _pentagon_dense_deviation(w: np.ndarray, n: int) -> float:
    """Largest entry of W12 W13 W23 - W23 W12 on the tensor cube [a,b,c; x,y,z],
    as matrix products on blocks of fixed x and c, with W[a,b; x,y] = w[(a b), (x y)]:
      (W12 W13) W23 = (A3 @ B[x,c]).reshape(n^2, n^2) @ W   in [(a b), (y z)],
        A3[(a b y'), a'] = W[a,b; a',y'],  B[x,c][a', z'] = W[a',c; x,z'];
      W23 W12 = F[x] @ G[c]                                 in [(a y), (b z)],
        F[x][(a y), e] = W[a,e; x,y],      G[c][e, (b z)] = W[b,c; e,z].
    The work is n^8; every operand and buffer holds n^4 entries."""
    w4, n2 = w.reshape(n, n, n, n), n * n
    a3 = w4.transpose(0, 1, 3, 2).reshape(n2 * n, n)
    b = np.ascontiguousarray(w4.transpose(2, 1, 0, 3))
    f = w4.transpose(2, 0, 3, 1).reshape(n, n2, n)
    g = w4.transpose(1, 2, 0, 3).reshape(n, n, n2)
    t, mag = np.empty((n2 * n, n), dtype=complex), np.empty((n2, n2))
    lhs, rhs = np.empty((2, n2, n2), dtype=complex)
    lhs4, rhs4 = lhs.reshape(n, n, n, n), rhs.reshape(n, n, n, n).transpose(0, 2, 1, 3)
    dev = 0.0
    for x in range(n):
        for c in range(n):
            np.matmul(a3, b[x, c], out=t)
            np.matmul(t.reshape(n2, n2), w, out=lhs)
            np.matmul(f[x], g[c], out=rhs)
            np.subtract(lhs4, rhs4, out=lhs4)
            dev = max(dev, float(np.abs(lhs, out=mag).max()))
    return dev


def check_pentagon(mu: MultiplicativeUnitary) -> CheckReport:
    """Verify W12 W13 W23 = W23 W12.

    Permutation forms are checked exactly on basis triples.  Dense forms are
    checked on every entry of the tensor cube as products of W, an n^8
    computation that holds only n^4-sized blocks at a time; they are
    accepted up to n <= DENSE_PENTAGON_MAX_DIM, within DENSE_W_TOL.
    """
    if mu.is_permutation:
        return CheckReport("pentagon", _pentagon_permutation_deviation(mu), 0.0, note="exact")
    if mu.n > DENSE_PENTAGON_MAX_DIM:
        raise ValueError(
            f"dense pentagon check needs n <= {DENSE_PENTAGON_MAX_DIM}, got n = {mu.n}")
    return CheckReport("pentagon", _pentagon_dense_deviation(mu.dense, mu.n), DENSE_W_TOL)


def algebra_closure_deviation(basis: np.ndarray) -> float:
    """How far products and adjoints of basis elements leave the span."""
    if basis.shape[0] == 0:
        return 0.0
    basis = np.ascontiguousarray(basis, dtype=complex)
    adjoints = basis.conj().transpose(0, 2, 1)
    span = SpanKernel(basis)
    return max(span.project(basis[:, None] @ basis[None, :])[1], span.project(adjoints)[1])


def slice_span_m(mu: MultiplicativeUnitary, tol: float = DEFAULT_TOL) -> np.ndarray:
    return span_basis(slice_family(mu.dense, mu.n, 2), tol)


def slice_span_mhat(mu: MultiplicativeUnitary, tol: float = DEFAULT_TOL) -> np.ndarray:
    return span_basis(slice_family(mu.dense, mu.n, 1), tol)


def comultiply(mu: MultiplicativeUnitary, x: np.ndarray) -> np.ndarray:
    """delta(x) = W^* (1 (x) x) W.  For a permutation W it is an O(n^4)
    gather; for a dense W, 1 (x) x is applied as a leg-2 contraction (n^5)
    and W^* as an n^2 x n^2 product (n^6)."""
    n = mu.n
    x = as_complex_matrix(x, n, n)
    if mu.is_permutation:
        dst, src = mu.comult_gather
        out = np.zeros(n ** 4, dtype=complex)
        out[dst] = x.ravel()[src]
        return out.reshape(n * n, n * n)
    w = mu.dense
    x_on_leg2 = (x @ w.reshape(n, n, n * n)).reshape(n * n, n * n)
    return w.conj().T @ x_on_leg2


def leg1_contraction(mu: MultiplicativeUnitary, v: np.ndarray) -> np.ndarray:
    """sum_j v[j] W[(j k), (p l)] as a [k, p, l] array: W's first output leg
    contracted with v.  A permutation W places its n^2 entries,
    out[tau[p, l], p, l] = v[sig[p, l]], and builds no dense W; a dense W
    contracts its own (n, n, n, n) view (n^4)."""
    n = mu.n
    if mu.is_permutation:
        sig, tau = mu.perm
        p, l = np.indices((n, n))
        out = np.zeros((n, n, n), dtype=complex)
        out[tau, p, l] = v[sig]
        return out
    return np.tensordot(v, mu.dense.reshape(n, n, n, n), axes=(0, 0))


def dual_comultiply(mu: MultiplicativeUnitary, y: np.ndarray) -> np.ndarray:
    """delta_hat(y) = Sigma W (y (x) 1) W^* Sigma, the comultiplication of What."""
    return comultiply(mu.dual, y)


def _swap_legs(x: np.ndarray, n: int) -> np.ndarray:
    """Sigma x Sigma for an operator on the tensor square."""
    return x.reshape(n, n, n, n).transpose(1, 0, 3, 2).reshape(n * n, n * n)


def comult_coeff_tensor(mu: MultiplicativeUnitary, basis: np.ndarray) -> np.ndarray:
    """Coefficient tensor D of delta = comultiply(mu, .) over an orthonormal
    basis: delta(x_i) = sum_{k,l} D[k, l, i] x_k (x) x_l up to the part of
    delta(x_i) outside span (x) span, which `comult_residual` measures.

    With the flat basis B[k, (a c)] = x_k[a, c] and T[(a c), (b d)] =
    delta(x_i)[(a b), (c d)], D[:, :, i] = (conj(B) @ T) @ conj(B)^T.  A
    permutation W reads D from its index maps in O(m^2 n^3)
    (`_gathered_coeff_tensor`); a dense W forms T and takes two products per
    element."""
    m = basis.shape[0]
    if m == 0:
        return np.zeros((0, 0, 0), dtype=complex)
    _require_leg_dimension(mu, basis)
    if mu.is_permutation:
        return _gathered_coeff_tensor(mu, np.ascontiguousarray(basis, dtype=complex))
    flat_conj = basis.reshape(m, -1).conj()
    coeffs = np.empty((m, m, m), dtype=complex)
    for i, t in enumerate(_comult_blocks(mu, basis)):
        coeffs[:, :, i] = (flat_conj @ t) @ flat_conj.T
    return coeffs


def comult_residual(mu: MultiplicativeUnitary, basis: np.ndarray, coeffs: np.ndarray) -> float:
    """Largest entry of delta(x_i) - sum_{k,l} D[k, l, i] x_k (x) x_l over every
    one of the n^4 entries of every delta(x_i), for D = coeffs: the membership
    residual of delta(span) in span (x) span when D is `comult_coeff_tensor`.

    It compares T with B^T @ (D[:, :, i] @ B), in the notation of
    `comult_coeff_tensor`.  A permutation W builds the reconstruction in blocks
    of rows and subtracts the n^3 nonzeros of delta(x_i) by index
    (`_gathered_residual`); a dense W forms T again, n rows at a time."""
    m = basis.shape[0]
    if m == 0:
        return 0.0
    _require_leg_dimension(mu, basis)
    if mu.is_permutation:
        return _gathered_residual(mu, np.ascontiguousarray(basis, dtype=complex), coeffs)
    n, flat = mu.n, basis.reshape(m, -1)
    recon, mag = np.empty((n, n * n), dtype=complex), np.empty((n, n * n))
    residual = 0.0
    for i, t in enumerate(_comult_blocks(mu, basis)):
        cb = coeffs[:, :, i] @ flat
        for r in range(0, n * n, n):
            np.subtract(np.matmul(flat.T[r:r + n], cb, out=recon), t[r:r + n], out=recon)
            residual = max(residual, float(np.abs(recon, out=mag).max()))
    return residual


def _require_leg_dimension(mu: MultiplicativeUnitary, basis: np.ndarray) -> None:
    if basis.shape[1:] != (mu.n, mu.n):
        raise ValueError(f"basis shape {basis.shape} does not match leg dimension {mu.n}")


def _comult_blocks(mu: MultiplicativeUnitary, basis: np.ndarray):
    """T = delta(x_i) in [(a c), (b d)] order for each basis element x_i of a
    dense W, each written into one reused n^4 buffer."""
    n = mu.n
    t4 = np.empty((n, n, n, n), dtype=complex)
    for x in basis:
        np.copyto(t4, comultiply(mu, x).reshape(n, n, n, n).transpose(0, 2, 1, 3))
        yield t4.reshape(n * n, n * n)


def _gathered_coeff_tensor(mu: MultiplicativeUnitary, basis: np.ndarray) -> np.ndarray:
    """comult_coeff_tensor of a permutation W, with no operator on the tensor square.

    With (s, t) = (s_of, t_of)[sig, tau] the pair that W sends to (sig, tau),
    delta(x)[(s t)(sig, tau), (s t)(sig, tau')] = x[tau, tau'] and every other
    entry is 0, so
      D[k, l, i] = sum_{tau, tau'} Z[k, l, tau, tau'] x_i[tau, tau'],
      Z[k, l, tau, tau'] = sum_sig conj(x_k[s(sig, tau), s(sig, tau')] x_l[t(sig, tau), t(sig, tau')]):
    for each tau, one batch of n (m x n)(n x m) products over tau' and one
    (m^2 x n)(n x m) product, O(m^2 n^3) in all."""
    m, n = basis.shape[:2]
    s_of, t_of = mu.inverse_perm
    conj_cols = np.ascontiguousarray(basis.conj().transpose(1, 2, 0))           # [a, c, k]
    d = np.zeros((m * m, m), dtype=complex)                                     # [(k l), i]
    for tau in range(n):
        xs = conj_cols[s_of[:, tau][None, :], s_of.T]                           # [tau', sig, k]
        xt = conj_cols[t_of[:, tau][None, :], t_of.T]                           # [tau', sig, l]
        z = np.matmul(xs.transpose(0, 2, 1), xt).reshape(n, m * m)              # [tau', (k l)]
        d += z.T @ basis[:, tau, :].T
    return d.reshape(m, m, m)


def _gathered_residual(mu: MultiplicativeUnitary, basis: np.ndarray, coeffs: np.ndarray) -> float:
    """comult_residual of a permutation W: B^T @ (D[:, :, i] @ B) in blocks of
    rows of T, minus the n^3 nonzeros of delta(x_i), placed by
    `mu.comult_gather`, in place."""
    m, n = basis.shape[:2]
    n2 = n * n
    dst, src = mu.comult_gather
    a, b, c, e = np.unravel_index(dst, (n, n, n, n))
    t_dst = (a * n + c) * n2 + b * n + e                                        # into T[(a c), (b e)]
    order = np.argsort(t_dst)
    t_dst, src = t_dst[order], src[order]
    rows = max(1, min(n2, _RESIDUAL_BLOCK_ENTRIES // n2))
    starts = range(0, n2, rows)
    bounds = np.searchsorted(t_dst, [r * n2 for r in starts] + [n2 * n2])
    flat = basis.reshape(m, n2)
    flat_t = np.ascontiguousarray(flat.T)
    recon, mag = np.empty((rows, n2), dtype=complex), np.empty((rows, n2))
    residual = 0.0
    for i in range(m):
        cb = coeffs[:, :, i] @ flat
        x = basis[i].reshape(n2)
        for j, r in enumerate(starts):
            block = recon[:min(rows, n2 - r)]
            np.matmul(flat_t[r:r + rows], cb, out=block)
            lo, hi = bounds[j], bounds[j + 1]
            block.reshape(-1)[t_dst[lo:hi] - r * n2] -= x[src[lo:hi]]
            residual = max(residual, float(np.abs(block, out=mag[:len(block)]).max()))
    return residual


def check_coassociativity(qg: QuantumGroupPair, tol: float = DEFAULT_TOL) -> CheckReport:
    """Deviation of (delta (x) id) delta from (id (x) delta) delta on the M basis.

    Evaluated in coefficient space (`qg.delta_coeffs`), where the orthonormal
    basis makes the coefficient norm equal the operator Frobenius norm; the
    reported deviation includes the span-membership residual of delta itself
    (`qg.delta_residual`).
    """
    d = qg.delta_coeffs
    m = d.shape[0]
    d_rows = d.reshape(m * m, m)                                                  # [(k l), a]
    lhs = (d_rows @ d.reshape(m, m * m)).reshape(m, m, m, m)                      # [k, l, b, i]
    d_ai_b = np.ascontiguousarray(d.transpose(0, 2, 1)).reshape(m * m, m)         # [(a i), b]
    rhs = (d_ai_b @ d_rows.T).reshape(m, m, m, m)                                 # [a, i, l, m']
    diff = lhs - rhs.transpose(0, 2, 3, 1)
    per_input = np.sqrt(np.sum(np.abs(diff) ** 2, axis=(0, 1, 2)))
    dev = max(float(np.max(per_input)) if per_input.size else 0.0, qg.delta_residual)
    return CheckReport("coassociativity", dev, tol)


@dataclass(frozen=True)
class Weight:
    """A positive functional given by an implementing vector:
    phi(x) = <x xi, xi>, with GNS map Lambda(x) = x xi."""

    xi: np.ndarray

    def __post_init__(self):
        xi = np.ascontiguousarray(self.xi, dtype=complex).reshape(-1)
        if not np.isfinite(xi).all():
            raise ValueError("implementing vector must be finite")
        object.__setattr__(self, "xi", xi)

    def value(self, x: np.ndarray) -> complex:
        return complex(np.vdot(self.xi, x @ self.xi))

    def gns(self, x: np.ndarray) -> np.ndarray:
        return x @ self.xi

    def state(self) -> np.ndarray:
        """The density xi xi^* / |xi|^2: the weight up to a positive scale."""
        return np.outer(self.xi, self.xi.conj()) / np.vdot(self.xi, self.xi).real

    def values_on(self, basis: np.ndarray) -> np.ndarray:
        """phi(x_k) for every operator x_k of the stack basis."""
        return flat_rows(basis) @ np.outer(self.xi.conj(), self.xi).reshape(-1)


def check_left_invariance(qg: QuantumGroupPair, tol: float = DEFAULT_TOL) -> CheckReport:
    """phi((omega (x) id)(delta x)) = phi(x) omega(1) over all matrix-unit
    functionals omega and M-basis elements x."""
    f = qg.phi_values
    dev = max(_invariance_deviation(qg, f @ qg.delta_coeffs, f), qg.delta_residual)  # f @ D: [k, i]
    return CheckReport("left-invariance", dev, tol)


def check_right_invariance(qg: QuantumGroupPair, tol: float = DEFAULT_TOL) -> CheckReport:
    """psi((id (x) omega)(delta x)) = psi(x) omega(1) for psi = phi o S, the
    right-invariant weight, with values s_mat^T phi on the M basis."""
    d, g = qg.delta_coeffs, qg.s_mat.T @ qg.phi_values
    m = d.shape[0]
    dev = max(_invariance_deviation(qg, (g @ d.reshape(m, m * m)).reshape(m, m), g),
              qg.delta_residual)
    return CheckReport("right-invariance", dev, tol)


def _invariance_deviation(qg: QuantumGroupPair, e: np.ndarray, values: np.ndarray) -> float:
    """Largest entry of sum_k e[k, i] x_k - [u = v] values[i] over the M basis
    x_k, as [v, u, i] = (B^T @ e)[(v u), i] on the flat basis rows B."""
    got = (flat_rows(qg.m_basis).T @ e).reshape(qg.n, qg.n, -1)
    return deviation(got, np.eye(qg.n)[:, :, None] * values)


def _fit_slice_map(sources: np.ndarray, targets: np.ndarray, basis: np.ndarray,
                   tol: float) -> tuple[np.ndarray, float]:
    """Least-squares linear map on span(basis) sending each source slice to
    its target slice, with the worst operator-level residual."""
    span = SpanKernel(basis)
    coords_src, mem_src = span.project(sources)                                   # [q, k]
    coords_tgt, mem_tgt = span.project(targets)
    # Solve coords_src @ S^T = coords_tgt in the least-squares sense.
    s_mat_t, *_ = np.linalg.lstsq(coords_src, coords_tgt, rcond=None)
    s_mat = s_mat_t.T
    fit = max_abs(coords_src @ s_mat_t - coords_tgt)
    mem = max(mem_src, mem_tgt)
    residual = max(fit, mem)
    if residual > tol:
        raise InconsistentSlices(
            f"antipode is not well defined on the span (residual {residual:.3e})")
    return s_mat, residual


def antipode_from_slices(mu: MultiplicativeUnitary, basis: np.ndarray,
                         tol: float = DEFAULT_TOL) -> tuple[np.ndarray, float]:
    """Antipode on M in basis coordinates, as the unique linear map with
    S((id (x) theta)(W)) = (id (x) theta)(W^*) over all matrix-unit theta."""
    sources = slice_family(mu.dense, mu.n, 2)
    targets = slice_family(mu.dense.conj().T, mu.n, 2)
    return _fit_slice_map(sources, targets, basis, tol)


def antipode_hat_from_slices(mu: MultiplicativeUnitary, basis_hat: np.ndarray,
                             tol: float = DEFAULT_TOL) -> tuple[np.ndarray, float]:
    """Dual antipode on Mhat: Shat((omega (x) id)(W^*)) = (omega (x) id)(W),
    the antipode of What."""
    return antipode_from_slices(mu.dual, basis_hat, tol)


def lam(mu: MultiplicativeUnitary, omega: Functional) -> np.ndarray:
    """Canonical embedding of a functional into Mhat: lam(omega) =
    (omega (x) id)(W)."""
    return slice_left(omega, mu.dense)


def lam_hat(mu: MultiplicativeUnitary, theta: Functional) -> np.ndarray:
    """Canonical embedding of a functional into M: lam_hat(theta) =
    (id (x) theta)(W^*) = (theta (x) id)(What)."""
    return lam(mu.dual, theta)


def sharp(omega: Functional, s_mat: np.ndarray, span: SpanKernel) -> Functional:
    """The sharp of a functional, omega_sharp(x) = conj(omega(S(x)^*)),
    re-encoded as a density supported on the span (a pair's cached `span`)."""
    f = s_mat.T @ span.coords(omega.density).conj()
    return Functional(span.reconstruct(f.conj()).conj().T)


def fixed_leg_vectors(mu: MultiplicativeUnitary) -> np.ndarray:
    """Orthonormal basis of {v : W(eta (x) v) = eta (x) v for all eta}.  The
    mirrored condition W(v (x) eta) = v (x) eta is this one on What."""
    n = mu.n
    lhs = mu.dense.reshape(n * n * n, n)                    # rows (a,b,i), cols t
    rhs = np.eye(n * n).reshape(n * n * n, n)               # [a,b,i,t] = [a=i][b=t]
    _, svals, vh = np.linalg.svd(lhs - rhs, full_matrices=False)
    return vh[rank(svals):].conj()


def _gns_duality_sides(w: np.ndarray, n: int, m_basis: np.ndarray, xi_phi: np.ndarray,
                       xi_phihat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Both sides of <Lambda_hat((omega (x) id)(W)), Lambda(x)> = omega(x^*)
    over matrix-unit omega = E_uv (rows, (u, v) order) and M-basis x (columns)."""
    lhs = (slice_family(w, n, 1) @ xi_phihat) @ (m_basis @ xi_phi).conj().T
    return lhs, m_basis.conj().reshape(m_basis.shape[0], n * n).T


def derive_haar_vectors(mu: MultiplicativeUnitary, m_basis: np.ndarray,
                        tol: float = DEFAULT_TOL) -> tuple[np.ndarray, np.ndarray]:
    """Implementing vectors for the Haar weights of a generic W.

    The GNS relation W^*(Lambda(x) (x) Lambda(y)) = (Lambda (x) Lambda)
    (delta(y)(x (x) 1)) forces W(eta (x) xi_phi) = eta (x) xi_phi for every
    eta, and the same condition on What for xi_phihat; each fixed-vector space
    must be a line.  xi_phi is normalized to |xi_phi|^2 = n (counting
    convention); the scale of xi_phihat is pinned by the dual GNS relation
    <Lambda_hat((omega (x) id)(W)), Lambda(x)> = omega(x^*).
    """
    n = mu.n
    v2 = fixed_leg_vectors(mu)
    if v2.shape[0] != 1:
        raise WeightDerivationError(
            f"leg-2 fixed space has dimension {v2.shape[0]}, expected 1 "
            "(is W the multiplicative unitary of a quantum group in GNS position?)")
    xi_phi = v2[0] * math.sqrt(n)

    v1 = fixed_leg_vectors(mu.dual)
    if v1.shape[0] != 1:
        raise WeightDerivationError(
            f"leg-1 fixed space has dimension {v1.shape[0]}, expected 1")
    unit = v1[0]

    lhs, rhs = _gns_duality_sides(mu.dense, n, m_basis, xi_phi, unit)
    denom = float(np.sum(np.abs(lhs) ** 2))
    if denom <= tol:
        raise WeightDerivationError("dual weight scale is undetermined")
    scale = complex(np.sum(lhs.conj() * rhs)) / denom
    return xi_phi, scale * unit


class QuantumGroupPair:
    """The bundle (M basis, Mhat basis, W, weights, antipodes) on a common
    carrier space; the object all Fourier and pairing operations consume.

    Instances are immutable after construction; cached derived data
    (the comultiplication coefficient tensor, the dual pair, and the tables of
    the Fourier transform, convolution and pairing on the bases) is computed
    once on first use.  The membership residual of that tensor,
    `delta_residual`, is cached apart, and only the coassociativity and
    invariance checks read it; the transforms read `delta_coeffs` alone.  No
    dense W is cached here: `w` and `w4` read `mu.dense`, and the Fourier and
    pairing tables read W through `leg1_contraction`, so on a permutation W
    they build no dense W.  `dual` is the pair of What with M and Mhat
    exchanged; it holds no reference back.  `span` is the projection onto M
    (`linalg.SpanKernel`), laid out once and read by `require_in_m`,
    `coords_m`, `apply_s`/`apply_s_inv` and every reconstruction on M, and
    handed to `sharp` and `linalg.random_element`; `dual.span` projects onto
    Mhat.
    """

    def __init__(self, mu: MultiplicativeUnitary, m_basis: np.ndarray,
                 mhat_basis: np.ndarray, phi: Weight, phihat: Weight,
                 s_mat: np.ndarray, shat_mat: np.ndarray):
        self.mu = mu
        self.n = mu.n
        self.m_basis = np.ascontiguousarray(m_basis, dtype=complex)
        self.mhat_basis = np.ascontiguousarray(mhat_basis, dtype=complex)
        self.phi = phi
        self.phihat = phihat
        self.s_mat = np.asarray(s_mat, dtype=complex)
        self.shat_mat = np.asarray(shat_mat, dtype=complex)

    @property
    def w(self) -> np.ndarray:
        return self.mu.dense

    @property
    def w4(self) -> np.ndarray:
        return self.w.reshape(self.n, self.n, self.n, self.n)

    @cached_property
    def dual(self) -> "QuantumGroupPair":
        return QuantumGroupPair(self.mu.dual, self.mhat_basis, self.m_basis,
                                self.phihat, self.phi, self.shat_mat, self.s_mat)

    @cached_property
    def delta_coeffs(self) -> np.ndarray:
        return comult_coeff_tensor(self.mu, self.m_basis)

    @cached_property
    def delta_residual(self) -> float:
        return comult_residual(self.mu, self.m_basis, self.delta_coeffs)

    @property
    def delta_hat_coeffs(self) -> np.ndarray:
        return self.dual.delta_coeffs

    @cached_property
    def phi_values(self) -> np.ndarray:
        return self.phi.values_on(self.m_basis)

    @cached_property
    def span(self) -> SpanKernel:
        """The projection onto M, laid out once; `dual.span` projects onto Mhat."""
        return SpanKernel(self.m_basis)

    def coords_m(self, x: np.ndarray) -> np.ndarray:
        return self.span.coords(x)

    def require_in_m(self, x: np.ndarray) -> np.ndarray:
        """Coordinates of x in the M basis; ValueError if an entry of x is NaN or
        infinite, NotInAlgebra if x is off the span by more than
        DEFAULT_TOL * (1 + max|x|).  A non-finite entry leaves a non-finite
        residual, so max|x| is read only for a residual above DEFAULT_TOL."""
        with np.errstate(invalid="ignore"):
            coords, res = self.span.project(x)
        if not res <= DEFAULT_TOL:
            bound = max_abs(x)
            if not math.isfinite(bound):
                raise ValueError("operand entries must be finite (no NaN/Inf)")
            if res > DEFAULT_TOL * (1.0 + bound):
                raise NotInAlgebra(f"operand lies outside the algebra (residual {res:.3e})")
        return coords

    @cached_property
    def s_inv_mat(self) -> np.ndarray:
        svals = np.linalg.svd(self.s_mat, compute_uv=False)
        if svals.size == 0 or svals[-1] <= ANTIPODE_SINGULAR_RTOL * svals[0]:
            raise SingularAntipode("antipode matrix is singular within tolerance")
        return np.linalg.inv(self.s_mat)

    @property
    def shat_inv_mat(self) -> np.ndarray:
        return self.dual.s_inv_mat

    def _map_m(self, mat: np.ndarray, x: np.ndarray) -> np.ndarray:
        """A map on M, in basis coordinates, applied to x or to each of a stack x."""
        return self.span.reconstruct(self.span.coords(x) @ mat.T)

    def apply_s(self, x: np.ndarray) -> np.ndarray:
        return self._map_m(self.s_mat, x)

    def apply_s_inv(self, x: np.ndarray) -> np.ndarray:
        return self._map_m(self.s_inv_mat, x)

    @cached_property
    def fourier_table(self) -> np.ndarray:
        """Rows F(x_k) on the M basis, flattened, so F(a) = coords(a) @ table:
        xi_phi-bar contracted with W's first leg (`leg1_contraction`: n^2
        writes for a permutation W, n^4 for a dense one), then with each
        x_k xi_phi (m n^3)."""
        n = self.n
        half = leg1_contraction(self.mu, self.phi.xi.conj())                # [k, p, l]
        return (self.m_basis @ self.phi.xi) @ half.transpose(1, 0, 2).reshape(n, n * n)

    @cached_property
    def convolution_table(self) -> np.ndarray:
        """G[k, j] = phi(S^{-1}(x_k) x_j) on the M basis."""
        xi, basis = self.phi.xi, self.m_basis
        return self.s_inv_mat.T @ ((xi.conj() @ basis) @ (basis @ xi).T)

    @cached_property
    def pairing_table(self) -> np.ndarray:
        """P[j, l] = (phi (x) phihat)[(x_j (x) 1) W^* (1 (x) y_l)] on the bases, from
        xi_phi-bar contracted with W's first leg (`leg1_contraction`), then with
        xi_phihat, as W^*[(p, k), (j, q)] = conj W[(j, q), (p, k)]."""
        xi, xihat = self.phi.xi, self.phihat.xi
        w_star_mid = (leg1_contraction(self.mu, xi.conj()) @ xihat).T.conj()
        return (xi.conj() @ self.m_basis) @ w_star_mid @ (self.mhat_basis @ xihat).T


def derive_pair(mu: MultiplicativeUnitary, run, tol: float = DEFAULT_TOL) -> QuantumGroupPair | None:
    """The pair of W, derived in three stages, each run as run(stage, fn): fn()
    returns the stage's CheckReport, and run returns whether it passed.
    algebra-generation spans M and Mhat and bounds their closure, haar-weights
    recovers both implementing vectors, antipode-assembly fits both antipodes.
    None after the first stage that fails."""
    spans, weights, fits = [], [], []

    def generation() -> CheckReport:
        spans[:] = slice_span_m(mu, tol), slice_span_mhat(mu, tol)
        return CheckReport("algebra-generation", max(map(algebra_closure_deviation, spans)), tol)

    def haar_weights() -> CheckReport:
        weights[:] = map(Weight, derive_haar_vectors(mu, spans[0], tol))
        return CheckReport("haar-weights", 0.0, tol)

    def antipode_assembly() -> CheckReport:
        fits[:] = (antipode_from_slices(mu, spans[0], tol),
                   antipode_hat_from_slices(mu, spans[1], tol))
        return CheckReport("antipode-assembly", max(fits[0][1], fits[1][1]), tol)

    if not (run("algebra-generation", generation) and run("haar-weights", haar_weights)
            and run("antipode-assembly", antipode_assembly)):
        return None
    (s_mat, _), (shat_mat, _) = fits
    return QuantumGroupPair(mu, *spans, *weights, s_mat, shat_mat)


def _require(stage: str, fn) -> bool:
    """A runner for `derive_pair` that raises ValueError at a failed stage."""
    check = fn()
    if not check.passed:
        raise ValueError(f"W is not the multiplicative unitary of a pair: {stage} "
                         f"deviation {check.deviation:.3e} exceeds {check.tolerance:.3e}")
    return True


def pair_from_unitary(w, tol: float = DEFAULT_TOL) -> QuantumGroupPair:
    """The pair of W, through the suite's structural stages at its bounds:
    unitarity, the pentagon, then `derive_pair`.  ValueError names the first
    stage that fails and its deviation (check_pentagon's own for a dense W with
    n > DENSE_PENTAGON_MAX_DIM); WeightDerivationError and InconsistentSlices
    propagate from haar-weights and antipode-assembly."""
    mu = w if isinstance(w, MultiplicativeUnitary) else MultiplicativeUnitary.from_dense(w)
    _require("unitarity", lambda: check_unitarity(mu))
    _require("pentagon", lambda: check_pentagon(mu))
    return derive_pair(mu, _require, tol)


def pair_deviation(a: QuantumGroupPair, b: QuantumGroupPair) -> float:
    """How far two pairs on one carrier space are from equal, on both sides
    (each pair and its dual): the M spans, the Haar weights up to a positive
    scale (`Weight.state`), and the antipodes on a's M basis."""
    dev = 0.0
    for x, y in ((a, b), (a.dual, b.dual)):
        dev = max(dev, subspace_equal(x.m_basis, y.m_basis),
                  deviation(x.phi.state(), y.phi.state()),
                  deviation(x.apply_s(x.m_basis), y.apply_s(x.m_basis)))
    return dev


def check_w_membership(qg: QuantumGroupPair, tol: float = DEFAULT_TOL) -> CheckReport:
    """Residual of W against span(M (x) Mhat)."""
    n2 = qg.n * qg.n
    ma, mb = flat_rows(qg.m_basis), flat_rows(qg.mhat_basis)
    t = np.ascontiguousarray(qg.w4.transpose(0, 2, 1, 3)).reshape(n2, n2)         # [(a c), (b d)]
    coeffs = (ma.conj() @ t) @ mb.conj().T
    return CheckReport("w-membership", max_abs(t - ma.T @ (coeffs @ mb)), tol)


def _gns_duality(name: str, qg: QuantumGroupPair, tol: float) -> CheckReport:
    lhs, rhs = _gns_duality_sides(qg.w, qg.n, qg.m_basis, qg.phi.xi, qg.phihat.xi)
    return CheckReport(name, deviation(lhs, rhs), tol)


def check_gns_duality_phihat(qg: QuantumGroupPair, tol: float = DEFAULT_TOL) -> CheckReport:
    return _gns_duality("gns-duality-phihat", qg, tol)


def check_gns_duality_phihatdual(qg: QuantumGroupPair,
                                 tol: float = DEFAULT_TOL) -> CheckReport:
    """<Lambda((id (x) omega)(W^*)), Lambda_hat(y)> = omega(y^*): the phihat
    relation of the dual pair."""
    return _gns_duality("gns-duality-phihatdual", qg.dual, tol)


def check_antipode(qg: QuantumGroupPair, tol: float = DEFAULT_TOL) -> CheckReport:
    """Anti-multiplicativity, S^2 = id and the Kac law S(x^*)^* = S^{-1}(x) (raises
    SingularAntipode for a singular S); antipode-assembly bounds slice consistency."""
    # Each law on the whole basis at once: [i, j] stacks hold x_i x_j and S(x_j) S(x_i).
    basis = qg.m_basis
    s_on_basis = qg.span.reconstruct(qg.s_mat.T)
    dev = deviation(qg.apply_s(basis[:, None] @ basis[None, :]),
                    s_on_basis[None, :] @ s_on_basis[:, None])

    s2dev = deviation(qg.s_mat @ qg.s_mat, np.eye(basis.shape[0]))
    twisted = qg.apply_s(basis.conj().transpose(0, 2, 1)).conj().transpose(0, 2, 1)
    dev = max(dev, s2dev, deviation(twisted, qg.apply_s_inv(basis)))
    return CheckReport("antipode-slices", dev, tol,
                       note=f"S^2 deviation from id: {s2dev:.3e}")


def check_sharp_involution(qg: QuantumGroupPair, rng: np.random.Generator,
                           tol: float = DEFAULT_TOL) -> CheckReport:
    """((omega (x) id)(W))^* = (omega_sharp (x) id)(W) for SHARP_SAMPLES random
    omega, and involutivity of sharp on the algebra."""
    lam_w, dev = left_slicer(qg.w, qg.n), 0.0                 # lam(mu, .), W laid out once
    for _ in range(SHARP_SAMPLES):
        omega = Functional(random_complex(rng, (qg.n, qg.n)))
        omega_sharp = sharp(omega, qg.s_mat, qg.span)
        dev = max(dev, deviation(lam_w(omega).conj().T, lam_w(omega_sharp)))
        twice = sharp(omega_sharp, qg.s_mat, qg.span)
        dev = max(dev, deviation(omega.values_on(qg.m_basis), twice.values_on(qg.m_basis)))
    return CheckReport("sharp-involution", dev, tol)


def _conjugated_unit_values(x4: np.ndarray):
    """For X on the tensor square, given as x4[j, l, a, q] = X[(j l), (a q)],
    the map (r1, r2) -> V with V[a, b] = trace((r1 (x) r2) X (E_ab (x) 1) X^*)
    = sum r1[i, j] r2[k, l] x4[j, l, a, q] conj(x4[i, k, b, q]): three n^5
    products, with the conjugated operand laid out once."""
    n = x4.shape[0]
    rows = np.ascontiguousarray(x4, dtype=complex).reshape(n, n ** 3)                # [j, (l a q)]
    conj_rows = flat_rows(rows.conj().reshape(n * n, n, n).transpose(1, 0, 2))        # [b, (i k) q]

    def values(r1: np.ndarray, r2: np.ndarray) -> np.ndarray:
        t = (r1 @ rows).reshape(n, n, n * n)                                    # [i, l, (a q)]
        u = np.matmul(r2, t).reshape(n * n, n, n)                               # [(i k), a, q]
        return flat_rows(u.transpose(1, 0, 2)) @ conj_rows.T
    return values


def _product_law_deviation(slicer, draws, comultiplied_values) -> float:
    """Largest entry of slicer(f1) slicer(f2) - slicer(f12) over the drawn
    densities (r1, r2) of f1, f2, where f12 has the values
    comultiplied_values(r1, r2) on the matrix units."""
    dev = 0.0
    for r1, r2 in draws:
        lhs = slicer(Functional(r1)) @ slicer(Functional(r2))
        dev = max(dev, deviation(lhs, slicer(Functional(comultiplied_values(r1, r2).T))))
    return dev


def check_slice_product_laws(qg: QuantumGroupPair, rng: np.random.Generator,
                             tol: float = DEFAULT_TOL) -> CheckReport:
    """Multiplicativity of W: products of slices are slices of the
    comultiplied functionals, on both legs and for W^* on leg 2, for
    PRODUCT_LAW_SAMPLES random pairs of functionals.

    The comultiplied functionals (e.g. mu = (omega1 (x) omega2) o delta) are
    evaluated on all matrix units in one contraction against W, never forming
    operators on the tensor square per unit.  Each law lays its operand out
    once for every sample, and one law at a time.
    """
    n = qg.n
    w, w4 = qg.w, qg.w4
    draws = [(random_complex(rng, (n, n)), random_complex(rng, (n, n)))
             for _ in range(PRODUCT_LAW_SAMPLES)]

    # (omega1 (x) id)(W)(omega2 (x) id)(W) = (mu (x) id)(W),
    # mu = (omega1 (x) omega2) o delta.  mu(E_ab) tabulated directly.
    dev = _product_law_deviation(left_slicer(w, n), draws,
                                 _conjugated_unit_values(w4.conj().transpose(2, 3, 1, 0)))  # X = W^* Sigma

    # (id (x) theta1)(W)(id (x) theta2)(W) = (id (x) nu)(W),
    # nu = (theta1 (x) theta2) o delta_hat_cop with delta_hat_cop(y) = W(y (x) 1)W^*.
    delta_hat_cop_on_units = _conjugated_unit_values(w4)                       # X = W
    dev = max(dev, _product_law_deviation(right_slicer(w, n), draws, delta_hat_cop_on_units))

    # Same law for W^*, now with the unflipped delta_hat = (theta2 (x) theta1)
    # o delta_hat_cop.
    dev = max(dev, _product_law_deviation(right_slicer(w.conj().T, n), draws,
                                          lambda r1, r2: delta_hat_cop_on_units(r2, r1)))
    return CheckReport("slice-product-laws", dev, tol)


def pontryagin_check(mu: MultiplicativeUnitary) -> CheckReport:
    """Pontryagin duality What^ = W, exactly (index maps for a permutation W)."""
    twice = mu.dual.dual
    if mu.is_permutation:
        same = all(map(np.array_equal, twice.perm, mu.perm))
        return CheckReport("pontryagin", 0.0 if same else 1.0, 0.0)
    return CheckReport("pontryagin", deviation(twice.dense, mu.dense), 0.0)
