"""Multiplicative-unitary engine.

Builds and checks the full structure carried by a multiplicative unitary W on
the tensor square of an n-dimensional Hilbert space: the pentagon relation,
the two slice algebras M (leg-2 slices of W) and Mhat (leg-1 slices), the
comultiplications, the antipodes recovered from slice consistency, invariant
(Haar) weights realized as implementing vectors, the sharp involution on
functionals, and the double-dual (Pontryagin) span check.

Comultiplications act by conjugation with W:

    delta(x)     = W^* (1 (x) x) W
    delta_hat(y) = Sigma W (y (x) 1) W^* Sigma

The Mhat side is the M side of the dual unitary What = Sigma W^* Sigma
(`MultiplicativeUnitary.dual`, `QuantumGroupPair.dual`), so each hat-side
function here is the M-side function applied to the dual.

Heavy identities on the generated algebras (coassociativity, invariance) are
checked in coefficient space, on the pair's cached tensor `qg.delta_coeffs`:
with orthonormal algebra bases it reproduces the operator-level Frobenius
deviations exactly, up to the separately reported span-membership residual,
and never materializes operators on the tensor cube.  The checks of a built
pair take `(qg, tol)` with `tol` one float absolute bound; `check_pentagon(mu)`
bounds by 0, or by DENSE_PENTAGON_TOL for a dense W.  The pair caches no dense W.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .linalg import (
    DEFAULT_TOL,
    RANK_RTOL,
    Functional,
    as_complex_matrix,
    deviation,
    max_abs,
    membership_residual,
    random_complex,
    slice_left,
    slice_right,
    span_basis,
    span_coords,
    span_reconstruct,
    subspace_equal,
)

DENSE_PENTAGON_MAX_DIM = 12
DENSE_PENTAGON_TOL = 1e-12


class ClosureFailure(ValueError):
    """Products or adjoints of generated slices leave the span: W is not of
    the expected regular type."""


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
    returns the permutation form of What, and `comultiply` is a gather.
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
        permutation with sig_hat[tau, sig] = t and tau_hat[tau, sig] = s.
        """
        if not self.is_permutation:
            return MultiplicativeUnitary(self.n, dense=_swap_legs(self.dense.conj().T, self.n))
        if self.unitarity_deviation() != 0.0:
            raise ValueError("permutation maps are not a bijection of basis pairs")
        sig, tau = self.perm
        s, t = np.indices(sig.shape)
        sig_hat, tau_hat = np.empty_like(sig), np.empty_like(tau)
        sig_hat[tau, sig] = t
        tau_hat[tau, sig] = s
        return MultiplicativeUnitary.from_permutation(sig_hat, tau_hat)

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
        return max(deviation(w @ w.conj().T, eye), deviation(w.conj().T @ w, eye))


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
    accepted up to n <= DENSE_PENTAGON_MAX_DIM, within DENSE_PENTAGON_TOL.
    """
    if mu.is_permutation:
        return CheckReport("pentagon", _pentagon_permutation_deviation(mu), 0.0, note="exact")
    if mu.n > DENSE_PENTAGON_MAX_DIM:
        raise ValueError(
            f"dense pentagon check needs n <= {DENSE_PENTAGON_MAX_DIM}, got n = {mu.n}")
    return CheckReport("pentagon", _pentagon_dense_deviation(mu.dense, mu.n), DENSE_PENTAGON_TOL)


def slice_family_leg2(w: np.ndarray, n: int) -> np.ndarray:
    """All leg-2 slices (id (x) theta)(w) over matrix-unit functionals
    theta = E_kl, stacked in (k, l) order; shape (n^2, n, n)."""
    w4 = np.asarray(w, dtype=complex).reshape(n, n, n, n)
    return np.ascontiguousarray(np.transpose(w4, (3, 1, 0, 2)).reshape(n * n, n, n))


def slice_family_leg1(w: np.ndarray, n: int) -> np.ndarray:
    """All leg-1 slices (omega (x) id)(w) over matrix units E_ij, in (i, j)
    order; shape (n^2, n, n)."""
    w4 = np.asarray(w, dtype=complex).reshape(n, n, n, n)
    return np.ascontiguousarray(np.transpose(w4, (2, 0, 1, 3)).reshape(n * n, n, n))


def algebra_closure_deviation(basis: np.ndarray) -> float:
    """How far products and adjoints of basis elements leave the span."""
    if basis.shape[0] == 0:
        return 0.0
    m = basis.shape[0]
    products = np.einsum("iab,jbc->ijac", basis, basis).reshape(m * m, *basis.shape[1:])
    adjoints = basis.conj().transpose(0, 2, 1)
    return max(membership_residual(products, basis), membership_residual(adjoints, basis))


def slice_span_m(mu: MultiplicativeUnitary, tol: float = DEFAULT_TOL) -> np.ndarray:
    return span_basis(slice_family_leg2(mu.dense, mu.n), tol)


def slice_span_mhat(mu: MultiplicativeUnitary, tol: float = DEFAULT_TOL) -> np.ndarray:
    return span_basis(slice_family_leg1(mu.dense, mu.n), tol)


def _require_closed(basis: np.ndarray, leg: int, tol: float) -> np.ndarray:
    dev = algebra_closure_deviation(basis)
    if dev > tol:
        raise ClosureFailure(f"leg-{leg} slice span is not an algebra (deviation {dev:.3e})")
    return basis


def generate_M(mu: MultiplicativeUnitary, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Orthonormal basis of the span of leg-2 slices of W, verified closed
    under multiplication and adjoint.  Raises ClosureFailure otherwise."""
    return _require_closed(slice_span_m(mu, tol), 2, tol)


def generate_Mhat(mu: MultiplicativeUnitary, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Orthonormal basis of the span of leg-1 slices of W; see generate_M."""
    return _require_closed(slice_span_mhat(mu, tol), 1, tol)


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


def dual_comultiply(mu: MultiplicativeUnitary, y: np.ndarray) -> np.ndarray:
    """delta_hat(y) = Sigma W (y (x) 1) W^* Sigma, the comultiplication of What."""
    return comultiply(mu.dual, y)


def _swap_legs(x: np.ndarray, n: int) -> np.ndarray:
    """Sigma x Sigma for an operator on the tensor square."""
    return x.reshape(n, n, n, n).transpose(1, 0, 3, 2).reshape(n * n, n * n)


def comult_coeff_tensor(mu: MultiplicativeUnitary, basis: np.ndarray) -> tuple[np.ndarray, float]:
    """Coefficient tensor D of delta = comultiply(mu, .) over an orthonormal
    basis: delta(x_i) = sum_{k,l} D[k, l, i] x_k (x) x_l, plus the largest
    membership residual of any delta(x_i) in span (x) span.

    With the flat basis B[k, (a c)] = x_k[a, c] and T[(a c), (b d)] =
    delta(x_i)[(a b), (c d)], D[:, :, i] = (conj(B) @ T) @ conj(B)^T, and the
    residual compares T with B^T @ (D[:, :, i] @ B), n rows at a time."""
    m, n = basis.shape[:2]
    n2 = n * n
    flat = basis.reshape(m, n2)
    flat_conj = flat.conj()
    coeffs = np.empty((m, m, m), dtype=complex)
    t4 = np.empty((n, n, n, n), dtype=complex)
    t = t4.reshape(n2, n2)
    recon, mag = np.empty((n, n2), dtype=complex), np.empty((n, n2))
    residual = 0.0
    for i in range(m):
        np.copyto(t4, comultiply(mu, basis[i]).reshape(n, n, n, n).transpose(0, 2, 1, 3))
        c = coeffs[:, :, i] = (flat_conj @ t) @ flat_conj.T
        cb = c @ flat
        for r in range(0, n2, n):
            np.subtract(np.matmul(flat.T[r:r + n], cb, out=recon), t[r:r + n], out=recon)
            residual = max(residual, float(np.abs(recon, out=mag).max()))
    return coeffs, residual


def check_coassociativity(qg: QuantumGroupPair, tol: float = DEFAULT_TOL) -> CheckReport:
    """Deviation of (delta (x) id) delta from (id (x) delta) delta on the M basis.

    Evaluated in coefficient space (`qg.delta_coeffs`), where the orthonormal
    basis makes the coefficient norm equal the operator Frobenius norm; the
    reported deviation includes the span-membership residual of delta itself.
    """
    d, residual = qg.delta_coeffs
    lhs = np.einsum("kla,abi->klbi", d, d)
    rhs = np.einsum("lmb,abi->almi", d, d)
    diff = lhs - rhs
    per_input = np.sqrt(np.sum(np.abs(diff) ** 2, axis=(0, 1, 2)))
    dev = max(float(np.max(per_input)) if per_input.size else 0.0, residual)
    return CheckReport("coassociativity", dev, tol)


@dataclass(frozen=True)
class Weight:
    """A positive functional given by an implementing vector:
    phi(x) = <x xi, xi>, with GNS map Lambda(x) = x xi."""

    xi: np.ndarray

    def __post_init__(self):
        xi = np.asarray(self.xi, dtype=complex).reshape(-1)
        if not (np.all(np.isfinite(xi.real)) and np.all(np.isfinite(xi.imag))):
            raise ValueError("implementing vector must be finite")
        object.__setattr__(self, "xi", xi)

    def value(self, x: np.ndarray) -> complex:
        return complex(np.vdot(self.xi, x @ self.xi))

    def gns(self, x: np.ndarray) -> np.ndarray:
        return x @ self.xi

    def values_on(self, basis: np.ndarray) -> np.ndarray:
        return np.einsum("kab,b,a->k", basis, self.xi, self.xi.conj())

    def gns_rank(self, basis: np.ndarray) -> int:
        """Rank of Lambda on the basis; equals len(basis) iff faithful there."""
        if basis.shape[0] == 0:
            return 0
        vectors = basis @ self.xi
        svals = np.linalg.svd(vectors, compute_uv=False)
        return int(np.sum(svals > RANK_RTOL * svals[0])) if svals[0] > 0 else 0


def check_left_invariance(qg: QuantumGroupPair, tol: float = DEFAULT_TOL) -> CheckReport:
    """phi((omega (x) id)(delta x)) = phi(x) omega(1) over all matrix-unit
    functionals omega and M-basis elements x."""
    d, residual = qg.delta_coeffs
    f = qg.phi_values
    got = np.einsum("kli,kvu,l->uvi", d, qg.m_basis, f)
    want = np.einsum("uv,i->uvi", np.eye(qg.n), f)
    dev = max(deviation(got, want), residual)
    return CheckReport("left-invariance", dev, tol)


def check_right_invariance(qg: QuantumGroupPair, tol: float = DEFAULT_TOL) -> CheckReport:
    """psi((id (x) omega)(delta x)) = psi(x) omega(1) for psi = phi o S, the
    right-invariant weight, with values s_mat^T phi on the M basis."""
    d, residual = qg.delta_coeffs
    g = qg.s_mat.T @ qg.phi_values
    got = np.einsum("kli,k,lvu->uvi", d, g, qg.m_basis)
    want = np.einsum("uv,i->uvi", np.eye(qg.n), g)
    dev = max(deviation(got, want), residual)
    return CheckReport("right-invariance", dev, tol)


def _fit_slice_map(sources: np.ndarray, targets: np.ndarray, basis: np.ndarray,
                   tol: float, what: str) -> tuple[np.ndarray, float]:
    """Least-squares linear map on span(basis) sending each source slice to
    its target slice, with the worst operator-level residual."""
    coords_src = np.einsum("qab,kab->kq", sources, basis.conj())
    coords_tgt = np.einsum("qab,kab->kq", targets, basis.conj())
    mem = max(membership_residual(sources, basis), membership_residual(targets, basis))
    # Solve S @ coords_src = coords_tgt in the least-squares sense.
    s_mat, *_ = np.linalg.lstsq(coords_src.T, coords_tgt.T, rcond=None)
    s_mat = s_mat.T
    fit = max_abs(s_mat @ coords_src - coords_tgt)
    residual = max(fit, mem)
    if residual > tol:
        raise InconsistentSlices(
            f"{what} is not well defined on the span (residual {residual:.3e})")
    return s_mat, residual


def antipode_from_slices(mu: MultiplicativeUnitary, basis: np.ndarray,
                         tol: float = DEFAULT_TOL) -> tuple[np.ndarray, float]:
    """Antipode on M in basis coordinates, as the unique linear map with
    S((id (x) theta)(W)) = (id (x) theta)(W^*) over all matrix-unit theta."""
    n = mu.n
    sources = slice_family_leg2(mu.dense, n)
    targets = slice_family_leg2(mu.dense.conj().T, n)
    return _fit_slice_map(sources, targets, basis, tol, "antipode")


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


def sharp(omega: Functional, s_mat: np.ndarray, basis: np.ndarray) -> Functional:
    """The sharp of a functional, omega_sharp(x) = conj(omega(S(x)^*)),
    re-encoded as a density supported on the span."""
    star_vals = np.einsum("ij,lij->l", omega.density, basis.conj())
    f = s_mat.T @ star_vals.conj()
    density = np.einsum("k,kab->ba", f, basis.conj())
    return Functional(density)


@dataclass(frozen=True)
class SharpFunctional:
    """A functional paired with its sharp; satisfies
    ((omega (x) id)(W))^* = (omega_sharp (x) id)(W) and is involutive on the
    algebra."""

    omega: Functional
    omega_sharp: Functional

    @classmethod
    def of(cls, omega: Functional, s_mat: np.ndarray,
           basis: np.ndarray) -> "SharpFunctional":
        return cls(omega, sharp(omega, s_mat, basis))

    def adjoint_deviation(self, mu: MultiplicativeUnitary) -> float:
        return deviation(lam(mu, self.omega).conj().T, lam(mu, self.omega_sharp))


def fixed_leg_vectors(mu: MultiplicativeUnitary, leg: int) -> np.ndarray:
    """Orthonormal basis of {v : W(eta (x) v) = eta (x) v for all eta}
    (leg = 2), or of the mirrored leg-1 condition (leg = 1)."""
    n = mu.n
    w4 = mu.dense.reshape(n, n, n, n)
    if leg == 2:
        lhs = w4.reshape(n * n * n, n)                      # rows (a,b,i), cols t
        rhs = np.einsum("ai,bt->abit", np.eye(n), np.eye(n)).reshape(n * n * n, n)
    elif leg == 1:
        lhs = np.transpose(w4, (0, 1, 3, 2)).reshape(n * n * n, n)  # rows (a,b,j), cols s
        rhs = np.einsum("bj,as->abjs", np.eye(n), np.eye(n)).reshape(n * n * n, n)
    else:
        raise ValueError("leg must be 1 or 2")
    _, svals, vh = np.linalg.svd(lhs - rhs, full_matrices=False)
    cutoff = max(DEFAULT_TOL, RANK_RTOL * (svals[0] if svals.size else 1.0))
    null_dim = int(np.sum(svals <= cutoff)) + (n - svals.size)
    return vh[n - null_dim:].conj() if null_dim else np.zeros((0, n), dtype=complex)


def derive_haar_vectors(mu: MultiplicativeUnitary, m_basis: np.ndarray,
                        tol: float = DEFAULT_TOL) -> tuple[np.ndarray, np.ndarray]:
    """Implementing vectors for the Haar weights of a generic W.

    The GNS relation W^*(Lambda(x) (x) Lambda(y)) = (Lambda (x) Lambda)
    (delta(y)(x (x) 1)) forces W(eta (x) xi_phi) = eta (x) xi_phi for every
    eta, and dually for xi_phihat; each fixed-vector space must be a line.
    xi_phi is normalized to |xi_phi|^2 = n (counting convention); the scale of
    xi_phihat is pinned by the dual GNS relation
    <Lambda_hat((omega (x) id)(W)), Lambda(x)> = omega(x^*).
    """
    n = mu.n
    v2 = fixed_leg_vectors(mu, 2)
    if v2.shape[0] != 1:
        raise WeightDerivationError(
            f"leg-2 fixed space has dimension {v2.shape[0]}, expected 1 "
            "(is W the multiplicative unitary of a quantum group in GNS position?)")
    xi_phi = v2[0] * math.sqrt(n)

    v1 = fixed_leg_vectors(mu, 1)
    if v1.shape[0] != 1:
        raise WeightDerivationError(
            f"leg-1 fixed space has dimension {v1.shape[0]}, expected 1")
    unit = v1[0]

    lam_family = slice_family_leg1(mu.dense, n)              # lambda(E_uv), (u, v) order
    lhs = (lam_family @ unit) @ (m_basis @ xi_phi).conj().T  # (n^2, m)
    rhs = m_basis.conj().reshape(m_basis.shape[0], n * n).T
    denom = float(np.sum(np.abs(lhs) ** 2))
    if denom <= tol:
        raise WeightDerivationError("dual weight scale is undetermined")
    scale = complex(np.sum(lhs.conj() * rhs)) / denom
    return xi_phi, scale * unit


class QuantumGroupPair:
    """The bundle (M basis, Mhat basis, W, weights, antipodes) on a common
    carrier space; the object all Fourier and pairing operations consume.

    Instances are immutable after construction; cached derived data
    (comultiplication coefficient tensors, the dual pair, and the tables of the
    Fourier transform, convolution and pairing on the bases) is computed once on
    first use.  No dense W is cached here: `w` and `w4` read `mu.dense`.  `dual`
    is the pair of What with M and Mhat exchanged; it holds no reference back.
    """

    def __init__(self, mu: MultiplicativeUnitary, m_basis: np.ndarray,
                 mhat_basis: np.ndarray, phi: Weight, phihat: Weight,
                 s_mat: np.ndarray, shat_mat: np.ndarray):
        self.mu = mu
        self.n = mu.n
        self.m_basis = np.asarray(m_basis, dtype=complex)
        self.mhat_basis = np.asarray(mhat_basis, dtype=complex)
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
    def delta_coeffs(self) -> tuple[np.ndarray, float]:
        return comult_coeff_tensor(self.mu, self.m_basis)

    @property
    def delta_hat_coeffs(self) -> tuple[np.ndarray, float]:
        return self.dual.delta_coeffs

    @cached_property
    def phi_values(self) -> np.ndarray:
        return self.phi.values_on(self.m_basis)

    def coords_m(self, x: np.ndarray) -> np.ndarray:
        return span_coords(x, self.m_basis)

    def require_in_m(self, x: np.ndarray, tol: float = DEFAULT_TOL) -> np.ndarray:
        """Coordinates of x in the M basis; NotInAlgebra if x is off the span by
        more than tol * (1 + max|x|)."""
        coords = self.coords_m(x)
        res = max_abs(x - span_reconstruct(coords, self.m_basis))
        if res > tol * (1.0 + max_abs(x)):
            raise NotInAlgebra(f"operand lies outside the algebra (residual {res:.3e})")
        return coords

    @cached_property
    def s_inv_mat(self) -> np.ndarray:
        svals = np.linalg.svd(self.s_mat, compute_uv=False)
        if svals.size == 0 or svals[-1] <= 1e-10 * svals[0]:
            raise SingularAntipode("antipode matrix is singular within tolerance")
        return np.linalg.inv(self.s_mat)

    @property
    def shat_inv_mat(self) -> np.ndarray:
        return self.dual.s_inv_mat

    def _map_m(self, mat: np.ndarray, x: np.ndarray) -> np.ndarray:
        """A map on M, in basis coordinates, applied to x or to each of a stack x."""
        return span_reconstruct((mat @ self.coords_m(x)[..., None])[..., 0], self.m_basis)

    def apply_s(self, x: np.ndarray) -> np.ndarray:
        return self._map_m(self.s_mat, x)

    def apply_s_inv(self, x: np.ndarray) -> np.ndarray:
        return self._map_m(self.s_inv_mat, x)

    @cached_property
    def fourier_table(self) -> np.ndarray:
        """Rows F(x_k) on the M basis, flattened, so F(a) = coords(a) @ table:
        xi_phi-bar contracted with W (n^4), then with each x_k xi_phi (m n^3)."""
        half = np.tensordot(self.phi.xi.conj(), self.w4, axes=(0, 0))   # [k, p, l]
        return np.tensordot(self.m_basis @ self.phi.xi, half, axes=(1, 1)).reshape(-1, self.n ** 2)

    @cached_property
    def convolution_table(self) -> np.ndarray:
        """G[k, j] = phi(S^{-1}(x_k) x_j) on the M basis."""
        xi, basis = self.phi.xi, self.m_basis
        return self.s_inv_mat.T @ ((xi.conj() @ basis) @ (basis @ xi).T)

    @cached_property
    def pairing_table(self) -> np.ndarray:
        """P[j, l] = (phi (x) phihat)[(x_j (x) 1) W^* (1 (x) y_l)] on the bases, from
        one n^4 contraction of W^*[(p, k), (j, q)] = conj W[(j, q), (p, k)]."""
        xi, xihat = self.phi.xi, self.phihat.xi
        w_star_mid = (np.tensordot(xi.conj(), self.w4, axes=(0, 0)) @ xihat).T.conj()
        return (xi.conj() @ self.m_basis) @ w_star_mid @ (self.mhat_basis @ xihat).T

    @cached_property
    def w_membership_residual(self) -> float:
        """Residual of W against span(M (x) Mhat)."""
        ma, mb = self.m_basis, self.mhat_basis
        coeffs = np.einsum("kac,lbd,abcd->kl", ma.conj(), mb.conj(), self.w4,
                           optimize=True)
        recon = np.einsum("kl,kac,lbd->abcd", coeffs, ma, mb, optimize=True)
        return max_abs(self.w4 - recon)


def pair_from_unitary(w, tol: float = DEFAULT_TOL) -> QuantumGroupPair:
    """Build the full quantum-group bundle from a multiplicative unitary.

    Checks unitarity and the pentagon relation, generates both slice algebras
    (with closure verification), recovers the Haar implementing vectors, and
    assembles both antipodes from slice consistency.
    """
    mu = w if isinstance(w, MultiplicativeUnitary) else MultiplicativeUnitary.from_dense(w)
    udev = mu.unitarity_deviation()
    if udev > tol:
        raise ValueError(f"W is not unitary (deviation {udev:.3e})")
    pentagon = check_pentagon(mu)
    if not pentagon.passed:
        raise ValueError(f"pentagon equation fails (deviation {pentagon.deviation:.3e})")
    m_basis = generate_M(mu, tol)
    mhat_basis = generate_Mhat(mu, tol)
    xi_phi, xi_phihat = derive_haar_vectors(mu, m_basis, tol)
    s_mat, _ = antipode_from_slices(mu, m_basis, tol)
    shat_mat, _ = antipode_hat_from_slices(mu, mhat_basis, tol)
    return QuantumGroupPair(mu, m_basis, mhat_basis, Weight(xi_phi), Weight(xi_phihat),
                            s_mat, shat_mat)


def check_gns_consistency(qg: QuantumGroupPair, tol: float = DEFAULT_TOL) -> CheckReport:
    """<Lambda(x), Lambda(y)> = phi(y^* x) on all basis pairs, on both sides,
    plus faithfulness (full GNS rank) of both weights."""
    dev = 0.0
    for basis, weight in ((qg.m_basis, qg.phi), (qg.mhat_basis, qg.phihat)):
        vectors = basis @ weight.xi
        gram = vectors @ vectors.conj().T                   # [x, y] = <L(x), L(y)>
        m = basis.shape[0]
        prods = np.einsum("ycb,xca->yxba", basis.conj(), basis)  # y^* x, as (y, x) pairs
        phivals = np.einsum("yxba,a,b->xy", prods, weight.xi, weight.xi.conj())
        dev = max(dev, deviation(gram, phivals))
        if weight.gns_rank(basis) < m:
            dev = max(dev, 1.0)
    return CheckReport("gns-consistency", dev, tol)


def _gns_duality(name: str, qg: QuantumGroupPair, tol: float) -> CheckReport:
    """<Lambda_hat((omega (x) id)(W)), Lambda(x)> = omega(x^*), over all
    matrix-unit omega and M-basis x."""
    family = slice_family_leg1(qg.w, qg.n)
    basis = qg.m_basis
    lhs = (family @ qg.phihat.xi) @ (basis @ qg.phi.xi).conj().T
    rhs = basis.conj().reshape(basis.shape[0], -1).T
    return CheckReport(name, deviation(lhs, rhs), tol)


def check_gns_duality_phihat(qg: QuantumGroupPair, tol: float = DEFAULT_TOL) -> CheckReport:
    return _gns_duality("gns-duality-phihat", qg, tol)


def check_gns_duality_phihatdual(qg: QuantumGroupPair,
                                 tol: float = DEFAULT_TOL) -> CheckReport:
    """<Lambda((id (x) omega)(W^*)), Lambda_hat(y)> = omega(y^*): the phihat
    relation of the dual pair."""
    return _gns_duality("gns-duality-phihatdual", qg.dual, tol)


def check_antipode(qg: QuantumGroupPair, tol: float = DEFAULT_TOL,
                   fits: tuple | None = None) -> CheckReport:
    """Slice consistency of both antipodes against the stored matrices,
    anti-multiplicativity of S, and the Kac property S(x^*)^* = S^{-1}(x).
    `fits` reuses ((S, residual), (Shat, residual)) already fitted from this
    pair's W and bases; without it both antipodes are fitted here."""
    try:
        (s_fit, s_res), (shat_fit, shat_res) = fits or (
            antipode_from_slices(qg.mu, qg.m_basis, tol),
            antipode_hat_from_slices(qg.mu, qg.mhat_basis, tol))
    except InconsistentSlices:
        return CheckReport("antipode-slices", 1.0, tol,
                           note="slice relation inconsistent")
    dev = max(s_res, shat_res, deviation(s_fit, qg.s_mat), deviation(shat_fit, qg.shat_mat))

    # Both laws on the whole basis at once: [i, j] stacks hold x_i x_j and S(x_j) S(x_i).
    basis = qg.m_basis
    s_on_basis = np.einsum("pk,pab->kab", qg.s_mat, basis)
    dev = max(dev, deviation(qg.apply_s(basis[:, None] @ basis[None, :]),
                             s_on_basis[None, :] @ s_on_basis[:, None]))

    s2dev = deviation(qg.s_mat @ qg.s_mat, np.eye(basis.shape[0]))
    if s2dev <= tol:  # Kac case: S(x^*)^* = S^{-1}(x)
        twisted = qg.apply_s(basis.conj().transpose(0, 2, 1)).conj().transpose(0, 2, 1)
        dev = max(dev, deviation(twisted, qg.apply_s_inv(basis)))
    return CheckReport("antipode-slices", dev, tol,
                       note=f"S^2 deviation from id: {s2dev:.3e}")


def check_sharp_involution(qg: QuantumGroupPair, rng: np.random.Generator,
                           samples: int = 20, tol: float = DEFAULT_TOL) -> CheckReport:
    """((omega (x) id)(W))^* = (omega_sharp (x) id)(W) for random omega, and
    involutivity of sharp on the algebra."""
    dev = 0.0
    for _ in range(samples):
        pair = SharpFunctional.of(Functional(random_complex(rng, (qg.n, qg.n))),
                                  qg.s_mat, qg.m_basis)
        dev = max(dev, pair.adjoint_deviation(qg.mu))
        twice = sharp(pair.omega_sharp, qg.s_mat, qg.m_basis)
        vals = np.einsum("ij,kji->k", pair.omega.density, qg.m_basis)
        vals_twice = np.einsum("ij,kji->k", twice.density, qg.m_basis)
        dev = max(dev, deviation(vals, vals_twice))
    return CheckReport("sharp-involution", dev, tol)


def check_slice_product_laws(qg: QuantumGroupPair, rng: np.random.Generator,
                             samples: int = 5, tol: float = DEFAULT_TOL) -> CheckReport:
    """Multiplicativity of W: products of slices are slices of the
    comultiplied functionals, on both legs and for W^* on leg 2.

    The comultiplied functionals (e.g. mu = (omega1 (x) omega2) o delta) are
    evaluated on all matrix units in one contraction against W, never forming
    operators on the tensor square per unit.
    """
    n = qg.n
    # W^* is the transpose of conj(W), so it is Fortran-ordered. np.einsum sums in
    # layout order: a C-ordered copy would change the deviation in its last digits.
    w, w4, w_adj = qg.w, qg.w4, qg.w.conj().T
    dev = 0.0

    for _ in range(samples):
        r1, r2 = random_complex(rng, (n, n)), random_complex(rng, (n, n))
        f1, f2 = Functional(r1), Functional(r2)

        # (omega1 (x) id)(W)(omega2 (x) id)(W) = (mu (x) id)(W),
        # mu = (omega1 (x) omega2) o delta.  mu(E_ab) tabulated directly.
        mu_vals = np.einsum("ij,kl,pajl,pbik->ab", r1, r2, w4.conj(), w4,
                            optimize=True)
        lhs = slice_left(f1, w) @ slice_left(f2, w)
        dev = max(dev, deviation(lhs, slice_left(Functional(mu_vals.T), w)))

        # (id (x) theta1)(W)(id (x) theta2)(W) = (id (x) nu)(W),
        # nu = (theta1 (x) theta2) o delta_hat_cop with delta_hat_cop(y) = W(y (x) 1)W^*.
        nu_vals = np.einsum("ij,kl,jlaq,ikbq->ab", r1, r2, w4, w4.conj(),
                            optimize=True)
        lhs = slice_right(f1, w) @ slice_right(f2, w)
        dev = max(dev, deviation(lhs, slice_right(Functional(nu_vals.T), w)))

        # Same law for W^*, now with the unflipped delta_hat.
        nu_prime_vals = np.einsum("ij,kl,ljaq,kibq->ab", r1, r2, w4, w4.conj(),
                                  optimize=True)
        lhs = slice_right(f1, w_adj) @ slice_right(f2, w_adj)
        dev = max(dev, deviation(lhs, slice_right(Functional(nu_prime_vals.T), w_adj)))

    return CheckReport("slice-product-laws", dev, tol)


def pontryagin_check(qg: QuantumGroupPair, tol: float = DEFAULT_TOL) -> CheckReport:
    """Double duality: with What = Sigma W^* Sigma, the leg-1 slices of What
    span M and its leg-2 slices span Mhat."""
    hat_m = slice_span_m(qg.mu.dual)        # the dual's "M": should be Mhat
    hat_mhat = slice_span_mhat(qg.mu.dual)  # the dual's "Mhat": should be M
    cmp1 = subspace_equal(hat_mhat, qg.m_basis, tol)
    cmp2 = subspace_equal(hat_m, qg.mhat_basis, tol)
    dev = max(cmp1.deviation, cmp2.deviation)
    return CheckReport("pontryagin", dev, tol)
