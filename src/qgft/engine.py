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

Both slice algebras come from one SVD of W's leg-2 slice family unless W is
a permutation (`slice_spans`): its right singular vectors span M, its left
ones, read as transposed matrices, Mhat, both refined by one step of subspace
iteration unless W is a permutation matrix.  A permutation W whose distinct
slices have disjoint supports (every group model and its dual) spans both
exactly, as normalised 0/1 slices read from its index maps, with no SVD and
no dense W.
Heavy identities on the generated algebras (the pentagon of a dense W,
coassociativity, invariance) are checked in coefficient space, on the tensor
D that the pair caches as `qg.delta_coeffs`:
with orthonormal algebra bases it reproduces the operator-level Frobenius
deviations exactly, up to the separately reported span-membership residual
`qg.delta_residual`, and never materializes operators on the tensor cube.
One kernel builds both in one pass, `comult_coeff_tensor`, and the pair
caches the two together as `qg.comult`.  On a permutation W with an
indicator basis (every group model) it counts index pairs in O(n^3), with no
product; every other basis forms each delta(x_i) once.  The residual covers
every entry of every delta(x_i) on both routes.
A check of a built pair is `check_*(qg, tol)`; `tol` is one float absolute
bound.  `check_sharp_involution` takes all n^2 matrix-unit functionals at
once, as one slice layout and one stacked sharp; only
`check_slice_product_laws(qg, rng, tol)` still draws, PRODUCT_LAW_SAMPLES
random pairs of functionals.
`check_unitarity(mu)` and `check_pentagon(mu, tol)` bound by 0, or by
DENSE_W_TOL for a dense W.  The pentagon of a dense W is the identity
(delta (x) id)(W) = W13 W23 on the M basis, bounded entrywise from D and
rho_delta in O(n^7), with no operator on the tensor cube and no cap on n.
An M span of more than n elements, which no multiplicative unitary has, is
read in exact n^4 blocks of W12 W13 W23 - W23 W12 up to the first that fails.
The pair caches no dense W, and its Fourier and pairing tables start from
`leg1_contraction`, which places n^2 entries for a permutation W: the
transforms, convolutions and pairing of a group model never build one.

A pair is derived from W only by `derive_pair`, in four stages handed to a
runner, the pentagon first: `verify.run_suite` records each,
`pair_from_unitary` raises at the first that fails.  A dense W's pentagon
hands both spans and (D, rho_delta) on, so nothing is built twice; when M
spans more than n elements the spans are handed on alone.
`pair_deviation` compares a given pair with it, and `pontryagin_check(mu)`
bounds by 0 that the dual of What is W.
"""

from __future__ import annotations

import itertools
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
    subspace_equal,
)

# Bound of the unitarity and pentagon checks of a dense W.
DENSE_W_TOL = 1e-12
# The antipode matrix is singular when its smallest singular value is at most
# this fraction of its largest.
ANTIPODE_SINGULAR_RTOL = 1e-10
# Random draws of the sampled check.
PRODUCT_LAW_SAMPLES = 5


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
    returns the permutation form of What, `slice_spans` reads the 0/1
    slices, `comultiply` is a gather, `comult_coeff_tensor` counts the
    gather's entries on an indicator basis, and `leg1_contraction` places
    W's n^2 entries.  `from_matrix` reads an exact permutation matrix in
    this form.
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

    @classmethod
    def from_matrix(cls, w) -> "MultiplicativeUnitary":
        """W in permutation form when its entries are exactly 0 or 1 with one 1
        in every row and every column, W e_(s,t) = e_(sig, tau) at the 1 of
        column s n + t; `from_dense` otherwise."""
        mu = cls.from_dense(w)
        perm = _permutation_maps(mu.dense, mu.n)
        return mu if perm is None else cls.from_permutation(*perm)

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
        p = s n + t, so only pairs with equal sig carry an entry.  The flat
        indices are grouped by sig, and each p is paired with its own group
        in ascending order: O(n^3) for a bijective W, with no n^2 x n^2 mask.
        """
        sig, tau = (a.ravel() for a in self.perm)
        members = np.argsort(sig, kind="stable")
        size = np.bincount(sig, minlength=self.n)
        first = np.cumsum(size) - size
        reps = size[sig]
        p = np.repeat(np.arange(sig.size), reps)
        offset = np.arange(p.size) - np.repeat(np.cumsum(reps) - reps, reps)
        q = members[first[sig[p]] + offset]
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


def _coefficient_pentagon_deviation(mu: MultiplicativeUnitary, basis: np.ndarray,
                                    coeffs: np.ndarray, residual: float) -> float:
    """Entrywise bound on (delta (x) id)(W) - W13 W23 for a dense W, from its
    orthonormal M basis and (D, rho_delta) = comult_coeff_tensor.

    With B[k, (a x)] = x_k[a, x] and T[(a x), (c z)] = W[(a c), (x z)],
    Z = conj(B) @ T writes W = sum_i x_i (x) z_i up to rho_W = max|T - B^T Z|.
    Then (delta (x) id)(W) - W13 W23 = sum_{k,k'} x_k (x) x_k' (x) F[(k k')]
    + sum_i R_i (x) z_i, with F = D @ Z - [z_k z_k'] and R_i the part of
    delta(x_i) off M (x) M.  Cauchy-Schwarz over (k, k') bounds each entry of
    the first sum by kappa^2 max_q |F[:, q]|_2, kappa^2 = max_p sum_k |B[k, p]|^2,
    and Hoelder over i the second by rho_delta max_q sum_i |Z[i, q]|.  The
    result is the larger of their sum and rho_W: O(m^2 n^4 + m^3 n^2) work."""
    n, m = mu.n, basis.shape[0]
    n2 = n * n
    flat = basis.reshape(m, n2)
    t = np.ascontiguousarray(mu.dense.reshape(n, n, n, n).transpose(0, 2, 1, 3)).reshape(n2, n2)
    z = flat.conj() @ t                                                            # [i, (c z)]
    rho_w = max_abs(t - flat.T @ z)
    z_rows = z.reshape(m * n, n)                                                   # [(k c), d]
    z_cols = z.reshape(m, n, n).transpose(1, 0, 2).reshape(n, m * n)               # [d, (k' e)]
    products = (z_rows @ z_cols).reshape(m, n, m, n).transpose(0, 2, 1, 3)         # [k, k', c, e]
    f = coeffs.reshape(m * m, m) @ z - products.reshape(m * m, n2)
    kappa2 = float(np.max(np.sum(np.abs(flat) ** 2, axis=0)))
    phi = float(np.max(np.linalg.norm(f, axis=0)))
    zeta = float(np.max(np.sum(np.abs(z), axis=0)))
    return max(kappa2 * phi + zeta * residual, rho_w)


def _pentagon_blocks(mu: MultiplicativeUnitary):
    """Largest entry of W12 W13 W23 - W23 W12 on each of the n^2 blocks of
    fixed x and c of the tensor cube [a,b,c; x,y,z], with W[a,b; x,y] =
    w[(a b), (x y)], as matrix products:
      (W12 W13) W23 = (A3 @ B[x,c]).reshape(n^2, n^2) @ W   in [(a b), (y z)],
        A3[(a b y'), a'] = W[a,b; a',y'],  B[x,c][a', z'] = W[a',c; x,z'];
      W23 W12 = F[x] @ G[c]                                 in [(a y), (b z)],
        F[x][(a y), e] = W[a,e; x,y],      G[c][e, (b z)] = W[b,c; e,z].
    n^6 work per block; every operand and buffer holds n^4 entries."""
    w, n = mu.dense, mu.n
    w4, n2 = w.reshape(n, n, n, n), n * n
    a3 = w4.transpose(0, 1, 3, 2).reshape(n2 * n, n)
    b = np.ascontiguousarray(w4.transpose(2, 1, 0, 3))
    f = w4.transpose(2, 0, 3, 1).reshape(n, n2, n)
    g = w4.transpose(1, 2, 0, 3).reshape(n, n, n2)
    t, mag = np.empty((n2 * n, n), dtype=complex), np.empty((n2, n2))
    lhs, rhs = np.empty((2, n2, n2), dtype=complex)
    lhs4, rhs4 = lhs.reshape(n, n, n, n), rhs.reshape(n, n, n, n).transpose(0, 2, 1, 3)
    for x in range(n):
        for c in range(n):
            np.matmul(a3, b[x, c], out=t)
            np.matmul(t.reshape(n2, n2), w, out=lhs)
            np.matmul(f[x], g[c], out=rhs)
            np.subtract(lhs4, rhs4, out=lhs4)
            yield float(np.abs(lhs, out=mag).max())


def _pentagon(mu: MultiplicativeUnitary, tol: float) -> tuple[CheckReport, tuple]:
    """`check_pentagon`, with what a dense W's route builds on the way: the M
    and Mhat bases (`slice_spans`), then (D, rho_delta) if the M span holds
    at most n elements; () for a permutation W."""
    if mu.is_permutation:
        return CheckReport("pentagon", _pentagon_permutation_deviation(mu), 0.0, note="exact"), ()
    spans = slice_spans(mu, tol)
    basis = spans[0]
    if basis.shape[0] > mu.n:
        dev = 0.0
        for dev in itertools.accumulate(_pentagon_blocks(mu), max):
            if dev > DENSE_W_TOL:
                break
        note = f"M spans {basis.shape[0]} > n = {mu.n}: read in exact blocks"
        return CheckReport("pentagon", dev, DENSE_W_TOL, note=note), (spans,)
    comult = comult_coeff_tensor(mu, basis)
    dev = _coefficient_pentagon_deviation(mu, basis, *comult)
    return CheckReport("pentagon", dev, DENSE_W_TOL), (spans, comult)


def check_pentagon(mu: MultiplicativeUnitary, tol: float = DEFAULT_TOL) -> CheckReport:
    """Verify W12 W13 W23 = W23 W12.

    Permutation forms are checked exactly on basis triples.  For a unitary W
    with delta(x) = W^* (1 (x) x) W, the pentagon is exactly
    (delta (x) id)(W) = W13 W23 (Baaj & Skandalis), and a dense W is checked
    on that identity in coefficient space, on the M basis spanned at rank
    cutoff tol: an entrywise bound within DENSE_W_TOL
    (`_coefficient_pentagon_deviation`), O(n^7) for m = n, with no operator
    on the tensor cube.

    The M of a multiplicative unitary on C^n has at most n dimensions: W
    makes C^n (x) C^n, a module over M through delta, n copies of C^n, so
    C^n is a multiple of M's regular module.  A span of m > n elements, where
    D would take m^3 memory, is read exactly instead, one n^4 block of
    W12 W13 W23 - W23 W12 at a time (`_pentagon_blocks`), up to the first
    block above DENSE_W_TOL: that block's entry proves the failure and is
    the deviation.  A W that passes this route is read in full (n^8), so the
    verdict never rests on the dimension bound, only the cost does.
    """
    return _pentagon(mu, tol)[0]


def algebra_closure_deviation(basis: np.ndarray) -> float:
    """How far products and adjoints of basis elements leave the span."""
    if basis.shape[0] == 0:
        return 0.0
    basis = np.ascontiguousarray(basis, dtype=complex)
    adjoints = basis.conj().transpose(0, 2, 1)
    span = SpanKernel(basis)
    return max(span.project(basis[:, None] @ basis[None, :])[1], span.project(adjoints)[1])


def slice_spans(mu: MultiplicativeUnitary,
                tol: float = DEFAULT_TOL) -> tuple[np.ndarray, np.ndarray]:
    """Orthonormal bases of M and Mhat, from one SVD unless W is a permutation.

    A permutation W whose distinct nonzero slices have disjoint supports on
    each leg (every group model and its dual) takes exact indicator bases
    from its index maps, with no dense W (`_indicator_basis`).  Every other
    W, a permutation with overlapping slices included, takes the SVD:
    A = slice_family(W, n, 2), laid out as an n^2 x n^2 matrix, holds the
    leg-2 slices as rows: A[(a b), (i j)] = W[(i b), (j a)].  Its column
    (i j), read as an n x n matrix [a, b] and transposed, is the leg-1 slice
    (E_ji (x) id)(W).  So with A = U S V^H, M is spanned by V^H[:r] and Mhat
    by the columns U[:, :r], each transposed, for the one rank
    r = rank(S, tol): rank A = rank A^T.

    The singular vectors leave the span by a rounding error that moves
    tenfold with W's entries: W's own residual on the M basis ran from 4e-16
    to 3e-15 over ten seeded transports of dihedral:6, and every coefficient
    bound built on the basis moves with it.  One step of subspace iteration,
    V -> A^H A V S^-2 and U -> A A^H U S^-2, damps the part outside the span
    by (S[r] / S[r-1])^2 and adds only the rounding of two products; a QR
    with R's diagonal made positive re-orthonormalises each side near its
    singular vectors, and the same residual then stays within 2e-16 to 4e-16."""
    n = mu.n
    if mu.is_permutation:
        sig, tau = mu.perm
        m, mhat = _indicator_basis(tau.T, sig.T, tol), _indicator_basis(sig, tau, tol)
        if m is not None and mhat is not None:
            return m, mhat
    family = slice_family(mu.dense, n, 2).reshape(n * n, n * n)
    u, svals, vh = np.linalg.svd(family, full_matrices=False)
    r = rank(svals, tol)
    v, u = vh[:r].conj().T, u[:, :r]
    if r:
        scale = svals[:r] ** -2
        v = _orthonormal_columns(family.conj().T @ (family @ v) * scale)
        u = _orthonormal_columns(family @ (family.conj().T @ u) * scale)
    mhat = np.ascontiguousarray(u.T.reshape(r, n, n).transpose(0, 2, 1))
    return np.ascontiguousarray(v.conj().T).reshape(r, n, n), mhat


def _orthonormal_columns(y: np.ndarray) -> np.ndarray:
    """The Q of y = QR with R's (real) diagonal made positive: for columns
    near orthonormal, an orthonormal set near them, column by column."""
    q, r = np.linalg.qr(y)
    return q * np.where(np.diag(r).real < 0, -1.0, 1.0)


def _permutation_maps(w: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray] | None:
    """(sig, tau) of an n^2 x n^2 matrix whose entries are exactly 0 or 1
    with one 1 in every row and every column, W e_(s,t) = e_(sig, tau) at the
    1 of column s n + t; None for any other matrix."""
    ones = w == 1
    if not ((ones | (w == 0)).all() and (ones.sum(axis=0) == 1).all()
            and (ones.sum(axis=1) == 1).all()):
        return None
    return np.divmod(ones.argmax(axis=0).reshape(n, n), n)


def _indicator_basis(major: np.ndarray, rows: np.ndarray, tol: float) -> np.ndarray | None:
    """The span of one leg's slices of a permutation W as an orthonormal
    indicator basis, from n x n index tables: entry [a, c] puts a 1 at
    (rows[a, c], c) of slice a n + major[a, c], and nothing else is nonzero.
    The leg-2 slice a n + tau[j, a] holds a 1 at (sig[j, a], j), so M is
    (tau^T, sig^T); the leg-1 slice a n + sig[a, l] one at (tau[a, l], l), so
    Mhat is (sig, tau).

    Each entry's representative is the lowest slice holding it.  When the
    entries of every slice share one representative, of the same size, the
    distinct nonzero slices have disjoint supports, and the representatives,
    in ascending order, normalised, are an orthonormal basis of the span.
    The family's singular values are then sqrt(copies * size), one per
    distinct slice, and the basis is returned only when `rank` keeps them
    all; None otherwise."""
    n = major.shape[0]
    a, c = np.indices((n, n))
    label, entry = (a * n + major).ravel(), (rows * n + c).ravel()
    owner = np.full(n * n, n * n)
    np.minimum.at(owner, entry, label)
    rep = owner[entry]
    rep_of = np.zeros(n * n, dtype=np.intp)
    rep_of[label] = rep
    size = np.bincount(label, minlength=n * n)
    if (rep_of[label] != rep).any() or (size[label] != size[rep]).any():
        return None
    keep, held = np.unique(rep, return_counts=True)
    if rank(np.sort(np.sqrt(held))[::-1], tol) < len(keep):      # held = copies * size
        return None
    own = label == rep
    basis = np.zeros((len(keep), n * n), dtype=complex)
    basis[np.searchsorted(keep, label[own]), entry[own]] = 1.0 / np.sqrt(size[label[own]])
    return basis.reshape(-1, n, n)


def slice_span_m(mu: MultiplicativeUnitary, tol: float = DEFAULT_TOL) -> np.ndarray:
    return slice_spans(mu, tol)[0]


def slice_span_mhat(mu: MultiplicativeUnitary, tol: float = DEFAULT_TOL) -> np.ndarray:
    return slice_spans(mu, tol)[1]


def _comultiplier(mu: MultiplicativeUnitary):
    """The map x -> delta(x) = W^* (1 (x) x) W on C-contiguous n x n complex
    x, with W laid out once for every x it is applied to.  For a permutation
    W it is an O(n^4) gather; for a dense W, 1 (x) x is applied as a leg-2
    contraction (n^5) and W^* as an n^2 x n^2 product (n^6)."""
    n = mu.n
    if mu.is_permutation:
        dst, src = mu.comult_gather

        def gathered(x: np.ndarray) -> np.ndarray:
            out = np.zeros(n ** 4, dtype=complex)
            out[dst] = x.ravel()[src]
            return out.reshape(n * n, n * n)
        return gathered
    w = mu.dense
    w_adj, w3 = w.conj().T, w.reshape(n, n, n * n)
    return lambda x: w_adj @ (x @ w3).reshape(n * n, n * n)


def comultiply(mu: MultiplicativeUnitary, x: np.ndarray) -> np.ndarray:
    """delta(x) = W^* (1 (x) x) W, by `_comultiplier`."""
    return _comultiplier(mu)(as_complex_matrix(x, mu.n, mu.n))


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


def comult_coeff_tensor(mu: MultiplicativeUnitary,
                        basis: np.ndarray) -> tuple[np.ndarray, float]:
    """(D, rho_delta) of delta = comultiply(mu, .) on an orthonormal basis:
    delta(x_i) = sum_{k,l} D[k, l, i] x_k (x) x_l up to a part outside
    span (x) span, whose largest entry over every delta(x_i) is rho_delta.

    A permutation W on an indicator basis (`SpanKernel`'s index layout)
    counts index pairs, O(n^3) (`_indexed_coeff_tensor`).  Every other basis
    forms each T = delta(x_i) once, in [(a c), (b d)] order: on the flat basis
    B[k, (a c)] = x_k[a, c], D[:, :, i] = (conj(B) @ T) @ conj(B)^T, and T is
    compared with B^T @ (D[:, :, i] @ B) in one n^4 buffer per call."""
    m = basis.shape[0]
    if m == 0:
        return np.zeros((0, 0, 0), dtype=complex), 0.0
    _require_leg_dimension(mu, basis)
    basis = np.ascontiguousarray(basis, dtype=complex)
    if mu.is_permutation:
        span = SpanKernel(basis)
        if span.layout == "index":
            return _indexed_coeff_tensor(mu, span)
    n2, flat = mu.n ** 2, basis.reshape(m, -1)
    flat_conj = flat.conj()
    coeffs = np.empty((m, m, m), dtype=complex)
    recon, mag = np.empty((n2, n2), dtype=complex), np.empty((n2, n2))
    residual = 0.0
    for i, t in enumerate(_comult_blocks(mu, basis)):
        coeffs[:, :, i] = (flat_conj @ t) @ flat_conj.T
        np.subtract(np.matmul(flat.T, coeffs[:, :, i] @ flat, out=recon), t, out=recon)
        residual = max(residual, float(np.abs(recon, out=mag).max()))
    return coeffs, residual


def _require_leg_dimension(mu: MultiplicativeUnitary, basis: np.ndarray) -> None:
    if basis.shape[1:] != (mu.n, mu.n):
        raise ValueError(f"basis shape {basis.shape} does not match leg dimension {mu.n}")


def _comult_blocks(mu: MultiplicativeUnitary, basis: np.ndarray):
    """T = delta(x_i) in [(a c), (b d)] order for each element x_i of a
    C-contiguous basis, each written into one reused n^4 buffer."""
    n, comult = mu.n, _comultiplier(mu)
    t4 = np.empty((n, n, n, n), dtype=complex)
    for x in basis:
        np.copyto(t4, comult(x).reshape(n, n, n, n).transpose(0, 2, 1, 3))
        yield t4.reshape(n * n, n * n)


def _indexed_coeff_tensor(mu: MultiplicativeUnitary, span: SpanKernel) -> tuple[np.ndarray, float]:
    """comult_coeff_tensor of a permutation W on an indicator basis: x_k = c_k
    on a support S_k of s entries.  Every nonzero of delta(x_i) is c_i at a
    `comult_gather` entry with source in S_i, and x_k (x) x_l is c_k c_l on
    the block S_k x S_l of entries [(a b), (c d)] with (a c) in S_k and (b d)
    in S_l.  With count[k, l, i] the entries of delta(x_i) in that block,
    D[k, l, i] = conj(c_k c_l) c_i count.  The projection onto a block is its
    mean c_i count / s^2, so rho_delta is the largest of |c_i| off every
    block, |c_i| (1 - count / s^2) on a block with count > 0 and
    |c_i| count / s^2 on one with count < s^2."""
    n = mu.n
    m, s = span.support.shape
    label = np.full(n * n, -1)
    label[span.support] = np.arange(m)[:, None]
    dst, src = mu.comult_gather
    i = label[src]
    dst, i = dst[i >= 0], i[i >= 0]
    a, b, c, d = np.unravel_index(dst, (n, n, n, n))
    k, l = label[a * n + c], label[b * n + d]
    on = (k >= 0) & (l >= 0)
    count = np.bincount(((k * m + l) * m + i)[on], minlength=m ** 3).reshape(m, m, m)
    c_k = span.values
    coeffs = (c_k[:, None] * c_k[None, :]).conj()[:, :, None] * c_k * count
    size, fill = np.abs(c_k), count / (s * s)
    residual = max(max_abs(size[i[~on]]),
                   max_abs(np.where(count > 0, size * (1 - fill), 0.0)),
                   max_abs(np.where(count < s * s, size * fill, 0.0)))
    return coeffs, residual


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
    return Functional(span.reconstruct(_sharp(span.coords(omega.density), s_mat).conj()).conj().T)


def _sharp(coords: np.ndarray, s_mat: np.ndarray) -> np.ndarray:
    """`sharp` of the functional whose density has the coordinates coords on
    the basis, or of each row of coords, as coordinates c on the adjoints of
    the basis: omega_sharp has density sum_k c[k] x_k^*."""
    return coords.conj() @ s_mat


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
    (the comultiplication data, the dual pair, the coordinates of the
    adjoints of the M basis, and the tables of the Fourier transform,
    convolution and pairing on the bases) is computed once on
    first use, or handed on by `derive_pair`.  The comultiplication data is
    `comult` = (D, rho_delta), one `comult_coeff_tensor` pass, read as
    `delta_coeffs` (which the transforms and the checks read) and
    `delta_residual` (which the coassociativity and invariance checks add to
    their deviations).  No
    dense W is cached here: `w` and `w4` read `mu.dense`, and the Fourier and
    pairing tables read W through `leg1_contraction`, so on a permutation W
    they build no dense W.  The convolution tensors through F and the
    pairing's inverse and forward tables are built from the Fourier tables
    and `product_constants` of this pair and its `dual`, both sides' tensors
    on this pair, so no table is read from `dual.dual`.  `dual` is the pair
    of What with M and Mhat exchanged; it holds no reference back.  `span`
    is the projection onto M (`linalg.SpanKernel`), laid out once and read
    by `require_in_m`, `coords_m`, `apply_s`/`apply_s_inv` and every
    reconstruction on M, and handed to `sharp`; `dual.span` projects onto
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
    def comult(self) -> tuple[np.ndarray, float]:
        """(D, rho_delta) on the M basis, from one `comult_coeff_tensor` pass."""
        return comult_coeff_tensor(self.mu, self.m_basis)

    @property
    def delta_coeffs(self) -> np.ndarray:
        return self.comult[0]

    @property
    def delta_residual(self) -> float:
        return self.comult[1]

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

    @cached_property
    def adjoint_coords(self) -> np.ndarray:
        """A[j, k], the coordinates of x_j^* on the M basis: coords(a^*) =
        conj(coords(a)) @ A for every a in M."""
        return self.span.coords(self.m_basis.conj().swapaxes(1, 2))

    def require_in_m(self, x: np.ndarray) -> np.ndarray:
        """Coordinates of x in the M basis; ValueError if an entry of x is NaN or
        infinite, NotInAlgebra if x is off the span by more than
        DEFAULT_TOL * (1 + max|x|).  Two sums of squares decide the common
        cases: a finite ||x||^2 rules out a non-finite entry before any
        arithmetic on x (which would warn), and a squared residual norm below
        DEFAULT_TOL^2 / 4 bounds every residual entry below DEFAULT_TOL, so
        max|x| and the largest residual entry are read only when one of them
        fails."""
        flat = x.ravel(order="K")                        # a view of a C- or F-ordered x
        if not math.isfinite(np.vdot(flat, flat).real) and not math.isfinite(max_abs(x)):
            raise ValueError("operand entries must be finite (no NaN/Inf)")
        coords, off = self.span.split(x)
        if np.vdot(off, off).real <= 0.25 * DEFAULT_TOL ** 2:
            return coords
        res = max_abs(off)
        if res > DEFAULT_TOL * (1.0 + max_abs(x)):
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

    @property
    def fourier_images(self) -> np.ndarray:
        """F(x_k) for every element of the M basis: the table as an (m, n, n) stack."""
        return self.fourier_table.reshape(-1, self.n, self.n)

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

    @cached_property
    def pairing_inverse_table(self) -> np.ndarray:
        """Q_inv[k, l] = phi(x_k F^{-1}(y_l)) = conj(Lambda(x_k^*)) . Lambda(F^{-1}(y_l))
        on the bases, from the dual's Fourier table."""
        xi = self.phi.xi
        return (xi.conj() @ self.m_basis) @ (self.dual.fourier_images @ xi).T

    @cached_property
    def pairing_forward_table(self) -> np.ndarray:
        """Q_fwd[k, l] = <y_l xi_phihat, F(x_k) xi_phihat> on the bases, from the
        Fourier table: phihat(F(a^*)^* b) = conj(coords(a^*)) @ Q_fwd @ coords(b)."""
        xihat = self.phihat.xi
        return (self.fourier_images @ xihat).conj() @ (self.mhat_basis @ xihat).T

    @cached_property
    def product_constants(self) -> tuple[np.ndarray, float]:
        """(P, rho): P[a, b] the coordinates of x_a x_b on the M basis and rho
        the largest residual of a product off the span, projected one row a
        at a time, so no stack of all m^2 products is formed."""
        x, m = self.m_basis, len(self.m_basis)
        p, rho = np.empty((m, m, m), dtype=complex), 0.0
        for a in range(m):
            p[a], off = self.span.project(x[a] @ x)
            rho = max(rho, off)
        return p, rho

    @cached_property
    def fourier_convolution(self) -> tuple[np.ndarray, float]:
        """(T, rho) of the convolution through F on M (`fourier_convolution_tensor`
        of this pair and its dual)."""
        return fourier_convolution_tensor(self, self.dual)

    @cached_property
    def fourier_convolution_hat(self) -> tuple[np.ndarray, float]:
        """(T, rho) of the convolution through F on Mhat, built from this pair and
        its dual, whose caches it shares (the dual's own dual would start empty)."""
        return fourier_convolution_tensor(self.dual, self)


def fourier_convolution_tensor(side: QuantumGroupPair,
                               other: QuantumGroupPair) -> tuple[np.ndarray, float]:
    """(T, rho) for the convolution a * c = F^{-1}(F(a) F(c)) on side's M basis,
    other being side's dual: x_i * x_j = sum_k T[i, j, k] x_k with

        T[i, j, k] = sum F~[i, a] F~[j, b] Phat[a, b, c] F~^{-1}[c, k],

    F~ the coordinates of F(x_i) on other's basis y, F~^{-1} those of
    F^{-1}(y_c) on side's, and Phat other's `product_constants`.  rho is the
    largest residual of F(x_i), y_a y_b and F^{-1}(y_c) off their spans."""
    f, f_off = other.span.project(side.fourier_images)
    g, g_off = side.span.project(other.fourier_images)
    p_hat, p_off = other.product_constants
    m, mh = f.shape
    tensor = np.matmul(f, (f @ p_hat.reshape(mh, mh * mh)).reshape(m, mh, mh)) @ g
    return tensor, max(f_off, g_off, p_off)


def derive_pair(mu: MultiplicativeUnitary, run, tol: float = DEFAULT_TOL) -> QuantumGroupPair | None:
    """The pair of a unitary W, derived in four stages, each run as run(stage,
    fn): fn() returns the stage's CheckReport, and run returns whether it
    passed.  pentagon checks W (`check_pentagon`), algebra-generation spans M
    and Mhat (`slice_spans`: one SVD unless W is a permutation with disjoint
    slices) and bounds their closure, haar-weights
    recovers both implementing vectors, antipode-assembly fits both
    antipodes.  A dense W's pentagon hands on the two spans and the
    (D, rho_delta) it builds (the spans alone when M has more than n
    elements): algebra-generation reuses the spans and runs no SVD, and the
    pair starts with `comult` cached.  None after the first stage that
    fails."""
    built, spans, weights, fits = [], [], [], []

    def pentagon() -> CheckReport:
        report, built[:] = _pentagon(mu, tol)
        return report

    def generation() -> CheckReport:
        spans[:] = built[0] if built else slice_spans(mu, tol)
        return CheckReport("algebra-generation", max(map(algebra_closure_deviation, spans)), tol)

    def haar_weights() -> CheckReport:
        weights[:] = map(Weight, derive_haar_vectors(mu, spans[0], tol))
        return CheckReport("haar-weights", 0.0, tol)

    def antipode_assembly() -> CheckReport:
        fits[:] = (antipode_from_slices(mu, spans[0], tol),
                   antipode_hat_from_slices(mu, spans[1], tol))
        return CheckReport("antipode-assembly", max(fits[0][1], fits[1][1]), tol)

    if not (run("pentagon", pentagon) and run("algebra-generation", generation)
            and run("haar-weights", haar_weights)
            and run("antipode-assembly", antipode_assembly)):
        return None
    (s_mat, _), (shat_mat, _) = fits
    qg = QuantumGroupPair(mu, *spans, *weights, s_mat, shat_mat)
    if built[1:]:
        qg.comult = built[1]
    return qg


def _require(stage: str, fn) -> bool:
    """A runner for `derive_pair` that raises ValueError at a failed stage."""
    check = fn()
    if not check.passed:
        raise ValueError(f"W is not the multiplicative unitary of a pair: {stage} "
                         f"deviation {check.deviation:.3e} exceeds {check.tolerance:.3e}")
    return True


def pair_from_unitary(w, tol: float = DEFAULT_TOL) -> QuantumGroupPair:
    """The pair of W, through the suite's structural stages at their bounds:
    unitarity, then `derive_pair`, whose first stage is the pentagon.  The
    spans come from at most one SVD, and (D, rho_delta) from at most one
    pass.  ValueError names the first stage that fails and its deviation;
    WeightDerivationError and InconsistentSlices propagate from haar-weights
    and antipode-assembly."""
    mu = w if isinstance(w, MultiplicativeUnitary) else MultiplicativeUnitary.from_dense(w)
    _require("unitarity", lambda: check_unitarity(mu))
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


def w_coefficients(qg: QuantumGroupPair) -> tuple[np.ndarray, np.ndarray]:
    """W laid out as T[(a c), (b d)] = W[(a b), (c d)], and its coefficients
    C on M (x) Mhat: W = sum C[k, l] x_k (x) y_l, up to the part of T off
    the span."""
    n2 = qg.n * qg.n
    t = np.ascontiguousarray(qg.w4.transpose(0, 2, 1, 3)).reshape(n2, n2)
    return t, (flat_rows(qg.m_basis).conj() @ t) @ flat_rows(qg.mhat_basis).conj().T


def check_w_membership(qg: QuantumGroupPair, tol: float = DEFAULT_TOL) -> CheckReport:
    """Residual of W against span(M (x) Mhat)."""
    t, coeffs = w_coefficients(qg)
    recon = flat_rows(qg.m_basis).T @ (coeffs @ flat_rows(qg.mhat_basis))
    return CheckReport("w-membership", max_abs(t - recon), tol)


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


def check_sharp_involution(qg: QuantumGroupPair, tol: float = DEFAULT_TOL) -> CheckReport:
    """((omega (x) id)(W))^* = (omega_sharp (x) id)(W), and omega_sharp_sharp =
    omega on M, for all n^2 matrix-unit functionals omega = E_ab at once.

    Both sharps stay in coordinates: the coordinates of E_ab are the
    conjugated basis entries conj(x_k[a, b]), and `_sharp` writes each
    omega_sharp on the adjoints x_k^*, whose own coordinates give those of
    the second sharp.  The slices of the E_ab are the rows of W's leg-1
    slice family, laid out once, and those of each omega_sharp come from the
    adjoints' slices (m n^4 work, not n^6), compared one row index a at a
    time, so the only n^4 array is the family."""
    n, rows = qg.n, flat_rows(qg.m_basis)
    adjoint_stack = qg.m_basis.conj().swapaxes(1, 2)                           # x_k^*
    adjoints = flat_rows(adjoint_stack)
    once = _sharp(rows.conj().T, qg.s_mat)
    twice = _sharp(once @ qg.adjoint_coords, qg.s_mat)
    values = flat_rows(qg.m_basis.swapaxes(1, 2)).T                            # rho -> trace(rho x_k)
    family = slice_family(qg.w, n, 1)
    slices = adjoints @ flat_rows(family)
    dev = deviation(twice @ (adjoints @ values), values)
    for start in range(0, n * n, n):
        dev = max(dev, deviation(family[start:start + n].conj().swapaxes(1, 2),
                                 (once[start:start + n] @ slices).reshape(n, n, n)))
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
