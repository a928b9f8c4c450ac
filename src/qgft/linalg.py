"""Dense complex tensor kernel: Kronecker products, leg embeddings, the flip,
the one single-functional slice kernel (slice_left/slice_right), seeded
complex Gaussian draws, and numerically robust span/membership tests.

Index convention (normative for the whole package): an operator ``X`` on the
two-fold tensor square of an n-dimensional space is an n^2 x n^2 matrix whose
row index pairs as ``(i, k) -> i*n + k`` (first leg major).  The reshaped view
``X4 = X.reshape(n, n, n, n)`` therefore satisfies
``X4[i, k, j, l] == X[i*n + k, j*n + l]``.

Inner products are linear in the first slot: ``inner(u, v) = sum u_i conj(v_i)``,
and matrices carry the trace inner product ``<X, Y> = trace(Y^* X)``.

A tolerance is one float: an absolute bound on a deviation, DEFAULT_TOL
unless given.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Relative singular-value cutoff of every rank decision.
RANK_RTOL = 1e-8

# Absolute bound of every check, and the floor of every rank cutoff.
DEFAULT_TOL = 1e-10


def as_complex_matrix(entries, rows: int | None = None, cols: int | None = None) -> np.ndarray:
    """Validate and coerce to a finite complex128 matrix."""
    mat = np.asarray(entries, dtype=complex)
    if mat.ndim != 2:
        raise ValueError(f"expected a matrix, got array of ndim {mat.ndim}")
    if rows is not None and mat.shape[0] != rows:
        raise ValueError(f"expected {rows} rows, got {mat.shape[0]}")
    if cols is not None and mat.shape[1] != cols:
        raise ValueError(f"expected {cols} columns, got {mat.shape[1]}")
    if not (np.all(np.isfinite(mat.real)) and np.all(np.isfinite(mat.imag))):
        raise ValueError("matrix entries must be finite (no NaN/Inf)")
    return mat


def inner(u: np.ndarray, v: np.ndarray) -> complex:
    """Hilbert space inner product, linear in the first slot."""
    return complex(np.vdot(v, u))


def max_abs(x) -> float:
    x = np.asarray(x)
    return float(np.max(np.abs(x))) if x.size else 0.0


def deviation(x, y) -> float:
    """Largest entrywise absolute difference."""
    return max_abs(np.asarray(x, dtype=complex) - np.asarray(y, dtype=complex))


@dataclass(frozen=True)
class Functional:
    """Normal linear functional on B(H), represented by a density matrix:
    omega(x) = trace(density @ x)."""

    density: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "density", as_complex_matrix(self.density))
        if self.density.shape[0] != self.density.shape[1]:
            raise ValueError("functional density must be square")

    @property
    def dim(self) -> int:
        return self.density.shape[0]

    def __call__(self, x: np.ndarray) -> complex:
        return complex(np.einsum("ij,ji->", self.density, x))


def matrix_unit_functional(n: int, i: int, j: int) -> Functional:
    density = np.zeros((n, n), dtype=complex)
    density[i, j] = 1.0
    return Functional(density)


def trace_functional(n: int) -> Functional:
    return Functional(np.eye(n, dtype=complex))


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product; (a (x) b)[(i,k),(j,l)] = a[i,j] * b[k,l]."""
    return np.kron(np.asarray(a, dtype=complex), np.asarray(b, dtype=complex))


def flip(n: int) -> np.ndarray:
    """The flip sigma(u (x) v) = v (x) u on the tensor square; an involution."""
    if n < 1:
        raise ValueError("dimension must be >= 1")
    sigma = np.zeros((n * n, n * n), dtype=complex)
    j, l = np.divmod(np.arange(n * n), n)
    sigma[l * n + j, j * n + l] = 1.0
    return sigma


def leg_embed(x: np.ndarray, placement: int, n: int) -> np.ndarray:
    """Embed an operator on the tensor square into the tensor cube, acting on
    the named pair of legs (12, 13 or 23) and as identity on the rest.

    Leg 13 is realized by conjugating a 12-embedding with the flip of legs
    2 and 3.
    """
    x = as_complex_matrix(x, n * n, n * n)
    eye = np.eye(n, dtype=complex)
    if placement == 12:
        return kron(x, eye)
    if placement == 23:
        return kron(eye, x)
    if placement == 13:
        swap23 = kron(eye, flip(n))
        return swap23 @ kron(x, eye) @ swap23
    raise ValueError(f"placement must be one of 12, 13, 23; got {placement}")


def slice_left(omega: Functional, x: np.ndarray) -> np.ndarray:
    """Apply a functional to the first tensor leg: (omega (x) id)(x).

    For x = sum_k a_k (x) b_k this returns sum_k omega(a_k) b_k, computed as
    the partial trace over leg 1 of (density (x) 1) x.
    """
    x = np.asarray(x, dtype=complex)
    n = omega.dim
    if x.shape != (n * n, n * n):
        raise ValueError(f"operator shape {x.shape} incompatible with leg dimension {n}")
    x4 = x.reshape(n, n, n, n)
    return np.einsum("ij,jkil->kl", omega.density, x4)


def slice_right(theta: Functional, x: np.ndarray) -> np.ndarray:
    """Apply a functional to the second tensor leg: (id (x) theta)(x)."""
    x = np.asarray(x, dtype=complex)
    n = theta.dim
    if x.shape != (n * n, n * n):
        raise ValueError(f"operator shape {x.shape} incompatible with leg dimension {n}")
    x4 = x.reshape(n, n, n, n)
    return np.einsum("kl,iljk->ij", theta.density, x4)


def random_complex(rng: np.random.Generator, shape) -> np.ndarray:
    """Complex standard Gaussian array: the real part is drawn first, then the
    imaginary part, so reports seeded with rng reproduce bit for bit."""
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def random_element(rng: np.random.Generator, basis: np.ndarray) -> np.ndarray:
    """Random element of span(basis) with complex Gaussian coefficients."""
    return span_reconstruct(random_complex(rng, basis.shape[0]), basis)


def span_basis(mats, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Orthonormal basis (trace inner product) of the span of the given
    matrices, returned as an array of shape (rank, rows, cols).

    The rank is decided by the singular-value threshold
    max(tol, RANK_RTOL * largest singular value).
    """
    mats = [np.asarray(m, dtype=complex) for m in mats]
    if not mats:
        return np.zeros((0, 0, 0), dtype=complex)
    shape = mats[0].shape
    for m in mats:
        if m.shape != shape:
            raise ValueError("all matrices must share one shape")
    stacked = np.stack([m.reshape(-1) for m in mats])
    _, svals, vh = np.linalg.svd(stacked, full_matrices=False)
    if svals.size == 0 or svals[0] == 0.0:
        return np.zeros((0,) + shape, dtype=complex)
    cutoff = max(tol, RANK_RTOL * svals[0])
    rank = int(np.sum(svals > cutoff))
    return vh[:rank].reshape((rank,) + shape)


def membership_residual(x: np.ndarray, basis: np.ndarray) -> float:
    """Largest entry of x, or of any operator of a stack x, minus its
    orthogonal projection onto span(basis)."""
    x = np.asarray(x, dtype=complex)
    return max_abs(x - span_reconstruct(span_coords(x, basis), basis))


def span_coords(x: np.ndarray, basis: np.ndarray) -> np.ndarray:
    """Coefficients of x, or of each operator of a stack x, in an orthonormal
    basis (projection coordinates)."""
    return np.einsum("kab,...ab->...k", basis.conj(), np.asarray(x, dtype=complex))


def span_reconstruct(coeffs: np.ndarray, basis: np.ndarray) -> np.ndarray:
    return np.einsum("...k,kab->...ab", np.asarray(coeffs, dtype=complex), basis)


@dataclass(frozen=True)
class SubspaceComparison:
    equal: bool
    deviation: float


def subspace_equal(basis1: np.ndarray, basis2: np.ndarray,
                   tol: float = DEFAULT_TOL) -> SubspaceComparison:
    """Decide equality of two spans by mutual projection residuals.

    The reported deviation is the worst residual norm of a basis vector of one
    span projected onto the other (the sine of the largest principal angle
    when the spans have equal dimension).
    """
    b1 = np.asarray(basis1, dtype=complex)
    b2 = np.asarray(basis2, dtype=complex)
    if b1.shape[0] and b2.shape[0] and b1.shape[1:] != b2.shape[1:]:
        raise ValueError("bases live on different ambient spaces")
    if b1.shape[0] == 0 and b2.shape[0] == 0:
        return SubspaceComparison(True, 0.0)
    if b1.shape[0] == 0 or b2.shape[0] == 0:
        return SubspaceComparison(False, 1.0)
    v1 = b1.reshape(b1.shape[0], -1)
    v2 = b2.reshape(b2.shape[0], -1)
    worst = 0.0
    for a, b in ((v1, v2), (v2, v1)):
        coeffs = a @ b.conj().T
        residual = a - coeffs @ b
        norms = np.linalg.norm(residual, axis=1)
        worst = max(worst, float(np.max(norms)))
    return SubspaceComparison(worst <= tol, worst)
