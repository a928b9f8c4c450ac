"""Dense complex tensor kernel: Kronecker products, leg embeddings, the flip,
the one slice kernel (one layout per leg, `slice_family`, which left_slicer/
right_slicer apply to many functionals and slice_left/slice_right to one),
seeded complex Gaussian draws (`random_complex`), and numerically robust
span/membership tests (`SpanKernel`, one projection onto an orthonormal basis).

Index convention (normative for the whole package): an operator ``X`` on the
two-fold tensor square of an n-dimensional space is an n^2 x n^2 matrix whose
row index pairs as ``(i, k) -> i*n + k`` (first leg major).  The reshaped view
``X4 = X.reshape(n, n, n, n)`` therefore satisfies
``X4[i, k, j, l] == X[i*n + k, j*n + l]``.

Inner products are linear in the first slot: ``<u, v> = sum u_i conj(v_i)``,
and matrices carry the trace inner product ``<X, Y> = trace(Y^* X)``.

Contraction convention: every contraction is a reshape or transpose of its
operands followed by one matmul, on operands made C-contiguous at the kernel
boundary.  A stack of matrices is contracted as its flat rows (``flat_rows``),
and a small operand is conjugated rather than a large one; a `SpanKernel`
holds its basis's conjugate rows, laid out once, so a projection conjugates
nothing per call: x @ conj(B)^T.  On a basis of scaled indicators of disjoint
supports of one size (both bases of every group model) the kernel takes its
index layout instead: coordinates are gathered support sums, O(n^2) per
operator, with no product.  The layout is chosen from the basis values alone.
The summation order is fixed by the shapes alone, so a result does not depend
on memory layout; it can depend on batch size: a one-row product goes to gemv
and a stacked one to gemm, so ``apply_s`` of one operator and of a stack
holding it can differ in the last bit (the Kac law of the transported
dihedral:3 pair: 5.4e-16, 6.1e-16).

A tolerance is one float: an absolute bound on a deviation, DEFAULT_TOL
unless given.  Every rank is `rank(svals, tol)`, which counts no singular
value below the floor tol.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Relative singular-value cutoff of every rank decision.
RANK_RTOL = 1e-8

# Absolute bound of every check, and the floor of every rank cutoff.
DEFAULT_TOL = 1e-10


def as_complex_matrix(entries, rows: int | None = None, cols: int | None = None) -> np.ndarray:
    """Validate and coerce to a finite, C-contiguous complex128 matrix."""
    mat = np.asarray(entries, dtype=complex)
    if mat.ndim != 2:
        raise ValueError(f"expected a matrix, got array of ndim {mat.ndim}")
    if rows is not None and mat.shape[0] != rows:
        raise ValueError(f"expected {rows} rows, got {mat.shape[0]}")
    if cols is not None and mat.shape[1] != cols:
        raise ValueError(f"expected {cols} columns, got {mat.shape[1]}")
    if not np.isfinite(mat).all():
        raise ValueError("matrix entries must be finite (no NaN/Inf)")
    return np.ascontiguousarray(mat)


def max_abs(x) -> float:
    """Largest absolute entry of x; 0 for an empty x."""
    return float(np.maximum.reduce(np.abs(x), axis=None, initial=0.0))


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
        if np.shape(x) != self.density.shape:
            raise ValueError(f"operator shape {np.shape(x)} does not match density {self.density.shape}")
        return complex(flat_rows(self.density) @ flat_rows(np.transpose(x)))

    def values_on(self, basis: np.ndarray) -> np.ndarray:
        """omega(x_k) for every operator x_k of the stack basis."""
        return flat_rows(basis) @ flat_rows(self.density.T)


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


def _legs(x: np.ndarray, n: int, axes: tuple[int, ...]) -> np.ndarray:
    """x on the tensor square of C^n, its four legs transposed by axes and
    laid out C-contiguous as an n^2 x n^2 matrix."""
    x = np.asarray(x, dtype=complex)
    if x.shape != (n * n, n * n):
        raise ValueError(f"operator shape {x.shape} incompatible with leg dimension {n}")
    return np.ascontiguousarray(x.reshape(n, n, n, n).transpose(axes)).reshape(n * n, n * n)


def slice_family(x: np.ndarray, n: int, leg: int) -> np.ndarray:
    """The slices of x by the matrix units E_ab on one leg, (E_ab (x) id)(x)
    for leg 1 and (id (x) E_ab)(x) for leg 2, stacked in (a, b) order; shape
    (n^2, n, n).  The slice by a density rho is flat_rows(rho) @
    flat_rows(family)."""
    if leg not in (1, 2):
        raise ValueError(f"leg must be 1 or 2; got {leg}")
    return _legs(x, n, (2, 0, 1, 3) if leg == 1 else (3, 1, 0, 2)).reshape(n * n, n, n)


def left_slicer(x: np.ndarray, n: int):
    """The map omega -> (omega (x) id)(x), with x laid out once for every
    functional it is applied to.

    For x = sum_k a_k (x) b_k the map returns sum_k omega(a_k) b_k, computed
    as the partial trace over leg 1 of (density (x) 1) x.
    """
    family = flat_rows(slice_family(x, n, 1))
    return lambda omega: (flat_rows(omega.density) @ family).reshape(n, n)


def right_slicer(x: np.ndarray, n: int):
    """The map theta -> (id (x) theta)(x), with x laid out once."""
    family = flat_rows(slice_family(x, n, 2))
    return lambda theta: (flat_rows(theta.density) @ family).reshape(n, n)


def slice_left(omega: Functional, x: np.ndarray) -> np.ndarray:
    """Apply a functional to the first tensor leg: (omega (x) id)(x); one
    application of `left_slicer`."""
    return left_slicer(x, omega.dim)(omega)


def slice_right(theta: Functional, x: np.ndarray) -> np.ndarray:
    """Apply a functional to the second tensor leg: (id (x) theta)(x); one
    application of `right_slicer`."""
    return right_slicer(x, theta.dim)(theta)


def random_complex(rng: np.random.Generator, shape) -> np.ndarray:
    """Complex standard Gaussian array: the real part is drawn first, then the
    imaginary part, so reports seeded with rng reproduce bit for bit."""
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def span_basis(mats, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Orthonormal basis (trace inner product) of the span of the given
    matrices, returned as an array of shape (rank, rows, cols).

    The rank is `rank(svals, tol)` of the stacked matrices.
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
    r = rank(svals, tol)
    return vh[:r].reshape((r,) + shape)


def rank(svals: np.ndarray, tol: float = DEFAULT_TOL) -> int:
    """The number of singular values (in descending order) above
    max(tol, RANK_RTOL * the largest); 0 for none."""
    return int(np.sum(svals > max(tol, RANK_RTOL * svals[0]))) if len(svals) else 0


def flat_rows(stack: np.ndarray) -> np.ndarray:
    """A stack of matrices (..., rows, cols) as a C-contiguous complex array
    of flat rows (..., rows * cols)."""
    stack = np.ascontiguousarray(stack, dtype=complex)
    return stack.reshape(stack.shape[:-2] + (stack.shape[-2] * stack.shape[-1],))


class SpanKernel:
    """Projection onto the span of an orthonormal basis (shape (m, rows,
    cols)), laid out once for every operand it is applied to.

    The layout is chosen from the basis values alone:

    * index layout: each basis element is one nonzero constant c_k on a
      support S_k and 0 elsewhere, the supports pairwise disjoint and of one
      size (both bases of every group model).  A coordinate is conj(c_k)
      times the operand's sum over S_k, and the projection is c_k times it
      on S_k: the support mean.  The residual is the largest deviation from
      a support mean or entry off all supports, from one gather of the
      operand, O(n^2) with no product.
    * dense layout: every other basis.  The flat rows B and their conjugates
      are held C-contiguous, so the coordinates are one product x @ conj(B)^T
      and the residual one more, x - coeffs @ B.
    """

    def __init__(self, basis: np.ndarray):
        basis = np.asarray(basis, dtype=complex)
        self.shape = basis.shape[1:]
        self.rows = flat_rows(basis)
        self.dim = self.rows.shape[0]
        indicators = _indicator_layout(self.rows)
        if indicators is None:
            self.support = None
            self.conj_rows = np.ascontiguousarray(self.rows.conj())
        else:
            self.support, self.values, off_support = indicators
            self.conj_values = self.values.conj()
            self.order = np.concatenate([self.support.ravel(), off_support])

    @property
    def layout(self) -> str:
        return "dense" if self.support is None else "index"

    def _flat(self, x) -> tuple[np.ndarray, tuple]:
        """x's flat rows, C-contiguous, one per operator, and the shape of its
        stack."""
        x = np.asarray(x)
        if x.shape[-2:] != self.shape:
            raise ValueError(f"operand shape {x.shape} does not match basis "
                             f"{(self.dim,) + self.shape}")
        return np.ascontiguousarray(x, dtype=complex).reshape(-1, self.rows.shape[1]), x.shape[:-2]

    def coords(self, x) -> np.ndarray:
        """Coordinates of x, or of each operator of a stack x."""
        rows, stack = self._flat(x)
        if self.support is None:
            coeffs = rows @ self.conj_rows.T
        else:
            coeffs = np.add.reduce(rows.take(self.support, axis=1), axis=-1) * self.conj_values
        return coeffs.reshape(stack + (self.dim,))

    def split(self, x) -> tuple[np.ndarray, np.ndarray]:
        """Coordinates of x, or of each operator of a stack x, and the entries
        of x minus its orthogonal projection, one flat row per operator (in
        the index layout, in support order)."""
        rows, stack = self._flat(x)
        if self.support is None:
            coeffs = rows @ self.conj_rows.T
            off = rows - coeffs @ self.rows
        else:
            off = rows.take(self.order, axis=1)
            on = off[:, :self.support.size].reshape((-1,) + self.support.shape)
            coeffs = np.add.reduce(on, axis=-1) * self.conj_values
            on -= (coeffs * self.values)[..., None]
        return coeffs.reshape(stack + (self.dim,)), off

    def project(self, x) -> tuple[np.ndarray, float]:
        """Coordinates of x, or of each operator of a stack x, and the largest
        entry of x minus its orthogonal projection."""
        coeffs, off = self.split(x)
        return coeffs, max_abs(off)

    def reconstruct(self, coeffs) -> np.ndarray:
        """The operator, or stack of operators, with the given coordinates."""
        coeffs = np.ascontiguousarray(coeffs, dtype=complex)
        if coeffs.shape[-1:] != (self.dim,):
            raise ValueError(f"{coeffs.shape[-1:]} coordinates for a basis of {self.dim}")
        flat = coeffs.reshape(-1, self.dim)
        if self.support is None:
            out = flat @ self.rows
        else:
            out = np.zeros((flat.shape[0], self.rows.shape[1]), dtype=complex)
            out[:, self.support] = (flat * self.values)[..., None]
        return out.reshape(coeffs.shape[:-1] + self.shape)


def _indicator_layout(rows: np.ndarray):
    """(support, values, off_support) when each row is one nonzero constant on
    a support of its own and all supports have one size: support[k] holds row
    k's flat indices, values[k] its constant, off_support the indices in no
    support.  None otherwise."""
    m, size = rows.shape
    nonzero = rows != 0
    count = np.count_nonzero(nonzero)
    if m == 0 or count == 0 or count > size or count % m:
        return None
    if (np.count_nonzero(nonzero, axis=1) != count // m).any() \
            or (np.count_nonzero(nonzero, axis=0) > 1).any():
        return None
    support = np.nonzero(nonzero)[1].reshape(m, count // m)
    on = np.take_along_axis(rows, support, axis=1)
    if (on != on[:, :1]).any():
        return None
    return support, on[:, 0].copy(), np.flatnonzero(~nonzero.any(axis=0))


def subspace_equal(basis1: np.ndarray, basis2: np.ndarray) -> float:
    """How far two spans are from equal, by mutual projection residuals: the
    worst residual norm of a basis vector of one span projected onto the other
    (the sine of the largest principal angle when the spans have equal
    dimension); 0 for two empty spans, 1 when only one is empty.
    """
    b1 = np.asarray(basis1, dtype=complex)
    b2 = np.asarray(basis2, dtype=complex)
    if b1.shape[0] and b2.shape[0] and b1.shape[1:] != b2.shape[1:]:
        raise ValueError("bases live on different ambient spaces")
    if b1.shape[0] == 0 or b2.shape[0] == 0:
        return float(b1.shape[0] != b2.shape[0])
    v1 = b1.reshape(b1.shape[0], -1)
    v2 = b2.reshape(b2.shape[0], -1)
    worst = 0.0
    for a, b in ((v1, v2), (v2, v1)):
        coeffs = a @ b.conj().T
        residual = a - coeffs @ b
        norms = np.linalg.norm(residual, axis=1)
        worst = max(worst, float(np.max(norms)))
    return worst
