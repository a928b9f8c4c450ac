"""Group models: the dual pair (functions on G, group von Neumann algebra)
built from a finite group.

The carrier space is l^2(G).  The multiplicative unitary is the structured
permutation e_s (x) e_t -> e_s (x) e_{st}; functions act as multiplication
operators on the diagonal, and coefficient functions act through the left
regular representation L_b[x, y] = b(x y^{-1}).  The Haar weights are counting
(implementing vector: all ones) and evaluation at the identity (implementing
vector: the identity basis vector); both antipodes act by composing with group
inversion, exactly, so the model carries them as permutation matrices rather
than least-squares fits.  The modular function is identically 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .engine import MultiplicativeUnitary, QuantumGroupPair, Weight
from .fourier import pairing_routes
from .groups import FiniteGroup, NonAbelianInput, characters, is_abelian, read_json
from .linalg import deviation, max_abs


@dataclass(frozen=True)
class GroupModel:
    group: FiniteGroup
    qg: QuantumGroupPair

    @property
    def n(self) -> int:
        return self.group.order


def build(group: FiniteGroup) -> GroupModel:
    """Assemble the quantum-group bundle of a finite group."""
    n = group.order
    sig = np.broadcast_to(np.arange(n)[:, None], (n, n)).copy()
    mu = MultiplicativeUnitary.from_permutation(sig, group.mult)

    m_basis = np.zeros((n, n, n), dtype=complex)
    m_basis[np.arange(n), np.arange(n), np.arange(n)] = 1.0

    mhat_basis = np.zeros((n, n, n), dtype=complex)
    for g in range(n):
        delta_g = np.zeros(n, dtype=complex)
        delta_g[g] = 1.0
        mhat_basis[g] = _left_regular(group, delta_g) / math.sqrt(n)

    xi_phi = np.ones(n, dtype=complex)
    xi_phihat = np.zeros(n, dtype=complex)
    xi_phihat[group.identity] = 1.0

    s_mat = np.zeros((n, n), dtype=complex)
    s_mat[group.inv, np.arange(n)] = 1.0
    shat_mat = s_mat.copy()

    qg = QuantumGroupPair(mu, m_basis, mhat_basis, Weight(xi_phi), Weight(xi_phihat),
                          s_mat, shat_mat)
    return GroupModel(group, qg)


def as_function(values, n: int) -> np.ndarray:
    vec = np.asarray(values, dtype=complex).reshape(-1)
    if vec.shape[0] != n:
        raise ValueError(f"function length {vec.shape[0]} does not match group order {n}")
    if not (np.all(np.isfinite(vec.real)) and np.all(np.isfinite(vec.imag))):
        raise ValueError("function values must be finite")
    return vec


def pi(model: GroupModel, a) -> np.ndarray:
    """Multiplication operator of a function on G (diagonal matrix)."""
    return np.diag(as_function(a, model.n))


def _left_regular(group: FiniteGroup, b: np.ndarray) -> np.ndarray:
    return b[group.mult[:, group.inv]]


def L(model: GroupModel, b) -> np.ndarray:
    """Left-regular convolution operator of a coefficient function:
    L_b[x, y] = b(x y^{-1})."""
    return _left_regular(model.group, as_function(b, model.n))


def pi_function(model: GroupModel, x: np.ndarray) -> np.ndarray:
    """Function carried by a multiplication operator (its diagonal)."""
    return np.diagonal(np.asarray(x, dtype=complex)).copy()


def L_function(model: GroupModel, y: np.ndarray) -> np.ndarray:
    """Coefficient function of a convolution operator: its column at the
    identity element."""
    return np.asarray(y, dtype=complex)[:, model.group.identity].copy()


def classical_convolution(group: FiniteGroup, a, c) -> np.ndarray:
    """(a * c)(y) = sum_x a(x) c(x^{-1} y)."""
    a = as_function(a, group.order)
    c = as_function(c, group.order)
    return a @ c[group.mult[group.inv, :]]


def convolution_oracle_deviation(model: GroupModel) -> float:
    """The pair's convolution tensors through F on every basis pair
    (`QuantumGroupPair.fourier_convolution` and `fourier_convolution_hat`),
    against the group: with a_g the function of x_g (pi(a_g) = x_g) and b_g
    that of y_g (L(b_g) = y_g), x_g * x_h = pi(a_g * a_h) with the group
    convolution and y_g * y_h = L(b_g b_h), compared as functions."""
    qg, group = model.qg, model.group
    a = np.diagonal(qg.m_basis, axis1=1, axis2=2)                               # pi_function
    b = qg.mhat_basis[:, :, group.identity]                                     # L_function
    tensor, tensor_hat = qg.fourier_convolution[0], qg.fourier_convolution_hat[0]
    # (a_g * a_h)(y) = sum_x a_g(x) a_h(x^{-1} y), as [h, g, y]
    classical = a @ a[:, group.mult[group.inv, :]]
    return max(deviation(tensor @ a, classical.swapaxes(0, 1)),
               deviation(tensor_hat @ b, b[:, None] * b[None, :]))


def pairing_oracle_deviation(model: GroupModel) -> float:
    """<L(b) | pi(a)> = sum_x a(x) b(x) on every basis pair, along each of the
    three routes (`fourier.pairing_routes`): <y_h | x_g> = sum_x a_g(x) b_h(x)
    with a_g, b_h the functions of x_g and y_h."""
    qg = model.qg
    a = np.diagonal(qg.m_basis, axis1=1, axis2=2)
    b = qg.mhat_basis[:, :, model.group.identity]
    return max(deviation(route, a @ b.T) for route in pairing_routes(qg))


@dataclass(frozen=True)
class DftComparison:
    diagonal: np.ndarray          # character-basis diagonal of F(pi_a)
    character_sums: np.ndarray    # hat a(chi_j) = sum_x a(x) conj(chi_j(x))
    offdiagonal_deviation: float
    diagonal_deviation: float
    eigenvalue_deviation: float

    @property
    def deviation(self) -> float:
        return max(self.offdiagonal_deviation, self.diagonal_deviation,
                   self.eigenvalue_deviation)


def dft_compare(model: GroupModel, a) -> DftComparison:
    """For abelian G, conjugating the transformed operator L_a by the unitary
    character matrix diagonalizes it; the diagonal is the character-sum
    transform and matches the eigenvalues of L_a.

    Orientation and normalization, fixed against brute-force diagonalization
    of L_a for the 2- and 3-element cyclic groups: with U the unitary with
    rows conj(chi_j)/sqrt(n), one has U L_a U^* = diag(sum_x a(x) conj(chi_j(x))),
    since the character vector (chi_j(x))_x is an L_a eigenvector with that
    eigenvalue.
    """
    if not is_abelian(model.group):
        raise NonAbelianInput(f"dft_compare requires an abelian group, got "
                              f"{model.group.name}")
    vec = as_function(a, model.n)
    chars = characters(model.group)
    u = chars.conj() / math.sqrt(model.n)
    op = L(model, vec)
    conjugated = u @ op @ u.conj().T
    diagonal = np.diagonal(conjugated).copy()
    offdiag = max_abs(conjugated - np.diag(diagonal))
    sums = chars.conj() @ vec
    diag_dev = deviation(diagonal, sums)
    eig_dev = _multiset_deviation(diagonal, np.linalg.eigvals(op))
    return DftComparison(diagonal, sums, offdiag, diag_dev, eig_dev)


def _multiset_deviation(xs: np.ndarray, ys: np.ndarray) -> float:
    """Greedy nearest matching of two complex multisets; robust to the
    reordering that sorting nearly-equal values can produce."""
    remaining = list(ys)
    worst = 0.0
    for x in xs:
        gaps = [abs(x - y) for y in remaining]
        k = int(np.argmin(gaps))
        worst = max(worst, gaps[k])
        remaining.pop(k)
    return worst


def load_function(path, n: int) -> np.ndarray:
    """Read a function file, strict JSON: { "values": [[re, im], ...] }.
    A NaN or Infinity token, or a number beyond the double range, is a
    ValueError (`read_json`), which the CLI reports with exit code 2."""
    data = read_json(path)
    if not isinstance(data, dict) or "values" not in data:
        raise ValueError(f"{path}: expected a JSON object with a 'values' field")
    pairs = data["values"]
    if not isinstance(pairs, list):
        raise ValueError(f"{path}: 'values' must be a list of [re, im] pairs")
    if len(pairs) != n:
        raise ValueError(f"{path}: function length {len(pairs)} does not match "
                         f"group order {n}")
    try:
        return np.array([complex(float(re), float(im)) for re, im in pairs])
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{path}: values must be [re, im] number pairs") from exc


def function_to_json(values) -> dict:
    vec = np.asarray(values, dtype=complex).reshape(-1)
    return {"values": [[float(z.real), float(z.imag)] for z in vec]}
