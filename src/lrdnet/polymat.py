"""Matrix FIR filters: polynomial matrices in the delay operator z^-1.

Every transfer function in the toolkit is carried by :class:`PolynomialMatrix`,
a finite sum ``sum_k C_k z^-k`` with real coefficient matrices ``C_k``.
Rational inverses are represented by horizon-truncated expansions computed
with :func:`truncated_inverse`; where only the last coefficient or the
recursion itself is needed, :func:`companion` gives the same recursion in
block companion form.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NoDecay, SingularLeadingCoefficient

DEFAULT_HORIZON = 256
DEFAULT_DECAY_TOL = 1e-8
DEFAULT_ZERO_TOL = 1e-9
DEFAULT_COND_BOUND = 1e12


class PolynomialMatrix:
    """A real matrix polynomial ``C_0 + C_1 z^-1 + ... + C_n z^-n``.

    Coefficients live in a read-only array of shape (degree+1, rows, cols);
    slice ``k`` is the coefficient of ``z^-k``. Instances are immutable, so
    they are safe to share across threads.
    """

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs) -> None:
        arr = np.array(coeffs, dtype=float)
        if arr.ndim == 2:
            arr = arr[np.newaxis]
        if arr.ndim != 3:
            raise ValueError(
                f"expected a (degree+1, rows, cols) coefficient array, got shape {arr.shape}"
            )
        if min(arr.shape) < 1:
            raise ValueError(f"empty coefficient array of shape {arr.shape}")
        arr.setflags(write=False)
        self._coeffs = arr

    # -- construction -------------------------------------------------

    @classmethod
    def zeros(cls, rows: int, cols: int, degree: int = 0) -> "PolynomialMatrix":
        return cls(np.zeros((degree + 1, rows, cols)))

    @classmethod
    def identity(cls, n: int) -> "PolynomialMatrix":
        return cls(np.eye(n)[np.newaxis])

    @classmethod
    def constant(cls, matrix) -> "PolynomialMatrix":
        """Degree-0 polynomial wrapping a constant matrix."""
        matrix = np.asarray(matrix, dtype=float)
        if matrix.ndim != 2:
            raise ValueError("constant() expects a 2-d matrix")
        return cls(matrix[np.newaxis])

    # -- basic attributes ----------------------------------------------

    @property
    def coeffs(self) -> np.ndarray:
        return self._coeffs

    @property
    def degree(self) -> int:
        return self._coeffs.shape[0] - 1

    @property
    def rows(self) -> int:
        return self._coeffs.shape[1]

    @property
    def cols(self) -> int:
        return self._coeffs.shape[2]

    @property
    def shape(self) -> tuple[int, int]:
        return (self.rows, self.cols)

    def coeff(self, k: int) -> np.ndarray:
        """Coefficient of z^-k; zero matrix beyond the stored degree."""
        if k < 0:
            raise ValueError("lag index must be nonnegative")
        if k > self.degree:
            return np.zeros((self.rows, self.cols))
        return self._coeffs[k]

    def __repr__(self) -> str:
        return f"PolynomialMatrix(rows={self.rows}, cols={self.cols}, degree={self.degree})"

    # -- arithmetic ----------------------------------------------------

    def __add__(self, other: "PolynomialMatrix") -> "PolynomialMatrix":
        if not isinstance(other, PolynomialMatrix):
            return NotImplemented
        if self.shape != other.shape:
            raise ValueError(f"shape mismatch: {self.shape} vs {other.shape}")
        n = max(self.degree, other.degree)
        out = np.zeros((n + 1, self.rows, self.cols))
        out[: self.degree + 1] += self._coeffs
        out[: other.degree + 1] += other.coeffs
        return PolynomialMatrix(out).normalized()

    def __sub__(self, other: "PolynomialMatrix") -> "PolynomialMatrix":
        return self.__add__(-other)

    def __neg__(self) -> "PolynomialMatrix":
        return PolynomialMatrix(-self._coeffs)

    def __mul__(self, scalar) -> "PolynomialMatrix":
        if not np.isscalar(scalar):
            return NotImplemented
        return PolynomialMatrix(self._coeffs * float(scalar))

    __rmul__ = __mul__

    def __matmul__(self, other: "PolynomialMatrix") -> "PolynomialMatrix":
        """Filter composition by coefficient convolution.

        The product has degree deg(A) + deg(B); interior cancellations are
        kept as explicit zero coefficients.
        """
        if not isinstance(other, PolynomialMatrix):
            return NotImplemented
        if self.cols != other.rows:
            raise ValueError(
                f"inner dimension mismatch: {self.shape} @ {other.shape}"
            )
        n = self.degree + other.degree
        out = np.zeros((n + 1, self.rows, other.cols))
        for j in range(self.degree + 1):
            out[j : j + other.degree + 1] += np.einsum(
                "rc,kcs->krs", self._coeffs[j], other.coeffs
            )
        return PolynomialMatrix(out)

    # -- evaluation & structure -----------------------------------------

    def evaluate(self, theta: float) -> np.ndarray:
        """Frequency response ``sum_k C_k e^{-i k theta}`` at z = e^{i theta}."""
        phases = np.exp(-1j * theta * np.arange(self.degree + 1))
        return np.einsum("k,krc->rc", phases, self._coeffs)

    def evaluate_grid(self, thetas: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`evaluate`; returns an (N, rows, cols) complex array."""
        thetas = np.asarray(thetas, dtype=float)
        phases = np.exp(-1j * np.outer(thetas, np.arange(self.degree + 1)))
        return np.einsum("nk,krc->nrc", phases, self._coeffs)

    def support(self, zero_tol: float = DEFAULT_ZERO_TOL) -> np.ndarray:
        """Boolean mask: entry (i, j) is True iff some |[C_k]_ij| > zero_tol."""
        if zero_tol < 0:
            raise ValueError("zero_tol must be nonnegative")
        return np.abs(self._coeffs).max(axis=0) > zero_tol

    def normalized(self) -> "PolynomialMatrix":
        """Strip trailing exactly-zero coefficient matrices."""
        n = self.degree
        while n > 0 and not self._coeffs[n].any():
            n -= 1
        if n == self.degree:
            return self
        return PolynomialMatrix(self._coeffs[: n + 1])

    def allclose(self, other: "PolynomialMatrix", atol: float = 1e-12) -> bool:
        if self.shape != other.shape:
            return False
        n = max(self.degree, other.degree) + 1
        a = np.zeros((n, *self.shape))
        b = np.zeros((n, *self.shape))
        a[: self.degree + 1] = self._coeffs
        b[: other.degree + 1] = other.coeffs
        return bool(np.allclose(a, b, rtol=0.0, atol=atol))

    # -- serialization ---------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "rows": self.rows,
            "cols": self.cols,
            "degree": self.degree,
            "coeffs": [c.tolist() for c in self._coeffs],
        }

    @classmethod
    def from_dict(cls, d: dict) -> "PolynomialMatrix":
        arr = np.array(d["coeffs"], dtype=float)
        expected = (d["degree"] + 1, d["rows"], d["cols"])
        if arr.shape != expected:
            raise ValueError(f"coefficient shape {arr.shape} does not match header {expected}")
        return cls(arr)


@dataclass(frozen=True)
class SelectorVector:
    """Elementary column vector with a 1 at ``index`` (1-based) in R^length."""

    index: int
    length: int

    def __post_init__(self) -> None:
        if not 1 <= self.index <= self.length:
            raise ValueError(f"index {self.index} out of range [1, {self.length}]")

    def column(self) -> np.ndarray:
        v = np.zeros(self.length)
        v[self.index - 1] = 1.0
        return v


def selector_matrix(indices, length: int) -> np.ndarray:
    """Stack selector rows for an ordered index set (1-based)."""
    return np.stack([SelectorVector(i, length).column() for i in indices])


def selector_shift(i: int, l: int) -> PolynomialMatrix:
    """Diagonal filter that delays channel ``i`` (1-based) by one step.

    Entry (i, i) is z^-1, all other diagonal entries are 1. The result is
    unitary on the unit circle.
    """
    if not 1 <= i <= l:
        raise ValueError(f"channel index {i} out of range [1, {l}]")
    c0 = np.eye(l)
    c0[i - 1, i - 1] = 0.0
    c1 = np.zeros((l, l))
    c1[i - 1, i - 1] = 1.0
    return PolynomialMatrix(np.stack([c0, c1]))


def truncated_inverse(
    a: PolynomialMatrix,
    horizon: int = DEFAULT_HORIZON,
    decay_tol: float = DEFAULT_DECAY_TOL,
    cond_bound: float = DEFAULT_COND_BOUND,
) -> PolynomialMatrix:
    """Causal inverse of a square filter, truncated at ``horizon``.

    Uses the recursion Q_0 = A_0^-1, Q_k = -A_0^-1 sum_{j=1..min(k, deg A)}
    A_j Q_{k-j}, which matches the exact causal inverse coefficient by
    coefficient. The final coefficient's Frobenius norm acts as the decay
    certificate: if it exceeds ``decay_tol`` the input is not causally
    invertible at this horizon and :class:`NoDecay` is raised.
    """
    if a.rows != a.cols:
        raise ValueError(f"inverse needs a square filter, got {a.shape}")
    if horizon < 1:
        raise ValueError("horizon must be positive")
    a0 = a.coeff(0)
    cond = np.linalg.cond(a0)
    if not np.isfinite(cond) or cond > cond_bound:
        raise SingularLeadingCoefficient(
            f"lag-0 coefficient has condition number {cond:.3e} (bound {cond_bound:.1e})"
        )
    a0_inv = np.linalg.inv(a0)
    n = a.rows
    coeffs = a.coeffs
    q = np.zeros((horizon + 1, n, n))
    q[0] = a0_inv
    for k in range(1, horizon + 1):
        jmax = min(k, a.degree)
        if jmax < 1:
            break  # degree-0 filter: inverse is the constant a0_inv
        window = q[k - jmax : k][::-1]  # Q_{k-1}, ..., Q_{k-jmax}
        acc = np.einsum("jrc,jcs->rs", coeffs[1 : jmax + 1], window)
        q[k] = -a0_inv @ acc
    tail = float(np.linalg.norm(q[horizon]))
    if tail > decay_tol:
        raise NoDecay(
            f"inverse tail norm {tail:.3e} exceeds {decay_tol:.1e} at horizon {horizon}",
            tail=tail,
        )
    return PolynomialMatrix(q)


def companion(a: PolynomialMatrix) -> tuple[np.ndarray, np.ndarray]:
    """Lag-0 inverse and block companion matrix of the causal-inverse recursion.

    For a square filter of degree d >= 1 the companion matrix C is
    (n d) x (n d), with top block row -A_0^-1 [A_1 ... A_d] and a shifted
    identity below it. It maps the state [Q_{k-1}; ...; Q_{k-d}] of the
    :func:`truncated_inverse` recursion to [Q_k; ...; Q_{k-d+1}], so
    Q_k = (C^k)[:n, :n] A_0^-1. A degree-0 filter has a (0, 0) companion
    matrix. The lag-0 coefficient is not conditioning-checked here; callers
    certify it first (see ``model.validate``).
    """
    if a.rows != a.cols:
        raise ValueError(f"companion matrix needs a square filter, got {a.shape}")
    n, d = a.rows, a.degree
    a0_inv = np.linalg.inv(a.coeff(0))
    c = np.eye(n * d, k=-n)
    if d:
        c[:n] = -a0_inv @ a.coeffs[1:].transpose(1, 0, 2).reshape(n, n * d)
    return a0_inv, c


def inverse_tail_norm(a: PolynomialMatrix, horizon: int = DEFAULT_HORIZON) -> float:
    """Frobenius norm of the causal-inverse coefficient Q_horizon of ``a``.

    This is the decay certificate of :func:`truncated_inverse`, computed as
    ||(C^horizon)[:n, :n] A_0^-1||_F by repeated squaring of the
    :func:`companion` matrix (about log2(horizon) products instead of
    ``horizon`` recursion steps). A divergent filter yields a non-finite
    value without floating-point warnings.
    """
    if horizon < 1:
        raise ValueError("horizon must be positive")
    if a.degree == 0:
        return 0.0
    a0_inv, c = companion(a)
    n = a.rows
    with np.errstate(over="ignore", invalid="ignore"):
        q = np.linalg.matrix_power(c, horizon)[:n, :n] @ a0_inv
        return float(np.linalg.norm(q))


def vstack(top: PolynomialMatrix, bottom: PolynomialMatrix) -> PolynomialMatrix:
    """Stack two filters with a shared input on top of each other."""
    if top.cols != bottom.cols:
        raise ValueError(f"column mismatch: {top.shape} vs {bottom.shape}")
    n = max(top.degree, bottom.degree)
    out = np.zeros((n + 1, top.rows + bottom.rows, top.cols))
    out[: top.degree + 1, : top.rows] = top.coeffs
    out[: bottom.degree + 1, top.rows :] = bottom.coeffs
    return PolynomialMatrix(out)
