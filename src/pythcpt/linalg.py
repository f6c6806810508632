"""Dense matrix utilities: Kronecker products, vectorization, exact
unitary propagators for Hermitian generators, orthogonal completion
of partial real frames, and one gate per invariant:
``require_hermitian`` (HERMITICITY_TOL = 1e-12, relative to
max(1, max|h|)), ``require_normalized`` (NORMALIZATION_TOL = 1e-10)
and ``require_unitary`` (UNITARITY_TOL = 1e-10).

All functions are pure and operate on plain numpy arrays. Matrices are
2-d ``ndarray``s, vectors 1-d. Everything here is exact up to
eigendecomposition error, which is why propagators are computed by
diagonalization rather than by series or Pade methods.
"""

from __future__ import annotations

import numpy as np

HERMITICITY_TOL = 1e-12  # relative to max(1, max|h|), see require_hermitian
UNITARITY_TOL = 1e-10
NORMALIZATION_TOL = 1e-10
ORTHONORMALITY_TOL = 1e-10


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product with block (i, j) equal to ``a[i, j] * b``."""
    return np.kron(np.asarray(a), np.asarray(b))


def vectorize(x: np.ndarray) -> np.ndarray:
    """Stack the columns of ``x`` into a single vector.

    Component ``m*(j-1) + i`` (1-based) of the result is ``x[i, j]``,
    i.e. column-major order.
    """
    x = np.asarray(x)
    if x.ndim != 2:
        raise ValueError(f"expected a matrix, got ndim={x.ndim}")
    return x.reshape(-1, order="F")


def unvectorize(y: np.ndarray, m: int, n: int) -> np.ndarray:
    """Inverse of :func:`vectorize`: reshape ``y`` into an m-by-n matrix."""
    y = np.asarray(y).reshape(-1)
    if y.size != m * n:
        raise ValueError(
            f"cannot unvectorize a length-{y.size} vector into a {m}x{n} matrix"
        )
    return y.reshape((m, n), order="F")


def hermiticity_deviation(h: np.ndarray) -> float:
    """Max elementwise deviation |h - h^dagger|."""
    h = np.asarray(h)
    return float(np.max(np.abs(h - h.conj().T))) if h.size else 0.0


def require_hermitian(h: np.ndarray, what: str) -> None:
    """Raise unless ``h`` is Hermitian to HERMITICITY_TOL * max(1, max|h|).

    The gate is relative because a frame conjugation ``W h W^T`` is
    symmetric only to about eps * max|h|, which an absolute bound
    rejects once the couplings grow large.
    """
    h = np.asarray(h)
    dev = hermiticity_deviation(h)
    scale = max(1.0, float(np.max(np.abs(h)))) if h.size else 1.0
    if not dev <= HERMITICITY_TOL * scale:
        raise ValueError(
            f"{what} is not Hermitian: max |h - h^dagger| = {dev:.3e} "
            f"exceeds {HERMITICITY_TOL:.0e} * max(1, max|h|) = {HERMITICITY_TOL * scale:.3e}"
        )


def require_normalized(v: np.ndarray, what: str) -> np.ndarray:
    """Return ``v`` as a flat complex vector; raise unless ||v| - 1| <= NORMALIZATION_TOL."""
    v = np.asarray(v, dtype=complex).reshape(-1)
    norm = np.linalg.norm(v)
    if not abs(norm - 1.0) <= NORMALIZATION_TOL:
        raise ValueError(f"{what} must be normalized, got |{what}| = {norm}")
    return v


def require_unitary(u: np.ndarray, what: str) -> None:
    """Raise unless max|u u^dagger - I| <= UNITARITY_TOL."""
    err = np.max(np.abs(u @ u.conj().T - np.eye(len(u))))
    if not err <= UNITARITY_TOL:
        raise ValueError(
            f"{what} is not unitary: max |u u^dagger - I| = {err:.3e} exceeds {UNITARITY_TOL:.0e}"
        )


def matexp_unitary(h: np.ndarray, t: float) -> np.ndarray:
    """Return ``exp(-i h t)`` for Hermitian ``h`` (hbar = 1).

    Computed by diagonalizing ``h`` and exponentiating its (real)
    eigenvalues, so the result is unitary to eigendecomposition
    accuracy; ``h`` must pass :func:`require_hermitian` and the result
    :func:`require_unitary`. The eigensolver follows the dtype of ``h``:
    a real symmetric ``h`` takes the real solver, several times faster
    than the complex one at the same size, and a complex Hermitian ``h``
    the complex solver. The result is complex either way.
    """
    h = np.asarray(h)
    require_hermitian(h, "generator")
    evals, evecs = np.linalg.eigh(h)
    u = (evecs * np.exp(-1j * evals * t)) @ evecs.conj().T
    require_unitary(u, "propagator")
    return u


def complete_orthogonal(rows: list[np.ndarray] | tuple[np.ndarray, ...]) -> np.ndarray:
    """Complete real orthonormal rows to a full real orthogonal matrix.

    The given k rows appear first, unchanged. The remaining rows are the
    trailing columns of the complete QR factorization of the dim-by-k
    seed block ``seeds^T``, an orthonormal basis of the seeds'
    complement. Each appended row is sign-fixed so its first nonzero
    entry is positive, which makes the completion deterministic.
    """
    if not rows:
        raise ValueError("at least one seed row is required")
    seed = np.vstack([np.asarray(r).reshape(-1) for r in rows])
    if np.iscomplexobj(seed) and not np.max(np.abs(seed.imag)) <= ORTHONORMALITY_TOL:
        raise ValueError("seed rows must be real")
    seed = seed.real.astype(float)
    k, dim = seed.shape
    gram_err = np.max(np.abs(seed @ seed.T - np.eye(k)))
    if not gram_err <= ORTHONORMALITY_TOL:
        raise ValueError(
            f"seed rows are not orthonormal within {ORTHONORMALITY_TOL:.1e} "
            f"(max Gram deviation {gram_err:.3e})"
        )
    q, _ = np.linalg.qr(seed.T, mode="complete")
    rest = q[:, k:].T
    first = np.argmax(np.abs(rest) > 1e-12, axis=1)
    rest = rest * np.sign(rest[np.arange(dim - k), first])[:, None]
    return np.vstack([seed, rest])
