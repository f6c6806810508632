"""Dense matrix utilities: Kronecker products, vectorization, exact
unitary propagators for Hermitian generators, orthogonal completion
of partial real frames, and one gate per invariant:
``require_hermitian`` (HERMITICITY_TOL, relative to max(1, max|h|)),
``require_normalized`` (NORMALIZATION_TOL) and ``require_unitary``
(UNITARITY_TOL), each threshold from :mod:`pythcpt.tolerances`.

Each gate makes one elementwise pass and reads its maximum with the
``.max()`` method: ``require_unitary`` subtracts 1 from the diagonal of
u u^dagger in place instead of allocating an identity, and
``require_hermitian`` reads max|h| only when the deviation exceeds
HERMITICITY_TOL, since its scale is at least 1. A real residual takes
its absolute value in place, so the Hermiticity gate of a real h makes
one temporary, h - h^T. The residuals are the same floats as
``np.max(np.abs(u @ u.conj().T - np.eye(d)))`` and
``np.max(np.abs(h - h.conj().T))``. On a 2 x 2 input the Hermitian gate
takes 3 us instead of 7.4 and the unitary gate 4.5 to 5.8 us instead of
6.1 to 8.4 (best of 9 in-process repeats, one BLAS thread, 2-CPU x86-64
Xeon); in a traced ``triple_sweep`` pass of 1024 items the gates' own
time fell from 154 to 95 ms.

``matexp_unitary`` evolves by a Hermitian generator, returning the
whole propagator exp(-i h t), chosen by shape: a 2 x 2 h (every
two-level segment, the lifted pulses' included) takes the SU(2) closed
form e^{-i a t} [cos(r t) I - i (sin(r t)/r) (h - a I)] on Python
scalars, with a the mean of the diagonal and r = hypot of the
half-difference and |h01|; a larger h (an n x n segment of an
arbitrary schedule) keeps ``eigh``. Either way ``require_hermitian`` runs
before and ``require_unitary`` after. The two gates also take a stack
of matrices (the last two axes), as ``dynamics.verify_cpt`` passes its
two n x n factors and their eigenbases in one call. Single elements
<bra| exp(-i h t) |ket> are test oracles (``tests/dense_oracle.py``),
not library code: the full spectral element of any Hermitian h, and
the SVD element of the block of h between a chiral C's two sectors,
both references for ``dynamics.verify_cpt``.

All functions are pure and operate on plain numpy arrays. Matrices are
2-d ``ndarray``s, vectors 1-d. Everything here is exact up to rounding
of the closed form or eigendecomposition error, which is why
propagators are computed that way rather than by series or Pade
methods. The closed form is within 8 eps max(1, ||h|| |t|) of the
complex ``eigh`` propagator for ||h|| |t| up to 1e9 (a tier-1 property
test). Of that distance ``eigh`` carries most: in the five of 60,000
random cases where the two differed most, a 50-digit reference put the
closed form within 0.34 and ``eigh`` within 7.45 eps max(1, ||h|| |t|).
"""

from __future__ import annotations

import math
from collections.abc import Sequence

import numpy as np

from .tolerances import COMPLETION_NONZERO, HERMITICITY_TOL, NORMALIZATION_TOL, ORTHONORMALITY_TOL, UNITARITY_TOL


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product with block (i, j) equal to ``a[i, j] * b``.

    Two matrices or two vectors are multiplied in one broadcast, which
    is bit-identical to ``np.kron`` and cheaper for small inputs; other
    shapes go to ``np.kron``.
    """
    a, b = np.asarray(a), np.asarray(b)
    if a.ndim == b.ndim == 2:
        shape = (a.shape[0] * b.shape[0], a.shape[1] * b.shape[1])
        return (a[:, None, :, None] * b[None, :, None, :]).reshape(shape)
    if a.ndim == b.ndim == 1:
        return np.multiply.outer(a, b).reshape(-1)
    return np.kron(a, b)


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


def _max_abs(scratch: np.ndarray) -> float:
    """max|scratch| of a temporary the caller drops: a real one takes its absolute value in place."""
    return float((np.abs(scratch) if scratch.dtype.kind == "c" else np.abs(scratch, out=scratch)).max())


def hermiticity_deviation(h: np.ndarray) -> float:
    """Max elementwise deviation |h - h^dagger|; NaN if h holds one, 0 if h is empty.

    A stack of matrices (the last two axes) gives the largest deviation
    of any of them. h - h^dagger is the one temporary of a real h (see
    :func:`_max_abs`).
    """
    h = np.asarray(h)
    return _max_abs(h - h.conj().swapaxes(-1, -2)) if h.size else 0.0


def require_hermitian(h: np.ndarray, what: str) -> None:
    """Raise unless ``h`` is Hermitian to HERMITICITY_TOL * max(1, max|h|).

    The gate is relative because a frame conjugation ``W h W^T`` is
    symmetric only to about eps * max|h|, which an absolute bound
    rejects once the couplings grow large. The scale is at least 1, so
    a deviation within HERMITICITY_TOL passes without reading max|h|.
    """
    h = np.asarray(h)
    dev = hermiticity_deviation(h)
    if dev <= HERMITICITY_TOL:
        return
    scale = max(1.0, float(np.abs(h).max()))
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
    """Raise unless max|u u^dagger - I| <= UNITARITY_TOL, for one matrix or a stack of them (the last two axes).

    The identity is subtracted from the diagonal of u u^dagger in place,
    through a view of the C-ordered product with one row per matrix
    (``reshape``, not the slower ``flat`` iterator).
    """
    d = u.shape[-1]
    gram = u @ u.conj().swapaxes(-1, -2)
    gram.reshape(-1, d * d)[:, :: d + 1] -= 1
    err = _max_abs(gram)
    if not err <= UNITARITY_TOL:
        raise ValueError(
            f"{what} is not unitary: max |u u^dagger - I| = {err:.3e} exceeds {UNITARITY_TOL:.0e}"
        )


def _su2_exp(h: np.ndarray, t: float) -> np.ndarray:
    """exp(-i h t) of a 2 x 2 Hermitian ``h`` in closed form, on Python scalars.

    With a = (h00 + h11)/2, d = (h00 - h11)/2, b = h01 and
    r = hypot(d, |b|), h - a I = r n.sigma for a unit axis n, so
    exp(-i h t) = e^{-i a t} [cos(r t) I - i (sin(r t)/r) (h - a I)],
    where sin(r t)/r is t at r = 0. The lower-left entry uses conj(b),
    so the result is a phase times an exact SU(2) form. ``hypot`` keeps
    r to an ulp where sqrt(d^2 + |b|^2) rounds |b|^2 against d^2: on the
    second segment of ``pythagorean_pulse(10**8 + 1, 1, 0.5)`` the sqrt
    form was 2.45e-8 off a 50-digit reference, eigh and hypot 5.3e-9,
    and on all 16 segments of the eight large-c pulses measured hypot
    matched or beat eigh. A non-finite a t or r t gives NaN entries,
    which :func:`require_unitary` then reports.
    """
    (h00, b), (_, h11) = h.tolist()
    a, d = (h00.real + h11.real) / 2, (h00.real - h11.real) / 2
    r = math.hypot(d, abs(b))
    at, rt = a * t, r * t
    if not (math.isfinite(at) and math.isfinite(rt)):
        return np.full((2, 2), math.nan, dtype=complex)
    cos_rt, sinc_t = math.cos(rt), (math.sin(rt) / r if r else t)
    phase = complex(math.cos(at), -math.sin(at))
    off = -1j * sinc_t * phase
    return np.array([
        [phase * complex(cos_rt, -sinc_t * d), off * b],
        [off * b.conjugate(), phase * complex(cos_rt, sinc_t * d)],
    ])


def matexp_unitary(h: np.ndarray, t: float) -> np.ndarray:
    """Return ``exp(-i h t)`` for Hermitian ``h`` (hbar = 1).

    ``h`` must pass :func:`require_hermitian` and the result
    :func:`require_unitary`, whatever the shape. A 2 x 2 ``h`` takes
    the closed form of :func:`_su2_exp`, a few scalar operations. A
    larger ``h`` is diagonalized and its (real) eigenvalues
    exponentiated, so the result is unitary to eigendecomposition
    accuracy. The eigensolver follows the dtype of ``h``: a real
    symmetric ``h`` takes the real solver, several times faster than
    the complex one at the same size, and a complex Hermitian ``h`` the
    complex solver. The result is complex either way.
    """
    h = np.asarray(h)
    require_hermitian(h, "generator")
    if h.shape == (2, 2):
        u = _su2_exp(h, t)
    else:
        evals, evecs = np.linalg.eigh(h)
        u = (evecs * np.exp(-1j * evals * t)) @ evecs.conj().T
    require_unitary(u, "propagator")
    return u


def complete_orthogonal(rows: list[np.ndarray] | tuple[np.ndarray, ...], at: Sequence[int] | None = None) -> np.ndarray:
    """Complete real orthonormal rows to a full real orthogonal matrix.

    The given k rows appear unchanged at rows ``at`` of the result, by
    default the first k rows. The other rows, in order, are the trailing
    columns k, k + 1, ... of the complete QR factor Q of the dim-by-k
    seed block ``seeds^T``, an orthonormal basis of the seeds'
    complement. Each is sign-fixed so its first nonzero entry is
    positive, which makes the completion deterministic.

    Every Householder vector of that QR lies on S, the union of the
    seeds' support and the coordinates 0, ..., k - 1, so Q - I lives on
    S x S. Only the |S|-by-k block ``seeds[:, S]^T`` is factorized, and
    each column of Q outside S is a unit vector, already of sign +1, and
    is written as one entry. For the seeds of
    :func:`pythcpt.frames.general_even_frame` the result equals the
    full-size factorization's (``tests/dense_oracle.py``) entry for
    entry; for other seeds the two agree to rounding, because the BLAS
    kernels may sum the products on S in another order.
    """
    if not rows:
        raise ValueError("at least one seed row is required")
    seed = np.array([np.asarray(r).reshape(-1) for r in rows])
    if np.iscomplexobj(seed) and not np.max(np.abs(seed.imag)) <= ORTHONORMALITY_TOL:
        raise ValueError("seed rows must be real")
    seed = seed.real.astype(float)
    k, dim = seed.shape
    at = list(range(k)) if at is None else list(at)
    if len(at) != k or len(set(at)) != k or not all(0 <= r < dim for r in at):
        raise ValueError(f"at must name {k} distinct rows of 0..{dim - 1}, got {at}")
    gram = seed @ seed.T
    gram.ravel()[:: k + 1] -= 1
    gram_err = _max_abs(gram)
    if not gram_err <= ORTHONORMALITY_TOL:
        raise ValueError(
            f"seed rows are not orthonormal within {ORTHONORMALITY_TOL:.1e} "
            f"(max Gram deviation {gram_err:.3e})"
        )
    on_s = seed.any(axis=0)
    on_s[:k] = True
    support = on_s.nonzero()[0]
    q, _ = np.linalg.qr(seed.take(support, axis=1).T, mode="complete")
    rest = q[:, k:].T
    first = np.argmax(np.abs(rest) > COMPLETION_NONZERO, axis=1)
    rest *= np.sign(rest[np.arange(len(rest)), first])[:, None]
    free = np.ones(dim, dtype=bool)
    free[at] = False
    free = free.nonzero()[0]  # row free[c - k] of the result is column c of Q
    out = np.zeros((dim, dim))
    out[free, np.arange(k, dim)] = 1.0
    out[at] = seed
    out[free[support[k:] - k, None], support] = rest
    return out
