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
HERMITICITY_TOL, since its scale is at least 1. The residuals are the
same floats as ``np.max(np.abs(u @ u.conj().T - np.eye(d)))`` and
``np.max(np.abs(h - h.conj().T))``. On a 2 x 2 input the Hermitian gate
takes 3 us instead of 7.4 and the unitary gate 4.5 to 5.8 us instead of
6.1 to 8.4 (best of 9 in-process repeats, one BLAS thread, 2-CPU x86-64
Xeon); in a traced ``triple_sweep`` pass of 1024 items the gates' own
time fell from 154 to 95 ms.

Two functions evolve by a Hermitian generator. ``matexp_unitary``
returns the whole propagator exp(-i h t), chosen by shape: a 2 x 2 h
(every two-level segment, as in the sweep's pulses) takes the SU(2)
closed form e^{-i a t} [cos(r t) I - i (sin(r t)/r) (h - a I)] on
Python scalars, with a the mean of the diagonal and r = hypot of the
half-difference and |h01|; a larger h (the lifted spin-(n-1)/2
generators) keeps ``eigh``. Either way ``require_hermitian`` runs
before and ``require_unitary`` after. ``chiral_amplitude`` returns
one element <bra| exp(-i h t) |ket> of a generator h that a signed
reversal C anticommutes with, between states C fixes: sin(h t) swaps
C's two sectors, so the element is <bra| cos(h t) |ket>, read from one
SVD of the (d/2) x (d/2) block of h between the sectors. It forms no
propagator and runs no d x d eigensolver; its gates are
``require_hermitian`` on h, the chirality residual max|h + C h C|
(CHIRALITY_TOL, relative as for Hermiticity), both states in the +1
sector (SECTOR_TOL), ``require_unitary`` on the singular basis, and a
finite sigma_max t (a NaN or infinite t raises "propagator is not
unitary"). The full spectral element of any Hermitian h is a test
oracle (``tests/dense_oracle.py``), not library code.

All functions are pure and operate on plain numpy arrays. Matrices are
2-d ``ndarray``s, vectors 1-d. Everything here is exact up to rounding
of the closed form, eigendecomposition or SVD error, which is why
propagators are computed that way rather than by series or Pade
methods. The closed form is within 8 eps max(1, ||h|| |t|) of the
complex ``eigh`` propagator for ||h|| |t| up to 1e9 (a tier-1 property
test). Of that distance ``eigh`` carries most: in the five of 60,000
random cases where the two differed most, a 50-digit reference put the
closed form within 0.34 and ``eigh`` within 7.45 eps max(1, ||h|| |t|).
"""

from __future__ import annotations

import math

import numpy as np

from .tolerances import (
    CHIRALITY_TOL,
    COMPLETION_NONZERO,
    HERMITICITY_TOL,
    NORMALIZATION_TOL,
    ORTHONORMALITY_TOL,
    SECTOR_TOL,
    UNITARITY_TOL,
)


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


def hermiticity_deviation(h: np.ndarray) -> float:
    """Max elementwise deviation |h - h^dagger|."""
    h = np.asarray(h)
    return float(np.abs(h - h.conj().T).max()) if h.size else 0.0


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
    """Raise unless max|u u^dagger - I| <= UNITARITY_TOL.

    The identity is subtracted from the diagonal of u u^dagger in place.
    """
    gram = u @ u.conj().T
    gram.flat[:: len(gram) + 1] -= 1
    err = float(np.abs(gram).max())
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


def chiral_amplitude(h: np.ndarray, t: float, signs: np.ndarray, bra: np.ndarray, ket: np.ndarray):
    """Return ``<bra| exp(-i h t) |ket>`` for a generator ``h`` that a signed reversal C anticommutes with.

    C acts as (C v)[x] = signs[x] v[d - 1 - x] in even dimension d, with
    ``signs`` of +-1 and signs[x] = signs[d - 1 - x], so C is a symmetric
    involution; ``bra`` and ``ket`` must lie in its +1 sector. Then
    sin(h t) maps that sector to the -1 sector and drops out, and the
    element is <bra| cos(h t) |ket>. On the +1 basis
    (e_x + signs[x] e_{d-1-x})/sqrt(2), x < d/2, a sector vector v has
    coordinates sqrt(2) v[:d/2], and h^2 there is B B^dagger, with
    B = h[:d/2, :d/2] - h[:d/2, ::-1][:, :d/2] signs[:d/2] the
    (d/2) x (d/2) block of h from the -1 to the +1 sector. One SVD B = U Sigma V^dagger gives
    cos(h t) = U cos(Sigma t) U^dagger there, so the element is
    2 bra[:d/2]^dagger U cos(Sigma t) U^dagger ket[:d/2], real when h and
    the states are. The SVD reads B itself; the eigenvalues of B B^T
    would square it and lose ||B t||^2 to rounding at large t.

    Gates: ``h`` must pass :func:`require_hermitian`; max|h + C h C| must
    be within CHIRALITY_TOL * max(1, max|h|), max|h| read only when the
    residual exceeds CHIRALITY_TOL; the 2-norm ||v - C v|| of ``bra`` and
    ``ket`` within SECTOR_TOL; U must pass :func:`require_unitary`; and
    sigma_max * t must be finite, else "propagator is not unitary", as
    for :func:`matexp_unitary`.
    """
    h = np.asarray(h)
    require_hermitian(h, "generator")
    half = len(h) // 2
    top = h[:half]
    # row x >= d/2 of h + C h C is row d - 1 - x reversed and signed, so the top half holds every residual
    residual = h[::-1, ::-1][:half] * signs
    residual *= signs[:half, None]
    residual += top
    dev = float(np.abs(residual).max())
    if not dev <= CHIRALITY_TOL:
        scale = max(1.0, float(np.abs(h).max()))
        if not dev <= CHIRALITY_TOL * scale:
            raise ValueError(
                f"generator does not anticommute with C: max |h + C h C| = {dev:.3e} "
                f"exceeds {CHIRALITY_TOL:.0e} * max(1, max|h|) = {CHIRALITY_TOL * scale:.3e}"
            )
    for what, v in (("bra", bra), ("ket", ket)):
        odd = v - signs * v[::-1]
        err = math.sqrt(np.vdot(odd, odd).real)
        if not err <= SECTOR_TOL:
            raise ValueError(f"{what} is not in the +1 sector of C: ||v - C v|| = {err:.3e} exceeds {SECTOR_TOL:.0e}")
    u, sigma, _ = np.linalg.svd(top[:, :half] - top[:, ::-1][:, :half] * signs[:half])
    require_unitary(u, "eigenbasis")
    # Python floats overflow to inf without a warning, and every sigma_k t is at most this one
    if not math.isfinite(float(sigma[0]) * t):
        raise ValueError(f"propagator is not unitary: sigma_max * t is not finite at t = {t!r}")
    # the conj() method returns a real array itself, where np.conj copies it
    return 2.0 * ((bra[:half].conj() @ u) * np.cos(sigma * t)) @ (ket[:half] @ u.conj())


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
    first = np.argmax(np.abs(rest) > COMPLETION_NONZERO, axis=1)
    rest = rest * np.sign(rest[np.arange(dim - k), first])[:, None]
    return np.vstack([seed, rest])
