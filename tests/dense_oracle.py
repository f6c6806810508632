"""Dense reference evolution for the tests.

:func:`dense_simulate` diagonalizes a full Hamiltonian and evaluates
exp(-i h t) psi0 from its spectral form. The library's factorized
``dynamics.simulate`` is checked against it. :func:`dense_propagator`
is exp(-i h t) from the complex Hermitian eigensolver whatever the
dtype of h, the reference for ``linalg.matexp_unitary``, which takes
the real solver for real symmetric h. :func:`propagator_elements`
reads chosen elements <bra| exp(-i h t) |ket> of any Hermitian h from
its spectral decomposition. :func:`chiral_amplitude` reads one such
element from one SVD of a half-size block, for a generator that a
signed reversal anticommutes with; the two are independent references
for ``dynamics.verify_cpt``, which reads its element from the two n x n
factors of ``build_h_tp``. :func:`dense_pulse_propagator` exponentiates
the n x n segments of a lifted Pythagorean pulse, the reference for
``su2.lift`` of its 2 x 2 product.

Two builders keep their dense form here. :func:`dense_h_tp` is the
Kronecker sum h1 (x) I + I (x) h2 from two ``kron`` products, the
reference for ``dynamics.build_h_tp``, which writes the two terms into
one array. :func:`dense_complete_orthogonal` factorizes the whole
dim-by-k seed block, the reference for ``linalg.complete_orthogonal``,
which factorizes only the seeds' support, and :func:`dense_even_frame`
reorders its rows into ``frames.general_even_frame``'s.
"""

import math

import numpy as np

from pythcpt.dynamics import SimulationResult, build_h_single
from pythcpt.linalg import kron, matexp_unitary, require_hermitian, require_normalized, require_unitary, vectorize
from pythcpt.su2 import y_matrix
from pythcpt.tolerances import CHIRALITY_TOL, COMPLETION_NONZERO, SECTOR_TOL, UNITARITY_TOL
from pythcpt.triples import CouplingParams, params_from_pair


def dense_h_tp(n: int, params: CouplingParams) -> np.ndarray:
    """h1 (x) I + I (x) h2 as the sum of two n^2 x n^2 Kronecker products."""
    h1 = build_h_single(n, params.delta1, params.omega1)
    h2 = build_h_single(n, params.delta2, params.omega2)
    eye = np.eye(n)
    return kron(h1, eye) + kron(eye, h2)


def dense_complete_orthogonal(rows) -> np.ndarray:
    """The seed rows, then the trailing columns of one complete QR of the dim-by-k ``seeds^T``, sign-fixed.

    Each appended row is multiplied by the sign of its first entry above
    COMPLETION_NONZERO, as the library does.
    """
    seed = np.vstack([np.asarray(r, dtype=float).reshape(-1) for r in rows])
    k, dim = seed.shape
    q, _ = np.linalg.qr(seed.T, mode="complete")
    rest = q[:, k:].T
    first = np.argmax(np.abs(rest) > COMPLETION_NONZERO, axis=1)
    rest = rest * np.sign(rest[np.arange(dim - k), first])[:, None]
    return np.vstack([seed, rest])


def dense_even_frame(n: int) -> np.ndarray:
    """``frames.general_even_frame(n)`` from :func:`dense_complete_orthogonal`: V(I) to row 0, V(Y) to row n^2 - n."""
    q = dense_complete_orthogonal([vectorize(np.eye(n)) / np.sqrt(n), vectorize(y_matrix(n).T) / np.sqrt(n)])
    target = n * n - n
    return np.vstack([q[:1], q[2:target + 1], q[1:2], q[target + 1:]])


def dense_simulate(h: np.ndarray, psi0: np.ndarray, times: np.ndarray) -> SimulationResult:
    """Populations |<e_i|exp(-i h t)|psi0>|^2 at the ``times``, from one dense ``eigh``."""
    psi0 = require_normalized(psi0, "psi0")
    require_hermitian(h, "Hamiltonian")
    times = np.atleast_1d(np.asarray(times, dtype=float))
    evals, evecs = np.linalg.eigh(np.asarray(h, dtype=complex))
    coeffs = evecs.conj().T @ psi0
    phases = np.exp(-1j * np.outer(times, evals))  # (T, d)
    waves = (phases * coeffs) @ evecs.T  # (T, d), component i of psi(t)
    return SimulationResult(times=times, populations=np.abs(waves) ** 2)


def dense_propagator(h: np.ndarray, t: float) -> np.ndarray:
    """exp(-i h t) from one complex ``eigh`` of ``h`` cast to complex128."""
    require_hermitian(h, "Hamiltonian")
    evals, evecs = np.linalg.eigh(np.asarray(h, dtype=complex))
    return (evecs * np.exp(-1j * evals * t)) @ evecs.conj().T


def propagator_elements(h: np.ndarray, t: float, bras: np.ndarray, kets: np.ndarray) -> np.ndarray:
    """Return ``<bras[i]| exp(-i h t) |kets[i]>`` for each row pair i.

    ``bras`` and ``kets`` hold one vector per row, and bras are
    conjugated; a single bra and ket give a single element. With
    h = V diag(lambda) V^dagger the
    elements are sum_j (bra^dagger V)_j exp(-i lambda_j t) (V^dagger ket)_j,
    from one ``eigh`` and two thin products: the propagator is never
    formed, so no d x d reconstruction runs. The gates stand in for the
    unitarity check of ``matexp_unitary``: ``h`` must pass
    ``require_hermitian``, the eigenbasis ``require_unitary``,
    and every phase must have unit modulus to UNITARITY_TOL.
    """
    h = np.asarray(h)
    require_hermitian(h, "generator")
    evals, evecs = np.linalg.eigh(h)
    require_unitary(evecs, "eigenbasis")
    with np.errstate(invalid="ignore", over="ignore"):  # a non-finite t is reported by the gate below
        phases = np.exp(-1j * evals * t)
        err = float(np.abs(np.abs(phases) - 1.0).max())
    if not err <= UNITARITY_TOL:
        raise ValueError(
            f"propagator is not unitary: max ||exp(-i lambda t)| - 1| = {err:.3e} "
            f"exceeds {UNITARITY_TOL:.0e} at t = {t!r}"
        )
    # the conj() method returns a real array itself, where np.conj copies it
    left = np.asarray(bras).conj() @ evecs  # row i: bra_i^dagger V
    right = (np.asarray(kets).conj() @ evecs).conj()  # row i: (V^dagger ket_i)^T
    return (left * right) @ phases


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
    block = top[:, ::-1][:, :half] * signs[:half]
    u, sigma, _ = np.linalg.svd(np.subtract(top[:, :half], block, out=block))
    require_unitary(u, "eigenbasis")
    # Python floats overflow to inf without a warning, and every sigma_k t is at most this one
    if not math.isfinite(float(sigma[0]) * t):
        raise ValueError(f"propagator is not unitary: sigma_max * t is not finite at t = {t!r}")
    # the conj() method returns a real array itself, where np.conj copies it
    return 2.0 * ((bra[:half].conj() @ u) * np.cos(sigma * t)) @ (ket[:half] @ u.conj())


def c_signs(n: int) -> np.ndarray:
    """The signs of C = Y_n (x) Y_n as the signed reversal of :func:`chiral_amplitude`: (C v)[x] = signs[x] v[-1 - x]."""
    return np.fliplr(kron(y_matrix(n), y_matrix(n))).diagonal().copy()


def dense_pulse_propagator(p: int, q: int, k: float, n: int, t: float) -> np.ndarray:
    """U(t, 0) of ``retrograde.pythagorean_pulse(p, q, k, n)`` from its dense n x n segments, 0 <= t <= T.

    Each segment is ``build_h_single(n, ...)`` exponentiated by
    ``matexp_unitary`` over its part of [0, t], and the parts are
    multiplied in order, the reference for the pulse's lifted 2 x 2
    product.
    """
    params = params_from_pair(p, q, k)
    tau = params.tau
    u = matexp_unitary(build_h_single(n, params.delta1, params.omega1), min(t, tau))
    if t > tau:
        u = matexp_unitary(-build_h_single(n, params.delta2, params.omega2), t - tau) @ u
    return u
