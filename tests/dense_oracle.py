"""Dense reference evolution for the tests.

:func:`dense_simulate` diagonalizes a full Hamiltonian and evaluates
exp(-i h t) psi0 from its spectral form. The library's factorized
``dynamics.simulate`` is checked against it. :func:`dense_propagator`
is exp(-i h t) from the complex Hermitian eigensolver whatever the
dtype of h, the reference for ``linalg.matexp_unitary``, which takes
the real solver for real symmetric h. :func:`propagator_elements`
reads chosen elements <bra| exp(-i h t) |ket> of any Hermitian h from
its spectral decomposition, the reference for
``linalg.chiral_amplitude``, which reads one element from half the
spectrum.
"""

import numpy as np

from pythcpt.dynamics import SimulationResult
from pythcpt.linalg import require_hermitian, require_normalized, require_unitary
from pythcpt.tolerances import UNITARITY_TOL


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
