"""Dense reference evolution for the tests.

:func:`dense_simulate` diagonalizes a full Hamiltonian and evaluates
exp(-i h t) psi0 from its spectral form. The library's factorized
``dynamics.simulate`` is checked against it. :func:`dense_propagator`
is exp(-i h t) from the complex Hermitian eigensolver whatever the
dtype of h, the reference for ``linalg.matexp_unitary``, which takes
the real solver for real symmetric h.
"""

import numpy as np

from pythcpt.dynamics import SimulationResult
from pythcpt.linalg import require_hermitian, require_normalized


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
