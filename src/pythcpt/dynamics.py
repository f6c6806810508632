"""Tensor-product and lab-frame Hamiltonians, propagators, population
dynamics, and transfer certification.

The two-factor Hamiltonian is h1 (x) I + I (x) h2 with each factor
2*Delta*J3 + 2*Omega*J1 in the spin-(n-1)/2 representation;
:func:`lab_hamiltonian` conjugates it with the lab frame W of
:func:`pythcpt.frames.lab_frame`, giving the sparse lab-frame form whose
nearest-neighbour couplings are the V's of :func:`pythcpt.triples.lab_couplings`.
:func:`simulate_lab` is the one evolution of lab state 1: the CLI
``simulate`` traces, the suite's 16-level check and
:func:`forbidden_scan` all read its populations.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .frames import lab_frame
from .linalg import kron, matexp_unitary, require_hermitian, require_normalized, vectorize
from .su2 import spin_generators, y_matrix
from .triples import CouplingParams

CPT_TOL = 1e-9
# sampled populations of lab states 2 and 4 must stay below this
FORBIDDEN_MAX_POP = 1.0 - 1e-6


@dataclass(frozen=True)
class SystemSpec:
    """A coupled pair of n-level factors; the lab frame is ``lab_frame(n)``."""

    n: int
    params: CouplingParams

    def __post_init__(self):
        if self.n < 2:
            raise ValueError(f"n must be >= 2, got {self.n}")


@dataclass(frozen=True)
class SimulationResult:
    """Population traces on a time grid.

    ``populations[t, i]`` is |<e_{i+1}|psi(t)>|^2 at ``times[t]``.
    """

    times: np.ndarray
    populations: np.ndarray


@dataclass(frozen=True)
class CptCertificate:
    """Transfer fidelity between lab states 1 and n^2-n+1 at t = tau."""

    n: int
    target_index: int
    tau: float
    fidelity: float
    tp_overlap: float
    phase: complex
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.fidelity >= 1.0 - self.tolerance


@dataclass(frozen=True)
class ForbiddenScanReport:
    """Maximum populations of the unreachable two-level lab states."""

    max_pop_2: float
    max_pop_4: float
    n_points: int
    t_max: float
    threshold: float

    @property
    def passed(self) -> bool:
        return self.max_pop_2 < self.threshold and self.max_pop_4 < self.threshold


@dataclass(frozen=True)
class CouplingGraph:
    """Undirected weighted edges of a Hamiltonian's off-diagonal pattern."""

    edges: tuple[tuple[int, int, float], ...]  # 1-based (i, j, weight), i < j
    diagonal: np.ndarray


def build_h_single(n: int, delta: float, omega: float) -> np.ndarray:
    """Single-factor Hamiltonian 2*delta*J3 + 2*omega*J1 (dim n).

    For n = 2 this is delta*sigma_z + omega*sigma_x.
    """
    rep = spin_generators(n)
    return 2.0 * delta * rep.J3 + 2.0 * omega * rep.J1


def build_h_tp(n: int, params: CouplingParams) -> np.ndarray:
    """Two-factor Hamiltonian h1 (x) I + I (x) h2 in the product basis."""
    h1 = build_h_single(n, params.delta1, params.omega1)
    h2 = build_h_single(n, params.delta2, params.omega2)
    eye = np.eye(n)
    return kron(h1, eye) + kron(eye, h2)


def lab_hamiltonian(spec: SystemSpec) -> np.ndarray:
    """Two-factor Hamiltonian in the lab frame: W h_tp W^T with W = lab_frame(n)."""
    w = lab_frame(spec.n)
    return w @ build_h_tp(spec.n, spec.params) @ w.T


def simulate(h: np.ndarray, psi0: np.ndarray, times: np.ndarray) -> SimulationResult:
    """Populations |<e_i|exp(-i h t)|psi0>|^2 on a time grid.

    The Hamiltonian is diagonalized once and all grid points are
    evaluated from the spectral form, so the cost is one
    eigendecomposition plus two small matrix products.
    """
    psi0 = require_normalized(psi0, "psi0")
    require_hermitian(h, "Hamiltonian")
    times = np.atleast_1d(np.asarray(times, dtype=float))
    evals, evecs = np.linalg.eigh(np.asarray(h, dtype=complex))
    coeffs = evecs.conj().T @ psi0
    phases = np.exp(-1j * np.outer(times, evals))  # (T, d)
    waves = (phases * coeffs) @ evecs.T  # (T, d), component i of psi(t)
    return SimulationResult(times=times, populations=np.abs(waves) ** 2)


def simulate_lab(spec: SystemSpec, t_max_tau: float, steps: int) -> SimulationResult:
    """Lab-frame populations from state 1 on a uniform grid of [0, t_max_tau * tau].

    The grid has ``steps + 1`` points, endpoints included; the result's
    times are in units of tau = ``spec.params.tau``.
    """
    if steps < 0:
        raise ValueError(f"steps must be non-negative, got {steps}")
    if t_max_tau < 0:
        raise ValueError(f"t_max must be non-negative, got {t_max_tau}")
    grid_tau = np.linspace(0.0, t_max_tau, steps + 1)
    psi0 = np.zeros(spec.n * spec.n)
    psi0[0] = 1.0
    result = simulate(lab_hamiltonian(spec), psi0, grid_tau * spec.params.tau)
    return SimulationResult(times=grid_tau, populations=result.populations)


def verify_cpt(spec: SystemSpec, tol: float = CPT_TOL) -> CptCertificate:
    """Certify the transfer from lab state 1 to state n^2-n+1 at t = tau.

    Reports the lab-frame fidelity, the equivalent product-frame
    overlap |<V(Y)/sqrt(n)| U(tau) |V(I)/sqrt(n)>|, and the measured
    global phase of the transfer amplitude.
    """
    n = spec.n
    tau = spec.params.tau
    w = lab_frame(n)
    u_tp = matexp_unitary(build_h_tp(n, spec.params), tau)
    target = n * n - n  # 0-based
    amp = w[target] @ u_tp @ w[0]  # (W U W^T)[target, 0] without forming W U W^T
    vi = vectorize(np.eye(n)) / np.sqrt(n)
    vy = vectorize(y_matrix(n)) / np.sqrt(n)
    tp_overlap = abs(np.vdot(vy, u_tp @ vi))
    return CptCertificate(
        n=n,
        target_index=target + 1,
        tau=tau,
        fidelity=float(abs(amp) ** 2),
        tp_overlap=float(tp_overlap),
        phase=complex(amp),
        tolerance=tol,
    )


def forbidden_scan(spec: SystemSpec) -> ForbiddenScanReport:
    """Scan for population of lab states 2 and 4 in the two-level system.

    Starting from state 1 those populations stay strictly below one;
    the report holds their sampled maxima over 10^4 grid points on
    [0, 20*tau].
    """
    if spec.n != 2:
        raise ValueError(f"forbidden state scan applies to n=2 only, got n={spec.n}")
    result = simulate_lab(spec, 20.0, 9_999)
    return ForbiddenScanReport(
        max_pop_2=float(np.max(result.populations[:, 1])),
        max_pop_4=float(np.max(result.populations[:, 3])),
        n_points=len(result.times),
        t_max=20.0 * spec.params.tau,
        threshold=FORBIDDEN_MAX_POP,
    )


def coupling_graph(h_lab: np.ndarray) -> CouplingGraph:
    """Undirected edge list of a Hermitian Hamiltonian's couplings.

    Entries up to 1e-10 times the largest entry magnitude count as
    zero. Indices are 1-based to match the usual state labelling.
    """
    h_lab = np.asarray(h_lab)
    require_hermitian(h_lab, "Hamiltonian")
    tol = 1e-10 * float(np.max(np.abs(h_lab))) if h_lab.size else 0.0
    rows, cols = np.nonzero(np.triu(np.abs(h_lab) > tol, k=1))  # row-major order
    weights = np.real(h_lab[rows, cols]).astype(float)
    edges = tuple(zip((rows + 1).tolist(), (cols + 1).tolist(), weights.tolist()))
    return CouplingGraph(edges=edges, diagonal=np.real(np.diag(h_lab)).copy())
