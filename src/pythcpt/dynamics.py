"""Tensor-product and lab-frame Hamiltonians, propagators, population
dynamics, and transfer certification.

The two-factor Hamiltonian is h1 (x) I + I (x) h2 with each factor
2*Delta*J3 + 2*Omega*J1 in the spin-(n-1)/2 representation;
:func:`lab_hamiltonian` conjugates it with the lab frame W of
:func:`pythcpt.frames.lab_frame`, giving the sparse lab-frame form whose
nearest-neighbour couplings are the V's of :func:`pythcpt.triples.lab_couplings`.
:func:`simulate_lab` is the one evolution of lab state 1: the CLI
``simulate`` traces, the suite's 16-level check and
:func:`forbidden_scan` all read its populations. It evolves through
:func:`simulate`, which never forms the n^2 x n^2 Hamiltonian: the
propagator is u1(t) (x) u2(t), so two n x n ``eigh`` calls and 2n real
sin/cos per time point replace one n^2 x n^2 ``eigh`` and n^2 complex
exponentials per point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .frames import lab_frame
from .linalg import kron, matexp_unitary, require_hermitian, vectorize
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


def _rows_times_kron(x: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``x @ kron(a, b)`` without forming the Kronecker product.

    Row r of the result is the row-major vec of a^T X_r b, where X_r is
    row r of x reshaped to n x n, so the cost is O(n^5), not O(n^6).
    """
    n = len(a)
    return (a.T @ x.reshape(-1, n, n) @ b).reshape(len(x), -1)


def _phase_map(n: int) -> np.ndarray:
    """K with exp(-i mu_k theta) = (K f(theta))_k for the ascending spin ladder.

    mu_k = 2k - n + 1 (even n), and f(theta) = (cos(h theta), sin(h theta))
    over the harmonics h = 1, 3, ..., n - 1; each row of K holds a 1 on
    the cosine and -i sign(mu_k) on the sine of harmonic |mu_k|.
    """
    mu = 2 * np.arange(n) - n + 1
    harmonic = np.abs(mu) // 2
    k = np.zeros((n, n), dtype=complex)
    k[np.arange(n), harmonic] = 1.0
    k[np.arange(n), n // 2 + harmonic] = -1j * np.sign(mu)
    return k


def _features(n: int, omega: float, times: np.ndarray) -> np.ndarray:
    """(cos, sin) of the harmonics h * omega * t, h = 1, 3, ..., n - 1, as (n, T)."""
    angles = np.outer(np.arange(1, n, 2), omega * times)
    return np.concatenate((np.cos(angles), np.sin(angles)))


def simulate(spec: SystemSpec, times: np.ndarray) -> SimulationResult:
    """Lab-frame populations from lab state 1 at the absolute ``times``.

    The propagator is u1(t) (x) u2(t), and each real factor
    h_i = 2 Delta_i J3 + 2 Omega_i J1 has the spin ladder
    omega_i (2k - n + 1), omega_i = hypot(Delta_i, Omega_i), as its
    spectrum. So each factor is diagonalized once (two n x n ``eigh``
    calls), E = W kron(V1, V2) is real orthogonal with lab state 1 at
    coefficients E[0], and psi(t) = M phi(t) with the constant
    M = E diag(E[0]) kron(K, K) (K from :func:`_phase_map`) and the real
    features phi(t) = f1(t) (x) f2(t) of :func:`_features`. Per time
    point that is 2n real sin/cos, n^2 products and two real
    matrix-vector products; no n^2 x n^2 Hamiltonian is formed.
    """
    n, p = spec.n, spec.params
    w = lab_frame(n)
    times = np.atleast_1d(np.asarray(times, dtype=float))
    drives = ((p.delta1, p.omega1), (p.delta2, p.omega2))
    omegas = [float(np.hypot(delta, omega)) for delta, omega in drives]
    t_abs = float(np.max(np.abs(times), initial=0.0))
    # Python floats overflow to inf without a warning, so this raises before numpy sees the product
    if not all(math.isfinite((n - 1) * omega * t_abs) for omega in omegas):
        raise ValueError(f"factor phase (n - 1) * omega * |t| is not finite at |t| = {t_abs!r}")
    v1, v2 = (np.linalg.eigh(build_h_single(n, delta, omega))[1] for delta, omega in drives)
    f1, f2 = (_features(n, omega, times) for omega in omegas)
    e = _rows_times_kron(w, v1, v2)
    k = _phase_map(n)
    m = _rows_times_kron(e * e[0], k, k)
    phi = (f1[:, None, :] * f2[None, :, :]).reshape(n * n, len(times))
    waves = np.concatenate((m.real, m.imag)) @ phi  # (2 n^2, T): Re psi(t) over Im psi(t)
    waves *= waves
    return SimulationResult(times=times, populations=(waves[: n * n] + waves[n * n :]).T)


def simulate_lab(spec: SystemSpec, t_max_tau: float, steps: int) -> SimulationResult:
    """Lab-frame populations from state 1 on a uniform grid of [0, t_max_tau * tau].

    The grid has ``steps + 1`` points, endpoints included; the result's
    times are in units of tau = ``spec.params.tau``.
    """
    if steps < 0:
        raise ValueError(f"steps must be non-negative, got {steps}")
    if not (math.isfinite(t_max_tau) and t_max_tau >= 0):
        raise ValueError(f"t_max must be finite and non-negative, got {t_max_tau}")
    grid_tau = np.linspace(0.0, t_max_tau, steps + 1)
    result = simulate(spec, grid_tau * spec.params.tau)
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

    The maxima are samples, not bounds. The factor angles advance by
    pi*q/2 and pi*p/2 per tau, so one grid step spans about (p + q)/1000
    periods of the fastest population oscillation. For large c (p ~ 1e8
    to 1e9, c ~ 5e15 to 5e17) that is 10^5 to 10^6 periods: the maxima
    there are aliased samples, and rounding the grid differently moves
    them by up to 2e-7 at p = 10^8 + 1. See ROADMAP items 3 (exact triple
    angles, which take c out of the phases) and 4 (a closed-form bound).
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
