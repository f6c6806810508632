"""Tensor-product and lab-frame Hamiltonians, propagators, population
dynamics, and transfer certification.

The two-factor Hamiltonian is h1 (x) I + I (x) h2 with each factor
2*Delta*J3 + 2*Omega*J1 in the spin-(n-1)/2 representation;
:func:`lab_hamiltonian` conjugates it with the lab frame W of
:func:`pythcpt.frames.lab_frame`, giving the sparse lab-frame form whose
nearest-neighbour couplings are the V's of :func:`pythcpt.triples.lab_couplings`.
:func:`simulate` is the one evolution of lab state 1, on a uniform grid
in units of tau: the CLI ``simulate`` traces, the suite's 16-level
check and :func:`forbidden_scan` all read its populations. It never
forms the n^2 x n^2 Hamiltonian: the propagator is u1(t) (x) u2(t), so
two n x n ``eigh`` calls replace one n^2 x n^2 ``eigh``, and the phases
of all T grid points come from two small tables per factor, about
2n sqrt(T) complex exponentials in all, where the dense evolution takes
n^2 complex exponentials per point. The populations come from two real
GEMMs, one for Re psi and one for Im psi, each squared in place: no
(2 n^2, T) array is formed, and the peak memory is about three times
the returned (T, n^2) populations. :func:`verify_cpt` still
diagonalizes the real n^2 x n^2 ``build_h_tp`` once, but reads its two
amplitudes straight from the spectral decomposition
(:func:`pythcpt.linalg.propagator_elements`), so it forms no n^2 x n^2
propagator and runs no n^2 x n^2 complex product.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .frames import lab_frame
from .linalg import kron, propagator_elements, require_hermitian, vectorize
from .su2 import SPIN_CACHE_SIZE, spin_generators, y_matrix
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
    """Population traces on a time grid in units of tau.

    ``populations[t, i]`` is |<e_{i+1}|psi(t)>|^2 at ``times[t] * tau``.
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


def require_tol(tol: float) -> None:
    """Raise ValueError unless a certification tolerance is a finite positive number."""
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError(f"tol must be a finite positive number, got {tol!r}")


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


@functools.lru_cache(maxsize=SPIN_CACHE_SIZE)
def _phase_map(n: int) -> np.ndarray:
    """K with exp(-i mu_k theta) = (K f(theta))_k for the ascending spin ladder.

    mu_k = 2k - n + 1 (even n), and f(theta) = (cos(h theta), sin(h theta))
    over the harmonics h = 1, 3, ..., n - 1; each row of K holds a 1 on
    the cosine and -i sign(mu_k) on the sine of harmonic |mu_k|. Built
    once per n; the returned array is read-only.
    """
    mu = 2 * np.arange(n) - n + 1
    harmonic = np.abs(mu) // 2
    k = np.zeros((n, n), dtype=complex)
    k[np.arange(n), harmonic] = 1.0
    k[np.arange(n), n // 2 + harmonic] = -1j * np.sign(mu)
    k.flags.writeable = False
    return k


def _features(n: int, omega: float, dt: float, points: int) -> np.ndarray:
    """exp(i h omega dt j) for the harmonics h = 1, 3, ..., n - 1 and j < points, as a complex (n/2, points) table.

    Its real and imaginary parts are the (cos, sin) features f of
    :func:`_phase_map`. With j = a * B + b and B = ceil(sqrt(points)),
    exp(i h omega dt j) is exp(i h omega dt B a) * exp(i h omega dt b): a
    coarse table over a and a fine table over b, about n * sqrt(points)
    complex exponentials in all, then one complex product per harmonic
    and point.
    """
    block = math.isqrt(points - 1) + 1
    rate = np.arange(1, n, 2)[:, None] * (omega * dt)
    coarse = np.exp(1j * rate * (block * np.arange(-(-points // block))))
    fine = np.exp(1j * rate * np.arange(block))
    return (coarse[:, :, None] * fine[:, None, :]).reshape(len(rate), -1)[:, :points]


def _feature_products(n: int, omegas: list[float], dt: float, points: int) -> np.ndarray:
    """phi(t) = f1(t) (x) f2(t) with f = (Re, Im) of each factor's :func:`_features` table, as (n^2, points).

    Each of the four (Re | Im) x (Re | Im) blocks is written straight
    into phi, so f is never stacked, and the two complex tables are
    freed when this returns.
    """
    half = n // 2
    phi = np.empty((2, half, 2, half, points))
    w1, w2 = (_features(n, omega, dt, points) for omega in omegas)
    for a, f1 in enumerate((w1.real, w1.imag)):
        for b, f2 in enumerate((w2.real, w2.imag)):
            np.multiply(f1[:, None], f2, out=phi[a, :, b])
    return phi.reshape(n * n, points)


def _squared_moduli(m: np.ndarray, phi: np.ndarray) -> np.ndarray:
    """|m @ phi|^2 for complex m and real phi, from two real GEMMs and no complex product.

    The square of the imaginary part is added in place into the square
    of the real part, so the peak is phi and two arrays of the result's
    shape.
    """
    out = m.real @ phi
    out *= out
    imag = m.imag @ phi
    imag *= imag
    out += imag
    return out


def simulate(spec: SystemSpec, t_max_tau: float, steps: int) -> SimulationResult:
    """Lab-frame populations from lab state 1 on a uniform grid of [0, t_max_tau * tau].

    tau = ``spec.params.tau``. The grid has ``steps + 1`` points,
    endpoints included; ``times`` of the result is
    ``linspace(0, t_max_tau, steps + 1)``, in units of tau.

    The propagator is u1(t) (x) u2(t), and each real factor
    h_i = 2 Delta_i J3 + 2 Omega_i J1 has the spin ladder
    omega_i (2k - n + 1), omega_i = hypot(Delta_i, Omega_i), as its
    spectrum. So each factor is diagonalized once (two n x n ``eigh``
    calls), E = W kron(V1, V2) is real orthogonal with lab state 1 at
    coefficients E[0], and psi(t) = M phi(t) with the constant
    M = E diag(E[0]) kron(K, K) (K from :func:`_phase_map`) and the real
    features phi(t) = f1(t) (x) f2(t). Because the grid is uniform, each
    factor's features come from two small phase tables
    (:func:`_features`), O(n sqrt(steps)) complex exponentials per
    factor. Per time point that leaves n complex products, n^2 real
    products and two real matrix-vector products, one for Re psi and
    one for Im psi (:func:`_squared_moduli`); no n^2 x n^2 Hamiltonian
    and no (2 n^2, T) array is formed, and the peak memory is about
    three times the returned populations.
    """
    if not (math.isfinite(t_max_tau) and t_max_tau >= 0):
        raise ValueError(f"t_max must be finite and non-negative, got {t_max_tau}")
    if steps < 0:
        raise ValueError(f"steps must be non-negative, got {steps}")
    n, p = spec.n, spec.params
    t_max = t_max_tau * p.tau
    w = lab_frame(n)
    drives = ((p.delta1, p.omega1), (p.delta2, p.omega2))
    omegas = [float(np.hypot(delta, omega)) for delta, omega in drives]
    # Python floats overflow to inf without a warning, so this raises before numpy sees the product
    if not all(math.isfinite((n - 1) * omega * t_max) for omega in omegas):
        raise ValueError(f"factor phase (n - 1) * omega * |t| is not finite at |t| = {t_max!r}")
    points = steps + 1
    dt = t_max / max(steps, 1)
    v1, v2 = (np.linalg.eigh(build_h_single(n, delta, omega))[1] for delta, omega in drives)
    e = _rows_times_kron(w, v1, v2)
    k = _phase_map(n)
    m = _rows_times_kron(e * e[0], k, k)
    populations = _squared_moduli(m, _feature_products(n, omegas, dt, points))  # (n^2, T)
    return SimulationResult(times=np.linspace(0.0, t_max_tau, points), populations=populations.T)


def verify_cpt(spec: SystemSpec, tol: float = CPT_TOL) -> CptCertificate:
    """Certify the transfer from lab state 1 to state n^2-n+1 at t = tau.

    Reports the lab-frame fidelity, the equivalent product-frame
    overlap |<V(Y)/sqrt(n)| U(tau) |V(I)/sqrt(n)>|, and the measured
    global phase of the transfer amplitude. ``tol`` must be finite and
    positive.

    Both amplitudes come from one :func:`propagator_elements` call on
    ``build_h_tp``: the lab amplitude reads rows n^2 - n and 0 of the
    lab frame, the overlap the column-stacked V(Y) and V(I). The
    n^2 x n^2 propagator U(tau) is never formed.
    """
    require_tol(tol)
    n = spec.n
    tau = spec.params.tau
    w = lab_frame(n)
    target = n * n - n  # 0-based
    vi = vectorize(np.eye(n)) / np.sqrt(n)
    vy = vectorize(y_matrix(n)) / np.sqrt(n)
    amp, overlap = propagator_elements(
        build_h_tp(n, spec.params), tau, np.stack((w[target], vy)), np.stack((w[0], vi))
    )
    return CptCertificate(
        n=n,
        target_index=target + 1,
        tau=tau,
        fidelity=float(abs(amp) ** 2),
        tp_overlap=float(abs(overlap)),
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
    there are still aliased samples, and rounding the grid or the phases
    differently moves them by a few 1e-7 at p = 10^8 + 1. Their phases
    come from :func:`simulate`'s small tables, so angles near 1e10 cost
    no more time than small ones, but they still carry c and lose
    precision as eps * c. See ROADMAP items 3 (exact triple
    angles, which take c out of the phases) and 4 (a closed-form bound).

    Each scan is one 10^4-point :func:`simulate` call at n = 2, whose
    peak memory is about three times its 320 kB of populations.
    """
    if spec.n != 2:
        raise ValueError(f"forbidden state scan applies to n=2 only, got n={spec.n}")
    result = simulate(spec, 20.0, 9_999)
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
