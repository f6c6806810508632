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
two n x n eigenbases replace one n^2 x n^2 ``eigh`` (at n = 2 each is
the closed-form rotation by atan2(Omega, Delta)/2, above it ``eigh``
of the lifted factor), and the phases
of all T grid points come from two small tables per factor, about
2n sqrt(T) complex exponentials in all, where the dense evolution takes
n^2 complex exponentials per point. Each eigen-index folds with its
mirror, so the populations come from two real GEMMs of inner dimension
n^2/2, one for Re psi and one for Im psi, each squared in place: no
(2 n^2, T) array is formed. The grid is evaluated in blocks of about
48 KiB of phi, so the peak memory is the returned (T, n^2)
populations and times plus a few such blocks.

:func:`verify_cpt` still builds the real n^2 x n^2 ``build_h_tp`` and
the lab frame, but runs no n^2 x n^2 eigensolver. Y_n = exp(i pi J2)
negates every drive 2 Delta J3 + 2 Omega J1, so C = Y_n (x) Y_n
anticommutes with h and fixes both transfer rows, V(I)/sqrt(n) and
V(Y)/sqrt(n). The amplitude between them is therefore <a| cos(h tau) |b>,
a real number, read from one real SVD of the (n^2/2) x (n^2/2) block of
h between C's two sectors (:func:`pythcpt.linalg.chiral_amplitude`).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .frames import lab_frame
from .linalg import chiral_amplitude, kron, require_hermitian
from .su2 import SPIN_CACHE_SIZE, spin_generators, y_matrix
from .tolerances import COUPLING_ZERO_REL, CPT_TOL, FORBIDDEN_MAX_POP, require_tol
from .triples import CouplingParams

# Rows: the (cos cos, sin sin, cos sin, sin cos) feature blocks of :func:`_feature_products`; columns: the
# signs (+ +, + -, - +, - -) of mu1 and mu2. exp(-i mu theta) = cos(|mu| theta) - i sign(mu) sin(|mu| theta),
# so each row gives Re psi (first two) or -Im psi (last two) from the coefficients of the four mirrored terms.
_MIRROR_SIGNS = np.array([[1.0, 1.0, 1.0, 1.0], [-1.0, 1.0, 1.0, -1.0], [1.0, -1.0, 1.0, -1.0], [1.0, 1.0, -1.0, -1.0]])
# Bytes of phi per time block of :func:`simulate`. Each of a block's arrays (complex feature products, phi, the two
# GEMM outputs) then stays below glibc's default 128 KiB mmap threshold, comes from the heap and is reused by the next
# block and the next call instead of being mapped and faulted in afresh. At 64 KiB the free heap top a 10^4-point
# forbidden_scan leaves grows from 0.53 to 0.64 MB, at glibc's trim threshold, and its pages can be returned and
# refaulted on every call; 32 KiB leaves no less heap in use and only adds per-block overhead. Re-measured in 30 s
# triple_sweep runs (one BLAS thread, 2-CPU x86-64): 64 and 96 KiB took 4 % off each pass while the heap top stayed
# in use, but as the harness's records grew the heap, glibc trimmed and refaulted it on every call for up to 9 passes,
# each 30-50 % slower (96 KiB: 1.25 million minor faults in a run at seed 41, 0.17 million at seed 13; 64 KiB: 0.6
# million at seeds 7 and 13; 48 KiB: under 7 thousand at each of the three). 120 KiB and one whole-grid block were
# 28 % and 61 % slower than 48 KiB throughout (10 s runs).
_BLOCK_BYTES = 48 * 1024


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

    def as_json(self) -> dict:
        """The certificate as plain JSON values, the phase as [re, im]."""
        return {"fidelity": self.fidelity, "target_index": self.target_index, "tau": self.tau, "pass": self.passed,
                "phase": [self.phase.real, self.phase.imag]}


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


@functools.lru_cache(maxsize=SPIN_CACHE_SIZE)
def _identity(n: int) -> np.ndarray:
    """The read-only n x n identity of :func:`build_h_tp`, built once per n."""
    eye = np.eye(n)
    eye.flags.writeable = False
    return eye


def build_h_tp(n: int, params: CouplingParams) -> np.ndarray:
    """Two-factor Hamiltonian h1 (x) I + I (x) h2 in the product basis."""
    h1 = build_h_single(n, params.delta1, params.omega1)
    h2 = build_h_single(n, params.delta2, params.omega2)
    eye = _identity(n)
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
def _ladder_indices(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only per-n constants of :func:`simulate`: the mirrored eigen-order and the harmonic ranks.

    The order lists the eigen-indices with ladder values
    mu = 1, 3, ..., n - 1, then -1, -3, ..., 1 - n; the ranks are the
    column (1, 3, ..., n - 1) of :func:`_features` as floats.
    """
    half = n // 2
    mirrored = np.r_[half:n, half - 1:-1:-1]
    ranks = np.arange(1.0, n, 2)[:, None]
    for a in (mirrored, ranks):
        a.flags.writeable = False
    return mirrored, ranks


def _two_level_eigenbasis(delta: float, omega: float) -> np.ndarray:
    """Eigenvectors of delta*sigma_z + omega*sigma_x in :func:`simulate`'s mirrored order: +omega first, then -omega.

    With phi = atan2(omega, delta)/2 they are (cos phi, sin phi) and
    (-sin phi, cos phi), the columns of a rotation by phi; ``eigh``
    lists the same two in ascending order, up to sign.
    """
    phi = math.atan2(omega, delta) / 2
    c, s = math.cos(phi), math.sin(phi)
    return np.array([[c, -s], [s, c]])


def _features(n: int, omegas: list[float], dt: float, points: int) -> tuple[np.ndarray, np.ndarray]:
    """The coarse and fine tables of exp(i h omega dt j), h = 1, 3, ..., n - 1 and j < points, for both factors' omegas.

    The real and imaginary parts of exp(i h omega dt j) are the (cos,
    sin) features of :func:`simulate`. With j = a * B + b and
    B = ceil(sqrt(points)), exp(i h omega dt j) is
    exp(i h omega dt B a) * exp(i h omega dt b): the complex
    (2, n/2, ceil(points / B)) coarse table over a and the (2, n/2, B)
    fine table over b, about 2 n sqrt(points) complex exponentials in
    all, from one ``np.exp`` call. :func:`_feature_products` multiplies
    them out one block of coarse rows at a time.
    """
    block = math.isqrt(points - 1) + 1
    rows = -(-points // block)
    rate = _ladder_indices(n)[1] * (np.array(omegas)[:, None, None] * dt)
    tables = np.exp(1j * rate * np.concatenate((block * np.arange(rows), np.arange(block))))
    return tables[..., :rows], tables[..., rows:]


def _feature_products(coarse: np.ndarray, fine: np.ndarray, rows: slice, points: int) -> np.ndarray:
    """phi for the first ``points`` grid points of the coarse ``rows`` of :func:`_features`, as (n^2, points).

    One complex product per factor, harmonic and point gives the
    features, read in place as a real (factor, cos | sin, h, j) view;
    its cos cos, sin sin, cos sin and sin cos blocks are written
    straight into phi.
    """
    w = coarse[:, :, rows, None] * fine[:, :, None, :]
    f1, f2 = w.view(np.float64).reshape(*w.shape[:2], -1, 2).transpose(0, 3, 1, 2)[..., :points]
    half = coarse.shape[1]
    phi = np.empty((2, 2, half, half, points))
    np.multiply(f1[:, :, None], f2[:, None], out=phi[0])  # cos cos, sin sin
    np.multiply(f1[:, :, None], f2[::-1, None], out=phi[1])  # cos sin, sin cos
    return phi.reshape(-1, points)


def _squared_moduli(same: np.ndarray, mixed: np.ndarray, phi: np.ndarray) -> np.ndarray:
    """|psi|^2 = (same @ phi[:m])^2 + (mixed @ phi[m:])^2, m = n^2 / 2: two real GEMMs, one per half of phi.

    The square of the imaginary part is added in place into the square
    of the real part, so the peak is phi and two arrays of the result's
    shape.
    """
    m = same.shape[1]
    out = same @ phi[:m]
    out *= out
    imag = mixed @ phi[m:]
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
    spectrum. So each factor's eigenbasis is taken once: at n = 2 in
    closed form (:func:`_two_level_eigenbasis`), above it by one n x n
    ``eigh``. E = W kron(V1, V2) is real orthogonal with lab state 1 at
    coefficients E[0]. The eigen-index k and its mirror n - 1 - k have
    opposite ladder values mu = 2k - n + 1, so each harmonic pair
    (|mu1|, |mu2|) gathers four terms of E diag(E[0]), and their sums
    with the signs of ``_MIRROR_SIGNS`` are two real n^2 x n^2/2 maps,
    for Re psi and Im psi, on the products phi(t) of the factors' cos
    and sin features (:func:`_feature_products`). Because the grid is
    uniform, each factor's features come from two small phase tables
    (:func:`_features`), O(n sqrt(steps)) complex exponentials per
    factor. Per time point that leaves n complex
    products, n^2 real products and two real matrix-vector products of
    inner dimension n^2/2 (:func:`_squared_moduli`); no complex matrix,
    no n^2 x n^2 Hamiltonian and no (2 n^2, T) array is formed.

    The (n^2, T) populations are allocated once, and the grid is
    evaluated in blocks of whole coarse-table rows, each holding about
    48 KiB of phi (at least the size of the two maps, from n = 10 on).
    Each block forms its own features, phi and GEMM outputs and writes
    its slice of the populations, so only the populations and times
    grow with T: the peak traced memory is theirs plus about 150 kB at
    n = 2 with 10^4 points and 230 kB at n = 8 with 5001 points, 1.73x
    and 1.11x the populations.
    """
    if not (math.isfinite(t_max_tau) and t_max_tau >= 0):
        raise ValueError(f"t_max must be finite and non-negative, got {t_max_tau}")
    if steps < 0:
        raise ValueError(f"steps must be non-negative, got {steps}")
    n, p = spec.n, spec.params
    t_max = t_max_tau * p.tau
    w = lab_frame(n)
    drives = ((p.delta1, p.omega1), (p.delta2, p.omega2))
    omegas = [math.hypot(delta, omega) for delta, omega in drives]
    # Python floats overflow to inf without a warning, so this raises before numpy sees the product
    if not all(math.isfinite((n - 1) * omega * t_max) for omega in omegas):
        raise ValueError(f"factor phase (n - 1) * omega * |t| is not finite at |t| = {t_max!r}")
    points = steps + 1
    times = np.linspace(0.0, t_max_tau, points)
    dt = t_max / max(steps, 1)
    half = n // 2
    if n == 2:
        v1, v2 = (_two_level_eigenbasis(delta, omega) for delta, omega in drives)
    else:
        mirrored = _ladder_indices(n)[0]
        v1, v2 = (np.linalg.eigh(build_h_single(n, delta, omega))[1][:, mirrored] for delta, omega in drives)
    e = _rows_times_kron(w, v1, v2)
    terms = (e * e[0]).reshape(n * n, 2, half, 2, half).transpose(0, 1, 3, 2, 4).reshape(n * n, 4, -1)
    same, mixed = (_MIRROR_SIGNS @ terms).reshape(n * n, 2, -1).transpose(1, 0, 2)
    coarse, fine = _features(n, omegas, dt, points)
    width = fine.shape[-1]
    # every GEMM packs same and mixed afresh, so from n = 10 on a block's phi is at least their size
    block_bytes = max(_BLOCK_BYTES, same.nbytes + mixed.nbytes)
    rows = max(1, block_bytes // (8 * n * n * width))
    populations = np.empty((n * n, points))
    for first in range(0, coarse.shape[-1], rows):
        start, stop = first * width, min((first + rows) * width, points)
        # one statement, so each block's phi is freed before the next block's is built
        populations[:, start:stop] = _squared_moduli(
            same, mixed, _feature_products(coarse, fine, slice(first, first + rows), stop - start)
        )
    return SimulationResult(times=times, populations=populations.T)


@functools.lru_cache(maxsize=SPIN_CACHE_SIZE)
def _chiral_signs(n: int) -> np.ndarray:
    """The read-only signs of C = Y_n (x) Y_n as a signed reversal, built once per n.

    (C v)[x] = sigma_x v[n^2 - 1 - x] with sigma = d (x) d and
    d_i = Y_n[i, n - 1 - i] = (-1)^i, the one nonzero of row i of Y_n.
    """
    d = y_matrix(n)[np.arange(n), np.arange(n - 1, -1, -1)]
    signs = kron(d, d)
    signs.flags.writeable = False
    return signs


def verify_cpt(spec: SystemSpec, tol: float = CPT_TOL) -> CptCertificate:
    """Certify the transfer from lab state 1 to state n^2-n+1 at t = tau.

    Reports the lab-frame fidelity, the equivalent product-frame
    overlap |<V(Y)/sqrt(n)| U(tau) |V(I)/sqrt(n)>|, and the measured
    global phase of the transfer amplitude. ``tol`` must be finite and
    positive.

    The amplitude is the :func:`pythcpt.linalg.chiral_amplitude` of
    ``build_h_tp`` between rows n^2 - n and 0 of the lab frame. Row 0 is
    V(I)/sqrt(n) and row n^2 - n is -V(Y)/sqrt(n) with V(Y)
    column-stacked, so the overlap is the amplitude's modulus. Y_n negates
    every drive 2 Delta J3 + 2 Omega J1, so C = Y_n (x) Y_n, the signed
    reversal of :func:`_chiral_signs`, anticommutes with h and fixes both
    rows. The amplitude is then <row| cos(h tau) |row>, read from one real
    SVD of the (n^2/2) x (n^2/2) block of h between C's two sectors, and
    its imaginary part is exactly 0. No n^2 x n^2 eigensolver runs and no
    propagator is formed.

    At CPT every cos(sigma_k tau) sits at +-1, so the rounding of the
    angles acts only at second order: |phase - (-1)^((p+q)/2)| is about
    (1 - F)/2, 7.2e-13 at (999999937, 1, 0.5) and n = 4.

    Gates, from ``chiral_amplitude``: h Hermitian, the chirality residual
    max|h + C h C|, both rows in C's +1 sector, an orthonormal singular
    basis, and a finite sigma_max * tau.

    Cost: 24 ms at n = 24 and 86 ms at n = 32 (best of five, one BLAS
    thread, 2-CPU x86-64). At n = 24 the SVD is 14 ms of it,
    ``lab_frame`` 6.5 ms, ``build_h_tp`` 5 ms and the Hermiticity gate
    3 ms.
    """
    require_tol(tol)
    n = spec.n
    tau = spec.params.tau
    w = lab_frame(n)
    target = n * n - n  # 0-based
    amp = float(chiral_amplitude(build_h_tp(n, spec.params), tau, _chiral_signs(n), w[target], w[0]))
    return CptCertificate(
        n=n,
        target_index=target + 1,
        tau=tau,
        fidelity=amp * amp,
        tp_overlap=abs(amp),
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
    no more time than small ones, but they come from floats and lose precision
    as eps * p, about eps * sqrt(2c). See ROADMAP items 3 (exact triple angles,
    which take c out of the phases) and 4 (a closed-form bound).

    Each scan is one 10^4-point :func:`simulate` call at n = 2, whose
    peak memory is its 320 kB of populations and 80 kB of times plus
    about 150 kB of block arrays.
    """
    if spec.n != 2:
        raise ValueError(f"forbidden state scan applies to n=2 only, got n={spec.n}")
    result = simulate(spec, 20.0, 9_999)
    return ForbiddenScanReport(
        max_pop_2=float(result.populations[:, 1].max()),
        max_pop_4=float(result.populations[:, 3].max()),
        n_points=len(result.times),
        t_max=20.0 * spec.params.tau,
        threshold=FORBIDDEN_MAX_POP,
    )


def coupling_graph(h_lab: np.ndarray) -> CouplingGraph:
    """Undirected edge list of a Hermitian Hamiltonian's couplings.

    Entries up to COUPLING_ZERO_REL times the largest entry magnitude
    count as zero, on the diagonal as off it. Indices are 1-based to match
    the usual state labelling.
    """
    h_lab = np.asarray(h_lab)
    require_hermitian(h_lab, "Hamiltonian")
    tol = COUPLING_ZERO_REL * float(np.max(np.abs(h_lab))) if h_lab.size else 0.0
    kept = np.abs(h_lab) > tol
    rows, cols = np.nonzero(np.triu(kept, k=1))  # row-major order
    weights = np.real(h_lab[rows, cols]).astype(float)
    edges = tuple(zip((rows + 1).tolist(), (cols + 1).tolist(), weights.tolist()))
    return CouplingGraph(edges=edges, diagonal=np.where(np.diag(kept), np.real(np.diag(h_lab)), 0.0))
