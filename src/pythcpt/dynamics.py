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
the lab frame, but certifies from n x n data. It reads the two
traceless factors back out of h (:func:`_kron_sum_factors`, through
the same two views :func:`build_h_tp` writes them with) and gates
every entry of h against their Kronecker sum in one pass. Y_n =
exp(i pi J2) negates every drive 2 Delta J3 + 2 Omega J1, so
C = Y_n (x) Y_n anticommutes with h and fixes both transfer rows,
V(I)/sqrt(n) and V(Y)/sqrt(n). The amplitude between them is therefore
real: it is sum_ab x_ab z_ab cos((lambda1_a + lambda2_b) tau) over the
factors' eigenvalues, with x and z the two rows in the factors'
eigenbases, from one batched n x n ``eigh`` (the closed form at
n = 2). The two rows are copied out of the frame before h is built, so
one n^4 array is alive at a time and h reuses the heap the frame just
freed. At n = 24 that is 1.05 ms a certificate with no page faults;
the SVD of the (n^2/2) x (n^2/2) block of h between C's sectors, an
independent oracle in ``tests/dense_oracle.py``, takes 15.9 ms.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .frames import lab_frame
from .linalg import require_hermitian, require_unitary
from .su2 import SPIN_CACHE_SIZE, spin_generators, y_matrix
from .tolerances import (
    CHIRALITY_TOL,
    COUPLING_ZERO_REL,
    CPT_TOL,
    FORBIDDEN_MAX_POP,
    KRON_SUM_TOL,
    SECTOR_TOL,
    require_tol,
)
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
    """Transfer fidelity between lab states 1 and n^2-n+1 at t = tau.

    ``fidelity`` is the square of a float amplitude and is not clamped:
    rounding can put it above 1, by at most (n^2 + 4) eps (eps the
    float64 machine epsilon), as :func:`verify_cpt` derives.
    """

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


def _kron_sum_views(h: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Where h1 and h2 sit in h = h1 (x) I + I (x) h2: two (n, n, n) views of the product-basis h.

    Row (i, a) of h is i n + a. The first view's [a] is the n x n block
    of rows and columns (., a), where h1 sits once for each a; the
    second view's [i] is the block of rows and columns (i, .), where h2
    sits once for each i. The two meet on the diagonal. ``h`` must be
    C-contiguous; both views write through to it. They are the einsum
    views "iaja->aij" and "iaib->iab" of h.reshape(n, n, n, n), built
    from their strides at half the call cost.
    """
    s = h.itemsize
    return (
        np.ndarray((n, n, n), h.dtype, h, strides=(s * (n * n + 1), s * n**3, s * n)),
        np.ndarray((n, n, n), h.dtype, h, strides=(s * (n**3 + n), s * n * n, s)),
    )


def build_h_tp(n: int, params: CouplingParams) -> np.ndarray:
    """Two-factor Hamiltonian h1 (x) I + I (x) h2 in the product basis.

    Entry ((i, a), (j, b)) is h1[i, j] [a = b] + [i = j] h2[a, b], so it
    is written into one zeroed n^2 x n^2 array through the two views of
    :func:`_kron_sum_views`: h1 onto each block a = b, then h2 added
    onto each block i = j. That equals the two-``kron`` sum of
    ``tests/dense_oracle.py`` entry for entry, without its two
    n^2 x n^2 Kronecker factors.
    """
    h1 = build_h_single(n, params.delta1, params.omega1)
    h2 = build_h_single(n, params.delta2, params.omega2)
    h = np.zeros((n * n, n * n), dtype=np.result_type(h1, h2))
    on_h1, on_h2 = _kron_sum_views(h, n)
    on_h1[...] = h1
    on_h2 += h2
    return h


def _kron_sum_factors(h: np.ndarray) -> np.ndarray:
    """The traceless factors (f1, f2) of an n^2 x n^2 h = f1 (x) I + I (x) f2, as one (2, n, n) array; gated.

    Each factor is read from the first copy in :func:`_kron_sum_views`:
    f1 from the block a = 0, which is h1 + h2[0, 0] I, and f2 from the
    block i = 0, which is h2 + h1[0, 0] I, each less its mean diagonal.
    The off-diagonal entries are copies, so a ``build_h_tp`` of integer
    drives reads back its exact ``build_h_single`` factors.

    Then every entry of h is checked, in one pass: the residual
    h - (f1 (x) I + I (x) f2) is formed in h itself, through the same
    views, so a C-contiguous h is overwritten and nothing of its size is
    allocated. Its maximum must be within KRON_SUM_TOL * max(1, max|f1| +
    max|f2|), max|f| read only when it exceeds KRON_SUM_TOL. Neither
    factor carries a trace, so a part c I of h fails here.
    """
    h = np.ascontiguousarray(h)
    n = math.isqrt(len(h))
    on_h1, on_h2 = _kron_sum_views(h, n)
    f = np.array((on_h1[0], on_h2[0]))
    diagonals = f.reshape(2, n * n)[:, :: n + 1]
    diagonals -= diagonals.sum(axis=1, keepdims=True) / n
    on_h1 -= f[0]
    on_h2 -= f[1]
    dev = float(np.abs(h, out=h).max())
    if not dev <= KRON_SUM_TOL:
        scale = max(1.0, float(np.abs(f).max(axis=(1, 2)).sum()))
        if not dev <= KRON_SUM_TOL * scale:
            raise ValueError(
                f"generator is not a traceless Kronecker sum: max |h - (h1 (x) I + I (x) h2)| = {dev:.3e} "
                f"exceeds {KRON_SUM_TOL:.0e} * max(1, max|h1| + max|h2|) = {KRON_SUM_TOL * scale:.3e}"
            )
    return f


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
def _y_signs(n: int) -> np.ndarray:
    """The read-only signs of Y_n acting on n x n matrices as a signed reversal, built once per n.

    (Y_n m Y_n^T)[i, j] = s[i, j] m[n - 1 - i, n - 1 - j] with s = d d^T
    and d_i = Y_n[i, n - 1 - i] = (-1)^i, the one nonzero of row i of Y_n.
    """
    d = y_matrix(n)[np.arange(n), np.arange(n - 1, -1, -1)]
    signs = np.multiply.outer(d, d)
    signs.flags.writeable = False
    return signs


def _require_chiral(f: np.ndarray, signs: np.ndarray) -> None:
    """Raise unless max|f_i + Y f_i Y^T| <= CHIRALITY_TOL * max(1, max|f|) over both factors.

    max|f| is read only when the residual exceeds CHIRALITY_TOL.
    """
    residual = f[:, ::-1, ::-1] * signs
    residual += f
    dev = float(np.abs(residual, out=residual).max())
    if not dev <= CHIRALITY_TOL:
        scale = max(1.0, float(np.abs(f).max()))
        if not dev <= CHIRALITY_TOL * scale:
            raise ValueError(
                f"factor does not anticommute with Y: max |f + Y f Y^T| = {dev:.3e} "
                f"exceeds {CHIRALITY_TOL:.0e} * max(1, max|f|) = {CHIRALITY_TOL * scale:.3e}"
            )


def _require_in_sector(rows: np.ndarray, signs: np.ndarray) -> None:
    """Raise unless each of (ket, bra), as an n x n matrix m, has ||m - Y m Y^T||_F <= SECTOR_TOL.

    Y m Y^T is C v for the row v = vec(m) and C = Y (x) Y, so this is
    the 2-norm ||v - C v||.
    """
    odd = rows[:, ::-1, ::-1] * signs
    np.subtract(rows, odd, out=odd)
    for what, square in zip(("ket", "bra"), (odd * odd).sum(axis=(1, 2)).tolist()):
        if not square <= SECTOR_TOL * SECTOR_TOL:
            raise ValueError(
                f"{what} is not in the +1 sector of C: ||v - C v|| = {math.sqrt(square):.3e} exceeds {SECTOR_TOL:.0e}"
            )


def verify_cpt(spec: SystemSpec, tol: float = CPT_TOL) -> CptCertificate:
    """Certify the transfer from lab state 1 to state n^2-n+1 at t = tau.

    Reports the lab-frame fidelity, the equivalent product-frame
    overlap |<V(Y)/sqrt(n)| U(tau) |V(I)/sqrt(n)>|, and the measured
    global phase of the transfer amplitude. ``tol`` must be finite and
    positive.

    The amplitude is <row n^2 - n| exp(-i h tau) |row 0> of the lab
    frame, h = ``build_h_tp``. Row 0 is V(I)/sqrt(n) and row n^2 - n is
    -V(Y)/sqrt(n) with V(Y) column-stacked, so the overlap is the
    amplitude's modulus. h is read back as f1 (x) I + I (x) f2 with
    traceless n x n factors (:func:`_kron_sum_factors`), so
    exp(-i h tau) = exp(-i f1 tau) (x) exp(-i f2 tau). Reshaped
    row-major, the two rows are n x n matrices A (row 0) and B, and with
    f_i = V_i diag(lambda_i) V_i^T the amplitude is
    sum_ab x_ab z_ab exp(-i (lambda1_a + lambda2_b) tau), x = V1^T A V2
    and z = V1^T B V2. Y_n negates every drive 2 Delta J3 + 2 Omega J1
    and fixes both rows (Y A Y^T = A), so it pairs each term with one of
    the opposite angle and equal weight: the sines cancel and the
    amplitude is the real sum_ab x_ab z_ab cos((lambda1_a + lambda2_b) tau).
    Both eigenbases come from one batched n x n ``eigh``, or at n = 2
    from the closed form of :func:`_two_level_eigenbasis`. No n^2 x n^2
    eigensolver or SVD runs and no propagator is formed; past the one
    O(n^4) pass of the Kronecker-sum gate, the work is O(n^3).

    At CPT every cos((lambda1_a + lambda2_b) tau) sits at +-1, so the
    rounding of the angles acts only at second order:
    |phase - (-1)^((p+q)/2)| is about (1 - F)/2, 3.0e-13 at
    (999999937, 1, 0.5) and n = 4.

    Rounding can also put F a little above 1; the value is reported as
    computed. Exactly, |amp| <= sum_ab |x_ab z_ab| <= ||x||_F ||z||_F,
    and with V1, V2 orthogonal ||x||_F = ||A||_F = 1 and ||z||_F =
    ||B||_F = 1. In floats, F - 1 <= ||x||_F^2 ||z||_F^2 - 1 plus twice
    the rounding of the sum, to first order. (1) With
    V_i V_i^T = I + E_i, ||x||_F^2 - 1 = <A, E1 A> + <A, A E2>. A and
    B are orthogonal over sqrt(n) (the identity, and Y_n up to sign and
    transpose), so both terms together are (tr E1 + tr E2)/n, for z as
    for x; tr E_i is the columns' total excess of squared length.
    ``eigh``'s columns run a few eps long each (tr E_i up to 20 eps at
    n = 4), so after the unitarity gate each is rescaled to unit
    length, which leaves tr E_i at the rescaling's rounding, about an
    eps a column, as for the closed-form rotation at n = 2. (2) The two
    GEMMs that form each of x and z round each entry by about n eps of
    its terms' moduli, which sum to at most a few times |A| and |B|
    entries. (3) The n^2 products x_ab z_ab cos(.) round by 2 eps each,
    and numpy's pairwise ``ndarray.sum`` (eight running sums up to 128
    terms) adds at most about (n^2/8 + log2(n^2)) eps. So F - 1 is
    about 2 (tr E1 + tr E2)/n + n^2 eps/4 + O(n eps) at most. That is
    far below (n^2 + 4) eps from n = 6 on. At n = 2 and 4 it is below
    the bound as observed, not as proven: a worst-case bound on the
    rescaling's rounding alone reaches it. Over even n <= 24 and random
    triples the largest excess seen was 2 eps at n = 2 (8 allowed),
    8 eps at n = 4 (20 allowed; 4,000,000 triples, where without
    the rescaling it reached 20 eps) and 8 eps at n = 6 and n = 24.

    Gates, in order: h within KRON_SUM_TOL of f1 (x) I + I (x) f2
    (:func:`_kron_sum_factors`, one pass over h, which it overwrites;
    a part of h that commutes with C, such as c I, fails here), both
    factors Hermitian and negated by Y (CHIRALITY_TOL), both rows in
    C's +1 sector (SECTOR_TOL), an orthonormal eigenbasis
    (``require_unitary``), and a finite (max|lambda1| + max|lambda2|) tau.

    Memory: the two transfer rows (2 n^2 floats) are copied out of
    ``lab_frame(n)`` and the frame is dropped before ``build_h_tp``
    allocates h, so the call holds one n^4 array at a time: its traced
    peak is at most 1.3 n^4 floats at every even n from 12 to 32, where
    frame and h alive together read 2.06-2.28. h then takes the heap
    chunk the frame freed, and the freed top stays below glibc's trim
    threshold, so a repeated certificate faults no page in again (at
    n = 24 it took 1,268 minor faults a call with both alive).

    Cost: 1.05 ms at n = 24 and 2.5 ms at n = 32, where the chiral-block
    SVD oracle of ``tests/dense_oracle.py`` takes 15.9 and 76 ms (best
    of 30, one BLAS thread, 2-CPU x86-64). At n = 24 ``lab_frame``
    takes 0.25 ms, ``build_h_tp`` 0.19 ms, the Kronecker-sum gate
    0.31 ms and ``eigh`` 0.09 ms. At n = 32 the frame is cached, and
    zeroing and gating the 8 MB h set the cost.
    """
    require_tol(tol)
    n = spec.n
    tau = spec.params.tau
    target = n * n - n  # 0-based
    # lab rows 0 and n^2 - n (ket, bra), copied out so the frame is freed before h takes its place
    rows = lab_frame(n)[::target].reshape(2, n, n).copy()
    # build_h_tp returns a fresh array, so the Kronecker-sum gate may overwrite it
    f = _kron_sum_factors(build_h_tp(n, spec.params))
    require_hermitian(f, "factor")
    signs = _y_signs(n)
    _require_chiral(f, signs)
    _require_in_sector(rows, signs)
    if n == 2:
        (d1, o1), (d2, o2) = f[:, 0].tolist()
        bases = np.array((_two_level_eigenbasis(d1, o1), _two_level_eigenbasis(d2, o2)))
        w1, w2 = math.hypot(d1, o1), math.hypot(d2, o2)
        spectra = np.array(((w1, -w1), (w2, -w2)))
        reach = (w1 + w2) * tau
    else:
        spectra, bases = np.linalg.eigh(f)
        require_unitary(bases, "eigenbasis")
        # eigh's columns run a few eps long, and their lengths reach F at first order: make each a unit vector
        bases /= np.sqrt((bases * bases).sum(axis=1, keepdims=True))
        (low1, high1), (low2, high2) = spectra[:, :: n - 1].tolist()  # ascending, so the extremes
        reach = (max(-low1, high1) + max(-low2, high2)) * tau
    # Python floats overflow to inf without a warning, and every |lambda1_a + lambda2_b| tau is at most this one
    if not math.isfinite(reach):
        raise ValueError(f"propagator is not unitary: (max|lambda1| + max|lambda2|) * tau is not finite at tau = {tau!r}")
    x, z = bases[0].T @ rows @ bases[1]
    amp = float((x * z * np.cos((spectra[0][:, None] + spectra[1]) * tau)).sum())
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
