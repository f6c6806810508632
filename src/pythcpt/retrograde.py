"""Doubled-space constructions: play a pulse forward on one factor and
backward on the other.

For a base schedule H(t) on [0, T] the doubled Hamiltonian is
``-H(T-t) (x) I + I (x) H(t)`` and its propagator factorizes as
``U(T-t, T-t0) (x) U(t, t0)``. The semi variant conjugates the reversed
copy instead of negating it. Both turn statements about U(T, 0) into
statements about how the doubled dynamics moves vectorized operators,
which is what yields complete transfers between entangled states.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dynamics import CPT_TOL, build_h_single
from .linalg import kron, matexp_unitary, require_hermitian, vectorize
from .su2 import spin_generators, y_matrix
from .triples import OddPair, params_from_pair


@dataclass(frozen=True)
class PulseSchedule:
    """Piecewise-constant Hamiltonian: ordered (generator, duration) segments."""

    segments: tuple[tuple[np.ndarray, float], ...]

    def __post_init__(self):
        if not self.segments:
            raise ValueError("schedule needs at least one segment")
        dim = self.segments[0][0].shape[0]
        for h, d in self.segments:
            if h.shape != (dim, dim):
                raise ValueError("all segments must share one dimension")
            if d <= 0:
                raise ValueError(f"segment durations must be positive, got {d}")
            require_hermitian(h, "segment generator")

    @property
    def dim(self) -> int:
        return self.segments[0][0].shape[0]

    @property
    def T(self) -> float:
        return float(sum(d for _, d in self.segments))

    def boundaries(self) -> np.ndarray:
        return np.concatenate([[0.0], np.cumsum([d for _, d in self.segments])])


def ordered_propagator(schedule: PulseSchedule, t0: float, t1: float) -> np.ndarray:
    """Time-ordered propagator U(t1, t0) of a piecewise-constant schedule.

    Partial segments are handled exactly; ``t1 < t0`` returns the
    adjoint of the forward propagator, so the group property
    U(t3, t2) U(t2, t1) = U(t3, t1) holds for any ordering of times.
    """
    T = schedule.T
    for t in (t0, t1):
        if t < -1e-12 or t > T + 1e-12:
            raise ValueError(f"time {t} outside schedule range [0, {T}]")
    if t1 < t0:
        return ordered_propagator(schedule, t1, t0).conj().T
    u = np.eye(schedule.dim, dtype=complex)
    if t1 == t0:
        return u
    start = schedule.boundaries()[:-1]
    for (h, d), s in zip(schedule.segments, start):
        lo = max(t0, s)
        hi = min(t1, s + d)
        if hi - lo > 1e-15:
            u = matexp_unitary(h, hi - lo) @ u
    return u


def pythagorean_pulse(p: int, q: int, k: float = 0.0, n: int = 2) -> PulseSchedule:
    """Two-segment pulse whose full propagator is the anti-diagonal Y.

    First segment drives with (delta1, omega1), the second with the
    negated (delta2, omega2), each for the transfer time tau; in the
    two-level case U(T, 0) = (-1)^((p+q)/2) [[0, 1], [-1, 0]]. The
    optional ``n`` lifts the same drive to the spin-(n-1)/2
    representation.
    """
    pair = OddPair(p, q)
    params = params_from_pair(pair.p, pair.q, k)
    tau = params.tau
    h_a = build_h_single(n, params.delta1, params.omega1)
    h_b = -build_h_single(n, params.delta2, params.omega2)
    return PulseSchedule(segments=((h_a, tau), (h_b, tau)))


@dataclass(frozen=True)
class RetrogradeSystem:
    """Doubled-space system for a base schedule.

    The doubled Hamiltonian is never formed: ``propagator`` uses the
    exact factorized form U(T-t, T-t0) (x) U(t, t0) of the base
    schedule's propagators.
    """

    base: PulseSchedule
    variant: str  # "retrograde" | "semi"

    def __post_init__(self):
        if self.variant not in ("retrograde", "semi"):
            raise ValueError(f"unknown variant {self.variant!r}")

    def propagator(self, t: float, t0: float = 0.0) -> np.ndarray:
        """Factorized doubled propagator U(T-t, T-t0) (x) U(t, t0)."""
        T = self.base.T
        rev = ordered_propagator(self.base, T - t0, T - t)
        fwd = ordered_propagator(self.base, t0, t)
        if self.variant == "semi":
            rev = rev.conj()
        return kron(rev, fwd)


def retrograde_hamiltonian(base: PulseSchedule) -> RetrogradeSystem:
    """Doubled system -H(T-t) (x) I + I (x) H(t)."""
    return RetrogradeSystem(base=base, variant="retrograde")


def semi_retrograde_hamiltonian(base: PulseSchedule) -> RetrogradeSystem:
    """Doubled system H*(T-t) (x) I + I (x) H(t) (no transfer by itself)."""
    return RetrogradeSystem(base=base, variant="semi")


def _phase_match(u: np.ndarray, target: np.ndarray, tol: float) -> tuple[bool, complex]:
    """Does u equal target up to a global unit phase? Returns (ok, phase)."""
    inner = np.vdot(target, u) / (np.linalg.norm(target) ** 2)
    if abs(inner) < 1e-6:
        return False, complex(inner)
    phase = inner / abs(inner)
    ok = bool(np.max(np.abs(u - phase * target)) <= tol)
    return ok, complex(phase)


@dataclass(frozen=True)
class EquivalenceReport:
    """Numerical check of the propagator <-> doubled-state equivalence.

    ``propagator_matches`` is the direct statement U(T,0) = phase * y;
    ``doubled_state_matches`` is the doubled-space statement that
    V(I)/sqrt(n) flows to V(y)/sqrt(n) at T/2. Each side is measured on
    its own, so the equivalence shows as the two agreeing.
    """

    propagator_matches: bool
    doubled_state_matches: bool
    propagator_phase: complex
    doubled_phase: complex
    is_cpt: bool
    trace_y: complex

    def as_pair(self) -> tuple[bool, bool]:
        return (self.propagator_matches, self.doubled_state_matches)


def check_equivalence(
    base: PulseSchedule,
    y: np.ndarray,
    variant: str = "retrograde",
    tol: float = CPT_TOL,
) -> EquivalenceReport:
    """Verify both directions of U(T,0) = y <=> doubled V(I) -> V(y).

    ``y`` must be unitary and must intertwine the dynamics: every
    unitary the base schedule generates has to satisfy u y u^T = y for
    the retrograde variant (u y u^dagger = y for the semi variant);
    anything else is rejected since the equivalence is meaningless
    there. Also reports whether trace(y) = 0, i.e. whether the
    doubled-space transfer is between orthogonal states.
    """
    y = np.asarray(y, dtype=complex)
    dim = base.dim
    if y.shape != (dim, dim):
        raise ValueError(f"y has shape {y.shape}, expected {(dim, dim)}")
    un_err = np.max(np.abs(y.conj().T @ y - np.eye(dim)))
    if un_err > 1e-9:
        raise ValueError(f"y is not unitary: max |y^dagger y - I| = {un_err:.3e}")
    T = base.T
    generated = [matexp_unitary(h, d) for h, d in base.segments]
    generated.append(ordered_propagator(base, 0.0, T))
    for u in generated:
        if variant == "retrograde":
            resid = np.max(np.abs(u @ y @ u.T - y))
        else:
            resid = np.max(np.abs(u @ y @ u.conj().T - y))
        if resid > 1e-9:
            raise ValueError(
                f"y does not intertwine the schedule's unitaries (residual {resid:.3e})"
            )
    u_full = ordered_propagator(base, 0.0, T)
    prop_ok, prop_phase = _phase_match(u_full, y, tol)
    system = RetrogradeSystem(base=base, variant=variant)
    vi = vectorize(np.eye(dim)) / np.sqrt(dim)
    vy = vectorize(y) / np.sqrt(dim)
    moved = system.propagator(T / 2.0) @ vi
    state_ok, state_phase = _phase_match(moved, vy, tol)
    trace_y = complex(np.trace(y))
    return EquivalenceReport(
        propagator_matches=prop_ok,
        doubled_state_matches=state_ok,
        propagator_phase=prop_phase,
        doubled_phase=state_phase,
        is_cpt=abs(trace_y) <= 1e-9,
        trace_y=trace_y,
    )


@dataclass(frozen=True)
class RecipeResult:
    """Outcome of the general two-state transfer recipe.

    When ``ok`` the normalized initial and final doubled states are
    populated and certified orthogonal; otherwise ``violated`` names
    the failed preconditions and the states are None.
    """

    ok: bool
    violated: tuple[str, ...]
    initial: np.ndarray | None = None
    final: np.ndarray | None = None
    transfer_residual: float | None = None
    overlap: float | None = None


def general_recipe(
    u_full: np.ndarray,
    u_half: np.ndarray,
    i_state: np.ndarray,
    f_state: np.ndarray,
    phi: float,
    tol: float = CPT_TOL,
) -> RecipeResult:
    """Complete-transfer recipe for any system with a two-state cycle.

    Given U(T,0), U(T/2,0) and normalized states with
    |<i|f>| < 1, U(T,0)|i> = |f> and U(T,0)|f> = e^{i phi}|i>, the
    doubled dynamics carries the normalization of
    -e^{i phi}|ii> + |ff> into -|hg> + |gh> (g, h the half-time images
    of i, f), and the two are orthogonal. Precondition failures are
    reported by name instead of raised, since callers typically scan
    candidate (i, f, phi) tuples.
    """
    i_state = np.asarray(i_state, dtype=complex).reshape(-1)
    f_state = np.asarray(f_state, dtype=complex).reshape(-1)
    violated = []
    overlap_if = abs(np.vdot(i_state, f_state))
    if not overlap_if < 1.0 - 1e-12:
        violated.append("overlap_not_below_one")
    if np.max(np.abs(u_full @ i_state - f_state)) > tol:
        violated.append("u_full_does_not_map_i_to_f")
    if np.max(np.abs(u_full @ f_state - np.exp(1j * phi) * i_state)) > tol:
        violated.append("u_full_does_not_map_f_back_to_i")
    if violated:
        return RecipeResult(ok=False, violated=tuple(violated))
    g = u_half @ i_state
    h = u_half @ f_state
    initial = -np.exp(1j * phi) * kron(i_state, i_state) + kron(f_state, f_state)
    initial = initial / np.linalg.norm(initial)
    final = -kron(h, g) + kron(g, h)
    final = final / np.linalg.norm(final)
    # U(T/2, T) = (U(T, T/2))^dagger with U(T, T/2) = U(T,0) U(T/2,0)^dagger
    u_rev = (u_full @ u_half.conj().T).conj().T
    doubled_half = kron(u_rev, u_half)
    residual = float(np.max(np.abs(doubled_half @ initial - final)))
    overlap = float(abs(np.vdot(initial, final)))
    ok = residual <= tol and overlap <= tol
    return RecipeResult(
        ok=ok,
        violated=(),
        initial=initial,
        final=final,
        transfer_residual=residual,
        overlap=overlap,
    )


@dataclass(frozen=True)
class TimeIndependentReport:
    """Conditions for the recipe with a constant Hamiltonian.

    With a constant H the requirements collapse to
    U(2T)|i> = e^{i phi}|i> and |<i|U(T)|i>| < 1, and then every
    (U(t) (x) U(t))-translate of the recipe's initial state transfers
    as well; ``samples`` holds (t, orthogonality residual) pairs for
    the sampled family.
    """

    condition_phase_cycle: bool
    condition_partial_overlap: bool
    phi: float | None
    return_residual: float
    half_overlap: float
    samples: tuple[tuple[float, float], ...]

    @property
    def both_hold(self) -> bool:
        return self.condition_phase_cycle and self.condition_partial_overlap


def time_independent_conditions(
    h: np.ndarray,
    i_state: np.ndarray,
    T: float,
    tol: float = CPT_TOL,
) -> TimeIndependentReport:
    """Check the constant-Hamiltonian transfer conditions and sample 8 family members."""
    i_state = np.asarray(i_state, dtype=complex).reshape(-1)
    norm = np.linalg.norm(i_state)
    if abs(norm - 1.0) > 1e-10:
        raise ValueError(f"state must be normalized, got norm {norm}")
    u_2t = matexp_unitary(h, 2.0 * T)
    v = u_2t @ i_state
    inner = np.vdot(i_state, v)
    phi = None
    if abs(inner) > 1e-6:
        phase = inner / abs(inner)
        return_residual = float(np.max(np.abs(v - phase * i_state)))
        cond1 = return_residual <= tol
        if cond1:
            phi = float(np.angle(phase))
    else:
        return_residual = float(np.max(np.abs(v - i_state)))
        cond1 = False
    u_t = matexp_unitary(h, T)
    half_overlap = float(abs(np.vdot(i_state, u_t @ i_state)))
    cond2 = half_overlap < 1.0 - 1e-12
    samples = []
    if cond1 and cond2:
        f_state = u_t @ i_state
        initial0 = -np.exp(1j * phi) * kron(i_state, i_state) + kron(f_state, f_state)
        initial0 = initial0 / np.linalg.norm(initial0)
        u_fwd_half = matexp_unitary(h, T / 2.0)
        doubled_half = kron(u_fwd_half.conj().T, u_fwd_half)
        for t in np.linspace(0.0, T, 8):
            shift = matexp_unitary(h, t)
            psi_t = kron(shift, shift) @ initial0
            final_t = doubled_half @ psi_t
            samples.append((float(t), float(abs(np.vdot(psi_t, final_t)))))
    return TimeIndependentReport(
        condition_phase_cycle=cond1,
        condition_partial_overlap=cond2,
        phi=phi,
        return_residual=return_residual,
        half_overlap=half_overlap,
        samples=tuple(samples),
    )


@dataclass(frozen=True)
class BasicCptRecord:
    """One pairwise transfer (|ii> + |n+1-i, n+1-i>)/sqrt(2) -> image at T/2."""

    index: int
    initial: np.ndarray
    final: np.ndarray
    orthogonality_residual: float

    @property
    def ok(self) -> bool:
        return self.orthogonality_residual <= CPT_TOL


@dataclass(frozen=True)
class BasicCptReport:
    """All pairwise transfers of a lifted pulse, plus their combinations.

    Final states are reported with the measured global sign of
    U(T, 0) divided out, so different (p, q) produce directly
    comparable vectors; the raw sign sits in ``sign``. The uniform
    combination of all pairwise initial states reproduces the
    universal V(I) -> V(Y) transfer independently of the drive.
    """

    n: int
    p: int
    q: int
    k: float
    sign: complex
    records: tuple[BasicCptRecord, ...]
    family_samples: tuple[tuple[tuple[complex, ...], float], ...]
    uniform_initial: np.ndarray
    uniform_final: np.ndarray
    uniform_target_residual: float

    @property
    def all_ok(self) -> bool:
        return (
            all(r.ok for r in self.records)
            and all(res <= CPT_TOL for _, res in self.family_samples)
            and self.uniform_target_residual <= CPT_TOL
        )


def _basis_ket(n: int, a: int, b: int) -> np.ndarray:
    """Product state |a b> (1-based labels) in the n*n doubled space."""
    va = np.zeros(n)
    va[a - 1] = 1.0
    vb = np.zeros(n)
    vb[b - 1] = 1.0
    return kron(va, vb)


def basic_cpts(n: int, p: int, q: int, k: float = 0.0) -> BasicCptReport:
    """Pairwise transfers of the lifted pulse in even dimension n.

    Each of the n/2 initial states (|ii> + |n+1-i,n+1-i>)/sqrt(2) is
    propagated to T/2 in the doubled space and certified orthogonal to
    its image; 20 random unit combinations of the initial states
    (seeded, so reports repeat) are sampled as well. The uniform combination is compared against the
    universal target V(Y)/sqrt(n).
    """
    if n % 2 != 0:
        raise ValueError(f"pairwise transfers need even n, got {n}")
    base = pythagorean_pulse(p, q, k, n=n)
    T = base.T
    u_full = ordered_propagator(base, 0.0, T)
    y = y_matrix(spin_generators(n))
    matches, sign = _phase_match(u_full, y, 1e-8)
    if not matches:
        raise ValueError(f"pulse propagator for (p, q, k)=({p}, {q}, {k}) is not proportional to Y")
    system = retrograde_hamiltonian(base)
    doubled_half = system.propagator(T / 2.0)
    records = []
    initials = []
    for i in range(1, n // 2 + 1):
        initial = (_basis_ket(n, i, i) + _basis_ket(n, n + 1 - i, n + 1 - i)) / np.sqrt(2.0)
        final = np.conj(sign) * (doubled_half @ initial)
        resid = float(abs(np.vdot(initial, final)))
        records.append(
            BasicCptRecord(index=i, initial=initial, final=final, orthogonality_residual=resid)
        )
        initials.append(initial)
    rng = np.random.default_rng(7)
    family = []
    for _ in range(20):
        coeffs = rng.normal(size=n // 2) + 1j * rng.normal(size=n // 2)
        coeffs = coeffs / np.linalg.norm(coeffs)
        psi0 = sum(c * ini for c, ini in zip(coeffs, initials))
        final = doubled_half @ psi0
        family.append((tuple(complex(c) for c in coeffs), float(abs(np.vdot(psi0, final)))))
    uniform = sum(initials) / np.sqrt(n // 2)
    uniform_final = np.conj(sign) * (doubled_half @ uniform)
    vy = vectorize(y) / np.sqrt(n)
    uniform_resid = float(np.max(np.abs(uniform_final - vy)))
    return BasicCptReport(
        n=n,
        p=p,
        q=q,
        k=k,
        sign=complex(sign),
        records=tuple(records),
        family_samples=tuple(family),
        uniform_initial=uniform,
        uniform_final=uniform_final,
        uniform_target_residual=uniform_resid,
    )


@dataclass(frozen=True)
class OddDimReport:
    """Why the three-level lift transfers population but not completely.

    The lifted pulse still sends V(I) to V(Y) at T/2, but those states
    overlap (|trace(Y)|/3 = 1/3), so the move is not a complete
    transfer; only the single pairwise transfer from
    (-|11> + |33>)/sqrt(2) is orthogonal. ``is_cpt`` is measured: V(I)
    must reach V(Y) and the two must be orthogonal, both to CPT_TOL.
    """

    p: int
    q: int
    k: float
    action_residual: float
    basic: BasicCptRecord
    vi_vy_overlap: float
    vi_to_vy_residual: float
    is_cpt: bool

    @property
    def action_matches(self) -> bool:
        return self.action_residual <= CPT_TOL


def odd_dim_demo(p: int, q: int, k: float = 0.0) -> OddDimReport:
    """Run the spin-1 lift and report the non-transfer diagnosis."""
    n = 3
    base = pythagorean_pulse(p, q, k, n=n)
    T = base.T
    u_full = ordered_propagator(base, 0.0, T)
    y = y_matrix(spin_generators(n))
    action_residual = float(np.max(np.abs(u_full - y)))
    u_half = ordered_propagator(base, 0.0, T / 2.0)
    e1 = np.zeros(n)
    e1[0] = 1.0
    e3 = np.zeros(n)
    e3[2] = 1.0
    recipe = general_recipe(u_full, u_half, e1, e3, phi=0.0)
    if recipe.initial is None:
        raise ValueError(f"spin-1 lift violated recipe preconditions: {recipe.violated}")
    basic = BasicCptRecord(
        index=1,
        initial=recipe.initial,
        final=recipe.final,
        orthogonality_residual=float(recipe.overlap),
    )
    system = retrograde_hamiltonian(base)
    vi = vectorize(np.eye(n)) / np.sqrt(n)
    vy = vectorize(y) / np.sqrt(n)
    moved = system.propagator(T / 2.0) @ vi
    ok, phase = _phase_match(moved, vy, 1e-8)
    vi_to_vy_residual = float(np.max(np.abs(moved - phase * vy))) if ok else float("inf")
    overlap = float(abs(np.vdot(vi, vy)))
    return OddDimReport(
        p=p,
        q=q,
        k=k,
        action_residual=action_residual,
        basic=basic,
        vi_vy_overlap=overlap,
        vi_to_vy_residual=vi_to_vy_residual,
        is_cpt=overlap <= CPT_TOL and vi_to_vy_residual <= CPT_TOL,
    )
