"""Doubled-space constructions: play a pulse forward on one factor and
backward on the other.

For a base schedule H(t) on [0, T] the doubled Hamiltonian is
``-H(T-t) (x) I + I (x) H(t)``; its propagator is kron(rev, fwd) with
rev = U(T-t, T) and fwd = U(t, 0). The semi variant conjugates the
reversed copy instead of negating it, and so conjugates rev. A doubled
state is the n x n operator X of V(X); since
``kron(A, B) @ V(X) = V(B X A^T)`` the doubled step maps X to
``fwd X rev^T``, and no n^2 x n^2 matrix is formed anywhere in this
module. Product states are outer products, |a b> = V(b a^T); reports
carry V(X).

Each quantity has one home. ``RetrogradeSystem.factors`` gives
(rev, fwd), and one call of it at T/2 is the only source of every
doubled-space propagator: ``check_equivalence`` takes U(T/2, 0) = fwd,
U(T, T/2) from rev and U(T, 0) as their product, gates y against the
two half steps (U(T, 0) then intertwines y to a stated bound), measures
U(T, 0) and the image fwd rev^T of V(I) at T/2, each with its phase and
residual against y, plus trace(y); ``basic_cpts`` takes its sign,
"proportional to Y" gate and (rev, fwd) from that one computation, at
every n >= 2: the (2m)^2- and (2m+1)^2-level cases differ only in the
lift, through Y_n^2 = (-1)^(n-1) I, and at odd n the report measures
why the transfer is incomplete (|trace(Y)|/n = 1/n); its pairwise and
combination verdicts all read one bilinear form G = D^T (fwd o rev) D
of the pair vectors D, and ``all_ok`` reads its bound ||G||_2, which
bounds every pair's |G_ii|. ``general_recipe`` is the two-state
transfer, judged on its 2-norm residual alone, which bounds the
measured orthogonality overlap; ``time_independent_conditions`` is one
call to it, and with a constant H every U(s) (x) U(s)-translate of its
state has the measured overlap and 2-norm residual.
``ordered_propagator`` multiplies, in one pass, every segment overlap
of positive length, compared exactly, and returns the adjoint for a
reversed one, so ``factors`` costs two calls.

``check_equivalence`` and ``basic_cpts`` each take a ``tol`` (default
CPT_TOL), reject one that is not finite and positive, and judge every
verdict of their reports with it: the two sides of the equivalence,
``is_cpt``, the pairwise ``ok`` and ``all_ok``. The preconditions of
``general_recipe``, the intertwining gate (INTERTWINING_TOL) and the
"proportional to Y" gate (PROPORTIONAL_TO_Y_TOL) stay fixed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dynamics import build_h_single
from .linalg import matexp_unitary, require_hermitian, require_normalized, require_unitary, vectorize
from .su2 import y_matrix
from .tolerances import (
    CPT_TOL, INTERTWINING_TOL, PARTIAL_OVERLAP_MAX, PHASE_MEASURABLE_MIN, PROPORTIONAL_TO_Y_TOL, TIME_SLACK,
    require_tol,
)
from .triples import params_from_pair


@dataclass(frozen=True)
class PulseSchedule:
    """Piecewise-constant Hamiltonian: ordered (generator, duration) segments, their durations summed once."""

    segments: tuple[tuple[np.ndarray, float], ...]

    def __post_init__(self):
        if not self.segments:
            raise ValueError("schedule needs at least one segment")
        dim = self.segments[0][0].shape[0]
        bounds = [0.0]
        for h, d in self.segments:
            if h.shape != (dim, dim):
                raise ValueError("all segments must share one dimension")
            if not (math.isfinite(d) and d > 0):
                raise ValueError(f"segment durations must be finite and positive, got {d}")
            require_hermitian(h, "segment generator")
            bounds.append(bounds[-1] + float(d))
        object.__setattr__(self, "_bounds", tuple(bounds))  # the one sum that T, boundaries and ordered_propagator read

    @property
    def dim(self) -> int:
        return self.segments[0][0].shape[0]

    @property
    def T(self) -> float:
        return self._bounds[-1]

    def boundaries(self) -> np.ndarray:
        return np.array(self._bounds)


def ordered_propagator(schedule: PulseSchedule, t0: float, t1: float) -> np.ndarray:
    """Time-ordered propagator U(t1, t0) of a piecewise-constant schedule.

    One pass multiplies the segments of [min(t0, t1), max(t0, t1)],
    partial segments exactly; ``t1 < t0`` returns the adjoint of that
    product, so the group property U(t3, t2) U(t2, t1) = U(t3, t1)
    holds for any ordering of times, and ``t1 == t0`` gives the identity.
    The product starts from the first overlapped segment's exponential.
    Times are compared exactly with the schedule's boundaries; a time may
    lie TIME_SLACK * T outside [0, T], and the interval is clipped to it.
    """
    T = schedule.T
    for t in (t0, t1):
        if not -TIME_SLACK * T <= t <= T + TIME_SLACK * T:  # NaN fails this too
            raise ValueError(f"time {t} outside schedule range [0, {T}]")
    t_lo, t_hi = min(t0, t1), max(t0, t1)
    u = None
    for (h, _), start, end in zip(schedule.segments, schedule._bounds, schedule._bounds[1:]):
        lo, hi = max(t_lo, start), min(t_hi, end)
        if hi > lo:
            step = matexp_unitary(h, hi - lo)
            u = step if u is None else step @ u
    if u is None:
        return np.eye(schedule.dim, dtype=complex)
    return u.conj().T if t1 < t0 else u


def pythagorean_pulse(p: int, q: int, k: float = 0.0, n: int = 2) -> PulseSchedule:
    """Two-segment pulse whose full propagator is the anti-diagonal Y.

    First segment drives with (delta1, omega1), the second with the
    negated (delta2, omega2), each for the transfer time tau; in the
    two-level case U(T, 0) = (-1)^((p+q)/2) [[0, 1], [-1, 0]]. The
    optional ``n`` lifts the same drive to the spin-(n-1)/2
    representation.
    """
    params = params_from_pair(p, q, k)
    tau = params.tau
    h_a = build_h_single(n, params.delta1, params.omega1)
    h_b = -build_h_single(n, params.delta2, params.omega2)
    return PulseSchedule(segments=((h_a, tau), (h_b, tau)))


@dataclass(frozen=True)
class RetrogradeSystem:
    """Doubled-space system for a base schedule.

    The doubled Hamiltonian is never formed: ``factors`` returns the two
    base-schedule propagators whose Kronecker product is the doubled
    propagator.
    """

    base: PulseSchedule
    variant: str  # "retrograde" | "semi"

    def __post_init__(self):
        if self.variant not in ("retrograde", "semi"):
            raise ValueError(f"unknown variant {self.variant!r}")

    def factors(self, t: float) -> tuple[np.ndarray, np.ndarray]:
        """(rev, fwd) = (U(T-t, T), U(t, 0)), rev conjugated for "semi".

        The doubled step at t maps the operator X of V(X) to fwd X rev^T.
        """
        T = self.base.T
        rev = ordered_propagator(self.base, T, T - t)
        fwd = ordered_propagator(self.base, 0.0, t)
        return (rev.conj() if self.variant == "semi" else rev), fwd


def _phase_match(u: np.ndarray, target: np.ndarray, tol: float) -> tuple[bool, complex, float]:
    """Does u equal target up to a global unit phase? Returns (ok, phase, residual).

    residual = max|u - phase * target|; without a measurable overlap the
    raw overlap stands in for the phase and the match fails.
    """
    inner = np.vdot(target, u) / (np.linalg.norm(target) ** 2)
    measurable = bool(abs(inner) >= PHASE_MEASURABLE_MIN)
    phase = inner / abs(inner) if measurable else inner
    residual = float(np.abs(u - phase * target).max())
    return measurable and residual <= tol, complex(phase), residual


@dataclass(frozen=True)
class EquivalenceReport:
    """Numerical check of the propagator <-> doubled-state equivalence.

    ``propagator_matches`` is the direct statement U(T,0) = phase * y;
    ``doubled_state_matches`` is the doubled-space statement that
    V(I)/sqrt(n) flows to V(y)/sqrt(n) at T/2. Each side is measured on
    its own, so the equivalence shows as the two agreeing; each
    residual is its side's max-entry distance from the phased target.
    """

    propagator_matches: bool
    doubled_state_matches: bool
    propagator_phase: complex
    doubled_phase: complex
    propagator_residual: float
    doubled_state_residual: float
    is_cpt: bool
    trace_y: complex

    def as_pair(self) -> tuple[bool, bool]:
        return (self.propagator_matches, self.doubled_state_matches)

    @property
    def passed(self) -> bool:
        return self.propagator_matches and self.doubled_state_matches

    def as_json(self) -> dict:
        """The report as plain JSON values, each phase as [re, im]; ``trace_y`` is left out."""
        return {
            "forward": self.propagator_matches,
            "backward": self.doubled_state_matches,
            "propagator_phase": [self.propagator_phase.real, self.propagator_phase.imag],
            "doubled_phase": [self.doubled_phase.real, self.doubled_phase.imag],
            "propagator_residual": self.propagator_residual,
            "doubled_state_residual": self.doubled_state_residual,
            "is_cpt": self.is_cpt,
            "pass": self.passed,
        }


def check_equivalence(
    base: PulseSchedule,
    y: np.ndarray,
    variant: str = "retrograde",
    tol: float = CPT_TOL,
) -> EquivalenceReport:
    """Verify both directions of U(T,0) = y <=> doubled V(I) -> V(y).

    ``y`` must be unitary and must intertwine the two half steps the
    equivalence is built from, fwd = U(T/2, 0) and back = U(T, T/2):
    each such u has to satisfy u y u^T = y for the retrograde variant
    (u y u^dagger = y for the semi variant), to INTERTWINING_TOL in
    max-entry distance r; anything else is rejected since the equivalence is
    meaningless there. The full propagator U(T, 0) = back fwd then
    intertwines y too: with u y u^T = y + E for u = fwd, back (errors
    E1, E2), back fwd y (back fwd)^T - y = E2 + back E1 back^T, and
    max|back E1 back^T| <= ||E1||_2 <= n max|E1|, so
    r_full <= r_back + n r_fwd (likewise with ^dagger); it is not gated
    again. Also reports whether the overlap |trace(y)|/n of
    V(I)/sqrt(n) and V(y)/sqrt(n) is <= tol, i.e. whether the
    doubled-space transfer is between orthogonal states.
    ``tol`` must be finite and positive.
    """
    require_tol(tol)
    return _equivalence(base, y, variant, tol)[0]


def _equivalence(
    base: PulseSchedule, y: np.ndarray, variant: str, tol: float
) -> tuple[EquivalenceReport, np.ndarray, np.ndarray]:
    """check_equivalence's report with the T/2 factors (rev, fwd) it measured.

    One ``factors(T/2)`` call gives fwd = U(T/2, 0) and rev, from which
    U(T, T/2) is rev^dagger (rev^T for "semi") and U(T, 0) = U(T, T/2) fwd.
    """
    y = np.asarray(y, dtype=complex)
    dim = base.dim
    if y.shape != (dim, dim):
        raise ValueError(f"y has shape {y.shape}, expected {(dim, dim)}")
    require_unitary(y, "y")
    rev, fwd = RetrogradeSystem(base=base, variant=variant).factors(base.T / 2.0)
    back = rev.T if variant == "semi" else rev.conj().T  # U(T, T/2)
    us = np.array((fwd, back))
    adjoint = us.transpose(0, 2, 1) if variant == "retrograde" else us.conj().transpose(0, 2, 1)
    for resid in np.abs(us @ y @ adjoint - y).max(axis=(1, 2)):
        if not resid <= INTERTWINING_TOL:
            raise ValueError(
                f"y does not intertwine the schedule's unitaries (residual {resid:.3e})"
            )
    prop_ok, prop_phase, prop_resid = _phase_match(back @ fwd, y, tol)
    root = math.sqrt(dim)
    # V(I)/sqrt(n) moved to T/2 is V(fwd rev^T)/sqrt(n)
    state_ok, state_phase, state_resid = _phase_match(fwd @ rev.T / root, y / root, tol)
    trace_y = complex(y.trace())
    report = EquivalenceReport(
        propagator_matches=prop_ok,
        doubled_state_matches=state_ok,
        propagator_phase=prop_phase,
        doubled_phase=state_phase,
        propagator_residual=prop_resid,
        doubled_state_residual=state_resid,
        is_cpt=abs(trace_y) / dim <= tol,
        trace_y=trace_y,
    )
    return report, rev, fwd


@dataclass(frozen=True)
class RecipeResult:
    """Outcome of the general two-state transfer recipe.

    When the preconditions hold the normalized initial and final
    doubled states are populated, and ``ok`` certifies that the doubled
    half step carries initial to final: ``transfer_residual``, the
    2-norm ||image - final||_2, is at most CPT_TOL. That image is then
    orthogonal to initial as well. initial is a symmetric and final an
    antisymmetric operator, so <initial|final> = 0 up to the rounding of
    its sum, and by Cauchy-Schwarz the measured
    ``overlap`` = |<initial|image>| <= ``transfer_residual`` + that
    rounding. Otherwise ``violated`` names the failed preconditions and
    the states are None.
    """

    ok: bool
    violated: tuple[str, ...]
    initial: np.ndarray | None = None
    final: np.ndarray | None = None
    transfer_residual: float | None = None
    overlap: float | None = None


def general_recipe(
    u_full: np.ndarray, u_half: np.ndarray, i_state: np.ndarray, f_state: np.ndarray, phi: float
) -> RecipeResult:
    """Complete-transfer recipe for any system with a two-state cycle.

    Given U(T,0), U(T/2,0) and normalized states with
    |<i|f>| < 1, U(T,0)|i> = |f> and U(T,0)|f> = e^{i phi}|i>, the
    doubled dynamics carries the normalization of
    -e^{i phi}|ii> + |ff> into -|hg> + |gh> (g, h the half-time images
    of i, f), and the two are orthogonal. An unnormalized state raises
    ValueError; the three cycle preconditions are reported by name
    instead of raised, since callers typically scan candidate
    (i, f, phi) tuples.
    """
    i_state = require_normalized(i_state, "i_state")
    f_state = require_normalized(f_state, "f_state")
    violated = []
    overlap_if = abs(np.vdot(i_state, f_state))
    if not overlap_if < PARTIAL_OVERLAP_MAX:
        violated.append("overlap_not_below_one")
    if not np.max(np.abs(u_full @ i_state - f_state)) <= CPT_TOL:
        violated.append("u_full_does_not_map_i_to_f")
    if not np.max(np.abs(u_full @ f_state - np.exp(1j * phi) * i_state)) <= CPT_TOL:
        violated.append("u_full_does_not_map_f_back_to_i")
    if violated:
        return RecipeResult(ok=False, violated=tuple(violated))
    g = u_half @ i_state
    h = u_half @ f_state
    # operators of the doubled states, |a b> = V(b a^T)
    initial = -np.exp(1j * phi) * np.outer(i_state, i_state) + np.outer(f_state, f_state)
    initial = initial / np.linalg.norm(initial)
    final = -np.outer(g, h) + np.outer(h, g)
    final = final / np.linalg.norm(final)
    # U(T/2, T) = (U(T, T/2))^dagger with U(T, T/2) = U(T,0) U(T/2,0)^dagger
    u_rev = (u_full @ u_half.conj().T).conj().T
    image = u_half @ initial @ u_rev.T
    residual = float(np.linalg.norm(image - final))
    # measured on the image: <initial|final> vanishes by symmetry alone
    overlap = float(abs(np.vdot(initial, image)))
    return RecipeResult(
        ok=residual <= CPT_TOL,
        violated=(),
        initial=vectorize(initial),
        final=vectorize(final),
        transfer_residual=residual,
        overlap=overlap,
    )


@dataclass(frozen=True)
class TimeIndependentReport:
    """The recipe for (i, U(T)i) under a constant H; both conditions read ``recipe.violated``.

    The phase cycle U(2T)|i> = e^{i phi}|i> is the precondition
    ``u_full_does_not_map_f_back_to_i``, the partial overlap
    |<i|U(T)|i>| < 1 is ``overlap_not_below_one``. ``phi`` is None when
    the cycle fails; ``return_residual`` and ``half_overlap`` are measured
    either way.
    """

    phi: float | None
    return_residual: float
    half_overlap: float
    recipe: RecipeResult

    @property
    def condition_phase_cycle(self) -> bool:
        return "u_full_does_not_map_f_back_to_i" not in self.recipe.violated

    @property
    def condition_partial_overlap(self) -> bool:
        return "overlap_not_below_one" not in self.recipe.violated

    @property
    def both_hold(self) -> bool:
        return self.condition_phase_cycle and self.condition_partial_overlap


def time_independent_conditions(h: np.ndarray, i_state: np.ndarray, T: float) -> TimeIndependentReport:
    """The recipe for (i, f = U(T)i) from U(T) and U(T/2), with phi from matching U(T)f to i.

    U(s) (x) U(s) is unitary, commutes with the constant-H doubled step
    and maps the recipe state for (i, f) to the one for (U(s)i, U(s)f):
    every translate, s real, has ``recipe``'s overlap and 2-norm residual.
    """
    i_state = require_normalized(i_state, "state")
    u_t = matexp_unitary(h, T)
    f_state = u_t @ i_state
    _, phase, return_residual = _phase_match(u_t @ f_state, i_state, CPT_TOL)
    phi = float(np.angle(phase))
    recipe = general_recipe(u_t, matexp_unitary(h, T / 2.0), i_state, f_state, phi)
    return TimeIndependentReport(
        phi=None if "u_full_does_not_map_f_back_to_i" in recipe.violated else phi,
        return_residual=return_residual,
        half_overlap=float(abs(np.vdot(i_state, f_state))),
        recipe=recipe,
    )


@dataclass(frozen=True)
class BasicCptRecord:
    """One pairwise transfer (|ii> + (-1)^n |n+1-i, n+1-i>)/sqrt(2) -> image at T/2."""

    index: int
    initial: np.ndarray
    final: np.ndarray
    orthogonality_residual: float
    tolerance: float

    @property
    def ok(self) -> bool:
        return self.orthogonality_residual <= self.tolerance


@dataclass(frozen=True)
class BasicCptReport:
    """All pairwise transfers of a lifted pulse, plus their combinations.

    Final states are reported with the measured global sign of
    U(T, 0) divided out, so different (p, q) produce directly
    comparable vectors; the raw sign sits in ``sign``. No unit combination
    of the pairwise initial states overlaps its image by more than
    ``combination_bound``. The uniform state V(I)/sqrt(n) reaches the universal V(Y)/sqrt(n) independently
    of the drive; at even n it is the uniform combination of the
    pairwise initial states. ``equivalence`` is the
    :func:`check_equivalence` report of the pulse against Y that the
    sign and the half-step factors come from; its ``is_cpt`` is False
    at odd n, where V(I) and V(Y) overlap by |trace(Y)|/n = 1/n.
    """

    n: int
    p: int
    q: int
    k: float
    sign: complex
    equivalence: EquivalenceReport
    records: tuple[BasicCptRecord, ...]
    combination_bound: float
    uniform_initial: np.ndarray
    uniform_final: np.ndarray
    uniform_target_residual: float
    tolerance: float

    @property
    def all_ok(self) -> bool:
        return self.combination_bound <= self.tolerance and self.uniform_target_residual <= self.tolerance

    @property
    def passed(self) -> bool:
        return self.equivalence.passed and self.all_ok

    def as_json(self) -> dict:
        """The equivalence's JSON, then each pair's verdict, the uniform residual, the sign as [re, im]."""
        payload = self.equivalence.as_json()
        del payload["pass"]  # re-added last, as this report's own verdict
        payload["pairwise_transfers"] = [
            {"index": r.index, "orthogonality_residual": r.orthogonality_residual, "ok": r.ok} for r in self.records
        ]
        payload["uniform_target_residual"] = self.uniform_target_residual
        payload["sign"] = [self.sign.real, self.sign.imag]
        payload["pass"] = self.passed
        return payload


def basic_cpts(n: int, p: int, q: int, k: float = 0.0, tol: float = CPT_TOL) -> BasicCptReport:
    """Pairwise transfers of the lifted pulse in dimension n >= 2.

    Y_n^2 = (-1)^(n-1) I, so level i and its mirror n+1-i pair into the
    initial state (|ii> + (-1)^n |n+1-i,n+1-i>)/sqrt(2); at odd n the
    middle level is its own mirror and forms no pair. A state V(diag(b))
    moves to V(fwd diag(b) rev^T) at T/2, and its overlap with V(diag(a))
    is a^T (fwd o rev) b, o the elementwise product. So with D the
    n x (n // 2) matrix of pair vectors, G = D^T (fwd o rev) D holds every
    overlap: pair i is orthogonal to its image to |G_ii|, and every unit
    combination c to |c^dagger G c| <= ||G||_2 = ``combination_bound``.
    The uniform state V(I)/sqrt(n) is compared against the universal
    target V(Y)/sqrt(n). The verdicts ``ok`` and ``all_ok`` read the
    finite positive ``tol``; ``all_ok`` judges ``combination_bound`` and
    the uniform residual, and every pair's ``ok`` follows from the first,
    since |G_ii| = |e_i^T G e_i| <= ||G||_2.
    """
    require_tol(tol)
    base = pythagorean_pulse(p, q, k, n=n)
    y = y_matrix(n)
    equiv, rev, fwd = _equivalence(base, y, "retrograde", tol)
    if equiv.propagator_residual > PROPORTIONAL_TO_Y_TOL:
        raise ValueError(f"pulse propagator for (p, q, k)=({p}, {q}, {k}) is not proportional to Y")
    sign = equiv.propagator_phase

    def final(d: np.ndarray) -> np.ndarray:  # V(diag(d)) at T/2, the measured sign divided out
        return np.conj(sign) * vectorize((fwd * d) @ rev.T)

    pairs = np.arange(n // 2)
    d = np.zeros((n, n // 2))
    d[pairs, pairs] = 1.0 / np.sqrt(2.0)
    d[n - 1 - pairs, pairs] = (-1.0) ** n / np.sqrt(2.0)
    gram = d.T @ (fwd * rev) @ d
    records = tuple(
        BasicCptRecord(i + 1, vectorize(np.diag(col)), final(col), float(abs(gram[i, i])), tol)
        for i, col in enumerate(d.T)
    )
    uniform = np.full(n, 1.0 / np.sqrt(2.0)) / np.sqrt(n / 2)  # V(I)/sqrt(n) as V(diag(uniform))
    uniform_final = final(uniform)
    uniform_resid = float(np.max(np.abs(uniform_final - vectorize(y) / np.sqrt(n))))
    return BasicCptReport(
        n=n,
        p=p,
        q=q,
        k=k,
        sign=sign,
        equivalence=equiv,
        records=records,
        combination_bound=float(np.linalg.norm(gram, 2)),
        uniform_initial=vectorize(np.diag(uniform)),
        uniform_final=uniform_final,
        uniform_target_residual=uniform_resid,
        tolerance=tol,
    )
