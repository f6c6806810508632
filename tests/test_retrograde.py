import numpy as np
import pytest

from pythcpt import retrograde
from pythcpt.linalg import kron, matexp_unitary, vectorize
from pythcpt.retrograde import (
    PulseSchedule,
    RetrogradeSystem,
    basic_cpts,
    check_equivalence,
    general_recipe,
    ordered_propagator,
    pythagorean_pulse,
    time_independent_conditions,
)
from pythcpt.su2 import y_matrix
from pythcpt.triples import params_from_pair

SZ = np.diag([1.0, -1.0]).astype(complex)
Y2 = np.array([[0.0, 1.0], [-1.0, 0.0]], dtype=complex)


def random_schedule(rng, dim=2, n_segments=3):
    segs = []
    for _ in range(n_segments):
        m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        segs.append(((m + m.conj().T) / 2, float(rng.uniform(0.2, 1.5))))
    return PulseSchedule(segments=tuple(segs))


def generator_at(base, t):
    """Segment generator of ``base`` active at time t (right-continuous)."""
    idx = int(np.searchsorted(base.boundaries()[1:-1], t, side="right"))
    return base.segments[idx][0]


def doubled_schedule(base, variant):
    """Explicit piecewise-constant doubled schedule, the oracle for the factorized propagator.

    Its boundaries are the union of the base boundaries and their time
    reversal; each segment is -H(T-t) (x) I + I (x) H(t) (retrograde)
    or H*(T-t) (x) I + I (x) H(t) (semi) at the segment midpoint.
    """
    T = base.T
    bounds = np.unique(np.concatenate([base.boundaries(), T - base.boundaries()]))
    eye = np.eye(base.dim)
    segs = []
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        mid = 0.5 * (lo + hi)
        h_fwd = generator_at(base, mid)
        h_rev = generator_at(base, T - mid)
        first = -h_rev if variant == "retrograde" else h_rev.conj()
        segs.append((kron(first, eye) + kron(eye, h_fwd), float(hi - lo)))
    return PulseSchedule(segments=tuple(segs))


def ket(n, *indices):
    """Product basis vector |i j ...> with 1-based indices."""
    vecs = []
    for i in indices:
        v = np.zeros(n)
        v[i - 1] = 1.0
        vecs.append(v)
    out = vecs[0]
    for v in vecs[1:]:
        out = kron(out, v)
    return out


def test_schedule_validation():
    with pytest.raises(ValueError):
        PulseSchedule(segments=())
    with pytest.raises(ValueError, match="positive"):
        PulseSchedule(segments=((SZ, 0.0),))
    with pytest.raises(ValueError, match="Hermitian"):
        PulseSchedule(segments=((np.array([[0.0, 1.0], [0.0, 0.0]]), 1.0),))
    with pytest.raises(ValueError, match="dimension"):
        PulseSchedule(segments=((SZ, 1.0), (np.eye(3, dtype=complex), 1.0)))


@pytest.mark.parametrize("duration", [float("nan"), float("inf")])
def test_schedule_rejects_non_finite_duration(duration):
    with pytest.raises(ValueError, match="finite and positive"):
        PulseSchedule(segments=((SZ, duration),))


def test_single_segment_propagator():
    sched = PulseSchedule(segments=((SZ, 2.0),))
    for t in (0.5, 1.3, 2.0):
        assert np.max(np.abs(ordered_propagator(sched, 0.0, t) - matexp_unitary(SZ, t))) < 1e-12


def test_propagator_composition():
    rng = np.random.default_rng(23)
    sched = random_schedule(rng)
    T = sched.T
    times = rng.uniform(0.0, T, size=6)
    for t1 in times[:3]:
        for t2 in times[3:]:
            for t3 in (0.0, T / 2, T):
                lhs = ordered_propagator(sched, t2, t3) @ ordered_propagator(sched, t1, t2)
                rhs = ordered_propagator(sched, t1, t3)
                assert np.max(np.abs(lhs - rhs)) < 1e-10


def test_propagator_partial_segments():
    h1 = np.array([[0.4, 0.9], [0.9, -0.4]], dtype=complex)
    h2 = np.array([[1.2, -0.3j], [0.3j, 0.1]], dtype=complex)
    sched = PulseSchedule(segments=((h1, 1.0), (h2, 2.0)))
    # a window straddling the boundary, built by hand
    expected = matexp_unitary(h2, 0.7) @ matexp_unitary(h1, 0.6)
    got = ordered_propagator(sched, 0.4, 1.7)
    assert np.max(np.abs(got - expected)) < 1e-12
    # reversed times give the adjoint
    assert np.max(np.abs(ordered_propagator(sched, 1.7, 0.4) - expected.conj().T)) < 1e-12


def test_propagator_equal_times_and_range():
    rng = np.random.default_rng(2)
    sched = random_schedule(rng)
    assert np.array_equal(ordered_propagator(sched, 0.7, 0.7), np.eye(2, dtype=complex))
    with pytest.raises(ValueError, match="outside"):
        ordered_propagator(sched, 0.0, sched.T + 1.0)


@pytest.mark.parametrize("t", [float("nan"), float("inf"), -float("inf")])
def test_propagator_rejects_non_finite_times(t):
    sched = PulseSchedule(segments=((SZ, 1.0),))
    for t0, t1 in ((0.0, t), (t, 0.0), (t, t)):
        with pytest.raises(ValueError, match="outside"):
            ordered_propagator(sched, t0, t1)


@pytest.mark.parametrize("t", [-1.0, -1e-9, 1.0 + 1e-9, 2.0])
def test_propagator_rejects_finite_times_outside_the_schedule(t):
    sched = PulseSchedule(segments=((SZ, 1.0),))
    for t0, t1 in ((0.0, t), (t, 0.0), (t, t), (1.0, t), (t, 1.0)):
        with pytest.raises(ValueError, match="outside"):
            ordered_propagator(sched, t0, t1)


def test_reversed_interval_is_the_exact_adjoint():
    rng = np.random.default_rng(31)
    for dim in (2, 3, 5):
        sched = random_schedule(rng, dim=dim)
        times = np.concatenate([[0.0, sched.T], sched.boundaries()[1:-1], rng.uniform(0.0, sched.T, 3)])
        for t0 in times:
            for t1 in times[times < t0]:
                backward = ordered_propagator(sched, t0, t1)
                assert np.array_equal(backward, ordered_propagator(sched, t1, t0).conj().T)


def test_equal_times_give_the_identity_without_exponentiating(monkeypatch):
    calls = []

    def counting(h, t):
        calls.append(t)
        return matexp_unitary(h, t)

    monkeypatch.setattr(retrograde, "matexp_unitary", counting)
    sched = random_schedule(np.random.default_rng(4), dim=3)
    for t in (0.0, sched.boundaries()[1], 0.5 * sched.T, sched.T):
        u = ordered_propagator(sched, t, t)
        assert u.dtype == np.complex128
        assert np.array_equal(u, np.eye(3, dtype=complex))
    assert calls == []


@pytest.mark.parametrize("variant", ["retrograde", "semi"])
def test_factors_takes_one_propagator_call_per_factor(monkeypatch, variant):
    calls = []
    real = retrograde.ordered_propagator

    def counting(schedule, t0, t1):
        calls.append((t0, t1))
        return real(schedule, t0, t1)

    monkeypatch.setattr(retrograde, "ordered_propagator", counting)
    pulse = pythagorean_pulse(3, 1, 0.3)
    t = 0.25 * pulse.T
    RetrogradeSystem(base=pulse, variant=variant).factors(t)
    assert calls == [(pulse.T, pulse.T - t), (0.0, t)]


def test_pulse_durations():
    params = params_from_pair(3, 1, 0.0)
    pulse = pythagorean_pulse(3, 1, 0.0)
    assert pulse.segments[0][1] == params.tau
    assert pulse.segments[1][1] == params.tau
    assert abs(pulse.T - 2 * params.tau) < 1e-15


def test_pulse_propagator_sign():
    for p, q in ((3, 1), (5, 1)):
        pulse = pythagorean_pulse(p, q, 0.0)
        u = ordered_propagator(pulse, 0.0, pulse.T)
        sign = (-1.0) ** ((p + q) // 2)
        assert np.max(np.abs(u - sign * Y2)) < 1e-10


def test_retrograde_moves_scalar_to_target():
    pulse = pythagorean_pulse(3, 1, 0.0)
    system = RetrogradeSystem(pulse, "retrograde")
    moved = kron(*system.factors(pulse.T / 2.0)) @ vectorize(np.eye(2))
    assert np.max(np.abs(moved - vectorize(Y2))) < 1e-10


def test_doubled_schedule_matches_factorized():
    rng = np.random.default_rng(6)
    for variant in ("retrograde", "semi"):
        sched = random_schedule(rng, dim=2, n_segments=3)
        system = RetrogradeSystem(sched, variant)
        for t in (0.0, 0.4, sched.T / 2, sched.T):
            direct = ordered_propagator(doubled_schedule(sched, system.variant), 0.0, t)
            assert np.max(np.abs(direct - kron(*system.factors(t)))) < 1e-10


def test_time_reversal_symmetric_base_structure():
    # H(t) = -H(T-t) by construction makes the doubled generator a plain sum
    h = np.array([[0.3, 0.5], [0.5, -0.3]], dtype=complex)
    base = PulseSchedule(segments=((h, 1.0), (-h, 1.0)))
    doubled = doubled_schedule(base, "retrograde")
    eye = np.eye(2)
    assert len(doubled.segments) == 2
    seg0 = doubled.segments[0][0]
    assert np.max(np.abs(seg0 - (kron(h, eye) + kron(eye, h)))) < 1e-14
    seg1 = doubled.segments[1][0]
    assert np.max(np.abs(seg1 - (kron(-h, eye) + kron(eye, -h)))) < 1e-14


def test_semi_equals_retro_up_to_first_factor_sign_for_real_base():
    h = np.array([[0.2, 1.1], [1.1, -0.2]], dtype=complex)
    base = PulseSchedule(segments=((h, 0.8), (2 * h, 0.5)))
    retro = RetrogradeSystem(base, "retrograde")
    semi = RetrogradeSystem(base, "semi")
    eye = np.eye(2)
    retro_doubled = doubled_schedule(base, "retrograde")
    semi_doubled = doubled_schedule(base, "semi")
    bounds = semi_doubled.boundaries()
    for idx, ((a, da), (b, db)) in enumerate(zip(retro_doubled.segments, semi_doubled.segments)):
        assert da == db
        # retro: -H_rev (x) I + I (x) H; semi with real H: +H_rev (x) I + I (x) H
        mid = 0.5 * (bounds[idx] + bounds[idx + 1])
        h_rev = generator_at(base, base.T - mid)
        assert np.max(np.abs(b - a - 2.0 * kron(h_rev, eye))) < 1e-12
    # the propagators differ exactly by conjugating the first factor
    for t in (0.3, 0.65, base.T):
        rev = ordered_propagator(base, base.T - 0.0, base.T - t)
        fwd = ordered_propagator(base, 0.0, t)
        assert np.max(np.abs(kron(*retro.factors(t)) - kron(rev, fwd))) < 1e-10
        assert np.max(np.abs(kron(*semi.factors(t)) - kron(rev.conj(), fwd))) < 1e-10


def test_check_equivalence_pythagorean():
    for p, q in ((3, 1), (5, 1)):
        rep = check_equivalence(pythagorean_pulse(p, q, 0.0), y_matrix(2))
        assert rep.as_pair() == (True, True)
        sign = (-1.0) ** ((p + q) // 2)
        assert abs(rep.propagator_phase - sign) < 1e-8
        assert abs(rep.doubled_phase - sign) < 1e-8
        assert rep.propagator_residual < 1e-9 and rep.doubled_state_residual < 1e-9
        assert rep.is_cpt


def test_check_equivalence_negative_control():
    control = PulseSchedule(segments=((SZ, 1.0),))
    rep = check_equivalence(control, y_matrix(2))
    assert rep.as_pair() == (False, False)
    assert not rep.propagator_matches
    assert not rep.doubled_state_matches
    assert rep.propagator_residual > 0.1 and rep.doubled_state_residual > 0.1


def test_check_equivalence_spin_one_lift():
    rep = check_equivalence(pythagorean_pulse(3, 1, 0.0, n=3), y_matrix(3))
    assert rep.as_pair() == (True, True)
    assert not rep.is_cpt
    assert abs(rep.trace_y + 1.0) < 1e-9  # trace(Y_3) = -1


def test_check_equivalence_semi_identity():
    base = PulseSchedule(segments=((SZ, 2.0 * np.pi),))
    rep = check_equivalence(base, np.eye(2, dtype=complex), variant="semi")
    assert rep.as_pair() == (True, True)
    assert not rep.is_cpt
    assert abs(rep.trace_y - 2.0) < 1e-12


def test_check_equivalence_semi_scalar_not_preserved():
    base = PulseSchedule(segments=((SZ, 1.0),))
    rep = check_equivalence(base, np.eye(2, dtype=complex), variant="semi")
    assert rep.as_pair() == (False, False)


def su2_log(m):
    """Hermitian traceless h with exp(-i h) = m, for m in SU(2)."""
    sx = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    sy = np.array([[0.0, -1.0j], [1.0j, 0.0]])
    sz = SZ
    a0 = complex(np.trace(m)) / 2.0
    theta = float(np.arccos(np.clip(a0.real, -1.0, 1.0)))
    if abs(np.sin(theta)) < 1e-12:
        # m = +I or -I; any rotation axis serves for the half turn
        return np.zeros((2, 2), dtype=complex) if theta < np.pi / 2 else np.pi * sz
    coef = np.array([np.trace(p @ m) / 2.0 for p in (sx, sy, sz)])
    direction = (coef / (-1j * np.sin(theta))).real
    return theta * (direction[0] * sx + direction[1] * sy + direction[2] * sz)


def test_biconditional_over_random_schedules():
    # both sides of the equivalence must agree on every schedule, whether
    # or not the full-period propagator happens to be the target rotation
    rng = np.random.default_rng(31)
    y = y_matrix(2)
    for trial in range(10):
        segs = []
        for _ in range(3):
            m = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            h = (m + m.conj().T) / 2
            h = h - np.trace(h) / 2 * np.eye(2)  # traceless, so u stays in SU(2)
            segs.append((h, float(rng.uniform(0.2, 1.0))))
        complete = trial % 2 == 0
        if complete:
            u_partial = ordered_propagator(PulseSchedule(segments=tuple(segs)), 0.0, sum(d for _, d in segs))
            segs.append((su2_log(y @ u_partial.conj().T), 1.0))
        sched = PulseSchedule(segments=tuple(segs))
        rep = check_equivalence(sched, y)
        assert rep.propagator_matches == rep.doubled_state_matches
        assert rep.as_pair() == ((True, True) if complete else (False, False))
        if complete:
            assert abs(rep.propagator_phase - rep.doubled_phase) < 1e-7


def test_check_equivalence_rejects_non_unitary():
    with pytest.raises(ValueError, match="unitary"):
        check_equivalence(pythagorean_pulse(3, 1, 0.0), np.diag([1.0, 2.0]).astype(complex))


def test_check_equivalence_rejects_non_intertwiner():
    with pytest.raises(ValueError, match="intertwine"):
        check_equivalence(pythagorean_pulse(3, 1, 0.0), SZ)


def test_intertwining_is_checked_on_the_half_period_propagators():
    # the segments do not keep Y_2 (the first two carry a phase), but
    # U(T/2, 0), U(T, T/2) and U(T, 0) are what the equivalence uses
    sx = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    sy = np.array([[0.0, -1.0j], [1.0j, 0.0]])
    eye = np.eye(2)
    base = PulseSchedule(segments=((sx + 0.3 * eye, 1.0), (SZ - 0.3 * eye, 1.0), (sy, 2.0)))
    rep = check_equivalence(base, y_matrix(2))
    assert rep.propagator_matches == rep.doubled_state_matches
    assert rep.as_pair() == (False, False)
    assert rep.propagator_residual > 0.1 and rep.doubled_state_residual > 0.1


@pytest.mark.parametrize(
    "report",
    [
        lambda: check_equivalence(pythagorean_pulse(7, 3, 0.3, n=4), y_matrix(4)),
        lambda: basic_cpts(4, 7, 3, 0.3),
        lambda: basic_cpts(3, 7, 3, 0.3),  # the odd-dimension demo is basic_cpts at n = 3
    ],
    ids=["check_equivalence", "basic_cpts", "odd_dim_demo"],
)
def test_doubled_space_report_exponentiates_each_segment_once(monkeypatch, report):
    calls = []

    def counting(h, t):
        calls.append(t)
        return matexp_unitary(h, t)

    monkeypatch.setattr(retrograde, "matexp_unitary", counting)
    report()
    assert len(calls) == 2


def test_general_recipe_two_level_reduction():
    pulse = pythagorean_pulse(3, 1, 0.0)
    u_full = ordered_propagator(pulse, 0.0, pulse.T)
    u_half = ordered_propagator(pulse, 0.0, pulse.T / 2.0)
    i_state = np.array([1.0, 0.0], dtype=complex)
    f_state = np.array([0.0, -1.0], dtype=complex)  # U(T,0)|up> = -|down>
    result = general_recipe(u_full, u_half, i_state, f_state, phi=np.pi)
    assert result.ok
    # -e^{i pi}|ii> + |ff> is the scalar state, its image the target
    assert np.max(np.abs(result.initial - vectorize(np.eye(2)) / np.sqrt(2))) < 1e-12
    assert np.max(np.abs(result.final - vectorize(Y2) / np.sqrt(2))) < 1e-10
    assert result.overlap < 1e-12


def test_general_recipe_random_five_level():
    rng = np.random.default_rng(12)
    m = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
    v, _ = np.linalg.qr(m)
    lam = np.array([0.4, 1.9, -0.7, 2.6, 3.3])
    h = (v * lam) @ v.conj().T
    i_state = (v[:, 0] + v[:, 1]) / np.sqrt(2)
    gap = lam[1] - lam[0]
    T = np.pi / gap  # makes U(2T) act as a pure phase on span(v0, v1)
    u_full = matexp_unitary(h, T)
    u_half = matexp_unitary(h, T / 2.0)
    f_state = u_full @ i_state
    phi = float(np.angle(np.vdot(i_state, matexp_unitary(h, 2 * T) @ i_state)))
    result = general_recipe(u_full, u_half, i_state, f_state, phi)
    assert result.ok
    assert result.transfer_residual < 1e-9
    assert result.overlap < 1e-9
    assert abs(np.linalg.norm(result.initial) - 1.0) < 1e-12
    assert abs(np.linalg.norm(result.final) - 1.0) < 1e-12


def test_general_recipe_rejects_equal_states():
    i_state = np.array([1.0, 0.0], dtype=complex)
    result = general_recipe(np.eye(2, dtype=complex), np.eye(2, dtype=complex), i_state, i_state, 0.0)
    assert not result.ok
    assert "overlap_not_below_one" in result.violated


def test_general_recipe_reports_nan_phase_as_broken_cycle():
    pulse = pythagorean_pulse(3, 1, 0.0)
    u_full = ordered_propagator(pulse, 0.0, pulse.T)
    u_half = ordered_propagator(pulse, 0.0, pulse.T / 2.0)
    i_state = np.array([1.0, 0.0], dtype=complex)
    result = general_recipe(u_full, u_half, i_state, u_full @ i_state, phi=float("nan"))
    assert result.violated == ("u_full_does_not_map_f_back_to_i",)


def test_general_recipe_names_broken_cycle():
    i_state = np.array([1.0, 0.0], dtype=complex)
    f_state = np.array([0.0, 1.0], dtype=complex)
    result = general_recipe(np.eye(2, dtype=complex), np.eye(2, dtype=complex), i_state, f_state, 0.0)
    assert not result.ok
    assert "u_full_does_not_map_i_to_f" in result.violated


def test_time_independent_two_level():
    i_state = np.array([1.0, 1.0], dtype=complex) / np.sqrt(2)
    report = time_independent_conditions(SZ, i_state, np.pi / 2)
    assert report.both_hold
    # U(2T) = exp(-i pi sz) = -I, so the cycle phase is pi (mod 2 pi)
    assert abs(np.exp(1j * report.phi) + 1.0) < 1e-9
    assert report.half_overlap < 1e-12
    assert report.recipe.ok and report.recipe.overlap < 1e-9


def test_time_independent_eigenvector_fails():
    report = time_independent_conditions(SZ, np.array([1.0, 0.0], dtype=complex), 0.7)
    assert report.condition_phase_cycle
    assert not report.condition_partial_overlap
    assert abs(report.half_overlap - 1.0) < 1e-12
    assert report.recipe.violated == ("overlap_not_below_one",) and report.recipe.initial is None


def test_time_independent_commensurate_four_level():
    h = np.diag([0.0, 1.0, 2.0, 4.0]).astype(complex)
    i_state = np.zeros(4, dtype=complex)
    i_state[0] = i_state[1] = 1.0 / np.sqrt(2)
    report = time_independent_conditions(h, i_state, np.pi)
    assert report.both_hold
    assert report.recipe.ok and report.recipe.overlap < 1e-9


def _random_hermitian(seed, dim):
    rng = np.random.default_rng(seed)
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return (m + m.conj().T) / 2


# (h, state, T): the cases above, then an eigenvector and a generic state of random generators
_CONSTANT_H_CASES = {
    "two_level": (SZ, np.array([1.0, 1.0]) / np.sqrt(2), np.pi / 2),
    "two_level_eigenvector": (SZ, np.array([1.0, 0.0]), 0.7),
    "commensurate_four_level": (np.diag([0.0, 1.0, 2.0, 4.0]), np.array([1.0, 1.0, 0.0, 0.0]) / np.sqrt(2), np.pi),
    "random_eigenvector": (_random_hermitian(5, 5), np.linalg.eigh(_random_hermitian(5, 5))[1][:, 2], 1.3),
    "random_generic": (_random_hermitian(6, 4), np.full(4, 0.5), 0.9),
    "two_level_generic": (SZ, np.array([0.6, 0.8]), 0.7),
}


@pytest.mark.parametrize("case", list(_CONSTANT_H_CASES))
def test_time_independent_conditions_match_the_separately_measured_ones(case):
    # the conditions read as preconditions of the recipe equal U(2T) and U(T) measured on their own
    h, i_state, T = _CONSTANT_H_CASES[case]
    cycle, phase, _ = retrograde._phase_match(matexp_unitary(h, 2 * T) @ i_state, i_state, retrograde.CPT_TOL)
    partial = abs(np.vdot(i_state, matexp_unitary(h, T) @ i_state)) < retrograde.PARTIAL_OVERLAP_MAX
    report = time_independent_conditions(h, i_state, T)
    assert (report.condition_phase_cycle, report.condition_partial_overlap) == (cycle, partial)
    assert report.both_hold == (cycle and partial)
    assert (report.phi is None) == (not cycle)
    if cycle:
        assert abs(np.exp(1j * report.phi) - phase) <= 1e-12


@pytest.mark.parametrize("case", ["two_level", "two_level_eigenvector", "two_level_generic"])
def test_time_independent_conditions_is_one_recipe_call_on_two_propagators(monkeypatch, case):
    h, i_state, T = _CONSTANT_H_CASES[case]
    times, recipes = [], []

    def counting_exp(h, t):
        times.append(t)
        return matexp_unitary(h, t)

    def counting_recipe(*args):
        recipes.append(general_recipe(*args))
        return recipes[-1]

    monkeypatch.setattr(retrograde, "matexp_unitary", counting_exp)
    monkeypatch.setattr(retrograde, "general_recipe", counting_recipe)
    report = time_independent_conditions(h, i_state, T)
    assert times == [T, T / 2.0]
    assert len(recipes) == 1 and recipes[0] is report.recipe


def test_basic_cpts_four_level():
    report = basic_cpts(4, 3, 1, 0.0)
    assert len(report.records) == 2
    init0 = (ket(4, 1, 1) + ket(4, 4, 4)) / np.sqrt(2)
    init1 = (ket(4, 2, 2) + ket(4, 3, 3)) / np.sqrt(2)
    assert np.max(np.abs(report.records[0].initial - init0)) < 1e-12
    assert np.max(np.abs(report.records[1].initial - init1)) < 1e-12
    for r in report.records:
        assert r.orthogonality_residual < 1e-9
    assert report.combination_bound < 1e-9  # every unit combination of the two pairs
    target = (ket(4, 4, 1) - ket(4, 3, 2) + ket(4, 2, 3) - ket(4, 1, 4)) / 2.0
    assert np.max(np.abs(report.uniform_final - target)) < 1e-9
    assert report.all_ok


@pytest.mark.parametrize("n, pqk", [(2, (3, 1, 0.0)), (2, (7, 3, 0.3)), (4, (5, 1, 0.0)), (4, (11, 5, -1.2))])
def test_basic_cpts_carries_the_equivalence_it_measured(n, pqk):
    report = basic_cpts(n, *pqk)
    direct = check_equivalence(pythagorean_pulse(*pqk, n=n), y_matrix(n))
    assert report.equivalence == direct  # field for field
    assert report.sign == report.equivalence.propagator_phase


def test_basic_cpts_uniform_final_triple_independent():
    rep31 = basic_cpts(4, 3, 1, 0.0)
    rep51 = basic_cpts(4, 5, 1, 0.0)
    assert abs(rep31.sign - 1.0) < 1e-8
    assert abs(rep51.sign + 1.0) < 1e-8
    assert np.max(np.abs(rep31.uniform_final - rep51.uniform_final)) < 1e-9
    gaps = [
        np.max(np.abs(a.final - b.final))
        for a, b in zip(rep31.records, rep51.records)
    ]
    assert max(gaps) > 0.1


def test_basic_cpts_two_level_is_universal():
    report = basic_cpts(2, 3, 1, 0.0)
    assert len(report.records) == 1
    assert np.max(np.abs(report.records[0].initial - vectorize(np.eye(2)) / np.sqrt(2))) < 1e-12
    assert np.max(np.abs(report.uniform_final - vectorize(Y2) / np.sqrt(2))) < 1e-9


def test_odd_dim_demo_action():
    # the odd-dimension demo is basic_cpts at n = 3: U(T, 0) = Y with the sign +1, so no phase
    rep = basic_cpts(3, 3, 1, 0.0)
    assert rep.equivalence.propagator_matches
    assert abs(rep.sign - 1.0) < 1e-8
    assert rep.equivalence.propagator_residual < 1e-9
    # |1> -> |3>, |2> -> -|2>, |3> -> |1>
    pulse = pythagorean_pulse(3, 1, 0.0, n=3)
    u = ordered_propagator(pulse, 0.0, pulse.T)
    assert np.max(np.abs(u - y_matrix(3))) < 1e-9
    assert np.max(np.abs(u @ ket(3, 1) - ket(3, 3))) < 1e-9
    assert np.max(np.abs(u @ ket(3, 2) + ket(3, 2))) < 1e-9
    assert np.max(np.abs(u @ ket(3, 3) - ket(3, 1))) < 1e-9


def test_odd_dim_demo_overlap_and_basic():
    rep = basic_cpts(3, 3, 1, 0.0)
    assert abs(abs(rep.equivalence.trace_y) / 3 - 1.0 / 3.0) < 1e-12  # V(I)/V(Y) overlap
    # the middle level is its own mirror, so levels 1 and 3 form the one pair
    assert len(rep.records) == 1
    assert rep.records[0].orthogonality_residual < 1e-9
    expected_initial = (ket(3, 1, 1) - ket(3, 3, 3)) / np.sqrt(2)
    assert np.max(np.abs(rep.records[0].initial - expected_initial)) < 1e-12
    assert not rep.equivalence.is_cpt
    assert rep.all_ok
    # the scalar state V(I)/sqrt(3) still reaches V(Y)/sqrt(3), just not orthogonally
    assert np.max(np.abs(rep.uniform_initial - vectorize(np.eye(3)) / np.sqrt(3))) < 1e-15
    assert rep.uniform_target_residual < 1e-9
    assert rep.equivalence.doubled_state_residual < 1e-9


def test_odd_dim_demo_large_c_is_rejected():
    # at c near 1e9 the lifted pulse keeps Y only to ~3e-7, at odd n as at even n
    for n in (3, 4):
        with pytest.raises(ValueError, match="intertwine"):
            basic_cpts(n, 999999937, 1, 0.5)


BAD_TOLERANCES = [float("nan"), float("inf"), -float("inf"), 0.0, -1e-9]


@pytest.mark.parametrize("tol", BAD_TOLERANCES)
@pytest.mark.parametrize(
    "entry",
    [
        lambda tol: check_equivalence(pythagorean_pulse(3, 1), y_matrix(2), tol=tol),
        lambda tol: basic_cpts(4, 3, 1, 0.0, tol=tol),
        lambda tol: basic_cpts(3, 3, 1, 0.0, tol=tol),
    ],
    ids=["check_equivalence", "basic_cpts", "odd_dim_demo"],
)
def test_entry_points_reject_bad_tolerances(entry, tol):
    with pytest.raises(ValueError, match="tol must be a finite positive number"):
        entry(tol)


def test_pairwise_verdicts_read_the_given_tolerance():
    # residuals near 1e-16 pass the default tolerance and fail 1e-300
    assert basic_cpts(4, 3, 1, 0.0).all_ok
    strict = basic_cpts(4, 3, 1, 0.0, tol=1e-300)
    assert 0.0 < max(r.orthogonality_residual for r in strict.records) < 1e-12
    assert not any(r.ok for r in strict.records)
    assert not strict.all_ok


def test_odd_dimension_verdicts_read_the_given_tolerance():
    strict = basic_cpts(3, 3, 1, 0.0, tol=1e-300)
    assert not strict.equivalence.propagator_matches and not strict.records[0].ok
    assert not strict.equivalence.is_cpt and not strict.all_ok
    # V(I)/sqrt(3) and V(Y)/sqrt(3) overlap by |trace(Y_3)|/3 = 1/3, orthogonal only at a tolerance above it
    loose = basic_cpts(3, 3, 1, 0.0, tol=1.5)
    assert loose.equivalence.propagator_matches and loose.records[0].ok
    assert loose.equivalence.is_cpt and loose.all_ok


@pytest.mark.parametrize("tol, is_cpt", [(0.5, True), (0.3, False)])
def test_is_cpt_reads_the_normalized_overlap(tol, is_cpt):
    # at n = 3 the V(I)/V(Y) overlap is |trace(Y_3)|/3 = 1/3, not |trace(Y_3)| = 1
    report = basic_cpts(3, 3, 1, 0.0, tol=tol)
    assert report.equivalence.is_cpt is is_cpt
    assert report.all_ok  # the pairwise and combination verdicts do not read the overlap
    assert check_equivalence(pythagorean_pulse(3, 1, 0.0, n=3), y_matrix(3), tol=tol) == report.equivalence


def test_equivalence_is_cpt_reads_the_given_tolerance():
    # |trace(I_2)|/2 = 1: V(I) is its own image, orthogonal only at a tolerance of at least 1
    pulse = pythagorean_pulse(3, 1)
    assert not check_equivalence(pulse, np.eye(2), "semi").is_cpt
    assert not check_equivalence(pulse, np.eye(2), "semi", tol=0.99).is_cpt
    assert check_equivalence(pulse, np.eye(2), "semi", tol=1.0).is_cpt
