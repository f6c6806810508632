import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pythcpt import retrograde
from pythcpt.dynamics import build_h_single
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
from pythcpt.tolerances import TRACELESS_TOL
from pythcpt.triples import params_from_pair

SZ = np.diag([1.0, -1.0]).astype(complex)
SX = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
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


def test_lifted_schedule_validation():
    with pytest.raises(ValueError, match="2 x 2 segments"):
        PulseSchedule(segments=((np.eye(3, dtype=complex), 1.0),), n=4)
    with pytest.raises(ValueError, match="n >= 2"):
        PulseSchedule(segments=((SZ, 1.0),), n=1)
    # a phase part would make the 2 x 2 product leave SU(2), which the lift reads
    with pytest.raises(ValueError, match="traceless"):
        PulseSchedule(segments=((SZ + 1e-9 * np.eye(2), 1.0),), n=4)
    lifted = PulseSchedule(segments=((SZ, 1.0), (SX, 0.5)), n=5)
    assert lifted.dim == 5 and lifted.T == 1.5
    # n equal to the segments' dimension lifts nothing, so any Hermitian generator serves
    assert PulseSchedule(segments=((np.diag([1.0, 2.0]), 1.0),), n=2).dim == 2


@pytest.mark.parametrize(
    "h, trace",
    [
        (np.array([[1.0, 0.5], [0.5, 0.2]]), "1.2"),
        (np.array([[1.0, 0.5j], [-0.5j, 0.2]]), "(1.2+0j)"),
    ],
)
def test_a_lifted_segment_names_its_trace_as_a_python_number(h, trace):
    # the same message on every NumPy: no np.float64(...) wrapper
    with pytest.raises(ValueError) as info:
        PulseSchedule(segments=((h, 1.0),), n=4)
    assert str(info.value) == f"a lifted segment generator must be traceless, got trace {trace}"


@pytest.mark.parametrize("scale", [1.0, 1e6])
def test_the_lifted_trace_gate_is_relative_to_the_largest_entry(scale):
    # |tr h| <= TRACELESS_TOL * max(1, max|h_ij|): the off-diagonal entry sets the scale here
    def segment(trace):
        return np.array([[trace, scale], [scale, 0.0]])

    PulseSchedule(segments=((segment(0.5 * TRACELESS_TOL * scale), 1.0),), n=3)
    with pytest.raises(ValueError, match="traceless"):
        PulseSchedule(segments=((segment(2.0 * TRACELESS_TOL * scale), 1.0),), n=3)


def test_pythagorean_pulse_keeps_its_two_level_segments_at_every_n():
    two = pythagorean_pulse(7, 3, 0.3)
    for n in (2, 3, 8):
        pulse = pythagorean_pulse(7, 3, 0.3, n=n)
        assert pulse.n == n and pulse.dim == n
        for (h, d), (h2, d2) in zip(pulse.segments, two.segments):
            assert np.array_equal(h, h2) and d == d2


def test_a_lifted_propagator_is_gated_as_unitary(monkeypatch):
    monkeypatch.setattr(retrograde, "lift", lambda g, n: 1.001 * np.eye(n, dtype=complex))
    with pytest.raises(ValueError, match="lifted propagator is not unitary"):
        ordered_propagator(pythagorean_pulse(3, 1, n=4), 0.0, 0.1)


def test_a_lifted_propagator_is_one_lift_of_the_two_level_product(monkeypatch):
    real, lifted = retrograde.lift, []
    monkeypatch.setattr(retrograde, "lift", lambda g, n: lifted.append(g.shape) or real(g, n))
    pulse = pythagorean_pulse(7, 3, 0.3, n=6)
    u = ordered_propagator(pulse, 0.0, pulse.T)
    assert lifted == [(2, 2)]
    two = pythagorean_pulse(7, 3, 0.3)
    assert np.abs(u - real(ordered_propagator(two, 0.0, two.T), 6)).max() == 0.0
    # the reversed interval is the adjoint of the same lift
    assert np.array_equal(ordered_propagator(pulse, pulse.T, 0.0), u.conj().T)


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


def test_propagator_time_slack_admits_rounding_only():
    # T = 0.6; the same durations summed from the other end round to 0.6000000000000001
    sched = PulseSchedule(segments=((SZ, 0.3), (SZ, 0.2), (SZ, 0.1)))
    T = sched.T
    slack = retrograde.TIME_SLACK * T
    full = ordered_propagator(sched, 0.0, T)
    for t in (-slack / 2, T + slack / 2, 0.1 + 0.2 + 0.3, float(sched.boundaries()[-1])):
        assert np.array_equal(ordered_propagator(sched, min(t, 0.0), max(t, T)), full)
        assert np.array_equal(ordered_propagator(sched, max(t, T), min(t, 0.0)), full.conj().T)
    for t in (-2 * slack, T + 2 * slack):
        with pytest.raises(ValueError, match="outside"):
            ordered_propagator(sched, 0.0, t)


def test_durations_are_summed_once_in_order():
    # summed in order these give 1000001.2999999999; a compensated sum, as Python >= 3.12's sum, gives 1000001.3
    durations = (0.3, 0.2, 0.1, 1e6, 0.7)
    sched = PulseSchedule(segments=tuple((SZ, d) for d in durations))
    running = [0.0]
    for d in durations:
        running.append(running[-1] + d)
    assert sched.boundaries().tolist() == running
    assert sched.T == running[-1] and type(sched.T) is float


def test_large_c_propagator_keeps_a_femtosecond_of_a_segment():
    # at c ~ 5e17 the second generator has entries ~4.5e17: 8e-16 s of it is a rotation of ~360 rad
    pulse = pythagorean_pulse(999999937, 1, 0.5)
    (h_a, tau), (h_b, _) = pulse.segments
    t1 = tau + 8e-16
    expected = matexp_unitary(h_b, t1 - tau) @ matexp_unitary(h_a, tau)
    assert np.max(np.abs(ordered_propagator(pulse, 0.0, t1) - expected)) <= 1e-12
    assert np.max(np.abs(ordered_propagator(pulse, t1, 0.0) - expected.conj().T)) <= 1e-12


def test_propagator_accepts_durations_summed_in_reverse_at_large_t():
    # T ~ 1.3e6: the reversed sum rounds one ulp (2.3e-10) above T
    durations = (1e6, 3e5, 0.7, 0.7, 0.7)
    sched = PulseSchedule(segments=tuple((h, d) for h, d in zip((SZ, SX) * 3, durations)))
    reverse = 0.0
    for d in reversed(durations):
        reverse += d
    assert reverse - sched.T > 2e-10
    full = ordered_propagator(sched, 0.0, sched.T)
    assert np.array_equal(ordered_propagator(sched, 0.0, reverse), full)
    assert np.array_equal(ordered_propagator(sched, reverse, 0.0), full.conj().T)


def test_propagator_slack_scales_with_a_short_schedule():
    # T = 6.3e-9 at c ~ 5e17, so 1e-13 s past either end is 1.6e-5 T, far beyond any rounding of T
    pulse = pythagorean_pulse(999999937, 1, 0.5)
    for t in (pulse.T + 1e-13, -1e-13):
        with pytest.raises(ValueError, match="outside"):
            ordered_propagator(pulse, 0.0, t)


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
        lambda: basic_cpts(3, 7, 3, 0.3),  # odd n: the middle level forms no pair
    ],
    ids=["check_equivalence", "basic_cpts", "basic_cpts_odd_n"],
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


def test_general_recipe_fails_a_half_step_that_misses_the_final_state():
    # the preconditions read u_full alone; a half step scaled off unitarity carries initial past final
    pulse = pythagorean_pulse(3, 1, 0.0)
    u_full = ordered_propagator(pulse, 0.0, pulse.T)
    u_half = 1.001 * ordered_propagator(pulse, 0.0, pulse.T / 2.0)
    i_state = np.array([1.0, 0.0], dtype=complex)
    result = general_recipe(u_full, u_half, i_state, u_full @ i_state, phi=np.pi)
    assert result.violated == ()
    assert result.transfer_residual > 1e-3
    assert not result.ok


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


def test_basic_cpts_odd_n_action():
    # at n = 3, U(T, 0) = Y with the sign +1, so no phase
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


def test_basic_cpts_odd_n_overlap_and_pair():
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


def test_basic_cpts_two_level_large_c_keeps_its_report():
    # at (1e8 + 1, 1, 0.5) the 2 x 2 segment exponentials keep U(T, 0) proportional to Y, so a report is returned;
    # a rotation rate r = sqrt(d^2 + |b|^2) in place of hypot(d, |b|) raised "not proportional to Y" here
    rep = basic_cpts(2, 100000001, 1, 0.5)
    assert rep.sign == -1  # (-1)^((p + q) / 2)
    assert rep.equivalence.propagator_residual < 1e-8


def test_basic_cpts_large_c_is_rejected():
    # at c near 1e9 the float angles put U(T, 0) off Y by ~eps p, at odd n as at even n; the lifted half steps still
    # intertwine Y to rounding, so the "proportional to Y" gate is what refuses the pulse
    for n in (3, 4):
        with pytest.raises(ValueError, match="not proportional to Y"):
            basic_cpts(n, 999999937, 1, 0.5)


@pytest.mark.parametrize("n", [2, 3, 4, 16, 24])
def test_a_large_c_pulse_intertwines_y_and_misses_it_at_every_n(n):
    # lifted half steps are exact representation matrices up to rounding, so y passes the intertwining gate at any
    # p; the float angles still put U(T, 0) ~eps p off y, so both sides fail the default tolerance, as at n = 2
    rep = check_equivalence(pythagorean_pulse(10**8 + 1, 1, 0.5, n=n), y_matrix(n))
    assert rep.as_pair() == (False, False)
    assert retrograde.CPT_TOL < rep.propagator_residual < 1e-6


BAD_TOLERANCES = [float("nan"), float("inf"), -float("inf"), 0.0, -1e-9]


@pytest.mark.parametrize("tol", BAD_TOLERANCES)
@pytest.mark.parametrize(
    "entry",
    [
        lambda tol: check_equivalence(pythagorean_pulse(3, 1), y_matrix(2), tol=tol),
        lambda tol: basic_cpts(4, 3, 1, 0.0, tol=tol),
        lambda tol: basic_cpts(3, 3, 1, 0.0, tol=tol),
    ],
    ids=["check_equivalence", "basic_cpts", "basic_cpts_odd_n"],
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


def test_all_ok_reads_the_uniform_target_residual():
    # at p ~ 1e5 the uniform image drifts from V(Y)/sqrt(n) by ~eps p, while every pair stays orthogonal to ~1e-15
    report = basic_cpts(4, 100001, 3, 0.0, tol=1e-12)
    assert report.combination_bound <= 1e-12 < report.uniform_target_residual
    assert all(r.ok for r in report.records)
    assert not report.all_ok


def test_phase_is_normalized_only_for_a_measurable_overlap():
    # semi against I: the overlap is trace(U(T, 0))/n, rounding at n = 4, where the raw overlap is reported,
    # and |trace(Y_3)|/3 = 1/3 at n = 3, where it is divided to a unit phase
    even = check_equivalence(pythagorean_pulse(3, 1, n=4), np.eye(4), "semi")
    assert abs(even.propagator_phase) < 1e-6 and not even.propagator_matches
    # without a measurable overlap there is no match, even at a tolerance the residual max|U| meets
    assert not check_equivalence(pythagorean_pulse(3, 1, n=4), np.eye(4), "semi", tol=1.5).propagator_matches
    odd = check_equivalence(pythagorean_pulse(3, 1, n=3), np.eye(3), "semi")
    assert abs(abs(odd.propagator_phase) - 1.0) <= 1e-12 and not odd.propagator_matches


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


def _separating_report():
    # tol 1e-15 lies between the two sides' residuals (1.47e-15 and 5.4e-16), so it separates them
    tol = 1e-15
    report = basic_cpts(4, 7, 3, 0.3, tol)
    equiv = report.equivalence
    assert equiv.doubled_state_residual < tol < equiv.propagator_residual and report.sign.imag != 0
    return report


def test_equivalence_as_json_is_the_report():
    equiv = _separating_report().equivalence
    payload = equiv.as_json()
    assert list(payload) == [
        "forward", "backward", "propagator_phase", "doubled_phase", "propagator_residual", "doubled_state_residual",
        "is_cpt", "pass",
    ]
    assert payload == {
        "forward": False,
        "backward": True,
        "propagator_phase": [equiv.propagator_phase.real, equiv.propagator_phase.imag],
        "doubled_phase": [equiv.doubled_phase.real, equiv.doubled_phase.imag],
        "propagator_residual": equiv.propagator_residual,
        "doubled_state_residual": equiv.doubled_state_residual,
        "is_cpt": True,
        "pass": False,
    }
    assert json.loads(json.dumps(payload)) == payload  # plain JSON values


@pytest.mark.parametrize("forward", [True, False])
@pytest.mark.parametrize("backward", [True, False])
def test_equivalence_passed_is_forward_and_backward(forward, backward):
    report = check_equivalence(pythagorean_pulse(3, 1), y_matrix(2))
    report = dataclasses.replace(report, propagator_matches=forward, doubled_state_matches=backward)
    assert report.passed is (forward and backward)
    assert report.as_json()["pass"] is report.passed


def test_basic_cpt_report_as_json_is_the_report():
    report = _separating_report()
    equiv = report.equivalence
    payload = report.as_json()
    assert list(payload) == [*list(equiv.as_json())[:-1], "pairwise_transfers", "uniform_target_residual", "sign", "pass"]
    assert payload == {
        "forward": False,
        "backward": True,
        "propagator_phase": [equiv.propagator_phase.real, equiv.propagator_phase.imag],
        "doubled_phase": [equiv.doubled_phase.real, equiv.doubled_phase.imag],
        "propagator_residual": equiv.propagator_residual,
        "doubled_state_residual": equiv.doubled_state_residual,
        "is_cpt": True,
        "pairwise_transfers": [
            {"index": r.index, "orthogonality_residual": r.orthogonality_residual, "ok": r.ok} for r in report.records
        ],
        "uniform_target_residual": report.uniform_target_residual,
        "sign": [report.sign.real, report.sign.imag],
        "pass": False,
    }
    assert report.passed is False
    assert json.loads(json.dumps(payload)) == payload  # plain JSON values


def test_basic_cpt_report_passed_reads_all_ok():
    # no tol fails all_ok alone (the propagator residual is the largest), so a report is edited to fail it
    report = dataclasses.replace(basic_cpts(4, 7, 3, 0.3), combination_bound=1.0)
    payload = report.as_json()
    assert report.equivalence.passed and not report.all_ok
    assert payload["forward"] is True and payload["backward"] is True
    assert report.passed is False and payload["pass"] is False


@st.composite
def spin_block_dims(draw, total=12):
    """Block dimensions m_1 ... m_r with 2 <= sum <= total; a block of 1 is a spectator level."""
    dims = [draw(st.integers(1, total))]
    while sum(dims) < total and (sum(dims) < 2 or draw(st.booleans())):
        dims.append(draw(st.integers(1, total - sum(dims))))
    return dims


def _direct_sum(blocks):
    n = sum(len(b) for b in blocks)
    out = np.zeros((n, n))
    start = 0
    for b in blocks:
        out[start:start + len(b), start:start + len(b)] = b
        start += len(b)
    return out


@settings(max_examples=40, deadline=None)
@given(
    dims=spin_block_dims(),
    pq=st.sampled_from([(3, 1), (5, 3), (7, 1), (7, 3), (11, 5), (13, 3)]),
    k=st.floats(-2.0, 2.0, allow_nan=False),
)
def test_a_direct_sum_of_spin_blocks_transfers_blockwise(dims, pq, k):
    # each block of dimension m plays the pulse lifted to spin-(m-1)/2, a spectator (m = 1) holds a zero
    # generator; the block's U(T, 0) is D((-1)^((p+q)/2) Y_2) = s Y_m with s = (-1)^(((p+q)/2)(m-1))
    p, q = pq
    params = params_from_pair(p, q, k)

    def segment(delta, omega, sign):
        return _direct_sum([sign * build_h_single(m, delta, omega) if m > 1 else np.zeros((1, 1)) for m in dims])

    pulse = PulseSchedule(
        segments=(
            (segment(params.delta1, params.omega1, 1.0), params.tau),
            (segment(params.delta2, params.omega2, -1.0), params.tau),
        )
    )
    n = sum(dims)
    assert pulse.n is None and pulse.dim == n  # the n x n path, no lift
    y = _direct_sum([(-1.0) ** (((p + q) // 2) * (m - 1)) * y_matrix(m) if m > 1 else np.ones((1, 1)) for m in dims])
    u = ordered_propagator(pulse, 0.0, pulse.T)
    phase = np.vdot(y, u) / n
    assert abs(abs(phase) - 1.0) <= 1e-9
    assert np.abs(u - phase * y).max() <= 1e-9
    rep = check_equivalence(pulse, y)
    assert rep.as_pair() == (True, True)
    # Y_m is traceless at even m and (-1)^((m-1)/2) at its centre at odd m, where s = 1
    trace = sum((-1) ** ((m - 1) // 2) for m in dims if m % 2)
    assert rep.trace_y == trace
    assert rep.is_cpt is (trace == 0)
    if n % 2:  # an odd count of odd blocks: tr y is odd, so V(I) and V(y) overlap by at least 1/n
        assert trace % 2 == 1 and abs(rep.trace_y) / n >= 1.0 / n
