"""Property tests: the lab frame, the certificate, the factorized
evolution and the doubled-space reports against dense oracles."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pythcpt import retrograde
from pythcpt.dynamics import CPT_TOL, SystemSpec, build_h_single, build_h_tp, lab_hamiltonian, simulate, verify_cpt
from pythcpt.frames import lab_frame
from pythcpt.linalg import kron, matexp_unitary, vectorize
from pythcpt.retrograde import (
    RetrogradeSystem,
    basic_cpts,
    check_equivalence,
    general_recipe,
    odd_dim_demo,
    ordered_propagator,
    pythagorean_pulse,
    time_independent_conditions,
)
from pythcpt.su2 import y_matrix
from pythcpt.triples import params_from_pair

from dense_oracle import dense_propagator, dense_simulate

odd_pairs = st.tuples(st.integers(1, 60), st.integers(0, 59)).filter(lambda t: t[0] > t[1]).map(
    lambda t: (2 * t[0] + 1, 2 * t[1] + 1)
)

coprime_pairs_c_1e4 = (
    st.tuples(st.integers(0, 70), st.integers(0, 70))
    .map(lambda t: (2 * max(t) + 1, 2 * min(t) + 1))
    .filter(lambda pq: pq[0] > pq[1] and math.gcd(*pq) == 1 and (pq[0] ** 2 + pq[1] ** 2) // 2 <= 10_000)
)


@settings(max_examples=16, deadline=None)
@given(n=st.integers(1, 8).map(lambda h: 2 * h))
def test_lab_frame_orthogonal_with_transfer_rows(n):
    w = lab_frame(n)
    assert w.shape == (n * n, n * n)
    assert np.max(np.abs(w @ w.T - np.eye(n * n))) <= 1e-12
    sq = np.sqrt(n)
    assert np.max(np.abs(w[0] - vectorize(np.eye(n)) / sq)) <= 1e-12
    assert np.max(np.abs(w[n * n - n] - vectorize(y_matrix(n).T) / sq)) <= 1e-12


@settings(max_examples=30, deadline=None)
@given(
    pq=odd_pairs,
    k=st.floats(-3.0, 3.0, allow_nan=False),
    n=st.sampled_from([2, 4, 6, 8]),
)
def test_verify_cpt_amplitude_matches_dense_oracle(pq, k, n):
    params = params_from_pair(*pq, k)
    cert = verify_cpt(SystemSpec(n=n, params=params))
    w = lab_frame(n)
    u = dense_propagator(build_h_tp(n, params), params.tau)
    dense = (w @ u @ w.T)[n * n - n, 0]
    assert abs(cert.phase - dense) <= 1e-12
    assert abs(cert.fidelity - abs(dense) ** 2) <= 1e-12
    assert cert.passed


@pytest.mark.parametrize("n", range(2, 13, 2))
def test_verify_cpt_phase_is_the_row_major_amplitude(n):
    # one sign at every even n: <V_r(Y)| U(tau) |V_r(I)> / n with row-major V_r
    params = params_from_pair(7, 3, 0.3)
    u = dense_propagator(build_h_tp(n, params), params.tau)
    amp = vectorize(y_matrix(n).T) @ u @ vectorize(np.eye(n)) / n
    assert abs(verify_cpt(SystemSpec(n=n, params=params)).phase - amp) <= 1e-12


EPS = np.finfo(float).eps


def _assert_matches_complex_solver(h, t):
    """matexp_unitary(h, t) against the complex-eigh oracle, to 16 eps d (1 + max|h| t) in dim d."""
    d = len(h)
    u = matexp_unitary(h, t)
    assert np.max(np.abs(u - dense_propagator(h, t))) <= 16 * EPS * d * (1.0 + np.max(np.abs(h)) * t)
    assert np.max(np.abs(u @ u.conj().T - np.eye(d))) <= 16 * EPS * d


@settings(max_examples=60, deadline=None)
@given(
    d=st.integers(1, 16),
    seed=st.integers(0, 2**32 - 1),
    scale=st.floats(0.0, 1e3),
    t=st.floats(0.0, 10.0),
    complex_entries=st.booleans(),
)
def test_matexp_unitary_matches_complex_solver_oracle(d, seed, scale, t, complex_entries):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(d, d)) + (1j * rng.normal(size=(d, d)) if complex_entries else 0.0)
    h = a + a.conj().T
    h *= scale / np.max(np.abs(h))
    assert np.iscomplexobj(h) == complex_entries
    _assert_matches_complex_solver(h, t)


@settings(max_examples=30, deadline=None)
@given(
    pq=odd_pairs,
    k=st.floats(-3.0, 3.0, allow_nan=False),
    n=st.sampled_from([2, 4, 6, 8]),
    t_tau=st.floats(0.0, 10.0),
)
def test_matexp_unitary_of_build_h_tp_matches_complex_solver_oracle(pq, k, n, t_tau):
    params = params_from_pair(*pq, k)
    _assert_matches_complex_solver(build_h_tp(n, params), t_tau * params.tau)


def _pulse_case(pq, k, n):
    pulse = pythagorean_pulse(*pq, k, n=n)
    return pulse, pulse.T


@settings(max_examples=30, deadline=None)
@given(
    pq=odd_pairs,
    k=st.floats(-3.0, 3.0, allow_nan=False),
    n=st.sampled_from([2, 4, 6, 8]),
    variant=st.sampled_from(["retrograde", "semi"]),
)
def test_equivalence_doubled_side_matches_dense_oracle(pq, k, n, variant):
    pulse, T = _pulse_case(pq, k, n)
    y = y_matrix(n) if variant == "retrograde" else np.eye(n)
    rep = check_equivalence(pulse, y, variant=variant)
    dense = kron(*RetrogradeSystem(pulse, variant).factors(T / 2.0)) @ vectorize(np.eye(n)) / np.sqrt(n)
    oracle = np.max(np.abs(dense - rep.doubled_phase * vectorize(y) / np.sqrt(n)))
    assert abs(rep.doubled_state_residual - oracle) <= 1e-12
    assert rep.doubled_state_matches == (variant == "retrograde")


@settings(max_examples=30, deadline=None)
@given(pq=odd_pairs, k=st.floats(-3.0, 3.0, allow_nan=False), n=st.sampled_from([2, 4, 6, 8]))
def test_basic_cpts_and_recipe_match_dense_oracle(pq, k, n):
    pulse, T = _pulse_case(pq, k, n)
    half = kron(*RetrogradeSystem(pulse, "retrograde").factors(T / 2.0))
    report = basic_cpts(n, *pq, k)
    unsign = np.conj(report.sign)
    for r in report.records:
        assert np.max(np.abs(r.final - unsign * (half @ r.initial))) <= 1e-12
    for coeffs, overlap in report.family_samples:
        psi0 = sum(c * r.initial for c, r in zip(coeffs, report.records))
        assert abs(overlap - abs(np.vdot(psi0, half @ psi0))) <= 1e-12
    assert np.max(np.abs(report.uniform_final - unsign * (half @ report.uniform_initial))) <= 1e-12

    u_full = ordered_propagator(pulse, 0.0, T)
    u_half = ordered_propagator(pulse, 0.0, T / 2.0)
    i_state = np.eye(n)[0]
    f_state = u_full @ i_state
    phi = float(np.angle(np.vdot(i_state, u_full @ f_state)))
    result = general_recipe(u_full, u_half, i_state, f_state, phi)
    u_rev = (u_full @ u_half.conj().T).conj().T
    image = kron(u_rev, u_half) @ result.initial
    assert result.ok
    assert np.max(np.abs(result.final - image)) <= 1e-12
    assert abs(result.overlap - abs(np.vdot(result.initial, image))) <= 1e-12


def test_doubled_space_reports_never_form_the_dense_propagator(monkeypatch):
    def refuse(a, b):
        raise AssertionError("an n^2 x n^2 doubled matrix was formed")

    assert not hasattr(retrograde, "kron") and not hasattr(RetrogradeSystem, "propagator")
    monkeypatch.setattr(np, "kron", refuse)  # catches linalg.kron as well
    pulse = pythagorean_pulse(3, 1, 0.4, n=4)
    assert check_equivalence(pulse, y_matrix(4)).as_pair() == (True, True)
    assert basic_cpts(4, 3, 1, 0.4).all_ok
    assert odd_dim_demo(3, 1, 0.4).action_matches
    u_full = ordered_propagator(pulse, 0.0, pulse.T)
    u_half = ordered_propagator(pulse, 0.0, pulse.T / 2.0)
    i_state = np.eye(4)[0]
    assert general_recipe(u_full, u_half, i_state, u_full @ i_state, np.pi).ok
    h = np.diag([0.0, 1.0, 2.0, 4.0]).astype(complex)
    i_state = np.array([1.0, 1.0, 0.0, 0.0]) / np.sqrt(2)
    assert time_independent_conditions(h, i_state, np.pi).both_hold
    with pytest.raises(AssertionError, match="doubled matrix"):
        kron(*RetrogradeSystem(pulse, "retrograde").factors(pulse.T / 2.0))


@settings(max_examples=40, deadline=None)
@given(
    pq=coprime_pairs_c_1e4,
    k=st.floats(-3.0, 3.0, allow_nan=False),
    n=st.integers(2, 8),
    variant=st.sampled_from(["retrograde", "semi"]),
)
@example(pq=(43, 3), k=-1.15625, n=7, variant="retrograde")
def test_equivalence_equals_segment_product_oracle(pq, k, n, variant):
    # the oracle exponentiates each segment and multiplies them in order;
    # the report builds U(T, 0) from the two half-period factors instead
    pulse = pythagorean_pulse(*pq, k, n=n)
    # complex, as the report takes y, so both sides divide the same target
    y = (y_matrix(n) if variant == "retrograde" else np.eye(n)).astype(complex)
    rep = check_equivalence(pulse, y, variant=variant)
    u_first, u_second = (matexp_unitary(h, d) for h, d in pulse.segments)
    u_full = u_second @ u_first
    rev = u_second.conj().T  # U(T/2, T)
    if variant == "semi":
        rev = rev.conj()
    root = np.sqrt(n)
    _, prop_phase, prop_resid = retrograde._phase_match(u_full, y, CPT_TOL)
    _, _, state_resid = retrograde._phase_match(u_first @ rev.T / root, y / root, CPT_TOL)
    assert rep.propagator_phase == prop_phase
    assert rep.propagator_residual == prop_resid
    assert rep.doubled_state_residual == state_resid


@settings(max_examples=40, deadline=None)
@given(
    pq=coprime_pairs_c_1e4,
    k=st.floats(-3.0, 3.0, allow_nan=False),
    n=st.sampled_from([2, 4, 6, 8]),
    t_tau=st.lists(st.floats(0.0, 3.0, allow_nan=False), min_size=1, max_size=12),
)
def test_simulate_matches_dense_oracle(pq, k, n, t_tau):
    spec = SystemSpec(n=n, params=params_from_pair(*pq, k))
    times = np.array(t_tau) * spec.params.tau
    pops = simulate(spec, times).populations
    dense = dense_simulate(lab_hamiltonian(spec), np.eye(n * n)[0], times).populations
    p = spec.params
    omegas = [np.hypot(p.delta1, p.omega1), np.hypot(p.delta2, p.omega2)]
    # the oracle's n^2 x n^2 eigenvalues err by ~eps * |h|, so its phases by ~eps * |h| * t
    oracle_phase_error = 2 * np.finfo(float).eps * (n - 1) * sum(omegas) * times.max()
    assert np.max(np.abs(pops - dense)) <= 1e-12 + oracle_phase_error
    assert np.max(np.abs(pops.sum(axis=1) - 1.0)) <= 1e-12
    ladder = 2 * np.arange(n) - n + 1
    for (delta, omega), w in zip(((p.delta1, p.omega1), (p.delta2, p.omega2)), omegas):
        evals = np.linalg.eigh(build_h_single(n, delta, omega).real)[0]
        assert np.max(np.abs(evals - w * ladder)) <= 1e-13 * n * w
