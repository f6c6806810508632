"""Property tests: the lab frame, the certificate, the factorized
evolution and the doubled-space reports against dense oracles."""

import math
import sys

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from pythcpt import linalg, retrograde
from pythcpt.dynamics import CPT_TOL, SystemSpec, build_h_single, build_h_tp, lab_hamiltonian, simulate, verify_cpt
from pythcpt.frames import lab_frame
from pythcpt.linalg import kron, matexp_unitary, propagator_elements, vectorize
from pythcpt.retrograde import (
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


@pytest.mark.parametrize("n, pqk", [(n, (7, 3, 0.3)) for n in range(2, 13, 2)] + [(8, (10**8 + 1, 1, 0.5))])
def test_verify_cpt_matches_the_dense_propagators(n, pqk):
    params = params_from_pair(*pqk)
    cert = verify_cpt(SystemSpec(n=n, params=params))
    h = build_h_tp(n, params)
    w = lab_frame(n)
    vi, vy = (vectorize(m) / np.sqrt(n) for m in (np.eye(n), y_matrix(n)))
    # the complex oracle's eigenvalues err by ~eps * max|h|, so its phase by ~eps * max|h| * tau
    # (8e-8 at p = 10^8 + 1); matexp_unitary reconstructs from the same real spectrum as verify_cpt
    oracle_phase_error = 4 * EPS * np.max(np.abs(h)) * params.tau
    for u, phase_tol in ((dense_propagator(h, params.tau), 1e-12 + oracle_phase_error),
                         (matexp_unitary(h, params.tau), 1e-12)):
        amp = w[n * n - n] @ u @ w[0]
        assert abs(cert.fidelity - abs(amp) ** 2) <= 1e-12
        assert abs(cert.tp_overlap - abs(np.vdot(vy, u @ vi))) <= 1e-12
        assert abs(cert.phase - amp) <= phase_tol
    assert cert.passed


# The error law of the certificate. The angles omega_i tau = pi q / 2, pi p / 2 come from floats with relative
# error ~eps, so the amplitude drifts from the integer phase (-1)^((p+q)/2) by ~eps p, and 1 - F = 1 - |amp|^2
# grows as its square above the rounding floor of a difference near 1 (a few eps at any p). Measured over
# 21,400 cases (primitive pairs with p log-uniform to 10^9 or all p < 40, k in [-3, 3], even n <= 16):
# |phase - (-1)^((p+q)/2)| / (n eps p) <= 2.42, (1 - F - 16 eps) / (n^2 (eps p)^2) <= 24 and 1 - F <= 14 eps.
LAW_C, LAW_C2, LAW_FLOOR = 4.0, 48.0, 32 * EPS

pairs_to_1e9 = (
    st.tuples(st.floats(0.0, math.log10(1e9 / 3)), st.floats(0.0, 1.0, exclude_max=True))
    .map(lambda t: (min(int(3 * 10 ** t[0]) | 1, 10**9 - 1), t[1]))
    .map(lambda t: (t[0], 2 * int(t[1] * (t[0] - 1) // 2) + 1))
    .filter(lambda pq: math.gcd(*pq) == 1)
)


@settings(max_examples=60, deadline=None)
@given(pq=pairs_to_1e9, k=st.floats(-3.0, 3.0, allow_nan=False), n=st.sampled_from(range(2, 17, 2)))
@example(pq=(10**8 + 1, 1), k=0.5, n=8)
@example(pq=(999999999, 7), k=0.3, n=16)
@pytest.mark.filterwarnings("ignore:k=.* zeroes")  # the law holds where k zeroes a coupling too
def test_certificate_error_grows_as_eps_p(pq, k, n):
    p, q = pq
    cert = verify_cpt(SystemSpec(n=n, params=params_from_pair(p, q, k)))
    assert abs(cert.phase - (-1) ** ((p + q) // 2)) <= LAW_C * n * EPS * p
    assert 1.0 - cert.fidelity <= LAW_C2 * n**2 * (EPS * p) ** 2 + LAW_FLOOR


@settings(max_examples=60, deadline=None)
@given(
    d=st.integers(1, 16),
    pairs=st.integers(1, 3),
    seed=st.integers(0, 2**32 - 1),
    scale=st.floats(0.0, 1e3),
    t=st.floats(0.0, 10.0),
    complex_entries=st.booleans(),
)
def test_propagator_elements_match_matexp_unitary(d, pairs, seed, scale, t, complex_entries):
    """<bra| U |ket> from the spectrum against bra^dagger matexp_unitary(h, t) ket, to 16 eps d (1 + max|h| t)."""
    rng = np.random.default_rng(seed)

    def sample(*shape):
        return rng.normal(size=shape) + (1j * rng.normal(size=shape) if complex_entries else 0.0)

    a = sample(d, d)
    h = a + a.conj().T
    h *= scale / np.max(np.abs(h))
    bras, kets = (x / np.linalg.norm(x, axis=1, keepdims=True) for x in (sample(pairs, d), sample(pairs, d)))
    got = propagator_elements(h, t, bras, kets)
    want = np.einsum("ij,jk,ik->i", bras.conj(), matexp_unitary(h, t), kets)
    assert got.shape == (pairs,)
    assert np.max(np.abs(got - want)) <= 16 * EPS * d * (1.0 + np.max(np.abs(h)) * t)


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
    # every overlap of a pair state with a pair state's image: the bound is their spectral norm
    gram = np.array([[np.vdot(a.initial, half @ b.initial) for b in report.records] for a in report.records])
    assert abs(report.combination_bound - np.linalg.norm(gram, 2)) <= 1e-12
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
    assert abs(result.transfer_residual - np.linalg.norm(result.final - image)) <= 1e-12
    assert abs(result.overlap - abs(np.vdot(result.initial, image))) <= 1e-12


@settings(max_examples=40, deadline=None)
@given(
    dim=st.integers(2, 6),
    seed=st.integers(0, 2**32 - 1),
    odd=st.sampled_from([1, 3, 5]),
    theta=st.floats(0.05, np.pi / 2 - 0.05),
    chi=st.floats(0.0, 2 * np.pi),
    s_over_t=st.floats(-3.0, 3.0, allow_nan=False),
)
def test_time_independent_recipe_stands_for_every_translate(dim, seed, odd, theta, chi, s_over_t):
    # i on the eigenvectors v0, v1 of a random Hermitian h, with (lam1 - lam0) T an odd multiple of pi:
    # U(2T) is a phase on span(v0, v1) and |<i|U(T)|i>| = |cos(2 theta)| < 1, so both conditions hold
    rng = np.random.default_rng(seed)
    v, _ = np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
    lam = rng.uniform(-3.0, 3.0, dim)
    lam[1] = lam[0] + rng.choice([-1.0, 1.0]) * rng.uniform(0.2, 3.0)
    h = (v * lam) @ v.conj().T
    h = (h + h.conj().T) / 2
    T = odd * np.pi / abs(lam[1] - lam[0])
    i_state = np.cos(theta) * v[:, 0] + np.sin(theta) * np.exp(1j * chi) * v[:, 1]
    report = time_independent_conditions(h, i_state, T)
    assert report.both_hold and report.recipe.ok
    # the (U(s) (x) U(s))-translate is the recipe for (U(s) i, U(s) f) on the same propagators
    u_full, u_half, shift = (matexp_unitary(h, t) for t in (T, T / 2.0, s_over_t * T))
    member = general_recipe(u_full, u_half, shift @ i_state, shift @ u_full @ i_state, report.phi)
    assert abs(member.overlap - report.recipe.overlap) <= 1e-13
    assert abs(member.transfer_residual - report.recipe.transfer_residual) <= 1e-13


small_primitive_pairs = (
    st.tuples(st.integers(0, 20), st.integers(0, 20))
    .map(lambda t: (2 * max(t) + 1, 2 * min(t) + 1))
    .filter(lambda pq: pq[0] > pq[1] and math.gcd(*pq) == 1)
)


unit_parts = st.lists(st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)), min_size=6, max_size=6)


@settings(max_examples=40, deadline=None)
@given(pq=small_primitive_pairs, k=st.floats(-2.0, 2.0, allow_nan=False), n=st.integers(2, 12), parts=unit_parts)
@example(pq=(3, 1), k=0.0, n=3, parts=[(1.0, 0.0)] * 6)
@example(pq=(5, 3), k=-2.0, n=12, parts=[(0.3, -0.7), (1.0, 0.2), (-0.5, 0.5), (0.0, 1.0), (0.9, 0.1), (-1.0, -1.0)])
def test_basic_cpts_serves_every_n(pq, k, n, parts):
    # Y_n^2 = (-1)^(n-1) I: both parities take one path, and only odd n leaves V(I) and V(Y) overlapping
    c = np.array([complex(*z) for z in parts[: n // 2]])
    assume(np.linalg.norm(c) > 1e-3)
    report = basic_cpts(n, *pq, k)
    assert report.all_ok
    assert report.equivalence.is_cpt == (n % 2 == 0)
    assert abs(abs(report.equivalence.trace_y) / n - (n % 2) / n) <= 1e-12
    pulse, T = _pulse_case(pq, k, n)
    half = kron(*RetrogradeSystem(pulse, "retrograde").factors(T / 2.0))
    for r in report.records:
        assert abs(r.orthogonality_residual - abs(np.vdot(r.initial, half @ r.initial))) <= 1e-12
    # a unit combination c of the pair states, V(diag(D c)), overlaps its image by at most the bound
    psi0 = sum(ci * r.initial for ci, r in zip(c / np.linalg.norm(c), report.records))
    assert abs(np.vdot(psi0, half @ psi0)) <= report.combination_bound + 1e-15


def test_doubled_space_reports_never_form_the_dense_propagator(monkeypatch):
    def refuse(a, b):
        raise AssertionError("an n^2 x n^2 doubled matrix was formed")

    assert not hasattr(retrograde, "kron") and not hasattr(RetrogradeSystem, "propagator")
    # linalg.kron multiplies by broadcasting, so every pythcpt binding of it is refused as well
    monkeypatch.setattr(np, "kron", refuse)
    for mod in [m for name, m in sys.modules.items() if name.split(".")[0] == "pythcpt"]:
        if vars(mod).get("kron") is kron:
            monkeypatch.setattr(mod, "kron", refuse)
    pulse = pythagorean_pulse(3, 1, 0.4, n=4)
    assert check_equivalence(pulse, y_matrix(4)).as_pair() == (True, True)
    assert basic_cpts(4, 3, 1, 0.4).all_ok
    odd = basic_cpts(3, 3, 1, 0.4)
    assert odd.all_ok and odd.equivalence.propagator_matches
    u_full = ordered_propagator(pulse, 0.0, pulse.T)
    u_half = ordered_propagator(pulse, 0.0, pulse.T / 2.0)
    i_state = np.eye(4)[0]
    assert general_recipe(u_full, u_half, i_state, u_full @ i_state, np.pi).ok
    h = np.diag([0.0, 1.0, 2.0, 4.0]).astype(complex)
    i_state = np.array([1.0, 1.0, 0.0, 0.0]) / np.sqrt(2)
    assert time_independent_conditions(h, i_state, np.pi).both_hold
    with pytest.raises(AssertionError, match="doubled matrix"):
        linalg.kron(*RetrogradeSystem(pulse, "retrograde").factors(pulse.T / 2.0))


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
    t_max_tau=st.floats(0.0, 3.0, allow_nan=False),
    steps=st.integers(0, 12),
)
def test_simulate_matches_dense_oracle(pq, k, n, t_max_tau, steps):
    spec = SystemSpec(n=n, params=params_from_pair(*pq, k))
    times = np.linspace(0.0, t_max_tau * spec.params.tau, steps + 1)
    pops = simulate(spec, t_max_tau, steps).populations
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
