"""Property tests: the lab frame, the certificate, the factorized
evolution and the doubled-space reports against dense oracles."""

import dataclasses
import math
import sys
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from pythcpt import dynamics, linalg, retrograde
from pythcpt.dynamics import CPT_TOL, SystemSpec, build_h_single, build_h_tp, lab_hamiltonian, simulate, verify_cpt
from pythcpt.frames import lab_frame
from pythcpt.linalg import chiral_amplitude, kron, matexp_unitary, vectorize
from pythcpt.retrograde import (
    RetrogradeSystem,
    basic_cpts,
    check_equivalence,
    general_recipe,
    ordered_propagator,
    pythagorean_pulse,
    time_independent_conditions,
)
from pythcpt.su2 import spin_generators, y_matrix
from pythcpt.triples import OddPair, coupling_params, params_from_lab_couplings, params_from_pair, triple_from_pair

from dense_oracle import dense_propagator, dense_simulate, propagator_elements

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


@settings(max_examples=40, deadline=None)
@given(
    params=st.one_of(
        st.tuples(odd_pairs, st.floats(-3.0, 3.0)).map(lambda t: params_from_pair(*t[0], t[1])),
        st.tuples(st.tuples(*[st.floats(-3.0, 3.0)] * 4), st.floats(0.1, 2.0)).map(
            lambda t: params_from_lab_couplings(*t)
        ),
    ),
    n=st.sampled_from(range(2, 13, 2)),
)
@example(params=params_from_pair(119, 117, -3.0), n=12)
def test_verify_cpt_amplitude_is_the_spectral_oracle_element(params, n):
    """At CPT and off it: the certificate's amplitude is the dense spectral element, and exactly real."""
    _assert_is_the_spectral_element(params, n)


@pytest.mark.parametrize("n", range(2, 25, 2))
def test_verify_cpt_is_the_spectral_oracle_element_at_every_even_n_to_24(n):
    _assert_is_the_spectral_element(params_from_pair(11, 5, -1.2), n)


def _assert_is_the_spectral_element(params, n):
    w = lab_frame(n)
    want = propagator_elements(build_h_tp(n, params), params.tau, w[n * n - n], w[0])
    cert = verify_cpt(SystemSpec(n=n, params=params))
    assert abs(cert.phase - want) <= 1e-12
    assert cert.phase.imag == 0.0


def _off_cpt_case(couplings, tau, n):
    """verify_cpt and the dense lab-frame population of state n^2 - n + 1 at tau, for any lab couplings."""
    spec = SystemSpec(n=n, params=params_from_lab_couplings(couplings, tau))
    population = dense_simulate(lab_hamiltonian(spec), np.eye(n * n)[0], [tau]).populations[0, n * n - n]
    return verify_cpt(spec), population


def _assert_fidelity_is_the_population(cert, population):
    assert abs(cert.fidelity - population) <= 1e-12
    assert cert.passed == (population >= 1.0 - cert.tolerance)


@settings(max_examples=30, deadline=None)
@given(
    couplings=st.tuples(*[st.floats(-3.0, 3.0)] * 4),
    tau=st.floats(0.1, 2.0),
    n=st.sampled_from([2, 4, 6]),
)
def test_verify_cpt_off_cpt_matches_the_dense_population(couplings, tau, n):
    # couplings from no triple: the transfer is partial, so |amp|^2 and |amp| differ
    cert, population = _off_cpt_case(couplings, tau, n)
    assume(1e-3 < population < 1.0 - 1e-3)
    _assert_fidelity_is_the_population(cert, population)


def test_a_fidelity_read_as_the_modulus_fails_the_off_cpt_comparison(monkeypatch):
    certificate = dynamics.CptCertificate
    monkeypatch.setattr(dynamics, "CptCertificate", lambda **kw: certificate(**{**kw, "fidelity": kw["tp_overlap"]}))
    cert, population = _off_cpt_case((1.0, -0.4, 0.7, 0.2), 0.9, 4)  # population 0.0085
    with pytest.raises(AssertionError):
        _assert_fidelity_is_the_population(cert, population)


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
    # each oracle's eigenvalues err by ~eps * max|h|, so its phases by ~eps * max|h| * tau: 8e-8 for the complex
    # solver and 6.6e-9 for matexp_unitary's real one at p = 10^8 + 1. The certificate reads cos(sigma tau) at its
    # extremum, so its error is second order (1.4e-13 there) and is checked against the exact phase itself.
    oracle_phase_error = 4 * EPS * np.max(np.abs(h)) * params.tau
    for u in (dense_propagator(h, params.tau), matexp_unitary(h, params.tau)):
        amp = w[n * n - n] @ u @ w[0]
        assert abs(cert.fidelity - abs(amp) ** 2) <= 1e-12
        assert abs(cert.tp_overlap - abs(np.vdot(vy, u @ vi))) <= 1e-12
        assert abs(cert.phase - amp) <= 1e-12 + oracle_phase_error
    p, q, _ = pqk
    assert abs(cert.phase - (-1) ** ((p + q) // 2)) <= 1e-12
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
def test_certificate_error_grows_as_eps_p(pq, k, n):
    p, q = pq
    cert = verify_cpt(SystemSpec(n=n, params=params_from_pair(p, q, k)))
    assert abs(cert.phase - (-1) ** ((p + q) // 2)) <= LAW_C * n * EPS * p
    assert 1.0 - cert.fidelity <= LAW_C2 * n**2 * (EPS * p) ** 2 + LAW_FLOOR


# The certificate's amplitude is real, so its distance to the sign s = (-1)^((p+q)/2) is 1 - |amp| =
# (1 - F)/(1 + |amp|), about (1 - F)/2 (within 3.6e-15 in every case below): the float errors act as a slightly
# wrong drive, which at first order only turns the phase, and a real amplitude cannot turn. The timing law
# 1 - F ~ (n^2 - 1) psi^2 / 3 with psi ~ (pi/2) delta (p + q), delta the relative error of the angles, then gives
# |phase - s| ~ (n^2 - 1) pi^2 (delta (p + q))^2 / 24, i.e. C2 n^2 (eps (p + q))^2 with C2 ~ 0.41 (delta/eps)^2.
# Measured over four seeds of the design above (85,600 cases): (|phase - s| - floor) / (n eps (p + q))^2 <= 31.6
# (each seed's maximum less its own floor: 14.7, 19.8, 23.5 and 31.6, so delta up to ~9 eps), and the floor,
# the largest |phase - s| wherever n^2 (eps (p + q))^2 < eps, is at most 14 eps. Each constant is twice its
# measured maximum, rounded up to a power of two, as for the first-order law's constants.
PHASE_LAW_C2, PHASE_LAW_FLOOR = 64.0, 32 * EPS


@settings(max_examples=60, deadline=None)
@given(pq=pairs_to_1e9, k=st.floats(-3.0, 3.0, allow_nan=False), n=st.sampled_from(range(2, 17, 2)))
@example(pq=(10**8 + 1, 1), k=0.5, n=8)
@example(pq=(999999999, 7), k=0.3, n=16)
@example(pq=(999999937, 1), k=0.5, n=2)
@example(pq=(999999937, 1), k=0.5, n=4)
@example(pq=(999999937, 1), k=0.5, n=6)
def test_certificate_phase_error_is_second_order(pq, k, n):
    p, q = pq
    cert = verify_cpt(SystemSpec(n=n, params=params_from_pair(p, q, k)))
    assert cert.phase.imag == 0.0
    assert abs(cert.phase - (-1) ** ((p + q) // 2)) <= PHASE_LAW_C2 * n**2 * (EPS * (p + q)) ** 2 + PHASE_LAW_FLOOR


@settings(max_examples=20, deadline=None)
@given(pq=coprime_pairs_c_1e4)
@example(pq=(3, 1))
def test_a_k_that_zeroes_a_coupling_keeps_the_transfer_exact(pq):
    """Each k zeroing delta1, omega1, delta2 or omega2, at every sign choice: certified, and nothing warns.

    The axes stay orthogonal and their angles odd multiples of pi/2 at every finite k (see coupling_params).
    """
    p, q = pq
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for signs in ((1, 1), (-1, 1), (1, -1), (-1, -1)):
            t = triple_from_pair(OddPair(p, q), *signs)
            a, b, c = t.a, t.b, t.c
            for zeroed, k in enumerate((-b / (c - a), (c - a) / b, b / (c + a), -(c + a) / b)):
                params = coupling_params(t, k)
                assert abs(params.as_tuple()[zeroed]) <= 1e-12 * c
                for n in (2, 4, 6, 8):
                    assert verify_cpt(SystemSpec(n=n, params=params)).passed, (signs, k, n)
                if signs == (1, 1):
                    assert basic_cpts(4, p, q, k).all_ok, k
                    rep = check_equivalence(pythagorean_pulse(p, q, k), y_matrix(2))
                    assert rep.as_pair() == (True, True), k
                    assert abs(rep.propagator_phase - (-1) ** ((p + q) // 2)) <= 1e-8, k


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


@settings(max_examples=60, deadline=None)
@given(
    half=st.integers(1, 8),
    seed=st.integers(0, 2**32 - 1),
    scale=st.floats(0.0, 1e3),
    t=st.floats(-10.0, 10.0),
    complex_entries=st.booleans(),
)
def test_chiral_amplitude_matches_the_spectral_oracle(half, seed, scale, t, complex_entries):
    """A random Hermitian h that a random signed reversal C negates, between states C fixes, to 16 eps d (1 + |h t|)."""
    rng = np.random.default_rng(seed)

    def sample(*shape):
        return rng.normal(size=shape) + (1j * rng.normal(size=shape) if complex_entries else 0.0)

    d = 2 * half
    top = rng.choice([-1.0, 1.0], size=half)
    signs = np.concatenate((top, top[::-1]))
    # columns x < d/2: (e_x +- signs[x] e_{d-1-x}) / sqrt(2), orthonormal bases of C's +1 and -1 sectors
    plus, minus = ((np.eye(d)[:, :half] + s * np.eye(d)[:, ::-1][:, :half] * top) / np.sqrt(2) for s in (1, -1))
    off = plus @ sample(half, half) @ minus.T
    h = off + off.conj().T
    h *= scale / np.max(np.abs(h))
    bra, ket = (plus @ v / np.linalg.norm(v) for v in (sample(half), sample(half)))
    got = chiral_amplitude(h, t, signs, bra, ket)
    want = propagator_elements(h, t, bra, ket)
    assert abs(got - want) <= 16 * EPS * d * (1.0 + np.max(np.abs(h)) * abs(t))
    assert np.isrealobj(got) != complex_entries


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


@settings(max_examples=60, deadline=None)
@given(
    dim=st.integers(2, 8),
    seed=st.integers(0, 2**32 - 1),
    theta=st.floats(0.05, np.pi / 2 - 0.05),
    log_kick=st.floats(-17.0, 0.0),
)
def test_recipe_overlap_is_within_its_transfer_residual(dim, seed, theta, log_kick):
    # initial is symmetric and final antisymmetric, so <initial|final> is rounding alone, and by Cauchy-Schwarz
    # |<initial|image>| <= ||image - final||_2 + that rounding: ok needs no overlap verdict. A u_half kicked off
    # a unitary by 10^log_kick spreads the residual from rounding to order one.
    rng = np.random.default_rng(seed)
    v, _ = np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
    lam = rng.uniform(-3.0, 3.0, dim)
    lam[1] = lam[0] + np.pi  # U(T)^2 is the phase e^{2 i lam0} on span(v0, v1)
    u_full = (v * np.exp(1j * lam)) @ v.conj().T
    i_state = np.cos(theta) * v[:, 0] + np.sin(theta) * v[:, 1]
    w, _ = np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
    u_half = w + 10.0**log_kick * (rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
    result = general_recipe(u_full, u_half, i_state, u_full @ i_state, 2.0 * lam[0])
    assert result.violated == ()
    assert result.overlap <= result.transfer_residual + 8 * EPS


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
    # |G_ii| = |e_i^T G e_i| <= ||G||_2, so all_ok reads combination_bound and no per-pair verdict
    assert max(r.orthogonality_residual for r in report.records) <= report.combination_bound * (1.0 + 8 * EPS)
    # a unit combination c of the pair states, V(diag(D c)), overlaps its image by at most the bound
    psi0 = sum(ci * r.initial for ci, r in zip(c / np.linalg.norm(c), report.records))
    assert abs(np.vdot(psi0, half @ psi0)) <= report.combination_bound + 1e-15


@settings(max_examples=60, deadline=None)
@given(
    pq=pairs_to_1e9,
    k=st.floats(-3.0, 3.0, allow_nan=False),
    n=st.integers(2, 24),
    variant=st.sampled_from(["retrograde", "semi"]),
)
@example(pq=(10**8 + 1, 1), k=0.5, n=16, variant="retrograde")
@example(pq=(999999937, 1), k=0.5, n=24, variant="retrograde")
def test_full_propagator_intertwining_is_within_the_half_steps(pq, k, n, variant):
    # with u y u^T = y + E for u = fwd, back: back fwd y (back fwd)^T - y = E2 + back E1 back^T, whose largest
    # entry is at most max|E2| + ||E1||_2 <= r_back + n r_fwd, so check_equivalence gates fwd and back alone
    pulse = pythagorean_pulse(*pq, k, n=n)
    rev, fwd = RetrogradeSystem(pulse, variant).factors(pulse.T / 2.0)
    back = rev.T if variant == "semi" else rev.conj().T  # U(T, T/2)
    y = y_matrix(n) if variant == "retrograde" else np.eye(n)
    adjoint = np.transpose if variant == "retrograde" else (lambda u: u.conj().T)
    r_fwd, r_back, r_full = (float(np.abs(u @ y @ adjoint(u) - y).max()) for u in (fwd, back, back @ fwd))
    assert r_full <= r_back + n * r_fwd + 8 * EPS


def _detuned_basic_cpts(monkeypatch, n, seed, kick=5e-9):
    """basic_cpts of a pulse with U(T, 0) = exp(-i kick h) Y, and its pair Gram from the dense half step.

    The pulse is Y itself, exp(i pi J2), then a kick by a random h that
    keeps Y, h Y + Y h^T = 0 (Y^T = -Y at even n), so every unitary of
    the pulse intertwines Y as the report demands. The half step is a
    quarter turn, not a Pythagorean half step, and the default kick
    moves U(T, 0) off Y by about 5e-9, inside the 1e-8 gate. The pair
    Gram matrix G is then about that size, and ||G||_2 exceeds max|G_ii|.
    """
    rng = np.random.default_rng(seed)
    y = y_matrix(n)
    m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    a = m + m.conj().T
    h = a - y @ a.T @ y.T
    h /= np.abs(h).max()
    flip = -np.pi * spin_generators(n).J2  # exp(-i flip) = Y
    pulse = retrograde.PulseSchedule(((flip, 1.0), (h, kick)))
    monkeypatch.setattr(retrograde, "pythagorean_pulse", lambda p, q, k=0.0, n=2: pulse)
    report = basic_cpts(n, 3, 1)
    half = kron(*RetrogradeSystem(pulse, "retrograde").factors(pulse.T / 2.0))
    gram = np.array([[np.vdot(r.initial, half @ s.initial) for s in report.records] for r in report.records])
    return report, gram


def _assert_bound_is_the_largest_combination_overlap(report, gram, seed):
    # unit combinations c of the pair states overlap their images by |c^dagger G c|, at most ||G||_2
    # and, somewhere, at least ||G||_2 / 2 (the numerical radius)
    rng = np.random.default_rng(seed)
    c = rng.normal(size=(4000, len(gram))) + 1j * rng.normal(size=(4000, len(gram)))
    c /= np.linalg.norm(c, axis=1)[:, None]
    largest = np.abs(np.einsum("ki,ij,kj->k", c.conj(), gram, c)).max()
    bound = report.combination_bound
    assert largest <= bound * (1.0 + 1e-6)
    assert bound <= 2.0 * largest
    assert abs(bound - np.linalg.norm(gram, 2)) <= 1e-6 * bound


@pytest.mark.parametrize("n, seed", [(4, 0), (4, 1), (6, 2), (8, 3)])
def test_combination_bound_is_the_norm_of_a_detuned_pair_gram(monkeypatch, n, seed):
    report, gram = _detuned_basic_cpts(monkeypatch, n, seed)
    assert report.equivalence.propagator_residual <= 1e-8
    # so a bound read from the diagonal alone falls short
    assert np.linalg.norm(gram, 2) >= 1.5 * np.abs(np.diag(gram)).max()
    for r, g in zip(report.records, np.diag(gram)):
        assert abs(r.orthogonality_residual - abs(g)) <= 1e-6 * abs(g) + 1e-15
    assert max(r.orthogonality_residual for r in report.records) <= report.combination_bound * (1.0 + 8 * EPS)
    _assert_bound_is_the_largest_combination_overlap(report, gram, seed)
    # all_ok reads the bound itself: at a tolerance between the uniform residual and the bound it fails
    between = dataclasses.replace(report, tolerance=(report.uniform_target_residual + report.combination_bound) / 2)
    assert between.uniform_target_residual <= between.tolerance
    assert not between.all_ok


def test_a_pulse_off_y_beyond_the_gate_is_rejected(monkeypatch):
    # a kick of 1e-5 keeps every unitary intertwining Y but moves U(T, 0) off it by ~1e-5 > 1e-8
    with pytest.raises(ValueError, match="not proportional to Y"):
        _detuned_basic_cpts(monkeypatch, 4, 0, kick=1e-5)


def test_a_combination_bound_read_from_the_diagonal_fails(monkeypatch):
    report_type = retrograde.BasicCptReport

    def diagonal_bound(**fields):
        return report_type(**{**fields, "combination_bound": max(r.orthogonality_residual for r in fields["records"])})

    monkeypatch.setattr(retrograde, "BasicCptReport", diagonal_bound)
    report, gram = _detuned_basic_cpts(monkeypatch, 4, 0)
    with pytest.raises(AssertionError):
        _assert_bound_is_the_largest_combination_overlap(report, gram, 0)


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


@settings(max_examples=60, deadline=None)
@given(
    t_max_tau=st.one_of(st.sampled_from([0.0, -0.0, 5e-324, 1e-320, 1.0]), st.floats(0.0, 1e6)),
    steps=st.integers(0, 40),
)
@example(t_max_tau=20.0, steps=9_999)
def test_simulate_times_are_linspace_bit_for_bit(t_max_tau, steps):
    # a zero, negative-zero or underflowing step included
    result = simulate(SystemSpec(n=2, params=params_from_pair(3, 1, 0.5)), t_max_tau, steps)
    assert result.times.tobytes() == np.linspace(0.0, t_max_tau, steps + 1).tobytes()


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
