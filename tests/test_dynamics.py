import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from pythcpt import dynamics, linalg
from pythcpt.dynamics import (
    SystemSpec,
    build_h_single,
    build_h_tp,
    coupling_graph,
    forbidden_scan,
    lab_hamiltonian,
    simulate,
    verify_cpt,
)
from pythcpt.frames import build_w
from pythcpt.linalg import kron, matexp_unitary
from pythcpt.reference_tables import sixteen_level_lab, sixteen_level_tp
from pythcpt.triples import CouplingParams, lab_couplings, params_from_lab_couplings, params_from_pair

from dense_oracle import dense_h_tp, dense_simulate

SX = np.array([[0.0, 1.0], [1.0, 0.0]])
SZ = np.array([[1.0, 0.0], [0.0, -1.0]])


def four_level_tp_closed_form(d1, o1, d2, o2):
    """The 4x4 two-factor Hamiltonian written out by hand."""
    v14, v23 = d1 + d2, d1 - d2
    return np.array(
        [
            [v14, o2, o1, 0.0],
            [o2, v23, 0.0, o1],
            [o1, 0.0, -v23, o2],
            [0.0, o1, o2, -v14],
        ]
    )


def four_level_lab_closed_form(v12, v23, v34, v14):
    return np.array(
        [
            [0.0, v12, 0.0, v14],
            [v12, 0.0, v23, 0.0],
            [0.0, v23, 0.0, v34],
            [v14, 0.0, v34, 0.0],
        ]
    )


def test_h_single_two_level():
    assert np.max(np.abs(build_h_single(2, 1.0, 0.0) - SZ)) < 1e-15
    assert np.max(np.abs(build_h_single(2, 0.7, -0.3) - (0.7 * SZ - 0.3 * SX))) < 1e-15


def test_h_single_four_level():
    h = build_h_single(4, 1.5, 0.5).real
    assert np.max(np.abs(np.diag(h) - np.array([4.5, 1.5, -1.5, -4.5]))) < 1e-12
    expected_super = np.array([np.sqrt(3) * 0.5, 1.0, np.sqrt(3) * 0.5])
    assert np.max(np.abs(np.diag(h, 1) - expected_super)) < 1e-12
    assert np.max(np.abs(h - h.T)) < 1e-15


def test_h_single_three_level():
    h = build_h_single(3, 0.0, 1.0).real
    assert np.max(np.abs(np.diag(h, 1) - np.array([np.sqrt(2), np.sqrt(2)]))) < 1e-12
    assert np.max(np.abs(np.diag(h))) < 1e-15


def test_h_tp_two_level_closed_form():
    rng = np.random.default_rng(1)
    for _ in range(5):
        d1, o1, d2, o2 = rng.normal(size=4)
        params = CouplingParams(d1, o1, d2, o2, tau=1.0)
        h = build_h_tp(2, params).real
        assert np.max(np.abs(h - four_level_tp_closed_form(d1, o1, d2, o2))) < 1e-12


def test_h_tp_zero_params():
    params = CouplingParams(0.0, 0.0, 0.0, 0.0, tau=1.0)
    assert np.max(np.abs(build_h_tp(3, params))) == 0.0


def _h_tp_drives(n):
    rng = np.random.default_rng(n)
    scaled = [CouplingParams(*(rng.normal(size=4) * 10.0 ** rng.uniform(-3, 3, size=4)), tau=1.0) for _ in range(3)]
    return scaled + [
        CouplingParams(0.0, 0.0, 0.0, 0.0, tau=1.0),
        CouplingParams(-1.5, 0.0, -0.25, 2.0, tau=1.0),  # both detunings negative, one coupling zero
        CouplingParams(0.75, -2.0, 0.0, 0.0, tau=1.0),  # the second factor zero
        params_from_pair(3, 1, -5.0),  # both detunings negative
        params_from_pair(999999937, 1, 0.5),  # c about 5e17
    ]


@pytest.mark.parametrize("n", range(2, 33))
def test_build_h_tp_equals_the_kron_oracle(n):
    # the two scatters write the Kronecker sum's own floats, odd n included
    for params in _h_tp_drives(n):
        h, ref = build_h_tp(n, params), dense_h_tp(n, params)
        assert h.dtype == ref.dtype and h.shape == ref.shape
        assert np.array_equal(h, ref)


def test_h_tp_sixteen_level_table():
    rng = np.random.default_rng(4)
    for _ in range(3):
        d1, o1, d2, o2 = rng.normal(size=4)
        params = CouplingParams(d1, o1, d2, o2, tau=1.0)
        h = build_h_tp(4, params).real
        assert np.max(np.abs(h - sixteen_level_tp(d1, o1, d2, o2))) < 1e-12


def test_lab_hamiltonian_two_level():
    params = params_from_pair(3, 1, 0.0)
    h_lab = lab_hamiltonian(SystemSpec(n=2, params=params)).real
    assert np.max(np.abs(h_lab - four_level_lab_closed_form(5.0, 3.0, 4.0, 0.0))) < 1e-12


def test_lab_hamiltonian_sixteen_level_table():
    rng = np.random.default_rng(9)
    for _ in range(3):
        d1, o1, d2, o2 = rng.normal(size=4)
        params = CouplingParams(d1, o1, d2, o2, tau=1.0)
        h_lab = lab_hamiltonian(SystemSpec(n=4, params=params)).real
        expected = sixteen_level_lab(*lab_couplings(params))
        assert np.max(np.abs(h_lab - expected)) < 1e-12


def test_propagator_factorizes():
    params = params_from_pair(5, 3, 0.4)
    h1 = build_h_single(3, params.delta1, params.omega1)
    h2 = build_h_single(3, params.delta2, params.omega2)
    h = build_h_tp(3, params)
    for t in (0.0, 0.31, 1.7):
        factored = kron(matexp_unitary(h1, t), matexp_unitary(h2, t))
        assert np.max(np.abs(matexp_unitary(h, t) - factored)) < 1e-10
    assert np.max(np.abs(matexp_unitary(h, 0.0) - np.eye(9))) < 1e-14


def test_lab_propagator_full_transfer_column():
    params = params_from_pair(3, 1, 0.0)
    w = build_w(1).W
    u_lab = w @ matexp_unitary(build_h_tp(2, params), params.tau) @ w
    col = np.abs(u_lab[:, 0])
    assert col[2] > 1.0 - 1e-9
    assert max(col[0], col[1], col[3]) < 1e-7


def test_simulate_sixteen_level_peaks():
    for p, q in ((3, 1), (5, 1)):
        result = simulate(SystemSpec(n=4, params=params_from_pair(p, q, 0.0)), t_max_tau=2.0, steps=400)
        assert result.populations[200, 12] >= 1.0 - 1e-9  # state 13 at tau
        assert result.populations[400, 0] >= 1.0 - 1e-9  # back to state 1 at 2 tau
        sums = result.populations.sum(axis=1)
        assert np.max(np.abs(sums - 1.0)) < 1e-9
        assert result.populations.min() >= -1e-12
        assert result.populations.max() <= 1.0 + 1e-12


def test_periodicity_two_and_four():
    for n in (2, 4):
        result = simulate(SystemSpec(n=n, params=params_from_pair(3, 1, 0.0)), t_max_tau=2.0, steps=2)
        assert result.populations[2, 0] >= 1.0 - 1e-9


def test_simulate_constant_under_zero_hamiltonian():
    psi0 = np.array([0.6, 0.8], dtype=complex)
    result = dense_simulate(np.zeros((2, 2)), psi0, np.linspace(0, 5, 7))
    assert np.max(np.abs(result.populations - np.array([0.36, 0.64]))) < 1e-12


@pytest.mark.parametrize("n", [2, 4, 6, 8, 10, 16])
# (3, 1, 1/3): Omega1 ~ 0 and Delta2 = 0; (3, 1, -5): both Delta < 0; (3, 1, -3): Delta1 = 0. Each is a branch of
# the n = 2 eigenbasis angle atan2(Omega, Delta) / 2.
@pytest.mark.parametrize(
    "pqk", [(3, 1, 0.0), (7, 3, -1.2), (101, 7, 0.5), (101, 1, 0.3), (3, 1, 1 / 3), (3, 1, -5.0), (3, 1, -3.0)]
)
def test_simulate_matches_dense_oracle(n, pqk):
    spec = SystemSpec(n=n, params=params_from_pair(*pqk))
    times = np.linspace(0.0, 3.0 * spec.params.tau, 61)
    psi0 = np.eye(n * n)[0]
    dense = dense_simulate(lab_hamiltonian(spec), psi0, times)
    result = simulate(spec, 3.0, 60)
    assert np.array_equal(result.times, np.linspace(0.0, 3.0, 61))  # in units of tau
    assert result.populations.shape == (61, n * n)
    assert np.max(np.abs(result.populations - dense.populations)) <= 1e-12


@pytest.mark.parametrize("n", [2, 4])
def test_simulate_zero_couplings_keep_state_1(n):
    spec = SystemSpec(n=n, params=CouplingParams(0.0, 0.0, 0.0, 0.0, tau=1.0))
    result = simulate(spec, 5.0, 6)
    expected = np.zeros(n * n)
    expected[0] = 1.0
    assert np.max(np.abs(result.populations - expected)) < 1e-12


@pytest.mark.parametrize("t_max", [float("nan"), float("inf"), -1.0])
def test_simulate_rejects_bad_t_max(t_max):
    spec = SystemSpec(n=2, params=params_from_pair(3, 1, 0.0))
    with pytest.raises(ValueError, match=f"t_max must be finite and non-negative, got {t_max}$"):
        simulate(spec, t_max, 10)


def _simulate_by_keyword(spec, t_max_tau, steps):
    return simulate(spec, t_max_tau=t_max_tau, steps=steps)


@pytest.mark.parametrize("evolve", [simulate, _simulate_by_keyword])
@pytest.mark.parametrize(
    "t_max, steps, message",
    [
        (1.0, -1, "steps must be non-negative"),
        (-1.0, 10, "t_max must be finite and non-negative"),
        (float("nan"), -1, "t_max must be finite and non-negative"),  # t_max is named first
    ],
)
def test_simulate_rejects_a_bad_grid(evolve, t_max, steps, message):
    spec = SystemSpec(n=2, params=params_from_pair(3, 1, 0.0))
    with pytest.raises(ValueError, match=message):
        evolve(spec, t_max, steps)


@pytest.mark.parametrize("n", [2, 6])
def test_simulate_rejects_a_factor_phase_that_overflows(n, recwarn):
    spec = SystemSpec(n=n, params=params_from_pair(3, 1, 0.0))
    with pytest.raises(ValueError, match="factor phase .* is not finite"):
        simulate(spec, 1e308, 1)
    # raised before any product is formed, so numpy warns about nothing
    assert not recwarn.list


@pytest.mark.parametrize("couplings", [(1.0, 2.0, 3.0, 4.0), (0.0, 0.0, 0.0, 0.0)])
def test_simulate_rejects_a_grid_end_that_overflows(couplings, recwarn):
    # t_max_tau is finite, but t_max_tau * tau overflows to inf; with zero couplings the phase is 0 * inf
    spec = SystemSpec(n=2, params=CouplingParams(*couplings, tau=10.0))
    with pytest.raises(ValueError, match=r"factor phase .* is not finite at \|t\| = inf"):
        simulate(spec, 1e308, 2)
    assert not recwarn.list


@pytest.mark.parametrize("n", [2, 4, 8])
@pytest.mark.parametrize("steps", [0, 1, 2, 3, 14, 15, 16, 17, 9_999, 12_344])
@pytest.mark.parametrize("t_max_tau", [0.0, 3.0])
def test_simulate_grid_split_matches_dense_oracle(n, steps, t_max_tau):
    # steps + 1 points around the perfect square 16 exercise the coarse/fine phase tables' edges; 10^4 and 12345
    # points span several time blocks at every n, and 12345 = 110 * 112 + 25 ends them on a partial coarse row
    spec = SystemSpec(n=n, params=params_from_pair(7, 3, 0.3))
    times = np.linspace(0.0, t_max_tau * spec.params.tau, steps + 1)
    dense = dense_simulate(lab_hamiltonian(spec), np.eye(n * n)[0], times)
    result = simulate(spec, t_max_tau, steps)
    assert np.array_equal(result.times, np.linspace(0.0, t_max_tau, steps + 1))
    assert np.max(np.abs(result.populations - dense.populations)) <= 1e-12
    assert np.max(np.abs(result.populations.sum(axis=1) - 1.0)) <= 1e-12


@pytest.mark.parametrize("n, steps", [(2, 9_999), (8, 5_000), (2, 99_999)])
def test_simulate_peak_memory_is_output_plus_384_kib(n, steps):
    # the grid is evaluated in blocks of about 48 KiB of phi, so only the populations and times grow with the grid
    spec = SystemSpec(n=n, params=params_from_pair(13, 3, 0.7))
    simulate(spec, 20.0, steps)  # builds the cached per-n constants outside the measurement
    tracemalloc.start()
    try:
        result = simulate(spec, 20.0, steps)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= result.populations.nbytes + result.times.nbytes + 384 * 1024


@pytest.mark.parametrize("n", range(12, 33, 2))
def test_verify_cpt_holds_one_n4_array_at_a_time(n):
    # the transfer rows are copied out and the frame dropped before build_h_tp allocates h, so h can take the
    # frame's place; with both alive the peak read 2.06-2.28 n^4 floats at every n here that is not a power of two
    spec = SystemSpec(n=n, params=params_from_pair(7, 3, 0.3))
    verify_cpt(spec)  # builds the cached per-n constants, and a 2^N frame, outside the measurement
    tracemalloc.start()
    try:
        verify_cpt(spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * 8 * n**4


@pytest.mark.parametrize("n", [2, 8])
def test_simulate_evaluates_order_sqrt_points_transcendentals(monkeypatch, n):
    seen = []
    for name in ("exp", "cos", "sin"):
        real = getattr(np, name)

        def spy(x, *args, real=real, **kwargs):
            seen.append(np.size(x))
            return real(x, *args, **kwargs)

        monkeypatch.setattr(np, name, spy)
    steps = 9_999
    simulate(SystemSpec(n=n, params=params_from_pair(7, 3, 0.3)), 20.0, steps)
    # two factors, n / 2 harmonics each, a coarse and a fine table of about sqrt(steps + 1) phases
    assert 0 < sum(seen) <= 2 * n * (math.isqrt(steps + 1) + 2)


def test_simulate_forms_no_dense_hamiltonian(monkeypatch):
    def refuse(*args):
        raise AssertionError("an n^2 x n^2 Hamiltonian was formed")

    dims = []
    real_eigh = np.linalg.eigh

    def eigh(a, *args, **kwargs):
        dims.append((len(a), np.iscomplexobj(a)))
        return real_eigh(a, *args, **kwargs)

    monkeypatch.setattr(dynamics, "lab_hamiltonian", refuse)
    monkeypatch.setattr(dynamics, "build_h_tp", refuse)
    monkeypatch.setattr(np.linalg, "eigh", eigh)
    result = simulate(SystemSpec(n=4, params=params_from_pair(3, 1, 0.0)), t_max_tau=2.0, steps=2)
    assert result.populations[1, 12] >= 1.0 - 1e-9
    assert dims == [(4, False), (4, False)]


@pytest.mark.parametrize("n", [2, 4, 6])
def test_simulate_folds_its_constant_into_two_real_half_maps(monkeypatch, n):
    # each eigen-index pairs with its mirror, so every block's products are real with inner dimension n^2 / 2
    kron_calls, products = [], []
    real_kron, real_moduli = dynamics._rows_times_kron, dynamics._squared_moduli

    def kron_spy(*args):
        kron_calls.append(args)
        return real_kron(*args)

    def moduli_spy(same, mixed, phi):
        block = real_moduli(same, mixed, phi)
        products.append((same, mixed, phi, block))
        return block

    monkeypatch.setattr(dynamics, "_rows_times_kron", kron_spy)
    monkeypatch.setattr(dynamics, "_squared_moduli", moduli_spy)
    for steps in (7, 9_999):  # one time block, then several
        kron_calls.clear()
        products.clear()
        result = simulate(SystemSpec(n=n, params=params_from_pair(7, 3, 0.3)), 2.0, steps)
        assert len(kron_calls) == 1
        assert (len(products) > 1) == (steps == 9_999)
        for same, mixed, phi, block in products:
            assert same.dtype == mixed.dtype == phi.dtype == np.float64
            assert same.shape == mixed.shape == (n * n, n * n // 2)
            assert phi.shape == block.shape == (n * n, phi.shape[1])
            # below glibc's default mmap threshold, so a block reuses heap memory
            assert phi.nbytes < 128 * 1024
        # the blocks' columns tile the grid once, in order
        assert sum(phi.shape[1] for _, _, phi, _ in products) == steps + 1
        assert np.array_equal(np.concatenate([block for *_, block in products], axis=1), result.populations.T)


def test_verify_cpt_reads_one_amplitude(monkeypatch):
    # the amplitude comes from the two n x n factors, read once out of build_h_tp's n^2 x n^2 h
    seen = []
    real = dynamics._kron_sum_factors

    def spy(h):
        seen.append(np.shape(h))
        f = real(h)
        seen.append(f.shape)
        return f

    monkeypatch.setattr(dynamics, "_kron_sum_factors", spy)
    for n in (2, 4, 6, 8):
        cert = verify_cpt(SystemSpec(n=n, params=params_from_pair(11, 5, -1.2)))
        # lab row n^2 - n is -V(Y)/sqrt(n), so the product-frame overlap is the amplitude's modulus
        assert cert.tp_overlap == abs(cert.phase)
        assert seen == [(n * n, n * n), (2, n, n)]
        seen.clear()


def test_verify_cpt_takes_the_real_eigensolver(monkeypatch):
    # one batched real eigh of the two n x n factors (the closed form at n = 2); no SVD, no n^2 x n^2 eigensolver
    seen = []
    real_eigh = np.linalg.eigh

    def eigh(a, *args, **kwargs):
        seen.append((np.shape(a), np.asarray(a).dtype))
        return real_eigh(a, *args, **kwargs)

    def refuse(*args, **kwargs):
        raise AssertionError("verify_cpt ran an SVD, a general eigensolver or formed a full propagator")

    assert not hasattr(dynamics, "matexp_unitary")
    assert not hasattr(dynamics, "propagator_elements")
    monkeypatch.setattr(linalg, "matexp_unitary", refuse)
    for name in ("svd", "eig", "eigvals", "eigvalsh"):
        monkeypatch.setattr(np.linalg, name, refuse)
    monkeypatch.setattr(np.linalg, "eigh", eigh)
    for n in (2, 4, 6, 8):
        seen.clear()
        assert verify_cpt(SystemSpec(n=n, params=params_from_pair(3, 1, 0.3))).passed
        assert seen == ([] if n == 2 else [((2, n, n), np.float64)])


def test_verify_cpt_nan_tau_raises():
    # a NaN tau is rejected where the parameters are built, before any certificate reads it
    with pytest.raises(ValueError, match="tau must be a finite positive number, got nan"):
        dataclasses.replace(params_from_pair(3, 1, 0.3), tau=float("nan"))


def test_verify_cpt_rejects_a_non_orthonormal_eigenbasis(monkeypatch):
    real_eigh = np.linalg.eigh

    def skewed(a, *args, **kwargs):
        evals, evecs = real_eigh(a, *args, **kwargs)
        evecs[..., :, 0] += 1e-6 * evecs[..., :, 1]
        return evals, evecs

    monkeypatch.setattr(np.linalg, "eigh", skewed)
    with pytest.raises(ValueError, match="eigenbasis is not unitary"):
        verify_cpt(SystemSpec(n=4, params=params_from_pair(3, 1, 0.3)))


def _plant_in_h_tp(monkeypatch, part):
    """Make dynamics.build_h_tp return its h plus ``part(n)``."""
    real = dynamics.build_h_tp
    monkeypatch.setattr(dynamics, "build_h_tp", lambda n, params: real(n, params) + part(n))


def test_verify_cpt_rejects_a_generator_that_c_does_not_negate(monkeypatch):
    # h + c I commutes with C = Y (x) Y; read as traceless factors it leaves the residual c I, so the Kronecker-sum
    # gate refuses it before the cosine reading could go wrong
    _plant_in_h_tp(monkeypatch, lambda n: 1e-6 * np.eye(n * n))
    with pytest.raises(ValueError, match=r"generator is not a traceless Kronecker sum: max \|h - \(h1 \(x\) I"):
        verify_cpt(SystemSpec(n=4, params=params_from_pair(3, 1, 0.3)))


def test_verify_cpt_rejects_a_factor_that_y_does_not_negate(monkeypatch):
    # a traceless J3^2 in the first factor is a Kronecker sum, but Y J3^2 Y^T = J3^2, so the chirality gate refuses it
    def part(n):
        j3 = np.diag(np.arange(n - 1, -n, -2) / 2)
        return kron(1e-6 * (j3 @ j3 - np.trace(j3 @ j3) / n * np.eye(n)), np.eye(n))

    _plant_in_h_tp(monkeypatch, part)
    with pytest.raises(ValueError, match=r"factor does not anticommute with Y: max \|f \+ Y f Y\^T\| = "):
        verify_cpt(SystemSpec(n=4, params=params_from_pair(3, 1, 0.3)))


def test_verify_cpt_rejects_a_non_hermitian_factor(monkeypatch):
    # an antisymmetric part of the second factor is a Kronecker sum, so the Hermiticity gate on the factors refuses it
    _plant_in_h_tp(monkeypatch, lambda n: kron(np.eye(n), 1e-6 * (np.eye(n, k=1) - np.eye(n, k=-1))))
    with pytest.raises(ValueError, match=r"factor is not Hermitian: max \|h - h\^dagger\| = "):
        verify_cpt(SystemSpec(n=4, params=params_from_pair(3, 1, 0.3)))


def test_verify_cpt_rejects_an_angle_that_overflows():
    # each factor's largest eigenvalue is 5e307, finite; their sum times tau is not
    params = CouplingParams(5e307, 0.0, 0.0, 5e307, tau=2.0)
    with pytest.raises(ValueError, match=r"propagator is not unitary: \(max\|lambda1\| \+ max\|lambda2\|\) \* tau"):
        verify_cpt(SystemSpec(n=2, params=params))


@pytest.mark.parametrize("row, what", [(12, "bra"), (0, "ket")])
def test_verify_cpt_rejects_a_transfer_row_outside_the_sector(monkeypatch, row, what):
    # a lab frame whose transfer row is the product state e_1, which C sends to -e_14
    real = dynamics.lab_frame

    def frame(n):
        w = real(n).copy()
        w[row] = np.eye(n * n)[1]
        return w

    monkeypatch.setattr(dynamics, "lab_frame", frame)
    with pytest.raises(ValueError, match=rf"^{what} is not in the \+1 sector of C"):
        verify_cpt(SystemSpec(n=4, params=params_from_pair(3, 1, 0.3)))


@pytest.mark.parametrize("scale", [1.0, 1e6])
def test_kron_sum_gate_holds_a_non_kronecker_part_to_its_tolerance(scale):
    # +c on an entry of h1's block a = 0, which the read-back takes into f1, and -c on the same entry of the block
    # a = 1: the residual there is 2c, held against KRON_SUM_TOL * max(1, max|h1| + max|h2|)
    n = 4
    h = scale * build_h_tp(n, params_from_pair(7, 3, 0.3))
    f = dynamics._kron_sum_factors(h.copy())
    allowed = dynamics.KRON_SUM_TOL * max(1.0, np.abs(f).max(axis=(1, 2)).sum())

    def planted(c):
        g = h.copy()
        for (x, y), sign in (((0, n), 1.0), ((1, n + 1), -1.0)):  # rows and columns (i, a) = (0, a) and (1, a)
            g[x, y] += sign * c
            g[y, x] += sign * c
        return g

    dynamics._kron_sum_factors(planted(0.25 * allowed))
    with pytest.raises(ValueError, match=r"generator is not a traceless Kronecker sum: max \|h - \(h1 \(x\) I"):
        dynamics._kron_sum_factors(planted(allowed))


@pytest.mark.parametrize("n", range(2, 33))
def test_build_h_tp_layout_reads_back_its_traceless_factors(n):
    # dyadic drives: the diagonals' sums and means are exact, and the off-diagonal entries are copies
    exact = [
        CouplingParams(3.0, -2.0, 5.0, 7.0, tau=1.0),
        CouplingParams(0.0, 0.0, 0.0, 0.0, tau=1.0),
        CouplingParams(-1.5, 0.0, -0.25, 2.0, tau=1.0),
        CouplingParams(0.75, -2.0, 0.0, 0.0, tau=1.0),
    ]
    for params in exact + _h_tp_drives(n):
        h = build_h_tp(n, params)
        scale = np.abs(h).max()
        want = np.array([build_h_single(n, params.delta1, params.omega1), build_h_single(n, params.delta2, params.omega2)])
        got = dynamics._kron_sum_factors(h)
        if params in exact:
            assert np.array_equal(got, want)
        else:
            assert np.max(np.abs(got - want)) <= 4 * np.finfo(float).eps * scale
        # the gate leaves the residual in h: rounding of the diagonal at most
        assert np.max(h) <= 4 * np.finfo(float).eps * scale


@pytest.mark.parametrize("tol", [float("inf"), -float("inf"), float("nan"), -1e-9, 0.0])
def test_verify_cpt_rejects_bad_tol(tol):
    with pytest.raises(ValueError, match="tol must be a finite positive number"):
        verify_cpt(SystemSpec(n=2, params=params_from_pair(3, 1, 0.3)), tol=tol)


def test_verify_cpt_lifts():
    params = params_from_pair(3, 1, 0.0)
    for n, target in ((2, 3), (4, 13), (8, 57)):
        cert = verify_cpt(SystemSpec(n=n, params=params))
        assert cert.target_index == target
        assert cert.fidelity >= 1.0 - 1e-9
        assert cert.tp_overlap >= 1.0 - 1e-9
        assert cert.passed
        assert cert.tau == params.tau


@pytest.mark.parametrize(
    "n, pqk",
    [(16, (3, 1, 0.0)), (16, (7, 3, 0.7)), (16, (11, 5, -1.3)), (32, (7, 3, 0.7))],
)
def test_verify_cpt_default_frame_beyond_eight_levels(n, pqk):
    cert = verify_cpt(SystemSpec(n=n, params=params_from_pair(*pqk)))
    assert cert.target_index == n * n - n + 1
    assert cert.fidelity >= 1.0 - 1e-9
    assert cert.passed


@pytest.mark.parametrize("pqk", [(3, 1, 0.0), (5, 1, 0.0), (7, 3, 0.3), (11, 5, -1.2)])
@pytest.mark.parametrize("n", [2, 4, 8])
def test_certificate_as_json_holds_its_fields(n, pqk):
    cert = verify_cpt(SystemSpec(n=n, params=params_from_pair(*pqk)))
    payload = cert.as_json()
    assert list(payload) == ["fidelity", "target_index", "tau", "pass", "phase"]
    assert payload["phase"] == [cert.phase.real, cert.phase.imag]
    # |amp|^2 and |amp| differ in their last bits at most of these inputs
    assert (payload["fidelity"], payload["tau"]) == (cert.fidelity, cert.tau)
    assert (payload["target_index"], payload["pass"]) == (cert.target_index, True)
    assert dataclasses.replace(cert, fidelity=0.5).as_json()["pass"] is False


@pytest.mark.parametrize("delta", [1e-4, 1e-5, -1e-5])
@pytest.mark.parametrize("pqk", [(3, 1, 0.0), (7, 3, 0.3), (11, 5, -1.2), (101, 7, 0.5)])
@pytest.mark.parametrize("n", [2, 4, 8, 16])
def test_a_timing_error_costs_the_quadratic_infidelity_law(n, pqk, delta):
    # at t = tau (1 + delta) the transfer misses by 1 - F = (n^2 - 1) pi^2 c delta^2 / 6 to leading order
    p, q, _ = pqk
    params = params_from_pair(*pqk)
    late = verify_cpt(SystemSpec(n=n, params=dataclasses.replace(params, tau=params.tau * (1 + delta))))
    law = (n * n - 1) * math.pi**2 * (p * p + q * q) / 2 * delta**2 / 6
    assert abs((1.0 - late.fidelity) / law - 1.0) <= 0.02


def test_the_timing_infidelity_does_not_depend_on_k():
    def late_infidelity(k):
        params = params_from_pair(7, 3, k)
        return 1.0 - verify_cpt(SystemSpec(n=4, params=dataclasses.replace(params, tau=params.tau * 1.0001))).fidelity

    reference = late_infidelity(0.0)
    assert reference > 1e-6
    for k in (0.3, -1.2, 5.0):
        assert abs(late_infidelity(k) - reference) <= 1e-14, k


def test_verify_cpt_general_even():
    cert = verify_cpt(SystemSpec(n=6, params=params_from_pair(3, 1, 0.0)))
    assert cert.target_index == 31
    assert cert.fidelity >= 1.0 - 1e-9


def test_verify_cpt_rejects_odd():
    with pytest.raises(ValueError, match="odd"):
        verify_cpt(SystemSpec(n=3, params=params_from_pair(3, 1, 0.0)))


def test_frame_equivalence_of_propagators():
    params = params_from_pair(5, 1, 0.3)
    w = build_w(2).W
    h_tp = build_h_tp(4, params)
    h_lab = lab_hamiltonian(SystemSpec(n=4, params=params))
    for t in (0.2, 0.9, 2.3):
        u_lab = matexp_unitary(h_lab, t)
        assert np.max(np.abs(u_lab - w @ matexp_unitary(h_tp, t) @ w)) < 1e-10


def test_spectrum_is_kron_sum():
    params = params_from_pair(5, 3, -0.8)
    for n in (2, 3, 4):
        h1 = build_h_single(n, params.delta1, params.omega1)
        h2 = build_h_single(n, params.delta2, params.omega2)
        e1 = np.linalg.eigvalsh(h1)
        e2 = np.linalg.eigvalsh(h2)
        expected = np.sort(np.add.outer(e1, e2).ravel())
        got = np.linalg.eigvalsh(build_h_tp(n, params))
        assert np.max(np.abs(got - expected)) < 1e-10
        # each factor spectrum is 2*sqrt(d^2 + o^2) * m
        r1 = 2.0 * np.hypot(params.delta1, params.omega1)
        j = (n - 1) / 2
        ms = np.sort(j - np.arange(n))
        assert np.max(np.abs(e1 - r1 * ms)) < 1e-10


def test_forbidden_scan_examples():
    for p, q in ((3, 1), (5, 1), (1001, 1)):
        spec = SystemSpec(n=2, params=params_from_pair(p, q, 0.0))
        report = forbidden_scan(spec)
        assert report.n_points == 10_000
        assert report.t_max == 20 * spec.params.tau
        assert report.max_pop_2 < 1.0 - 1e-6
        assert report.max_pop_4 < 1.0 - 1e-6
        assert report.passed


@pytest.mark.parametrize("pqk", [(3, 1, 0.0), (7, 3, 0.3), (55, 3, 1.9)])
def test_forbidden_scan_maxima_match_dense_oracle(pqk):
    spec = SystemSpec(n=2, params=params_from_pair(*pqk))
    report = forbidden_scan(spec)
    times = np.linspace(0.0, 20.0 * spec.params.tau, 10_000)
    dense = dense_simulate(lab_hamiltonian(spec), np.eye(4)[0], times).populations
    assert abs(report.max_pop_2 - np.max(dense[:, 1])) <= 1e-12
    assert abs(report.max_pop_4 - np.max(dense[:, 3])) <= 1e-12


def test_forbidden_scan_reads_simulate(monkeypatch):
    calls = []
    real = dynamics.simulate

    def spy(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(dynamics, "simulate", spy)
    spec = SystemSpec(n=2, params=params_from_pair(3, 1, 0.0))
    forbidden_scan(spec)
    assert calls == [(spec, 20.0, 9_999)]


@pytest.mark.parametrize("couplings, filled", [((1.0, 0.0, 0.0, 0.0), "max_pop_2"), ((0.0, 0.0, 0.0, 1.0), "max_pop_4")])
def test_forbidden_scan_fails_when_either_state_fills(couplings, filled):
    # a lone V12 (V14) drives state 1 fully into state 2 (4) and leaves the other forbidden state empty
    report = forbidden_scan(SystemSpec(n=2, params=params_from_lab_couplings(couplings, 1.0)))
    assert getattr(report, filled) >= report.threshold
    assert min(report.max_pop_2, report.max_pop_4) < 1e-20
    assert not report.passed


def test_forbidden_scan_rejects_other_dims():
    with pytest.raises(ValueError, match="n=2"):
        forbidden_scan(SystemSpec(n=4, params=params_from_pair(3, 1, 0.0)))


def test_coupling_graph_sixteen_level_pattern():
    params = params_from_pair(3, 1, 0.7)  # generic k keeps every V nonzero
    h_lab = lab_hamiltonian(SystemSpec(n=4, params=params)).real
    graph = coupling_graph(h_lab)
    expected = sixteen_level_lab(*lab_couplings(params))
    want = {
        (i + 1, j + 1)
        for i in range(16)
        for j in range(i + 1, 16)
        if abs(expected[i, j]) > 1e-12
    }
    assert {(i, j) for i, j, _ in graph.edges} == want
    assert (1, 3) not in {(i, j) for i, j, _ in graph.edges}
    weights = {(i, j): wgt for i, j, wgt in graph.edges}
    v12, v23, v34, v14 = lab_couplings(params)
    assert abs(weights[(1, 2)] - np.sqrt(3) * v12) < 1e-12
    assert abs(weights[(1, 6)] - 2 * v14) < 1e-12
    assert np.max(np.abs(graph.diagonal)) < 1e-12


def _assert_a_1e8_coupling_keeps_its_edges(n):
    # V14 = k c / hypot(1, k) and V12 = c / hypot(1, k): at k = 1e-8, V14 is 1e-8 of the largest coupling
    small, generic = params_from_pair(7, 3, 1e-8), params_from_pair(7, 3, 0.7)
    couplings = lab_couplings(small)
    assert abs(couplings[3]) == pytest.approx(1e-8 * max(map(abs, couplings)), rel=1e-6)
    weights = {(i, j): w for i, j, w in coupling_graph(lab_hamiltonian(SystemSpec(n=n, params=small))).edges}
    want = {(i, j) for i, j, _ in coupling_graph(lab_hamiltonian(SystemSpec(n=n, params=generic))).edges}
    assert set(weights) == want
    if n == 2:
        assert weights[(1, 4)] == pytest.approx(couplings[3], rel=1e-6)


@pytest.mark.parametrize("n", [2, 4])
def test_coupling_graph_keeps_a_coupling_1e8_of_the_largest(n):
    _assert_a_1e8_coupling_keeps_its_edges(n)


def test_a_1e6_edge_threshold_fails_the_small_coupling_check(monkeypatch):
    graph_type = dynamics.CouplingGraph

    def thresholded(edges, diagonal):
        scale = max([abs(w) for *_, w in edges] + np.abs(diagonal).tolist())
        return graph_type(tuple(e for e in edges if abs(e[2]) > 1e-6 * scale), diagonal)

    monkeypatch.setattr(dynamics, "CouplingGraph", thresholded)
    with pytest.raises(AssertionError):
        _assert_a_1e8_coupling_keeps_its_edges(2)


def test_coupling_graph_zero_matrix():
    graph = coupling_graph(np.zeros((4, 4)))
    assert graph.edges == ()


def test_system_spec_validation():
    with pytest.raises(ValueError, match="n must be >= 2"):
        SystemSpec(n=1, params=params_from_pair(3, 1, 0.0))


@pytest.mark.parametrize("p", [99, 1001])
def test_simulate_six_levels_large_couplings(p):
    # W h W^T is symmetric only to ~eps * max|h|, which the relative Hermiticity gate accepts
    result = simulate(SystemSpec(n=6, params=params_from_pair(p, 1, 0.5)), t_max_tau=1.0, steps=1)
    assert result.populations[1, 30] >= 1.0 - 1e-9


def test_hermiticity_gate_rejects_order_one_asymmetry():
    bad = np.array([[0.0, 1.0], [0.0, 0.0]])
    with pytest.raises(ValueError, match="not Hermitian"):
        dense_simulate(bad, np.array([1.0, 0.0]), np.array([0.0]))
    with pytest.raises(ValueError, match="not Hermitian"):
        coupling_graph(bad)
