import functools
import math
import re

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from pythcpt import linalg
from pythcpt.frames import entanglement_entropy
from pythcpt.linalg import (
    chiral_amplitude,
    complete_orthogonal,
    hermiticity_deviation,
    kron,
    matexp_unitary,
    require_hermitian,
    require_normalized,
    require_unitary,
    unvectorize,
    vectorize,
)
from pythcpt.retrograde import PulseSchedule, general_recipe, ordered_propagator, time_independent_conditions

from dense_oracle import dense_propagator, dense_simulate, propagator_elements

SX = np.array([[0.0, 1.0], [1.0, 0.0]])
SZ = np.array([[1.0, 0.0], [0.0, -1.0]])
SIG2 = np.array([[0.0, 1.0], [-1.0, 0.0]])
# X (x) I + I (x) Z: Y_2 = i sigma_y negates both factors, so C = Y_2 (x) Y_2, the reversal with these signs,
# anticommutes with it and fixes the Bell state vec(I)/sqrt(2)
CHIRAL_H = np.kron(SX, np.eye(2)) + np.kron(np.eye(2), SZ)
CHIRAL_SIGNS = np.array([1.0, -1.0, -1.0, 1.0])
BELL = np.array([1.0, 0.0, 0.0, 1.0]) / np.sqrt(2)


def test_kron_identity():
    assert np.array_equal(kron(np.eye(2), np.eye(2)), np.eye(4))


@pytest.mark.parametrize(
    "shape_a, shape_b",
    [((2, 2), (2, 2)), ((3, 2), (2, 5)), ((1, 4), (3, 1)), ((4,), (3,)), ((2, 3), (0, 2)), ((2,), (2, 2))],
)
@pytest.mark.parametrize("dtypes", [(float, float), (complex, complex), (float, complex), (complex, float)])
def test_kron_is_bit_identical_to_numpy(shape_a, shape_b, dtypes):
    rng = np.random.default_rng(11)

    def sample(shape, dtype):
        x = rng.normal(size=shape)
        return x + 1j * rng.normal(size=shape) if dtype is complex else x

    a, b = sample(shape_a, dtypes[0]), sample(shape_b, dtypes[1])
    got, want = kron(a, b), np.kron(a, b)
    assert got.shape == want.shape and got.dtype == want.dtype
    assert np.array_equal(got, want)


def test_kron_diagonal():
    assert np.array_equal(kron(SZ, np.eye(2)), np.diag([1.0, 1.0, -1.0, -1.0]))


def test_kron_antidiagonal():
    # blockwise expansion by hand: sigma_x (x) sigma_x
    expected = np.array(
        [
            [0, 0, 0, 1],
            [0, 0, 1, 0],
            [0, 1, 0, 0],
            [1, 0, 0, 0],
        ],
        dtype=float,
    )
    assert np.array_equal(kron(SX, SX), expected)


def test_kron_mixed_product_and_associativity():
    rng = np.random.default_rng(11)
    for _ in range(20):
        dims = rng.integers(1, 5, size=6)
        a = rng.normal(size=(dims[0], dims[1])) + 1j * rng.normal(size=(dims[0], dims[1]))
        c = rng.normal(size=(dims[1], dims[2])) + 1j * rng.normal(size=(dims[1], dims[2]))
        b = rng.normal(size=(dims[3], dims[4])) + 1j * rng.normal(size=(dims[3], dims[4]))
        d = rng.normal(size=(dims[4], dims[5])) + 1j * rng.normal(size=(dims[4], dims[5]))
        lhs = kron(a, b) @ kron(c, d)
        rhs = kron(a @ c, b @ d)
        assert np.max(np.abs(lhs - rhs)) < 1e-12
        e = rng.normal(size=(2, 3))
        assert np.max(np.abs(kron(kron(a, b), e) - kron(a, kron(b, e)))) < 1e-12


def test_vectorize_definition():
    x = np.array([["a", "c"], ["b", "d"]], dtype=object)
    assert list(vectorize(x)) == ["a", "b", "c", "d"]


def test_vectorize_sigma2():
    assert np.array_equal(vectorize(SIG2), np.array([0.0, -1.0, 1.0, 0.0]))


def test_vectorize_identity3():
    assert np.array_equal(
        vectorize(np.eye(3)), np.array([1, 0, 0, 0, 1, 0, 0, 0, 1], dtype=float)
    )


def test_unvectorize_identity():
    assert np.array_equal(unvectorize(np.array([1.0, 0.0, 0.0, 1.0]), 2, 2), np.eye(2))


def test_unvectorize_sigma2():
    assert np.array_equal(unvectorize(np.array([0.0, -1.0, 1.0, 0.0]), 2, 2), SIG2)


def test_unvectorize_round_trip_exact():
    rng = np.random.default_rng(5)
    r = rng.normal(size=(3, 5)) + 1j * rng.normal(size=(3, 5))
    back = unvectorize(vectorize(r), 3, 5)
    # no arithmetic involved, so the round trip is bit-for-bit
    assert np.array_equal(back, r)


def test_unvectorize_dimension_mismatch_message():
    with pytest.raises(ValueError, match="3x5"):
        unvectorize(np.zeros(14), 3, 5)


def test_vectorize_kron_identity_1000():
    rng = np.random.default_rng(42)
    worst = 0.0
    for _ in range(1000):
        m, p, q, r = rng.integers(1, 7, size=4)
        a = rng.normal(size=(m, p)) + 1j * rng.normal(size=(m, p))
        x = rng.normal(size=(p, q)) + 1j * rng.normal(size=(p, q))
        b = rng.normal(size=(q, r)) + 1j * rng.normal(size=(q, r))
        err = np.max(np.abs(vectorize(a @ x @ b) - kron(b.T, a) @ vectorize(x)))
        worst = max(worst, float(err))
    assert worst < 1e-12


def test_matexp_zero_generator():
    for t in (0.0, 1.7, -4.0):
        assert np.max(np.abs(matexp_unitary(np.zeros((5, 5)), t) - np.eye(5))) < 1e-14


def test_matexp_diagonal():
    u = matexp_unitary(SZ, np.pi)
    assert np.max(np.abs(u - (-np.eye(2)))) < 1e-12


def test_matexp_sigma_x_quarter_period():
    # 2x2 closed form: exp(-i sx t) = cos(t) I - i sin(t) sx
    t = np.pi / 2
    expected = np.cos(t) * np.eye(2) - 1j * np.sin(t) * SX
    u = matexp_unitary(SX, t)
    assert np.max(np.abs(u - expected)) < 1e-12
    assert np.max(np.abs(u - (-1j) * SX)) < 1e-12


def test_matexp_rejects_non_hermitian():
    bad = np.array([[0.0, 1.0], [0.0, 0.0]])
    with pytest.raises(ValueError, match="not Hermitian"):
        matexp_unitary(bad, 1.0)


def test_matexp_rejects_non_hermitian_beyond_two_levels():
    # a 2 x 2 generator takes the closed form and a larger one eigh; the gate runs before either
    with pytest.raises(ValueError, match="not Hermitian"):
        matexp_unitary(np.eye(3, k=1), 1.0)


@settings(max_examples=300, deadline=None)
@given(
    center=st.floats(-1.0, 1.0),
    split=st.floats(-1.0, 1.0),
    coupling=st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)),
    kind=st.sampled_from(["complex", "real", "scalar", "zero"]),
    log_scale=st.floats(-6.0, 6.0),
    log_norm_t=st.floats(-3.0, 9.0),
    backwards=st.booleans(),
)
def test_two_level_matexp_matches_the_dense_oracle(center, split, coupling, kind, log_scale, log_norm_t, backwards):
    # the closed form exp(-i h t) of a 2 x 2 h against eigh, to 8 eps * max(1, ||h|| |t|), for ||h|| |t| up to 1e9
    b = complex(*coupling) if kind == "complex" else coupling[0]
    if kind in ("scalar", "zero"):  # r = 0: a multiple of the identity, and h = 0
        split, b = 0.0, 0.0
        center = 0.0 if kind == "zero" else center
    h = 10.0**log_scale * np.array([[center + split, b], [np.conj(b), center - split]])
    norm = float(np.linalg.norm(h, 2))
    t = 10.0**log_norm_t / (norm if norm else 1.0) * (-1.0 if backwards else 1.0)
    assume(math.isfinite(t))  # a subnormal ||h|| overflows the time
    err = float(np.abs(matexp_unitary(h, t) - dense_propagator(h, t)).max())
    assert err <= 8 * np.finfo(float).eps * max(1.0, norm * abs(t))


def test_hermiticity_gate_is_relative_to_the_largest_entry():
    h = 1e6 * SX
    require_hermitian(h + 1e-8 * SIG2, "h")  # deviation 2e-8 <= 1e-12 * 1e6
    with pytest.raises(ValueError, match="not Hermitian"):
        require_hermitian(h + 1e-5 * SIG2, "h")
    with pytest.raises(ValueError, match="not Hermitian"):
        require_hermitian(1e-3 * SIG2, "h")  # small matrices keep the absolute 1e-12 floor


def test_normalization_gate_threshold():
    v = require_normalized([[1.0 + 5e-11], [0.0]], "v")  # NORMALIZATION_TOL = 1e-10
    assert v.dtype == complex and v.shape == (2,)
    with pytest.raises(ValueError, match=r"v must be normalized, got \|v\| = 1.0000000002"):
        require_normalized(np.array([1.0 + 2e-10, 0.0]), "v")


def test_unitarity_gate_threshold():
    require_unitary(np.diag([np.sqrt(1.0 + 5e-11), 1.0j]), "u")  # UNITARITY_TOL = 1e-10
    with pytest.raises(ValueError, match="u is not unitary"):
        require_unitary(np.diag([np.sqrt(1.0 + 2e-10), 1.0j]), "u")


def _strided_copy(a):
    big = np.zeros((2 * a.shape[0], 3 * a.shape[1]), dtype=a.dtype)
    big[::2, ::3] = a
    return big[::2, ::3]


# The layouts a gate may receive: C- and F-ordered arrays, a strided view and a transposed view.
LAYOUTS = {
    "C": np.ascontiguousarray,
    "F": np.asfortranarray,
    "strided": _strided_copy,
    "transposed": lambda a: np.ascontiguousarray(a.T).T,
}


def _near(kind, d, seed, log_scale, log_eps, complex_entries):
    """A Hermitian (times 10**log_scale) or unitary d x d matrix plus noise of size 10**log_eps."""
    rng = np.random.default_rng(seed)

    def sample():
        m = rng.normal(size=(d, d))
        return m + 1j * rng.normal(size=(d, d)) if complex_entries else m

    m = sample()
    base = (m + m.conj().T) / 2 * 10.0**log_scale if kind == "hermitian" else np.linalg.qr(m)[0]
    return base + 10.0**log_eps * sample()


gate_inputs = dict(
    d=st.integers(1, 6),
    seed=st.integers(0, 2**32 - 1),
    log_scale=st.floats(-2.0, 6.0),
    log_eps=st.floats(-17.0, -7.0),
    complex_entries=st.booleans(),
    layout=st.sampled_from(sorted(LAYOUTS)),
)


@settings(max_examples=150, deadline=None)
@given(**gate_inputs)
def test_hermitian_gate_residuals_equal_the_reference_expressions(d, seed, log_scale, log_eps, complex_entries, layout):
    h = LAYOUTS[layout](_near("hermitian", d, seed, log_scale, log_eps, complex_entries))
    dev = float(np.max(np.abs(h - h.conj().T)))
    scale = max(1.0, float(np.max(np.abs(h))))
    assert hermiticity_deviation(h) == dev
    # the gate raises exactly when the reference deviation exceeds the tolerance, at the tolerance in use
    # and at tolerances that put the reference on either side of the bound
    bound = dev / scale
    for tol in (linalg.HERMITICITY_TOL, bound, np.nextafter(bound, -np.inf), np.nextafter(bound, np.inf)):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(linalg, "HERMITICITY_TOL", tol)
            if dev <= tol * scale:
                require_hermitian(h, "h")
            else:
                with pytest.raises(ValueError, match=re.escape(f"= {dev:.3e} exceeds")):
                    require_hermitian(h, "h")


@settings(max_examples=150, deadline=None)
@given(**gate_inputs)
def test_unitary_gate_residual_equals_the_reference_expression(d, seed, log_scale, log_eps, complex_entries, layout):
    u = LAYOUTS[layout](_near("unitary", d, seed, log_scale, log_eps, complex_entries))
    err = float(np.max(np.abs(u @ u.conj().T - np.eye(len(u)))))
    # passing at tol = err and raising just below it pins the gate's residual to err bit for bit
    for tol in (linalg.UNITARITY_TOL, err, np.nextafter(err, -np.inf)):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(linalg, "UNITARITY_TOL", tol)
            if err <= tol:
                require_unitary(u, "u")
            else:
                with pytest.raises(ValueError, match=re.escape(f"= {err:.3e} exceeds")):
                    require_unitary(u, "u")


def test_hermiticity_deviation_of_an_empty_matrix_is_zero():
    assert hermiticity_deviation(np.zeros((0, 0))) == 0.0
    require_hermitian(np.zeros((0, 0)), "h")


def _segment_product(schedule, t0, t1):
    """U(t1, t0) as the ordered product of each overlapped segment's matexp_unitary, the adjoint for t1 < t0."""
    lo, hi = sorted((t0, t1))
    steps = []
    for (h, d), s in zip(schedule.segments, schedule.boundaries()[:-1]):
        part = min(hi, s + d) - max(lo, s)
        if part > 0:
            steps.append(matexp_unitary(h, part))
    u = functools.reduce(lambda acc, step: step @ acc, steps[1:], steps[0])
    return u.conj().T if t1 < t0 else u


@settings(max_examples=60, deadline=None)
@given(
    d=st.integers(1, 4),
    durations=st.lists(st.floats(0.05, 2.0), min_size=1, max_size=4),
    seed=st.integers(0, 2**32 - 1),
    complex_entries=st.booleans(),
    picks=st.tuples(st.integers(0, 4), st.integers(0, 4), st.floats(0.0, 1.0), st.floats(0.0, 1.0)),
)
def test_ordered_propagator_is_the_exact_segment_product(d, durations, seed, complex_entries, picks):
    rng = np.random.default_rng(seed)
    segments = []
    for dur in durations:
        m = rng.normal(size=(d, d)) + (1j * rng.normal(size=(d, d)) if complex_entries else 0.0)
        segments.append(((m + m.conj().T) / 2, dur))
    schedule = PulseSchedule(tuple(segments))
    bounds = schedule.boundaries()
    # a segment boundary or an interior point for each end, in either order
    i, j, x, y = picks
    t0 = float(bounds[min(i, len(durations))]) if x < 0.3 else x * schedule.T
    t1 = float(bounds[min(j, len(durations))]) if y < 0.3 else y * schedule.T
    got = ordered_propagator(schedule, t0, t1)
    if t1 == t0:
        assert np.array_equal(got, np.eye(d))
    else:
        assert np.array_equal(got, _segment_product(schedule, t0, t1))
    for t in (t0, t1):
        empty = ordered_propagator(schedule, t, t)
        assert empty.dtype == complex and np.array_equal(empty, np.eye(d))


NAN = float("nan")


@pytest.mark.parametrize(
    "gate, message",
    [
        (lambda: require_hermitian(np.array([[NAN, 0.0], [0.0, 1.0]]), "h"), "h is not Hermitian"),
        (lambda: require_normalized(np.array([NAN, 0.0]), "v"), "v must be normalized"),
        (lambda: require_unitary(np.diag([NAN, 1.0]), "u"), "u is not unitary"),
        (lambda: matexp_unitary(SZ, NAN), "propagator is not unitary"),
        (lambda: matexp_unitary(SZ, float("inf")), "propagator is not unitary"),
        (lambda: matexp_unitary(np.diag([1.0, 0.0, -1.0]), NAN), "propagator is not unitary"),
        (lambda: propagator_elements(SZ, NAN, np.eye(2), np.eye(2)), "propagator is not unitary"),
        (lambda: propagator_elements(SZ, float("inf"), np.eye(2), np.eye(2)), "propagator is not unitary"),
        (lambda: chiral_amplitude(CHIRAL_H, NAN, CHIRAL_SIGNS, BELL, BELL), "propagator is not unitary"),
        (lambda: chiral_amplitude(CHIRAL_H, float("inf"), CHIRAL_SIGNS, BELL, BELL), "propagator is not unitary"),
        (lambda: chiral_amplitude(1e300 * CHIRAL_H, 1e10, CHIRAL_SIGNS, BELL, BELL), "propagator is not unitary"),
        (lambda: chiral_amplitude(CHIRAL_H, 1.0, CHIRAL_SIGNS, BELL * NAN, BELL), "bra is not in the \\+1 sector"),
        (lambda: complete_orthogonal([np.array([NAN, 0.0])]), "not orthonormal"),
        (lambda: complete_orthogonal([np.array([1.0 + NAN * 1j, 0.0])]), "must be real"),
    ],
    ids=[
        "hermitian", "normalized", "unitary", "matexp", "matexp_inf", "matexp_eigh", "elements_nan", "elements_inf",
        "chiral_nan", "chiral_inf", "chiral_overflow", "chiral_nan_bra", "gram", "real_seeds",
    ],
)
def test_gates_reject_nan(gate, message):
    with pytest.raises(ValueError, match=message):
        gate()


@pytest.mark.parametrize(
    "call, what",
    [
        (lambda v: dense_simulate(np.zeros((4, 4)), v, np.array([0.0])), "psi0"),
        (lambda v: entanglement_entropy(v, 2), "column"),
        (lambda v: time_independent_conditions(np.zeros((4, 4)), v, 1.0), "state"),
        (lambda v: general_recipe(np.eye(4), np.eye(4), v, np.eye(4)[1], 0.0), "i_state"),
        (lambda v: general_recipe(np.eye(4), np.eye(4), np.eye(4)[1], v, 0.0), "f_state"),
    ],
    ids=[
        "simulate", "entanglement_entropy", "time_independent_conditions", "general_recipe_i", "general_recipe_f",
    ],
)
def test_callers_reject_unnormalized(call, what):
    with pytest.raises(ValueError, match=f"{what} must be normalized"):
        call(np.ones(4))


def test_matexp_group_property_and_unitarity():
    rng = np.random.default_rng(3)
    for dim in (2, 5, 16):
        m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        h = (m + m.conj().T) / 2
        t, s = rng.normal(size=2)
        u_t = matexp_unitary(h, t)
        u_s = matexp_unitary(h, s)
        u_ts = matexp_unitary(h, t + s)
        assert np.max(np.abs(u_t @ u_s - u_ts)) < 1e-10
        assert np.max(np.abs(u_t @ u_t.conj().T - np.eye(dim))) < 1e-10


def test_propagator_elements_sigma_x_quarter_period():
    # exp(-i sigma_x pi/2) = -i sigma_x: <0|U|0> = 0, <0|U|1> = -i, and one pair gives one element
    t = np.pi / 2
    assert np.allclose(propagator_elements(SX, t, np.eye(2)[[0, 0]], np.eye(2)), [0.0, -1j], atol=1e-15)
    got = propagator_elements(SX, t, np.eye(2)[1], np.eye(2)[0])
    assert np.shape(got) == () and abs(got + 1j) < 1e-15


def test_propagator_elements_rejects_non_hermitian():
    with pytest.raises(ValueError, match="generator is not Hermitian"):
        propagator_elements(SIG2, 1.0, np.eye(2), np.eye(2))


def test_chiral_amplitude_of_a_two_qubit_drive():
    # exp(-i h t) = exp(-i X t) (x) exp(-i Z t), so <Bell| U |Bell> = tr(exp(-i X t) exp(-i Z t)) / 2 = cos(t)^2
    for t in (0.0, 0.3, np.pi / 2, 2.0, -7.5):
        got = chiral_amplitude(CHIRAL_H, t, CHIRAL_SIGNS, BELL, BELL)
        assert np.isrealobj(got) and abs(got - np.cos(t) ** 2) <= 1e-15


@pytest.mark.parametrize("scale", [1.0, 1e6])
def test_chiral_amplitude_gates_a_part_that_commutes_with_c(scale):
    # h + c I: the residual max|h + C h C| is 2c, held against CHIRALITY_TOL * max(1, max|h|)
    h = scale * CHIRAL_H
    allowed = linalg.CHIRALITY_TOL * max(1.0, np.abs(h).max())
    chiral_amplitude(h + 0.25 * allowed * np.eye(4), 1.0, CHIRAL_SIGNS, BELL, BELL)
    with pytest.raises(ValueError, match=r"generator does not anticommute with C: max \|h \+ C h C\| = "):
        chiral_amplitude(h + allowed * np.eye(4), 1.0, CHIRAL_SIGNS, BELL, BELL)


@pytest.mark.parametrize("what", ["bra", "ket"])
def test_chiral_amplitude_gates_states_outside_the_sector(what):
    # e_1 - C e_1 = e_1 + e_2 has norm sqrt(2); a state 1e-13 off the sector is rounding and passes
    states = {"bra": BELL, "ket": BELL}
    chiral_amplitude(CHIRAL_H, 1.0, CHIRAL_SIGNS, **{**states, what: BELL + 1e-13 * np.eye(4)[1]})
    with pytest.raises(ValueError, match=rf"^{what} is not in the \+1 sector of C: \|\|v - C v\|\| = 1.414e\+00"):
        chiral_amplitude(CHIRAL_H, 1.0, CHIRAL_SIGNS, **{**states, what: np.eye(4)[1]})


def test_chiral_amplitude_rejects_non_hermitian():
    with pytest.raises(ValueError, match="generator is not Hermitian"):
        chiral_amplitude(CHIRAL_H + np.eye(4, k=1), 1.0, CHIRAL_SIGNS, BELL, BELL)


def test_complete_orthogonal_standard_basis():
    e1 = np.array([1.0, 0.0, 0.0])
    assert np.array_equal(complete_orthogonal([e1]), np.eye(3))


def test_complete_orthogonal_hand_case():
    row = np.array([1.0, 1.0]) / np.sqrt(2)
    q = complete_orthogonal([row])
    # the completion of (1, 1)/sqrt(2) is (1, -1)/sqrt(2), first nonzero entry positive
    assert np.max(np.abs(q[1] - np.array([1.0, -1.0]) / np.sqrt(2))) < 1e-12


def test_complete_orthogonal_random_seeds():
    rng = np.random.default_rng(8)
    for dim, k in ((4, 1), (7, 3), (10, 2)):
        m = rng.normal(size=(dim, dim))
        q_full, _ = np.linalg.qr(m)
        q = complete_orthogonal([q_full[:, i] for i in range(k)])
        assert np.max(np.abs(q @ q.T - np.eye(dim))) < 1e-10


def test_complete_orthogonal_rejects_bad_seeds():
    with pytest.raises(ValueError, match="not orthonormal"):
        complete_orthogonal([np.array([1.0, 1.0])])
    with pytest.raises(ValueError, match="not orthonormal"):
        complete_orthogonal([np.array([1.0, 0.0]), np.array([1.0, 0.0])])
