import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pythcpt.dynamics import SystemSpec, verify_cpt
from pythcpt.triples import (
    CouplingParams,
    OddPair,
    PythTriple,
    coupling_params,
    enumerate_primitive_pairs,
    lab_couplings,
    params_from_lab_couplings,
    params_from_pair,
    triple_from_pair,
)


def test_triple_examples():
    t = triple_from_pair(OddPair(3, 1))
    assert (t.a, t.b, t.c, t.primitive) == (4.0, 3.0, 5.0, True)
    t = triple_from_pair(OddPair(5, 1))
    assert (t.a, t.b, t.c) == (12.0, 5.0, 13.0)
    t = triple_from_pair(OddPair(3, 1), sign_a=-1)
    assert (t.a, t.b, t.c) == (-4.0, 3.0, 5.0)
    assert t.a ** 2 + t.b ** 2 == t.c ** 2


def test_pair_validation():
    with pytest.raises(ValueError):
        OddPair(4, 1)
    with pytest.raises(ValueError):
        OddPair(3, 2)
    with pytest.raises(ValueError):
        OddPair(3, 3)
    with pytest.raises(ValueError):
        OddPair(1, 3)


def test_enumerate_small_limits():
    assert [(p.p, p.q) for p in enumerate_primitive_pairs(5)] == [(3, 1)]
    assert [(p.p, p.q) for p in enumerate_primitive_pairs(13)] == [(3, 1), (5, 1)]
    assert [(p.p, p.q) for p in enumerate_primitive_pairs(25)] == [
        (3, 1),
        (5, 1),
        (5, 3),
        (7, 1),
    ]


@pytest.mark.parametrize("limit_c", [math.nan, math.inf, -math.inf])
def test_enumerate_rejects_a_limit_that_is_not_finite(limit_c):
    with pytest.raises(ValueError, match="^limit_c must be finite"):
        enumerate_primitive_pairs(limit_c)
    # a finite limit below the smallest triple keeps its own message
    with pytest.raises(ValueError, match=r"^limit_c must be >= 5, got 4.9$"):
        enumerate_primitive_pairs(4.9)


def test_enumerate_against_exhaustive_scan():
    limit = 200.0
    brute = []
    for p in range(3, 41, 2):
        for q in range(1, p, 2):
            c = (p * p + q * q) / 2
            if c <= limit and math.gcd(p, q) == 1:
                brute.append((c, p, q))
    brute.sort()
    got = [(p.p, p.q) for p in enumerate_primitive_pairs(limit)]
    assert got == [(p, q) for _, p, q in brute]


def test_triples_have_integer_pythagorean_property():
    for pair in enumerate_primitive_pairs(500):
        for sa in (1, -1):
            for sb in (1, -1):
                t = triple_from_pair(pair, sa, sb)
                assert t.a ** 2 + t.b ** 2 == t.c ** 2
                assert t.c > 0


def test_coupling_params_345():
    params = coupling_params(triple_from_pair(OddPair(3, 1)), 0.0)
    assert params.as_tuple() == (1.5, 0.5, -1.5, 4.5)
    assert abs(params.tau - math.pi / math.sqrt(10)) < 1e-15


def test_coupling_params_51213():
    params = coupling_params(triple_from_pair(OddPair(5, 1)), 0.0)
    assert params.as_tuple() == (2.5, 0.5, -2.5, 12.5)
    assert abs(params.tau - math.pi / math.sqrt(26)) < 1e-15


def test_sign_symmetry_regression():
    # flipping both k and b negates the detunings and keeps the Rabi terms
    t_plus = triple_from_pair(OddPair(3, 1), 1, 1)
    t_minus = triple_from_pair(OddPair(3, 1), 1, -1)
    for k in (0.3, -1.2, 2.0):
        a = coupling_params(t_plus, k)
        b = coupling_params(t_minus, -k)
        assert abs(b.delta1 + a.delta1) < 1e-12
        assert abs(b.omega1 - a.omega1) < 1e-12
        assert abs(b.delta2 + a.delta2) < 1e-12
        assert abs(b.omega2 - a.omega2) < 1e-12


def test_lab_couplings_examples():
    assert lab_couplings(params_from_pair(3, 1, 0.0)) == (5.0, 3.0, 4.0, 0.0)
    assert lab_couplings(params_from_pair(5, 1, 0.0)) == (13.0, 5.0, 12.0, 0.0)


def test_lab_couplings_cancellation():
    params = CouplingParams(1.0, 2.0, 1.0, 2.0, tau=1.0)
    v12, v23, v34, v14 = lab_couplings(params)
    assert v23 == 0.0 and v34 == 0.0


@settings(max_examples=50, deadline=None)
@given(st.tuples(*[st.floats(-1e6, 1e6, allow_nan=False)] * 4), st.floats(0.1, 10.0))
@example(couplings=(0.0, 0.0, 0.0, 5e-324), tau=1.0)  # halving the smallest subnormal rounds to 0
def test_params_from_lab_couplings_inverts_lab_couplings(couplings, tau):
    params = params_from_lab_couplings(couplings, tau)
    assert params.tau == tau
    scale = max(map(abs, couplings))
    # a relative bound, plus the absolute ulp(0.0) that the two halvings can lose below the normal range
    for v, back in zip(couplings, lab_couplings(params)):
        assert abs(back - v) <= 4 * np.finfo(float).eps * scale + math.ulp(0.0)


@pytest.mark.parametrize("tau", [0.0, -0.0, -1.0, float("inf"), float("-inf"), float("nan")])
def test_coupling_params_rejects_a_tau_that_is_not_finite_and_positive(tau):
    with pytest.raises(ValueError, match=f"tau must be a finite positive number, got {tau!r}$"):
        CouplingParams(1.0, 2.0, 3.0, 4.0, tau=tau)


def test_params_from_lab_couplings_of_unit_couplings_is_exact():
    for unit in np.eye(4).tolist():
        assert lab_couplings(params_from_lab_couplings(unit, 1.0)) == tuple(unit)
    params = params_from_pair(3, 1, 0.0)
    assert params_from_lab_couplings(lab_couplings(params), params.tau) == params


def test_coupling_identities_random_k():
    # V23^2 + V34^2 = V12^2 + V14^2 = c^2 for every k
    rng = np.random.default_rng(2)
    for pair in ((3, 1), (5, 3), (9, 7)):
        c = (pair[0] ** 2 + pair[1] ** 2) / 2
        for k in rng.normal(size=8):
            v12, v23, v34, v14 = lab_couplings(params_from_pair(*pair, k))
            assert abs(v23 ** 2 + v34 ** 2 - c ** 2) < 1e-12 * c ** 2
            assert abs(v12 ** 2 + v14 ** 2 - c ** 2) < 1e-12 * c ** 2


def test_scaling_by_odd_squares():
    # (3p, 3q) scales the parameters by 9 and tau by 1/3;
    # (5p, 5q) scales by 25 and 1/5
    for factor, scale in ((3, 9.0), (5, 25.0)):
        base = params_from_pair(3, 1, 0.7)
        scaled = params_from_pair(3 * factor, factor, 0.7)
        for x, y in zip(base.as_tuple(), scaled.as_tuple()):
            assert abs(y - scale * x) < 1e-12 * abs(scale * x)
        assert abs(base.tau / scaled.tau - factor) < 1e-12


def test_a_k_that_zeroes_a_coupling_certifies_without_a_warning():
    t = triple_from_pair(OddPair(3, 1))
    k_zero = (t.c - t.a) / t.b  # makes omega1 vanish
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        params = coupling_params(t, k_zero)
        assert verify_cpt(SystemSpec(n=4, params=params)).passed
    assert abs(params.omega1) < 1e-12


@pytest.mark.parametrize("k", [1e300, -1e300, 1.7e308])
def test_huge_k_keeps_couplings_finite(recwarn, k):
    # k -> +-inf: (delta1, omega1) -> sign(k) q (q, -p)/2, (delta2, omega2) -> sign(k) p (p, q)/2
    p, q = 7, 3
    params = params_from_pair(p, q, k)
    sign = math.copysign(1.0, k)
    expected = (sign * q * q / 2, -sign * p * q / 2, sign * p * p / 2, sign * p * q / 2)
    assert params.as_tuple() == pytest.approx(expected, rel=1e-15)
    assert not recwarn.list


@pytest.mark.parametrize("k", [math.nan, math.inf, -math.inf])
def test_coupling_params_rejects_a_k_that_is_not_finite(k):
    with pytest.raises(ValueError, match="^k must be finite"):
        coupling_params(triple_from_pair(OddPair(3, 1)), k)
    # while the largest finite k still certifies
    assert verify_cpt(SystemSpec(n=4, params=params_from_pair(3, 1, 1e300))).passed


def test_sign_flip_gives_inequivalent_parameters():
    plus = np.array(params_from_pair(3, 1, 0.0).as_tuple())
    minus = np.array(coupling_params(triple_from_pair(OddPair(3, 1), sign_a=-1), 0.0).as_tuple())
    assert np.linalg.norm(plus / np.linalg.norm(plus) - minus / np.linalg.norm(minus)) > 1e-3
    assert np.linalg.norm(plus / np.linalg.norm(plus) + minus / np.linalg.norm(minus)) > 1e-3


def test_rejects_nonpositive_c():
    # triple_from_pair cannot produce c <= 0, so construct directly
    with pytest.raises(ValueError):
        coupling_params(PythTriple(a=3.0, b=4.0, c=-5.0, primitive=True), 0.0)


def test_huge_pair_whose_c_overflows_a_float_is_rejected():
    p = 10**155 + 1
    with pytest.raises(ValueError, match=r"\(p, q\) = \(1000.*, 1\) does not fit a finite float"):
        triple_from_pair(OddPair(p, 1))
    with pytest.raises(ValueError, match="does not fit a finite float"):
        params_from_pair(p, 1, 0.5)


def test_couplings_that_overflow_are_rejected():
    # c fits a float, but c + a and 2c do not
    with pytest.raises(ValueError, match=r"c=9.8e\+307 overflows"):
        params_from_pair(14 * 10**153 + 1, 1, 0.0)


def test_zero_transfer_time_is_rejected():
    # 2c overflows, so tau = pi / sqrt(2c) rounds to 0 while the couplings stay finite
    with pytest.raises(ValueError, match=r"c=1e\+308 overflows"):
        coupling_params(PythTriple(a=3.0, b=4.0, c=1e308, primitive=True), 0.0)


def test_triple_entries_are_exact_integers():
    p, q = 999999937, 1
    t = triple_from_pair(OddPair(p, q), sign_a=-1)
    assert (type(t.a), type(t.b), type(t.c)) == (int, int, int)
    assert (t.c + t.a, t.c - t.a, t.b) == (q * q, p * p, p * q)


def test_couplings_at_large_c_are_within_four_ulp_of_the_exact_value():
    # c = 5.0e17: c - a = q^2 is exact only if the triple keeps its integers
    p, q, k = 999999937, 1, 0.5
    a, b, c = (p * p - q * q) // 2, p * q, (p * p + q * q) // 2
    s = math.hypot(1.0, k)
    wk, w1 = Fraction(k / s), Fraction(1.0 / s)  # the float weights, taken as exact rationals
    exact = (
        (wk * (c - a) + w1 * b) / 2,
        (w1 * (c - a) - wk * b) / 2,
        (wk * (c + a) - w1 * b) / 2,
        (w1 * (c + a) + wk * b) / 2,
    )
    for got, want in zip(params_from_pair(p, q, k).as_tuple(), exact):
        assert abs(Fraction(got) - want) <= 4 * Fraction(math.ulp(float(want)))


odd_pairs_below_2_53 = (
    st.integers(1, 2**26 - 1)
    .flatmap(lambda i: st.tuples(st.just(2 * i + 1), st.integers(0, i - 1).map(lambda j: 2 * j + 1)))
    .filter(lambda pq: (pq[0] ** 2 + pq[1] ** 2) // 2 < 2**53)
)


@settings(max_examples=200, deadline=None)
@given(
    pq=odd_pairs_below_2_53,
    k=st.floats(-1e6, 1e6, allow_nan=False),
    signs=st.sampled_from([(1, 1), (-1, 1), (1, -1), (-1, -1)]),
)
@example(pq=(134217727, 1), k=0.5, signs=(-1, 1))  # c = 2^53 - 2^27 + 1, p^2 above 2^53
@example(pq=(10**8 + 1, 1), k=0.5, signs=(1, 1))
def test_integer_triples_below_2_53_give_the_float_triples_params(pq, k, signs):
    # below 2^53 every entry is an exact float and c -+ a rounds once either way
    t = triple_from_pair(OddPair(*pq), *signs)
    as_floats = PythTriple(a=float(t.a), b=float(t.b), c=float(t.c), primitive=t.primitive)
    got, want = coupling_params(t, k), coupling_params(as_floats, k)
    assert (*got.as_tuple(), got.tau) == (*want.as_tuple(), want.tau)
