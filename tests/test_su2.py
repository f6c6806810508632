import numpy as np
import pytest

from pythcpt.linalg import matexp_unitary
from pythcpt.su2 import lift, sigma_set, spin_generators, y_matrix

SX = np.array([[0.0, 1.0], [1.0, 0.0]])
SY = np.array([[0.0, -1.0j], [1.0j, 0.0]])
SZ = np.array([[1.0, 0.0], [0.0, -1.0]])


def test_spin_half_is_half_pauli():
    rep = spin_generators(2)
    assert np.max(np.abs(rep.J1 - SX / 2)) < 1e-15
    assert np.max(np.abs(rep.J2 - SY / 2)) < 1e-15
    assert np.max(np.abs(rep.J3 - SZ / 2)) < 1e-15


def test_spin_one_j3():
    assert np.array_equal(spin_generators(3).J3.real, np.diag([1.0, 0.0, -1.0]))


def test_spin_three_half_j1_superdiagonal():
    j1 = spin_generators(4).J1.real
    expected = np.array([np.sqrt(3) / 2, 1.0, np.sqrt(3) / 2])
    assert np.max(np.abs(np.diag(j1, 1) - expected)) < 1e-15
    # 2*Omega*J1 must give the sqrt(3)*Omega, 2*Omega, sqrt(3)*Omega ladder
    assert np.max(np.abs(2 * np.diag(j1, 1) - np.array([np.sqrt(3), 2.0, np.sqrt(3)]))) < 1e-15


def test_generator_structure():
    for n in range(2, 17):
        rep = spin_generators(n)
        # real J1 and J3 keep every drive 2 Delta J3 + 2 Omega J1 on the real eigensolver
        assert rep.J1.dtype == rep.J3.dtype == np.float64
        assert rep.J2.dtype == np.complex128
        assert np.max(np.abs(rep.J1.imag)) == 0.0
        assert np.max(np.abs(rep.J1 - rep.J1.T)) == 0.0
        assert np.max(np.abs(rep.J2.real)) == 0.0
        assert np.max(np.abs(rep.J3 - np.diag(np.diag(rep.J3)))) == 0.0
        j = (n - 1) / 2
        assert np.max(np.abs(np.diag(rep.J3).real - (j - np.arange(n)))) < 1e-15


def test_commutators_and_casimir():
    for n in range(2, 17):
        rep = spin_generators(n)
        js = (rep.J1, rep.J2, rep.J3)
        for i, jk, l in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
            comm = js[i] @ js[jk] - js[jk] @ js[i]
            assert np.max(np.abs(comm - 1j * js[l])) < 1e-12
        j = rep.j
        casimir = rep.J1 @ rep.J1 + rep.J2 @ rep.J2 + rep.J3 @ rep.J3
        assert np.max(np.abs(casimir - j * (j + 1) * np.eye(n))) < 1e-12


def test_rejects_small_dimension():
    with pytest.raises(ValueError):
        spin_generators(1)


def test_y_matrix_two_level():
    assert np.max(np.abs(y_matrix(2) - np.array([[0.0, 1.0], [-1.0, 0.0]]))) < 1e-10


def test_y_matrix_three_level():
    expected = np.array([[0.0, 0.0, 1.0], [0.0, -1.0, 0.0], [1.0, 0.0, 0.0]])
    assert np.max(np.abs(y_matrix(3) - expected)) < 1e-10


def test_y_matrix_four_level():
    expected = np.zeros((4, 4))
    for i in range(4):
        expected[i, 3 - i] = (-1.0) ** i
    assert np.max(np.abs(y_matrix(4) - expected)) < 1e-10


def test_y_matrix_antidiagonal_general():
    for n in range(2, 13):
        y = y_matrix(n)
        expected = np.zeros((n, n))
        for i in range(n):
            expected[i, n - 1 - i] = (-1.0) ** i
        assert np.max(np.abs(y - expected)) < 1e-10


def test_y_matrix_is_the_exponential():
    # the closed form is exact: entries in {0, +1, -1}, and exp(i pi J2) to eigh accuracy
    for n in range(2, 33):
        y = y_matrix(n)
        assert set(np.unique(y)) <= {-1.0, 0.0, 1.0}
        assert np.max(np.abs(y - matexp_unitary(spin_generators(n).J2, -np.pi))) < 1e-13


def test_y_trace_parity():
    for n in range(2, 13):
        tr = np.trace(y_matrix(n))
        if n % 2 == 0:
            assert abs(tr) < 1e-10
        else:
            assert abs(abs(tr) - 1.0) < 1e-10


def test_y_squared_sign():
    for n in range(2, 13):
        y = y_matrix(n)
        assert np.max(np.abs(y @ y - (-1.0) ** (n - 1) * np.eye(n))) < 1e-10


def test_y_invariance_under_generated_unitaries():
    # u Y u^T = Y for unitaries generated by 2*d*J3 + 2*o*J1
    rng = np.random.default_rng(17)
    for n in range(2, 17):
        rep = spin_generators(n)
        y = y_matrix(n)
        for _ in range(3):
            d, o, t = rng.normal(size=3)
            u = matexp_unitary(2 * d * rep.J3 + 2 * o * rep.J1, t)
            assert np.max(np.abs(u @ y @ u.T - y)) < 1e-9


def test_sigma_set_values():
    s = sigma_set()
    assert np.array_equal(s.sigma0, np.eye(2))
    assert np.array_equal(s.sigma1, SX)
    assert np.array_equal(s.sigma2, np.array([[0.0, 1.0], [-1.0, 0.0]]))
    assert np.array_equal(s.sigma3, SZ)
    assert np.array_equal(s.sigma2, (1j * SY).real)


SIGMAS = (
    np.eye(2),
    np.array([[0.0, 1.0], [1.0, 0.0]]),
    np.array([[0.0, 1.0], [-1.0, 0.0]]),
    np.array([[1.0, 0.0], [0.0, -1.0]]),
)


def test_sigma_set_names_indices_iteration_and_unpacking_agree():
    s = sigma_set()
    s0, s1, s2, s3 = s
    for got in ([s.sigma0, s.sigma1, s.sigma2, s.sigma3], [s[i] for i in range(4)], list(s), [s0, s1, s2, s3]):
        assert len(got) == 4
        for g, want in zip(got, SIGMAS):
            assert g.dtype == np.float64
            assert np.array_equal(g, want)
    assert s[-1] is s.sigma3


def test_sigma_set_calls_return_fresh_arrays():
    first, second = sigma_set(), sigma_set()
    for a, b in zip(first, second):
        assert not np.shares_memory(a, b)
    first.sigma1[0, 0] = 7.0
    assert np.array_equal(second.sigma1, SIGMAS[1])
    assert np.array_equal(sigma_set().sigma1, SIGMAS[1])


def test_sigma_products():
    s = sigma_set()
    # sigma1 @ sigma3 = [[0, -1], [1, 0]] = -sigma2
    assert np.array_equal(s.sigma1 @ s.sigma3, -s.sigma2)


EPS = np.finfo(float).eps
Y2 = np.array([[0.0, 1.0], [-1.0, 0.0]])  # i sigma_y


def _rz(phi):
    """exp(-i phi sigma_z / 2), whose lift is exp(-i phi J3) = diag(exp(-i phi m))."""
    return np.diag([np.exp(-0.5j * phi), np.exp(0.5j * phi)])


def _rz_lift(phi, n):
    return np.diag(np.exp(-1j * phi * np.diag(spin_generators(n).J3)))


# (g, its lift at n): the elements whose ZYZ angles degenerate, beta = 0 or pi, where one of the two phases of g's
# first row is 0 and tells nothing; signed zeros included, since the phase of -0.0 reads pi
DEGENERATE = {
    "identity": (lambda: np.eye(2), lambda n: np.eye(n)),
    "minus_identity": (lambda: -np.eye(2), lambda n: (-1.0) ** (n - 1) * np.eye(n)),
    "i_sigma_y": (lambda: Y2, y_matrix),
    "minus_i_sigma_y": (lambda: -Y2, lambda n: y_matrix(n).T),
    "i_sigma_y_signed_zeros": (lambda: Y2 * np.array([[-1.0, 1.0], [1.0, -1.0]]), y_matrix),
    "diagonal": (lambda: _rz(0.7), lambda n: _rz_lift(0.7, n)),
    "diagonal_minus": (lambda: -_rz(-2.9), lambda n: (-1.0) ** (n - 1) * _rz_lift(-2.9, n)),
    "anti_diagonal": (lambda: _rz(0.7) @ Y2, lambda n: _rz_lift(0.7, n) @ y_matrix(n)),
    "anti_diagonal_both_sides": (
        lambda: _rz(-1.3) @ Y2 @ _rz(2.2),
        lambda n: _rz_lift(-1.3, n) @ y_matrix(n) @ _rz_lift(2.2, n),
    ),
}


@pytest.mark.parametrize("n", [2, 3, 4, 5, 16, 24, 31, 32])
@pytest.mark.parametrize("element", list(DEGENERATE))
def test_lift_of_degenerate_elements(element, n):
    g, expected = DEGENERATE[element]
    d = lift(g(), n)
    assert d.shape == (n, n) and d.dtype == complex
    assert np.abs(d - expected(n)).max() <= 8 * n * EPS


def _generator(a, n):
    """2 (a1 J1 + a2 J2 + a3 J3), the lift of a1 sigma_x + a2 sigma_y + a3 sigma_z."""
    rep = spin_generators(n)
    return 2 * (a[0] * rep.J1 + a[1] * rep.J2 + a[2] * rep.J3)


@pytest.mark.parametrize("n", [2, 3, 4, 7, 12, 32])
def test_lift_is_the_exponential_of_the_lifted_generator(n):
    rng = np.random.default_rng(n)
    for _ in range(8):
        a, t = rng.normal(size=3), rng.uniform(-4.0, 4.0)
        g = matexp_unitary(_generator(a, 2), t)
        scale = max(1.0, np.abs(a).sum() * abs(t))
        assert np.abs(lift(g, n) - matexp_unitary(_generator(a, n), t)).max() <= 8 * n * EPS * scale
        # at even n the lift is faithful: -g lifts to -D(g); at odd n both lift to D(g)
        assert np.abs(lift(-g, n) - (-1.0) ** (n - 1) * lift(g, n)).max() <= 8 * n * EPS * scale


def test_lift_reads_the_first_row_and_keeps_the_spin_half():
    g = matexp_unitary(SX + 0.4 * SZ, 0.9)
    assert np.abs(lift(g, 2) - g).max() <= 4 * EPS
    # an SU(2) element is fixed by its first row, so the second one is not read
    assert np.array_equal(lift(np.vstack([g[0], [np.nan, np.nan]]), 5), lift(g, 5))


def test_lift_rejects_small_dimension():
    with pytest.raises(ValueError, match=">= 2"):
        lift(np.eye(2), 1)
