import numpy as np
import pytest

from pythcpt.linalg import matexp_unitary
from pythcpt.su2 import sigma_set, spin_generators, y_matrix

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


def test_sigma_products():
    s = sigma_set()
    # sigma1 @ sigma3 = [[0, -1], [1, 0]] = -sigma2
    assert np.array_equal(s.sigma1 @ s.sigma3, -s.sigma2)
