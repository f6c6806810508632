"""Irreducible spin-(n-1)/2 generators of su(2), the 2x2 Sigma set, the
anti-diagonal rotation Y_n = exp(i pi J2), and the lift of SU(2) to the
spin-(n-1)/2 representation.

:func:`lift` maps g in SU(2) to D(g) = exp(-i alpha J3) exp(-i beta J2)
exp(-i gamma J3), with the ZYZ Euler angles read off g's first row. The
J2 eigenbasis that gives the Wigner-d factor exp(-i beta J2) is
diagonalized once per n (the exact diagonalization of Feng, Wang, Yang
and Jin, Phys. Rev. E 92, 043307 (2015)) and cached, so a lift costs
one complex n x n product and two diagonal scalings. Every 2 x 2
exponential exp(-i t (Delta sigma_z + Omega sigma_x)) lifts to
exp(-i t (2 Delta J3 + 2 Omega J1)), so a lifted pulse is exponentiated
in 2 x 2 and lifted once.

The Sigma set is a NamedTuple: sigma_k reads by name (``s.sigma1``),
by index (``s[1]``), by iteration or by unpacking, and every
:func:`sigma_set` call builds fresh arrays.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

# distinct dimensions whose spin generators stay cached
SPIN_CACHE_SIZE = 64


class SigmaSet(NamedTuple):
    """The real 2x2 matrices (I, sigma_x, i*sigma_y, sigma_z).

    All entries lie in {0, +1, -1}; the middle two are the symmetric
    and antisymmetric off-diagonal units. Index k is sigma_k.
    """

    sigma0: np.ndarray
    sigma1: np.ndarray
    sigma2: np.ndarray
    sigma3: np.ndarray


def sigma_set() -> SigmaSet:
    """Return fresh arrays of the four Sigma matrices, with exact integer entries."""
    return SigmaSet(
        np.eye(2),
        np.array([[0.0, 1.0], [1.0, 0.0]]),
        np.array([[0.0, 1.0], [-1.0, 0.0]]),
        np.array([[1.0, 0.0], [0.0, -1.0]]),
    )


@dataclass(frozen=True)
class SpinRep:
    """Angular-momentum matrices of the n-dimensional irreducible representation.

    J3 is diagonal with eigenvalues j, j-1, ..., -j (descending), J1 is
    real symmetric, J2 purely imaginary, and the three satisfy
    [J_i, J_j] = i eps_{ijk} J_k. J1 and J3 are float64 arrays, so
    every drive 2 Delta J3 + 2 Omega J1 built from them is real
    symmetric; J2 is complex128.
    """

    n: int
    j: float
    J1: np.ndarray
    J2: np.ndarray
    J3: np.ndarray


def spin_generators(n: int) -> SpinRep:
    """Build the standard spin-(n-1)/2 generators in the descending J3 basis.

    The raising operator has matrix elements
    ``sqrt(j(j+1) - m(m+1))`` on the first superdiagonal, from which
    J1 = (J+ + J-)/2 and J2 = (J+ - J-)/(2i). The representation is
    built once per n (the last ``SPIN_CACHE_SIZE`` dimensions are kept),
    so repeated calls return the same object and its arrays are
    read-only; copy one before writing to it.
    """
    if n < 2:
        raise ValueError(f"representation dimension must be >= 2, got {n}")
    return _spin_rep(n)


# typed, so a float n still fails in the builder instead of hitting the int entry
@functools.lru_cache(maxsize=SPIN_CACHE_SIZE, typed=True)
def _spin_rep(n: int) -> SpinRep:
    j = (n - 1) / 2.0
    m = j - np.arange(n)  # descending: j, j-1, ..., -j
    jplus = np.zeros((n, n))
    # column k+1 holds m_col = m[k+1]; raising sends it to row k
    for k in range(n - 1):
        mc = m[k + 1]
        jplus[k, k + 1] = np.sqrt(j * (j + 1) - mc * (mc + 1))
    jminus = jplus.T
    j1 = (jplus + jminus) / 2.0
    j2 = (jplus - jminus) / 2j
    j3 = np.diag(m)
    for a in (j1, j2, j3):
        a.flags.writeable = False
    return SpinRep(n=n, j=j, J1=j1, J2=j2, J3=j3)


def y_matrix(n: int) -> np.ndarray:
    """Return Y_n = exp(i pi J2) in the descending J3 basis, exactly.

    The rotation sends the J3 state m to (-1)^(j+m) times the state -m,
    so Y[k, n-1-k] = (-1)^k and Y is zero elsewhere; for odd n the
    central entry sits on the diagonal. Y_n is built once per n (the
    last ``SPIN_CACHE_SIZE`` dimensions are kept), so repeated calls
    return the same shared, read-only float64 array; copy it before
    writing to it.
    """
    if n < 2:
        raise ValueError(f"representation dimension must be >= 2, got {n}")
    return _y_matrix(n)


# typed, so a float n fails in the builder even after an equal integer n (say np.int64(4)) is cached
@functools.lru_cache(maxsize=SPIN_CACHE_SIZE, typed=True)
def _y_matrix(n: int) -> np.ndarray:
    y = np.zeros((n, n))
    k = np.arange(n)
    y[k, n - 1 - k] = (-1.0) ** k
    y.flags.writeable = False
    return y


def lift(g: np.ndarray, n: int) -> np.ndarray:
    """D(g) of g in SU(2) in the spin-(n-1)/2 representation, as a complex n x n array.

    g = [[u, v], [-conj(v), conj(u)]] is read from its first row alone.
    Its ZYZ angles are beta = 2 atan2(|v|, |u|), stable at beta near 0
    and pi where an arccos of |u| is not, and, from the phases,
    (alpha + gamma)/2 = -arg u and (alpha - gamma)/2 = -arg(-v). Then
    D(g) = exp(-i alpha J3) V exp(-i beta mu) V^dagger exp(-i gamma J3)
    with J2 = V diag(mu) V^dagger from :func:`_j2_eigenbasis`: the 3n
    phases come from one ``np.exp``, V is scaled on both sides and
    V^dagger on its columns, and one product joins them. A phase
    that g does not fix (arg v at beta = 0, arg u at beta = pi) cancels
    from D(g) exactly. At even n, D(-g) = -D(g), so the sign of g
    matters; both half-angle phases are read mod 2 pi, and a shift of
    either by 2 pi moves alpha and gamma by 2 pi together, which leaves
    D(g) unchanged. At n = 2, D(g) is g up to rounding.
    """
    if n < 2:
        raise ValueError(f"representation dimension must be >= 2, got {n}")
    (u, v), _ = np.asarray(g).tolist()
    beta = 2.0 * math.atan2(abs(v), abs(u))
    plus, minus = -cmath.phase(u), -cmath.phase(-v)  # (alpha + gamma)/2, (alpha - gamma)/2
    m, basis, basis_h = _j2_eigenbasis(n)
    # rows: exp(-i alpha m), exp(-i beta mu) with mu = -m (J2's ascending eigenvalues), exp(-i gamma m)
    phases = np.exp(np.array((-1j * (plus + minus), 1j * beta, -1j * (plus - minus)))[:, None] * m)
    return (basis * phases[0, :, None] * phases[1]) @ (basis_h * phases[2])


@functools.lru_cache(maxsize=SPIN_CACHE_SIZE)
def _j2_eigenbasis(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Read-only per-n constants of :func:`lift`: J3's diagonal m, and J2's eigenbasis V and V^dagger.

    m = j, j - 1, ..., -j (descending). ``eigh`` lists J2's eigenvalues
    ascending, and they are exactly -m; :func:`lift` takes those exact
    values, not the solver's.
    """
    rep = spin_generators(n)
    basis = np.linalg.eigh(rep.J2)[1]
    m = np.diag(rep.J3).copy()
    basis_h = basis.conj().T.copy()
    for a in (m, basis, basis_h):
        a.flags.writeable = False
    return m, basis, basis_h
