"""Irreducible spin-(n-1)/2 generators of su(2), the 2x2 Sigma set, and
the anti-diagonal rotation Y_n = exp(i pi J2).

The Sigma set is a NamedTuple: sigma_k reads by name (``s.sigma1``),
by index (``s[1]``), by iteration or by unpacking, and every
:func:`sigma_set` call builds fresh arrays.
"""

from __future__ import annotations

import functools
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
    central entry sits on the diagonal.
    """
    if n < 2:
        raise ValueError(f"representation dimension must be >= 2, got {n}")
    y = np.zeros((n, n))
    k = np.arange(n)
    y[k, n - 1 - k] = (-1.0) ** k
    return y
