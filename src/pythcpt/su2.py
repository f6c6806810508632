"""Irreducible spin-(n-1)/2 generators of su(2), the 2x2 Sigma set, and
the anti-diagonal rotation Y_n = exp(i pi J2)."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True)
class SigmaSet:
    """The real 2x2 matrices (I, sigma_x, i*sigma_y, sigma_z).

    All entries lie in {0, +1, -1}; the middle two are the symmetric
    and antisymmetric off-diagonal units.
    """

    sigma0: np.ndarray = field(default_factory=lambda: np.eye(2))
    sigma1: np.ndarray = field(default_factory=lambda: np.array([[0.0, 1.0], [1.0, 0.0]]))
    sigma2: np.ndarray = field(default_factory=lambda: np.array([[0.0, 1.0], [-1.0, 0.0]]))
    sigma3: np.ndarray = field(default_factory=lambda: np.array([[1.0, 0.0], [0.0, -1.0]]))

    def __iter__(self):
        return iter((self.sigma0, self.sigma1, self.sigma2, self.sigma3))

    def __getitem__(self, i: int) -> np.ndarray:
        return (self.sigma0, self.sigma1, self.sigma2, self.sigma3)[i]


def sigma_set() -> SigmaSet:
    """Return the four Sigma matrices with exact integer entries."""
    return SigmaSet()


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
    J1 = (J+ + J-)/2 and J2 = (J+ - J-)/(2i).
    """
    if n < 2:
        raise ValueError(f"representation dimension must be >= 2, got {n}")
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
    return SpinRep(n=n, j=j, J1=j1, J2=j2, J3=np.diag(m))


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
