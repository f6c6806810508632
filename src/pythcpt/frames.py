"""Maximally entangled basis frames.

:func:`lab_frame` is the one place that picks the lab frame for an
n-level pair: the symmetric W of :func:`build_w` when n is a power of
two, :func:`general_even_frame` for any other n, which rejects odd n.
Its rows are the lab basis vectors.

Every frame vector is a normalized row-major stacking ``vectorize(m.T)``
of an n-by-n matrix m; column-major stacking would flip the sign of
every Sigma2 factor and break the symmetry of W. Rows 0 and n^2 - n,
the transfer's lab states 1 and n^2 - n + 1, are V(I)/sqrt(n) and
V(Y_n)/sqrt(n) bit for bit whichever provider serves n.

For n = 2^N the lab frame is a real orthogonal *symmetric* matrix W
whose columns are the normalized tensor products of the four Sigma
matrices. A column is labelled by its digit string over {0,1,2,3},
e.g. "31" stands for Sigma3 (x) Sigma1. For any other even n only the
two transfer rows are fixed; the other rows complete them
(:func:`pythcpt.linalg.complete_orthogonal`) and carry no meaning.

:func:`build_w` writes W in closed form for every N. Split the vec
index as i = r*n + c and read r and c as N-bit vectors, most
significant bit first. Column (r, c) is the Sigma string with X-part
x = r xor c and Z-part z = F r over GF(2), where F is the N-by-N matrix
with ones on the sub- and super-diagonal, F[0, 0] = 1 and zeros
elsewhere:

    W[(r', c'), (r, c)] = 2^(-N/2) [r' xor c' = r xor c] (-1)^(r'^T F r)

Label digit k is read from (x_k, z_k): (0,0) -> "0", (1,0) -> "1",
(1,1) -> "2", (0,1) -> "3". For N = 1, 2, 3 this is the ordering of
the conventional 4-, 16- and 64-level lab frames. Each demand on W
follows from one property of F:

- F symmetric => W is exactly symmetric.
- det F = 1 over GF(2) => the labels are distinct, so W is orthogonal.
- diag F = e_1 => the diagonal is + on the first half, - on the second
  (demand b).
- F 1 = e_N => the last column alternates (demand c), and the target
  column n^2 - n is "1...12", which is V(Y_n)/sqrt(n).
- Row r = 0 is X-only => the first n columns are nonnegative
  (demand a).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .linalg import complete_orthogonal, kron, require_normalized, unvectorize, vectorize
from .su2 import sigma_set, y_matrix

SYMMETRY_TOL = 1e-13
ORTHOGONALITY_TOL = 1e-12
# W is 4^N x 4^N: N = 5 is 1024^2 (8 MB); N = 6 would mean a 4096^2 eigh downstream
MAX_N = 5


@dataclass(frozen=True)
class EntangledFrame:
    """Symmetric orthogonal basis of maximally entangled states.

    ``W`` is dim-by-dim (dim = 4^N) with entries in {0, +-2^(-N/2)};
    column j is the normalized vectorization for ``labels[j]``.
    """

    N: int
    labels: tuple[str, ...]
    W: np.ndarray

    @property
    def n(self) -> int:
        return 2 ** self.N

    @property
    def dim(self) -> int:
        return 4 ** self.N


@dataclass(frozen=True)
class FrameValidation:
    """Per-demand booleans plus symmetry/orthogonality residuals."""

    first_columns_nonnegative: bool
    diagonal_split_signs: bool
    last_column_alternating: bool
    entry_magnitudes_ok: bool
    symmetry_residual: float
    orthogonality_residual: float

    @property
    def all_pass(self) -> bool:
        return (
            self.first_columns_nonnegative
            and self.diagonal_split_signs
            and self.last_column_alternating
            and self.entry_magnitudes_ok
            and self.symmetry_residual <= SYMMETRY_TOL
            and self.orthogonality_residual <= ORTHOGONALITY_TOL
        )


def _sigma_product(label: str) -> np.ndarray:
    sigmas = sigma_set()
    out = np.array([[1.0]])
    for digit in label:
        if digit not in "0123":
            raise ValueError(f"invalid label digit {digit!r} in {label!r}")
        out = kron(out, sigmas[int(digit)])
    return out


def label_to_column(label: str) -> np.ndarray:
    """Normalized frame column for a digit label.

    Row-major stacking of the Sigma tensor product, scaled by
    2^(-N/2); see the module docstring for why rows and not columns.
    """
    if len(label) < 1:
        raise ValueError("label must have at least one digit")
    prod = _sigma_product(label)
    return vectorize(prod.T) / np.sqrt(2.0 ** len(label))


def build_w(N: int) -> EntangledFrame:
    """Entangled frame for n = 2^N, 1 <= N <= MAX_N, from the closed form.

    See the module docstring for the formula and why it meets every
    demand; W lands the transfer on basis state n^2 - n + 1. Each frame
    is built once, so repeated calls return the same object and its W
    is read-only; copy it before writing to it.
    """
    if not 1 <= N <= MAX_N:
        raise ValueError(f"N must be in 1..{MAX_N}, got {N}")
    return _closed_form_frame(N)


# MAX_N frames at most; typed, so a float N still fails in the builder instead of hitting the int entry
@functools.lru_cache(maxsize=None, typed=True)
def _closed_form_frame(N: int) -> EntangledFrame:
    n = 2 ** N
    f = np.eye(N, k=1, dtype=int) + np.eye(N, k=-1, dtype=int)
    f[0, 0] = 1
    bits = (np.arange(n)[:, None] >> np.arange(N - 1, -1, -1)) & 1  # row r: r, MSB first
    z = bits @ f % 2  # row r: F r
    sign = 1 - 2 * (bits @ z.T % 2)  # sign[r', r] = (-1)^(r'^T F r)
    r, c = np.divmod(np.arange(n * n), n)
    x = r ^ c
    w = np.where(x[:, None] == x[None, :], sign[r[:, None], r[None, :]], 0) / np.sqrt(2.0 ** N)
    w.flags.writeable = False
    codes = bits[x] + 2 * z[r]  # digit k indexes "0132" by x_k + 2 z_k
    labels = tuple("".join("0132"[d] for d in row) for row in codes.tolist())
    return EntangledFrame(N=N, labels=labels, W=w)


def _alternating(column: np.ndarray, scale: float) -> bool:
    nz = column[np.abs(column) > 1e-14]
    if nz.size == 0:
        return False
    if np.max(np.abs(np.abs(nz) - scale)) > 1e-12:
        return False
    expected = scale * (-1.0) ** np.arange(nz.size)
    return bool(np.max(np.abs(nz - expected)) <= 1e-12)


def validate_frame(frame: EntangledFrame) -> FrameValidation:
    """Check the structural demands on a frame, reporting each separately.

    (a) the first n columns are nonnegative, (b) the first half of the
    diagonal is strictly positive and the second half strictly
    negative, (c) the last column alternates +s/-s among its nonzeros,
    starting positive. Residuals for symmetry and orthogonality are
    reported rather than thresholded so callers can see near-misses.
    """
    w = frame.W
    dim = w.shape[0]
    n = frame.n
    scale = 1.0 / np.sqrt(2.0 ** frame.N)
    demand_a = bool(np.min(w[:, :n]) > -1e-14)
    diag = np.diag(w)
    demand_b = bool(np.all(diag[: dim // 2] > 1e-14) and np.all(diag[dim // 2:] < -1e-14))
    demand_c = _alternating(w[:, -1], scale)
    mags = np.abs(w)
    entry_ok = bool(np.all((mags < 1e-14) | (np.abs(mags - scale) < 1e-12)))
    sym = float(np.max(np.abs(w - w.T)))
    orth = float(np.max(np.abs(w.T @ w - np.eye(dim))))
    return FrameValidation(
        first_columns_nonnegative=demand_a,
        diagonal_split_signs=demand_b,
        last_column_alternating=demand_c,
        entry_magnitudes_ok=entry_ok,
        symmetry_residual=sym,
        orthogonality_residual=orth,
    )


def general_even_frame(n: int) -> np.ndarray:
    """Orthogonal frame (as rows) for any even n, without the symmetry.

    Rows 0 and n^2 - n are the transfer rows V(I)/sqrt(n) and
    V(Y_n)/sqrt(n) of :func:`build_w`, row-major stacked; the other
    rows complete those two (:func:`pythcpt.linalg.complete_orthogonal`).
    Odd n is rejected because there V(I) and V(Y) are not orthogonal
    (trace(Y_n) = +-1); this is the one odd-n check of the frame path.
    """
    if n % 2 != 0:
        raise ValueError(
            f"n={n} is odd: V(I) and V(Y) are not orthogonal (trace(Y) = +-1), "
            "so there is no lab frame and no complete transfer"
        )
    v1 = vectorize(np.eye(n)) / np.sqrt(n)
    vy = vectorize(y_matrix(n).T) / np.sqrt(n)
    q = complete_orthogonal([v1, vy])
    target = n * n - n  # 0-based row index for V(Y)
    return np.vstack([q[:1], q[2:target + 1], q[1:2], q[target + 1:]])


def lab_frame(n: int) -> np.ndarray:
    """Lab frame for an n-level pair, as rows (see the module docstring).

    ``build_w(N).W`` for n = 2^N <= 2^MAX_N, else :func:`general_even_frame`,
    which rejects odd n; both give the same transfer rows 0 and n^2 - n.
    The power-of-two frame is cached and read-only; the general even-n
    frame is built fresh on every call.
    """
    if n & (n - 1) == 0:
        if not 2 <= n <= 2 ** MAX_N:
            raise ValueError(f"no lab frame for n={n}: build_w builds powers of two 2 <= n <= {2 ** MAX_N}")
        return build_w(n.bit_length() - 1).W
    return general_even_frame(n)


def entanglement_entropy(column: np.ndarray, n: int) -> float:
    """Von Neumann entropy of the reduced state of a bipartite vector.

    The length-n^2 vector is reshaped to an n-by-n matrix M and the
    entropy -sum(lam * ln lam) of the eigenvalues of M M^dagger is
    returned, with 0 ln 0 = 0. Maximally entangled columns give ln n.
    """
    column = require_normalized(column, "column")
    if column.size != n * n:
        raise ValueError(f"expected a length-{n * n} vector, got {column.size}")
    m = unvectorize(column, n, n)
    lam = np.linalg.eigvalsh(m @ m.conj().T)
    lam = np.clip(lam.real, 0.0, None)
    nz = lam[lam > 0]
    return float(-np.sum(nz * np.log(nz)))
