"""Every threshold the library compares against, each named once.

A line per constant says what it compares, in which norm, and what sets
its size. Modules bind the names they read (``from .tolerances import
CPT_TOL``), so ``dynamics.CPT_TOL`` and the like still resolve, and a
test that patches a name in its module acts on that module's code.
Different decisions that share a value keep separate names, so each
can move on its own. :func:`require_tol` validates a caller's ``tol``.

This module imports no numpy.
"""

from __future__ import annotations

import math

# Certificates (dynamics, retrograde, suite)

# Default tol of 1 - F, the max-entry and 2-norm residuals and |tr y|/n; the eps*p law allows 6.1e-10 at p = 1e9.
CPT_TOL = 1e-9
# Sampled populations of lab states 2 and 4 stay below this; 1e-6 is far above rounding, so a filled state fails.
FORBIDDEN_MAX_POP = 1.0 - 1e-6
# coupling_graph: |h_ij| up to this times max|h| is no edge (a 0.0 on the diagonal); a lab conjugation leaves
# eps*max|h| in true zeros.
COUPLING_ZERO_REL = 1e-10
# max|h - (h1 (x) I + I (x) h2)| of verify_cpt's h, relative to max(1, max|h1| + max|h2|): the traceless factors are
# read back with the diagonal rounded to ~eps*max|h|, so a non-Kronecker part or a trace part above rounding is refused.
KRON_SUM_TOL = 1e-12
# max|f + Y f Y^T| of each factor f of verify_cpt's h, relative to max(1, max|f|): Y is a signed reversal, so a drive
# built chiral is exactly so, and one read back from h to ~eps*max|h|, as for HERMITICITY_TOL.
CHIRALITY_TOL = 1e-12
# ||v - C v||_2, C = Y (x) Y, of a transfer row: V(I)/sqrt(n) and V(Y)/sqrt(n) are fixed exactly, and the amplitude
# drops the -1 part, so a row whose -1 part is above rounding is refused.
SECTOR_TOL = 1e-12

# Invariant gates (linalg)

# max|h - h^dagger| relative to max(1, max|h|); a conjugation W h W^T is symmetric only to ~dim*eps*max|h|.
HERMITICITY_TOL = 1e-12
# max|u u^dagger - I| and ||exp(-i lambda t)| - 1|; eigh reconstructs unitaries to ~dim*eps, dim <= 1024.
UNITARITY_TOL = 1e-10
# ||v|_2 - 1| of a state a caller passes; room for states built in float64 arithmetic.
NORMALIZATION_TOL = 1e-10
# max|S S^T - I| and max|Im S| of the seed rows given to complete_orthogonal; as NORMALIZATION_TOL, for a row set.
ORTHONORMALITY_TOL = 1e-10
# A QR completion entry above this in modulus is its row's first nonzero, made positive; QR zeros round to ~eps.
COMPLETION_NONZERO = 1e-12

# Frames (frames)

# max|W - W^T|: the closed form is exactly symmetric, so this only admits a copy rebuilt through rounding.
SYMMETRY_TOL = 1e-13
# max|W^T W - I|: a sum of dim products of +-2^(-N/2) rounds to ~dim*eps, 2.3e-13 at dim = 1024.
ORTHOGONALITY_TOL = 1e-12
# |W_ij| below this is zero for the sign demands and magnitudes; entries are 0 or >= 2^(-5/2), zeros round to ~eps.
FRAME_ZERO_FLOOR = 1e-14
# ||W_ij| - 2^(-N/2)| of a nonzero entry, and |W_ij -+ 2^(-N/2)| along the last column; ~4500 eps.
FRAME_MAGNITUDE_TOL = 1e-12

# Doubled space (retrograde)

# |<i|f>| below this: the recipe's two states are distinct; 1 - |<i|f>| of equal unit states rounds to ~eps.
PARTIAL_OVERLAP_MAX = 1.0 - 1e-12
# ordered_propagator takes t within TIME_SLACK * T of [0, T]: m durations summed in another order miss T by ~m*eps*T.
TIME_SLACK = 1e-12
# _phase_match makes |overlap| >= this a unit phase: rounding overlaps are ~1e-16, odd-n semi's is 1/3.
PHASE_MEASURABLE_MIN = 1e-6
# max|u y u^T - y| (u y u^dagger for semi) of both half steps; fixed: without it the equivalence means nothing.
INTERTWINING_TOL = 1e-9
# basic_cpts: max-entry residual of U(T, 0) against phase * Y; above CPT_TOL, so a verdict judges near misses.
PROPORTIONAL_TO_Y_TOL = 1e-8

# CLI graph labels (cli)

# |c - v| below this writes a lab coupling coefficient c as v in 0, +-1, +-2, +-sqrt(3); they are exact to ~eps.
GRAPH_LABEL_TOL = 1e-9

# Verification battery (suite)

# |phase - sign| of a measured U(T, 0) phase against its exact sign +-1.
SIGN_TOL = 1e-8
# max-entry deviation of the 16-level Hamiltonians from the explicit tables, which are exact to ~eps.
TABLE_DEVIATION_TOL = 1e-12
# |entry| of an explicit 16-level table above this is a coupling; table entries are 0 or O(1).
TABLE_COUPLING_FLOOR = 1e-12
# ||tr Y|/n - 1/n| at odd n, where the overlap is exactly 1/n.
ODD_OVERLAP_TOL = 1e-12
# The (p, q) -> (3p, 3q) law: relative parameter error and |tau ratio - 3|, each rounded a few times.
SCALING_TOL = 1e-12
# |S - ln n| of each frame column's entanglement entropy; an eigvalsh of M M^dagger and n logarithms.
ENTROPY_TOL = 1e-10
# Pairwise finals of (3, 1) and (5, 1) differ by more than this in max-entry: they depend on the drive.
PAIRWISE_GAP_MIN = 0.1


def require_tol(tol: float) -> None:
    """Raise ValueError unless a certification tolerance is a finite positive number."""
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError(f"tol must be a finite positive number, got {tol!r}")
