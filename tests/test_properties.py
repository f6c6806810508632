"""Property tests: the lab frame and the certificate against dense oracles."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from pythcpt.dynamics import SystemSpec, build_h_tp, verify_cpt
from pythcpt.frames import lab_frame
from pythcpt.linalg import matexp_unitary, vectorize
from pythcpt.su2 import y_matrix
from pythcpt.triples import params_from_pair

odd_pairs = st.tuples(st.integers(1, 60), st.integers(0, 59)).filter(lambda t: t[0] > t[1]).map(
    lambda t: (2 * t[0] + 1, 2 * t[1] + 1)
)


@settings(max_examples=16, deadline=None)
@given(n=st.integers(1, 8).map(lambda h: 2 * h))
def test_lab_frame_orthogonal_with_transfer_rows(n):
    w = lab_frame(n)
    assert w.shape == (n * n, n * n)
    assert np.max(np.abs(w @ w.T - np.eye(n * n))) <= 1e-12
    sq = np.sqrt(n)
    assert np.max(np.abs(w[0] - vectorize(np.eye(n)) / sq)) <= 1e-12
    vy = vectorize(y_matrix(n).real) / sq
    row = w[n * n - n]
    assert min(np.max(np.abs(row - vy)), np.max(np.abs(row + vy))) <= 1e-12


@settings(max_examples=30, deadline=None)
@given(
    pq=odd_pairs,
    k=st.floats(-3.0, 3.0, allow_nan=False),
    n=st.sampled_from([2, 4, 6, 8]),
)
def test_verify_cpt_amplitude_matches_dense_oracle(pq, k, n):
    params = params_from_pair(*pq, k)
    cert = verify_cpt(SystemSpec(n=n, params=params))
    w = lab_frame(n)
    u = matexp_unitary(build_h_tp(n, params), params.tau)
    dense = (w @ u @ w.T)[n * n - n, 0]
    assert abs(cert.phase - dense) <= 1e-12
    assert abs(cert.fidelity - abs(dense) ** 2) <= 1e-12
    assert cert.passed
