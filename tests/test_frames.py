import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pythcpt import frames
from pythcpt.dynamics import SystemSpec, simulate, verify_cpt
from pythcpt.frames import (
    MAX_N,
    ORTHOGONALITY_TOL,
    SYMMETRY_TOL,
    EntangledFrame,
    build_w,
    entanglement_entropy,
    general_even_frame,
    lab_frame,
    label_to_column,
    validate_frame,
)
from pythcpt.linalg import vectorize
from pythcpt.reference_tables import sixteen_level_w
from pythcpt.su2 import y_matrix
from pythcpt.triples import params_from_pair

from dense_oracle import dense_even_frame

S2 = np.sqrt(2.0)
ALL_N = tuple(range(1, MAX_N + 1))


def test_label_to_column_identity():
    assert np.max(np.abs(label_to_column("0") - np.array([1, 0, 0, 1]) / S2)) < 1e-15


def test_label_to_column_antisymmetric():
    # rows of the antisymmetric Sigma are stacked, so the +1 comes first
    assert np.max(np.abs(label_to_column("2") - np.array([0, 1, -1, 0]) / S2)) < 1e-15


def test_label_to_column_depth_two():
    assert np.max(np.abs(label_to_column("00") - vectorize(np.eye(4)) / 2.0)) < 1e-15


def test_label_to_column_rejects_bad_digit():
    with pytest.raises(ValueError):
        label_to_column("04")
    with pytest.raises(ValueError):
        label_to_column("")


def test_build_w1_matrix():
    expected = (
        np.array(
            [
                [1, 0, 0, 1],
                [0, 1, 1, 0],
                [0, 1, -1, 0],
                [1, 0, 0, -1],
            ],
            dtype=float,
        )
        / S2
    )
    frame = build_w(1)
    assert frame.labels == ("0", "1", "2", "3")
    assert np.max(np.abs(frame.W - expected)) < 1e-15
    assert np.array_equal(frame.W, frame.W.T)


def test_build_w2_matches_explicit_table():
    assert np.array_equal(build_w(2).W, sixteen_level_w())


def test_w2_label_order():
    assert build_w(2).labels == (
        "00", "01", "10", "11", "31", "30", "21", "20",
        "23", "22", "33", "32", "12", "13", "02", "03",
    )


def test_build_w3_label_rows():
    frame = build_w(3)
    assert frame.labels[:8] == ("000", "001", "010", "011", "100", "101", "110", "111")
    assert frame.labels[56:] == ("112", "113", "102", "103", "012", "013", "002", "003")
    assert len(set(frame.labels)) == 64


def test_frames_symmetric_orthogonal():
    for N in ALL_N:
        w = build_w(N).W
        assert np.array_equal(w, w.T)  # exact
        assert np.max(np.abs(w.T @ w - np.eye(4 ** N))) < 1e-13


def test_frame_entry_values():
    for N in ALL_N:
        w = build_w(N).W
        scale = 2.0 ** (-N / 2.0)
        mags = np.unique(np.round(np.abs(w), 14))
        assert set(mags) <= {0.0, np.round(scale, 14)}


def test_validate_frame_passes_builtin():
    for N in ALL_N:
        v = validate_frame(build_w(N))
        assert v.first_columns_nonnegative
        assert v.diagonal_split_signs
        assert v.last_column_alternating
        assert v.entry_magnitudes_ok
        assert v.symmetry_residual == 0.0
        assert v.all_pass


def test_validate_frame_detects_swap():
    frame = build_w(2)
    labels = list(frame.labels)
    # swap a first-half column with a second-half one out of order
    labels[0], labels[10] = labels[10], labels[0]
    w = np.column_stack([label_to_column(lab) for lab in labels])
    bad = EntangledFrame(N=2, labels=tuple(labels), W=w)
    assert not validate_frame(bad).diagonal_split_signs
    assert not validate_frame(bad).all_pass


def test_validate_frame_detects_sign_flip():
    frame = build_w(2)
    w = frame.W.copy()
    w[0, 5] = -w[0, 5]
    bad = EntangledFrame(N=2, labels=frame.labels, W=w)
    v = validate_frame(bad)
    assert v.symmetry_residual > 1e-3 or v.orthogonality_residual > 1e-3
    assert not v.all_pass


def _validate_edited(N, edit):
    frame = build_w(N)
    w = frame.W.copy()
    edit(w, frame.n)
    return validate_frame(EntangledFrame(N=N, labels=frame.labels, W=w))


def _flip_first_nonzero_of_last_column(w, n):
    i = np.flatnonzero(w[:, -1])[0]
    w[i, -1] = -w[i, -1]


def _nudge_a_nonzero_magnitude(w, n):
    i, j = np.argwhere(w[:, n:-1] != 0)[0]
    w[i, n + j] *= 1.0 + 1e-10


def _flip_a_second_half_diagonal_entry(w, n):
    i = w.shape[0] // 2
    w[i, i] = -w[i, i]


@pytest.mark.parametrize("N", ALL_N)
@pytest.mark.parametrize(
    "edit, demand",
    [
        (_flip_first_nonzero_of_last_column, "last_column_alternating"),
        (_nudge_a_nonzero_magnitude, "entry_magnitudes_ok"),
        (_flip_a_second_half_diagonal_entry, "diagonal_split_signs"),
    ],
)
def test_validate_frame_detects_each_broken_demand(N, edit, demand):
    assert not getattr(_validate_edited(N, edit), demand)


@pytest.mark.parametrize("N", ALL_N)
def test_first_columns_tolerate_rounding_below_the_floor_only(N):
    def set_a_zero(value):
        def edit(w, n):
            i, j = np.argwhere(w[:, :n] == 0)[0]
            w[i, j] = value

        return edit

    assert _validate_edited(N, set_a_zero(-1e-15)).first_columns_nonnegative
    assert not _validate_edited(N, set_a_zero(-1e-13)).first_columns_nonnegative


def test_all_pass_reads_symmetry_and_orthogonality():
    frame = build_w(3)
    middle = range(frame.n, frame.dim - 1)

    def validate_swapped(j, k):
        w = frame.W.copy()
        w[:, [j, k]] = w[:, [k, j]]
        return validate_frame(EntangledFrame(N=3, labels=frame.labels, W=w))

    def meets_every_demand(v):
        return v.first_columns_nonnegative and v.diagonal_split_signs and v.last_column_alternating and v.entry_magnitudes_ok

    # a column swap keeps W orthogonal, and some swap of two middle columns keeps every demand but not the symmetry
    unsymmetric = next(
        v
        for v in (validate_swapped(j, k) for j in middle for k in middle if j < k)
        if meets_every_demand(v) and v.symmetry_residual > SYMMETRY_TOL
    )
    assert unsymmetric.orthogonality_residual <= ORTHOGONALITY_TOL
    assert not unsymmetric.all_pass
    # flipping a mirrored pair of middle entries keeps W symmetric and every demand, but not the orthogonality
    i, j = next((i, j) for i in middle for j in middle if i < j and frame.W[i, j] != 0)

    def flip_pair(w, n):
        w[i, j], w[j, i] = -w[i, j], -w[j, i]

    skewed = _validate_edited(3, flip_pair)
    assert meets_every_demand(skewed) and skewed.symmetry_residual == 0.0
    assert skewed.orthogonality_residual > ORTHOGONALITY_TOL
    assert not skewed.all_pass


@settings(max_examples=200, deadline=None)
@given(N=st.integers(1, MAX_N), offsets=st.lists(st.floats(-2e-12, 2e-12), min_size=1, max_size=8))
def test_alternation_bounds_every_nonzero_magnitude(N, offsets):
    # |a - (+-s)| >= ||a| - s|, and rounding keeps that order, so alternating to 1e-12 bounds each magnitude too
    scale = 1.0 / np.sqrt(2.0**N)
    column = scale * (-1.0) ** np.arange(len(offsets)) + np.array(offsets)
    if frames._alternating(column, scale):
        assert np.max(np.abs(np.abs(column) - scale)) <= 1e-12


def test_frame_columns_match_labels():
    # label_to_column builds each column from Sigma products, independently of the closed form
    for N in ALL_N:
        frame = build_w(N)
        assert len(set(frame.labels)) == frame.dim
        for j, label in enumerate(frame.labels):
            assert np.array_equal(frame.W[:, j], label_to_column(label))


def test_target_row_is_vy():
    for N in ALL_N:
        frame = build_w(N)
        n = frame.n
        row = frame.W[n * n - n]
        vy = vectorize(y_matrix(n).real) / np.sqrt(n)
        assert min(np.max(np.abs(row - vy)), np.max(np.abs(row + vy))) < 1e-12


def test_build_w_rejects_out_of_range():
    for N in (0, MAX_N + 1):
        with pytest.raises(ValueError, match=f"1..{MAX_N}"):
            build_w(N)


def test_general_even_frame_two():
    q = general_even_frame(2)
    assert np.max(np.abs(q[0] - np.array([1, 0, 0, 1]) / S2)) < 1e-12
    # row-major V(Y), as in build_w: the "2" column of the 4-level frame
    assert np.max(np.abs(q[2] - np.array([0, 1, -1, 0]) / S2)) < 1e-12


def test_general_even_frame_orthogonal():
    for n in range(2, 33, 2):
        q = general_even_frame(n)
        assert q.shape == (n * n, n * n)
        assert np.max(np.abs(q @ q.T - np.eye(n * n))) < 1e-12
        # the two transfer rows are the seeds of the completion, kept bit for bit
        assert np.array_equal(q[0], vectorize(np.eye(n)) / np.sqrt(n))
        assert np.array_equal(q[n * n - n], vectorize(y_matrix(n).T) / np.sqrt(n))


@pytest.mark.parametrize("n", range(2, 33, 2))
def test_transfer_rows_are_the_same_for_every_provider(n):
    # one row convention: the row-major V(I) and V(Y) of build_w, bit for bit at every even n
    vi = vectorize(np.eye(n)) / np.sqrt(n)
    vy = vectorize(y_matrix(n).T) / np.sqrt(n)
    for frame in (lab_frame(n), general_even_frame(n)):
        assert np.array_equal(frame[0], vi)
        assert np.array_equal(frame[n * n - n], vy)


@pytest.mark.parametrize("n", [6, 10, 12])
def test_general_even_frame_factorizes_only_the_two_seeds(n, monkeypatch):
    shapes = []
    qr = np.linalg.qr

    def spy(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return qr(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "qr", spy)
    general_even_frame(n)
    # the seeds' 2n-entry support and coordinate 1: Q - I lives there, so only that block is factorized
    assert shapes == [(2 * n + 1, 2)]


@pytest.mark.parametrize("n", range(2, 33, 2))
def test_general_even_frame_equals_the_full_qr_oracle(n):
    # factorizing only the seeds' support reproduces the full-size completion's rows and their order
    assert np.array_equal(general_even_frame(n), dense_even_frame(n))


def test_general_even_frame_rejects_odd():
    with pytest.raises(ValueError, match="not orthogonal"):
        general_even_frame(3)


@pytest.mark.parametrize("n", [3, 5, 9])
def test_lab_frame_rejects_odd_once(n):
    # odd n reaches general_even_frame, the frame path's one odd-n check
    with pytest.raises(ValueError, match=rf"n={n} is odd: V\(I\) and V\(Y\) are not orthogonal"):
        lab_frame(n)


@pytest.mark.parametrize("n", [0, 1, 2 ** (MAX_N + 1), 2 ** (MAX_N + 4)])
def test_lab_frame_names_n_outside_the_built_frames(n):
    with pytest.raises(ValueError, match=rf"^no lab frame for n={n}: .* <= {2 ** MAX_N}$"):
        lab_frame(n)


@pytest.mark.parametrize("evolve", [verify_cpt, lambda spec: simulate(spec, 1.0, 2)], ids=["verify_cpt", "simulate"])
def test_callers_name_n_outside_the_built_frames(evolve):
    # the caller passed n, so the message names n, not build_w's exponent N
    with pytest.raises(ValueError, match=rf"^no lab frame for n={2 ** (MAX_N + 1)}: .* <= {2 ** MAX_N}$"):
        evolve(SystemSpec(n=2 ** (MAX_N + 1), params=params_from_pair(3, 1, 0.0)))


def test_entropy_product_state():
    psi = np.zeros(4)
    psi[0] = 1.0
    assert entanglement_entropy(psi, 2) == 0.0


def test_entropy_of_frame_columns():
    for N in ALL_N:
        frame = build_w(N)
        for j in range(frame.dim):
            s = entanglement_entropy(frame.W[:, j], frame.n)
            assert abs(s - np.log(frame.n)) < 1e-10


def test_entropy_rejects_bad_length():
    with pytest.raises(ValueError, match="length-4"):
        entanglement_entropy(np.array([1.0, 0.0]), 2)
