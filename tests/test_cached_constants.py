"""The per-n constants (the 2^N frame, the spin generators, the signs of C = Y (x) Y) are built once and read-only."""

import inspect

import numpy as np
import pytest

from pythcpt import dynamics, frames, su2
from pythcpt.frames import MAX_N, build_w, general_even_frame, lab_frame, label_to_column
from pythcpt.linalg import kron
from pythcpt.su2 import SPIN_CACHE_SIZE, spin_generators, y_matrix


@pytest.mark.parametrize(
    "write",
    [
        lambda: build_w(2).W.__setitem__((0, 0), 0.0),
        lambda: lab_frame(4).__setitem__((0, 0), 0.0),
        lambda: spin_generators(4).J1.__setitem__((0, 1), 0.0),
        lambda: spin_generators(4).J3.__setitem__((0, 0), 0.0),
        lambda: spin_generators(4).J2.__setitem__((0, 1), 0.0),
        lambda: build_w(3).W[:, 0].__setitem__(0, 0.0),
        lambda: np.multiply(build_w(1).W, 2.0, out=build_w(1).W),
        lambda: dynamics._chiral_signs(4).__setitem__(0, 0.0),
    ],
)
def test_cached_arrays_refuse_in_place_writes(write):
    with pytest.raises(ValueError, match="read-only"):
        write()


def test_build_w_builds_each_frame_once():
    frames._closed_form_frame.cache_clear()
    first = build_w(3)
    assert all(build_w(3) is first for _ in range(4))
    assert lab_frame(8) is first.W
    info = frames._closed_form_frame.cache_info()
    assert (info.misses, info.hits) == (1, 5)


def test_spin_generators_builds_each_representation_once():
    su2._spin_rep.cache_clear()
    first = spin_generators(6)
    assert all(spin_generators(6) is first for _ in range(4))
    info = su2._spin_rep.cache_info()
    assert (info.misses, info.hits, info.maxsize) == (1, 4, SPIN_CACHE_SIZE)


@pytest.mark.parametrize("n", [2, 4, 6, 16])
def test_chiral_signs_are_built_once_and_are_y_kron_y(n):
    dynamics._chiral_signs.cache_clear()
    signs = dynamics._chiral_signs(n)
    assert all(dynamics._chiral_signs(n) is signs for _ in range(3))
    info = dynamics._chiral_signs.cache_info()
    assert (info.misses, info.hits, info.maxsize) == (1, 3, SPIN_CACHE_SIZE)
    # C = Y (x) Y is the reversal with these signs: its one nonzero in row x sits in column n^2 - 1 - x
    assert np.array_equal(kron(y_matrix(n), y_matrix(n)), np.diag(signs)[:, ::-1])


@pytest.mark.parametrize("N", range(1, MAX_N + 1))
def test_cached_frame_equals_a_fresh_closed_form(N):
    frame = build_w(N)
    fresh = frames._closed_form_frame.__wrapped__(N)
    assert fresh is not frame
    assert fresh.labels == frame.labels
    assert np.array_equal(fresh.W, frame.W)
    if N <= 3:  # each column is the normalized Sigma product its label names
        columns = np.column_stack([label_to_column(label) for label in frame.labels])
        assert np.max(np.abs(frame.W - columns)) <= 1e-15


@pytest.mark.parametrize("n", [2, 3, 4, 7, 16])
def test_cached_spin_generators_equal_the_closed_form(n):
    rep = spin_generators(n)
    j = (n - 1) / 2
    m = j - np.arange(n)
    jplus = np.diag(np.sqrt(j * (j + 1) - m[1:] * (m[1:] + 1)), k=1)
    assert rep.n == n and rep.j == j
    assert np.array_equal(rep.J3, np.diag(m))
    assert np.array_equal(rep.J1, (jplus + jplus.T) / 2.0)
    assert np.array_equal(rep.J2, (jplus - jplus.T) / 2j)


@pytest.mark.parametrize("N", [0, MAX_N + 1])
def test_build_w_checks_n_before_the_cache(N):
    before = frames._closed_form_frame.cache_info().currsize
    with pytest.raises(ValueError, match=f"^N must be in 1..{MAX_N}, got {N}$"):
        build_w(N)
    assert frames._closed_form_frame.cache_info().currsize == before


def test_spin_generators_check_n_before_the_cache():
    before = su2._spin_rep.cache_info().currsize
    with pytest.raises(ValueError, match="^representation dimension must be >= 2, got 1$"):
        spin_generators(1)
    assert su2._spin_rep.cache_info().currsize == before


def test_the_generic_even_frame_is_built_fresh():
    first = lab_frame(6)
    assert lab_frame(6) is not first
    assert general_even_frame(6) is not general_even_frame(6)
    assert first.flags.writeable


def test_public_builders_stay_plain_functions():
    # a cache lives behind each public function, which keeps its own name and signature
    for fn in (build_w, lab_frame, spin_generators):
        assert inspect.isfunction(fn)
