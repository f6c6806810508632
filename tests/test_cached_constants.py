"""The per-n constants (the 2^N frame, the spin generators, Y and the signs of Y as a signed reversal, the
lift's J2 eigenbasis, the pair constants of the doubled-space reports) are built once and read-only."""

import inspect

import numpy as np
import pytest

from pythcpt import dynamics, frames, linalg, retrograde, su2
from pythcpt.frames import MAX_N, build_w, general_even_frame, lab_frame, label_to_column
from pythcpt.linalg import kron, vectorize
from pythcpt.retrograde import basic_cpts, check_equivalence, pythagorean_pulse
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
        lambda: dynamics._y_signs(4).__setitem__((0, 0), 0.0),
        lambda: su2._j2_eigenbasis(4)[0].__setitem__(0, 0.0),
        lambda: su2._j2_eigenbasis(4)[1].__setitem__((0, 0), 0.0),
        lambda: su2._j2_eigenbasis(4)[2].__setitem__((0, 0), 0.0),
        lambda: y_matrix(4).__setitem__((0, 3), 0.0),
        lambda: y_matrix(3).__setitem__((1, 1), 0.0),
        lambda: retrograde._pair_constants(4).d.__setitem__((0, 0), 0.0),
        lambda: retrograde._pair_constants(5).weights.__setitem__((0, 0, 0), 0.0),
        lambda: retrograde._pair_constants(4).target.__setitem__(3, 0.0),
        lambda: basic_cpts(4, 3, 1).uniform_initial.__setitem__(0, 0.0),
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


def test_the_j2_eigenbasis_is_built_once_per_n():
    su2._j2_eigenbasis.cache_clear()
    first = su2._j2_eigenbasis(6)
    assert all(su2._j2_eigenbasis(6) is first for _ in range(4))
    info = su2._j2_eigenbasis.cache_info()
    assert (info.misses, info.hits, info.maxsize) == (1, 4, SPIN_CACHE_SIZE)
    # J2 = V diag(-m) V^dagger, with m J3's descending diagonal
    m, basis, basis_h = first
    assert np.array_equal(m, np.diag(spin_generators(6).J3))
    assert np.abs((basis * -m) @ basis_h - spin_generators(6).J2).max() <= 1e-14


@pytest.mark.parametrize("n", [2, 4, 6, 16])
def test_y_signs_are_built_once_and_are_y_as_a_signed_reversal(n):
    dynamics._y_signs.cache_clear()
    signs = dynamics._y_signs(n)
    assert all(dynamics._y_signs(n) is signs for _ in range(3))
    info = dynamics._y_signs.cache_info()
    assert (info.misses, info.hits, info.maxsize) == (1, 3, SPIN_CACHE_SIZE)
    # Y m Y^T is m reversed in both axes and signed entrywise, for every n x n m
    m = np.random.default_rng(n).normal(size=(n, n))
    assert np.array_equal(y_matrix(n) @ m @ y_matrix(n).T, signs * m[::-1, ::-1])
    # so C = Y (x) Y is the reversal of a row-major vec(m) with the signs read row-major
    assert np.array_equal(kron(y_matrix(n), y_matrix(n)), np.diag(signs.ravel())[:, ::-1])


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
    for fn in (build_w, lab_frame, spin_generators, y_matrix, basic_cpts, check_equivalence, pythagorean_pulse,
               retrograde.ordered_propagator, linalg.matexp_unitary):
        assert inspect.isfunction(fn)
    assert inspect.isclass(retrograde.RetrogradeSystem)


@pytest.mark.parametrize("n", [2, 3, 4, 7, 16])
def test_y_matrix_is_built_once_per_n(n):
    su2._y_matrix.cache_clear()
    first = y_matrix(n)
    assert all(y_matrix(n) is first for _ in range(3))
    info = su2._y_matrix.cache_info()
    assert (info.misses, info.hits, info.maxsize) == (1, 3, SPIN_CACHE_SIZE)
    assert not first.flags.writeable and first.dtype == np.float64
    # the closed form: Y[k, n-1-k] = (-1)^k, zero elsewhere
    k = np.arange(n)
    fresh = np.zeros((n, n))
    fresh[k, n - 1 - k] = (-1.0) ** k
    assert np.array_equal(first, fresh)


@pytest.mark.parametrize("n", [4, np.int64(4)], ids=["int", "int64"])
def test_a_float_n_does_not_read_an_integer_entry(n):
    # the caches are typed: 4.0 equals 4 and hashes alike, but still fails in the builder. An untyped
    # lru_cache keys a lone int by itself, apart from (4.0,), but keys np.int64(4) as (np.int64(4),) == (4.0,)
    builders = (y_matrix, spin_generators, retrograde._pair_constants)
    cached = [build(n) for build in builders]
    for build in builders:
        with pytest.raises(TypeError):
            build(4.0)
    with pytest.raises(TypeError):
        basic_cpts(4.0, 3, 1)
    assert all(build(n) is value for build, value in zip(builders, cached))


def test_y_matrix_checks_n_before_the_cache():
    before = su2._y_matrix.cache_info().currsize
    with pytest.raises(ValueError, match="^representation dimension must be >= 2, got 1$"):
        y_matrix(1)
    assert su2._y_matrix.cache_info().currsize == before


def test_the_pair_constants_are_built_once_per_n():
    retrograde._pair_constants.cache_clear()
    reports = [basic_cpts(6, p, q, k) for p, q, k in ((3, 1, 0.0), (7, 3, 0.3), (11, 5, -1.2), (3, 1, 0.5))]
    info = retrograde._pair_constants.cache_info()
    assert (info.misses, info.hits, info.maxsize) == (1, 3, SPIN_CACHE_SIZE)
    assert all(r.uniform_initial is reports[0].uniform_initial for r in reports)
    # each record's states stay its own, per call
    assert reports[0].records[0].initial is not reports[1].records[0].initial
    assert reports[0].records[0].initial.flags.writeable


@pytest.mark.parametrize("n", [2, 3, 4, 5, 8, 13, 24, 32])
def test_the_pair_constants_are_the_closed_forms(n):
    c = retrograde._pair_constants(n)
    half = n // 2
    d = np.zeros((n, half))
    for i in range(half):
        d[i, i], d[n - 1 - i, i] = 1.0 / np.sqrt(2.0), (-1.0) ** n / np.sqrt(2.0)
    assert np.array_equal(c.d, d)
    assert c.levels.tolist() == [[i, n - 1 - i] for i in range(half)]
    assert np.array_equal(c.weights[:, :, 0], np.array([[d[i, i], d[n - 1 - i, i]] for i in range(half)]))
    assert np.abs(c.uniform - 1.0 / np.sqrt(n)).max() <= np.finfo(float).eps
    assert np.array_equal(c.uniform_initial, vectorize(np.diag(c.uniform)))
    assert np.array_equal(c.target, vectorize(y_matrix(n)) / np.sqrt(n))
    # every cached array is O(n^2): the O(n^3) pair initial states are built per call
    for a in (*c, y_matrix(n), *su2._j2_eigenbasis(n)):
        assert not a.flags.writeable
        assert a.size < n**3


def _reports(calls):
    out = []
    for kind, n, p, q, k, tol in calls:
        if kind == "basic":
            r = basic_cpts(n, p, q, k, tol)
            arrays = [r.uniform_initial, r.uniform_final, *(a for rec in r.records for a in (rec.initial, rec.final))]
        else:
            r = check_equivalence(pythagorean_pulse(p, q, k, n=n), y_matrix(n), tol=tol)
            arrays = []
        out.append((r.as_json(), arrays))
    return out


def test_interleaved_reports_equal_reports_from_cleared_caches():
    calls = [
        ("basic", 6, 3, 1, 0.0, 1e-9),
        ("equiv", 6, 7, 3, 0.3, 1e-9),
        ("basic", 6, 11, 5, -1.2, 1e-300),
        ("equiv", 6, 101, 7, 0.5, 1e-12),
        ("basic", 6, 7, 3, 0.3, 0.5),
        ("basic", 5, 7, 3, 0.3, 1e-9),
        ("equiv", 5, 3, 1, 0.0, 0.5),
        ("basic", 6, 101, 7, 0.5, 1e-9),
    ]
    for call, (warm_payload, warm_arrays) in zip(calls, _reports(calls)):
        for cache in (su2._y_matrix, su2._spin_rep, su2._j2_eigenbasis, retrograde._pair_constants):
            cache.cache_clear()
        [(payload, arrays)] = _reports([call])
        assert payload == warm_payload
        assert len(arrays) == len(warm_arrays)
        assert all(np.array_equal(a, b) for a, b in zip(arrays, warm_arrays))
