"""Acceptance battery: every headline quantitative claim of the library,
one test per criterion, each printing a PASS/FAIL line with its
measured values and running at its stated tolerance."""

import time

import numpy as np
import pytest

from pythcpt.dynamics import (
    SystemSpec,
    build_h_tp,
    coupling_graph,
    forbidden_scan,
    lab_hamiltonian,
    simulate,
    verify_cpt,
)
from pythcpt.frames import build_w, entanglement_entropy, general_even_frame
from pythcpt.linalg import kron, vectorize
from pythcpt.reference_tables import sixteen_level_lab, sixteen_level_tp, sixteen_level_w
from pythcpt.retrograde import (
    PulseSchedule,
    basic_cpts,
    check_equivalence,
    ordered_propagator,
    pythagorean_pulse,
)
from pythcpt.su2 import y_matrix
from pythcpt.triples import (
    CouplingParams,
    enumerate_primitive_pairs,
    lab_couplings,
    params_from_pair,
)


def report(criterion: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{criterion}: {detail}"


def ket(n, a, b):
    va = np.zeros(n)
    va[a - 1] = 1.0
    vb = np.zeros(n)
    vb[b - 1] = 1.0
    return kron(va, vb)


def test_criterion_1_sixteen_level_transfer():
    details = []
    ok = True
    for p, q in ((3, 1), (5, 1)):
        t0 = time.perf_counter()
        result = simulate(SystemSpec(n=4, params=params_from_pair(p, q, 0.0)), t_max_tau=2.0, steps=400)
        elapsed = time.perf_counter() - t0
        peak = result.populations[200, 12]
        revival = result.populations[400, 0]
        ok = ok and peak >= 1.0 - 1e-9 and revival >= 1.0 - 1e-9 and elapsed < 1.0
        details.append(f"({p},{q}): pop13(tau)={peak:.12f} pop1(2tau)={revival:.12f} {elapsed:.3f}s")
    report("1 sixteen-level transfer", ok, "; ".join(details))


def test_criterion_2_two_level_gate():
    t0 = time.perf_counter()
    worst_fidelity = 1.0
    worst_leak = 0.0
    count = 0
    for pair in enumerate_primitive_pairs(65):
        for k in (0.0, 0.5, -2.0):
            spec = SystemSpec(n=2, params=params_from_pair(pair.p, pair.q, k))
            worst_fidelity = min(worst_fidelity, verify_cpt(spec).fidelity)
            scan = forbidden_scan(spec)
            worst_leak = max(worst_leak, scan.max_pop_2, scan.max_pop_4)
            count += 1
    elapsed = time.perf_counter() - t0
    ok = worst_fidelity >= 1.0 - 1e-9 and worst_leak < 1.0 - 1e-6 and elapsed < 10.0
    report(
        "2 two-level family",
        ok,
        f"{count} cases, min fidelity {worst_fidelity:.12f}, "
        f"max forbidden population {worst_leak:.8f}, {elapsed:.2f}s",
    )


def test_criterion_3_representation_lift():
    t0 = time.perf_counter()
    params = params_from_pair(3, 1, 0.0)
    tau = params.tau
    fids = {}
    for n in (2, 4, 8):
        cert = verify_cpt(SystemSpec(n=n, params=params))
        assert cert.tau == tau  # the same transfer time for every lift
        fids[n] = cert.fidelity
    elapsed = time.perf_counter() - t0
    ok = all(f >= 1.0 - 1e-9 for f in fids.values()) and elapsed < 5.0
    report(
        "3 representation lift",
        ok,
        ", ".join(f"n={n}: {f:.12f}" for n, f in fids.items()) + f", {elapsed:.2f}s",
    )


# hand-read entries of the explicit tables, pinned so the in-package
# transcription cannot drift: (row, col) 1-based -> entry * 2
W16_SPOT_ENTRIES = {
    (1, 1): 1, (1, 6): 1, (1, 11): 1, (1, 16): 1,
    (4, 13): 1, (5, 12): -1, (5, 15): -1, (7, 10): -1,
    (8, 9): -1, (9, 14): 1, (10, 13): 1, (11, 6): -1,
    (12, 12): -1, (13, 10): 1, (14, 9): 1, (15, 12): 1,
    (16, 11): 1, (16, 16): -1,
    (1, 2): 0, (2, 13): 0, (6, 7): 0,
}


def tp_spot_entries(d1, o1, d2, o2):
    s3 = np.sqrt(3.0)
    return {
        (1, 1): 3 * (d1 + d2), (2, 2): 3 * d1 + d2, (3, 3): 3 * d1 - d2,
        (4, 4): 3 * (d1 - d2), (5, 5): d1 + 3 * d2, (6, 6): d1 + d2,
        (8, 8): d1 - 3 * d2, (9, 9): 3 * d2 - d1, (12, 12): -d1 - 3 * d2,
        (13, 13): -3 * (d1 - d2), (14, 14): d2 - 3 * d1, (15, 15): -3 * d1 - d2,
        (16, 16): -3 * (d1 + d2),
        (1, 2): s3 * o2, (2, 3): 2 * o2, (3, 4): s3 * o2, (11, 12): s3 * o2,
        (1, 5): s3 * o1, (5, 9): 2 * o1, (6, 10): 2 * o1, (9, 13): s3 * o1,
        (1, 3): 0.0, (1, 6): 0.0, (5, 10): 0.0,
    }


def lab_spot_entries(v12, v23, v34, v14):
    s3 = np.sqrt(3.0)
    return {
        (1, 2): s3 * v12, (1, 4): v12, (1, 6): 2 * v14, (1, 10): -v12,
        (1, 16): v14, (2, 9): v34, (3, 8): 2 * v23, (4, 11): -v12,
        (6, 13): -v34, (7, 16): -v34, (9, 10): s3 * v34, (11, 16): 2 * v14,
        (13, 16): v34, (15, 16): s3 * v34,
        (1, 1): 0.0, (9, 9): 0.0, (1, 3): 0.0, (2, 4): 0.0,
    }


def test_criterion_4_sixteen_level_tables():
    w_ref = sixteen_level_w()
    for (i, j), val in W16_SPOT_ENTRIES.items():
        assert w_ref[i - 1, j - 1] * 2 == val, f"transcription drift at {(i, j)}"
    exact_w = np.array_equal(build_w(2).W, w_ref)
    entries = np.unique(np.abs(build_w(2).W))
    value_set_ok = set(np.round(entries, 15)) <= {0.0, 0.5}
    rng = np.random.default_rng(2024)
    worst = 0.0
    pattern_ok = True
    for _ in range(3):
        d1, o1, d2, o2 = rng.uniform(0.5, 2.5, size=4) * rng.choice([-1.0, 1.0], size=4)
        params = CouplingParams(d1, o1, d2, o2, tau=1.0)
        h_tp = build_h_tp(4, params).real
        ref_tp = sixteen_level_tp(d1, o1, d2, o2)
        for (i, j), val in tp_spot_entries(d1, o1, d2, o2).items():
            assert abs(ref_tp[i - 1, j - 1] - val) < 1e-14, f"TP transcription drift at {(i, j)}"
        worst = max(worst, float(np.max(np.abs(h_tp - ref_tp))))
        h_lab = lab_hamiltonian(SystemSpec(n=4, params=params))  # W = build_w(2).W == w_ref
        vs = lab_couplings(params)
        ref_lab = sixteen_level_lab(*vs)
        for (i, j), val in lab_spot_entries(*vs).items():
            assert abs(ref_lab[i - 1, j - 1] - val) < 1e-14, f"lab transcription drift at {(i, j)}"
        worst = max(worst, float(np.max(np.abs(h_lab - ref_lab))))
        edges = {(i, j) for i, j, _ in coupling_graph(h_lab).edges}
        want = {
            (i + 1, j + 1)
            for i in range(16)
            for j in range(i + 1, 16)
            if abs(ref_lab[i, j]) > 1e-12
        }
        pattern_ok = pattern_ok and edges == want
    ok = exact_w and value_set_ok and worst <= 1e-12 and pattern_ok
    report(
        "4 sixteen-level tables",
        ok,
        f"frame exact: {exact_w}, max Hamiltonian deviation {worst:.3e}, "
        f"coupling pattern match: {pattern_ok}",
    )


def test_criterion_5_vectorization_identity():
    rng = np.random.default_rng(99)
    worst = 0.0
    for _ in range(1000):
        m, p, q, r = rng.integers(1, 7, size=4)
        a = rng.normal(size=(m, p)) + 1j * rng.normal(size=(m, p))
        x = rng.normal(size=(p, q)) + 1j * rng.normal(size=(p, q))
        b = rng.normal(size=(q, r)) + 1j * rng.normal(size=(q, r))
        err = np.max(np.abs(vectorize(a @ x @ b) - kron(b.T, a) @ vectorize(x)))
        worst = max(worst, float(err))
    report("5 vectorization identity", worst < 1e-12, f"max error {worst:.3e} over 1000 draws")


def test_criterion_6_doubled_space_biconditional():
    details = []
    ok = True
    for p, q in ((3, 1), (5, 1)):
        rep = check_equivalence(pythagorean_pulse(p, q, 0.0), y_matrix(2))
        sign = (-1.0) ** ((p + q) // 2)
        good = rep.as_pair() == (True, True) and abs(rep.propagator_phase - sign) < 1e-8
        ok = ok and good
        details.append(f"({p},{q})={rep.as_pair()} phase {rep.propagator_phase.real:+.6f}")
    control = PulseSchedule(segments=((np.diag([1.0, -1.0]).astype(complex), 1.0),))
    rep = check_equivalence(control, y_matrix(2))
    ok = ok and rep.as_pair() == (False, False)
    details.append(f"control={rep.as_pair()}")
    report("6 doubled-space biconditional", ok, "; ".join(details))


def test_criterion_7_pairwise_and_universal_transfers():
    rep31 = basic_cpts(4, 3, 1, 0.0)
    rep51 = basic_cpts(4, 5, 1, 0.0)
    residuals = [r.orthogonality_residual for rep in (rep31, rep51) for r in rep.records]
    target = (ket(4, 4, 1) - ket(4, 3, 2) + ket(4, 2, 3) - ket(4, 1, 4)) / 2.0
    target_err = max(
        float(np.max(np.abs(rep31.uniform_final - target))),
        float(np.max(np.abs(rep51.uniform_final - target))),
    )
    cross = float(np.max(np.abs(rep31.uniform_final - rep51.uniform_final)))
    basic_gap = max(
        float(np.max(np.abs(a.final - b.final)))
        for a, b in zip(rep31.records, rep51.records)
    )
    ok = (
        max(residuals) <= 1e-9
        and target_err <= 1e-9
        and cross <= 1e-9
        and basic_gap > 0.1
    )
    report(
        "7 pairwise transfers",
        ok,
        f"max orthogonality residual {max(residuals):.3e}, universal target error "
        f"{target_err:.3e}, cross-triple gap {cross:.3e}, pairwise gap {basic_gap:.3f}",
    )


def test_criterion_8_odd_dimension():
    rep = basic_cpts(3, 3, 1, 0.0)
    pulse = pythagorean_pulse(3, 1, 0.0, n=3)
    action_residual = float(np.max(np.abs(ordered_propagator(pulse, 0.0, pulse.T) - y_matrix(3))))
    overlap_err = abs(abs(rep.equivalence.trace_y) / 3 - 1.0 / 3.0)
    with pytest.raises(ValueError):
        general_even_frame(3)
    ok = (
        action_residual <= 1e-9
        and overlap_err <= 1e-12
        and rep.records[0].orthogonality_residual <= 1e-9
        and not rep.equivalence.is_cpt
    )
    report(
        "8 odd dimension",
        ok,
        f"action residual {action_residual:.3e}, overlap error {overlap_err:.3e}, "
        "odd frame rejected",
    )


def test_criterion_9_scaling():
    base = params_from_pair(3, 1, 0.0)
    scaled = params_from_pair(9, 3, 0.0)
    rel = max(
        abs(y - 9.0 * x) / abs(9.0 * x)
        for x, y in zip(base.as_tuple(), scaled.as_tuple())
    )
    tau_ratio = base.tau / scaled.tau
    ok = rel <= 1e-12 and abs(tau_ratio - 3.0) <= 1e-12
    report("9 scaling", ok, f"max relative deviation {rel:.3e}, tau ratio {tau_ratio:.12f}")


def test_criterion_10_entanglement_certification():
    worst = 0.0
    for N in (1, 2, 3, 4):
        frame = build_w(N)
        target = np.log(frame.n)
        for j in range(frame.dim):
            worst = max(worst, abs(entanglement_entropy(frame.W[:, j], frame.n) - target))
    report("10 entanglement certification", worst <= 1e-10, f"max entropy deviation {worst:.3e}")
