"""Bundled verification battery.

Runs every quantitative check the library is built around, from the
16-level transfer reproduction down to the vectorization identity, and
reports one pass/fail line per check; no check samples its inputs. The CLI
``suite`` subcommand is a thin wrapper; tests call :func:`run_suite` directly.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import reference_tables
from .dynamics import SystemSpec, build_h_tp, coupling_graph, forbidden_scan, lab_hamiltonian, simulate, verify_cpt
from .frames import build_w, entanglement_entropy, general_even_frame, validate_frame
from .linalg import kron, vectorize
from .retrograde import PulseSchedule, basic_cpts, check_equivalence, pythagorean_pulse
from .su2 import y_matrix
from .tolerances import (
    CPT_TOL, ENTROPY_TOL, FORBIDDEN_MAX_POP, ODD_OVERLAP_TOL, PAIRWISE_GAP_MIN, SCALING_TOL, SIGN_TOL,
    TABLE_COUPLING_FLOOR, TABLE_DEVIATION_TOL, require_tol,
)
from .triples import CouplingParams, enumerate_primitive_pairs, lab_couplings, params_from_pair


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str
    elapsed: float


@dataclass(frozen=True)
class SuiteReport:
    results: tuple[CheckResult, ...]

    @property
    def all_passed(self) -> bool:
        return all(r.passed for r in self.results)

    def failures(self) -> tuple[CheckResult, ...]:
        return tuple(r for r in self.results if not r.passed)

    def as_json(self) -> dict:
        """The verdicts and details as plain JSON values; no timings, so runs are byte-identical."""
        return {
            "all_passed": self.all_passed,
            "checks": [{"name": r.name, "passed": r.passed, "detail": r.detail} for r in self.results],
        }


def _timed(fn: Callable[[], tuple[bool, str]], name: str) -> CheckResult:
    t0 = time.perf_counter()
    passed, detail = fn()
    return CheckResult(
        name=name, passed=bool(passed), detail=str(detail), elapsed=time.perf_counter() - t0
    )


def _check_sixteen_level_transfer(tol: float) -> tuple[bool, str]:
    worst = 1.0
    for p, q in ((3, 1), (5, 1)):
        result = simulate(SystemSpec(n=4, params=params_from_pair(p, q, 0.0)), t_max_tau=2.0, steps=400)
        at_tau = result.populations[200, 12]
        back = result.populations[400, 0]
        worst = min(worst, at_tau, back)
    return worst >= 1.0 - tol, f"min(peak, revival) population = {worst:.12f}"


def _check_two_level_family(tol: float) -> tuple[bool, str]:
    worst_f = 1.0
    worst_leak = 0.0
    for pair in enumerate_primitive_pairs(65):
        for k in (0.0, 0.5, -2.0):
            spec = SystemSpec(n=2, params=params_from_pair(pair.p, pair.q, k))
            worst_f = min(worst_f, verify_cpt(spec, tol).fidelity)
            scan = forbidden_scan(spec)
            worst_leak = max(worst_leak, scan.max_pop_2, scan.max_pop_4)
    ok = worst_f >= 1.0 - tol and worst_leak < FORBIDDEN_MAX_POP
    return ok, f"min fidelity {worst_f:.12f}, max forbidden population {worst_leak:.8f}"


def _check_representation_lift(tol: float) -> tuple[bool, str]:
    fids = {}
    for n in (2, 4, 8):
        fids[n] = verify_cpt(SystemSpec(n=n, params=params_from_pair(3, 1, 0.0)), tol).fidelity
    ok = all(f >= 1.0 - tol for f in fids.values())
    return ok, "fidelities " + ", ".join(f"n={n}: {f:.12f}" for n, f in fids.items())


def _check_sixteen_level_tables() -> tuple[bool, str]:
    w = build_w(2).W
    if not np.array_equal(w, reference_tables.sixteen_level_w()):
        return False, "frame does not match the explicit 16x16 table"
    worst = 0.0
    # both sides are linear in (delta1, omega1, delta2, omega2), so its unit vectors cover every parameter set
    for unit in np.eye(4).tolist():
        params = CouplingParams(*unit, tau=1.0)
        h_tp = build_h_tp(4, params)
        worst = max(worst, float(np.max(np.abs(h_tp - reference_tables.sixteen_level_tp(*unit)))))
        h_lab = lab_hamiltonian(SystemSpec(n=4, params=params))
        expected_lab = reference_tables.sixteen_level_lab(*lab_couplings(params))
        worst = max(worst, float(np.max(np.abs(h_lab - expected_lab))))
        got = {(i, j) for i, j, _ in coupling_graph(h_lab).edges}
        want = {
            (i + 1, j + 1)
            for i in range(16)
            for j in range(i + 1, 16)
            if abs(expected_lab[i, j]) > TABLE_COUPLING_FLOOR
        }
        if got != want:
            return False, "coupling pattern differs from the explicit table"
    return worst <= TABLE_DEVIATION_TOL, f"max table deviation {worst:.3e}"


def _check_vectorization_identity() -> tuple[bool, str]:
    # small complex-integer entries keep float64 arithmetic exact, so the identity holds with error 0
    i, j = np.indices((6, 6))
    a_all, x_all, b_all = ((i * s + j) % 5 - 2 + 1j * ((i + s * j) % 3 - 1) for s in (2, 3, 4))
    worst = 0.0
    for m, p, q, r in itertools.product(range(1, 7), repeat=4):
        a, x, b = a_all[:m, :p], x_all[:p, :q], b_all[:q, :r]
        lhs = vectorize(a @ x @ b)
        rhs = kron(b.T, a) @ vectorize(x)
        worst = max(worst, float(np.max(np.abs(lhs - rhs))))
    return worst == 0.0, f"max identity error {worst:.3e}"


def _check_doubled_space_equivalence(tol: float) -> tuple[bool, str]:
    details = []
    ok = True
    for p, q in ((3, 1), (5, 1)):
        rep = check_equivalence(pythagorean_pulse(p, q, 0.0), y_matrix(2), tol=tol)
        sign = (-1) ** ((p + q) // 2)
        good = rep.passed and abs(rep.propagator_phase - sign) <= SIGN_TOL
        ok = ok and good
        details.append(f"({p},{q}): {rep.as_pair()}, phase {rep.propagator_phase.real:+.6f}")
    control = PulseSchedule(segments=((np.diag([1.0, -1.0]).astype(complex), 1.0),))
    rep = check_equivalence(control, y_matrix(2), tol=tol)
    ok = ok and rep.as_pair() == (False, False)
    details.append(f"control: {rep.as_pair()}")
    return ok, "; ".join(details)


def _check_pairwise_transfers(tol: float) -> tuple[bool, str]:
    reports = {pq: basic_cpts(4, *pq, 0.0, tol) for pq in ((3, 1), (5, 1))}
    ok = all(r.all_ok for r in reports.values())
    uniform_gap = float(
        np.max(np.abs(reports[(3, 1)].uniform_final - reports[(5, 1)].uniform_final))
    )
    basic_gap = max(
        float(np.max(np.abs(a.final - b.final)))
        for a, b in zip(reports[(3, 1)].records, reports[(5, 1)].records)
    )
    ok = ok and uniform_gap <= tol and basic_gap > PAIRWISE_GAP_MIN
    return ok, f"uniform final gap {uniform_gap:.3e}, pairwise final gap {basic_gap:.3f}"


def _check_odd_dimension(tol: float) -> tuple[bool, str]:
    ok = True
    details = []
    for n in (3, 5, 7):
        rep = basic_cpts(n, 3, 1, 0.0, tol)
        equiv = rep.equivalence
        overlap = abs(equiv.trace_y) / n  # of V(I)/sqrt(n) and V(Y)/sqrt(n)
        # the sign is +1 at odd n, so U(T, 0) = Y holds without a phase
        action = equiv.propagator_matches and abs(rep.sign - 1.0) <= SIGN_TOL
        ok = ok and action and rep.all_ok and abs(overlap - 1.0 / n) <= ODD_OVERLAP_TOL and not equiv.is_cpt
        details.append(f"n={n}: action residual {equiv.propagator_residual:.3e}, overlap {overlap:.12f}")
    try:
        general_even_frame(3)
        rejected = False
    except ValueError:
        rejected = True
    ok = ok and rejected
    return ok, ", ".join(details) + f" (no complete transfer, as expected), odd frame rejected: {rejected}"


def _check_scaling() -> tuple[bool, str]:
    base = params_from_pair(3, 1, 0.7)
    scaled = params_from_pair(9, 3, 0.7)
    vals = np.array(base.as_tuple())
    vals_scaled = np.array(scaled.as_tuple())
    err = float(np.max(np.abs(vals_scaled - 9.0 * vals)) / np.max(np.abs(9.0 * vals)))
    tau_ratio = base.tau / scaled.tau
    ok = err <= SCALING_TOL and abs(tau_ratio - 3.0) <= SCALING_TOL
    return ok, f"relative parameter error {err:.3e}, tau ratio {tau_ratio:.12f}"


def _check_entanglement() -> tuple[bool, str]:
    worst = 0.0
    for N in (1, 2, 3):
        frame = build_w(N)
        target = np.log(frame.n)
        for j in range(frame.dim):
            worst = max(worst, abs(entanglement_entropy(frame.W[:, j], frame.n) - target))
    return worst <= ENTROPY_TOL, f"max entropy deviation {worst:.3e}"


def _check_frame_validation() -> tuple[bool, str]:
    outcomes = [(N, validate_frame(build_w(N)).all_pass) for N in (1, 2, 3)]
    ok = all(passed for _, passed in outcomes)
    return ok, ", ".join(f"N={N}: {'ok' if passed else 'FAILED'}" for N, passed in outcomes)


def run_suite(tol: float = CPT_TOL) -> SuiteReport:
    """Run the verification battery and collect per-check results.

    No check samples its inputs, so repeated runs are byte-identical. ``tol``
    must be finite and positive; every certificate and verdict reads it.
    """
    require_tol(tol)
    checks: tuple[tuple[str, Callable[[], tuple[bool, str]]], ...] = (
        ("sixteen_level_transfer", lambda: _check_sixteen_level_transfer(tol)),
        ("two_level_family", lambda: _check_two_level_family(tol)),
        ("representation_lift", lambda: _check_representation_lift(tol)),
        ("sixteen_level_tables", _check_sixteen_level_tables),
        ("vectorization_identity", _check_vectorization_identity),
        ("doubled_space_equivalence", lambda: _check_doubled_space_equivalence(tol)),
        ("pairwise_transfers", lambda: _check_pairwise_transfers(tol)),
        ("odd_dimension", lambda: _check_odd_dimension(tol)),
        ("scaling", _check_scaling),
        ("entanglement_entropy", _check_entanglement),
        ("frame_validation", _check_frame_validation),
    )
    return SuiteReport(results=tuple(_timed(fn, name) for name, fn in checks))
