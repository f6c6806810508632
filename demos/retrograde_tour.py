"""Doubled-space view: play the pulse forward and backward at once.

The two-segment drive built from a triple has full-period propagator
(-1)^((p+q)/2) [[0, 1], [-1, 0]]. Doubling the space with the
reversed-and-negated copy turns that statement into a complete
transfer between two maximally entangled states at half the period,
and the same construction explains both the pairwise transfers and
why odd dimensions only transfer incompletely.
"""

import numpy as np

from pythcpt import (
    PulseSchedule,
    basic_cpts,
    check_equivalence,
    ordered_propagator,
    pythagorean_pulse,
    time_independent_conditions,
    y_matrix,
)

print("Full-period propagators of the two-segment drive:")
for p, q in ((3, 1), (5, 1)):
    pulse = pythagorean_pulse(p, q, 0.0)
    u = ordered_propagator(pulse, 0.0, pulse.T)
    print(f"  ({p},{q}): U(T,0) =\n{np.round(u.real, 10)}")

print()
print("Propagator statement <-> doubled-space statement:")
for p, q in ((3, 1), (5, 1)):
    rep = check_equivalence(pythagorean_pulse(p, q, 0.0), y_matrix(2))
    print(f"  ({p},{q}): (propagator matches, doubled state matches) = {rep.as_pair()}, "
          f"measured sign {rep.propagator_phase.real:+.0f}, transfer is complete: {rep.is_cpt}")
control = PulseSchedule(segments=((np.diag([1.0, -1.0]).astype(complex), 1.0),))
rep = check_equivalence(control, y_matrix(2))
print(f"  plain sigma_z drive: {rep.as_pair()} (neither statement holds)")

print()
print("Pairwise transfers in the 16-level doubled space (n = 4):")
for p, q in ((3, 1), (5, 1)):
    report = basic_cpts(4, p, q, 0.0)
    residuals = ", ".join(f"{r.orthogonality_residual:.1e}" for r in report.records)
    print(f"  ({p},{q}): sign {report.sign.real:+.0f}, orthogonality residuals [{residuals}]")
    print(f"          every unit combination of the pairs overlaps its image by at most "
          f"{report.combination_bound:.1e}")
    print(f"          uniform-combination final state deviation from the universal "
          f"target: {report.uniform_target_residual:.1e}")

print()
print("The general recipe on a random five-level system:")
rng = np.random.default_rng(1)
m = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
v, _ = np.linalg.qr(m)
lam = np.array([0.3, 1.8, -0.9, 2.2, 3.7])
h = (v * lam) @ v.conj().T
i_state = (v[:, 0] + v[:, 1]) / np.sqrt(2)
T = np.pi / (lam[1] - lam[0])
ti = time_independent_conditions(h, i_state, T)
print(f"  constant-H conditions hold: {ti.both_hold} "
      f"(cycle phase {ti.phi:+.4f}, half overlap {ti.half_overlap:.2e})")
print(f"  recipe certified: {ti.recipe.ok} (transfer residual {ti.recipe.transfer_residual:.1e}, "
      f"initial/image overlap {ti.recipe.overlap:.1e}),")
print("  and so is every (U(s) x U(s))-translate of its state: that map commutes with the doubled step")

print()
print("Why odd dimensions do not give a complete transfer:")
for n in (3, 5):
    report = basic_cpts(n, 3, 1, 0.0)
    equiv = report.equivalence
    print(f"  n = {n}: U(T,0) equals the anti-diagonal rotation to {equiv.propagator_residual:.1e} "
          f"with sign {report.sign.real:+.0f}")
    print(f"    the scalar state still reaches its target (residual {report.uniform_target_residual:.1e}),")
    print(f"    but initial and final overlap by |tr Y|/{n} = {abs(equiv.trace_y) / n:.6f}, so the")
    residuals = ", ".join(f"{r.orthogonality_residual:.1e}" for r in report.records)
    print(f"    transfer is incomplete; the {len(report.records)} pairwise transfer(s) around the "
          f"middle level stay orthogonal [{residuals}]")
