"""The maximally entangled lab frames.

For n = 2^N the change of basis to the lab frame is a real orthogonal
symmetric matrix W whose columns are vectorized tensor products of the
four 2x2 Sigma matrices. Each column is a maximally entangled state of
the n (x) n bipartition: its reduced state is the maximally mixed one,
so the entanglement entropy is exactly ln(n). One closed form builds W
for every N (see the ``pythcpt.frames`` module docstring).
"""

import numpy as np

from pythcpt import (
    build_w,
    entanglement_entropy,
    general_even_frame,
    validate_frame,
)

for N in (1, 2, 3):
    frame = build_w(N)
    v = validate_frame(frame)
    entropies = [entanglement_entropy(frame.W[:, j], frame.n) for j in range(frame.dim)]
    print(f"N={N} (n={frame.n}, {frame.dim}x{frame.dim}):")
    print(f"  labels: {' '.join(frame.labels[:8])}{' ...' if frame.dim > 8 else ''}")
    print(f"  symmetry residual {v.symmetry_residual:.1e}, "
          f"orthogonality residual {v.orthogonality_residual:.1e}")
    print(f"  structural demands pass: {v.all_pass}")
    print(f"  entanglement entropy of every column: {np.mean(entropies):.10f} "
          f"(ln n = {np.log(frame.n):.10f})")

print()
print("The 4x4 frame, scaled by sqrt(2):")
print((build_w(1).W * np.sqrt(2)).astype(int))

print()
print("The 16x16 frame, scaled by 2 (entries are 0 or +-1):")
print((build_w(2).W * 2).astype(int))

print()
print("The same closed form at N=4 (n=16, 256x256):")
frame = build_w(4)
v = validate_frame(frame)
target = frame.n ** 2 - frame.n
print(f"  first labels: {' '.join(frame.labels[:8])} ...")
print(f"  target column {target + 1}: label {frame.labels[target]}")
print(f"  symmetry residual {v.symmetry_residual:.1e}, "
      f"orthogonality residual {v.orthogonality_residual:.1e}, demands pass: {v.all_pass}")

print()
print("Even dimensions that are not powers of two still admit a frame")
print("(orthogonal, but without the symmetric Sigma structure):")
q = general_even_frame(6)
print(f"  n=6: 36x36, orthogonality residual "
      f"{np.max(np.abs(q @ q.T - np.eye(36))):.1e}")
try:
    general_even_frame(3)
except ValueError as exc:
    print(f"  n=3 is rejected: {exc}")
