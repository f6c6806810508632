"""Complete population transfer in the 16-level lab frame.

Prepares the system in lab state |1> and propagates under the sparse
lab-frame Hamiltonian built from the (4, 3, 5) and (12, 5, 13)
triples. The population arrives entirely in state |13> at t = tau and
returns to |1> at 2 tau, periodically. Writes the traces to CSV and,
when matplotlib is available, saves a figure next to them.
"""

import numpy as np

from pythcpt import SystemSpec, simulate, verify_cpt, params_from_pair

for p, q in ((3, 1), (5, 1)):
    spec = SystemSpec(n=4, params=params_from_pair(p, q, 0.0))
    cert = verify_cpt(spec)
    result = simulate(spec, t_max_tau=2.0, steps=400)
    print(f"(p, q) = ({p}, {q}): tau = {spec.params.tau:.6f}")
    print(f"  certificate: fidelity {cert.fidelity:.12f} into state {cert.target_index}")
    idx_tau = 200
    top = np.argsort(result.populations[idx_tau])[::-1][:3] + 1
    print(f"  most populated states at t = tau: {[int(i) for i in top]}")
    print(f"  population of |13> at tau:  {result.populations[idx_tau, 12]:.12f}")
    print(f"  population of |1> at 2 tau: {result.populations[-1, 0]:.12f}")

    path = f"transfer_{p}{q}.csv"
    header = "t_over_tau," + ",".join(f"pop_{i + 1}" for i in range(16))
    np.savetxt(
        path,
        np.column_stack([result.times, result.populations]),
        delimiter=",",
        header=header,
        comments="",
    )
    print(f"  wrote {path}")

try:
    import matplotlib

    matplotlib.use("Agg")
    import matplotlib.pyplot as plt

    fig, axes = plt.subplots(1, 2, figsize=(11, 4), sharey=True)
    for ax, (p, q) in zip(axes, ((3, 1), (5, 1))):
        result = simulate(SystemSpec(n=4, params=params_from_pair(p, q, 0.0)), t_max_tau=2.0, steps=400)
        for i in range(16):
            lw = 2.0 if i in (0, 12) else 0.8
            ax.plot(result.times, result.populations[:, i], lw=lw)
        ax.set_xlabel("t / tau")
        ax.set_title(f"(p, q) = ({p}, {q})")
    axes[0].set_ylabel("population")
    fig.tight_layout()
    fig.savefig("transfer_populations.png", dpi=120)
    print("wrote transfer_populations.png")
except ImportError:
    print("matplotlib not available, skipping the figure")
