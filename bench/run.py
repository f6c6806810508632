"""pythcpt benchmark: three workloads, end-to-end and per-layer metrics.

    python3 bench/run.py --workload triple_sweep --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30

``--trace 0`` measures the end-to-end metrics with no wrappers installed;
``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics of the traced ones. The metric names, units and bounds
come from BENCHMARK.json at the repository root. The last line of
standard output is one JSON object; a full report (environment, the
issue-level metric table, every per-layer total, errors) is written to
``bench/out/<workload>-seed<seed>-trace<t>.json``, and traced runs also
write their spans to ``bench/out/spans-<workload>-seed<seed>.jsonl``.
"""

from __future__ import annotations

import os
import sys

# Pin BLAS threads before numpy can be imported, for this process and every child.
BLAS_THREADS = "1"
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS")
for _var in BLAS_VARS:
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass  # noqa: E402

from spans import Recorder, median_summary, summarize  # noqa: E402
from workloads import OUT, ROOT, SRC, WORKLOADS, Outcome, run_process  # noqa: E402

sys.path.insert(0, SRC)

SETUP_PROBES = 9

# A shared host's speed can drift by 10-30 % within seconds. A fixed kernel
# owned by the benchmark (small eigh calls and a Python loop) is timed
# between ops. Op latencies for op_p50_ms, op_p99_ms and ops_per_s are
# scaled by REF_NOMINAL_S / the median of the REF_NEAREST kernel times
# closest to each op, so they read as if taken at the speed where that
# kernel takes 5 ms.
REF_NOMINAL_S = 0.005
REF_EVERY_S = 0.1
REF_NEAREST = 3

# Per-layer totals that must be nonzero on the workloads where the layer works.
ALL = tuple(WORKLOADS)
REQUIRED_NONZERO = {
    "triples.params_from_pair.calls": ALL,
    "triples.enumerate_primitive_pairs.busy_s": ("triple_sweep", "cli_session"),
    "su2.spin_generators.calls": ALL,
    "su2.y_matrix.calls": ALL,
    "linalg.matexp_unitary.calls": ALL,
    "linalg.matexp_unitary.work_d3": ALL,
    "linalg.complete_orthogonal.busy_s": ("dimension_ladder",),
    "frames.build_w.calls": ALL,
    "frames.general_even_frame.busy_s": ("dimension_ladder",),
    "dynamics.verify_cpt.calls": ALL,
    "dynamics.build_h_tp.busy_s": ALL,
    "dynamics.forbidden_scan.busy_s": ("triple_sweep", "cli_session"),
    "dynamics.simulate.points": ("triple_sweep", "cli_session"),
    "retrograde.check_equivalence.calls": ALL,
    "retrograde.basic_cpts.self_s": ("dimension_ladder", "cli_session"),
    "retrograde.RetrogradeSystem.build_s": ALL,
    "retrograde.ordered_propagator.calls": ALL,
    "suite.self_s": ("cli_session",),
    "cli.import_s": ("cli_session",),
    "cli.simulate.bytes_out": ("cli_session",),
    "cli.simulate.format_s": ("cli_session",),
}
SUITE_CHECKS = 11


@dataclass
class Record:
    pass_no: int
    label: str
    traced: bool
    start: float
    latency: float
    outcome: Outcome


def load_benchmark() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def git_commit() -> str | None:
    """The checked-out commit, read from .git without running git; None outside a repository."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, *ref.split("/"))
        if os.path.exists(ref_path):
            with open(ref_path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip("\n").endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "blas_thread_env": {v: os.environ[v] for v in BLAS_VARS},
        "git_commit": git_commit(),
    }


class SpeedReference:
    """Times the reference kernel; ``scaled()`` converts a time to nominal speed."""

    def __init__(self):
        import numpy as np

        a = np.random.default_rng(0).random((48, 48))
        self._a = a + a.T
        self._eigh = np.linalg.eigh
        self._last = -math.inf
        self.samples: list[tuple[float, float]] = []  # (midpoint, kernel time)

    def sample(self) -> None:
        start = time.perf_counter()
        if start - self._last < REF_EVERY_S:
            return
        for _ in range(10):
            self._eigh(self._a)
        x = 0
        for i in range(5000):
            x += i * i
        self._last = time.perf_counter()
        self.samples.append(((start + self._last) / 2, self._last - start))

    def scaled(self, start: float, duration: float) -> float:
        mid = start + duration / 2
        near = sorted(self.samples, key=lambda s: abs(s[0] - mid))[:REF_NEAREST]
        return duration * REF_NOMINAL_S / statistics.median(d for _, d in near)


def percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def latency_metrics(records: list[Record], latency) -> dict[str, float]:
    """op_p50_ms, op_p99_ms and ops_per_s of ``records`` under the ``latency`` function.

    Passes repeat the same ops, so each op's latency is its median over the passes.
    """
    lat = [latency(r) for r in records]
    by_label: dict[str, list[float]] = {}
    for r, x in zip(records, lat):
        by_label.setdefault(r.label, []).append(x)
    op_lat = sorted(statistics.median(v) for v in by_label.values())
    return {
        "op_p50_ms": statistics.median(op_lat) * 1e3,
        "op_p99_ms": percentile(op_lat, 0.99) * 1e3,
        "ops_per_s": len(lat) / sum(lat),
    }


def measure_setup(args) -> float:
    """Median wall time of fresh processes doing import, input generation and one warm-up op."""
    argv = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
            "--seed", str(args.seed), "--setup-only"] + (["--tiny"] if args.tiny else [])
    walls = []
    for _ in range(1 if args.tiny else SETUP_PROBES):
        os.makedirs(OUT, exist_ok=True)
        code, wall, _ = run_process(argv, os.path.join(OUT, f"setup-{args.workload}-{os.getpid()}.log"))
        if code != 0:
            raise RuntimeError(f"set-up probe exited with {code}; see bench/out/setup-*.log")
        walls.append(wall)
    for suffix in ("", ".err"):
        os.remove(os.path.join(OUT, f"setup-{args.workload}-{os.getpid()}.log{suffix}"))
    return statistics.median(walls)


def run_loop(wl, seconds: float, traced: bool, recorder, ref: SpeedReference | None) -> tuple[list[Record], dict]:
    """Closed loop over whole passes of the workload's ops for about ``seconds``.

    A run stops only at a pass end, the one nearest to ``seconds``, so every
    run attempts each op equally often. Traced runs alternate untraced and
    traced passes and run at least one of each.
    """
    records: list[Record] = []
    pass_walls: dict[bool, list[float]] = {False: [], True: []}
    start = time.perf_counter()
    pass_no = 0
    while True:
        tracing = traced and pass_no % 2 == 1
        whole = 0.0
        if tracing:
            wl.set_tracing(True)
        try:
            for label, inp in wl.ops:
                if recorder is not None:
                    recorder.item = f"{pass_no}.{label}"
                t0 = time.perf_counter()
                try:
                    raw = wl.op(label, inp)
                except Exception as exc:  # counted as a failed op
                    raw = exc
                latency = time.perf_counter() - t0
                if isinstance(raw, Exception):
                    outcome = Outcome(ok=False, errors=[f"{label}: {type(raw).__name__}: {raw}"])
                else:
                    outcome = wl.check(label, inp, raw)
                records.append(Record(pass_no, label, tracing, t0, latency, outcome))
                whole += latency
                if ref is not None:
                    ref.sample()
        finally:
            if tracing:
                wl.set_tracing(False)
        pass_walls[tracing].append(whole)
        pass_no += 1
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / pass_no / 2 >= seconds and (not traced or pass_walls[True]):
            return records, pass_walls


def cli_pass_extras(records: list[Record], spans: list[dict]) -> dict[str, float]:
    out: dict[str, float] = {}
    for r in records:
        key = f"cli.{r.label.split('_')[0]}.wall_s"
        out[key] = out.get(key, 0.0) + r.outcome.values.get("wall", r.latency)
        if r.label == "simulate":
            out["cli.simulate.bytes_out"] = r.outcome.values.get("bytes_out", 0)
    sim = [s for s in spans if s["item"].endswith(".simulate")]
    busy = lambda name: sum(s["end"] - s["start"] for s in sim if s["name"] == name)
    out["cli.simulate.format_s"] = busy("cli.simulate") - busy("dynamics.simulate_lab")
    imports = [s["end"] - s["start"] for s in spans if s["name"] == "cli.import"]
    out["cli.import_s"] = statistics.mean(imports) if imports else 0.0
    return out


def per_layer(wl, records: list[Record], pass_walls: dict, recorder) -> tuple[dict, dict]:
    """Median per-pass layer totals over the traced passes, plus diagnostics."""
    by_pass: dict[str, list[dict]] = {}
    for s in recorder.spans:
        by_pass.setdefault(s["item"].split(".")[0], []).append(s)
    traced_passes = sorted({r.pass_no for r in records if r.traced})
    summaries = []
    for p in traced_passes:
        summary = summarize(by_pass.get(str(p), []))
        if wl.name == "cli_session":
            summary.update(cli_pass_extras([r for r in records if r.pass_no == p], by_pass.get(str(p), [])))
        summaries.append(summary)
    layer = median_summary(summaries)
    for name, value in summarize(by_pass.get("setup", [])).items():
        layer.setdefault(name, value)
    checks = {s["check"] for s in recorder.spans if "check" in s}
    for check in checks:
        layer[f"suite.{check}.s"] = layer[f"suite.{check}.busy_s"]
    layer["retrograde.RetrogradeSystem.build_s"] = layer.get("retrograde.RetrogradeSystem.build.busy_s", 0.0)
    layer["trace.overhead_ratio"] = statistics.median(pass_walls[True]) / statistics.median(pass_walls[False])
    diag = {}
    if wl.name == "dimension_ladder":
        n24 = [s for s in recorder.spans if s["item"].endswith(".n24") and int(s["item"].split(".")[0]) in traced_passes]
        if n24:
            self_by_layer = summarize(n24)
            layers = ("frames", "linalg", "dynamics", "retrograde")
            untraced = [r.outcome.values for r in records if not r.traced and r.label == "n24"]
            diag["n24"] = {
                "self_s_frames_linalg_dynamics_retrograde": sum(self_by_layer.get(f"{x}.self_s", 0.0) for x in layers)
                / len(traced_passes),
                "self_s_all_layers": sum(v for k, v in self_by_layer.items() if k.count(".") == 1 and k.endswith(".self_s"))
                / len(traced_passes),
                "untraced_certify_plus_retro_s": statistics.median(v["certify_s"] + v["retro_s"] for v in untraced),
            }
    return layer, diag, len(checks)


def run_workload(args, bench: dict) -> int:
    cls = WORKLOADS[args.workload]
    recorder = Recorder(args.workload) if args.trace else None
    setup_s = ref = None
    if not args.trace:
        setup_s, ref = measure_setup(args), SpeedReference()
    if recorder is not None and cls.in_process:
        recorder.install()
        recorder.item = "setup"
    wl = cls(args.seed, args.tiny, recorder)
    if recorder is not None and cls.in_process:
        recorder.uninstall()
    try:
        wl.warmup()
        records, pass_walls = run_loop(wl, args.seconds, bool(args.trace), recorder, ref)
    finally:
        wl.close()

    attempted = len(records)
    failed = sum(not r.outcome.ok for r in records)
    correct = not any(r.outcome.incorrect for r in records)
    problems = [e for r in records for e in r.outcome.errors]
    untraced = [r for r in records if not r.traced]
    if cls.in_process:
        peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    else:
        peak_kib = max(r.outcome.values.get("rss_kib", 0) for r in records)
    common = {"ok_ratio": (attempted - failed) / attempted, "peak_rss_mb": peak_kib / 1024.0}
    raw = {**common, **latency_metrics(untraced, lambda r: r.latency)}
    named = {
        "failed_ratio": (failed / attempted, "failed/attempted"),
        "peak_rss_mb": (raw["peak_rss_mb"], "MB"),
        **cls.named(untraced, raw),
    }
    if setup_s is not None:
        raw["setup_s"] = setup_s
        named = {"setup_s": (setup_s, "s"), **named}
        e2e = {**raw, **latency_metrics(untraced, lambda r: ref.scaled(r.start, r.latency))}
    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "tiny": args.tiny, "environment": environment(), "attempted": attempted, "failed": failed,
        "correct": correct, "untraced_ops": len(untraced), "named_metrics": named, "unscaled_metrics": raw,
        "failures": sorted(set(problems))[:50],
    }
    os.makedirs(OUT, exist_ok=True)
    if args.trace:
        layer, diag, checks = per_layer(wl, records, pass_walls, recorder)
        missing = [m for m, where in REQUIRED_NONZERO.items() if args.workload in where and not layer.get(m)]
        if args.workload == "cli_session" and checks != SUITE_CHECKS:
            missing.append(f"suite.<check>.s: {checks} of {SUITE_CHECKS} checks timed")
        if missing:
            correct = False
            report["correct"] = False
            report["zero_layer_counters"] = missing
        report.update(per_layer=layer, diagnostics=diag, passes={"untraced": len(pass_walls[False]),
                                                                  "traced": len(pass_walls[True])})
        recorder.dump(os.path.join(OUT, f"spans-{args.workload}-seed{args.seed}.jsonl"))
        wanted = {m["name"]: m["unit"] for m in bench["per_layer"]}
        values = {name: layer.get(name, 0.0) for name in wanted}
    else:
        wanted = {m["name"]: m["unit"] for m in bench["end_to_end"]}
        values = {name: e2e[name] for name in wanted}
    report["metrics"] = values
    with open(os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"), "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2, default=str)

    print(f"# {args.workload} seed={args.seed} trace={args.trace}: {attempted} ops, {failed} failed, correct={correct}")
    for name, (value, unit) in named.items():
        print(f"  {name:<24} {value!r:>24} {unit}")
    if not args.trace:
        print("  (op times on the last line are scaled to the reference kernel's nominal speed)")
    for failure in sorted(set(problems))[:5]:
        print(f"  failure: {failure}")
    if args.trace:
        for name in sorted(report["per_layer"]):
            print(f"  {name:<48} {report['per_layer'][name]!r}")
        for key, value in diag.items():
            print(f"  {key}: {value}")
        for m in report.get("zero_layer_counters", []):
            print(f"  zero per-layer counter: {m}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in wanted.items()},
    }))
    return 0


def run_all(args) -> int:
    """Run every workload in its own process and print the issue-level metric table."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        argv = [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)] + (["--tiny"] if args.tiny else [])
        proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True, cwd=ROOT)
        if proc.returncode != 0:
            print(f"error: {name} exited with {proc.returncode}", file=sys.stderr)
            return proc.returncode
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        with open(os.path.join(OUT, f"{name}-seed{args.seed}-trace{args.trace}.json"), encoding="utf-8") as fh:
            report = json.load(fh)
        total["correct"] = total["correct"] and result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        for metric, (value, unit) in report["named_metrics"].items():
            key = f"{name}.{metric}" if metric in ("setup_s", "failed_ratio", "peak_rss_mb") else metric
            total["metrics"][key] = {"value": value, "unit": unit}
    print(f"# all workloads, seed={args.seed}, seconds={args.seconds}, trace={args.trace}")
    for key, m in total["metrics"].items():
        print(f"  {key:<36} {m['value']!r:>24} {m['unit']}")
    print(json.dumps(total))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="tiny inputs, one set-up probe (smoke test)")
    parser.add_argument("--setup-only", action="store_true",
                        help="import, make the inputs, run one warm-up op and exit (times setup_s)")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "pythcpt", "__init__.py")):
        print(f"error: no pythcpt sources under {SRC}", file=sys.stderr)
        return 2
    if args.setup_only:
        wl = WORKLOADS[args.workload](args.seed, args.tiny)
        try:
            wl.warmup()
        finally:
            wl.close()
        return 0
    if args.workload == "all":
        return run_all(args)
    return run_workload(args, load_benchmark())


if __name__ == "__main__":
    sys.exit(main())
