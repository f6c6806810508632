"""The three benchmark workloads: inputs made from a seed, one operation
at a time (closed loop), and an output check on every operation.

An operation *fails* when it raises or its check does not hold; it is
never skipped. It is *incorrect* when the program claimed success (a
passing certificate, a true flag, exit code 0) that the check refutes.
"""

from __future__ import annotations

import json
import math
import os
import random
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field

from spans import load

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(BENCH, "out")

# the library's own certification gate
GATE = 1e-9

# Large-c pairs with fixed k, so precision drift at p ~ 1e8..1e9 shows on every run.
SWEEP_TAIL = (
    (100000001, 1), (123456791, 98765431), (200000001, 5), (314159265, 271828183),
    (500000001, 7), (707106781, 1), (866025403, 500000001), (999999937, 1),
)
SWEEP_TAIL_K = 0.5


@dataclass
class Outcome:
    ok: bool
    incorrect: bool = False
    errors: list[str] = field(default_factory=list)
    values: dict = field(default_factory=dict)


def _attempt(fn):
    """Run one library call; an exception is the call's result, not a harness error."""
    try:
        return fn()
    except Exception as exc:  # the op boundary: every failure is counted, none aborts the run
        return exc


def _judge(parts: list[tuple[bool, bool, str]]) -> Outcome:
    """Combine (claimed, holds, label) checks of one operation."""
    return Outcome(
        ok=all(holds for _, holds, _ in parts),
        incorrect=any(claimed and not holds for claimed, holds, _ in parts),
        errors=[label for _, holds, label in parts if not holds],
    )


def _cert_check(cert, label: str) -> tuple[bool, bool, str]:
    if isinstance(cert, Exception):
        return False, False, f"{label}: {type(cert).__name__}: {cert}"
    holds = cert.fidelity >= 1.0 - GATE and abs(cert.tp_overlap ** 2 - cert.fidelity) <= GATE
    return cert.passed, holds, f"{label}: fidelity {cert.fidelity!r}"


def _equiv_check(rep, label: str, phase: int | None) -> tuple[bool, bool, str]:
    if isinstance(rep, Exception):
        return False, False, f"{label}: {type(rep).__name__}: {rep}"
    claimed = rep.as_pair() == (True, True)
    holds = claimed and rep.is_cpt and (phase is None or abs(rep.propagator_phase - phase) <= 1e-8)
    return claimed, holds, f"{label}: pair {rep.as_pair()}, phase {rep.propagator_phase!r}"


def _odd_pairs(limit_c: int) -> list[tuple[int, int]]:
    return [
        (p, q)
        for p in range(3, math.isqrt(2 * limit_c) + 2, 2)
        for q in range(1, p, 2)
        if (p * p + q * q) // 2 <= limit_c and math.gcd(p, q) == 1
    ]


class InProcess:
    """Workloads that call the library in this process."""

    in_process = True

    def __init__(self, recorder=None):
        import pythcpt

        self.P = pythcpt
        self.recorder = recorder

    def set_tracing(self, on: bool) -> None:
        if on:
            self.recorder.install()
        else:
            self.recorder.uninstall()

    def warmup(self) -> None:
        self.check(*self.ops[0], self.op(*self.ops[0]))

    def close(self) -> None:
        pass


class TripleSweep(InProcess):
    """Thousands of small certificates: bound by per-call overhead."""

    name = "triple_sweep"

    def __init__(self, seed: int, tiny: bool, recorder=None):
        super().__init__(recorder)
        rng = random.Random(seed)
        pairs = self.P.enumerate_primitive_pairs(30 if tiny else 1600)
        items = [(pr.p, pr.q, rng.uniform(-2.0, 2.0)) for pr in pairs for _ in range(1 if tiny else 4)]
        rng.shuffle(items)
        tail = [(p, q, SWEEP_TAIL_K) for p, q in SWEEP_TAIL[: 1 if tiny else None]]
        step = len(items) // len(tail) + 1
        for i, t in enumerate(tail):
            items.insert(i * step + step // 2, t)
        self.ops = [(str(i), item) for i, item in enumerate(items)]

    def op(self, label, item):
        P = self.P
        p, q, k = item
        params = P.params_from_pair(p, q, k)
        return (
            _attempt(lambda: P.verify_cpt(P.SystemSpec(n=2, params=params))),
            _attempt(lambda: P.forbidden_scan(P.SystemSpec(n=2, params=params))),
            _attempt(lambda: P.verify_cpt(P.SystemSpec(n=4, params=params))),
            _attempt(lambda: P.check_equivalence(P.pythagorean_pulse(p, q, k), P.y_matrix(2))),
        )

    def check(self, label, item, raw) -> Outcome:
        p, q, _ = item
        v2, scan, v4, eq = raw
        if isinstance(scan, Exception):
            scan_part = (False, False, f"forbidden_scan: {type(scan).__name__}: {scan}")
        else:
            scan_part = (scan.passed, scan.passed, f"forbidden_scan: max pops {scan.max_pop_2!r}, {scan.max_pop_4!r}")
        out = _judge([
            _cert_check(v2, "verify_cpt n=2"),
            scan_part,
            _cert_check(v4, "verify_cpt n=4"),
            _equiv_check(eq, "check_equivalence", (-1) ** ((p + q) // 2)),
        ])
        out.values["infidelity"] = max(
            (1.0 - c.fidelity for c in (v2, v4) if not isinstance(c, Exception)), default=None
        )
        return out

    @staticmethod
    def named(records, metrics) -> dict:
        infid = [r.outcome.values["infidelity"] for r in records if r.outcome.values.get("infidelity") is not None]
        return {
            "sweep_items_per_s": (metrics["ops_per_s"], "items/s"),
            "sweep_item_p50_ms": (metrics["op_p50_ms"], "ms"),
            "sweep_item_p99_ms": (metrics["op_p99_ms"], "ms"),
            "sweep_max_infidelity": (max(infid, default=None), "1"),
        }


class DimensionLadder(InProcess):
    """Even n from 4 to 24 with the default frame dispatch: bound by n^6 dense work."""

    name = "dimension_ladder"

    def __init__(self, seed: int, tiny: bool, recorder=None):
        super().__init__(recorder)
        rng = random.Random(seed)
        pairs = _odd_pairs(200)
        dims = (4, 6, 8, 16) if tiny else tuple(range(4, 25, 2))
        self.ops = [(f"n{n}", (n, *rng.choice(pairs), rng.uniform(-2.0, 2.0))) for n in dims]

    def op(self, label, rung):
        P = self.P
        n, p, q, k = rung
        t0 = time.perf_counter()
        cert = _attempt(lambda: P.verify_cpt(P.SystemSpec(n=n, params=P.params_from_pair(p, q, k))))
        t1 = time.perf_counter()
        eq = _attempt(lambda: P.check_equivalence(P.pythagorean_pulse(p, q, k, n=n), P.y_matrix(n)))
        basic = _attempt(lambda: P.basic_cpts(n, p, q, k))
        t2 = time.perf_counter()
        return cert, eq, basic, t1 - t0, t2 - t1

    def check(self, label, rung, raw) -> Outcome:
        cert, eq, basic, certify_s, retro_s = raw
        if isinstance(basic, Exception):
            basic_part = (False, False, f"basic_cpts: {type(basic).__name__}: {basic}")
        else:
            basic_part = (basic.all_ok, basic.all_ok, f"basic_cpts: uniform residual {basic.uniform_target_residual!r}")
        out = _judge([
            _cert_check(cert, f"verify_cpt n={rung[0]}"),
            _equiv_check(eq, "check_equivalence", None),
            basic_part,
        ])
        out.values.update(n=rung[0], certify_s=certify_s, retro_s=retro_s)
        return out

    @staticmethod
    def named(records, metrics) -> dict:
        out = {}
        for n in (8, 24):
            rungs = [r.outcome.values for r in records if r.outcome.values.get("n") == n]
            if rungs:
                out[f"certify_s_n{n}"] = (statistics.median(v["certify_s"] for v in rungs), "s")
                if n == 24:
                    out["retro_s_n24"] = (statistics.median(v["retro_s"] for v in rungs), "s")
        return out


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.pop("PYTHCPT_TOL", None)  # the runs certify at the library's default tolerance
    return env


def run_process(argv: list[str], stdout_path: str) -> tuple[int, float, int]:
    """Run one command to completion: (exit code, wall seconds, peak RSS in KiB)."""
    with open(stdout_path, "wb") as out, open(stdout_path + ".err", "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=_child_env(), cwd=ROOT)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss


class CliSession:
    """The commands a user's script runs, each a fresh ``python -m pythcpt.cli`` process."""

    name = "cli_session"
    in_process = False

    def __init__(self, seed: int, tiny: bool, recorder=None):
        rng = random.Random(seed)
        p, q = rng.choice(_odd_pairs(200))
        k = repr(rng.uniform(-2.0, 2.0))
        self.steps = 200 if tiny else 5000
        os.makedirs(OUT, exist_ok=True)
        self._tmp = tempfile.TemporaryDirectory(dir=OUT, prefix="cli-")
        self.work = self._tmp.name
        self.recorder = recorder
        self.traced = False
        self.suite_bytes = None
        pqk = ["--p", str(p), "--q", str(q), "--k", k]
        self.ops = [
            ("suite", ["suite", "--json", os.path.join(self.work, "suite.json")]),
            ("verify_n4", ["verify", *pqk, "--n", "4"]),
            ("verify_n8", ["verify", *pqk, "--n", "8"]),
            ("retro", ["retro", *pqk, "--n", "4"]),
            ("graph", ["graph", *pqk, "--n", "4", "--format", "json"]),
            ("simulate", ["simulate", *pqk, "--n", "8", "--t-max", "2", "--steps", str(self.steps),
                          "--out", os.path.join(self.work, "simulate.csv")]),
        ]

    def close(self) -> None:
        self._tmp.cleanup()

    def set_tracing(self, on: bool) -> None:
        self.traced = on

    def warmup(self) -> None:
        self.check(*self.ops[1], self.op(*self.ops[1]))

    def op(self, label, args):
        stdout_path = os.path.join(self.work, f"{label}.out")
        if self.traced:
            spans_path = os.path.join(self.work, f"{label}.spans.jsonl")
            argv = [sys.executable, os.path.join(BENCH, "cli_launcher.py"), "--spans", spans_path, "--", *args]
        else:
            argv = [sys.executable, "-m", "pythcpt.cli", *args]
        code, wall, rss_kib = run_process(argv, stdout_path)
        if self.traced:
            rec = self.recorder
            loaded = load(spans_path, len(rec.spans), {"item": rec.item, "scope": rec.item})
            rec.spans.extend(loaded)
            os.remove(spans_path)
        return code, wall, rss_kib, stdout_path

    def check(self, label, args, raw) -> Outcome:
        code, wall, rss_kib, stdout_path = raw
        claimed = code == 0
        try:
            holds, detail = getattr(self, f"_check_{label.split('_')[0]}")(args, stdout_path)
        except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
            holds, detail = False, f"unreadable output: {type(exc).__name__}: {exc}"
        out = _judge([(claimed, claimed and holds, f"{label}: exit {code}, {detail}")])
        out.values.update(label=label, wall=wall, rss_kib=rss_kib)
        if label == "simulate":
            out.values["bytes_out"] = os.path.getsize(args[-1]) if os.path.exists(args[-1]) else 0
        return out

    def _check_suite(self, args, stdout_path):
        with open(args[-1], "rb") as fh:
            data = fh.read()
        if self.suite_bytes is None:
            self.suite_bytes = data
        same = data == self.suite_bytes
        passed = json.loads(data)["all_passed"] is True
        return passed and same, f"all_passed {passed}, identical to first session {same}"

    def _check_verify(self, args, stdout_path):
        with open(stdout_path, encoding="utf-8") as fh:
            payload = json.load(fh)
        n = int(args[args.index("--n") + 1])
        holds = (
            payload["pass"] is True
            and payload["fidelity"] >= 1.0 - GATE
            and payload["target_index"] == n * n - n + 1
        )
        return holds, f"fidelity {payload['fidelity']!r}"

    def _check_retro(self, args, stdout_path):
        with open(stdout_path, encoding="utf-8") as fh:
            payload = json.load(fh)
        holds = (
            payload["pass"] is True
            and payload["forward"] is True
            and payload["backward"] is True
            and payload["is_cpt"] is True
            and all(r["ok"] for r in payload["pairwise_transfers"])
        )
        return holds, f"uniform residual {payload['uniform_target_residual']!r}"

    def _check_graph(self, args, stdout_path):
        with open(stdout_path, encoding="utf-8") as fh:
            payload = json.load(fh)
        edges = payload["edges"]
        holds = (
            payload["n"] == 4
            and len(payload["diagonal"]) == 16
            and len(edges) > 0
            and all(1 <= e["i"] < e["j"] <= 16 and math.isfinite(e["weight"]) and e["weight"] != 0 for e in edges)
        )
        return holds, f"{len(edges)} edges"

    def _check_simulate(self, args, stdout_path):
        n_states = 64
        rows = 0
        worst_sum = 0.0
        at_tau = None
        with open(args[-1], encoding="utf-8") as fh:
            header = fh.readline().rstrip("\n").split(",")
            if header != ["t_over_tau"] + [f"pop_{i + 1}" for i in range(n_states)]:
                return False, "unexpected CSV header"
            for line in fh:
                vals = [float(x) for x in line.split(",")]
                worst_sum = max(worst_sum, abs(math.fsum(vals[1:]) - 1.0))
                if rows == self.steps // 2:
                    at_tau = vals
                rows += 1
        holds = (
            rows == self.steps + 1
            and worst_sum <= GATE
            and at_tau is not None
            and abs(at_tau[0] - 1.0) <= 1e-12
            and at_tau[57] >= 1.0 - GATE
        )
        pop57 = at_tau[57] if at_tau else None
        return holds, f"{rows} rows, max |sum-1| {worst_sum:.3e}, pop_57 at tau {pop57!r}"

    @staticmethod
    def named(records, metrics) -> dict:
        sessions: dict[int, float] = {}
        for r in records:
            sessions[r.pass_no] = sessions.get(r.pass_no, 0.0) + r.latency
        by = lambda label: statistics.median(r.latency for r in records if r.label == label)
        return {
            "cli_session_s": (statistics.median(sessions.values()), "s"),
            "cli_suite_s": (by("suite"), "s"),
            "cli_simulate_s": (by("simulate"), "s"),
        }


WORKLOADS = {w.name: w for w in (TripleSweep, DimensionLadder, CliSession)}
