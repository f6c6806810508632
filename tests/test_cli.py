import argparse
import dataclasses
import io
import json
import os
import re
import subprocess
import sys
import threading
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from pythcpt import cli, reference_tables, retrograde, suite
from pythcpt.cli import main
from pythcpt.dynamics import SystemSpec, coupling_graph, lab_hamiltonian, simulate, verify_cpt
from pythcpt.frames import EntangledFrame
from pythcpt.retrograde import basic_cpts
from pythcpt.suite import run_suite
from pythcpt.tolerances import COUPLING_ZERO_REL
from pythcpt.triples import params_from_pair


def main_here(argv):
    """``main(argv)``; a forked worker that comes back out of it ends at once, with exit code 99."""
    parent = os.getpid()
    try:
        return main(argv)
    finally:
        if os.getpid() != parent:
            os._exit(99)


def run_cli(capsys, *argv):
    code = main_here(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_triples_table(capsys):
    code, out, _ = run_cli(capsys, "triples", "--max-c", "13")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 3
    assert lines[1].split() == ["3", "1", "4", "3", "5", "yes"]
    assert lines[2].split() == ["5", "1", "12", "5", "13", "yes"]


def test_triples_signs(capsys):
    code, out, _ = run_cli(capsys, "triples", "--max-c", "5", "--signs")
    assert code == 0
    rows = [line.split() for line in out.strip().splitlines()[1:]]
    assert ["3", "1", "-4", "3", "5", "yes"] in rows
    assert ["3", "1", "4", "-3", "5", "yes"] in rows
    assert len(rows) == 4


def test_verify_json(capsys):
    code, out, _ = run_cli(capsys, "verify", "--p", "3", "--q", "1", "--k", "0", "--n", "4")
    assert code == 0
    payload = json.loads(out)
    assert set(payload) == {"fidelity", "target_index", "tau", "pass", "phase", "phase_error"}
    assert payload["pass"] is True
    assert payload["target_index"] == 13
    assert payload["fidelity"] >= 1.0 - 1e-9
    assert abs(payload["tau"] - np.pi / np.sqrt(10)) < 1e-12


@pytest.mark.parametrize("pqk", [(3, 1, 0.0), (5, 1, 0.0), (7, 3, 0.3), (11, 5, -1.2)])
@pytest.mark.parametrize("n", ["2", "4", "8"])
def test_verify_reports_the_integer_phase(capsys, n, pqk):
    p, q, k = pqk
    code, out, _ = run_cli(capsys, "verify", "--p", str(p), "--q", str(q), "--k", repr(k), "--n", n)
    assert code == 0
    payload = json.loads(out)
    cert = verify_cpt(SystemSpec(n=int(n), params=params_from_pair(p, q, k)))
    assert payload["phase"] == [cert.phase.real, cert.phase.imag]
    # |amp|^2 and |amp| differ in their last bits at most of these inputs
    assert (payload["fidelity"], payload["tau"]) == (cert.fidelity, cert.tau)
    # the amplitude is (-1)^((p+q)/2), so its distance from that sign is rounding alone
    sign = (-1) ** ((p + q) // 2)
    assert payload["phase_error"] == abs(cert.phase - sign) < 1e-13


def test_verify_failure_exit_code(capsys, monkeypatch):
    # a certificate below 1 - tol is a verification failure, not invalid input
    real = cli.verify_cpt
    monkeypatch.setattr(
        cli, "verify_cpt", lambda spec, tol: dataclasses.replace(real(spec, tol), fidelity=0.5)
    )
    code, out, _ = run_cli(capsys, "verify", "--p", "3", "--q", "1", "--n", "2")
    assert code == 1
    assert json.loads(out)["pass"] is False


BAD_TOLERANCES = ["nan", "inf", "-inf", "0", "-1"]


@pytest.mark.parametrize("value", BAD_TOLERANCES)
@pytest.mark.parametrize(
    "command",
    [["verify", "--p", "3", "--q", "1", "--n", "2"], ["retro", "--p", "3", "--q", "1"], ["suite"]],
    ids=["verify", "retro", "suite"],
)
def test_bad_tolerance_flag_rejected(capsys, command, value):
    code, out, err = run_cli(capsys, *command, f"--tol={value}")
    assert code == 2
    assert out == ""
    assert "--tol must be a finite positive number" in err


@pytest.mark.parametrize("value", [float("nan"), float("inf"), 0.0, -1.0])
def test_bad_tolerance_config_rejected(capsys, tmp_path, value):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"p": 3, "q": 1, "n": 2, "tol": value}))
    code, out, err = run_cli(capsys, "verify", "--config", str(cfg))
    assert code == 2
    assert out == ""
    assert "config field 'tol' must be a finite positive number" in err


@pytest.mark.parametrize("value", BAD_TOLERANCES + ["abc"])
def test_bad_tolerance_env_rejected(capsys, monkeypatch, value):
    monkeypatch.setenv("PYTHCPT_TOL", value)
    code, out, err = run_cli(capsys, "suite")
    assert code == 2
    assert out == ""
    assert "PYTHCPT_TOL" in err


def test_verify_invalid_input(capsys):
    code, _, err = run_cli(capsys, "verify", "--p", "4", "--q", "1", "--n", "2")
    assert code == 2
    assert "odd" in err


def test_simulate_six_levels_large_couplings(capsys):
    code, out, err = run_cli(capsys, "simulate", "--p", "99", "--q", "1", "--n", "6", "--steps", "2")
    assert code == 0, err
    rows = out.strip().splitlines()
    assert float(rows[2].split(",")[31]) >= 1.0 - 1e-9  # pop_31 at t/tau = 1


def test_simulate_csv(tmp_path, capsys):
    out_path = tmp_path / "trace.csv"
    code, _, _ = run_cli(
        capsys,
        "simulate", "--p", "5", "--q", "1", "--k", "0", "--n", "4",
        "--t-max", "2", "--steps", "400", "--out", str(out_path),
    )
    assert code == 0
    lines = out_path.read_text().strip().splitlines()
    header = lines[0].split(",")
    assert header[0] == "t_over_tau"
    assert len(header) == 17
    assert header[-1] == "pop_16"
    data = np.array([[float(x) for x in line.split(",")] for line in lines[1:]])
    assert data.shape == (401, 17)
    sums = data[:, 1:].sum(axis=1)
    assert np.max(np.abs(sums - 1.0)) < 1e-9
    # pop_13 peaks at the row nearest t/tau = 1
    peak_row = int(np.argmax(data[:, 13]))
    assert abs(data[peak_row, 0] - 1.0) < 1e-12


def test_simulate_stdout_absolute_time(capsys):
    code, out, _ = run_cli(
        capsys,
        "simulate", "--p", "3", "--q", "1", "--n", "2", "--steps", "2",
        "--t-max", "2", "--absolute-time",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].split(",")[0] == "t"
    tau = np.pi / np.sqrt(10)
    last = [float(x) for x in lines[-1].split(",")]
    assert abs(last[0] - 2 * tau) < 1e-12


def _forked_chunk_sizes(monkeypatch) -> list[int]:
    """The row count of each chunk that simulate hands to a forked worker, in order."""
    forks = []
    fork_rows = cli._fork_rows
    monkeypatch.setattr(cli, "_fork_rows", lambda times, pops: forks.append(len(times)) or fork_rows(times, pops))
    return forks


@pytest.mark.parametrize("cpus, can_fork", [(1, True), (2, True), (3, True), (4, True), (4, False)],
                         ids=["1cpu", "2cpus", "3cpus", "4cpus", "4cpus_no_fork"])
@pytest.mark.parametrize("out", ["-", "file"])
@pytest.mark.parametrize("absolute", [False, True])
def test_simulate_csv_is_repr_of_simulate(capsys, monkeypatch, tmp_path, absolute, out, cpus, can_fork):
    # one chunk of rows per CPU, down to a few rows each here; the bytes are those of one writer
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    monkeypatch.setattr(cli, "_MIN_WORKER_VALUES", 35)  # 7 rows of 17 values: at most 3 chunks
    if not can_fork:
        monkeypatch.delattr(os, "fork")
    forks = _forked_chunk_sizes(monkeypatch)
    path = tmp_path / "trace.csv"
    argv = ["simulate", "--p", "5", "--q", "1", "--k", "0.3", "--n", "4", "--t-max", "2", "--steps", "6"]
    argv += ["--out", "-" if out == "-" else str(path), *(["--absolute-time"] if absolute else [])]
    code, stdout, err = run_cli(capsys, *argv)
    assert (code, err) == (0, "")
    written = stdout if out == "-" else path.read_text(encoding="utf-8")
    spec = SystemSpec(n=4, params=params_from_pair(5, 1, 0.3))
    result = simulate(spec, 2.0, 6)
    times = result.times * spec.params.tau if absolute else result.times
    header = ["t" if absolute else "t_over_tau"] + [f"pop_{i + 1}" for i in range(16)]
    rows = [",".join(repr(float(x)) for x in [t, *pops]) for t, pops in zip(times, result.populations)]
    assert written == "\n".join([",".join(header), *rows]) + "\n"
    # 7 rows in contiguous chunks of 7 // k rows or one more, the first written in this process
    assert forks == {1: [], 2: [4], 3: [2, 3], 4: [2, 3]}[cpus if can_fork else 1]


def _split_simulate(monkeypatch):
    """A small simulate split in two: chunk 0 written by this process, chunk 1 by a forked worker."""
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    monkeypatch.setattr(cli, "_MIN_WORKER_VALUES", 20)
    return ["simulate", "--p", "5", "--q", "1", "--n", "4", "--steps", "6"]


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_simulate_worker_failure_is_a_write_error(capsys, monkeypatch):
    parent = os.getpid()
    write_rows = cli._write_rows

    def failing_in_a_child(sink, times, populations):
        if os.getpid() != parent:
            raise ValueError("no row formatted")
        write_rows(sink, times, populations)

    monkeypatch.setattr(cli, "_write_rows", failing_in_a_child)
    code, out, err = run_cli(capsys, *_split_simulate(monkeypatch))
    _assert_no_child_left()
    assert code == 2
    assert len(out.splitlines()) == 1 + 3  # the header and chunk 0, written before the worker's exit was read
    assert err.startswith("error: ") and err.count("\n") == 1 and "exited with code 1" in err


class _ReaderGone(io.StringIO):
    """A stdout whose reader leaves after the header: later writes raise ``error``."""

    def __init__(self, error: type[BaseException], fd: int):
        super().__init__()
        self.error, self.fd = error, fd

    def write(self, text: str) -> int:
        if self.tell():
            raise self.error()
        return super().write(text)

    def fileno(self) -> int:
        return self.fd


@pytest.mark.parametrize("error", [BrokenPipeError, KeyboardInterrupt])
def test_simulate_reaps_its_workers_when_the_sink_fails(monkeypatch, tmp_path, error):
    argv = _split_simulate(monkeypatch)
    forks = _forked_chunk_sizes(monkeypatch)
    with open(tmp_path / "stdout", "w", encoding="utf-8") as fh:
        monkeypatch.setattr(sys, "stdout", _ReaderGone(error, fh.fileno()))
        if error is BrokenPipeError:
            assert main_here(argv) == 141
        else:
            with pytest.raises(KeyboardInterrupt):
                main_here(argv)
    _assert_no_child_left()
    assert forks == [4]


def test_simulate_fork_with_a_thread_alive_warns_nothing(capsys, monkeypatch):
    # Python >= 3.12 warns at a fork in a multi-threaded process; the worker only formats rows
    release = threading.Event()
    helper = threading.Thread(target=release.wait, args=(60,))
    helper.start()
    try:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, _, err = run_cli(capsys, *_split_simulate(monkeypatch))
    finally:
        release.set()
        helper.join(timeout=60)
    assert not helper.is_alive()
    _assert_no_child_left()
    assert (code, err) == (0, "")
    assert [str(w.message) for w in caught if issubclass(w.category, DeprecationWarning)] == []


def test_simulate_csv_streams_to_its_sink(tmp_path, monkeypatch):
    # the rows go to the file one at a time: no whole-table string beside the populations
    results = []

    def recording(*args):
        results.append(cli_simulate(*args))
        return results[-1]

    cli_simulate = cli.simulate
    monkeypatch.setattr(cli, "simulate", recording)
    argv = ["simulate", "--p", "13", "--q", "3", "--k", "0.7", "--n", "8", "--steps", "5000"]
    main([*argv, "--out", str(tmp_path / "warm.csv")])  # builds the cached per-n constants outside the measurement
    tracemalloc.start()
    try:
        code = main([*argv, "--out", str(tmp_path / "trace.csv")])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak <= 3.5 * results[-1].populations.nbytes


def test_graph_dot_symbolic(capsys):
    code, out, _ = run_cli(capsys, "graph", "--p", "3", "--q", "1", "--k", "0.7", "--n", "4")
    assert code == 0
    assert "graph couplings {" in out
    assert 'label="sqrt(3)V12"' in out
    assert 'label="2V14"' in out
    assert 'label="|16>"' in out


def test_graph_json(capsys):
    code, out, _ = run_cli(capsys, "graph", "--p", "3", "--q", "1", "--n", "2", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    labels = {(e["i"], e["j"]): e["label"] for e in payload["edges"]}
    # k = 0 makes V14 vanish, leaving the nearest-neighbour chain
    assert labels == {(1, 2): "V12", (2, 3): "V23", (3, 4): "V34"}
    assert max(abs(x) for x in payload["diagonal"]) < 1e-12


def test_graph_keeps_the_signs_of_the_lab_hamiltonian(capsys):
    # at n = 4, (7, 3, 0.3): 4 of the 40 couplings are negative, and 4 rounding residues on the diagonal
    h = lab_hamiltonian(SystemSpec(n=4, params=params_from_pair(7, 3, 0.3)))
    graph = coupling_graph(h)
    assert [w for _, _, w in graph.edges] == [h[i - 1, j - 1].real for i, j, _ in graph.edges]
    assert sum(w < 0 for _, _, w in graph.edges) == 4 and len(graph.edges) == 40
    # the lab diagonal is zero up to residues below the cut of edges, and the graph holds exact zeros there
    assert int(np.sum(np.diag(h).real < 0)) == 4
    assert np.max(np.abs(np.diag(h))) <= COUPLING_ZERO_REL * np.max(np.abs(h))
    assert graph.diagonal.tolist() == [0.0] * 16 and not np.signbit(graph.diagonal).any()
    # a diagonal entry is no edge, and a Hamiltonian's own signs stay
    small = coupling_graph(np.array([[1.0, -0.5], [-0.5, -2.0]]))
    assert small.edges == ((1, 2, -0.5),) and small.diagonal.tolist() == [1.0, -2.0]
    code, out, _ = run_cli(capsys, "graph", "--p", "7", "--q", "3", "--k", "0.3", "--n", "4", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert [(e["i"], e["j"], e["weight"]) for e in payload["edges"]] == list(graph.edges)
    assert payload["diagonal"] == graph.diagonal.tolist()
    labels = [e["label"] for e in payload["edges"]]
    assert labels.count("-V12") == 2 and labels.count("-V34") == 2
    for e in payload["edges"]:
        assert e["label"].startswith("-") == (e["weight"] < 0), e


def test_coefficient_labels_keep_their_sign():
    coefficients = (1.0, -1.0, 2.0, -2.0, 3.0 ** 0.5, -(3.0 ** 0.5), 0.5)
    assert [cli._coeff_str(c) for c in coefficients] == ["", "-", "2", "-2", "sqrt(3)", "-sqrt(3)", None]


def test_retro_payload_is_the_library_report(capsys):
    # tol 3e-15 lies between the two sides' residuals (3.98e-15 and 1.79e-15), so it separates them
    tol = 3e-15
    code, out, _ = run_cli(capsys, "retro", "--p", "7", "--q", "3", "--k", "0.3", "--n", "4", "--tol", str(tol))
    report = basic_cpts(4, 7, 3, 0.3, tol)
    equiv = report.equivalence
    assert equiv.doubled_state_residual < tol < equiv.propagator_residual and report.sign.imag != 0
    assert json.loads(out) == {
        "n": 4,
        "variant": "retrograde",
        "forward": False,
        "backward": True,
        "propagator_phase": [equiv.propagator_phase.real, equiv.propagator_phase.imag],
        "doubled_phase": [equiv.doubled_phase.real, equiv.doubled_phase.imag],
        "propagator_residual": equiv.propagator_residual,
        "doubled_state_residual": equiv.doubled_state_residual,
        "is_cpt": True,
        "pairwise_transfers": [
            {"index": r.index, "orthogonality_residual": r.orthogonality_residual, "ok": r.ok} for r in report.records
        ],
        "uniform_target_residual": report.uniform_target_residual,
        "sign": [report.sign.real, report.sign.imag],
        "pass": False,
    }
    assert code == 1


def test_retro_pass_reads_all_ok(capsys, monkeypatch):
    # no tol fails all_ok alone (the propagator residual is the largest), so a report is edited to fail it
    real = cli.basic_cpts

    def failing_combinations(*args):
        return dataclasses.replace(real(*args), combination_bound=1.0)

    monkeypatch.setattr(cli, "basic_cpts", failing_combinations)
    code, out, _ = run_cli(capsys, "retro", "--p", "7", "--q", "3", "--k", "0.3", "--n", "4")
    payload = json.loads(out)
    assert payload["forward"] is True and payload["backward"] is True
    assert payload["pass"] is False and code == 1


_BAD_PAIRS = {"even_p": (4, 1), "p_not_above_q": (3, 5), "q_below_one": (3, -1), "huge_p": (10**155 + 1, 1)}


@pytest.mark.parametrize("source", ["flag", "config"])
@pytest.mark.parametrize("pair", list(_BAD_PAIRS))
@pytest.mark.parametrize("command", ["verify", "simulate", "graph", "retro"])
def test_a_rejected_pair_names_its_sources(capsys, tmp_path, command, pair, source):
    p, q = _BAD_PAIRS[pair]
    with pytest.raises(ValueError) as library:
        params_from_pair(p, q)
    if source == "flag":
        argv = [command, "--p", str(p), "--q", str(q)]
        named = "--p, --q"
    else:
        config = tmp_path / "pair.json"
        config.write_text(json.dumps({"p": p, "q": q}))
        argv = [command, "--config", str(config)]
        named = "config field 'p', config field 'q'"
    code, out, err = run_cli(capsys, *argv)
    assert (code, out, err) == (2, "", f"error: {named}: {library.value}\n")


def test_retro_even(capsys):
    code, out, _ = run_cli(capsys, "retro", "--p", "5", "--q", "1", "--n", "4")
    assert code == 0
    payload = json.loads(out)
    assert payload["forward"] is True and payload["backward"] is True
    assert payload["is_cpt"] is True
    assert abs(payload["propagator_phase"][0] + 1.0) < 1e-8
    assert 0.0 <= payload["propagator_residual"] < 1e-9
    assert 0.0 <= payload["doubled_state_residual"] < 1e-9
    assert len(payload["pairwise_transfers"]) == 2
    assert payload["pass"] is True


@pytest.mark.parametrize("n", ["2", "4"])
def test_retro_runs_one_doubled_space_half_step(capsys, monkeypatch, n):
    # basic_cpts measures the equivalence on the half step it reads, so it is not run twice
    calls = []
    real = retrograde.ordered_propagator

    def counting(schedule, t0, t1):
        calls.append((t0, t1))
        return real(schedule, t0, t1)

    monkeypatch.setattr(retrograde, "ordered_propagator", counting)
    code, out, _ = run_cli(capsys, "retro", "--p", "3", "--q", "1", "--n", n)
    assert code == 0
    assert json.loads(out)["forward"] is True
    assert len(calls) == 2


def test_retro_semi(capsys):
    code, out, _ = run_cli(capsys, "retro", "--p", "3", "--q", "1", "--n", "2", "--variant", "semi")
    payload = json.loads(out)
    # the pulse propagator is Y, not the identity, so the semi check fails both ways
    assert payload["forward"] is False and payload["backward"] is False
    assert payload["propagator_residual"] > 0.1 and payload["doubled_state_residual"] > 0.1
    assert code == 1


def test_retro_odd_expected_non_cpt(capsys):
    code, out, _ = run_cli(capsys, "retro", "--p", "3", "--q", "1", "--n", "3")
    assert code == 0
    payload = json.loads(out)
    _, even, _ = run_cli(capsys, "retro", "--p", "3", "--q", "1", "--n", "4")
    assert list(payload) == list(json.loads(even))  # one payload shape at every n
    # V(I) still reaches V(Y) and the one pair transfers, but V(I) and V(Y) overlap by 1/3
    assert payload["is_cpt"] is False
    assert payload["forward"] is True and payload["backward"] is True
    assert abs(payload["sign"][0] - 1.0) < 1e-8
    assert [t["index"] for t in payload["pairwise_transfers"]] == [1]
    assert payload["pass"] is True


@pytest.mark.parametrize("pqk", [("3", "1", "0"), ("7", "3", "0.3")])
def test_retro_serves_every_n(capsys, pqk):
    p, q, k = pqk
    for n in range(2, 33):
        code, out, err = run_cli(capsys, "retro", "--p", p, "--q", q, "--k", k, "--n", str(n))
        assert code == 0, (n, err)
        payload = json.loads(out)
        assert payload["n"] == n and payload["pass"] is True
        assert payload["is_cpt"] is (n % 2 == 0)
        assert len(payload["pairwise_transfers"]) == n // 2
    for n in ("1", "33"):
        code, out, err = run_cli(capsys, "retro", "--p", p, "--q", q, "--k", k, "--n", n)
        assert code == 2 and out == ""
        assert err == f"error: --n: n must be 2 <= n <= 32, got {n}\n"


@pytest.mark.parametrize("source", ["flag", "config"])
def test_retro_odd_rejects_semi(capsys, tmp_path, source):
    # odd n has only the retrograde report
    for n in (3, 5, 31):
        if source == "flag":
            argv = ["retro", "--p", "3", "--q", "1", "--n", str(n), "--variant", "semi"]
        else:
            config = tmp_path / "semi.json"
            config.write_text(json.dumps({"p": 3, "q": 1, "n": n, "variant": "semi"}))
            argv = ["retro", "--config", str(config)]
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and "semi" in err and err.count("\n") == 1


def test_simulate_huge_t_max_is_invalid_input(capsys, recwarn):
    code, out, err = run_cli(capsys, "simulate", "--p", "3", "--q", "1", "--n", "2", "--steps", "2", "--t-max", "1e308")
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "not finite" in err and err.count("\n") == 1
    assert not recwarn.list


@pytest.mark.parametrize("source", ["flag", "config"])
def test_simulate_overflowing_t_max_names_its_source(capsys, tmp_path, source):
    argv = ["simulate", "--p", "3", "--q", "1", "--n", "2", "--steps", "2"]
    if source == "flag":
        argv += ["--t-max", "1e308"]
    else:
        (tmp_path / "t.json").write_text(json.dumps({"t_max": 1e308}))
        argv += ["--config", str(tmp_path / "t.json")]
    code, out, err = run_cli(capsys, *argv)
    named = "--t-max" if source == "flag" else "config field 't_max'"
    assert code == 2
    assert out == ""
    # the value as given, in units of tau, then simulate's own finiteness message
    assert err.startswith(f"error: {named} 1e+308 (in units of tau): factor phase ") and err.count("\n") == 1


def test_simulate_unallocatable_steps_is_invalid_input(capsys):
    # a (n^2, 10^15 + 1) table is far beyond any address space, so numpy refuses it without touching memory
    code, out, err = run_cli(capsys, "simulate", "--p", "3", "--q", "1", "--n", "2", "--steps", "1000000000000000")
    assert code == 2
    assert out == ""
    assert err.startswith("error: --steps 1000000000000000 ") and err.count("\n") == 1


def test_simulate_unallocatable_steps_names_the_config_field(capsys, tmp_path):
    config = tmp_path / "steps.json"
    config.write_text(json.dumps({"p": 3, "q": 1, "n": 2, "steps": 1000000000000000}))
    code, out, err = run_cli(capsys, "simulate", "--config", str(config))
    assert code == 2
    assert out == ""
    assert err.startswith("error: config field 'steps' 1000000000000000 ") and err.count("\n") == 1


@pytest.mark.parametrize("tol, is_cpt", [("0.5", True), ("0.3", False)])
def test_retro_is_cpt_reads_the_normalized_overlap(capsys, tol, is_cpt):
    # at n = 3, V(I)/sqrt(3) and V(Y)/sqrt(3) overlap by |trace(Y_3)|/3 = 1/3
    code, out, err = run_cli(capsys, "retro", "--p", "3", "--q", "1", "--n", "3", "--tol", tol)
    assert code == 0, err
    payload = json.loads(out)
    assert payload["is_cpt"] is is_cpt
    assert payload["pass"] is True


def test_frame_output(capsys):
    code, out, _ = run_cli(capsys, "frame", "--N", "2", "--matrix")
    assert code == 0
    payload = json.loads(out)
    assert payload["labels"][:4] == ["00", "01", "10", "11"]
    assert payload["denominator_squared"] == 4
    mat = np.array(payload["numerators"])
    assert np.array_equal(mat, mat.T)
    assert np.array_equal(mat @ mat.T, 4 * np.eye(16))


def test_frame_output_sixteen_levels(capsys):
    code, out, _ = run_cli(capsys, "frame", "--N", "4", "--matrix")
    assert code == 0
    payload = json.loads(out)
    assert set(payload) == {"N", "n", "labels", "numerators", "denominator_squared"}
    assert len(set(payload["labels"])) == 256
    mat = np.array(payload["numerators"])
    assert np.array_equal(mat, mat.T)
    assert np.array_equal(mat @ mat.T, 16 * np.eye(256))


@pytest.mark.parametrize(
    "argv, message",
    [(["--N", "0"], "1..5"), (["--N", "6"], "1..5"), (["--N", "2", "--budget", "5"], "--budget")],
)
def test_frame_rejects_bad_input(capsys, tmp_path, argv, message):
    code, _, err = run_cli(capsys, "frame", *argv)
    assert code == 2
    assert message in err
    if message == "1..5":  # the range rule names its flag, or its config field when N comes from a file
        assert err.startswith("error: --N: ")
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"N": int(argv[1])}))
        code, _, err = run_cli(capsys, "frame", "--config", str(config))
        assert code == 2
        assert err.startswith("error: config field 'N': ") and message in err


def test_simulate_sixteen_levels_per_factor(capsys):
    code, out, _ = run_cli(
        capsys, "simulate", "--p", "3", "--q", "1", "--n", "16", "--steps", "2", "--t-max", "2",
    )
    assert code == 0
    lines = out.strip().splitlines()
    header = lines[0].split(",")
    at_tau = dict(zip(header, (float(x) for x in lines[2].split(","))))
    assert at_tau["t_over_tau"] == 1.0
    assert at_tau["pop_241"] >= 1.0 - 1e-9


@pytest.mark.parametrize(
    "command, n",
    [("simulate", "3"), ("simulate", "34"), ("graph", "6"), ("graph", "64"), ("verify", "64"), ("verify", "4094")],
)
def test_unsupported_n_rejected(capsys, command, n):
    code, out, err = run_cli(capsys, command, "--p", "3", "--q", "1", "--n", n)
    assert code == 2
    assert out == ""
    assert "n must be" in err and "<= 32" in err


def test_verify_n_bound_from_config(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"p": 3, "q": 1, "n": 64}))
    code, out, err = run_cli(capsys, "verify", "--config", str(cfg))
    assert code == 2
    assert out == ""
    assert "n must be even with 2 <= n <= 32, got 64" in err


@pytest.mark.parametrize(
    "command, n", [("simulate", 3), ("verify", 34), ("verify", 3), ("verify", 1), ("graph", 6), ("retro", 33)]
)
@pytest.mark.parametrize("source", ["flag", "config"])
def test_n_rule_message_names_its_source(capsys, tmp_path, command, n, source):
    if source == "flag":
        argv, named = [command, "--p", "3", "--q", "1", "--n", str(n)], "--n"
    else:
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"p": 3, "q": 1, "n": n}))
        argv, named = [command, "--config", str(config)], "config field 'n'"
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: {named}: n must be ") and err.endswith(f", got {n}\n")


def test_verify_largest_n(capsys):
    code, out, err = run_cli(capsys, "verify", "--p", "3", "--q", "1", "--n", "32")
    assert code == 0, err
    payload = json.loads(out)
    assert payload["pass"] is True
    assert payload["target_index"] == 32 * 32 - 32 + 1


def test_config_file_and_override(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"p": 3, "q": 1, "n": 2, "k": 0.0}))
    code, out, _ = run_cli(capsys, "verify", "--config", str(cfg))
    assert code == 0
    assert json.loads(out)["target_index"] == 3
    # an explicit flag wins over the file value
    code, out, _ = run_cli(capsys, "verify", "--config", str(cfg), "--n", "4")
    assert code == 0
    assert json.loads(out)["target_index"] == 13


def test_config_unknown_key_rejected(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"p": 3, "q": 1, "bogus": 7}))
    code, _, err = run_cli(capsys, "verify", "--config", str(cfg))
    assert code == 2
    assert "bogus" in err


def test_missing_required_field(capsys):
    code, _, err = run_cli(capsys, "verify", "--q", "1")
    assert code == 2
    assert "p" in err


def test_outputs_are_deterministic(capsys, tmp_path):
    _, out1, _ = run_cli(capsys, "verify", "--p", "3", "--q", "1", "--n", "4")
    _, out2, _ = run_cli(capsys, "verify", "--p", "3", "--q", "1", "--n", "4")
    assert out1 == out2
    _, sim1, _ = run_cli(capsys, "simulate", "--p", "3", "--q", "1", "--n", "2", "--steps", "50", "--t-max", "2")
    _, sim2, _ = run_cli(capsys, "simulate", "--p", "3", "--q", "1", "--n", "2", "--steps", "50", "--t-max", "2")
    assert sim1 == sim2
    _, dot1, _ = run_cli(capsys, "graph", "--p", "5", "--q", "1", "--k", "0.3", "--n", "4")
    _, dot2, _ = run_cli(capsys, "graph", "--p", "5", "--q", "1", "--k", "0.3", "--n", "4")
    assert dot1 == dot2


def test_suite_json_is_deterministic(capsys, tmp_path):
    paths = [tmp_path / "a.json", tmp_path / "b.json"]
    for path in paths:
        code, _, _ = run_cli(capsys, "suite", "--json", str(path))
        assert code == 0
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_env_var_tolerance(capsys, monkeypatch):
    seen = []
    real = cli.verify_cpt

    def spy(spec, tol):
        seen.append(tol)
        return real(spec, tol)

    monkeypatch.setattr(cli, "verify_cpt", spy)
    monkeypatch.setenv("PYTHCPT_TOL", "0.25")
    code, out, _ = run_cli(capsys, "verify", "--p", "3", "--q", "1", "--n", "2")
    assert code == 0
    assert json.loads(out)["pass"] is True
    code, _, _ = run_cli(capsys, "verify", "--p", "3", "--q", "1", "--n", "2", "--tol", "1e-6")
    assert code == 0
    assert seen == [0.25, 1e-6]  # the environment sets the default, an explicit flag wins


def test_suite_cli_table(capsys):
    code, out, _ = run_cli(capsys, "suite")
    assert code == 0
    assert "all checks passed" in out
    assert out.count("PASS") == 11


def test_suite_rejects_unsupported_n(capsys, tmp_path):
    # the suite is one battery; its odd_dimension check reads n = 3, 5 and 7 itself
    for n in ("2", "3", "4", "5", "8"):
        code, out, err = run_cli(capsys, "suite", "--n", n)
        assert code == 2
        assert out == ""
        assert "unrecognized arguments: --n" in err
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"n": 3}))
    code, out, err = run_cli(capsys, "suite", "--config", str(config))
    assert (code, out, err) == (2, "", "error: unknown config field: n\n")


def test_suite_failure_reaches_the_json_and_the_exit_code(capsys, tmp_path):
    path = tmp_path / "strict.json"
    code, _, _ = run_cli(capsys, "suite", "--tol", "1e-300", "--json", str(path))
    payload = json.loads(path.read_text())
    expected = [r.passed for r in run_suite(tol=1e-300).results]
    assert expected.count(False) == 5 and len(expected) == 11
    assert [c["passed"] for c in payload["checks"]] == expected
    assert payload["all_passed"] is False
    assert code == 1


@pytest.mark.parametrize("tol", [float("nan"), float("inf"), -float("inf"), 0.0, -1e-9])
def test_run_suite_rejects_bad_tolerances(tol):
    with pytest.raises(ValueError, match="tol must be a finite positive number"):
        run_suite(tol=tol)


@pytest.mark.parametrize("n", ["3", "4"])
def test_retro_tolerance_reaches_every_printed_verdict(capsys, n):
    code, out, _ = run_cli(capsys, "retro", "--p", "3", "--q", "1", "--n", n, "--tol", "1e-300")
    payload = json.loads(out)
    assert code == 1
    assert payload["pass"] is False
    assert payload["forward"] is False
    assert [t["ok"] for t in payload["pairwise_transfers"]] == [False] * (int(n) // 2)
    code, out, _ = run_cli(capsys, "retro", "--p", "3", "--q", "1", "--n", n)
    payload = json.loads(out)
    assert code == 0
    assert payload["pass"] is True
    assert [t["ok"] for t in payload["pairwise_transfers"]] == [True] * (int(n) // 2)


def test_suite_frame_validation_detects_corruption(monkeypatch):
    real = suite.validate_frame

    def validate_with_one_sign_flipped(frame: EntangledFrame):
        w = frame.W.copy()
        w[0, -1] = -w[0, -1]
        return real(EntangledFrame(N=frame.N, labels=frame.labels, W=w))

    monkeypatch.setattr(suite, "validate_frame", validate_with_one_sign_flipped)
    report = run_suite()
    assert not report.all_passed
    assert [r.name for r in report.failures()] == ["frame_validation"]


def test_exact_suite_checks_report_zero_error():
    assert suite._check_sixteen_level_tables() == (True, "max table deviation 0.000e+00")
    assert suite._check_vectorization_identity() == (True, "max identity error 0.000e+00")


def _row_major_vectorize(x):
    return np.asarray(x).reshape(-1)


def _swapped_kron(a, b):
    return np.kron(b, a)


@pytest.mark.parametrize("name, defect", [("vectorize", _row_major_vectorize), ("kron", _swapped_kron)])
def test_vectorization_identity_detects_a_planted_defect(monkeypatch, name, defect):
    monkeypatch.setattr(suite, name, defect)
    passed, detail = suite._check_vectorization_identity()
    assert not passed, detail


def test_sixteen_level_tables_detect_a_planted_lab_term(monkeypatch):
    real = reference_tables.sixteen_level_lab

    def lab_with_an_extra_term(v12, v23, v34, v14):
        h = real(v12, v23, v34, v14).copy()
        h[0, 1] += 1e-9 * v23
        h[1, 0] += 1e-9 * v23
        return h

    monkeypatch.setattr(reference_tables, "sixteen_level_lab", lab_with_an_extra_term)
    passed, detail = suite._check_sixteen_level_tables()
    assert not passed, detail


def _odd_report_claims_cpt(real):
    def basic_cpts(*args):
        report = real(*args)
        return dataclasses.replace(report, equivalence=dataclasses.replace(report.equivalence, is_cpt=True))

    return basic_cpts


def _odd_frame_accepted(real):
    return lambda n: np.eye(n * n)


def _every_pulse_is_3_1(real):
    return lambda n, p, q, k, tol: real(n, 3, 1, k, tol)


def _phase_flipped(real):
    def check_equivalence(base, y, **kw):
        report = real(base, y, **kw)
        return dataclasses.replace(report, propagator_phase=-report.propagator_phase)

    return check_equivalence


def _control_matches(real):
    def check_equivalence(base, y, **kw):
        report = real(base, y, **kw)
        if len(base.segments) > 1:
            return report
        return dataclasses.replace(report, propagator_matches=True, doubled_state_matches=True)

    return check_equivalence


def _state_2_fills(real):
    return lambda spec: dataclasses.replace(real(spec), max_pop_2=1.0)


def _no_revival(real):
    def simulate(*args, **kw):
        result = real(*args, **kw)
        populations = result.populations.copy()
        populations[-1, 0] = 0.5
        return dataclasses.replace(result, populations=populations)

    return simulate


def _lift_loses_fidelity(real):
    def verify_cpt(spec, tol):
        cert = real(spec, tol)
        return dataclasses.replace(cert, fidelity=0.5) if spec.n == 8 else cert

    return verify_cpt


def _entropy_in_bits(real):
    return lambda column, n: real(column, n) / np.log(2.0)


def _one_edge_lost(real):
    def coupling_graph(h):
        graph = real(h)
        return dataclasses.replace(graph, edges=graph.edges[1:])

    return coupling_graph


def _tau_not_scaled(real):
    def params_from_pair(p, q, k=0.0):
        params = real(p, q, k)
        return dataclasses.replace(params, tau=params.tau * 1.001) if p == 9 else params

    return params_from_pair


# each defect breaks one condition of one check, and the check must fail on it
@pytest.mark.parametrize(
    "check, name, defect",
    [
        (lambda: suite._check_odd_dimension(1e-9), "basic_cpts", _odd_report_claims_cpt),
        (lambda: suite._check_odd_dimension(1e-9), "general_even_frame", _odd_frame_accepted),
        (lambda: suite._check_pairwise_transfers(1e-9), "basic_cpts", _every_pulse_is_3_1),
        (lambda: suite._check_doubled_space_equivalence(1e-9), "check_equivalence", _phase_flipped),
        (lambda: suite._check_doubled_space_equivalence(1e-9), "check_equivalence", _control_matches),
        (lambda: suite._check_two_level_family(1e-9), "forbidden_scan", _state_2_fills),
        (lambda: suite._check_sixteen_level_transfer(1e-9), "simulate", _no_revival),
        (lambda: suite._check_representation_lift(1e-9), "verify_cpt", _lift_loses_fidelity),
        (suite._check_entanglement, "entanglement_entropy", _entropy_in_bits),
        (suite._check_sixteen_level_tables, "coupling_graph", _one_edge_lost),
        (suite._check_scaling, "params_from_pair", _tau_not_scaled),
    ],
    ids=[
        "odd_dimension-is_cpt",
        "odd_dimension-odd_frame",
        "pairwise_transfers-basic_gap",
        "doubled_space_equivalence-phase",
        "doubled_space_equivalence-control",
        "two_level_family-leak",
        "sixteen_level_transfer-revival",
        "representation_lift-fidelity",
        "entanglement_entropy-bound",
        "sixteen_level_tables-coupling_pattern",
        "scaling-tau_ratio",
    ],
)
def test_suite_check_detects_a_planted_defect(monkeypatch, check, name, defect):
    monkeypatch.setattr(suite, name, defect(getattr(suite, name)))
    passed, detail = check()
    assert not passed, detail


def test_unknown_subcommand_exit_code(capsys):
    assert main(["nonsense"]) == 2


# Per subcommand field: a valid value that differs from the default (a switch
# given is true) and a config value of the wrong JSON type.
FIELD_VALUES = {
    "triples": {"max_c": (13, True), "signs": (True, "no")},
    "frame": {"N": (2, 2.5), "matrix": (True, 1)},
    "simulate": {
        "p": (3, 3.7), "q": (1, [1]), "k": (0.5, [0.5]), "n": (2, 4.9), "t_max": (1.5, True),
        "steps": (3, 2.5), "out": ("trace.csv", ["trace.csv"]), "absolute_time": (True, "false"),
    },
    "verify": {"p": (3, [3]), "q": (1, True), "k": (0.5, {"re": 0.5}), "n": (2, 4.9), "tol": (1e-6, [1e-6])},
    "graph": {"p": (3, 3.0), "q": (1, False), "k": (0.5, [1]), "n": (2, True), "format": ("json", 1)},
    "retro": {
        "p": (3, False), "q": (1, 1.5), "k": (0.5, [0]), "n": (4, 2.0), "variant": ("semi", True),
        "tol": (1e-6, False),
    },
    "suite": {"json": ("summary.json", {"path": "summary.json"}), "tol": (1e-6, [1])},
}
FIELDS = [(command, field) for command, fields in FIELD_VALUES.items() for field in fields]


def _flag(field):
    return "--" + field.replace("_", "-")


def _run_in(path, capsys, argv, config=None):
    """Exit code, stdout with timings masked, and the files written, for one run in ``path``."""
    for old in path.iterdir():
        old.unlink()
    if config is not None:
        (path / "cfg.json").write_text(json.dumps(config))
        argv = [*argv, "--config", "cfg.json"]
    code, out, _ = run_cli(capsys, *argv)
    files = {p.name: p.read_bytes() for p in path.iterdir() if p.name != "cfg.json"}
    return code, re.sub(r"\d+\.\d{3}s", "<elapsed>", out), files


@pytest.mark.parametrize("command, field", FIELDS)
def test_config_value_matches_flag(capsys, tmp_path, monkeypatch, command, field):
    monkeypatch.chdir(tmp_path)
    argv = [command]
    for name, (value, _) in FIELD_VALUES[command].items():
        if name != field:
            argv += [_flag(name)] if value is True else [_flag(name), str(value)]
    value = FIELD_VALUES[command][field][0]
    flag = [_flag(field)] if value is True else [_flag(field), str(value)]
    by_flag = _run_in(tmp_path, capsys, argv + flag)
    by_config = _run_in(tmp_path, capsys, argv, {field: value})
    assert by_flag[0] in (0, 1)
    assert by_config == by_flag


@pytest.mark.parametrize("command, field", FIELDS)
def test_config_value_of_wrong_type_rejected(capsys, tmp_path, command, field):
    config = {name: value for name, (value, _) in FIELD_VALUES[command].items()}
    config[field] = FIELD_VALUES[command][field][1]
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    code, out, err = run_cli(capsys, command, "--config", str(cfg))
    assert code == 2
    assert out == ""
    assert f"config field {field!r}" in err


def test_flag_destinations_are_config_keys():
    parser = cli.build_parser()
    subparsers = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    assert set(subparsers.choices) == set(FIELD_VALUES)
    for command, sub in subparsers.choices.items():
        options = [a for a in sub._actions if a.dest not in ("help", "config")]
        assert {a.dest for a in options} == set(cli._FIELDS[command][1]) == set(FIELD_VALUES[command])
        for action in options:
            assert action.option_strings == [_flag(action.dest)]
    suite_help = " ".join(subparsers.choices["suite"].format_help().split())
    assert "the file holds no timings, so it is byte-identical across runs" in suite_help


@pytest.mark.parametrize(
    "argv, name",
    [
        (["triples", "--max-c", "inf"], "--max-c"),
        (["simulate", "--p", "3", "--q", "1", "--t-max", "nan"], "--t-max"),
        (["graph", "--p", "3", "--q", "1", "--k", "nan", "--format", "json"], "--k"),
        (["retro", "--p", "3", "--q", "1", "--k", "nan"], "--k"),
        (["simulate", "--p", "3", "--q", "1", "--steps", "-1"], "--steps"),
        (["simulate", "--p", "3", "--q", "1", "--n", "2", "--steps", "2", "--t-max", "-1"], "--t-max"),
        (["triples", "--max-c", "4"], "--max-c"),
    ],
    ids=[
        "triples-max-c-inf", "simulate-t-max-nan", "graph-k-nan", "retro-k-nan", "simulate-steps-neg",
        "simulate-t-max-neg", "triples-max-c-below-5",
    ],
)
def test_bad_numeric_flag_rejected(capsys, argv, name):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert name in err


@pytest.mark.parametrize("field, value", [("steps", -1), ("t_max", -1.0)])
def test_negative_simulate_config_value_names_its_field(capsys, tmp_path, field, value):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"p": 3, "q": 1, "n": 2, "steps": 2, field: value}))
    code, out, err = run_cli(capsys, "simulate", "--config", str(cfg))
    assert (code, out) == (2, "")
    assert err == f"error: config field {field!r}: {field} must be non-negative, got {value!r}\n"


@pytest.mark.parametrize(
    "command, config, field",
    [
        ("verify", {"p": 3, "q": 1, "n": 4.9}, "n"),
        ("simulate", {"p": 3.7, "q": 1}, "p"),
        ("simulate", {"p": 3, "q": 1, "steps": 2.5}, "steps"),
        ("simulate", {"p": 3, "q": 1, "absolute_time": "false"}, "absolute_time"),
        ("triples", {"max_c": 13, "signs": "no"}, "signs"),
        ("verify", {"p": [3], "q": 1}, "p"),
        ("triples", {"max_c": 4}, "max_c"),
    ],
)
def test_config_values_are_not_coerced(capsys, tmp_path, command, config, field):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    code, out, err = run_cli(capsys, command, "--config", str(cfg))
    assert code == 2
    assert out == ""
    assert f"config field {field!r}" in err


@pytest.mark.parametrize("source", ["flag", "config"])
@pytest.mark.parametrize("max_c", ["1e300", "10000001"])
def test_triples_refuses_a_table_too_large_to_hold_before_enumerating(capsys, tmp_path, monkeypatch, source, max_c):
    def refuse(limit_c):
        raise AssertionError("enumeration started")

    monkeypatch.setattr(cli, "enumerate_primitive_pairs", refuse)
    if source == "flag":
        argv = ["triples", "--max-c", max_c]
    else:
        (tmp_path / "c.json").write_text(json.dumps({"max_c": float(max_c)}))
        argv = ["triples", "--config", str(tmp_path / "c.json")]
    code, out, err = run_cli(capsys, *argv)
    named = "--max-c" if source == "flag" else "config field 'max_c'"
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: {named} must be <= 1e+07: ") and err.count("\n") == 1


def test_triples_largest_table_bound_is_accepted(capsys, monkeypatch):
    monkeypatch.setattr(cli, "enumerate_primitive_pairs", lambda limit_c: [])
    code, out, _ = run_cli(capsys, "triples", "--max-c", "1e7")
    assert code == 0
    assert out.startswith("   p    q")


def test_verify_huge_k_certifies(capsys, recwarn):
    code, out, err = run_cli(capsys, "verify", "--p", "3", "--q", "1", "--n", "2", "--k", "1e300")
    assert code == 0, err
    assert json.loads(out)["pass"] is True
    assert not recwarn.list


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--p", "3", "--q", "1", "--n", "4", "--k", "0.3333333333333333"],  # omega1 = 0
        ["retro", "--p", "5", "--q", "1", "--n", "4", "--k", "0.2"],  # omega1 = 0
    ],
)
def test_a_k_that_zeroes_a_coupling_passes_with_nothing_on_stderr(argv):
    # a process of its own, so stderr holds whatever a user would see, warnings included
    src = Path(cli.__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run(
        [sys.executable, "-m", "pythcpt.cli", *argv], env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        timeout=120,
    )
    assert (proc.returncode, proc.stderr) == (0, b"")
    assert json.loads(proc.stdout)["pass"] is True


def test_config_null_counts_as_absent(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"p": 3, "q": 1, "n": None}))
    assert run_cli(capsys, "verify", "--config", str(cfg)) == run_cli(capsys, "verify", "--p", "3", "--q", "1")
    # a null required field is a missing one
    cfg.write_text(json.dumps({"N": None}))
    code, out, err = run_cli(capsys, "frame", "--config", str(cfg))
    assert code == 2
    assert out == ""
    assert "missing required field: N" in err


HUGE_P = [10**155 + 1, 14 * 10**153 + 1]  # c overflows a float; c fits but c + a and 2c do not


@pytest.mark.parametrize("p", HUGE_P, ids=["c_overflows", "couplings_overflow"])
@pytest.mark.parametrize("command", ["verify", "retro", "simulate", "graph"])
@pytest.mark.parametrize("source", ["flag", "config"])
def test_huge_p_is_invalid_input(capsys, tmp_path, command, p, source):
    if source == "flag":
        argv = [command, "--p", str(p), "--q", "1", "--n", "2"]
    else:
        config = tmp_path / "huge.json"
        config.write_text(json.dumps({"p": p, "q": 1, "n": 2}))
        argv = [command, "--config", str(config)]
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "Traceback" not in err
    assert "(p, q) = (" in err or "c=9.8e+307" in err


@pytest.mark.parametrize(
    "argv",
    [["triples", "--max-c", "100000"], ["simulate", "--p", "13", "--q", "3", "--n", "4", "--steps", "5000"]],
    ids=["triples", "simulate"],
)
def test_closed_stdout_exits_141_silently(argv):
    # a reader that leaves after one line, as `| head -n 1` does, is not invalid input
    src = Path(cli.__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(src))
    with subprocess.Popen(
        [sys.executable, "-m", "pythcpt.cli", *argv], env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE
    ) as proc:
        assert proc.stdout.readline()
        proc.stdout.close()
        err = proc.stderr.read()
        code = proc.wait(timeout=120)
    assert code == 141
    assert err == b""


@pytest.mark.parametrize("value", ["-1e-3", "-1.5e-05", "-0.001"])
def test_negative_k_in_any_float_form(capsys, value):
    # argparse alone reads only plain negative numbers (-0.001) as values
    code, out, err = run_cli(capsys, "verify", "--p", "3", "--q", "1", "--n", "2", "--k", value)
    assert (code, err) == (0, "")
    assert json.loads(out)["pass"] is True


@pytest.mark.parametrize("value", ["-inf", "-x"])
def test_a_dash_value_reaches_its_converter(capsys, value):
    code, out, err = run_cli(capsys, "verify", "--p", "3", "--q", "1", "--n", "2", "--k", value)
    assert (code, out) == (2, "")
    assert err == f"error: --k must be a finite number, got {value!r}\n"


def test_a_flag_after_a_value_flag_is_still_a_flag(capsys):
    code, _, err = run_cli(capsys, "verify", "--p", "3", "--q", "1", "--k", "--n", "2")
    assert code == 2
    assert "argument --k: expected one argument" in err


def test_unwritable_stderr_keeps_the_invalid_input_exit_code():
    # a stderr whose reader has already left: the error line cannot be written, the exit code is still 2
    src = Path(cli.__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(src))
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "pythcpt.cli", "verify", "--p", "3", "--q", "1", "--n", "34"],
            env=env, stdout=subprocess.PIPE, stderr=write_end, timeout=120,
        )
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stdout) == (2, b"")
