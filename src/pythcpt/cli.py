"""Command-line interface.

Subcommands: ``triples`` (enumerate generating pairs), ``frame``
(entangled-frame labels/matrix), ``simulate`` (population traces as
CSV), ``verify`` (transfer certificate), ``graph`` (coupling graph as
DOT or JSON), ``retro`` (doubled-space reports), ``suite`` (the full
verification battery). ``verify``, ``retro`` and ``suite --json`` print
the library report's ``as_json()`` and exit on its ``passed``
(``all_passed`` for the suite).

Each subcommand's fields are declared once, in ``_FIELDS``: field
``x`` is the flag ``--x`` (underscores written as dashes) and the
config key ``x``. Every subcommand accepts ``--config FILE`` with a
JSON object of those keys; explicit flags win over file values, file
values over defaults, and unknown keys are rejected. One converter per
field reads a flag string and a config value alike, so config values
take the field's JSON type: integers (or integer strings) for integer
fields, numbers for real fields, ``true``/``false`` for switches, and
one of the listed strings for ``format`` and ``variant``; JSON null
counts as an absent key. NaN and infinite numbers are rejected. A
flag's value may start with a dash in any form (``--k -1e-3``). The
environment variable ``PYTHCPT_TOL`` overrides the default
certification tolerance (``CPT_TOL``); a tolerance from any source must be a
finite positive number. Exit codes: 0 success, 1 verification failure,
2 invalid input, with a message naming the flag or config field (a rule
on a value, such as each subcommand's n or the sign of ``simulate``'s
t_max and steps, is its field's converter; a rejected pair (p, q), like
``semi`` at an odd n, names both; still 2 when stderr cannot take the
message), 141 when the reader closes stdout early (``| head``), as for a
process that SIGPIPE ended.
``simulate`` writes its CSV row by row. Where ``os.fork`` exists, each
CPU formats one contiguous chunk of the rows: the process writes the
first straight to the sink, forked workers write the rest to temporary
files that it copies after them in order. No process holds the table as
text, and the bytes are those of a single writer.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import shutil
import sys
import tempfile
import warnings

import numpy as np

from .dynamics import SystemSpec, coupling_graph, lab_hamiltonian, simulate, verify_cpt
from .frames import MAX_N, build_w
from .tolerances import CPT_TOL, GRAPH_LABEL_TOL
from .triples import (
    MIN_C,
    enumerate_primitive_pairs,
    params_from_lab_couplings,
    params_from_pair,
    triple_from_pair,
)


class ConfigError(ValueError):
    pass


_REQUIRED = object()
_MAX_LEVELS = 2 ** MAX_N  # largest n that build_w serves
_MAX_TABLE_C = 10**7  # largest triples --max-c: 1,591,579 pairs, about 0.5 GB at peak


def _flag(field: str) -> str:
    return "--" + field.replace("_", "-")


def _real(value, source: str, positive: bool = False) -> float:
    """A finite number (positive if asked) from a string or a JSON number, else a ConfigError."""
    try:
        number = float(value) if type(value) in (str, int, float) else math.nan
    except (ValueError, OverflowError):
        number = math.nan
    if not (math.isfinite(number) and (number > 0.0 or not positive)):
        kind = "finite positive" if positive else "finite"
        raise ConfigError(f"{source} must be a {kind} number, got {value!r}")
    return number


def _max_c(value, source: str) -> float:
    """A hypotenuse bound from MIN_C to _MAX_TABLE_C (triples sorts its table in memory), else a ConfigError."""
    bound = _real(value, source)
    if bound < MIN_C:
        raise ConfigError(f"{source} must be >= {MIN_C}, got {value!r}")
    if bound > _MAX_TABLE_C:
        raise ConfigError(f"{source} must be <= {_MAX_TABLE_C:.0e}: the table is held in memory, got {value!r}")
    return bound


def _positive_tol(value, source: str) -> float:
    """A certification tolerance: a finite positive number, else a ConfigError naming its source."""
    return _real(value, source, positive=True)


def _integer(value, source: str) -> int:
    """A JSON integer or an integer string (a flag); 4.9, true and [3] are rejected."""
    if type(value) is int:
        return value
    if isinstance(value, str):
        try:
            return int(value)
        except ValueError:
            pass
    raise ConfigError(f"{source} must be an integer, got {value!r}")


def _exactly(kind: type, description: str):
    """A converter that takes only values of this JSON type; a given flag switch is True."""

    def convert(value, source: str):
        if type(value) is not kind:
            raise ConfigError(f"{source} must be {description}, got {value!r}")
        return value

    return convert


_switch = _exactly(bool, "true or false")
_text = _exactly(str, "a string")


def _one_of(*choices: str):
    def convert(value, source: str) -> str:
        if value not in choices:
            raise ConfigError(f"{source} must be one of {', '.join(choices)}, got {value!r}")
        return value

    convert.metavar = "{" + ",".join(choices) + "}"  # shown in --help, as argparse choices are
    return convert


def _where(convert, allowed, rule: str):
    """``convert``, then a rule on the value: one that fails ``allowed`` is a ConfigError stating ``rule``."""

    def checked(value, source: str):
        number = convert(value, source)
        if not allowed(number):
            raise ConfigError(f"{source}: {rule}, got {number!r}")
        return number

    return checked


def _levels(allowed, rule: str):
    """A converter of one subcommand's n: an integer that satisfies ``allowed``, described by ``rule``."""
    return _where(_integer, allowed, f"n must be {rule}")


def _default_tol() -> float:
    raw = os.environ.get("PYTHCPT_TOL")
    return CPT_TOL if raw is None else _positive_tol(raw, "PYTHCPT_TOL")


# each subcommand's n (verify and simulate read the same lab frame), frame's N, and simulate's sign rules
_LAB_N = _levels(lambda n: n % 2 == 0 and 2 <= n <= _MAX_LEVELS, f"even with 2 <= n <= {_MAX_LEVELS}")
_GRAPH_N = _levels(
    lambda n: 2 <= n <= _MAX_LEVELS and not n & (n - 1), f"a power of two with 2 <= n <= {_MAX_LEVELS}"
)
_RETRO_N = _levels(lambda n: 2 <= n <= _MAX_LEVELS, f"2 <= n <= {_MAX_LEVELS}")
_FRAME_N = _where(_integer, lambda N: 1 <= N <= MAX_N, f"N must be in 1..{MAX_N}")
_T_MAX = _where(_real, lambda t: t >= 0, "t_max must be non-negative")
_STEPS = _where(_integer, lambda steps: steps >= 0, "steps must be non-negative")

# {subcommand: (help, {field: (converter, default[, help])})}; a callable default is evaluated per run.
_PQK = {"p": (_integer, _REQUIRED), "q": (_integer, _REQUIRED), "k": (_real, 0.0)}
_TOL = {"tol": (_positive_tol, _default_tol)}
_FIELDS = {
    "triples": (
        "enumerate primitive generating pairs",
        {"max_c": (_max_c, _REQUIRED), "signs": (_switch, False)},
    ),
    "frame": (
        "entangled frame labels and matrix",
        {"N": (_FRAME_N, _REQUIRED), "matrix": (_switch, False)},
    ),
    "simulate": (
        "lab-frame population traces as CSV",
        {**_PQK, "n": (_LAB_N, 4), "t_max": (_T_MAX, 2.0), "steps": (_STEPS, 400), "out": (_text, "-"),
         "absolute_time": (_switch, False)},
    ),
    "verify": ("transfer certificate as JSON", {**_PQK, "n": (_LAB_N, 4), **_TOL}),
    "graph": (
        "coupling graph as DOT or JSON",
        {**_PQK, "n": (_GRAPH_N, 4), "format": (_one_of("dot", "json"), "dot")},
    ),
    "retro": (
        "doubled-space transfer report as JSON",
        {**_PQK, "n": (_RETRO_N, 2), "variant": (_one_of("retrograde", "semi"), "retrograde"), **_TOL},
    ),
    "suite": (
        "run the verification battery",
        {
            "json": (_text, None, "also write the checks as JSON to this path; the file holds no "
                                  "timings, so it is byte-identical across runs"),
            **_TOL,
        },
    ),
}


def _merge_config(args: argparse.Namespace) -> dict:
    """Each field from its flag, else the config file, else its default; ``source`` names each given one."""
    fields = _FIELDS[args.command][1]
    file_values = {}
    if args.config:
        with open(args.config, encoding="utf-8") as fh:
            file_values = json.load(fh)
        if not isinstance(file_values, dict):
            raise ConfigError("config file must hold a JSON object")
        unknown = set(file_values) - set(fields)
        if unknown:
            raise ConfigError(f"unknown config field: {sorted(unknown)[0]}")
    merged = {"source": {}}
    for key, (convert, default, *_) in fields.items():
        default = default() if callable(default) else default
        if getattr(args, key) is not None:
            merged["source"][key] = _flag(key)
            merged[key] = convert(getattr(args, key), merged["source"][key])
        elif file_values.get(key) is not None:  # JSON null counts as absent
            merged["source"][key] = f"config field {key!r}"
            merged[key] = convert(file_values[key], merged["source"][key])
        elif default is _REQUIRED:
            raise ConfigError(f"missing required field: {key}")
        else:
            merged[key] = default
    return merged


def _spec(cfg: dict) -> SystemSpec:
    """The system of (p, q, k) at n; a pair (p, q) the library rejects is a ConfigError naming both sources."""
    try:
        params = params_from_pair(cfg["p"], cfg["q"], cfg["k"])
    except ValueError as exc:
        raise ConfigError(f"{cfg['source']['p']}, {cfg['source']['q']}: {exc}") from None
    return SystemSpec(n=cfg["n"], params=params)


def _print_json(payload: dict, file=None) -> None:
    print(json.dumps(payload, indent=2), file=file)


def _cmd_triples(cfg: dict) -> int:
    pairs = enumerate_primitive_pairs(cfg["max_c"])
    sign_combos = [(1, 1)]
    if cfg["signs"]:
        sign_combos = [(1, 1), (-1, 1), (1, -1), (-1, -1)]
    print(f"{'p':>4} {'q':>4} {'a':>7} {'b':>7} {'c':>7}  primitive")
    for pair in pairs:
        for sa, sb in sign_combos:
            t = triple_from_pair(pair, sa, sb)
            prim = "yes" if t.primitive else "no"
            print(f"{pair.p:>4} {pair.q:>4} {t.a:>7.0f} {t.b:>7.0f} {t.c:>7.0f}  {prim}")
    return 0


def _cmd_frame(cfg: dict) -> int:
    N = cfg["N"]
    frame = build_w(N)
    payload: dict = {"N": N, "n": frame.n, "labels": list(frame.labels)}
    if cfg["matrix"]:
        numerators = np.rint(frame.W * np.sqrt(2.0 ** N)).astype(int)
        payload["numerators"] = numerators.tolist()
        payload["denominator_squared"] = 2 ** N
    _print_json(payload)
    return 0


# Fewest values that a forked worker formats. On a 2-CPU Xeon host, fork, exit and wait cost 4.4-6.0 ms in
# a process that has loaded numpy, the time of about 4,300 values at 1.4 us each; 10,000 values keep each
# worker's formatting at least twice its start-up cost.
_MIN_WORKER_VALUES = 10_000
# os.fork on Python >= 3.12 warns in a process with other threads (a multi-threaded BLAS), whose locks a
# child would inherit; a worker runs only repr and writes to its own file, so it takes none of them.
_FORK_THREADS_WARNING = r"This process \(pid=\d+\) is multi-threaded, use of fork\(\)"


def _write_rows(sink, times: list[float], populations: np.ndarray) -> None:
    """One CSV line per time: ``repr`` of each float, which round-trips."""
    for t, pops in zip(times, populations):
        sink.write(",".join(map(repr, [t, *pops.tolist()])) + "\n")


def _fork_rows(times: list[float], populations: np.ndarray):
    """A forked child that writes these rows to an unlinked temporary file; returns (pid, file)."""
    chunk = tempfile.TemporaryFile("w+", encoding="utf-8")
    parent = os.getpid()
    try:
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", _FORK_THREADS_WARNING, DeprecationWarning)
            pid = os.fork()
        if pid == 0:
            _write_rows(chunk, times, populations)
            chunk.flush()
            os._exit(0)
    except BaseException:
        if os.getpid() != parent:  # the child leaves here, however it fails: no caller's code runs in it
            os._exit(1)
        chunk.close()
        raise
    return pid, chunk


def _write_table(sink, times: np.ndarray, populations: np.ndarray) -> None:
    """Write the rows in order, formatted in one contiguous chunk per CPU.

    The formatting (``repr`` of every float) is the cost of a large table, so
    chunks 1..k-1 go to forked children, each writing to its own temporary
    file, while this process writes chunk 0 to the sink; the files are then
    copied in order. No process holds the table as text, and the bytes are
    those of one process writing every row.
    """
    rows = len(times)
    workers = (os.cpu_count() or 1) if hasattr(os, "fork") else 1
    k = max(1, min(workers, rows * (1 + populations.shape[1]) // _MIN_WORKER_VALUES))
    bounds = [rows * i // k for i in range(k + 1)]
    times = times.tolist()
    children = []  # (pid, file) not yet reaped
    try:
        for lo, hi in zip(bounds[1:-1], bounds[2:]):
            children.append(_fork_rows(times[lo:hi], populations[lo:hi]))
        _write_rows(sink, times[: bounds[1]], populations[: bounds[1]])
        while children:
            pid, chunk = children[0]
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            del children[0]
            with chunk:
                if code != 0:
                    raise OSError(f"a worker formatting the CSV rows exited with code {code}")
                chunk.seek(0)
                shutil.copyfileobj(chunk, sink)
    finally:
        for pid, chunk in children:  # an error left these running: stop and reap each
            import signal  # not at the top: importing it would cost every command about 1.4 ms
            chunk.close()
            with contextlib.suppress(ProcessLookupError, ChildProcessError):  # reaped as the error came
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)


def _cmd_simulate(cfg: dict) -> int:
    spec = _spec(cfg)
    try:
        result = simulate(spec, cfg["t_max"], cfg["steps"])
    except MemoryError as exc:  # numpy refuses a table larger than the machine can map
        source = cfg["source"].get("steps", "steps")  # the flag or the config field it came from
        raise ConfigError(f"{source} {cfg['steps']} needs more memory than can be allocated: {exc}") from None
    except ValueError as exc:  # the converters hold the sign rules, so this is a phase that a large t_max overflows
        raise ConfigError(f"{cfg['source'].get('t_max', 't_max')} {cfg['t_max']!r} (in units of tau): {exc}") from None
    times = result.times * spec.params.tau if cfg["absolute_time"] else result.times
    header = ("t" if cfg["absolute_time"] else "t_over_tau") + "," + ",".join(
        f"pop_{i + 1}" for i in range(result.populations.shape[1])
    )
    out = cfg["out"]
    with (open(out, "w", encoding="utf-8") if out != "-" else contextlib.nullcontext(sys.stdout)) as sink:
        sink.write(header + "\n")
        sink.flush()  # out before any fork, so no worker inherits unwritten bytes
        _write_table(sink, times, result.populations)
    return 0


def _cmd_verify(cfg: dict) -> int:
    cert = verify_cpt(_spec(cfg), tol=cfg["tol"])
    # the transfer amplitude is (-1)^((p+q)/2) at every even n
    _print_json({**cert.as_json(), "phase_error": abs(cert.phase - (-1) ** ((cfg["p"] + cfg["q"]) // 2))})
    return 0 if cert.passed else 1


_SYMBOLIC_NAMES = ("V12", "V23", "V34", "V14")


def _symbolic_basis(n: int) -> list[np.ndarray]:
    """Lab-frame Hamiltonians for unit values of each nearest-neighbour coupling."""
    units = np.eye(len(_SYMBOLIC_NAMES)).tolist()
    return [lab_hamiltonian(SystemSpec(n=n, params=params_from_lab_couplings(v, tau=1.0))) for v in units]


def _coeff_str(c: float) -> str | None:
    for value, text in ((1.0, ""), (-1.0, "-"), (2.0, "2"), (-2.0, "-2")):
        if abs(c - value) < GRAPH_LABEL_TOL:
            return text
    s3 = np.sqrt(3.0)
    for value, text in ((s3, "sqrt(3)"), (-s3, "-sqrt(3)")):
        if abs(c - value) < GRAPH_LABEL_TOL:
            return text
    return None


def _symbolic_label(i: int, j: int, basis: list[np.ndarray]) -> str:
    terms = []
    for name, mat in zip(_SYMBOLIC_NAMES, basis):
        c = float(mat[i - 1, j - 1])
        if abs(c) < GRAPH_LABEL_TOL:
            continue
        prefix = _coeff_str(c)
        terms.append(f"{prefix}{name}" if prefix is not None else f"{c:.6g}{name}")
    return "+".join(terms).replace("+-", "-") if terms else "0"


def _cmd_graph(cfg: dict) -> int:
    n = cfg["n"]
    graph = coupling_graph(lab_hamiltonian(_spec(cfg)))
    symbolic = _symbolic_basis(n) if n in (2, 4) else None
    edges = []
    for i, j, weight in graph.edges:
        label = _symbolic_label(i, j, symbolic) if symbolic else repr(weight)
        edges.append({"i": i, "j": j, "weight": weight, "label": label})
    if cfg["format"] == "json":
        _print_json(
            {
                "n": n,
                "edges": edges,
                "diagonal": [float(x) for x in graph.diagonal],
            }
        )
        return 0
    lines = ["graph couplings {"]
    for idx in range(n * n):
        lines.append(f'  s{idx + 1} [label="|{idx + 1}>"];')
    for e in edges:
        lines.append(f'  s{e["i"]} -- s{e["j"]} [label="{e["label"]}"];')
    lines.append("}")
    print("\n".join(lines))
    return 0


def _cmd_retro(cfg: dict) -> int:
    from .retrograde import basic_cpts, check_equivalence, pythagorean_pulse  # here, so no other command compiles it

    p, q, k, n, tol = cfg["p"], cfg["q"], cfg["k"], cfg["n"], cfg["tol"]
    _spec(cfg)  # the reports below build their pulse from the same (p, q, k)
    if cfg["variant"] == "semi":
        if n % 2:
            raise ConfigError(f"{cfg['source']['variant']}, {cfg['source']['n']}: variant semi needs an even n, "
                              f"got {n}: odd n has only the retrograde report")
        report = check_equivalence(pythagorean_pulse(p, q, k, n=n), np.eye(n), variant="semi", tol=tol)
    else:  # basic_cpts measures the equivalence against Y on its one half step
        report = basic_cpts(n, p, q, k, tol)
    _print_json({"n": n, "variant": cfg["variant"], **report.as_json()})
    return 0 if report.passed else 1


def _cmd_suite(cfg: dict) -> int:
    from .suite import run_suite  # here, so no other command compiles it

    report = run_suite(tol=cfg["tol"])
    width = max(len(r.name) for r in report.results)
    for r in report.results:
        status = "PASS" if r.passed else "FAIL"
        print(f"{r.name:<{width}}  {status}  {r.elapsed:7.3f}s  {r.detail}")
    summary = "all checks passed" if report.all_passed else (
        f"{len(report.failures())} check(s) failed: "
        + ", ".join(r.name for r in report.failures())
    )
    print(summary)
    if cfg["json"]:
        with open(cfg["json"], "w", encoding="utf-8") as fh:
            _print_json(report.as_json(), fh)
    return 0 if report.all_passed else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pythcpt",
        description="Pythagorean-coupled multi-level systems and entangled-state transfer",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, fields) in _FIELDS.items():
        p = sub.add_parser(name, help=help_text)
        for key, (convert, _, *doc) in fields.items():
            if convert is _switch:
                p.add_argument(_flag(key), dest=key, action="store_true", default=None)
            else:
                metavar = getattr(convert, "metavar", None)
                p.add_argument(_flag(key), dest=key, metavar=metavar, help=doc[0] if doc else None)
        p.add_argument("--config", help="JSON file mirroring this subcommand's flags")
        # looked up per call, so a wrapper installed on the module after import is used
        p.set_defaults(func=globals()[f"_cmd_{name}"])
    return parser


def _attach_dash_values(argv: list[str]) -> list[str]:
    """``--flag value`` as ``--flag=value`` where the value starts with a dash and is not a flag.

    argparse reads such a token as a value only if it looks like a plain
    negative number: ``-0.001``, not ``-1e-3`` (how ``repr`` writes small
    negative floats) or ``-inf``. Attached, it reaches the field's converter.
    """
    fields = _FIELDS[argv[0]][1] if argv and argv[0] in _FIELDS else {}
    valued = {_flag(key) for key, (convert, *_) in fields.items() if convert is not _switch} | {"--config"}
    flags = valued | {_flag(key) for key in fields} | {"-h", "--help"}
    attached = argv[:1]
    for token in argv[1:]:
        if attached[-1] in valued and token.startswith("-") and token not in flags:
            attached[-1] += "=" + token
        else:
            attached.append(token)
    return attached


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(_attach_dash_values(sys.argv[1:] if argv is None else list(argv)))
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        code = args.func(_merge_config(args))
        sys.stdout.flush()  # a reader that left shows here, not in the interpreter's exit flush
        return code
    except BrokenPipeError:
        # a closed reader is not invalid input; devnull keeps the exit flush of what is left silent
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 141
    except (ConfigError, ValueError, OSError) as exc:
        with contextlib.suppress(OSError):  # an unwritable stderr leaves the exit code of invalid input alone
            print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
