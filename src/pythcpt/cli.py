"""Command-line interface.

Subcommands: ``triples`` (enumerate generating pairs), ``frame``
(entangled-frame labels/matrix), ``simulate`` (population traces as
CSV), ``verify`` (transfer certificate as JSON), ``graph`` (coupling
graph as DOT or JSON), ``retro`` (doubled-space reports), ``suite``
(the full verification battery).

Each subcommand's fields are declared once, in ``_FIELDS``: field
``x`` is the flag ``--x`` (underscores written as dashes) and the
config key ``x``. Every subcommand accepts ``--config FILE`` with a
JSON object of those keys; explicit flags win over file values, file
values over defaults, and unknown keys are rejected. One converter per
field reads a flag string and a config value alike, so config values
take the field's JSON type: integers (or integer strings) for integer
fields, numbers for real fields, ``true``/``false`` for switches, and
one of the listed strings for ``format`` and ``variant``; JSON null
counts as an absent key. NaN and infinite numbers are rejected. The
environment variable ``PYTHCPT_TOL`` overrides the default
certification tolerance (1e-9); a tolerance from any source must be a
finite positive number. Exit codes: 0 success, 1 verification failure,
2 invalid input, with a message naming the flag or config field.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from .dynamics import CPT_TOL, SystemSpec, coupling_graph, lab_hamiltonian, simulate_lab, verify_cpt
from .frames import MAX_N, build_w
from .retrograde import basic_cpts, check_equivalence, odd_dim_demo, pythagorean_pulse
from .su2 import y_matrix
from .suite import run_suite
from .triples import (
    MIN_C,
    CouplingParams,
    enumerate_primitive_pairs,
    params_from_pair,
    triple_from_pair,
)


class ConfigError(ValueError):
    pass


_REQUIRED = object()
_MAX_LEVELS = 2 ** MAX_N  # largest n that build_w serves


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
    """A hypotenuse bound: a finite number >= MIN_C, else a ConfigError naming its source."""
    bound = _real(value, source)
    if bound < MIN_C:
        raise ConfigError(f"{source} must be >= {MIN_C}, got {value!r}")
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


def _default_tol() -> float:
    raw = os.environ.get("PYTHCPT_TOL")
    return CPT_TOL if raw is None else _positive_tol(raw, "PYTHCPT_TOL")


# {subcommand: (help, {field: (converter, default[, help])})}; a callable default is evaluated per run.
_PQKN = {"p": (_integer, _REQUIRED), "q": (_integer, _REQUIRED), "k": (_real, 0.0), "n": (_integer, 4)}
_TOL = {"tol": (_positive_tol, _default_tol)}
_FIELDS = {
    "triples": (
        "enumerate primitive generating pairs",
        {"max_c": (_max_c, _REQUIRED), "signs": (_switch, False)},
    ),
    "frame": (
        "entangled frame labels and matrix",
        {"N": (_integer, _REQUIRED), "matrix": (_switch, False)},
    ),
    "simulate": (
        "lab-frame population traces as CSV",
        {**_PQKN, "t_max": (_real, 2.0), "steps": (_integer, 400), "out": (_text, "-"),
         "absolute_time": (_switch, False)},
    ),
    "verify": ("transfer certificate as JSON", {**_PQKN, **_TOL}),
    "graph": ("coupling graph as DOT or JSON", {**_PQKN, "format": (_one_of("dot", "json"), "dot")}),
    "retro": (
        "doubled-space transfer report as JSON",
        {**_PQKN, "n": (_integer, 2), "variant": (_one_of("retrograde", "semi"), "retrograde"), **_TOL},
    ),
    "suite": (
        "run the verification battery",
        {
            "n": (_integer, None),
            "json": (_text, None, "also write the checks as JSON to this path; the file holds no "
                                  "timings, so it is byte-identical across runs"),
            **_TOL,
        },
    ),
}


def _merge_config(args: argparse.Namespace) -> dict:
    """Each field from its flag, else the config file, else its default; given values converted."""
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
    merged = {}
    for key, (convert, default, *_) in fields.items():
        default = default() if callable(default) else default
        if getattr(args, key) is not None:
            merged[key] = convert(getattr(args, key), _flag(key))
        elif file_values.get(key) is not None:  # JSON null counts as absent
            merged[key] = convert(file_values[key], f"config field {key!r}")
        elif default is _REQUIRED:
            raise ConfigError(f"missing required field: {key}")
        else:
            merged[key] = default
    return merged


def _print_json(payload: dict, stream=None) -> None:
    print(json.dumps(payload, indent=2), file=stream or sys.stdout)


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


def _cmd_simulate(cfg: dict) -> int:
    n = cfg["n"]
    if n % 2 or not 2 <= n <= _MAX_LEVELS:
        raise ConfigError(f"n must be even with 2 <= n <= {_MAX_LEVELS}, got {n}")
    spec = SystemSpec(n=n, params=params_from_pair(cfg["p"], cfg["q"], cfg["k"]))
    result = simulate_lab(spec, cfg["t_max"], cfg["steps"])
    times = result.times * spec.params.tau if cfg["absolute_time"] else result.times
    unit = "absolute" if cfg["absolute_time"] else "tau"
    header = ("t" if unit == "absolute" else "t_over_tau") + "," + ",".join(
        f"pop_{i + 1}" for i in range(result.populations.shape[1])
    )
    # repr of Python floats round-trips; converting one row at a time keeps the peak memory low
    rows = (",".join(map(repr, [t, *pops.tolist()])) for t, pops in zip(times.tolist(), result.populations))
    text = "\n".join([header, *rows]) + "\n"
    if cfg["out"] == "-":
        sys.stdout.write(text)
    else:
        with open(cfg["out"], "w", encoding="utf-8") as fh:
            fh.write(text)
    return 0


def _cmd_verify(cfg: dict) -> int:
    if cfg["n"] > _MAX_LEVELS:  # odd n and n < 2 keep the library's messages
        raise ConfigError(f"n must be <= {_MAX_LEVELS}, got {cfg['n']}")
    spec = SystemSpec(n=cfg["n"], params=params_from_pair(cfg["p"], cfg["q"], cfg["k"]))
    cert = verify_cpt(spec, tol=cfg["tol"])
    _print_json(
        {
            "fidelity": cert.fidelity,
            "target_index": cert.target_index,
            "tau": cert.tau,
            "pass": cert.passed,
        }
    )
    return 0 if cert.passed else 1


_SYMBOLIC_NAMES = ("V12", "V23", "V34", "V14")


def _symbolic_basis(n: int) -> list[np.ndarray]:
    """Lab-frame Hamiltonians for unit values of each nearest-neighbour coupling."""
    mats = []
    for name in _SYMBOLIC_NAMES:
        v = {key: (1.0 if key == name else 0.0) for key in _SYMBOLIC_NAMES}
        d1 = (v["V23"] + v["V14"]) / 2.0
        d2 = (v["V14"] - v["V23"]) / 2.0
        o1 = (v["V12"] - v["V34"]) / 2.0
        o2 = (v["V12"] + v["V34"]) / 2.0
        params = CouplingParams(d1, o1, d2, o2, tau=1.0)
        mats.append(lab_hamiltonian(SystemSpec(n=n, params=params)))
    return mats


def _coeff_str(c: float) -> str | None:
    for value, text in ((1.0, ""), (-1.0, "-"), (2.0, "2"), (-2.0, "-2")):
        if abs(c - value) < 1e-9:
            return text
    s3 = np.sqrt(3.0)
    for value, text in ((s3, "sqrt(3)"), (-s3, "-sqrt(3)")):
        if abs(c - value) < 1e-9:
            return text
    return None


def _symbolic_label(i: int, j: int, basis: list[np.ndarray]) -> str:
    terms = []
    for name, mat in zip(_SYMBOLIC_NAMES, basis):
        c = float(mat[i - 1, j - 1])
        if abs(c) < 1e-9:
            continue
        prefix = _coeff_str(c)
        terms.append(f"{prefix}{name}" if prefix is not None else f"{c:.6g}{name}")
    return "+".join(terms).replace("+-", "-") if terms else "0"


def _cmd_graph(cfg: dict) -> int:
    n = cfg["n"]
    if n < 2 or n & (n - 1) or n > _MAX_LEVELS:
        raise ConfigError(f"n must be a power of two with 2 <= n <= {_MAX_LEVELS}, got {n}")
    params = params_from_pair(cfg["p"], cfg["q"], cfg["k"])
    graph = coupling_graph(lab_hamiltonian(SystemSpec(n=n, params=params)))
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
    p, q, k, n, tol = cfg["p"], cfg["q"], cfg["k"], cfg["n"], cfg["tol"]
    if n not in (2, 3, 4):
        raise ConfigError(f"n must be one of 2, 3, 4, got {n}")
    if n == 3:
        if cfg["variant"] == "semi":
            raise ConfigError("variant semi is not defined at n = 3: the odd-dimension demo is retrograde only")
        rep = odd_dim_demo(p, q, k)
        ok = rep.action_matches and rep.basic.orthogonality_residual <= tol
        _print_json(
            {
                "n": 3,
                "action_residual": rep.action_residual,
                "basic_transfer_orthogonality": rep.basic.orthogonality_residual,
                "vi_vy_overlap": rep.vi_vy_overlap,
                "complete_transfer": rep.is_cpt,
                "expected_non_cpt": True,
                "pass": ok,
            }
        )
        return 0 if ok else 1
    pulse = pythagorean_pulse(p, q, k, n=n)
    y = np.eye(n, dtype=complex) if cfg["variant"] == "semi" else y_matrix(n)
    equiv = check_equivalence(pulse, y, variant=cfg["variant"], tol=tol)
    payload = {
        "n": n,
        "variant": cfg["variant"],
        # the two sides of the equivalence, each measured
        "forward": equiv.propagator_matches,
        "backward": equiv.doubled_state_matches,
        "propagator_phase": [equiv.propagator_phase.real, equiv.propagator_phase.imag],
        "doubled_phase": [equiv.doubled_phase.real, equiv.doubled_phase.imag],
        "propagator_residual": equiv.propagator_residual,
        "doubled_state_residual": equiv.doubled_state_residual,
        "is_cpt": equiv.is_cpt,
    }
    ok = equiv.propagator_matches and equiv.doubled_state_matches
    if cfg["variant"] == "retrograde":
        report = basic_cpts(n, p, q, k)
        payload["pairwise_transfers"] = [
            {"index": r.index, "orthogonality_residual": r.orthogonality_residual, "ok": r.ok}
            for r in report.records
        ]
        payload["uniform_target_residual"] = report.uniform_target_residual
        payload["sign"] = [report.sign.real, report.sign.imag]
        ok = ok and report.all_ok
    payload["pass"] = ok
    _print_json(payload)
    return 0 if ok else 1


def _cmd_suite(cfg: dict) -> int:
    report = run_suite(n=cfg["n"], tol=cfg["tol"])
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
        # timings stay in the human-readable table only, so the JSON
        # artifact is byte-identical across runs
        payload = {
            "all_passed": report.all_passed,
            "checks": [
                {"name": r.name, "passed": r.passed, "detail": r.detail}
                for r in report.results
            ],
        }
        with open(cfg["json"], "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2)
            fh.write("\n")
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


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(_merge_config(args))
    except (ConfigError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
