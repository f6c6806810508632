"""Layer-boundary spans recorded from outside the library.

The benchmark wraps the public functions of the eight pythcpt layers
(``triples``, ``su2``, ``linalg``, ``frames``, ``dynamics``,
``retrograde``, ``suite``, ``cli``) in every module namespace that binds
them: ``from .linalg import matexp_unitary`` copies the binding into
``su2``, ``dynamics`` and ``retrograde``, so patching ``linalg`` alone
would miss most calls. Spans stay in memory and are written out as JSON
lines when the run ends. Nothing here changes what the library computes.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import statistics
import sys
import time
from collections import defaultdict

LAYERS = ("triples", "su2", "linalg", "frames", "dynamics", "retrograde", "suite", "cli")


def _dim_key(arg) -> int:
    """Argument key for spin_generators, y_matrix and build_w: the dimension."""
    return arg if isinstance(arg, int) else int(arg.n)


# name -> (key of the arguments before the call, fields taken from the result)
_NOTES = {
    "su2.spin_generators": (lambda a, kw: {"key": _dim_key(a[0])}, None),
    "su2.y_matrix": (lambda a, kw: {"key": _dim_key(a[0])}, None),
    "frames.build_w": (lambda a, kw: {"key": _dim_key(a[0])}, None),
    "linalg.matexp_unitary": (lambda a, kw: {"dim": int(len(a[0]))}, None),
    "dynamics.simulate": (None, lambda r: {"points": int(r.populations.shape[0])}),
    "dynamics.verify_cpt": (None, lambda r: {"fidelity": r.fidelity, "passed": r.passed}),
    "suite": (lambda a, kw: {"check": a[1]}, None),
}


class Recorder:
    """Collects spans for one process; ``item`` tags the spans of the current op."""

    def __init__(self, workload: str):
        self.workload = workload
        self.item: str | None = None
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn, name_of=None):
        before, after = _NOTES.get(name, (None, None))
        rec = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = {
                "id": len(rec.spans),
                "name": name_of(args) if name_of else name,
                "parent": rec._stack[-1] if rec._stack else None,
                "workload": rec.workload,
                "item": rec.item,
            }
            if before is not None:
                span.update(before(args, kwargs))
            rec.spans.append(span)
            rec._stack.append(span["id"])
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception:
                span["error"] = True
                raise
            finally:
                span["end"] = time.perf_counter()
                rec._stack.pop()
            if after is not None:
                span.update(after(result))
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every layer function in every pythcpt namespace that binds it."""
        wrappers = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"pythcpt.{layer}")
            for attr, obj in vars(mod).items():
                if not inspect.isfunction(obj) or obj.__module__ != mod.__name__:
                    continue
                if layer == "cli" and attr.startswith("_cmd_"):
                    wrappers[obj] = self._wrap(f"cli.{attr[5:]}", obj)
                elif layer == "suite" and attr == "_timed":
                    wrappers[obj] = self._wrap("suite", obj, name_of=lambda a: f"suite.{a[1]}")
                elif not attr.startswith("_"):
                    wrappers[obj] = self._wrap(f"{layer}.{attr}", obj)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name == "pythcpt" or mod_name.startswith("pythcpt."):
                for attr, obj in list(vars(mod).items()):
                    if inspect.isfunction(obj) and obj in wrappers:
                        setattr(mod, attr, wrappers[obj])
                        self._patched.append((mod, attr, obj))
        cls = importlib.import_module("pythcpt.retrograde").RetrogradeSystem
        original = cls.__post_init__
        cls.__post_init__ = self._wrap("retrograde.RetrogradeSystem.build", original)
        self._patched.append((cls, "__post_init__", original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def load(path: str, offset: int, extra_fields: dict) -> list[dict]:
    """Read spans written by another process, renumbered from ``offset``."""
    spans = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            span = json.loads(line)
            span["id"] += offset
            if span["parent"] is not None:
                span["parent"] += offset
            span.update(extra_fields)
            spans.append(span)
    return spans


def summarize(spans: list[dict]) -> dict[str, float]:
    """Per-function and per-layer totals for the spans of one pass.

    ``busy_s`` is inclusive wall time, ``self_s`` subtracts the direct
    wrapped children, ``repeat_ratio`` is the share of calls whose key
    was already seen in the same process (``scope``) earlier in the pass.
    """
    child = defaultdict(float)
    for s in spans:
        if s["parent"] is not None:
            child[s["parent"]] += s["end"] - s["start"]
    out: dict[str, float] = defaultdict(float)
    seen: dict[tuple, set] = defaultdict(set)
    for s in spans:
        name = s["name"]
        busy = s["end"] - s["start"]
        self_s = busy - child[s["id"]]
        out[f"{name}.calls"] += 1
        out[f"{name}.busy_s"] += busy
        out[f"{name}.self_s"] += self_s
        out[f"{name.split('.')[0]}.self_s"] += self_s
        if s.get("error") or s.get("passed") is False:
            out[f"{name}.failed"] += 1
        if "dim" in s:
            out[f"{name}.max_dim"] = max(out[f"{name}.max_dim"], s["dim"])
            out[f"{name}.work_d3"] += s["dim"] ** 3
        if "points" in s:
            out[f"{name}.points"] += s["points"]
        if "fidelity" in s:
            out[f"{name}.max_infidelity"] = max(out[f"{name}.max_infidelity"], 1.0 - s["fidelity"])
        if "key" in s:
            bucket = seen[(s.get("scope"), name)]
            out[f"{name}.repeats"] += s["key"] in bucket
            bucket.add(s["key"])
    for name in [k[: -len(".repeats")] for k in out if k.endswith(".repeats")]:
        out[f"{name}.repeat_ratio"] = out.pop(f"{name}.repeats") / out[f"{name}.calls"]
    return dict(out)


def median_summary(per_pass: list[dict[str, float]]) -> dict[str, float]:
    """Median of each metric over passes; a metric absent from a pass counts as 0."""
    names = set().union(*per_pass)
    return {n: statistics.median(p.get(n, 0.0) for p in per_pass) for n in sorted(names)}
