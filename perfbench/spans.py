"""Spans and counters around the public functions of each qsysid layer.

:meth:`Tracer.install` replaces every public function of the layer modules
with a timing wrapper, in every ``qsysid`` module namespace that refers to
it, so calls between layers (``sample_response`` -> ``transfer_at``) are
seen as well as calls from the benchmark. :meth:`Tracer.uninstall` puts the
originals back. The package itself is never edited.

Each call records a span (id, name, start, end, parent id, op id) in memory
and adds to per-name counters: calls, self time (duration minus the time
covered by child spans), failures by exception class, RuntimeWarnings
raised while it was the innermost span, and a few result-derived counts
(fit iterations, recovered gauges, rank deficit).
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import sys
import time
import types
import warnings
from pathlib import Path

LAYERS = (
    "model",
    "probe",
    "realization",
    "analysis",
    "identifiability",
    "network",
    "serialize",
    "cli",
)
SPAN_CAP = 20000
OP_SPAN = "bench.op"


def _fit_iterations(stat: dict, args, kwargs, result) -> None:
    stat["iterations"] = stat.get("iterations", 0) + int(result.iterations)


def _gauge_recovered(stat: dict, args, kwargs, result) -> None:
    stat["recovered"] = stat.get("recovered", 0) + int(result.gauge is not None)


def _rank_deficit(stat: dict, args, kwargs, result) -> None:
    # every system the benchmark hands to structure_report is minimal by
    # construction, so n - rank is the rank the test failed to see
    system = args[0] if args else kwargs["sys"]
    stat["rank_deficit"] = stat.get("rank_deficit", 0) + system.n - int(result.ctrb_rank)


RESULT_HOOKS = {
    "probe.fit_rational": _fit_iterations,
    "identifiability.find_gauge": _gauge_recovered,
    "analysis.structure_report": _rank_deficit,
}


class Tracer:
    """In-memory span recorder; one per traced process."""

    def __init__(self, span_cap: int = SPAN_CAP):
        self.stats: dict[str, dict] = {}
        self.spans: list[tuple] = []
        self.span_cap = span_cap
        self.dropped = 0
        self.op_id = -1
        self._stack: list[list] = []  # [child seconds, span id, name]
        self._next_id = 0
        self._patches: list[tuple] = []
        self._warnings = None

    def stat(self, name: str) -> dict:
        entry = self.stats.get(name)
        if entry is None:
            entry = self.stats[name] = {"calls": 0, "self_s": 0.0, "fail": 0}
        return entry

    def _enter(self, name: str) -> list:
        frame = [0.0, self._next_id, name]
        self._next_id += 1
        self._stack.append(frame)
        return frame

    def _exit(self, frame: list, t0: float, t1: float) -> float:
        self._stack.pop()
        dur = t1 - t0
        stack = self._stack
        parent = stack[-1] if stack else None
        if parent is not None:
            parent[0] += dur
        if len(self.spans) < self.span_cap:
            self.spans.append(
                (frame[1], frame[2], t0, t1, parent[1] if parent else -1, self.op_id)
            )
        else:
            self.dropped += 1
        return dur - frame[0]

    def wrap(self, name: str, fn):
        stat = self.stat(name)
        hook = RESULT_HOOKS.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = self._enter(name)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                stat["fail"] += 1
                key = "fail." + type(exc).__name__
                stat[key] = stat.get(key, 0) + 1
                raise
            finally:
                t1 = clock()
                stat["calls"] += 1
                stat["self_s"] += self._exit(frame, t0, t1)
            if hook is not None:
                try:
                    hook(stat, args, kwargs, result)
                except (AttributeError, KeyError, TypeError, ValueError, IndexError):
                    pass  # the field a hook reads may not exist in every version
            return result

        return wrapper

    def run_op(self, op_id: int, fn, *args):
        """Call ``fn(*args)`` inside a benchmark-level op span."""
        self.op_id = op_id
        frame = self._enter(OP_SPAN)
        stat = self.stat(OP_SPAN)
        t0 = time.perf_counter()
        try:
            return fn(*args)
        finally:
            t1 = time.perf_counter()
            stat["calls"] += 1
            stat["self_s"] += self._exit(frame, t0, t1)
            self.op_id = -1

    def _on_warning(self, message, category, filename, lineno, file=None, line=None):
        name = self._stack[-1][2] if self._stack else "bench.unattributed"
        stat = self.stat(name)
        stat["warnings"] = stat.get("warnings", 0) + 1

    def install(self, package: str = "qsysid") -> None:
        """Wrap every public function of the layer modules, wherever referenced."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        wrappers: dict[int, tuple] = {}
        for layer in LAYERS:
            try:
                mod = importlib.import_module(f"{package}.{layer}")
            except ImportError:
                continue  # a layer a later version drops reports 0 calls
            for attr, obj in vars(mod).items():
                if (
                    not attr.startswith("_")
                    and isinstance(obj, types.FunctionType)
                    and obj.__module__ == mod.__name__
                ):
                    wrappers[id(obj)] = (obj, self.wrap(f"{layer}.{attr}", obj))
        for modname, mod in list(sys.modules.items()):
            if modname != package and not modname.startswith(package + "."):
                continue
            for attr, obj in list(vars(mod).items()):
                entry = wrappers.get(id(obj))
                if entry is not None and entry[0] is obj:
                    self._patches.append((mod, attr, obj))
                    setattr(mod, attr, entry[1])
        self._warnings = warnings.catch_warnings()
        self._warnings.__enter__()
        warnings.simplefilter("always", RuntimeWarning)
        warnings.showwarning = self._on_warning

    @contextlib.contextmanager
    def installed(self, package: str = "qsysid"):
        """Context in which the wrappers are in place."""
        self.install(package)
        try:
            yield self
        finally:
            self.uninstall()

    def uninstall(self) -> None:
        """Restore every original function and the warning filters."""
        for mod, attr, obj in reversed(self._patches):
            setattr(mod, attr, obj)
        self._patches.clear()
        if self._warnings is not None:
            self._warnings.__exit__(None, None, None)
            self._warnings = None

    def dump(self) -> dict:
        return {"stats": self.stats, "dropped_spans": self.dropped}


def write_spans(path: Path, spans) -> None:
    """Spans as JSON lines: id, name, start, end, parent id, op id."""
    with open(path, "w", encoding="utf-8") as fh:
        for span in spans:
            fh.write(json.dumps(span) + "\n")


def merge_stats(total: dict, part: dict) -> None:
    """Add the counters of ``part`` into ``total`` (both name -> counters)."""
    for name, counters in part.items():
        into = total.setdefault(name, {})
        for key, value in counters.items():
            into[key] = into.get(key, 0) + value
