"""Spans around walklab's public functions, recorded from outside.

`Tracer.install` replaces each traced function in every loaded walklab
module that binds it (for example `counter_steps` both in `walklab.rng`
and where `walklab.montecarlo` imported it), so calls made inside walklab
are seen as well as the benchmark's own.  walklab itself is not changed.
Spans live in memory and are written out when the run ends.
"""

from __future__ import annotations

import functools
import itertools
import json
import statistics
import sys
import threading
from collections import defaultdict
from dataclasses import dataclass
from time import perf_counter

from walklab import closedform


@dataclass(frozen=True)
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    thread: int
    work: dict

    @property
    def duration(self) -> float:
        return self.end - self.start


def _words(args, kwargs, result) -> dict:
    return {"words": int(result.size)}


def _ensemble(args, kwargs, result) -> dict:
    config, statistic = args[0], args[1]
    return {
        "replicas": config.replicas,
        "statistic": str(statistic),
        "p": config.params.p,
        "threads": kwargs.get("threads", args[2] if len(args) > 2 else 1),
    }


def _path_report(args, kwargs, result) -> dict:
    return {"steps": args[0].n}


def _enumerate(args, kwargs, result) -> dict:
    return {"paths": 2 ** args[1]}


def _dp_law(args, kwargs, result) -> dict:
    # sum over t = 1..n of (2t + 1) positions times the counter states
    n = args[1]
    counters = 1
    for fn in result.axes:
        counters *= fn.cap + 1
    return {"state_steps": n * (n + 2) * counters}


def _infinite_law(args, kwargs, result) -> dict:
    return {"horizon": result.horizon}


def _series(args, kwargs, result) -> dict:
    return {"terms": int(len(result))}


def traced_functions() -> list[tuple[str, str, object]]:
    """(module, function, work counter) for every traced function."""
    traced = [
        ("rng", "counter_steps", _words),
        ("rng", "counter_uniforms", _words),
        ("montecarlo", "ensemble", _ensemble),
        ("montecarlo", "path_report", _path_report),
        ("oracle", "enumerate_paths", _enumerate),
        ("oracle", "dp_law", _dp_law),
        ("oracle", "infinite_law", _infinite_law),
        ("genfunc", "series_coeffs", _series),
        ("boundary", "boundary_solve", None),
        ("boundary", "weight_limit", None),
    ]
    traced += [
        ("closedform", name, None)
        for name in closedform.__all__
        if callable(getattr(closedform, name))
        and not isinstance(getattr(closedform, name), type)
    ]
    return traced


class Tracer:
    """Thread-safe span recorder.

    A span's parent is the innermost open span of its own thread.  Worker
    threads (the ensemble's pool) have no open span of their own, so
    their spans take the main thread's innermost open span, the call
    that started the pool.
    """

    def __init__(self):
        self.spans: list[Span] = []
        self.recording = False
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._main = threading.main_thread().ident
        self._main_stack: list[int] = []
        self._local = threading.local()
        self._restore: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        if threading.get_ident() == self._main:
            return self._main_stack
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def wrap(self, name: str, fn, work):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.recording:
                return fn(*args, **kwargs)
            stack = self._stack()
            if stack:
                parent = stack[-1]
            else:
                parent = self._main_stack[-1] if self._main_stack else None
            with self._lock:
                span_id = next(self._ids)
            stack.append(span_id)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
            span = Span(
                span_id,
                name,
                start,
                end,
                parent,
                threading.get_ident(),
                work(args, kwargs, result) if work else {},
            )
            with self._lock:
                self.spans.append(span)
            return result

        return traced

    def install(self) -> None:
        modules = [
            m for key, m in list(sys.modules.items())
            if key == "walklab" or key.startswith("walklab.")
        ]
        for module_name, fn_name, work in traced_functions():
            original = getattr(sys.modules[f"walklab.{module_name}"], fn_name)
            wrapped = self.wrap(f"{module_name}.{fn_name}", original, work)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapped)
                        self._restore.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._restore):
            setattr(module, attr, original)
        self._restore.clear()

    def write(self, path, record: dict) -> None:
        with open(path, "w") as out:
            out.write(json.dumps({"run_record": record}) + "\n")
            for s in self.spans:
                out.write(
                    json.dumps(
                        {
                            "id": s.id,
                            "name": s.name,
                            "start": s.start,
                            "end": s.end,
                            "parent": s.parent,
                            "thread": s.thread,
                            **s.work,
                        }
                    )
                    + "\n"
                )


def _union(intervals) -> float:
    """Total length covered by a set of (start, end) intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Each span's duration minus the union of its children's intervals."""
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append(s)
    return {
        s.id: s.duration
        - _union((max(c.start, s.start), min(c.end, s.end)) for c in children[s.id])
        for s in spans
    }


# Per-layer metrics of the traced run, with their units.
LAYER_UNITS = {
    "rng.calls": "count",
    "rng.words": "count",
    "rng.words_per_call": "count",
    "rng.busy_s": "s",
    "rng.words_per_s": "1/s",
    "rng.share": "ratio",
    "montecarlo.ensemble.busy_s": "s",
    "montecarlo.ensemble.self_s": "s",
    "montecarlo.ensemble.words_per_replica": "count",
    "montecarlo.ensemble.speedup_2t": "ratio",
    "montecarlo.path_report.busy_s": "s",
    "montecarlo.path_report.self_s": "s",
    "montecarlo.path_report.p50_ms": "ms",
    "montecarlo.path_report.samples": "count",
    "montecarlo.path_report.words_per_step": "count",
    "oracle.enumerate_paths.busy_s": "s",
    "oracle.enumerate_paths.paths_per_s": "1/s",
    "oracle.dp_law.busy_s": "s",
    "oracle.dp_law.state_steps": "count",
    "oracle.dp_law.state_steps_per_s": "1/s",
    "oracle.infinite_law.busy_s": "s",
    "oracle.infinite_law.horizon": "count",
    "closedform.busy_s": "s",
    "genfunc.series_coeffs.terms": "count",
    "genfunc.series_coeffs.busy_s": "s",
    "boundary.boundary_solve.calls": "count",
    "boundary.solves_per_s": "1/s",
    "trace.overhead_s": "s",
}


def _ratio(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


def layer_metrics(
    spans: list[Span],
    rounds: int,
    cpu_s: float,
    overhead_s: float,
    speedup_2t: float,
) -> dict[str, float]:
    """Per-layer metrics from the spans of `rounds` traced rounds.

    Counts and seconds are per round.  A layer that does no work in the
    workload reports 0.  `cpu_s` is the process CPU time of those rounds,
    the base of rng.share; rng.busy_s adds up the threads' time.
    """
    by_id = {s.id: s for s in spans}
    own = self_times(spans)
    named = defaultdict(list)
    for s in spans:
        named[s.name].append(s)

    def under(span: Span, names: tuple[str, ...]) -> Span | None:
        parent = by_id.get(span.parent)
        while parent is not None:
            if parent.name in names:
                return parent
            parent = by_id.get(parent.parent)
        return None

    # top-level RNG calls: counter_uniforms inside counter_steps is not a new call
    rng = [
        s for s in spans
        if s.name.startswith("rng.") and under(s, ("rng.counter_steps",)) is None
    ]
    rng_words = sum(s.work["words"] for s in rng)
    rng_busy = sum(s.duration for s in rng)
    words_under = defaultdict(int)
    for s in rng:
        owner = under(s, ("montecarlo.ensemble", "montecarlo.path_report"))
        if owner is not None:
            words_under[owner.name] += s.work["words"]

    def busy(name: str) -> float:
        return sum(s.duration for s in named[name])

    def total(name: str, key: str) -> float:
        return sum(s.work[key] for s in named[name])

    ens, paths = "montecarlo.ensemble", "montecarlo.path_report"
    closed = [(s.start, s.end) for s in spans if s.name.startswith("closedform.")]
    path_ms = [s.duration * 1e3 for s in named[paths]]
    return {
        "rng.calls": len(rng) / rounds,
        "rng.words": rng_words / rounds,
        "rng.words_per_call": _ratio(rng_words, len(rng)),
        "rng.busy_s": rng_busy / rounds,
        "rng.words_per_s": _ratio(rng_words, rng_busy),
        "rng.share": _ratio(rng_busy, cpu_s),
        f"{ens}.busy_s": busy(ens) / rounds,
        f"{ens}.self_s": sum(own[s.id] for s in named[ens]) / rounds,
        f"{ens}.words_per_replica": _ratio(words_under[ens], total(ens, "replicas")),
        f"{ens}.speedup_2t": speedup_2t,
        f"{paths}.busy_s": busy(paths) / rounds,
        f"{paths}.self_s": sum(own[s.id] for s in named[paths]) / rounds,
        f"{paths}.p50_ms": statistics.median(path_ms) if path_ms else 0.0,
        f"{paths}.samples": len(path_ms),
        f"{paths}.words_per_step": _ratio(words_under[paths], total(paths, "steps")),
        "oracle.enumerate_paths.busy_s": busy("oracle.enumerate_paths") / rounds,
        "oracle.enumerate_paths.paths_per_s": _ratio(
            total("oracle.enumerate_paths", "paths"), busy("oracle.enumerate_paths")
        ),
        "oracle.dp_law.busy_s": busy("oracle.dp_law") / rounds,
        "oracle.dp_law.state_steps": total("oracle.dp_law", "state_steps") / rounds,
        "oracle.dp_law.state_steps_per_s": _ratio(
            total("oracle.dp_law", "state_steps"), busy("oracle.dp_law")
        ),
        "oracle.infinite_law.busy_s": busy("oracle.infinite_law") / rounds,
        "oracle.infinite_law.horizon": max(
            (s.work["horizon"] for s in named["oracle.infinite_law"]), default=0
        ),
        "closedform.busy_s": _union(closed) / rounds,
        "genfunc.series_coeffs.terms": total("genfunc.series_coeffs", "terms") / rounds,
        "genfunc.series_coeffs.busy_s": busy("genfunc.series_coeffs") / rounds,
        "boundary.boundary_solve.calls": len(named["boundary.boundary_solve"]) / rounds,
        "boundary.solves_per_s": _ratio(
            len(named["boundary.boundary_solve"]), busy("boundary.boundary_solve")
        ),
        "trace.overhead_s": overhead_s,
    }
