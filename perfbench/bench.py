"""Run a workload in rounds, time its calls and check their outputs.

A round runs every call of the workload once, on inputs drawn for that
round.  Rounds repeat for as long as they fit in the run's time, so each
call gets several timings and the run reports medians.  Every round's
outputs are checked.  In a traced run the rounds alternate untraced and
traced, and the difference between the two is the tracing overhead.
"""

from __future__ import annotations

import statistics
import sys
import traceback
from dataclasses import dataclass, field
from time import perf_counter, process_time
from typing import Callable

from checks import Checks
from tracing import Tracer, layer_metrics
from workloads import Workload

# The metrics of an untraced run, with their units.
END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}


@dataclass
class Measurement:
    workload: Workload  # round 0's; every round has the same calls
    checks: Checks = field(default_factory=Checks)
    # per round: call label -> seconds, and whether the round was traced
    rounds: list[dict[str, float]] = field(default_factory=list)
    traced: list[bool] = field(default_factory=list)
    traced_cpu_s: float = 0.0

    def call_medians(self, traced: bool = False) -> dict[str, float]:
        """Median seconds of each call over the untraced (or traced) rounds."""
        times: dict[str, list[float]] = {}
        for round_times, was_traced in zip(self.rounds, self.traced):
            if was_traced == traced:
                for label, seconds in round_times.items():
                    times.setdefault(label, []).append(seconds)
        return {label: statistics.median(ts) for label, ts in times.items()}


def _timed(call, tracer: Tracer | None):
    """(output, wall seconds, CPU seconds) of one call."""
    if tracer is not None:
        tracer.recording = True
    cpu_start, start = process_time(), perf_counter()
    try:
        out = call.fn()
    finally:
        elapsed, cpu = perf_counter() - start, process_time() - cpu_start
        if tracer is not None:
            tracer.recording = False
    return out, elapsed, cpu


def _run_round(workload: Workload, m: Measurement, tracer: Tracer | None) -> None:
    times, kept = {}, {}
    for call in workload.calls:
        try:
            out, times[call.label], cpu = _timed(call, tracer)
            call.check(out, m.checks)
        except Exception as exc:  # a raising call or check is a failed check, not a crash
            traceback.print_exc(file=sys.stderr)
            m.checks.expect(call.label, False, f"raised {exc!r}")
            continue
        if tracer is not None:
            m.traced_cpu_s += cpu
        if workload.serial_pair and call.label in workload.serial_pair:
            kept[call.label] = out.to_dict()
    if workload.serial_pair:
        serial, parallel = workload.serial_pair
        same = serial in kept and kept[serial] == kept.get(parallel)
        m.checks.expect(f"{serial} == {parallel}", same, "outputs differ")
    m.rounds.append(times)
    m.traced.append(tracer is not None)


def measure(
    build: Callable[[int], Workload], seconds: float, tracer: Tracer | None = None
) -> Measurement:
    """Run rounds build(0), build(1), ... while the next one fits in
    `seconds` (at least one, or two when traced)."""
    start = perf_counter()
    m = Measurement(build(0))
    round_s = []
    while True:
        index = len(m.rounds)
        round_start = perf_counter()
        workload = m.workload if index == 0 else build(index)
        traced = tracer is not None and index % 2 == 1
        _run_round(workload, m, tracer if traced else None)
        round_s.append(perf_counter() - round_start)
        enough = index >= 1 if tracer is not None else True
        if enough and perf_counter() - start + statistics.median(round_s) > seconds:
            return m


def wall_s(m: Measurement, traced: bool = False) -> float:
    """Sum over the workload's calls of each call's median time."""
    return sum(m.call_medians(traced).values())


def _rate(m: Measurement, work: str) -> float:
    medians = m.call_medians()
    calls = [c for c in m.workload.calls if getattr(c, work) and c.label in medians]
    busy = sum(medians[c.label] for c in calls)
    return sum(getattr(c, work) for c in calls) / busy if busy > 0 else 0.0


def workload_rates(m: Measurement) -> dict[str, float]:
    """replicas_per_s and steps_per_s over the calls that count them
    (0 on workloads without such calls)."""
    return {"replicas_per_s": _rate(m, "replicas"), "steps_per_s": _rate(m, "steps")}


def speedup_2t(m: Measurement) -> float:
    """threads=2 over threads=1 replicas/s on the serial baseline's
    statistic (0 for workloads without one)."""
    medians = m.call_medians()
    if m.workload.serial_pair is None:
        return 0.0
    serial, parallel = m.workload.serial_pair
    if serial not in medians or parallel not in medians:
        return 0.0
    return medians[serial] / medians[parallel]


def per_layer(m: Measurement, tracer: Tracer) -> dict[str, float]:
    return layer_metrics(
        tracer.spans,
        rounds=sum(m.traced),
        cpu_s=m.traced_cpu_s,
        overhead_s=wall_s(m, traced=True) - wall_s(m),
        speedup_2t=speedup_2t(m),
    )
