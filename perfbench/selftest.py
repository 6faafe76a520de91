"""Smoke-size self-test of the benchmark.

    python3 perfbench/selftest.py

Runs each workload at smoke size (a few seconds each), untraced and
traced, and requires:
  - no failed check with the right reference laws;
  - metric names and units exactly as BENCHMARK.json lists them;
  - at least one failed check when a reference law is deliberately wrong,
    so the checks can fail.
Exits 0 when all hold, 1 otherwise.
"""

from __future__ import annotations

import json
import sys

import repo

repo.use_source_tree()

import bench  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from walklab import closedform  # noqa: E402
from walklab.model import make_params  # noqa: E402

SEED = 7


def smoke(name: str, trace: bool = False):
    make = workloads.WORKLOADS[name]
    tracer = tracing.Tracer() if trace else None
    if tracer is not None:
        tracer.install()
    try:
        m = bench.measure(lambda r: make(SEED, r, smoke=True), seconds=0.0, tracer=tracer)
    finally:
        if tracer is not None:
            tracer.uninstall()
    return m, tracer


def main() -> int:
    spec = json.loads((repo.ROOT / "BENCHMARK.json").read_text())
    end_to_end_units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer_units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    problems = []

    if end_to_end_units != bench.END_TO_END_UNITS:
        problems.append("BENCHMARK.json end_to_end differs from bench.END_TO_END_UNITS")
    if per_layer_units != tracing.LAYER_UNITS:
        problems.append("BENCHMARK.json per_layer differs from tracing.LAYER_UNITS")
    if sorted(w["name"] for w in spec["workloads"]) != sorted(workloads.WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from workloads.WORKLOADS")

    for name in workloads.WORKLOADS:
        m, tracer = smoke(name, trace=True)
        layers = bench.per_layer(m, tracer)
        print(f"{name}: {m.checks.attempted} checks, {m.checks.failed} failed, "
              f"{len(tracer.spans)} spans, wall_s {bench.wall_s(m):.3f}")
        for failure in m.checks.failures:
            problems.append(f"{name} with correct references: {failure}")
        if layers.keys() != tracing.LAYER_UNITS.keys():
            problems.append(f"{name}: per-layer metrics differ from LAYER_UNITS")

    # Deliberately wrong references: the ball law at another p, and the
    # LLN limits of p = 0.7 instead of 0.75.
    right_law, right_targets = workloads.REFERENCE_LAWS["ball_occupation"], workloads.lln_targets
    workloads.REFERENCE_LAWS["ball_occupation"] = (
        lambda params, kmax: closedform.ball_occupation_pmf(make_params(params.p + 0.02), kmax)
    )
    workloads.lln_targets = lambda params: right_targets(make_params(0.7))
    try:
        for name in workloads.WORKLOADS:
            m, _ = smoke(name)
            print(f"{name} with wrong references: {m.checks.failed} of "
                  f"{m.checks.attempted} checks failed")
            if m.checks.failed == 0:
                problems.append(f"{name}: a wrong reference law passed every check")
    finally:
        workloads.REFERENCE_LAWS["ball_occupation"] = right_law
        workloads.lln_targets = right_targets

    for problem in problems:
        print(f"PROBLEM {problem}")
    print("selftest", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
