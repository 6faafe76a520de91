"""Run one workload of the walklab benchmark.

    python3 perfbench/run.py --workload ensemble --seed 1 --seconds 15 --trace 0

Workloads: ensemble, paths, exact (see README.md).  The run prints a run
record, then each metric by name and unit, and as its last line one JSON
object {"correct", "attempted", "failed", "metrics"}.  With --trace 0 the
metrics are the end-to-end ones (setup_s, wall_s, peak_rss_mb); with
--trace 1 the per-layer ones, and the spans go to
perfbench/out/spans-<workload>-seed<seed>.jsonl.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path

import repo

HERE = Path(__file__).resolve().parent
SETUP_PROBES = 5


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("ensemble", "paths", "exact"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def setup_seconds(workload: str) -> float:
    """Median over fresh interpreters of import walklab plus warm-up."""
    samples = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(
            [sys.executable, str(HERE / "probe.py"), workload],
            cwd=repo.ROOT,
            capture_output=True,
            text=True,
            timeout=120,
            check=True,
        )
        samples.append(float(done.stdout.strip().splitlines()[-1]))
    return statistics.median(samples)


def _read(path: Path) -> str:
    try:
        return path.read_text().strip()
    except OSError:
        return "unknown"


def cpu_record() -> dict:
    model = "unknown"
    for line in _read(Path("/proc/cpuinfo")).splitlines():
        if line.startswith("model name"):
            model = line.split(":", 1)[1].strip()
            break
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        name = f"L{_read(index / 'level')} {_read(index / 'type')}"
        caches[name] = _read(index / "size")
    return {"model": model, "caches": caches}


def run_record(args, measurement) -> dict:
    import numpy
    import scipy
    import walklab

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "sizes": measurement.workload.sizes,
        "rounds": len(measurement.rounds),
        "round_wall_s": [sum(r.values()) for r in measurement.rounds],
        "traced_rounds": sum(measurement.traced),
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "cpu": cpu_record(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "walklab": walklab.__version__,
        "commit": repo.git_commit(),
    }


def main(argv=None) -> int:
    args = _parse(argv)
    repo.use_source_tree()
    import bench
    import tracing
    import workloads

    workloads.warm_up(args.workload)
    setup_s = None if args.trace else setup_seconds(args.workload)
    make = workloads.WORKLOADS[args.workload]
    tracer = tracing.Tracer() if args.trace else None
    if tracer is not None:
        tracer.install()
    try:
        m = bench.measure(lambda r: make(args.seed, r), args.seconds, tracer)
    finally:
        if tracer is not None:
            tracer.uninstall()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    record = run_record(args, m)
    print(json.dumps({"run_record": record}))
    checks = m.checks
    summary = {
        "wall_s": (bench.wall_s(m), "s"),
        **{name: (value, "1/s") for name, value in bench.workload_rates(m).items() if value},
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "fail_ratio": (checks.failed / max(checks.attempted, 1), "ratio"),
    }
    if setup_s is not None:
        summary = {"setup_s": (setup_s, "s"), **summary}
    if tracer is not None:
        layers = bench.per_layer(m, tracer)
        summary.update({k: (v, tracing.LAYER_UNITS[k]) for k, v in layers.items()})
        out_dir = HERE / "out"
        out_dir.mkdir(exist_ok=True)
        tracer.write(out_dir / f"spans-{args.workload}-seed{args.seed}.jsonl", record)
        metrics = {k: {"value": v, "unit": tracing.LAYER_UNITS[k]} for k, v in layers.items()}
    else:
        metrics = {k: {"value": summary[k][0], "unit": unit}
                   for k, unit in bench.END_TO_END_UNITS.items()}
    for name, (value, unit) in summary.items():
        print(f"{name:45s} {value:>16.6g} {unit}")
    print(f"checks: {checks.attempted} attempted, {checks.failed} failed")
    for failure in checks.failures:
        print(f"FAILED {failure}", file=sys.stderr)
    print(
        json.dumps(
            {
                "correct": checks.failed == 0,
                "attempted": checks.attempted,
                "failed": checks.failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
