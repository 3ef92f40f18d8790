"""The repository benchmark: CSV → rules → HTTP answer, timed layer by layer.

Run one workload from the repository root::

    python3 perfbench/run.py --workload wbcd_keepalive --seed 1 --seconds 40 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off.
``--trace 1`` is a separate run with the program's tracer on for every
other mining pass and for serving; it reports the per-layer metrics,
prints per-layer tables and writes the spans to
``perfbench/out/<workload>-seed<n>.trace.json`` (Chrome trace format).
The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics": {name: {value, unit}}}``.
The program is imported from ``src/`` of the checkout the script sits
in; without it the script exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import math
import signal
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SOURCE = HERE.parent / "src"
OUT = HERE / "out"

END_TO_END = {
    "setup_s": "s",
    "mine_s": "s",
    "mine_cpu_s": "s",
    "peak_rss_mb": "MB",
    "serve_max_rps": "req/s",
    "publish_ms": "ms",
    "ok_ratio": "ratio",
}

PER_LAYER = {
    "serve.reference_p50_ms": "ms",
    "serve.reference_tail_ms": "ms",
    "data.io.load_s": "s",
    "birch.phase1_s": "s",
    "birch.items": "count",
    "birch.absorb_ratio": "ratio",
    "birch.splits": "count",
    "birch.rebuilds": "count",
    "core.phase2_s": "s",
    "core.extract_s": "s",
    "core.graph_s": "s",
    "core.cliques_s": "s",
    "core.rules_s": "s",
    "core.comparisons": "count",
    "core.skip_ratio": "ratio",
    "core.rules": "count",
    "core.other_s": "s",
    "resilience.guard_events": "count",
    "serve.snapshot.compile_s": "s",
    "serve.snapshot.rules_per_s": "1/s",
    "serve.query.hit_ratio": "ratio",
    "serve.query.hit_ms": "ms",
    "serve.query.miss_ms": "ms",
    "serve.query.evictions": "count",
    "serve.http.rest_ms": "ms",
    "serve.http.connect_ms": "ms",
    "serve.http.body_bytes": "bytes",
    "serve.http.shed": "count",
    "gen.lag_ms": "ms",
    "gen.backlog_max": "count",
    "obs.trace_overhead": "ratio",
}


def _write(line: str = "") -> None:
    sys.stdout.write(line + "\n")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--scale", type=float, default=1.0,
        help="shrink the generated inputs (the benchmark's own tests use 0.2)",
    )
    return parser.parse_args(argv)


def _terminate(signum, frame) -> None:
    # SystemExit unwinds through the ``finally`` blocks that stop the
    # server and writer threads and delete the run's CSV.
    sys.exit(128 + signum)


def main(argv=None) -> int:
    args = parse_args(argv)
    signal.signal(signal.SIGTERM, _terminate)
    if not (SOURCE / "repro" / "__init__.py").is_file():
        sys.stderr.write(f"perfbench: no program source at {SOURCE}\n")
        return 2
    sys.path.insert(0, str(SOURCE))
    started = time.perf_counter()
    import repro  # noqa: F401  (timed: import cost is part of set-up)

    import_s = time.perf_counter() - started
    import pipeline
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        sys.stderr.write(
            f"perfbench: unknown workload {args.workload!r}; "
            f"choose from {sorted(WORKLOADS)}\n"
        )
        return 2
    record = pipeline.run(
        WORKLOADS[args.workload],
        args.seed,
        args.seconds,
        bool(args.trace),
        OUT,
        scale=args.scale,
    )
    report = summarize(record, import_s)
    for line in report["lines"]:
        _write(line)
    _write(json.dumps(report["result"]))
    return 0


def summarize(record, import_s: float) -> dict:
    """Reduce a run to its report lines and the final JSON result."""
    import metrics

    attempted, failures = metrics.outcomes(record)
    lines = [
        f"# workload {record.workload.name} seed {record.seed} "
        f"trace {int(record.trace)}",
        f"# why: {record.workload.why}",
    ]
    lines += metrics.describe(record)
    for key, problems in list(failures.items())[:20]:
        lines.append(f"# FAILED {key}: {'; '.join(problems)}")
    if record.trace:
        values = metrics.per_layer(record)
        units = PER_LAYER
        lines += metrics.trace_report(record, OUT)
    else:
        values = metrics.end_to_end(record, import_s, attempted, len(failures))
        units = END_TO_END
    for name, unit in units.items():
        lines.append(f"# {name:<28} {values[name]:>14.6g} {unit}")
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {
            name: {"value": _finite(values[name]), "unit": unit}
            for name, unit in units.items()
        },
    }
    return {"lines": lines, "result": result}


def _finite(value: float):
    """JSON has no NaN: a metric that could not be measured is ``null``."""
    return value if isinstance(value, (int, float)) and math.isfinite(value) else None


if __name__ == "__main__":
    sys.exit(main())
