"""Reduce a :class:`pipeline.Run` to the benchmark's named metrics.

End-to-end metrics come from the untraced run; per-layer metrics from
the traced run (the passes it traced, and its serving stage).  Counts
the program reports itself — ``DARResult.phase1`` / ``scan_summary()``,
``DARResult.phase2`` / ``stage_breakdown()``, the query cache counters —
are read as they are; times of calls into a layer are the benchmark's.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List, Tuple

import numpy as np

from pipeline import LIMIT_MS
from layers import GAP, format_table, layer_table, request_table
from stats import TAIL_SAMPLES, median, tail


def outcomes(record) -> Tuple[int, Dict[str, List[str]]]:
    """``(attempted, failures)``: every pass, request and publish is attempted."""
    failures: Dict[str, List[str]] = {}
    for i, p in enumerate(record.passes):
        if p.problems:
            failures[f"pass{i}"] = p.problems
    failures.update(record.request_problems)
    for i, error in enumerate(record.publish_errors):
        failures[f"publish{i}"] = [error]
    steps = record.reference + record.steps + ([record.verify] if record.verify else [])
    attempted = (
        len(record.passes)
        + sum(len(step.requests) for step in steps)
        + len(record.publish_s)
        + len(record.publish_errors)
    )
    return attempted, failures


def _latencies_ms(steps) -> np.ndarray:
    return np.concatenate([s.latencies_ms for s in steps]) if steps else np.array([])


def _ok(passes):
    return [p for p in passes if p.digest]


def end_to_end(record, import_s: float, attempted: int, failed: int) -> Dict[str, float]:
    passes = _ok(record.passes)
    return {
        "setup_s": import_s / record.calibration[0]
        + median(s / f for s, f in zip(record.setup_s, record.setup_slowdown)),
        "mine_s": median(p.wall_s / p.slowdown for p in passes),
        "mine_cpu_s": median(p.cpu_s / p.slowdown for p in passes),
        "peak_rss_mb": record.peak_rss_mb,
        "serve_max_rps": record.max_rps,
        "publish_ms": median(
            s / record.reference_slowdown[i]
            for s, i in zip(record.publish_s, record.publish_slice)
        ) * 1e3,
        "ok_ratio": 1.0 - failed / max(attempted, 1),
    }


def per_layer(record) -> Dict[str, float]:
    traced = [p for p in _ok(record.passes) if p.traced]
    untraced = [p for p in _ok(record.passes) if not p.traced]
    last = traced[-1].stats if traced else {}

    def med(key):
        return median(p.stats[key] for p in traced)

    steps = record.reference + record.steps
    requests = [r for step in steps for r in step.requests]
    answered = [r for r in requests if r.status == 200]
    calls = record.query_calls
    query_s = {request_id: seconds for request_id, _, seconds in calls}
    hits = [seconds for _, cached, seconds in calls if cached]
    misses = [seconds for _, cached, seconds in calls if not cached]
    rest = [
        r.rtt_s - query_s[key]
        for step in steps
        for r in step.requests
        if (key := f"{step.label}{r.index}") in query_s and r.status == 200
    ]
    passing = [s for s in steps if s.meets(LIMIT_MS)] or steps
    reference = _latencies_ms(record.reference)
    return {
        "serve.reference_p50_ms": median(reference),
        "serve.reference_tail_ms": tail(reference)[0],
        "data.io.load_s": median(p.load_s for p in traced),
        "birch.phase1_s": med("phase1_s"),
        "birch.items": last.get("items", float("nan")),
        "birch.absorb_ratio": last.get("absorb_ratio", float("nan")),
        "birch.splits": last.get("splits", float("nan")),
        "birch.rebuilds": last.get("rebuilds", float("nan")),
        "core.phase2_s": med("phase2_s"),
        "core.extract_s": med("extract_s"),
        "core.graph_s": med("graph_s"),
        "core.cliques_s": med("cliques_s"),
        "core.rules_s": med("rules_s"),
        "core.comparisons": last.get("comparisons", float("nan")),
        "core.skip_ratio": last.get("skip_ratio", float("nan")),
        "core.rules": last.get("rules", float("nan")),
        "core.other_s": median(
            p.mine_s - p.stats["phase1_s"] - p.stats["phase2_s"] for p in traced
        ),
        "resilience.guard_events": sum(p.stats["guard_events"] for p in _ok(record.passes)),
        "serve.snapshot.compile_s": median(p.compile_s for p in traced),
        "serve.snapshot.rules_per_s": median(p.n_rules / p.compile_s for p in traced),
        "serve.query.hit_ratio": len(hits) / len(calls) if calls else float("nan"),
        "serve.query.hit_ms": median(hits) * 1e3,
        "serve.query.miss_ms": median(misses) * 1e3,
        "serve.query.evictions": sum(
            max(0, info["misses"] - info["entries"]) for info in record.cache_info
        ),
        "serve.http.rest_ms": median(rest) * 1e3,
        "serve.http.connect_ms": median(
            r.connect_s for r in requests if r.connect_s is not None
        ) * 1e3,
        "serve.http.body_bytes": median(len(r.body) for r in answered),
        "serve.http.shed": sum(1 for r in requests if r.status in (429, 503)),
        "gen.lag_ms": tail([r.lag_s for r in requests])[0] * 1e3,
        "gen.backlog_max": max((s.backlog_max for s in passing), default=0),
        "obs.trace_overhead": median(p.wall_s / p.slowdown for p in traced)
        / median(p.wall_s / p.slowdown for p in untraced) - 1.0,
    }


def describe(record) -> List[str]:
    """Human-readable lines: passes, ladder steps, publishes."""
    lines = []
    passes = record.passes
    digests = sorted({p.digest for p in passes if p.digest})
    lines.append(
        f"# machine slowdown against the calibration reference: "
        f"{' '.join(f'{f:.2f}' for f in record.calibration)}"
    )
    lines.append(
        f"# setup: {len(record.setup_s)} x, median {median(record.setup_s):.4f} s raw"
    )
    lines.append(
        f"# mining: {len(passes)} passes, rules {sorted({p.n_rules for p in passes})}, "
        f"digest {', '.join(digests) or '-'}"
    )
    for i, p in enumerate(passes):
        lines.append(
            f"#   pass {i}{' traced' if p.traced else ''}: wall {p.wall_s:.4f} s "
            f"cpu {p.cpu_s:.4f} s = load {p.load_s:.4f} + mine {p.mine_s:.4f} "
            f"+ compile {p.compile_s:.4f} (raw; slowdown {p.slowdown:.3f})"
        )
    reference = _latencies_ms(record.reference)
    value, percentile, n = tail(reference)
    if record.reference:
        lines.append(
            f"# reference {record.reference[0].rate:g} req/s x "
            f"{sum(s.seconds for s in record.reference):g} s in "
            f"{len(record.reference)} slices after publishes: n={n} p50 "
            f"{median(reference):.3f} ms, p{percentile:.1f} {value:.3f} ms "
            f"({TAIL_SAMPLES if n > TAIL_SAMPLES else 0} samples beyond)"
        )
    for step in record.steps:
        latencies = step.latencies_ms
        value, percentile, n = tail(latencies)
        meets = "meets" if step.meets(LIMIT_MS) else "misses"
        lines.append(
            f"# ladder {step.rate:g} req/s x {step.seconds:g} s: n={n} "
            f"p50 {median(latencies):.3f} ms, p{percentile:.1f} {value:.3f} ms, "
            f"backlog max {step.backlog_max} end {step.backlog_end} -> {meets}"
        )
    lines.append(
        f"# serve_max_rps {record.max_rps:.3f} req/s (limit {LIMIT_MS:g} ms at the tail)"
    )
    lines.append(
        f"# publishes: {len(record.publish_s)} ok, "
        f"{len(record.publish_errors)} failed, median "
        f"{median(record.publish_s) * 1e3:.3f} ms raw"
    )
    return lines


def trace_report(record, out: Path) -> List[str]:
    """Write the span file and per-layer tables; return the tables as lines."""
    from repro.obs.trace import get_tracer

    out.mkdir(parents=True, exist_ok=True)
    stem = out / f"{record.workload.name}-seed{record.seed}"
    span_path = stem.with_suffix(".trace.json")
    get_tracer().to_chrome(span_path)
    traced = [p for p in _ok(record.passes) if p.traced]
    untraced = [p for p in _ok(record.passes) if not p.traced]
    untraced_by_layer = {
        "data.io": median(p.load_s for p in untraced),
        "birch": median(p.stats["phase1_s"] for p in untraced),
        "core": median(p.mine_s for p in untraced),
        "serve.snapshot": median(p.compile_s for p in untraced),
        GAP: median(p.wall_s - p.load_s - p.mine_s - p.compile_s for p in untraced),
    }
    pass_rows = layer_table(record.spans, "bench.pass", len(traced), untraced_by_layer)
    request_rows = request_table(record.spans)
    stem.with_suffix(".layers.json").write_text(
        json.dumps({"passes": pass_rows, "requests": request_rows}, indent=2)
    )
    return [
        format_table(
            f"mining pass, per traced pass ({len(traced)}); untraced = "
            f"{len(untraced)} untraced passes", pass_rows
        ),
        format_table(
            "serving, per traced request "
            f"({sum(len(s.requests) for s in record.reference + record.steps)})",
            request_rows,
            unit="ms",
        ),
        f"# spans: {span_path} ({len(record.spans)} spans)",
    ]
