"""Per-layer tables from the traced run's spans.

Every span — the benchmark's ``bench.*`` spans around each call into a
layer, and the program's own ``mine`` / ``phase1`` / ``phase2.*`` /
``serve.*`` spans nested inside them — is assigned to a layer by name.
A span's *self* time is its duration minus its direct children's
(children of one span run on its thread, one after another).  A
layer's *total* is the inclusive time of its outermost spans.  The
``(untraced gap)`` row is time that no layer span accounts for: the
benchmark's own glue inside a pass, and for serving the client round
trip outside the server's ``serve.request`` span (socket, kernel, and
the client's own parsing).
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, Iterable, List, Optional

GAP = "(untraced gap)"

#: Span name → layer, first match wins.
LAYER_PREFIXES = (
    ("bench.pass", GAP),
    ("bench.load", "data.io"),
    ("phase1", "birch"),
    ("phase2", "core"),
    ("bench.mine", "core"),
    ("mine", "core"),
    ("bench.compile", "serve.snapshot"),
    ("bench.publish", "serve.snapshot"),
    ("serve.compile", "serve.snapshot"),
    ("bench.query", "serve.query"),
    ("serve.request", "serve.http"),
    ("bench.request", "client"),
)


def layer_of(name: str) -> str:
    """The layer a span belongs to: its name, or a dotted child of it."""
    for prefix, layer in LAYER_PREFIXES:
        if name == prefix or name.startswith(prefix + "."):
            return layer
    return "other"


def self_times(spans: Iterable) -> Dict[int, float]:
    """Span id → duration minus the durations of its direct children."""
    spans = list(spans)
    child_total: Dict[int, float] = defaultdict(float)
    for s in spans:
        if s.parent_id:
            child_total[s.parent_id] += s.seconds
    return {s.span_id: max(0.0, s.seconds - child_total[s.span_id]) for s in spans}


def _subtree(spans: List, root_name: str) -> List:
    """``root_name`` spans and all their descendants."""
    by_parent: Dict[int, List] = defaultdict(list)
    for s in spans:
        by_parent[s.parent_id].append(s)
    out, stack = [], [s for s in spans if s.name == root_name]
    while stack:
        s = stack.pop()
        out.append(s)
        stack.extend(by_parent[s.span_id])
    return out


def layer_table(
    spans: List,
    root_name: str,
    per: int,
    untraced: Optional[Dict[str, float]] = None,
) -> List[dict]:
    """Rows ``{layer, total_s, self_s, share, untraced_s}`` averaged over ``per``.

    ``root_name`` picks the span trees to tabulate (``bench.pass`` for the
    mining passes); ``share`` is self time over the roots' total.
    ``untraced`` maps a layer to the same layer's time from untraced
    passes, timed by the benchmark (``None`` where there is none).
    """
    tree = _subtree(spans, root_name)
    own = self_times(tree)
    layer_by_id = {s.span_id: layer_of(s.name) for s in tree}
    total: Dict[str, float] = defaultdict(float)
    self_sum: Dict[str, float] = defaultdict(float)
    for s in tree:
        layer = layer_by_id[s.span_id]
        self_sum[layer] += own[s.span_id]
        if layer_by_id.get(s.parent_id) != layer:
            total[layer] += s.seconds
    root_total = sum(s.seconds for s in tree if s.name == root_name) or float("nan")
    per = max(per, 1)
    rows = []
    for layer in sorted(total, key=lambda name: (name == GAP, -self_sum[name])):
        rows.append({
            "layer": layer,
            "total_s": total[layer] / per,
            "self_s": self_sum[layer] / per,
            "share": self_sum[layer] / root_total,
            "untraced_s": (untraced or {}).get(layer),
        })
    return rows


def request_table(spans: List) -> List[dict]:
    """Per-request rows for serving: the client round trip split by layer.

    The client's ``bench.request`` and the server's ``serve.request``
    run on different threads, so they are matched through the request
    id (the span's trace id / ``request_id`` attribute).
    """
    client = {s.attributes.get("request_id"): s for s in spans if s.name == "bench.request"}
    server = [s for s in spans if s.name == "serve.request" and s.trace_id in client]
    if not server:
        return []
    queries = defaultdict(float)
    for s in spans:
        if s.name == "bench.query":
            queries[s.parent_id] += s.seconds
    n = len(server)
    rtt = sum(client[s.trace_id].seconds for s in server)
    handler = sum(s.seconds for s in server)
    query = sum(queries[s.span_id] for s in server)
    rows = [
        ("serve.http", handler, handler - query),
        ("serve.query", query, query),
        (GAP, rtt - handler, rtt - handler),
    ]
    return [
        {"layer": layer, "total_s": t / n, "self_s": own / n, "share": own / rtt}
        for layer, t, own in rows
    ]


def format_table(title: str, rows: List[dict], unit: str = "s") -> str:
    """A fixed-width text table (times in ``unit``: ``s`` or ``ms``)."""
    factor = 1e3 if unit == "ms" else 1.0
    lines = [
        f"# {title}",
        f"#   {'layer':<16} {'total_' + unit:>10} {'self_' + unit:>10} "
        f"{'share':>7} {'untraced_' + unit:>12}",
    ]
    for row in rows:
        untraced = row.get("untraced_s")
        lines.append(
            f"#   {row['layer']:<16} {row['total_s'] * factor:>10.4f} "
            f"{row['self_s'] * factor:>10.4f} {row['share']:>7.1%} "
            + (f"{untraced * factor:>12.4f}" if untraced is not None else f"{'-':>12}")
        )
    return "\n".join(lines)
