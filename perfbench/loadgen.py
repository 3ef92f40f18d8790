"""Open-loop HTTP load over a fixed, small set of client connections.

Independent users send on their own schedule whether or not the server
has answered earlier requests, so the schedule is an open loop: Poisson
arrivals at a fixed rate, generated from the workload seed.  Each of at
most two worker threads (the machine's core count) owns one connection
at a time and takes the next due request from a shared cursor; a request
that finds both workers busy waits, and that wait counts in its latency
because every request is timed from when it was *due*, not from when it
was sent.

Two numbers say whether a run was valid: ``lag`` (how late a free
worker sent a request against its due time — the generator's own
scheduling error) and ``backlog`` (requests already due but not yet
taken by a worker).
"""

from __future__ import annotations

import bisect
import http.client
import math
import threading
import time
from dataclasses import dataclass, field
from typing import List, Optional, Sequence

import numpy as np

from stats import tail

#: Monkeypatched by the tests to simulate a generator that oversleeps.
_sleep = time.sleep

CLIENT_THREADS = 2
TIMEOUT_S = 30.0


@dataclass
class Request:
    """One sent request and what came back (times are perf_counter values)."""

    index: int
    path: str
    due: float
    taken: float = 0.0
    woke: float = 0.0
    sent: float = 0.0
    done: float = 0.0
    connect_s: Optional[float] = None
    status: int = 0
    body: bytes = b""
    error: str = ""

    @property
    def latency_s(self) -> float:
        """Due-to-done: includes any wait for a free connection."""
        return self.done - self.due

    @property
    def rtt_s(self) -> float:
        """Sent-to-done, connection set-up excluded."""
        return self.done - self.sent

    @property
    def lag_s(self) -> float:
        """How late a free worker started on the request."""
        return self.woke - max(self.due, self.taken)


@dataclass
class Step:
    """One fixed-rate stretch of the open loop."""

    rate: float
    seconds: float
    label: str = ""
    requests: List[Request] = field(default_factory=list)
    backlog_max: int = 0
    backlog_end: int = 0

    @property
    def latencies_ms(self) -> np.ndarray:
        return np.array([r.latency_s for r in self.requests]) * 1e3

    def meets(self, limit_ms: float) -> bool:
        """Tail latency within the limit, and no backlog left to grow.

        A failed or refused request counts as missing the limit.  The
        backlog left when the schedule ends must be clearable within the
        limit at the step's own rate, or the queue was growing.
        """
        if any(r.status != 200 for r in self.requests):
            return False
        value, _, _ = tail(self.latencies_ms)
        return value <= limit_ms and self.backlog_end <= max(
            2, self.rate * limit_ms / 1e3
        )


def max_rate(steps: Sequence[Step], limit_ms: float) -> float:
    """The highest rate that meets the limit, from a doubling rate ladder.

    Ladder rates are a factor of two apart, so a tail landing just either
    side of the limit would flip the answer by a whole doubling.  Between
    the last step that met the limit and the first that missed it on its
    tail, the tail is interpolated log-log to where it crosses the limit.
    0 when even the first step missed; the last rate when none did.
    """
    best: Optional[Step] = None
    for step in steps:
        if step.meets(limit_ms):
            best = step
            continue
        if best is None:
            return 0.0
        low, high = tail(best.latencies_ms)[0], tail(step.latencies_ms)[0]
        if not 0 < low < limit_ms < high:
            return best.rate
        fraction = math.log(limit_ms / low) / math.log(high / low)
        return best.rate * (step.rate / best.rate) ** fraction
    return best.rate if best is not None else 0.0


def poisson_offsets(rng: np.random.Generator, rate: float, seconds: float) -> np.ndarray:
    """Arrival offsets of a Poisson process conditioned on its mean count.

    Given the count, Poisson arrival times are i.i.d. uniform, so sorting
    ``round(rate * seconds)`` uniform draws keeps Poisson inter-arrival
    gaps while every seed sends the same number of requests.
    """
    count = max(1, int(round(rate * seconds)))
    return np.sort(rng.uniform(0.0, seconds, size=count))


def run_step(
    address,
    paths: Sequence[str],
    offsets: np.ndarray,
    rate: float,
    seconds: float,
    *,
    keepalive: bool,
    span=None,
    label: str = "",
) -> Step:
    """Send ``paths[i]`` at ``offsets[i]`` seconds from now; wait for all.

    ``keepalive`` keeps one HTTP/1.1 connection per worker; otherwise
    every request opens (and times) a fresh connection and closes it.
    ``span`` (optional) wraps each round trip, for the traced run.
    """
    host, port = address
    step = Step(rate=rate, seconds=seconds, label=label)
    start = time.perf_counter() + 0.01
    dues = [start + float(offset) for offset in offsets]
    step.requests = [Request(i, p, d) for i, (p, d) in enumerate(zip(paths, dues))]
    cursor = [0]
    lock = threading.Lock()

    def worker() -> None:
        conn: Optional[http.client.HTTPConnection] = None
        try:
            while True:
                now = time.perf_counter()
                with lock:
                    i = cursor[0]
                    if i >= len(step.requests):
                        return
                    cursor[0] = i + 1
                    backlog = bisect.bisect_right(dues, now) - i
                    step.backlog_max = max(step.backlog_max, backlog)
                request = step.requests[i]
                request.taken = now
                wait = request.due - time.perf_counter()
                if wait > 0:
                    _sleep(wait)
                request.woke = time.perf_counter()
                if conn is None:
                    conn = http.client.HTTPConnection(host, port, timeout=TIMEOUT_S)
                    try:
                        conn.connect()
                    except OSError as error:
                        request.error = f"connect: {error}"
                        request.done = time.perf_counter()
                        conn = None
                        continue
                    request.connect_s = time.perf_counter() - request.woke
                request.sent = time.perf_counter()
                headers = {"X-Request-Id": f"{label}{i}"}
                if not keepalive:
                    headers["Connection"] = "close"
                try:
                    if span is None:
                        _round_trip(conn, request, headers)
                    else:
                        with span("bench.request", request_id=headers["X-Request-Id"]):
                            _round_trip(conn, request, headers)
                except (OSError, http.client.HTTPException) as error:
                    request.error = f"{type(error).__name__}: {error}"
                    request.done = time.perf_counter()
                    conn.close()
                    conn = None
                    continue
                if not keepalive:
                    conn.close()
                    conn = None
        finally:
            if conn is not None:
                conn.close()

    threads = [
        threading.Thread(target=worker, name=f"bench-client-{n}", daemon=True)
        for n in range(CLIENT_THREADS)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=seconds + 10 * TIMEOUT_S)
        if thread.is_alive():
            raise RuntimeError("a load-generator thread did not finish")
    end = start + seconds
    step.backlog_end = sum(1 for r in step.requests if r.taken > end)
    return step


def _round_trip(conn: http.client.HTTPConnection, request: Request, headers) -> None:
    conn.request("GET", request.path, headers=headers)
    response = conn.getresponse()
    request.body = response.read()
    request.done = time.perf_counter()
    request.status = response.status
