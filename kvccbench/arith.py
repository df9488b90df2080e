"""The benchmark's arithmetic, in one place and free of I/O.

Every number the benchmark reports passes through these functions, so
they are unit-tested on their own (``test_arith.py``).  Times are in
seconds unless a name says otherwise.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence

#: A percentile is reported only when this many samples lie beyond it.
MIN_BEYOND = 10
#: Share of a ladder step's p99 limit the generator may send late by.
CLIENT_SHARE = 0.1


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile (0-100) by linear interpolation.

    Rank ``q/100 * (n-1)`` between the two nearest order statistics -
    the rule numpy calls ``linear``.  ``inf`` samples (failed requests)
    sort last and are returned as ``inf`` when the rank reaches them.
    """
    if not values:
        raise ValueError("percentile of no samples")
    if not 0 <= q <= 100:
        raise ValueError(f"percentile must be in [0, 100], got {q}")
    ordered = sorted(values)
    rank = q / 100 * (len(ordered) - 1)
    lo = math.floor(rank)
    hi = min(lo + 1, len(ordered) - 1)
    frac = rank - lo
    if frac == 0 or ordered[lo] == ordered[hi]:
        return ordered[lo]
    return ordered[lo] + (ordered[hi] - ordered[lo]) * frac


def median(values: Sequence[float]) -> float:
    return percentile(values, 50)


def tail(values: Sequence[float], q: float) -> Dict[str, object]:
    """Percentile ``q`` with its sample count and the tail rule applied.

    ``beyond`` counts samples strictly greater than the percentile;
    ``reportable`` is true only when at least :data:`MIN_BEYOND` of
    them exist, so a p99 from 300 samples (3 beyond) is never claimed.
    """
    value = percentile(values, q)
    beyond = sum(1 for v in values if v > value)
    return {
        "value": value,
        "samples": len(values),
        "beyond": beyond,
        "reportable": beyond >= MIN_BEYOND,
    }


def best_window(windows: Sequence[Sequence[float]], q: float
                ) -> Dict[str, object]:
    """The lowest of the windows' ``q``-th percentiles.

    The host this benchmark was built on flips between fast and slow
    spells of seconds to minutes; a window inside a slow spell reads up
    to 1.7x slower.  The best window is the one least disturbed, so it
    repeats from run to run where a pooled or median value follows the
    share of slow spells.  Reportable only when every window is (see
    :func:`tail`).
    """
    tails = [tail(window, q) for window in windows]
    return {
        "value": min(t["value"] for t in tails),
        "samples": [t["samples"] for t in tails],
        "beyond": [t["beyond"] for t in tails],
        "reportable": all(t["reportable"] for t in tails),
    }


def latencies(
    intended: Sequence[float],
    done: Sequence[Optional[float]],
    ok: Sequence[bool],
) -> List[float]:
    """Per-request latency measured from the *intended* send time.

    Timing from the schedule rather than from the actual send counts
    the wait that one stalled request imposes on every request queued
    behind it (coordinated omission).  A failed or unanswered request
    counts as ``inf``: it misses every latency limit.
    """
    out = []
    for t0, t1, good in zip(intended, done, ok):
        out.append(t1 - t0 if good and t1 is not None else math.inf)
    return out


def lateness(
    intended: Sequence[float], sent: Sequence[Optional[float]]
) -> List[float]:
    """How late the generator sent each request against its schedule.

    A request never sent (the phase ended first) is ``inf``.  A large
    tail here means the open loop was not open: the client, not the
    server, set the pace.
    """
    return [
        math.inf if t1 is None else max(0.0, t1 - t0)
        for t0, t1 in zip(intended, sent)
    ]


def backlog_at(
    t: float, intended: Sequence[float], done: Sequence[Optional[float]]
) -> int:
    """Requests due by ``t`` minus requests answered by ``t``."""
    due = sum(1 for x in intended if x <= t)
    answered = sum(1 for x in done if x is not None and x <= t)
    return due - answered


def backlog_growth(
    intended: Sequence[float],
    done: Sequence[Optional[float]],
    start: float,
    end: float,
) -> int:
    """Backlog at the end of a step minus backlog at its midpoint.

    A server keeping up holds a roughly constant backlog (rate times
    latency), so the difference stays near zero; one falling behind
    adds ``(offered - served rate) * duration / 2``.
    """
    mid = (start + end) / 2
    return backlog_at(end, intended, done) - backlog_at(mid, intended, done)


def backlog_grows(growth: int, rate: float, duration: float) -> bool:
    """Whether a step's backlog growth means the server fell behind.

    Tolerates Poisson noise and a 2 % shortfall of the served rate:
    growing means more than ``max(5, 0.02 * rate * duration / 2)``.
    """
    return growth > max(5.0, 0.02 * rate * duration / 2)


def step_passes(
    failed: int, grows: bool, p99: float, limit: float
) -> bool:
    """A ladder step passes with no failures, no growing backlog and
    p99 within the fixed limit."""
    return failed == 0 and not grows and p99 <= limit


def judge_step(
    intended: Sequence[float],
    sent: Sequence[Optional[float]],
    done: Sequence[Optional[float]],
    ok: Sequence[bool],
    rate: float,
    start: float,
    end: float,
    limit: float,
) -> Dict[str, object]:
    """A ladder step's verdict: ``pass``, ``server`` or ``client``.

    The step passes by :func:`step_passes`, with latency and backlog
    timed from the intended send times.  A failing step is the
    client's, not the server's, when the generator sent late (lateness
    p99 above :data:`CLIENT_SHARE` of ``limit``) and the step would pass
    timed from the actual send times: the failure is then the
    generator's own delay and says nothing about the server.
    """
    failed = sum(1 for good in ok if not good)

    def judge(times):
        growth = backlog_growth(times, done, start, end)
        p99 = percentile(latencies(times, done, ok), 99)
        grows = backlog_grows(growth, rate, end - start)
        return step_passes(failed, grows, p99, limit), p99, growth

    passed, p99, growth = judge(intended)
    late = percentile(lateness(intended, sent), 99)
    verdict = "pass"
    if not passed:
        actual = [t0 if t1 is None else t1 for t0, t1 in zip(intended, sent)]
        own = late > CLIENT_SHARE * limit and judge(actual)[0]
        verdict = "client" if own else "server"
    return {"verdict": verdict, "p99": p99, "growth": growth,
            "failed": failed, "lateness_p99": late}


def ladder_max(steps: Sequence[Dict[str, object]]) -> float:
    """The highest passing rate of a ladder climbed in increasing rate.

    The climb stops at the first failing step: a pass above a failure
    is luck, not capacity.  ``0.0`` when the first step fails.
    """
    best = 0.0
    for step in sorted(steps, key=lambda s: s["rate"]):
        if not step["passed"]:
            break
        best = float(step["rate"])
    return best

