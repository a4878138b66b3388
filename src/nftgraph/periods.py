"""UTC calendar bucketing shared by the metrics and ML-export modules.

Supported granularities: day, week (ISO weeks, Monday start), month,
quarter (3 months), half (6 months), year.
"""

from __future__ import annotations

from datetime import date, datetime, timedelta, timezone
from typing import Iterable, Iterator, NamedTuple

GRANULARITIES = ("day", "week", "month", "quarter", "half", "year")

_UTC = timezone.utc


def _to_date(ts: int) -> date:
    return datetime.fromtimestamp(ts, tz=_UTC).date()


def _to_ts(d: date) -> int:
    return int(datetime(d.year, d.month, d.day, tzinfo=_UTC).timestamp())


def period_start_date(granularity: str, ts: int) -> date:
    d = _to_date(ts)
    if granularity == "day":
        return d
    if granularity == "week":
        return d - timedelta(days=d.weekday())
    if granularity == "month":
        return d.replace(day=1)
    if granularity == "quarter":
        return date(d.year, 3 * ((d.month - 1) // 3) + 1, 1)
    if granularity == "half":
        return date(d.year, 1 if d.month <= 6 else 7, 1)
    if granularity == "year":
        return date(d.year, 1, 1)
    raise ValueError(f"unknown granularity {granularity!r}")


def _next_start(granularity: str, start: date) -> date:
    if granularity == "day":
        return start + timedelta(days=1)
    if granularity == "week":
        return start + timedelta(days=7)
    months = {"month": 1, "quarter": 3, "half": 6, "year": 12}[granularity]
    m = start.month - 1 + months
    return date(start.year + m // 12, m % 12 + 1, 1)


def period_label(granularity: str, start: date) -> str:
    if granularity == "day":
        return start.isoformat()
    if granularity == "week":
        y, w, _ = start.isocalendar()
        return f"{y}-W{w:02d}"
    if granularity == "month":
        return f"{start.year}-{start.month:02d}"
    if granularity == "quarter":
        return f"{start.year}-Q{(start.month - 1) // 3 + 1}"
    if granularity == "half":
        return f"{start.year}-H{1 if start.month <= 6 else 2}"
    return str(start.year)


class Period(NamedTuple):
    label: str
    start_ts: int       # inclusive
    end_ts: int         # exclusive


def iter_periods(granularity: str, first_ts: int, last_ts: int) -> Iterator[Period]:
    """Contiguous calendar periods covering [first_ts, last_ts]."""
    if last_ts < first_ts:
        return
    start = period_start_date(granularity, first_ts)
    while True:
        nxt = _next_start(granularity, start)
        s, e = _to_ts(start), _to_ts(nxt)
        yield Period(period_label(granularity, start), s, e)
        if e > last_ts:
            return
        start = nxt


def tag_periods(periods: list[Period],
                items: Iterable[tuple]) -> Iterator[tuple[int, tuple]]:
    """Yield (index of the period holding item[-1], item) for each item.

    The one walk that buckets by period.  Each item's last field is its
    timestamp; the items must come in nondecreasing timestamp order, and
    the contiguous `periods` must cover every timestamp.
    """
    p = 0
    end = periods[0].end_ts if periods else None
    for item in items:
        ts = item[-1]
        if ts >= end:               # rare: only at a period boundary
            while ts >= periods[p].end_ts:
                p += 1
            end = periods[p].end_ts
        yield p, item
