"""UTC calendar bucketing shared by the metrics and ML-export modules.

Supported granularities: day, week (ISO weeks, Monday start), month,
quarter (3 months), half (6 months), year.
"""

from __future__ import annotations

from datetime import date, datetime, timedelta, timezone
from typing import Iterable, Iterator, NamedTuple

from .errors import DataError

# months per period, and the label format of (year, 1-based index in the year)
_MONTHLY = {"month": (1, "{}-{:02d}"), "quarter": (3, "{}-Q{}"),
            "half": (6, "{}-H{}"), "year": (12, "{}")}
GRANULARITIES = ("day", "week", *_MONTHLY)
DAY = 86400     # seconds

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
    if granularity not in _MONTHLY:
        raise ValueError(f"unknown granularity {granularity!r}")
    months = _MONTHLY[granularity][0]
    return date(d.year, (d.month - 1) // months * months + 1, 1)


def _next_start(granularity: str, start: date) -> date:
    if granularity == "day":
        return start + timedelta(days=1)
    if granularity == "week":
        return start + timedelta(days=7)
    m = start.month - 1 + _MONTHLY[granularity][0]
    return date(start.year + m // 12, m % 12 + 1, 1)


def period_label(granularity: str, start: date) -> str:
    if granularity == "day":
        return start.isoformat()
    if granularity == "week":
        y, w, _ = start.isocalendar()
        return f"{y}-W{w:02d}"
    months, label = _MONTHLY[granularity]
    return label.format(start.year, (start.month - 1) // months + 1)


class Period(NamedTuple):
    label: str
    start_ts: int       # inclusive
    end_ts: int         # exclusive


def iter_periods(granularity: str, first_ts: int, last_ts: int) -> Iterator[Period]:
    """Contiguous calendar periods covering [first_ts, last_ts].

    A DataError names a timestamp whose period does not fit in the
    calendar's years 1 to 9999; an unknown granularity is a ValueError.
    """
    if last_ts < first_ts:
        return
    if granularity not in GRANULARITIES:
        raise ValueError(f"unknown granularity {granularity!r}")
    for ts in (first_ts, last_ts):      # every period between fits too
        try:
            _next_start(granularity, period_start_date(granularity, ts))
        except (ValueError, OverflowError, OSError):
            raise DataError(f"timestamp {ts} has no {granularity} period "
                            f"within the years 1 to 9999") from None
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
