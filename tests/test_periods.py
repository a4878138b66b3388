from datetime import date, datetime, timezone

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nftgraph.periods import (GRANULARITIES, iter_periods, period_label,
                              period_start_date, tag_periods)
from oracles import period_index


def ts(y, m, d, h=0):
    return int(datetime(y, m, d, h, tzinfo=timezone.utc).timestamp())


def test_day_week_starts():
    t = ts(2021, 5, 6, 15)       # a Thursday
    assert period_start_date("day", t) == date(2021, 5, 6)
    assert period_start_date("week", t) == date(2021, 5, 3)   # Monday


def test_month_quarter_half_year_starts():
    t = ts(2021, 8, 20)
    assert period_start_date("month", t) == date(2021, 8, 1)
    assert period_start_date("quarter", t) == date(2021, 7, 1)
    assert period_start_date("half", t) == date(2021, 7, 1)
    assert period_start_date("year", t) == date(2021, 1, 1)


def test_labels():
    assert period_label("day", date(2021, 5, 3)) == "2021-05-03"
    assert period_label("week", date(2021, 5, 3)) == "2021-W18"
    assert period_label("quarter", date(2021, 4, 1)) == "2021-Q2"
    assert period_label("half", date(2021, 7, 1)) == "2021-H2"
    assert period_label("year", date(2021, 1, 1)) == "2021"
    for m in range(1, 13):
        assert [period_label(g, period_start_date(g, ts(2021, m, 15)))
                for g in ("month", "quarter", "half", "year")] == [
            f"2021-{m:02d}", f"2021-Q{(m + 2) // 3}", f"2021-H{(m + 5) // 6}",
            "2021"]


def test_unknown_granularity():
    with pytest.raises(ValueError):
        period_start_date("fortnight", 0)
    with pytest.raises(ValueError):             # not a DataError
        list(iter_periods("fortnight", 0, 0))


def test_iter_periods_contiguous():
    periods = list(iter_periods("month", ts(2021, 11, 20), ts(2022, 1, 5)))
    assert [p.label for p in periods] == ["2021-11", "2021-12", "2022-01"]
    for a, b in zip(periods, periods[1:]):
        assert a.end_ts == b.start_ts


def test_iter_periods_single_and_empty():
    assert len(list(iter_periods("day", ts(2021, 1, 1), ts(2021, 1, 1)))) == 1
    assert list(iter_periods("day", 100, 50)) == []


def test_period_index():
    periods = list(iter_periods("day", ts(2021, 1, 1), ts(2021, 1, 10)))
    assert period_index(periods, ts(2021, 1, 1)) == 0
    assert period_index(periods, ts(2021, 1, 7, 23)) == 6
    assert periods[period_index(periods, ts(2021, 1, 10))].label == "2021-01-10"


def test_week_crossing_year_boundary():
    # 2020-12-31 (Thursday) and 2021-01-01 share ISO week 2020-W53
    periods = list(iter_periods("week", ts(2020, 12, 31), ts(2021, 1, 1)))
    assert [p.label for p in periods] == ["2020-W53"]


@settings(max_examples=200, deadline=None)
@given(granularity=st.sampled_from(GRANULARITIES),
       first_day=st.integers(0, 30000),
       # (days after the previous stamp, second of the day): UTC
       # midnights start a period, 86399 is a period's last second
       steps=st.lists(st.tuples(st.integers(0, 40), st.one_of(
           st.just(0), st.just(86399), st.integers(0, 86399))),
           min_size=1, max_size=60))
def test_tag_periods_matches_bisect_oracle(granularity, first_day, steps):
    day, stamps = first_day, []
    for gap, second in steps:
        day += gap
        stamps.append(day * 86400 + second)
    stamps.sort()
    periods = list(iter_periods(granularity, stamps[0], stamps[-1]))
    items = [(i, ts) for i, ts in enumerate(stamps)]
    tagged = list(tag_periods(periods, items))
    assert [item for _p, item in tagged] == items
    assert [p for p, _item in tagged] == \
        [period_index(periods, ts) for ts in stamps]
    for p, (_i, ts) in tagged:
        assert periods[p].start_ts <= ts < periods[p].end_ts
