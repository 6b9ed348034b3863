"""Property test: the one-pass ``aggregate_reports`` equals a multi-pass reference.

The SFU folds every per-stream RTCP report of a receiver into one aggregate
on each report it receives, so the aggregation runs in a single pass.  The
reference below is the straightforward formulation (one ``max()`` per worst
case field, one left-to-right sum per additive field); the two must agree
bit for bit on every field, including which of several tied maxima is kept
(observable through ``0.0`` vs ``-0.0``) and NaN propagation.
"""

from __future__ import annotations

import math
import operator
import struct
from functools import reduce

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.cc.base import FeedbackReport
from repro.vca.sfu.state import aggregate_reports

MAX_FIELDS = (
    "timestamp",
    "interval_s",
    "loss_fraction",
    "queueing_delay_s",
    "delay_gradient_s",
    "rtt_s",
)
SUM_FIELDS = ("receive_rate_bps", "packets_expected", "packets_received")


def _left_sum(values):
    # Plain left-to-right addition from 0 (what ``sum()`` does up to Python
    # 3.11; newer versions compensate float sums, which is not the model).
    return reduce(operator.add, values, 0)


def reference_aggregate(reports):
    """Multi-pass reference: one generator pass per field."""
    reports = list(reports)
    if not reports:
        return None
    fields = {name: max(getattr(r, name) for r in reports) for name in MAX_FIELDS}
    fields.update({name: _left_sum(getattr(r, name) for r in reports) for name in SUM_FIELDS})
    return FeedbackReport(**fields)


def _bits(value):
    """Exact identity of a field value: sign of zero and NaN included."""
    if isinstance(value, float):
        return ("f", struct.pack(">d", value))
    return (type(value).__name__, value)


def _assert_identical(got, want):
    assert (got is None) == (want is None)
    if want is None:
        return
    for name in MAX_FIELDS + SUM_FIELDS:
        assert _bits(getattr(got, name)) == _bits(getattr(want, name)), name


# A small pool of values makes ties in every max field common; signed zeros
# make the winner of a tie observable.
_TIED = st.sampled_from([0.0, -0.0, 0.25, 1.0, 1e-9])
_FLOAT = st.one_of(_TIED, st.floats(allow_nan=True, allow_infinity=True))
_COUNT = st.one_of(st.sampled_from([0, 1, 100]), st.integers(min_value=0, max_value=10**9))

_REPORT = st.builds(
    FeedbackReport,
    timestamp=_FLOAT,
    interval_s=_FLOAT,
    receive_rate_bps=_FLOAT,
    loss_fraction=_FLOAT,
    queueing_delay_s=_FLOAT,
    delay_gradient_s=_FLOAT,
    rtt_s=_FLOAT,
    packets_expected=_COUNT,
    packets_received=_COUNT,
)


@settings(max_examples=300, deadline=None)
@given(st.lists(_REPORT, max_size=12))
def test_matches_reference(reports):
    _assert_identical(aggregate_reports(reports), reference_aggregate(reports))
    # Any iterable, as the SFU passes ``dict.values()``.
    _assert_identical(aggregate_reports(iter(reports)), reference_aggregate(reports))


@settings(max_examples=100, deadline=None)
@given(_REPORT)
def test_single_report(report):
    got = aggregate_reports([report])
    _assert_identical(got, reference_aggregate([report]))
    assert got is not report


def test_empty_input_returns_none():
    assert aggregate_reports([]) is None
    assert aggregate_reports(iter(())) is None
    assert reference_aggregate([]) is None


def test_first_of_tied_maxima_wins_in_every_max_field():
    def report(zero):
        return FeedbackReport(
            **{name: zero for name in MAX_FIELDS}, receive_rate_bps=1.0
        )

    for first, second in ((-0.0, 0.0), (0.0, -0.0)):
        got = aggregate_reports([report(first), report(second)])
        for name in MAX_FIELDS:
            assert math.copysign(1.0, getattr(got, name)) == math.copysign(1.0, first), name
        _assert_identical(got, reference_aggregate([report(first), report(second)]))


def test_sums_are_left_to_right():
    # 1e16 + 1.0 rounds away the 1.0 before the -1e16 is added.
    reports = [
        FeedbackReport(timestamp=0.0, interval_s=0.1, receive_rate_bps=rate,
                       loss_fraction=0.0, queueing_delay_s=0.0)
        for rate in (1e16, 1.0, -1e16)
    ]
    assert aggregate_reports(reports).receive_rate_bps == 0.0
    _assert_identical(aggregate_reports(reports), reference_aggregate(reports))
