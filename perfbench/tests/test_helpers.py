"""Tests for the benchmark's own helpers: the tail-percentile rule, exact
latency percentiles, per-input repeat medians, span self time, the comparison rule and the reference
level scan.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent), str(HERE.parents[1] / "src")]

from compare import verdict  # noqa: E402
from reference import match_levels, reference_levels  # noqa: E402
from spans import Tracer, covered, self_times  # noqa: E402
from stats import MIN_BEYOND, Latencies, RepeatMedians, nearest_rank, tail_percentile  # noqa: E402


@pytest.mark.parametrize(
    "n, expected",
    [
        (10_000, 99.9),  # rank 9990 leaves exactly 10 beyond
        (9_999, 99.0),  # p99.9 would leave only 9
        (1_000, 99.0),
        (999, 95.0),
        (100, 90.0),
        (99, 75.0),
        (40, 75.0),
        (39, 50.0),
        (20, 50.0),
    ],
)
def test_tail_is_highest_ladder_percentile_with_ten_beyond(n, expected):
    p, beyond = tail_percentile(n)
    assert p == expected
    assert beyond == n - nearest_rank(p, n) >= MIN_BEYOND


def test_tail_below_the_ladder_uses_the_exact_rank():
    p, beyond = tail_percentile(17)
    assert beyond == MIN_BEYOND
    assert nearest_rank(p, 17) == 7


def test_tail_with_ten_or_fewer_samples_is_the_maximum():
    assert tail_percentile(10) == (100.0, 0)
    lat = Latencies()
    for ns in (5, 1, 9):
        lat.add(ns)
    assert lat.percentile(tail_percentile(lat.n)[0]) == 9


def test_latency_percentiles_are_exact_order_statistics():
    lat = Latencies()
    values = [7, 3, 3, 10, 1, 8, 8, 8, 2, 6]
    for v in values:
        lat.add(v)
    ordered = sorted(values)
    for p in (10.0, 50.0, 75.0, 90.0, 100.0):
        assert lat.percentile(p) == ordered[nearest_rank(p, len(values)) - 1]
    assert lat.total_ns == sum(values) and lat.n == len(values)


def test_repeat_medians_keep_cycles_spread_over_the_whole_run():
    reps = RepeatMedians(inputs=2, rows=4)
    for c in range(13):
        reps.add([c, 100 + c])
    # Cycles 0..3 fill the buffer; then every 2nd, then every 4th is kept.
    assert reps.stride == 4 and reps.kept == 4
    assert reps.buf[: reps.kept, 0].tolist() == [0, 4, 8, 12]
    assert reps.medians() == [6.0, 106.0]


def test_repeat_medians_drop_a_slow_phase_shared_by_every_input():
    reps = RepeatMedians(inputs=3, rows=8)
    for c in range(8):
        slow = 2 if c in (2, 3) else 1  # two of eight cycles run at half speed
        reps.add([10 * slow, 20 * slow, 30 * slow])
    assert reps.medians() == [10.0, 20.0, 30.0]


def test_repeat_median_percentiles_count_every_operation():
    # Four inputs, ten cycles: 40 operations, ten per input median.
    reps = RepeatMedians(inputs=4, rows=16)
    for _ in range(10):
        reps.add([40, 10, 30, 20])
    assert reps.percentile(50.0) == 20.0  # rank 20 of 40
    assert reps.percentile(51.0) == 30.0  # rank 21
    p, beyond = tail_percentile(40)
    assert (p, beyond) == (75.0, 10) and reps.percentile(p) == 30.0
    assert reps.percentile(100.0) == 40.0


def test_covered_merges_overlaps_and_clips():
    assert covered([(0, 4), (2, 6), (8, 9)], 0, 10) == 7
    assert covered([(-5, 3), (9, 20)], 0, 10) == 4
    assert covered([], 0, 10) == 0


def test_self_time_subtracts_direct_children_only():
    # op [0, 100] -> a [10, 40] -> a.inner [15, 35]; op -> b [50, 90]
    names = ["op", "a", "a.inner", "b"]
    start = [0, 10, 15, 50]
    end = [100, 40, 35, 90]
    parent = [-1, 0, 1, 0]
    st = self_times(names, start, end, parent)
    assert st == {"op": 100 - 30 - 40, "a": 30 - 20, "a.inner": 20, "b": 40}
    assert sum(st.values()) == 100  # self times partition the root span


def test_tracer_records_parents_and_counts_layer_errors():
    from kgsquare import DomainError, PotentialConfig

    tr = Tracer()
    tr.op_id = 7
    root = tr.begin("wl.op")
    tr.call("core.config", PotentialConfig, 1.0, 1.0, 0.5)
    with pytest.raises(DomainError):
        tr.call("core.config", PotentialConfig, 1.0, -1.0, 0.5)
    tr.finish(root)
    assert list(tr.parent) == [-1, 0, 0]
    assert list(tr.op) == [7, 7, 7]
    assert tr.errors == {"core": 1}
    assert len(tr.durations_ns("core.config")) == 2
    assert sum(tr.self_times_ns().values()) == tr.end[0] - tr.start[0]


def test_compare_gain_needs_nine_tenths_of_pairs_and_a_gap_beyond_spread():
    parent = [10.0, 10.1, 9.9, 10.05, 9.95, 10.0, 10.1, 9.9, 10.0, 10.02]
    change = [x - 0.5 for x in parent]
    v = verdict(parent, change, "lower", 0.1)
    assert v["wins"] == 10 and v["verdict"] == "gain"
    # Two of ten pairs lost: 8/10 < 9/10, so no gain is claimed.
    mixed = change[:8] + [11.0, 11.0]
    assert verdict(parent, mixed, "lower", 0.1)["verdict"] == "within-bound"
    # A gain does not count when the change fails more operations.
    assert verdict(parent, change, "lower", 0.1, more_failures=True)["verdict"] == "within-bound"


def test_compare_ties_count_for_neither_side():
    same = [5.0] * 10
    v = verdict(same, same, "higher", 0.1)
    assert v["wins"] == 0 and v["verdict"] == "within-bound"


def test_compare_regression_beyond_bound_in_either_direction():
    parent = [100.0 + 0.1 * i for i in range(10)]
    slower = [x * 1.2 for x in parent]
    assert verdict(parent, slower, "lower", 0.1)["verdict"] == "regression"
    assert verdict(parent, [x / 1.2 for x in parent], "higher", 0.1)["verdict"] == "regression"
    assert verdict(parent, [x * 1.05 for x in parent], "lower", 0.1)["verdict"] == "within-bound"


def test_compare_unresolved_when_spread_exceeds_bound():
    noisy = [80.0, 120.0, 90.0, 110.0, 100.0, 70.0, 130.0, 95.0, 105.0, 100.0]
    shifted = [x + 5.0 for x in noisy]
    assert verdict(noisy, shifted, "lower", 0.1)["verdict"] == "unresolved"
    # ...unless every change run reads better than every parent run.
    assert verdict(noisy, [x / 10.0 for x in noisy], "lower", 0.1)["verdict"] == "better"


def test_reference_finds_known_levels_and_flags_spurious_ones():
    # Criterion-5 configuration fig5, V0 = -0.5: one even level.
    ref = reference_levels(-0.5, 0.5, 1.0)
    assert (len(ref.even_lo), len(ref.odd_lo)) == (1, 0)
    inside = 0.5 * (ref.even_lo[0] + ref.even_hi[0])
    assert match_levels(ref, [(inside, "even")]) == (1, 0)
    assert match_levels(ref, [(inside, "odd")]) == (0, 1)
    assert match_levels(ref, [(inside, "even"), (inside, "even")]) == (1, 1)
    assert match_levels(ref, []) == (0, 0)


def test_reference_counts_the_threshold_crowded_levels():
    # 111 levels at a = 100, g_t = 1, V0 = -1 (the solver returns 110).
    assert reference_levels(-1.0, 100.0, 1.0).count == 111
