"""Unit tests of the benchmark's own arithmetic and of BENCHMARK.json.

    python3 -m pytest -q bench
"""

import json
import sys
import types
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from stats import (  # noqa: E402
    STANDARD_PERCENTILES, label_digest, percentile, samples_past, tail_percentile, weighted_f1,
)


# -- percentiles ---------------------------------------------------------------


def test_percentile_interpolates_between_closest_ranks():
    assert percentile([1, 2, 3, 4], 50) == 2.5
    assert percentile([4, 1, 3, 2], 0) == 1
    assert percentile([4, 1, 3, 2], 100) == 4
    assert percentile([10.0], 95) == 10.0
    assert percentile(list(range(101)), 95) == 95


@pytest.mark.parametrize("n", [1, 2, 7, 320, 1000])
def test_percentile_matches_numpy_default(n):
    values = np.random.default_rng(n).exponential(size=n).tolist()
    for p in (0, 50, 90, 95, 99, 100):
        assert percentile(values, p) == pytest.approx(np.percentile(values, p), rel=1e-12)


def test_percentile_rejects_bad_input():
    with pytest.raises(ValueError):
        percentile([], 50)
    with pytest.raises(ValueError):
        percentile([1.0], 101)


def test_samples_past_counts_values_above_the_rank():
    assert samples_past(320, 95) == 16  # rank 303.05: values 304..319
    assert samples_past(320, 99) == 4  # rank 315.81: values 316..319
    assert samples_past(101, 90) == 10  # rank exactly 90
    assert samples_past(5, 100) == 0


@pytest.mark.parametrize(
    "n, expected",
    [(320, 95.0), (200, 95.0), (182, 95.0), (181, 90.0), (100, 90.0), (999, 99.0),
     (1000, 99.0), (10000, 99.9), (20, 50.0), (19, None)],
)
def test_tail_percentile_is_highest_with_ten_samples_past_it(n, expected):
    assert tail_percentile(n) == expected
    higher = [p for p in STANDARD_PERCENTILES if expected is None or p > expected]
    assert all(samples_past(n, p) < 10 for p in higher)
    if expected is not None:
        assert samples_past(n, expected) >= 10


# -- self time -------------------------------------------------------------------


def test_self_time_subtracts_children():
    # root [0, 10] with children [1, 3] and [4, 8]; grandchild [5, 6]
    trace = [["root", 0.0, 10.0, -1], ["a", 1.0, 3.0, 0], ["b", 4.0, 8.0, 0], ["c", 5.0, 6.0, 2]]
    assert spans.self_times(trace) == pytest.approx([4.0, 2.0, 3.0, 1.0])


def test_self_time_counts_overlapping_children_once_and_clips():
    trace = [["p", 0.0, 10.0, -1], ["x", 2.0, 6.0, 0], ["y", 4.0, 7.0, 0], ["z", 9.0, 12.0, 0]]
    # children cover [2, 7] and [9, 10] of the parent: 6 of its 10 seconds
    assert spans.self_times(trace)[0] == pytest.approx(4.0)


def test_covered_merges_intervals():
    assert spans.covered([(1, 2), (1.5, 3), (5, 6)], 0, 10) == pytest.approx(3.0)
    assert spans.covered([(1, 9), (2, 3)], 0, 10) == pytest.approx(8.0)
    assert spans.covered([], 0, 10) == 0.0


def test_totals_count_nested_same_name_once():
    trace = [
        ["augment.sample", 0.0, 4.0, -1],  # an entry point calling ...
        ["augment.sample", 1.0, 2.0, 0],  # ... another binding of the same name
        ["nn.forward.infer", 5.0, 6.0, -1],
    ]
    inclusive, self_s, calls = spans.totals(trace)
    assert inclusive["augment.sample"] == pytest.approx(4.0)
    assert self_s["augment.sample"] == pytest.approx(4.0)
    assert calls["augment.sample"] == 2
    assert spans.root_time(trace) == pytest.approx(5.0)


def test_tracer_records_parents_and_restores_bindings():
    module = types.SimpleNamespace()
    module.inner = lambda x: x + 1
    module.outer = lambda x: module.inner(x) * 2
    originals = (module.inner, module.outer)
    tracer = spans.Tracer()
    tracer.patch(module, "inner", "m.inner")
    tracer.patch(module, "outer", "m.outer")
    tracer.patch(module, "missing", "m.missing")
    assert module.outer(1) == 4
    tracer.uninstall()
    assert (module.inner, module.outer) == originals
    assert [(s[0], s[3]) for s in tracer.spans] == [("m.outer", -1), ("m.inner", 0)]
    assert all(s[1] <= s[2] for s in tracer.spans)
    assert tracer.skipped == ["SimpleNamespace.missing"]


# -- host slowness --------------------------------------------------------------


def test_host_slowness_is_median_probe_over_reference():
    assert workloads.slowness([workloads.PROBE_REFERENCE_S * f for f in (1.0, 2.0, 9.0)]) == 2.0
    assert workloads.host_probe() > 0


def test_probe_timer_probes_while_active_and_restores_the_handler():
    import signal
    import time

    before = signal.getsignal(signal.SIGALRM)
    with workloads.ProbeTimer(interval=0.01) as probes:
        end = time.perf_counter() + 0.2
        while time.perf_counter() < end:
            pass
    assert len(probes.records) >= 3
    assert all(slow > 0 and spent > 0 for _, slow, spent in probes.records)
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_probe_time_in_divides_each_moment_by_the_nearest_probe():
    timer = workloads.ProbeTimer()
    # probes at 1 s and 3 s, each taking 0.1 s; slowness 2 then 1
    timer.records = [(1.0, 2.0, 0.1), (3.0, 1.0, 0.1)]
    raw, scaled = timer.time_in(0.0, 4.0)
    assert raw == pytest.approx(3.8)
    # 0-1 and 1.1-2.05 at slowness 2; 2.05-3 and 3.1-4 at slowness 1
    assert scaled == pytest.approx((1.0 + 0.95) / 2 + 0.95 + 0.9)
    assert timer.time_in(3.5, 4.0) == pytest.approx((0.5, 0.5))


def test_column_seeds_follow_the_place_in_the_shard_as_dcom_predict_does():
    seeds = workloads.column_seeds(5, 3 * workloads.SHARD_COLUMNS)
    for i in (0, 7, workloads.SHARD_COLUMNS - 1):
        assert seeds[i] == int(np.random.default_rng([5, i]).integers(2**63))
        assert seeds[i] == seeds[i + workloads.SHARD_COLUMNS] == seeds[i + 2 * workloads.SHARD_COLUMNS]


def test_samples_keep_raw_and_scaled_seconds_and_skip_failed_calls():
    samples = workloads.Samples.empty([("k1", 2)])
    samples.add("k1", 0, "a", 0.2, 2.0)
    samples.add("k1", 1, None, None, 2.0)
    assert samples.raw["k1"] == [[0.2], []]
    assert samples.scaled["k1"] == [[0.1], []]
    assert samples.labels["k1"] == [["a"], [None]]


def test_repeated_labels_gate_fails_when_samples_disagree():
    out = workloads.Outcome()
    assert workloads._repeated(out, "k1", [["a", "a"], ["b"]]) == ["a", "b"]
    assert workloads._repeated(out, "k1", [["a", "b"], ["b"]]) == [None, None]
    assert [ok for _, ok, _ in out.gates] == [True, False]


# -- correctness helpers --------------------------------------------------------


def test_weighted_f1_hand_case_and_missing_predictions():
    # the criterion-4 hand case
    assert weighted_f1(["a", "a", "a", "b"], ["a", "a", "b", "b"]) == pytest.approx(0.76667, abs=1e-4)
    assert weighted_f1(["a", "b"], ["a", "b"]) == 1.0
    assert weighted_f1(["a", "b"], [None, None]) == 0.0


def test_label_digest_is_order_sensitive():
    assert label_digest(["a", "b"]) == label_digest(["a", "b"])
    assert label_digest(["a", "b"]) != label_digest(["b", "a"])


# -- BENCHMARK.json ------------------------------------------------------------


def test_benchmark_json_matches_what_the_runner_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
    assert {w["name"]: w["why"] for w in spec["workloads"]} == workloads.WORKLOADS
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])
