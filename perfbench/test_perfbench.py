"""Self-tests for the benchmark's own arithmetic.

Run from the repository root: python3 -m pytest -q perfbench
"""

import os
import sys

import numpy as np
import pytest

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

from stats import fingerprint, latency_summary, tail_percentile  # noqa: E402
from tracing import Tracer, covered_ns, layer_metrics, self_times_ns  # noqa: E402


@pytest.mark.parametrize(
    "n, expected",
    [(0, None), (10, None), (39, None), (40, 75.0), (100, 90.0), (199, 90.0), (200, 95.0),
     (1000, 95.0)],
)
def test_tail_percentile_keeps_ten_samples_beyond(n, expected):
    assert tail_percentile(n) == expected
    if expected is not None:
        assert n * (100 - expected) / 100 >= 10


def test_latency_summary_tail_is_p95_or_the_slowest_request():
    many = latency_summary([0.001 * k for k in range(1, 1001)])
    assert many["tail_percentile"] == 95.0
    assert many["samples"] == 1000
    few = latency_summary([0.010, 0.030, 0.020])
    assert few["tail_percentile"] == 100.0
    assert few["tail_ms"] == pytest.approx(30.0)
    assert few["p50_ms"] == pytest.approx(20.0)


def _span(name, start, end, parent=-1):
    return [name, start, end, parent, 0, None]


def test_self_time_with_overlapping_children():
    spans = [
        _span("parent", 0, 100),
        _span("a", 10, 40, 0),
        _span("b", 30, 60, 0),  # overlaps a
        _span("c", 80, 120, 0),  # runs past the parent's end
        _span("grandchild", 12, 20, 1),
    ]
    # children cover [10, 60] and [80, 100] of the parent: 70 of 100
    assert self_times_ns(spans) == [30, 22, 30, 40, 8]


def test_covered_ns_merges_and_clips():
    assert covered_ns(0, 10, []) == 0
    assert covered_ns(0, 10, [(2, 4), (3, 6), (8, 20), (-5, 1)]) == 7


def test_tracer_nests_spans_and_self_times_sum_to_root():
    tracer = Tracer()
    tracer.request = 7

    def leaf():
        return sum(range(1000))

    def middle():
        return tracer.call("leaf", leaf) + tracer.call("leaf", leaf)

    tracer.call("root", middle)
    names = [s[0] for s in tracer.spans]
    assert names == ["root", "leaf", "leaf"]
    assert [s[3] for s in tracer.spans] == [-1, 0, 0]
    assert all(s[4] == 7 for s in tracer.spans)
    root = tracer.spans[0]
    assert sum(self_times_ns(tracer.spans)) == root[2] - root[1]


def test_unobserved_layer_is_not_reported_as_zero():
    spans = [_span("scoring.score", 0, 1_000_000)]
    extras = {"units": 1, "flip_frac": 0.0, "true_room_in_candidates_frac": 1.0,
              "overhead_pct": 0.0, "attributed_pct": 100.0}
    metrics, unobserved = layer_metrics("twin-warm", spans, extras)
    assert metrics["scoring.score.ms"]["value"] == pytest.approx(1.0)
    assert metrics["scoring.top_x.ms"]["value"] == "unobserved"
    assert "scoring.top_x.ms" in unobserved
    # a layer the workload does not run reads 0 and is not unobserved
    assert metrics["contrastive.train.s"]["value"] == 0
    assert "contrastive.train.s" not in unobserved


def test_fingerprint_depends_on_bytes_shape_and_dtype():
    a = np.arange(6, dtype=np.int64)
    assert fingerprint(a) == fingerprint(a.copy())
    assert fingerprint(a) != fingerprint(a.reshape(2, 3))
    assert fingerprint(a) != fingerprint(a.astype(np.int32))
    assert fingerprint(a, a) != fingerprint(np.concatenate([a, a]))


def test_twin_inputs_fingerprint_is_stable_for_one_seed():
    from rayloc.synth import WorldSpec, generate_world
    from workloads import twin_inputs

    def generate(seed):
        plan, pool = generate_world(WorldSpec(seed=seed))
        return twin_inputs(plan, pool, seed)[2]

    assert generate(3) == generate(3)
    assert generate(3) != generate(4)


def test_corridor_inputs_fingerprint_is_stable_for_one_seed(tmp_path):
    from workloads import corridor_inputs, write_corridor_world

    def generate(seed, name):
        tmp = tmp_path / name
        tmp.mkdir()
        world = str(tmp / "world")
        write_corridor_world(str(tmp), seed, world)
        return corridor_inputs(world, str(tmp), seed)[3]

    assert generate(5, "a") == generate(5, "b")
    assert generate(5, "a2") != generate(6, "c")


def test_anchor_dataset_fingerprint_is_stable_for_one_seed():
    from workloads import anchor_dataset, buildings

    assert anchor_dataset(buildings(2), 2)[1] == anchor_dataset(buildings(2), 2)[1]
    assert anchor_dataset(buildings(2), 2)[1] != anchor_dataset(buildings(3), 3)[1]
