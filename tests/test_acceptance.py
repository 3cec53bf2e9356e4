"""Acceptance suite: one test per acceptance criterion, each printing a
single PASS/FAIL line to the terminal."""

import math
import subprocess
import sys
import time

import numpy as np
import pytest

from rayloc.bench import (
    build_benchmark,
    rotated_twin_pose,
    run_query,
    sample_queries,
)
from rayloc.config import RunConfig
from rayloc.contrastive import (
    DENOM_NEGATIVES_ONLY,
    DENOM_WITH_POSITIVE,
    MiningSpec,
    PerturbSpec,
    _nce_grad_raw,
    _nce_loss_raw,
    add_peer_negatives,
    build_training_samples,
    crop_features,
    mine_samples,
    train_linear_embedder,
)
from rayloc.crops import CropSpec, extract_crop
from rayloc.disambig import DisambigConfig
from rayloc.floorplan import Pose, cast_rays, march_ray, ray_bearings
from rayloc.metrics import EvalRecord, evaluate
from rayloc.raybins import BinSpec, bin_centers, encode_depth, expected_depths
from rayloc.scoring import argmax_pose
from rayloc.synth import (
    NoiseSpec,
    RandomProjectionEmbedder,
    WorldSpec,
    generate_world,
    relabel_texture,
)

N_QUERIES = 200
TWIN_TIE_TOL = 1e-9


def _report(capsys, ok: bool, line: str) -> None:
    with capsys.disabled():
        print(f"[{'PASS' if ok else 'FAIL'}] {line}")
    assert ok, line


# ---------------------------------------------------------------------------
# Shared benchmark runs (criteria 4, 5, 6)
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def bench():
    return build_benchmark(RunConfig(world=WorldSpec(seed=0)))


@pytest.fixture(scope="module")
def queries(bench):
    return sample_queries(bench, N_QUERIES, seed=1)


@pytest.fixture(scope="module")
def pipeline_runs(bench, queries):
    """Per-query localization results for every (noise, w) combination the
    criteria below need."""
    runs = {}
    for noise_key, noise in (("noiseless", NoiseSpec()), ("noisy", NoiseSpec(depth_sigma=0.1))):
        for w in (0.5, 0.0):
            config = DisambigConfig(w=w)
            entries = []
            for i, gt in enumerate(queries):
                result, record, correct_room = run_query(
                    bench, gt, noise=noise, seed=i, config=config
                )
                entries.append(
                    {
                        "gt": gt,
                        "result": result,
                        "record": record,
                        "correct_room": correct_room,
                    }
                )
            runs[(noise_key, w)] = entries
    return runs


def _grid_index(bench, pose):
    """Exact (row, col, orientation) grid bin of a pool pose."""
    stride = bench.scorer.grid.cell_stride
    r = int(round((pose.y - bench.scorer.plan.origin[1]) / stride - 0.5))
    c = int(round((pose.x - bench.scorer.plan.origin[0]) / stride - 0.5))
    o = int(round(pose.theta / (2 * math.pi / bench.scorer.grid.n_orientations)))
    return r, c, o % bench.scorer.grid.n_orientations


# ---------------------------------------------------------------------------
# Criteria
# ---------------------------------------------------------------------------


def test_criterion_1_traversal_matches_marching_oracle(capsys):
    layouts = ["twin-rooms", "corridor-of-3", "random-partition"]
    n_maps, n_poses, n_bearings = 10, 100, 40
    start = time.perf_counter()
    mismatches = 0
    total = 0
    for m in range(n_maps):
        spec = WorldSpec(layout=layouts[m % len(layouts)], seed=100 + m)
        plan, pool = generate_world(spec)
        rng = np.random.default_rng(m)
        poses = [pool[int(i)] for i in rng.choice(len(pool), n_poses, replace=True)]
        for pose in poses:
            bearings = ray_bearings(pose.theta, n_bearings, math.radians(108.0))
            depths, _ = cast_rays(
                plan,
                np.full(n_bearings, pose.x),
                np.full(n_bearings, pose.y),
                bearings,
            )
            for b, d_engine in zip(bearings, depths):
                d_ref, _ = march_ray(plan, pose.x, pose.y, float(b))
                total += 1
                if abs(d_engine - d_ref) > plan.resolution:
                    mismatches += 1
    elapsed = time.perf_counter() - start
    ok = mismatches == 0 and elapsed < 10.0
    _report(
        capsys,
        ok,
        f"criterion 1: traversal vs marching oracle, {total - mismatches}/{total} "
        f"within resolution on {n_maps} maps in {elapsed:.1f}s (<10s)",
    )


def test_criterion_2_depth_bins(capsys):
    worst_center = 0.0
    worst_round_trip = 0.0
    one_hot_exact = True
    for gamma in (0.5, 1.0, 2.0):
        spec = BinSpec(d_min=0.1, d_max=10.0, n_bins=64, gamma=gamma)
        centers = bin_centers(spec)
        k = np.arange(1, 65)
        direct = (0.1**gamma + (k / 64) * (10.0**gamma - 0.1**gamma)) ** (1 / gamma)
        worst_center = max(worst_center, float(np.abs(centers - direct).max()))

        rng = np.random.default_rng(int(gamma * 10))
        depths = rng.uniform(centers[0], centers[-1], size=1000)
        back = expected_depths(encode_depth(depths, spec), spec)
        worst_round_trip = max(worst_round_trip, float(np.abs(back - depths).max()))

        rows = encode_depth(centers, spec)
        one_hot_exact = one_hot_exact and np.array_equal(rows, np.eye(64))
    ok = worst_center < 1e-12 and worst_round_trip < 1e-9 and one_hot_exact
    _report(
        capsys,
        ok,
        "criterion 2: bin centers match the closed form "
        f"(max err {worst_center:.1e} < 1e-12), expectation round-trip "
        f"{worst_round_trip:.1e} < 1e-9, centers encode one-hot",
    )


def test_criterion_3_gradient_check(capsys):
    h = 1e-5
    rng = np.random.default_rng(123)
    n_batches = 0
    worst = 0.0

    def unit(n, dim):
        v = rng.normal(size=(n, dim))
        return v / np.linalg.norm(v, axis=1, keepdims=True)

    for dim in (4, 8, 32):
        for tau in (0.05, 0.07, 1.0):
            for denominator in (DENOM_NEGATIVES_ONLY, DENOM_WITH_POSITIVE):
                for _ in range(3):
                    arrays = {
                        "anchors": unit(2, dim),
                        "positives": unit(2, dim),
                        "position_negatives": unit(int(rng.integers(1, 4)), dim),
                        "orientation_negatives": unit(int(rng.integers(1, 3)), dim),
                    }
                    pairs = [(0, 0), (1, 1)]

                    def loss(a):
                        return _nce_loss_raw(
                            a["anchors"],
                            a["positives"],
                            a["position_negatives"],
                            a["orientation_negatives"],
                            pairs,
                            tau,
                            denominator,
                        )

                    grads = _nce_grad_raw(
                        arrays["anchors"],
                        arrays["positives"],
                        arrays["position_negatives"],
                        arrays["orientation_negatives"],
                        pairs,
                        tau,
                        denominator,
                    )
                    for name in arrays:
                        fd = np.zeros_like(arrays[name])
                        for idx in np.ndindex(arrays[name].shape):
                            plus = {k: v.copy() for k, v in arrays.items()}
                            minus = {k: v.copy() for k, v in arrays.items()}
                            plus[name][idx] += h
                            minus[name][idx] -= h
                            fd[idx] = (loss(plus) - loss(minus)) / (2 * h)
                        scale = max(float(np.abs(fd).max()), 1.0)
                        worst = max(
                            worst, float(np.abs(grads[name] - fd).max()) / scale
                        )
                    n_batches += 1
    ok = n_batches >= 50 and worst < 1e-4
    _report(
        capsys,
        ok,
        f"criterion 3: analytic vs central-difference gradients on {n_batches} "
        f"batches, worst relative error {worst:.2e} < 1e-4",
    )


def test_criterion_4_twin_ambiguity(capsys, bench, pipeline_runs):
    # exact posterior tie between every queried pose and its rotated twin
    worst_tie = 0.0
    for entry in pipeline_runs[("noiseless", 0.0)][:50]:
        dafpm = entry["result"].dafpm
        gt = entry["gt"]
        twin = rotated_twin_pose(bench.scorer.plan, gt)
        r, c, o = _grid_index(bench, gt)
        rt, ct, ot = _grid_index(bench, twin)
        worst_tie = max(
            worst_tie, abs(float(dafpm.values[r, c, o]) - float(dafpm.values[rt, ct, ot]))
        )

    rooms = [e["correct_room"] for e in pipeline_runs[("noiseless", 0.0)]]
    room_acc = float(np.mean(rooms))
    ok = worst_tie <= TWIN_TIE_TOL and 0.40 <= room_acc <= 0.60
    _report(
        capsys,
        ok,
        f"criterion 4: twin posterior tie within {worst_tie:.1e} (<=1e-9); "
        f"depth-only room accuracy {room_acc:.1%} inside [40%, 60%]",
    )


def test_criterion_5_disambiguation_and_noise(capsys, pipeline_runs):
    clean = pipeline_runs[("noiseless", 0.5)]
    room_acc = float(np.mean([e["correct_room"] for e in clean]))
    report = evaluate([e["record"] for e in clean])

    noisy_fused = evaluate([e["record"] for e in pipeline_runs[("noisy", 0.5)]])
    noisy_depth = evaluate([e["record"] for e in pipeline_runs[("noisy", 0.0)]])
    gap = noisy_fused.recall_0_5m - noisy_depth.recall_0_5m

    ok = (
        room_acc >= 0.95
        and report.recall_0_5m >= 0.90
        and report.recall_1m_30deg >= 0.90
        and gap >= 0.20
    )
    _report(
        capsys,
        ok,
        f"criterion 5: fused room accuracy {room_acc:.1%} (>=95%), noiseless "
        f"recall@0.5m {report.recall_0_5m:.1%} and recall@(1m,30deg) "
        f"{report.recall_1m_30deg:.1%} (>=90%); fusion gain under depth noise "
        f"{gap * 100:.0f}pp (>=20pp)",
    )


def test_criterion_6_w_zero_reduces_to_depth_argmax(capsys, pipeline_runs):
    checked = 0
    agree = 0
    for noise_key in ("noiseless", "noisy"):
        for entry in pipeline_runs[(noise_key, 0.0)]:
            result = entry["result"]
            checked += 1
            if result.pose == argmax_pose(result.dafpm):
                agree += 1
    ok = agree == checked
    _report(
        capsys,
        ok,
        f"criterion 6: w=0 pipeline pose identical to posterior argmax on "
        f"{agree}/{checked} queries",
    )


def test_criterion_7_embedder_training(capsys):
    # two buildings with globally unique room appearance
    crop = CropSpec(out_px=51)
    mining = MiningSpec(seed=3, n_inner=4, n_cross=4, n_ori=1)
    perturb = PerturbSpec()
    n_per_world, n_train = 1100, 2000

    worlds = []
    texture_base = 0
    for seed in (0, 1):
        plan, pool = generate_world(WorldSpec(seed=seed))
        if texture_base:
            plan = relabel_texture(plan, texture_base)
        texture_base += 2
        worlds.append((plan, pool))

    rng = np.random.default_rng(np.random.SeedSequence([42]))
    per_world = [
        [(plan, pool[int(rng.integers(len(pool)))]) for _ in range(n_per_world)]
        for plan, pool in worlds
    ]
    dataset = [per_world[i][j] for j in range(n_per_world) for i in (0, 1)]

    anchor_embedder = RandomProjectionEmbedder(
        dim=64, seed=7, texture_weight=1.0, geom_weight=1.0
    )
    mined = []
    anchor_embeddings = []
    for j, (plan, gt) in enumerate(dataset):
        mined.append(mine_samples(dataset, j, perturb, mining, crop))
        anchor_embeddings.append(
            anchor_embedder.embed_crop(extract_crop(plan, gt, crop))
        )
    anchor_embeddings = np.stack(anchor_embeddings)

    samples = build_training_samples(mined, anchor_embeddings)
    samples = add_peer_negatives(
        samples, dataset, n_peers=16, min_dist=1.5, seed=777, pool=range(n_train)
    )

    t0 = time.perf_counter()
    embedder, trace = train_linear_embedder(
        samples[:n_train], dim=64, epochs=300, learning_rate=1.0, seed=0
    )
    train_time = time.perf_counter() - t0
    loss_drops = trace[-1] < trace[0]

    # held-out retrieval: the trained crop embedding at the true pose must
    # outrank 31 distractor crops drawn from elsewhere in the dataset
    pos_feats = np.stack([crop_features(s.positive) for s in mined])
    trained = pos_feats @ embedder.weights.T
    trained /= np.linalg.norm(trained, axis=1, keepdims=True)

    eval_rng = np.random.default_rng(99)
    successes = 0
    held_out = range(n_train, len(dataset))
    for j in held_out:
        plan, gt = dataset[j]
        eligible = [
            k
            for k in range(len(dataset))
            if k != j
            and (
                dataset[k][0] is not plan
                or math.hypot(dataset[k][1].x - gt.x, dataset[k][1].y - gt.y) >= 1.5
            )
        ]
        distractors = eval_rng.choice(len(eligible), size=31, replace=False)
        cand = [j] + [eligible[int(k)] for k in distractors]
        sims = trained[cand] @ anchor_embeddings[j]
        if int(np.argmax(sims)) == 0:
            successes += 1
    success_rate = successes / len(held_out)

    ok = loss_drops and success_rate >= 0.90 and train_time < 300.0
    _report(
        capsys,
        ok,
        f"criterion 7: contrastive loss fell {trace[0]:.3f} -> {trace[-1]:.3f}; "
        f"held-out crop retrieval {success_rate:.1%} (>=90%) against 31 "
        f"distractors; training took {train_time:.0f}s (<300s)",
    )


def test_criterion_8_metric_properties(capsys):
    rng = np.random.default_rng(2024)
    n = 10_000
    dx = rng.normal(scale=0.6, size=n)
    dy = rng.normal(scale=0.6, size=n)
    gt_theta = rng.uniform(0, 2 * math.pi, size=n)
    dtheta = rng.uniform(-math.pi, math.pi, size=n)
    records = [
        EvalRecord(
            predicted=Pose(dx[i], dy[i], gt_theta[i] + dtheta[i]),
            ground_truth=Pose(0.0, 0.0, gt_theta[i]),
        )
        for i in range(n)
    ]
    report = evaluate(records)

    # independent vectorized recomputation
    err = np.hypot(dx, dy)
    ang = np.abs(
        np.array([r.predicted.theta for r in records])
        - np.array([r.ground_truth.theta for r in records])
    ) % (2 * math.pi)
    ang = np.minimum(ang, 2 * math.pi - ang)
    direct = (
        float(np.mean(err < 0.1)),
        float(np.mean(err < 0.5)),
        float(np.mean(err < 1.0)),
        float(np.mean((err < 1.0) & (ang < math.pi / 6))),
    )
    matches = (
        report.recall_0_1m,
        report.recall_0_5m,
        report.recall_1m,
        report.recall_1m_30deg,
    ) == direct

    ordered = (
        report.recall_0_1m <= report.recall_0_5m <= report.recall_1m
        and report.recall_1m_30deg <= report.recall_1m
    )
    wraparound = (
        EvalRecord(
            predicted=Pose(0, 0, 0.01),
            ground_truth=Pose(0, 0, 2 * math.pi - 0.01),
        ).angular_error
        < 0.05
    )
    at_half_meter = evaluate(
        [EvalRecord(predicted=Pose(0.5, 0.0, 0.0), ground_truth=Pose(0.0, 0.0, 0.0))]
    )
    at_thirty_deg = evaluate(
        [
            EvalRecord(
                predicted=Pose(0.2, 0.0, math.pi / 6),
                ground_truth=Pose(0.0, 0.0, 0.0),
            )
        ]
    )
    strict = (
        at_half_meter.recall_0_5m == 0.0
        and at_half_meter.recall_1m == 1.0
        and at_thirty_deg.recall_1m_30deg == 0.0
        and at_thirty_deg.recall_1m == 1.0
    )

    ok = matches and ordered and wraparound and strict
    _report(
        capsys,
        ok,
        f"criterion 8: recall metrics over {n} randomized records match a "
        "direct recomputation, thresholds are strict, and heading error wraps",
    )


def test_criterion_9_cli_determinism_across_threads(capsys, tmp_path):
    config = tmp_path / "config.json"
    config.write_text(
        '{"world": {"extent_m": [6.0, 4.0], "seed": 0}, '
        '"grid": {"n_orientations": 12}, "rays": {"n_rays": 16}, '
        '"bench": {"n_queries": 4}}'
    )
    outputs = []
    for threads in (1, 8):
        out = tmp_path / f"threads_{threads}"
        proc = subprocess.run(
            [
                sys.executable,
                "-m",
                "rayloc.cli",
                "sweep",
                "--param",
                "w",
                "--values",
                "0,0.5",
                "--config",
                str(config),
                "--threads",
                str(threads),
                "--out",
                str(out),
            ],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        outputs.append((out / "sweep.csv").read_bytes())
    ok = outputs[0] == outputs[1] and len(outputs[0]) > 0
    _report(
        capsys,
        ok,
        "criterion 9: sweep CSVs byte-identical across --threads 1 and 8",
    )
