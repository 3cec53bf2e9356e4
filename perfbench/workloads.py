"""The benchmark's three workloads.

Each is a closed loop with one caller: the next request is sent only after
the previous answer arrived. Inputs are generated from the seed before any
timing starts. ``run_<workload>(ctx)`` returns an :class:`Outcome`; with
``ctx.trace`` it also records spans and fills ``layer_extras``.
"""

from __future__ import annotations

import json
import math
import os
import resource
import struct
import subprocess
import sys
import time
from dataclasses import dataclass, field

import numpy as np

from stats import fingerprint
from tracing import CORRIDOR, TRAIN, TWIN, Instrumentation, Tracer, read_spans, self_times_ns

# the paper's setting: 40 rays over 108 degrees, 36 orientations, X = 100, w = 0.5
N_RAYS = 40
FOV = math.radians(108.0)
MAX_RANGE = 10.0
SIGMA = 0.5
CELL_STRIDE = 0.1
N_ORIENTATIONS = 36

TWIN_QUERIES = 200  # distinct inputs; the first pass gives the accuracy guards
TWIN_DEPTH_NOISE = 0.05  # meters
TRACE_MIN_PAIRS = 20  # traced/untraced request pairs in a traced twin-warm run

CORRIDOR_LAYOUT = "corridor-of-4"
CORRIDOR_EXTENT = (10.0, 4.0)  # a call takes seconds, so a run takes the median of several
CORRIDOR_OBSERVATIONS = 4
CALL_TIMEOUT_S = 60.0  # a call takes about 8 s; a run must end within 180 s

TRAIN_ANCHORS = 64  # a job takes seconds, so a run takes the median of several
HELD_OUT_ANCHORS = 64
DISTRACTORS = 31
PEER_NEGATIVES = 16
EPOCHS = 200

# Cheap set-ups first run untimed for SETUP_WARMUP_SECONDS (lazy imports and
# first-call caches settle over the first few hundred ms), then repeat for
# SETUP_SECONDS, at least SETUP_MIN_REPEATS times, once before and once after
# the timed requests; the median of both batches is reported. The host's
# speed moves in phases of seconds, and Python-heavy code such as these
# set-ups runs up to 1.7x slower in a slow one: two batches about 20 s apart
# blend two phases where one batch would often sit inside a single one.
SETUP_WARMUP_SECONDS = 0.5
SETUP_SECONDS = 1.0
SETUP_MIN_REPEATS = 5
PROBMAP_SUM_TOL = 1e-6  # float32 DPMF entries summed in float64


@dataclass
class Context:
    seed: int
    seconds: float
    trace: bool
    root: str  # checkout root
    tmp: str  # fresh per-run temporary directory


@dataclass
class Outcome:
    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)
    setup_s: float = 0.0
    latencies_s: list[float] = field(default_factory=list)
    peak_rss_mb: float = 0.0
    fingerprint: str = ""
    accuracy: dict = field(default_factory=dict)
    layer_extras: dict = field(default_factory=dict)
    spans: list = field(default_factory=list)

    def check(self, ok: bool, what: str) -> bool:
        if not ok and len(self.failures) < 20:
            self.failures.append(what)
        return ok


def _peak_rss_mb(who: int = resource.RUSAGE_SELF) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0  # Linux reports KiB


def _time_setup(setup, times: list[float], warm_up: bool):
    """Append to ``times`` the seconds of each ``setup()`` call made over
    SETUP_SECONDS, after SETUP_WARMUP_SECONDS of untimed calls when
    ``warm_up``; return the last call's result."""
    if warm_up:
        begin = time.perf_counter()
        while True:
            setup()
            if time.perf_counter() - begin >= SETUP_WARMUP_SECONDS:
                break
    begin = time.perf_counter()
    calls = 0
    while calls < SETUP_MIN_REPEATS or time.perf_counter() - begin < SETUP_SECONDS:
        start = time.perf_counter()
        result = setup()
        times.append(time.perf_counter() - start)
        calls += 1
    return result


def _pose_index(grid, origin, pose) -> tuple[int, int, int]:
    """(row, col, orientation) of the grid pose nearest a cell-centred pose."""
    row = int(math.floor((pose.y - origin[1]) / grid.cell_stride))
    col = int(math.floor((pose.x - origin[0]) / grid.cell_stride))
    ori = int(round(pose.theta / (2 * math.pi / grid.n_orientations))) % grid.n_orientations
    return row, col, ori


def _posterior_ok(values: np.ndarray) -> bool:
    return bool(np.isfinite(values).all()) and abs(float(values.sum()) - 1.0) <= PROBMAP_SUM_TOL


def _accuracy(plan, poses, truths) -> dict:
    """recall at 1 m and 30 degrees, and the share answered in the true room."""
    from rayloc.bench import room_of
    from rayloc.metrics import EvalRecord, evaluate

    report = evaluate([EvalRecord(predicted=p, ground_truth=g) for p, g in zip(poses, truths)])
    rooms = [room_of(plan, p) == room_of(plan, g) for p, g in zip(poses, truths)]
    return {"recall_1m_30deg": report.recall_1m_30deg, "room_acc": sum(rooms) / len(rooms), "n": len(rooms)}


# ---------------------------------------------------------------------------
# twin-warm: in-process queries against one prebuilt table
# ---------------------------------------------------------------------------


def twin_inputs(plan, pool, seed: int):
    """Seeded ground-truth poses and, per pose, the per-ray bin probabilities
    of a noisy predicted fan plus the observation signature."""
    from rayloc.raybins import BinSpec, encode_depth
    from rayloc.synth import NoiseSpec, simulate_observation

    rng = np.random.default_rng(np.random.SeedSequence([seed, 0x7717]))
    picks = rng.choice(len(pool), size=TWIN_QUERIES, replace=False)
    truths = [pool[int(k)] for k in picks]
    inputs = []
    for i, gt in enumerate(truths):
        pred, signature = simulate_observation(
            plan, gt, noise=NoiseSpec(depth_sigma=TWIN_DEPTH_NOISE),
            seed=seed * 1_000_003 + i, n_rays=N_RAYS, fov=FOV, max_range=MAX_RANGE,
        )
        inputs.append((encode_depth(pred, BinSpec()), signature))
    digest = fingerprint(
        plan.occupancy, plan.texture,
        np.array([(p.x, p.y, p.theta) for p in truths]),
        np.stack([probs for probs, _ in inputs]),
        np.stack([sig.texture_counts for _, sig in inputs]),
    )
    return truths, inputs, digest


def run_twin_warm(ctx: Context) -> Outcome:
    from rayloc import disambig, raybins
    from rayloc.bench import room_of, rotated_twin_pose
    from rayloc.crops import CropSpec
    from rayloc.raybins import BinSpec
    from rayloc.scoring import GridScorer, PoseGridSpec
    from rayloc.synth import RandomProjectionEmbedder, WorldSpec, generate_world

    out = Outcome()
    tracer = Tracer()
    instrumentation = Instrumentation(tracer) if ctx.trace else None
    grid = PoseGridSpec(cell_stride=CELL_STRIDE, n_orientations=N_ORIENTATIONS)

    # set-up: world generation plus the table build (traced in a traced run)
    tracer.request = "setup"
    if instrumentation:
        instrumentation.install()
    start = time.perf_counter()
    plan, pool = generate_world(WorldSpec(seed=ctx.seed))
    scorer = GridScorer(plan, grid, n_rays=N_RAYS, fov=FOV, max_range=MAX_RANGE)
    out.setup_s = time.perf_counter() - start
    if instrumentation:
        instrumentation.uninstall()

    truths, inputs, out.fingerprint = twin_inputs(plan, pool, ctx.seed)
    twin_index = [
        (_pose_index(grid, plan.origin, gt),
         _pose_index(grid, plan.origin, rotated_twin_pose(plan, gt)))
        for gt in truths
    ]
    embedder = RandomProjectionEmbedder(dim=64, seed=7, max_range=MAX_RANGE)
    bins = BinSpec()
    config = disambig.DisambigConfig(w=0.5, x=100)
    crop_spec = CropSpec()

    def request(i: int):
        probs, signature = inputs[i % TWIN_QUERIES]
        depths = raybins.expected_depths(probs, bins)
        query = embedder.embed_signature(signature)
        return disambig.localize(
            plan, depths, grid, query, embedder.embed_crop,
            config=config, crop_spec=crop_spec, sigma=SIGMA, scorer=scorer,
            n_rays=N_RAYS, fov=FOV, max_range=MAX_RANGE,
        )

    def timed(i: int, traced: bool):
        out.attempted += 1
        t0 = time.perf_counter()
        try:
            if traced:
                tracer.request = i
                with instrumentation:
                    result = tracer.call("request", request, i)
            else:
                result = request(i)
        except Exception as exc:  # a failed request is counted, not fatal
            out.failed += 1
            out.check(False, f"request {i}: {type(exc).__name__}: {exc}")
            return None, 0.0
        elapsed = time.perf_counter() - t0
        values = result.dafpm.values
        gt_idx, twin_idx = twin_index[i % TWIN_QUERIES]
        ok = out.check(_posterior_ok(values), f"request {i}: posterior not finite or sum != 1")
        ok &= out.check(
            values[gt_idx].tobytes() == values[twin_idx].tobytes(),
            f"request {i}: twin poses do not tie bit-for-bit",
        )
        ok &= out.check(
            bool(np.all(np.diff(result.candidates.scores) <= 0)),
            f"request {i}: candidate scores increase",
        )
        if not ok:
            out.failed += 1
        return result, elapsed

    answers = {}
    flips = true_rooms = traced_count = 0
    untraced_lat, pair_deltas = [], []  # traced runs: overhead from adjacent pairs
    start = time.perf_counter()
    i = 0
    while True:
        done = time.perf_counter() - start >= ctx.seconds
        if ctx.trace:
            if done and traced_count >= TRACE_MIN_PAIRS:
                break
            # alternate which side of the pair runs first
            pair = {}
            for traced in ((False, True) if i % 2 == 0 else (True, False)):
                result, elapsed = timed(i, traced)
                if result is None:
                    continue
                pair[traced] = elapsed
                if traced:
                    traced_count += 1
                    gt_room = room_of(plan, truths[i % TWIN_QUERIES])
                    flips += result.pose != result.candidates.poses[0]
                    true_rooms += gt_room in {room_of(plan, p) for p in result.candidates.poses}
            if len(pair) == 2:
                untraced_lat.append(pair[False])
                pair_deltas.append(pair[True] - pair[False])
        else:
            if done and i >= TWIN_QUERIES:
                break
            result, elapsed = timed(i, False)
            if result is not None:
                out.latencies_s.append(elapsed)
                if i < TWIN_QUERIES:
                    answers[i] = result.pose
        i += 1

    out.peak_rss_mb = _peak_rss_mb()
    if answers:
        out.accuracy = _accuracy(plan, list(answers.values()), [truths[k] for k in answers])
    if ctx.trace:
        out.spans = tracer.spans
        roots = [(s, own) for s, own in zip(tracer.spans, self_times_ns(tracer.spans)) if s[0] == "request"]
        root_ns = sum(s[2] - s[1] for s, _ in roots)
        out.layer_extras = {
            "units": traced_count,
            "flip_frac": flips / traced_count,
            "true_room_in_candidates_frac": true_rooms / traced_count,
            "overhead_pct": 100.0 * float(np.median(pair_deltas) / np.median(untraced_lat)),
            "attributed_pct": 100.0 * (1.0 - sum(own for _, own in roots) / root_ns),
        }
    return out


# ---------------------------------------------------------------------------
# corridor-cold: one `rayloc localize` process per request
# ---------------------------------------------------------------------------


def _read_probmap_sum(path: str) -> tuple[bool, float]:
    """Parse a DPMF file independently of rayloc; (finite and >= 0, sum)."""
    with open(path, "rb") as fh:
        data = fh.read()
    if data[:4] != b"DPMF" or len(data) < 16:
        raise ValueError("bad DPMF header")
    rows, cols, n_ori = struct.unpack("<III", data[4:16])
    values = np.frombuffer(data[16:], dtype="<f4")
    if values.size != rows * cols * n_ori:
        raise ValueError("DPMF size does not match its header")
    sane = bool(np.isfinite(values).all() and (values >= 0).all())
    return sane, float(values.astype(np.float64).sum())


def _spawn(cmd: list[str], env: dict, log_path: str) -> tuple[int | None, float]:
    """Run a child to completion; (exit code or None on timeout, wall seconds)."""
    with open(log_path, "wb") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, env=env, stdout=log, stderr=subprocess.STDOUT)
        try:
            code = proc.wait(timeout=CALL_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            code = None
        wall = time.perf_counter() - start
    return code, wall


def _artifact_bytes(out_dir: str) -> int:
    return sum(
        os.path.getsize(os.path.join(out_dir, name)) for name in sorted(os.listdir(out_dir))
    )


def corridor_inputs(world_dir: str, tmp: str, seed: int):
    """Observations at seeded poses of a generated corridor map, written as
    `rayloc simulate` writes them; (map path, poses, (rays, signature)
    paths, fingerprint of every input file)."""
    from rayloc import cli
    from rayloc.floorplan import Pose

    map_path = os.path.join(world_dir, "map.pgm")
    with open(os.path.join(world_dir, "poses.json"), encoding="utf-8") as fh:
        pool = [Pose(p["x"], p["y"], p["theta"]) for p in json.load(fh)["poses"]]
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0xC0DE]))
    picks = rng.choice(len(pool), size=CORRIDOR_OBSERVATIONS, replace=False)
    truths = [pool[int(k)] for k in picks]
    observations = []
    for i, gt in enumerate(truths):
        obs_dir = os.path.join(tmp, f"obs{i}")
        code = cli.main([
            "simulate", "--map", map_path, "--x", repr(gt.x), "--y", repr(gt.y),
            "--theta", repr(gt.theta), "--seed", str(seed), "--out", obs_dir,
        ])
        if code != 0:
            raise RuntimeError(f"simulate exited {code}")
        observations.append((os.path.join(obs_dir, "rays.csv"), os.path.join(obs_dir, "signature.json")))
    parts = []
    files = [map_path, os.path.join(world_dir, "map_texture.pgm")]
    for path in files + [p for pair in observations for p in pair]:
        with open(path, "rb") as fh:
            parts.append(np.frombuffer(fh.read(), dtype=np.uint8))
    return map_path, truths, observations, fingerprint(*parts)


def write_corridor_world(tmp: str, seed: int, out_dir: str) -> None:
    """`rayloc gen-world` for the corridor layout, in-process."""
    from rayloc import cli

    config_path = os.path.join(tmp, "world.json")
    with open(config_path, "w", encoding="utf-8") as fh:
        json.dump(
            {"world": {"layout": CORRIDOR_LAYOUT, "extent_m": list(CORRIDOR_EXTENT), "seed": seed}},
            fh,
        )
    code = cli.main(["gen-world", "--config", config_path, "--out", out_dir])
    if code != 0:
        raise RuntimeError(f"gen-world exited {code}")


def run_corridor_cold(ctx: Context) -> Outcome:
    from rayloc.bench import room_of
    from rayloc.floorplan import Pose, load_floorplan

    out = Outcome()
    # set-up: write the generated map to disk (repeated; median reported)
    world_dir = os.path.join(ctx.tmp, "world")
    setup_times = []
    _time_setup(lambda: write_corridor_world(ctx.tmp, ctx.seed, world_dir), setup_times, warm_up=True)
    map_path, truths, observations, out.fingerprint = corridor_inputs(world_dir, ctx.tmp, ctx.seed)
    plan = load_floorplan(map_path)

    env = dict(os.environ, PYTHONPATH=os.path.join(ctx.root, "src"), TMPDIR=ctx.tmp)
    runner = os.path.join(ctx.root, "perfbench", "cli_runner.py")
    spans_path = os.path.join(ctx.tmp, "spans.json")
    answers = {}
    start = time.perf_counter()
    i = 0
    while i == 0 or (not ctx.trace and time.perf_counter() - start < ctx.seconds):
        rays, signature = observations[i % CORRIDOR_OBSERVATIONS]
        out_dir = os.path.join(ctx.tmp, f"loc{i}")
        argv = ["localize", "--map", map_path, "--rays", rays, "--signature", signature, "--out", out_dir]
        if ctx.trace:
            cmd = [sys.executable, runner, spans_path, *argv]
        else:
            cmd = [sys.executable, "-m", "rayloc.cli", *argv]
        out.attempted += 1
        code, wall = _spawn(cmd, env, os.path.join(ctx.tmp, f"loc{i}.log"))
        ok = out.check(code == 0, f"call {i}: " + ("timed out" if code is None else f"exit code {code}"))
        try:
            with open(os.path.join(out_dir, "pose.json"), encoding="utf-8") as fh:
                doc = json.load(fh)
            pose = Pose(float(doc["x"]), float(doc["y"]), float(doc["theta"]))
            ok &= out.check(
                all(map(math.isfinite, (pose.x, pose.y, pose.theta))), f"call {i}: pose not finite"
            )
            sane, total = _read_probmap_sum(os.path.join(out_dir, "dafpm.dpmf"))
            ok &= out.check(
                sane and abs(total - 1.0) <= PROBMAP_SUM_TOL, f"call {i}: DPMF sums to {total}"
            )
        except (OSError, ValueError, KeyError, TypeError) as exc:
            ok = out.check(False, f"call {i}: unreadable output: {type(exc).__name__}: {exc}")
        if ok:
            out.latencies_s.append(wall)
            if i < CORRIDOR_OBSERVATIONS:
                answers[i] = pose
        else:
            out.failed += 1
        i += 1
    _time_setup(lambda: write_corridor_world(ctx.tmp, ctx.seed, world_dir), setup_times, warm_up=False)
    out.setup_s = float(np.median(setup_times))

    # the largest peak RSS of any waited-for child: only localize calls spawn
    out.peak_rss_mb = _peak_rss_mb(resource.RUSAGE_CHILDREN)
    if answers:
        out.accuracy = _accuracy(plan, list(answers.values()), [truths[k] for k in answers])
    if ctx.trace and out.latencies_s:
        out.spans = read_spans(spans_path)
        main_ns = sum(s[2] - s[1] for s in out.spans if s[0] == "cli.main")
        with open(os.path.join(out_dir, "candidates.csv"), encoding="utf-8") as fh:
            rows = [line.split(",") for line in fh.read().splitlines()[1:]]
        candidates = [Pose(float(r[0]), float(r[1]), float(r[2])) for r in rows]
        top = candidates[0]
        flipped = math.hypot(top.x - pose.x, top.y - pose.y) > 1e-5 or abs(top.theta - pose.theta) > 1e-5
        gt_room = room_of(plan, truths[0])
        out.layer_extras = {
            "units": 1,
            "process_overhead_ms": out.latencies_s[0] * 1e3 - main_ns / 1e6,
            "artifact_bytes": _artifact_bytes(out_dir),
            "flip_frac": float(flipped),
            "true_room_in_candidates_frac": float(gt_room in {room_of(plan, c) for c in candidates}),
        }
    return out


# ---------------------------------------------------------------------------
# embedder-train: mining, crop features, peer negatives and training
# ---------------------------------------------------------------------------


def buildings(seed: int):
    """Two twin-rooms buildings with distinct room texture ids."""
    from rayloc.synth import WorldSpec, generate_world, relabel_texture

    worlds = []
    texture_base = 0
    for world_seed in (2 * seed, 2 * seed + 1):
        plan, pool = generate_world(WorldSpec(seed=world_seed))
        if texture_base:
            plan = relabel_texture(plan, texture_base)
        texture_base += int(plan.texture.max())
        worlds.append((plan, pool))
    return worlds


def anchor_dataset(worlds, seed: int):
    """Anchors alternating between the buildings, and their fingerprint; the
    last HELD_OUT_ANCHORS are never trained on."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0xE3B]))
    dataset = []
    for j in range(TRAIN_ANCHORS + HELD_OUT_ANCHORS):
        plan, pool = worlds[j % 2]
        dataset.append((plan, pool[int(rng.integers(len(pool)))]))
    digest = fingerprint(
        *[plan.occupancy for plan, _ in worlds], *[plan.texture for plan, _ in worlds],
        np.array([(gt.x, gt.y, gt.theta) for _, gt in dataset]),
    )
    return dataset, digest


def run_embedder_train(ctx: Context) -> Outcome:
    from rayloc import contrastive, crops
    from rayloc.contrastive import MiningSpec, PerturbSpec
    from rayloc.crops import CropSpec
    from rayloc.synth import RandomProjectionEmbedder

    out = Outcome()
    tracer = Tracer()
    instrumentation = Instrumentation(tracer) if ctx.trace else None

    # set-up: generate the two relabelled buildings (repeated; median reported)
    setup_times = []
    worlds = _time_setup(lambda: buildings(ctx.seed), setup_times, warm_up=True)

    dataset, out.fingerprint = anchor_dataset(worlds, ctx.seed)
    crop = CropSpec(out_px=51)
    perturb = PerturbSpec()
    mining = MiningSpec(seed=ctx.seed, n_inner=4, n_cross=4, n_ori=1)
    anchor_embedder = RandomProjectionEmbedder(dim=64, seed=7, texture_weight=1.0, geom_weight=1.0)
    train_set = dataset[:TRAIN_ANCHORS]

    def job():
        mined = [
            contrastive.mine_samples(dataset, j, perturb, mining, crop) for j in range(TRAIN_ANCHORS)
        ]
        anchors = np.stack(
            [anchor_embedder.embed_crop(crops.extract_crop(plan, gt, crop)) for plan, gt in train_set]
        )
        samples = contrastive.build_training_samples(mined, anchors)
        samples = contrastive.add_peer_negatives(
            samples, train_set, n_peers=PEER_NEGATIVES, min_dist=1.5, seed=ctx.seed
        )
        embedder, losses = contrastive.train_linear_embedder(
            samples, dim=64, epochs=EPOCHS, learning_rate=1.0, seed=ctx.seed
        )
        return samples, embedder, losses

    start = time.perf_counter()
    result = None
    while out.attempted == 0 or time.perf_counter() - start < ctx.seconds:
        out.attempted += 1
        t0 = time.perf_counter()
        try:
            if instrumentation:
                tracer.request = out.attempted
                with instrumentation:
                    result = tracer.call("job", job)
            else:
                result = job()
        except Exception as exc:  # a failed job is counted, not fatal
            out.failed += 1
            out.check(False, f"job {out.attempted}: {type(exc).__name__}: {exc}")
            continue
        elapsed = time.perf_counter() - t0
        losses = result[2]
        ok = out.check(bool(np.isfinite(losses).all()), "loss trace is not finite")
        ok &= out.check(bool(losses[-1] < losses[0]), "loss did not fall")
        if not ok:
            out.failed += 1
            continue
        out.latencies_s.append(elapsed)
    _time_setup(lambda: buildings(ctx.seed), setup_times, warm_up=False)
    out.setup_s = float(np.median(setup_times))
    out.peak_rss_mb = _peak_rss_mb()

    if result is not None:
        out.accuracy = _held_out_retrieval(ctx.seed, dataset, result, perturb, mining, crop, anchor_embedder)
    if ctx.trace:
        out.spans = tracer.spans
        out.layer_extras = {"units": out.attempted}
    return out


def _held_out_retrieval(seed, dataset, result, perturb, mining, crop, anchor_embedder) -> dict:
    """Share of held-out anchors whose own crop outranks DISTRACTORS others."""
    from rayloc import contrastive, crops

    samples, embedder, _ = result
    feats = [s.positive_features for s in samples]
    anchors = []
    for j in range(TRAIN_ANCHORS, len(dataset)):
        plan, gt = dataset[j]
        positive = contrastive.mine_samples(dataset, j, perturb, mining, crop).positive
        feats.append(contrastive.crop_features(positive))
        anchors.append(anchor_embedder.embed_crop(crops.extract_crop(plan, gt, crop)))
    embs = np.stack(feats) @ embedder.weights.T
    embs /= np.linalg.norm(embs, axis=1, keepdims=True)
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0x5E7]))
    hits = 0
    for k, j in enumerate(range(TRAIN_ANCHORS, len(dataset))):
        plan, gt = dataset[j]
        eligible = [
            m for m in range(len(dataset))
            if m != j and (
                dataset[m][0] is not plan
                or math.hypot(dataset[m][1].x - gt.x, dataset[m][1].y - gt.y) >= 1.5
            )
        ]
        picks = rng.choice(len(eligible), size=DISTRACTORS, replace=False)
        cand = [j] + [eligible[int(m)] for m in picks]
        hits += int(np.argmax(embs[cand] @ anchors[k])) == 0
    return {"retrieval_acc": hits / HELD_OUT_ANCHORS, "n": HELD_OUT_ANCHORS}


WORKLOADS = {
    TWIN: run_twin_warm,
    CORRIDOR: run_corridor_cold,
    TRAIN: run_embedder_train,
}
