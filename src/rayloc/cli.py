"""Command-line entry point wiring all modules into reproducible runs.

Every command reads an optional JSON run config (--config), writes its
artifacts plus the fully resolved config into --out, and is deterministic
for a fixed config and seed; --threads only sets table-build worker threads.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from dataclasses import replace

import numpy as np

from . import bench as bench_mod
from .config import RunConfig, echo_config, load_config
from .contrastive import (
    MinedSample,
    add_peer_negatives,
    build_training_samples,
    mine_samples,
    read_embeddings,
    train_linear_embedder,
    write_sample_manifest,
)
from .crops import Crop, extract_crop, write_crop_channels
from .disambig import localize
from .errors import ConfigurationError, FormatError, RaylocError
from .floorplan import (
    FloorPlan,
    Pose,
    load_floorplan,
    ray_bearings,
    render_gt_rays,
    save_floorplan,
    write_pgm,
)
from .metrics import EvalRecord, evaluate
from .scoring import GridScorer, PoseGridSpec, default_cell_stride
from .scoring import probmap_graymap, write_probmap
from .synth import (
    NoiseSpec,
    ObservationSignature,
    RandomProjectionEmbedder,
    WorldSpec,
    generate_world,
    relabel_texture,
    simulate_observation,
)

EXIT_RUNTIME = 1
EXIT_CONFIG = 2
EXIT_MISSING = 3

FLOAT_FMT = "{:.6f}"

# in-batch-style extra negatives appended per anchor during embedder training
PEER_NEGATIVES = 16


def _fmt(value: float) -> str:
    return FLOAT_FMT.format(float(value))


def _write_json(path: str, doc) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _pose_doc(pose: Pose) -> dict:
    return {"x": pose.x, "y": pose.y, "theta": pose.theta}


def _grid_for(cfg: RunConfig, plan: FloorPlan) -> PoseGridSpec:
    stride = cfg.grid.cell_stride_m
    if stride is None:
        stride = default_cell_stride(plan.resolution)
    return PoseGridSpec(cell_stride=stride, n_orientations=cfg.grid.n_orientations)


def _require_file(path: str) -> str:
    if not os.path.exists(path):
        raise FileNotFoundError(path)
    return path


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def cmd_gen_world(cfg: RunConfig, args) -> int:
    world = cfg.world
    if args.seed is not None:
        world = replace(world, seed=args.seed)
    plan, poses = generate_world(world)
    os.makedirs(args.out, exist_ok=True)
    save_floorplan(plan, os.path.join(args.out, "map.pgm"))
    _write_json(
        os.path.join(args.out, "poses.json"),
        {"poses": [_pose_doc(p) for p in poses]},
    )
    echo_config(cfg, args.out)
    return 0


def cmd_cast(cfg: RunConfig, args) -> int:
    plan = load_floorplan(_require_file(args.map))
    fan = render_gt_rays(
        plan,
        Pose(args.x, args.y, args.theta),
        n_rays=cfg.rays.n_rays,
        fov=cfg.rays.fov,
        max_range=cfg.rays.max_range_m,
    )
    bearings = ray_bearings(args.theta, cfg.rays.n_rays, cfg.rays.fov)
    os.makedirs(args.out, exist_ok=True)
    with open(os.path.join(args.out, "rays.csv"), "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["bearing_rad", "depth_m", "hit"])
        for bearing, depth, hit in zip(bearings, fan.depths, fan.hits):
            writer.writerow([_fmt(bearing), _fmt(depth), int(hit)])
    echo_config(cfg, args.out)
    return 0


def cmd_simulate(cfg: RunConfig, args) -> int:
    plan = load_floorplan(_require_file(args.map))
    pose = Pose(args.x, args.y, args.theta)
    pred, signature = simulate_observation(
        plan,
        pose,
        noise=cfg.noise,
        seed=args.seed if args.seed is not None else cfg.seed,
        n_rays=cfg.rays.n_rays,
        fov=cfg.rays.fov,
        max_range=cfg.rays.max_range_m,
    )
    os.makedirs(args.out, exist_ok=True)
    with open(os.path.join(args.out, "rays.csv"), "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["ray", "depth_m"])
        for i, depth in enumerate(pred):
            writer.writerow([i, _fmt(depth)])
    _write_json(
        os.path.join(args.out, "signature.json"),
        {
            "depths_m": [float(d) for d in signature.depths],
            "texture_counts": [int(c) for c in signature.texture_counts],
            "fov_rad": signature.fov,
            "max_range_m": signature.max_range,
            "noise": {
                "depth_sigma_m": signature.noise.depth_sigma,
                "dropout": signature.noise.dropout,
            },
            "gt_pose": _pose_doc(pose),
        },
    )
    echo_config(cfg, args.out)
    return 0


def _load_signature(path: str) -> ObservationSignature:
    with open(_require_file(path), "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
            return ObservationSignature(
                depths=np.asarray(doc["depths_m"], dtype=float),
                texture_counts=np.asarray(doc["texture_counts"], dtype=np.int64),
                fov=float(doc["fov_rad"]),
                max_range=float(doc["max_range_m"]),
                noise=NoiseSpec(
                    depth_sigma=float(doc["noise"]["depth_sigma_m"]),
                    dropout=float(doc["noise"]["dropout"]),
                ),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise FormatError(f"{path}: malformed signature: {exc!r}") from exc


def _read_depth_csv(path: str) -> np.ndarray:
    with open(_require_file(path), "r", newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None or "depth_m" not in reader.fieldnames:
            raise FormatError(f"{path}: expected a depth_m column")
        try:
            depths = np.asarray([float(row["depth_m"]) for row in reader])
        except (TypeError, ValueError) as exc:
            raise FormatError(f"{path}: malformed depth_m value: {exc}") from exc
    if not np.all(np.isfinite(depths)):
        raise FormatError(f"{path}: depth_m values must be finite")
    return depths


def cmd_localize(cfg: RunConfig, args) -> int:
    plan = load_floorplan(_require_file(args.map))
    pred = _read_depth_csv(args.rays)
    if pred.size != cfg.rays.n_rays:
        raise ConfigurationError(
            f"rays file has {pred.size} rays, config expects {cfg.rays.n_rays}"
        )
    embedder = RandomProjectionEmbedder(
        dim=cfg.embedder.dim, seed=cfg.embedder.seed, max_range=cfg.rays.max_range_m
    )
    if args.query_emb:
        query_embedding = read_embeddings(_require_file(args.query_emb))[0]
    elif args.signature:
        query_embedding = embedder.embed_signature(_load_signature(args.signature))
    else:
        raise ConfigurationError("localize needs --signature or --query-emb")

    disambig = cfg.disambig
    if args.w is not None:
        disambig = replace(disambig, w=args.w)
    if args.x is not None:
        disambig = replace(disambig, x=args.x)
    crop_spec = cfg.crop
    if args.crop_m is not None:
        crop_spec = replace(crop_spec, side_m=args.crop_m)

    grid = _grid_for(cfg, plan)
    scorer = GridScorer(
        plan, grid, n_rays=cfg.rays.n_rays, fov=cfg.rays.fov,
        max_range=cfg.rays.max_range_m, threads=args.threads,
    )
    result = localize(
        plan,
        pred,
        grid,
        query_embedding,
        embedder.embed_crop,
        config=disambig,
        crop_spec=crop_spec,
        sigma=cfg.bench.sigma_m,
        scorer=scorer,
    )
    os.makedirs(args.out, exist_ok=True)
    _write_json(os.path.join(args.out, "pose.json"), _pose_doc(result.pose))
    write_probmap(result.dafpm, os.path.join(args.out, "dafpm.dpmf"))
    write_pgm(os.path.join(args.out, "dafpm.pgm"), probmap_graymap(result.dafpm))
    with open(os.path.join(args.out, "candidates.csv"), "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["x", "y", "theta", "depth_prob", "visual_prob", "fused_prob"])
        depth_scores = result.candidates.scores / result.candidates.scores.sum()
        for i, pose in enumerate(result.candidates.poses):
            writer.writerow(
                [
                    _fmt(pose.x),
                    _fmt(pose.y),
                    _fmt(pose.theta),
                    _fmt(depth_scores[i]),
                    _fmt(result.dpm[i]),
                    _fmt(result.fused[i]),
                ]
            )
    echo_config(cfg, args.out)
    return 0


def _mining_dataset(cfg: RunConfig):
    """Anchor dataset across n_worlds generated floorplans, deterministic."""
    plans = []
    pose_pools = []
    texture_base = 0
    for i in range(cfg.bench.n_worlds):
        plan, poses = generate_world(replace(cfg.world, seed=cfg.world.seed + i))
        if plan.texture is not None:
            top = int(plan.texture.max())
            if texture_base:
                plan = relabel_texture(plan, texture_base)
            texture_base += top
        plans.append(plan)
        pose_pools.append(poses)
    rng = np.random.default_rng(np.random.SeedSequence([cfg.mining.seed, 0xA17C]))
    dataset = []
    for j in range(cfg.bench.n_anchors):
        which = j % len(plans)
        pool = pose_pools[which]
        dataset.append((plans[which], pool[int(rng.integers(len(pool)))]))
    return plans, dataset


def _mine_all(cfg: RunConfig) -> tuple[list, list, list[MinedSample], np.ndarray]:
    """Mine every anchor and freeze its visual-side embedding.

    The visual side is the reference embedder applied to the floorplan crop at
    the anchor's true pose, with texture and geometry weighted equally so the
    embedding varies within rooms as well as across them."""
    plans, dataset = _mining_dataset(cfg)
    embedder = RandomProjectionEmbedder(
        dim=cfg.embedder.dim,
        seed=cfg.embedder.seed,
        max_range=cfg.rays.max_range_m,
        texture_weight=1.0,
        geom_weight=1.0,
    )
    mined = []
    anchor_embeddings = []
    for j, (plan, gt) in enumerate(dataset):
        mined.append(mine_samples(dataset, j, cfg.perturb, cfg.mining, cfg.crop))
        anchor_embeddings.append(embedder.embed_crop(extract_crop(plan, gt, cfg.crop)))
    return plans, dataset, mined, np.stack(anchor_embeddings)


def cmd_mine(cfg: RunConfig, args) -> int:
    _, _, mined, anchor_embeddings = _mine_all(cfg)
    os.makedirs(args.out, exist_ok=True)
    crop_dir = os.path.join(args.out, "crops")
    os.makedirs(crop_dir, exist_ok=True)

    def crop_doc(crop: Crop, stem: str) -> dict:
        return {
            "pose": _pose_doc(crop.source_pose),
            "meters_per_px": crop.meters_per_px,
            "files": write_crop_channels(crop, crop_dir, stem),
        }

    records = []
    for j, sample in enumerate(mined):
        record = {
            "anchor": j,
            "anchor_pose": _pose_doc(sample.anchor_pose),
            "anchor_embedding": [float(v) for v in anchor_embeddings[j]],
            "positive": crop_doc(sample.positive, f"a{j:05d}_pos"),
            "position_negatives": [
                crop_doc(c, f"a{j:05d}_pneg{m}")
                for m, c in enumerate(sample.position_negatives)
            ],
            "orientation_negatives": [
                crop_doc(c, f"a{j:05d}_oneg{m}")
                for m, c in enumerate(sample.orientation_negatives)
            ],
        }
        records.append(record)
    write_sample_manifest(os.path.join(args.out, "manifest.jsonl"), records)
    echo_config(cfg, args.out)
    return 0


def cmd_train_embedder(cfg: RunConfig, args) -> int:
    _, dataset, mined, anchor_embeddings = _mine_all(cfg)
    samples = build_training_samples(mined, anchor_embeddings)
    samples = add_peer_negatives(
        samples,
        dataset,
        n_peers=min(PEER_NEGATIVES, max(len(samples) // 2, 1)),
        min_dist=cfg.mining.inner_neg_dist[0],
        seed=cfg.mining.seed,
    )
    embedder, trace = train_linear_embedder(
        samples,
        dim=cfg.embedder.dim,
        epochs=args.epochs,
        learning_rate=args.learning_rate,
        seed=cfg.seed,
    )
    os.makedirs(args.out, exist_ok=True)
    np.savez(
        os.path.join(args.out, "embedder.npz"),
        weights=embedder.weights,
        n_texture_ids=embedder.n_texture_ids,
        blocks=embedder.blocks,
    )
    with open(os.path.join(args.out, "loss_trace.csv"), "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["epoch", "loss"])
        for epoch, loss in enumerate(trace):
            writer.writerow([epoch, _fmt(loss)])
    echo_config(cfg, args.out)
    return 0


def cmd_eval(cfg: RunConfig, args) -> int:
    records = []
    with open(_require_file(args.predictions), "r", newline="") as fh:
        reader = csv.DictReader(fh)
        needed = {"pred_x", "pred_y", "pred_theta", "gt_x", "gt_y", "gt_theta"}
        if reader.fieldnames is None or not needed <= set(reader.fieldnames):
            raise FormatError(
                f"{args.predictions}: expected columns {sorted(needed)}"
            )
        for row in reader:
            records.append(
                EvalRecord(
                    predicted=Pose(
                        float(row["pred_x"]), float(row["pred_y"]), float(row["pred_theta"])
                    ),
                    ground_truth=Pose(
                        float(row["gt_x"]), float(row["gt_y"]), float(row["gt_theta"])
                    ),
                )
            )
    report = evaluate(records)
    os.makedirs(args.out, exist_ok=True)
    with open(os.path.join(args.out, "report.csv"), "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["threshold", "recall", "n"])
        writer.writerow(["0.1m", _fmt(report.recall_0_1m), report.n])
        writer.writerow(["0.5m", _fmt(report.recall_0_5m), report.n])
        writer.writerow(["1m", _fmt(report.recall_1m), report.n])
        writer.writerow(["1m_30deg", _fmt(report.recall_1m_30deg), report.n])
    _write_json(os.path.join(args.out, "report.json"), report.as_dict())
    echo_config(cfg, args.out)
    return 0


def cmd_sweep(cfg: RunConfig, args) -> int:
    values = [float(v) for v in args.values.split(",") if v.strip() != ""]
    if not values:
        raise ConfigurationError("--values must list at least one number")
    bench = bench_mod.build_benchmark(
        world=cfg.world,
        n_orientations=cfg.grid.n_orientations,
        cell_stride=cfg.grid.cell_stride_m,
        n_rays=cfg.rays.n_rays,
        fov=cfg.rays.fov,
        max_range=cfg.rays.max_range_m,
        sigma=cfg.bench.sigma_m,
        crop_spec=cfg.crop,
        embed_dim=cfg.embedder.dim,
        embed_seed=cfg.embedder.seed,
        threads=args.threads,
    )
    queries = bench_mod.sample_queries(bench, cfg.bench.n_queries, cfg.bench.query_seed)
    rows = bench_mod.sweep(
        bench,
        args.param,
        values,
        queries,
        noise=cfg.noise,
        base_config=cfg.disambig,
        seed=cfg.seed,
    )
    os.makedirs(args.out, exist_ok=True)
    with open(os.path.join(args.out, "sweep.csv"), "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            [
                args.param,
                "recall_0.1m",
                "recall_0.5m",
                "recall_1m",
                "recall_1m_30deg",
                "room_accuracy",
                "n",
            ]
        )
        for value, outcome in rows:
            writer.writerow(
                [
                    _fmt(value),
                    _fmt(outcome.report.recall_0_1m),
                    _fmt(outcome.report.recall_0_5m),
                    _fmt(outcome.report.recall_1m),
                    _fmt(outcome.report.recall_1m_30deg),
                    _fmt(outcome.room_accuracy),
                    outcome.report.n,
                ]
            )
    echo_config(cfg, args.out)
    return 0


# ---------------------------------------------------------------------------
# Argument parsing and dispatch
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rayloc",
        description="Floorplan localization by ray casting with contrastive "
        "disambiguation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", default=None, help="JSON run config")
        p.add_argument("--out", default="out", help="output directory")
        p.add_argument("--seed", type=int, default=None)

    p = sub.add_parser("gen-world", help="generate a synthetic floorplan")
    common(p)

    p = sub.add_parser("cast", help="cast a ray fan from a pose")
    common(p)
    p.add_argument("--map", required=True)
    p.add_argument("--x", type=float, required=True)
    p.add_argument("--y", type=float, required=True)
    p.add_argument("--theta", type=float, default=0.0)

    p = sub.add_parser("simulate", help="simulate a noisy observation")
    common(p)
    p.add_argument("--map", required=True)
    p.add_argument("--x", type=float, required=True)
    p.add_argument("--y", type=float, required=True)
    p.add_argument("--theta", type=float, default=0.0)

    p = sub.add_parser("localize", help="run the full localization pipeline")
    common(p)
    p.add_argument("--threads", type=int, default=1, help="table-build worker threads")
    p.add_argument("--map", required=True)
    p.add_argument("--rays", required=True, help="CSV with a depth_m column")
    p.add_argument("--signature", default=None, help="signature JSON from simulate")
    p.add_argument("--query-emb", default=None, help="EMB1 embedding file")
    p.add_argument("--w", type=float, default=None)
    p.add_argument("--x", type=int, default=None, help="candidate count override")
    p.add_argument("--crop-m", type=float, default=None)

    p = sub.add_parser("mine", help="mine contrastive samples")
    common(p)

    p = sub.add_parser("train-embedder", help="train the linear crop embedder")
    common(p)
    p.add_argument("--epochs", type=int, default=100)
    p.add_argument("--learning-rate", type=float, default=0.5)

    p = sub.add_parser("eval", help="recall report for a predictions CSV")
    common(p)
    p.add_argument("--predictions", required=True)

    p = sub.add_parser("sweep", help="re-run the benchmark over one parameter")
    common(p)
    p.add_argument("--threads", type=int, default=1, help="table-build worker threads")
    p.add_argument("--param", choices=["w", "x", "crop-m"], required=True)
    p.add_argument("--values", required=True, help="comma-separated values")

    return parser


COMMANDS = {
    "gen-world": cmd_gen_world,
    "cast": cmd_cast,
    "simulate": cmd_simulate,
    "localize": cmd_localize,
    "mine": cmd_mine,
    "train-embedder": cmd_train_embedder,
    "eval": cmd_eval,
    "sweep": cmd_sweep,
}


def _emit_error(args, code: int, exc: Exception) -> None:
    doc = {"error": {"type": type(exc).__name__, "message": str(exc), "exit": code}}
    print(json.dumps(doc), file=sys.stderr)
    out = getattr(args, "out", None)
    if out:
        try:
            os.makedirs(out, exist_ok=True)
            _write_json(os.path.join(out, "error.json"), doc)
        except OSError:
            pass


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config)
        if args.seed is not None:
            cfg = replace(cfg, seed=args.seed)
        if getattr(args, "threads", 1) < 1:
            raise ConfigurationError(f"--threads must be >= 1, got {args.threads}")
    except FileNotFoundError as exc:
        _emit_error(args, EXIT_MISSING, exc)
        return EXIT_MISSING
    except RaylocError as exc:
        _emit_error(args, EXIT_CONFIG, exc)
        return EXIT_CONFIG
    try:
        return COMMANDS[args.command](cfg, args)
    except FileNotFoundError as exc:
        _emit_error(args, EXIT_MISSING, exc)
        return EXIT_MISSING
    except FormatError as exc:
        _emit_error(args, EXIT_MISSING, exc)
        return EXIT_MISSING
    except ConfigurationError as exc:
        _emit_error(args, EXIT_CONFIG, exc)
        return EXIT_CONFIG
    except RaylocError as exc:
        _emit_error(args, EXIT_RUNTIME, exc)
        return EXIT_RUNTIME


def entry() -> None:  # console-script shim
    raise SystemExit(main())


if __name__ == "__main__":
    raise SystemExit(main())
