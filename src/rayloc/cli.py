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
from .config import CONVERTERS, RunConfig, load_config
from .contrastive import (
    MinedSample,
    add_peer_negatives,
    build_training_samples,
    mine_samples,
    read_embeddings,
    train_linear_embedder,
    write_sample_manifest,
)
from .crops import N_TEXTURE_IDS, POOL_BLOCKS, export_crop, extract_crop
from .disambig import localize
from .errors import ConfigurationError, FormatError, RaylocError, ValidationError
from .floorplan import (
    Pose,
    check_depth_range,
    load_floorplan,
    ray_bearings,
    render_gt_rays,
    save_floorplan,
    write_pgm,
)
from .metrics import EvalRecord, EvalReport, evaluate
from .scoring import probmap_graymap, write_probmap
from .synth import (
    NoiseSpec,
    ObservationSignature,
    RandomProjectionEmbedder,
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


def _write_json(path: str, doc) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _require_file(path: str) -> str:
    """`path`, if it names a regular file that this process may read."""
    if not os.path.exists(path):
        raise FileNotFoundError(path)
    if not os.path.isfile(path) or not os.access(path, os.R_OK):
        raise FormatError(f"{path}: not a readable file")
    return path


def _write_csv(path: str, header: list[str], rows) -> None:
    """Header row, then one line per row; floats are written with FLOAT_FMT."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([FLOAT_FMT.format(v) if isinstance(v, float) else v for v in row])


def _read_columns(path: str, names: list[str]) -> np.ndarray:
    """The named columns of a CSV file with a header row, as an (n_rows,
    len(names)) array. Every value must be a finite number."""
    with open(_require_file(path), "r", newline="") as fh:
        try:
            reader = csv.DictReader(fh)
            if not set(names) <= set(reader.fieldnames or ()):
                raise FormatError(f"{path}: expected columns {names}")
            values = np.array([[float(row[n]) for n in names] for row in reader])
        except (csv.Error, TypeError, ValueError) as exc:
            raise FormatError(f"{path}: malformed {'/'.join(names)} value: {exc}") from exc
    if not np.all(np.isfinite(values)):
        raise FormatError(f"{path}: {'/'.join(names)} values must be finite")
    return values.reshape(-1, len(names))


def _recalls(report: EvalReport) -> dict:
    return {key: value for key, value in report.as_dict().items() if key != "n"}


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def cmd_gen_world(cfg: RunConfig, args) -> None:
    plan, poses = generate_world(cfg.world)
    save_floorplan(plan, os.path.join(args.out, "map.pgm"))
    _write_json(
        os.path.join(args.out, "poses.json"),
        {"poses": [p.as_dict() for p in poses]},
    )


def cmd_cast(cfg: RunConfig, args) -> None:
    plan = load_floorplan(_require_file(args.map))
    fan = render_gt_rays(
        plan,
        Pose(args.x, args.y, args.theta),
        n_rays=cfg.rays.n_rays,
        fov=cfg.rays.fov,
        max_range=cfg.rays.max_range_m,
    )
    bearings = ray_bearings(args.theta, cfg.rays.n_rays, cfg.rays.fov)
    _write_csv(
        os.path.join(args.out, "rays.csv"),
        ["bearing_rad", "depth_m", "hit"],
        zip(bearings, fan.depths, fan.hits.astype(int)),
    )


def cmd_simulate(cfg: RunConfig, args) -> None:
    plan = load_floorplan(_require_file(args.map))
    pose = Pose(args.x, args.y, args.theta)
    pred, signature = simulate_observation(
        plan,
        pose,
        noise=cfg.noise,
        seed=cfg.seed,
        n_rays=cfg.rays.n_rays,
        fov=cfg.rays.fov,
        max_range=cfg.rays.max_range_m,
    )
    _write_csv(os.path.join(args.out, "rays.csv"), ["ray", "depth_m"], enumerate(pred))
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
            "gt_pose": pose.as_dict(),
        },
    )


def _load_signature(path: str) -> ObservationSignature:
    with open(_require_file(path), "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
            return ObservationSignature(
                depths=np.asarray(doc["depths_m"], dtype=float),
                texture_counts=[CONVERTERS[int](c) for c in doc["texture_counts"]],
                fov=float(doc["fov_rad"]),
                max_range=float(doc["max_range_m"]),
                noise=NoiseSpec(
                    depth_sigma=float(doc["noise"]["depth_sigma_m"]),
                    dropout=float(doc["noise"]["dropout"]),
                ),
            )
        except (KeyError, TypeError, ValueError, OverflowError, ValidationError) as exc:
            raise FormatError(f"{path}: malformed signature: {exc!r}") from exc


def cmd_localize(cfg: RunConfig, args) -> None:
    plan = load_floorplan(_require_file(args.map))
    pred = _read_columns(args.rays, ["depth_m"])[:, 0]
    if pred.size != cfg.rays.n_rays:
        raise ConfigurationError(
            f"rays file has {pred.size} rays, config expects {cfg.rays.n_rays}"
        )
    check_depth_range(pred, cfg.rays.max_range_m)  # before the table build
    if args.query_emb:
        embeddings = read_embeddings(_require_file(args.query_emb))
        if embeddings.shape[0] == 0 or not np.all(np.isfinite(embeddings[0])):
            raise FormatError(f"{args.query_emb}: the first row must exist and be finite")
        if embeddings.shape[1] != cfg.embedder.dim:
            raise ConfigurationError(
                f"query embedding has width {embeddings.shape[1]}, "
                f"config expects embedder.dim = {cfg.embedder.dim}"
            )
        query = embeddings[0]
    elif args.signature:
        query = _load_signature(args.signature)
        check_depth_range(query.depths, cfg.rays.max_range_m, "signature depths")
    else:
        raise ConfigurationError("localize needs --signature or --query-emb")

    scorer, embedder = bench_mod.build_pipeline(cfg, plan, args.threads)
    if isinstance(query, ObservationSignature):
        query = embedder.embed_signature(query)
    result = localize(
        plan,
        pred,
        scorer.grid,
        query,
        embedder.embed_crop,
        config=cfg.disambig,
        crop_spec=cfg.crop,
        sigma=cfg.bench.sigma_m,
        scorer=scorer,
    )
    _write_json(os.path.join(args.out, "pose.json"), result.pose.as_dict())
    write_probmap(result.dafpm, os.path.join(args.out, "dafpm.dpmf"))
    write_pgm(os.path.join(args.out, "dafpm.pgm"), probmap_graymap(result.dafpm))
    depth_scores = result.candidates.scores / result.candidates.scores.sum()
    _write_csv(
        os.path.join(args.out, "candidates.csv"),
        ["x", "y", "theta", "depth_prob", "visual_prob", "fused_prob"],
        (
            (p.x, p.y, p.theta, *probs)
            for p, *probs in zip(result.candidates.poses, depth_scores, result.dpm, result.fused)
        ),
    )


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
        if not pool:
            raise ConfigurationError(
                f"world seed {cfg.world.seed + which} yields no ground-truth poses to mine"
            )
        dataset.append((plans[which], pool[int(rng.integers(len(pool)))]))
    return dataset


def _mine_all(cfg: RunConfig) -> tuple[list, list[MinedSample], np.ndarray]:
    """Mine every anchor and freeze its visual-side embedding.

    The visual side is the reference embedder applied to the floorplan crop at
    the anchor's true pose, with texture and geometry weighted equally so the
    embedding varies within rooms as well as across them."""
    dataset = _mining_dataset(cfg)
    embedder = RandomProjectionEmbedder(
        dim=cfg.embedder.dim,
        seed=cfg.embedder.seed,
        max_range=cfg.rays.max_range_m,
        texture_weight=1.0,
        geom_weight=1.0,
    )
    mined = [mine_samples(dataset, j, cfg.perturb, cfg.mining, cfg.crop) for j in range(len(dataset))]
    anchors = np.stack([embedder.embed_crop(extract_crop(plan, gt, cfg.crop)) for plan, gt in dataset])
    return dataset, mined, anchors


def cmd_mine(cfg: RunConfig, args) -> None:
    _, mined, anchor_embeddings = _mine_all(cfg)
    crop_dir = os.path.join(args.out, "crops")
    os.makedirs(crop_dir, exist_ok=True)
    records = []
    for j, sample in enumerate(mined):
        record = {
            "anchor": j,
            "anchor_pose": sample.anchor_pose.as_dict(),
            "anchor_embedding": [float(v) for v in anchor_embeddings[j]],
            "positive": export_crop(sample.positive, crop_dir, f"a{j:05d}_pos"),
            "position_negatives": [
                export_crop(c, crop_dir, f"a{j:05d}_pneg{m}")
                for m, c in enumerate(sample.position_negatives)
            ],
            "orientation_negatives": [
                export_crop(c, crop_dir, f"a{j:05d}_oneg{m}")
                for m, c in enumerate(sample.orientation_negatives)
            ],
        }
        records.append(record)
    write_sample_manifest(os.path.join(args.out, "manifest.jsonl"), records)


def cmd_train_embedder(cfg: RunConfig, args) -> None:
    dataset, mined, anchor_embeddings = _mine_all(cfg)
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
        epochs=cfg.embedder.epochs,
        learning_rate=cfg.embedder.learning_rate,
        seed=cfg.seed,
    )
    np.savez(
        os.path.join(args.out, "embedder.npz"),
        weights=embedder.weights,
        n_texture_ids=N_TEXTURE_IDS,
        blocks=POOL_BLOCKS,
    )
    _write_csv(os.path.join(args.out, "loss_trace.csv"), ["epoch", "loss"], enumerate(trace))


def cmd_eval(cfg: RunConfig, args) -> None:
    columns = _read_columns(
        args.predictions, ["pred_x", "pred_y", "pred_theta", "gt_x", "gt_y", "gt_theta"]
    )
    report = evaluate([EvalRecord(Pose(*r[:3]), Pose(*r[3:])) for r in columns.tolist()])
    _write_csv(
        os.path.join(args.out, "report.csv"),
        ["threshold", "recall", "n"],
        [(key.removeprefix("recall_"), v, report.n) for key, v in _recalls(report).items()],
    )
    _write_json(os.path.join(args.out, "report.json"), report.as_dict())


def cmd_sweep(cfg: RunConfig, args) -> None:
    try:
        values = [float(v) for v in args.values.split(",") if v.strip() != ""]
        points = bench_mod.sweep_points(args.param, values, cfg.disambig, cfg.crop)
    except (ValueError, ValidationError) as exc:
        raise ConfigurationError(f"bad --values for {args.param}: {exc}") from exc
    if not points:
        raise ConfigurationError("--values must list at least one number")
    bench = bench_mod.build_benchmark(cfg, args.threads)
    queries = bench_mod.sample_queries(bench, cfg.bench.n_queries, cfg.bench.query_seed)
    rows = bench_mod.sweep(bench, points, queries, noise=cfg.noise, seed=cfg.seed)
    _write_csv(
        os.path.join(args.out, "sweep.csv"),
        [args.param, *_recalls(rows[0][1].report), "room_accuracy", "n"],
        (
            (value, *_recalls(outcome.report).values(), outcome.room_accuracy, outcome.report.n)
            for value, outcome in rows
        ),
    )


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

    for name, what in (("cast", "cast a ray fan"), ("simulate", "simulate a noisy observation")):
        p = sub.add_parser(name, help=f"{what} from a pose")
        common(p)
        p.add_argument("--map", required=True)
        p.add_argument("--x", type=float, required=True)
        p.add_argument("--y", type=float, required=True)
        p.add_argument("--theta", type=float, default=0.0)

    p = sub.add_parser("localize", help="run the full localization pipeline")
    common(p)
    p.add_argument("--threads", type=int, help="table-build worker threads (default: usable CPUs)")
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
    p.add_argument("--epochs", type=int, default=None)
    p.add_argument("--learning-rate", type=float, default=None)

    p = sub.add_parser("eval", help="recall report for a predictions CSV")
    common(p)
    p.add_argument("--predictions", required=True)

    p = sub.add_parser("sweep", help="re-run the benchmark over one parameter")
    common(p)
    p.add_argument("--threads", type=int, help="table-build worker threads (default: usable CPUs)")
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
    try:
        _write_json(os.path.join(args.out, "error.json"), doc)
    except OSError:  # --out is not a directory
        pass


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    running = False  # a RaylocError before the command runs is a config error
    try:
        try:
            os.makedirs(args.out, exist_ok=True)
        except OSError as exc:
            raise ConfigurationError(f"--out {args.out!r} is not a usable directory: {exc}") from exc
        cfg = load_config(args.config and _require_file(args.config))
        if args.seed is not None:
            cfg = replace(cfg, seed=args.seed)
            if args.command == "gen-world":  # --seed picks the world, echoed as world.seed
                cfg = replace(cfg, world=replace(cfg.world, seed=args.seed))
        if args.command == "localize":  # --x is the pose's x on cast and simulate
            for param, value in (("w", args.w), ("x", args.x), ("crop-m", args.crop_m)):
                if value is not None:
                    try:
                        [(_, disambig, crop)] = bench_mod.sweep_points(
                            param, [value], cfg.disambig, cfg.crop
                        )
                    except ValidationError as exc:
                        raise ConfigurationError(f"bad --{param}: {exc}") from exc
                    cfg = replace(cfg, disambig=disambig, crop=crop)
        if args.command == "train-embedder":
            for key in ("epochs", "learning_rate"):
                value = getattr(args, key)
                if value is not None:
                    try:
                        cfg = replace(cfg, embedder=replace(cfg.embedder, **{key: value}))
                    except ValidationError as exc:
                        raise ConfigurationError(f"bad --{key.replace('_', '-')}: {exc}") from exc
        if getattr(args, "threads", None) is not None and args.threads < 1:
            raise ConfigurationError(f"--threads must be >= 1, got {args.threads}")
        running = True
        COMMANDS[args.command](cfg, args)
    except (FileNotFoundError, RaylocError) as exc:
        if isinstance(exc, (FileNotFoundError, FormatError)):
            code = EXIT_MISSING
        elif isinstance(exc, ConfigurationError) or not running:
            code = EXIT_CONFIG
        else:
            code = EXIT_RUNTIME
        _emit_error(args, code, exc)
        return code
    _write_json(os.path.join(args.out, "resolved_config.json"), cfg.resolved())
    return 0


def entry() -> None:  # console-script shim
    raise SystemExit(main())


if __name__ == "__main__":
    raise SystemExit(main())
