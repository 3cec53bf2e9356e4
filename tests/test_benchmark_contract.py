"""The benchmark's contract with the program.

perfbench times each layer by wrapping rayloc functions that it names in
``perfbench/tracing.py`` (TARGETS), and calls rayloc with a fixed set of
keywords (``perfbench/workloads.py``). A renamed function or a changed
keyword would only show when a benchmark run fails; here the same paths run
small, under the same instrumentation, and every layer they run must be
observed.
"""

import importlib
import importlib.util
import json
import math
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from rayloc import cli, contrastive, crops, disambig, raybins, scoring, synth
from rayloc.contrastive import MiningSpec, PerturbSpec
from rayloc.crops import CropSpec
from rayloc.raybins import BinSpec, encode_depth
from rayloc.synth import NoiseSpec, RandomProjectionEmbedder, WorldSpec

_spec = importlib.util.spec_from_file_location(
    "perfbench_tracing", Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
)
tracing = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tracing)

# the benchmark's ray sensor (workloads.py), with a coarse grid to keep the build small
N_RAYS, FOV, MAX_RANGE, SIGMA = 40, math.radians(108.0), 10.0, 0.5
GRID = scoring.PoseGridSpec(cell_stride=0.5, n_orientations=4)


def _unobserved(workload: str, spans, units: int) -> list[str]:
    extras = {
        "units": units, "flip_frac": 0.0, "true_room_in_candidates_frac": 0.0,
        "overhead_pct": 0.0, "attributed_pct": 0.0, "process_overhead_ms": 0.0,
        "artifact_bytes": 0,
    }
    return tracing.layer_metrics(workload, spans, extras)[1]


@pytest.mark.parametrize("target", tracing.TARGETS, ids=[t[0] for t in tracing.TARGETS])
def test_every_traced_name_resolves(target):
    _, module, attr, _ = target
    owner = importlib.import_module(module)
    if "." in attr:
        cls_name, method = attr.split(".")
        assert callable(vars(getattr(owner, cls_name)).get(method)), attr
    else:
        assert callable(getattr(owner, attr, None)), attr


@pytest.mark.parametrize("block_rays", [None, 1_000])
def test_twin_setup_spans_count_every_table_ray(monkeypatch, block_rays):
    """The table build's cast_rays spans, one per block, sum to the table's
    rays, so floorplan.cast_rays.rays and ns_per_ray count every one."""
    if block_rays is not None:  # many blocks, the last ragged
        monkeypatch.setattr(scoring, "BLOCK_RAYS", block_rays)
    tracer = tracing.Tracer()
    with tracing.Instrumentation(tracer):
        tracer.request = "setup"
        plan, _ = synth.generate_world(WorldSpec(seed=1))
        scorer = scoring.GridScorer(plan, GRID, n_rays=N_RAYS, fov=FOV, max_range=MAX_RANGE)
    stats = tracing.SpanStats(tracer.spans)
    table_rays = scorer.n_free * GRID.n_orientations * N_RAYS
    per_block = max(1, scoring.BLOCK_RAYS // scorer.n_free) * scorer.n_free
    assert stats.attr("floorplan.cast_rays", "rays") == table_rays
    assert stats.calls("floorplan.cast_rays") == -(-table_rays // per_block)


def test_twin_warm_path_observes_every_layer():
    tracer = tracing.Tracer()
    with tracing.Instrumentation(tracer):
        tracer.request = "setup"
        plan, pool = synth.generate_world(WorldSpec(seed=1))
        scorer = scoring.GridScorer(plan, GRID, n_rays=N_RAYS, fov=FOV, max_range=MAX_RANGE)
        embedder = RandomProjectionEmbedder(dim=64, seed=7, max_range=MAX_RANGE)
        for i, gt in enumerate(pool[:2]):
            tracer.request = i
            pred, signature = synth.simulate_observation(
                plan, gt, noise=NoiseSpec(depth_sigma=0.05), seed=i,
                n_rays=N_RAYS, fov=FOV, max_range=MAX_RANGE,
            )
            depths = raybins.expected_depths(encode_depth(pred, BinSpec()), BinSpec())
            result = tracer.call(
                "request", disambig.localize,
                plan, depths, GRID, embedder.embed_signature(signature), embedder.embed_crop,
                config=disambig.DisambigConfig(w=0.5, x=100), crop_spec=CropSpec(),
                sigma=SIGMA, scorer=scorer, n_rays=N_RAYS, fov=FOV, max_range=MAX_RANGE,
            )
            assert np.isfinite(result.dafpm.values).all()
            assert len(result.candidates) == 100
    assert _unobserved(tracing.TWIN, tracer.spans, units=2) == []
    # perfbench's per-request .calls and per-call .us assume one call per
    # crop and per embedding, and one top_x, in every localize
    for i in range(2):
        calls = Counter(span[tracing.NAME] for span in tracer.spans if span[tracing.REQUEST] == i)
        assert (calls["crops.extract_crop"], calls["synth.embed_crop"], calls["scoring.top_x"]) == (
            100, 100, 1,
        )


def test_corridor_cold_path_observes_every_layer(tmp_path):
    config = tmp_path / "corridor.json"
    config.write_text(json.dumps({
        "world": {"layout": "corridor-of-2", "extent_m": [8.0, 4.0], "seed": 0},
        "grid": {"cell_stride_m": 0.5, "n_orientations": 4},
    }))
    world, sim = tmp_path / "world", tmp_path / "sim"
    assert cli.main(["gen-world", "--config", str(config), "--out", str(world)]) == 0
    pose = json.loads((world / "poses.json").read_text())["poses"][0]
    argv = ["simulate", "--config", str(config), "--map", str(world / "map.pgm")]
    argv += ["--x", repr(pose["x"]), "--y", repr(pose["y"]), "--theta", repr(pose["theta"])]
    assert cli.main([*argv, "--out", str(sim)]) == 0

    tracer = tracing.Tracer()
    tracer.request = 0
    with tracing.Instrumentation(tracer):
        code = cli.main([
            "localize", "--config", str(config), "--map", str(world / "map.pgm"),
            "--rays", str(sim / "rays.csv"), "--signature", str(sim / "signature.json"),
            "--out", str(tmp_path / "loc"),
        ])
    assert code == 0
    assert _unobserved(tracing.CORRIDOR, tracer.spans, units=1) == []


def test_embedder_train_path_observes_every_layer():
    worlds = [synth.generate_world(WorldSpec(seed=s)) for s in (2, 3)]
    worlds[1] = (synth.relabel_texture(worlds[1][0], int(worlds[0][0].texture.max())), worlds[1][1])
    dataset = [(plan, pool[k]) for k in (0, 40, 80) for plan, pool in worlds]
    crop = CropSpec(out_px=51)
    mining = MiningSpec(seed=0, n_inner=4, n_cross=4, n_ori=1)
    anchor_embedder = RandomProjectionEmbedder(
        dim=64, seed=7, texture_weight=1.0, geom_weight=1.0
    )

    tracer = tracing.Tracer()
    tracer.request = 0
    with tracing.Instrumentation(tracer):
        mined = [
            contrastive.mine_samples(dataset, j, PerturbSpec(), mining, crop)
            for j in range(len(dataset))
        ]
        anchors = np.stack(
            [anchor_embedder.embed_crop(crops.extract_crop(plan, gt, crop)) for plan, gt in dataset]
        )
        samples = contrastive.build_training_samples(mined, anchors)
        samples = contrastive.add_peer_negatives(samples, dataset, n_peers=2, min_dist=1.5, seed=0)
        _, losses = contrastive.train_linear_embedder(
            samples, dim=64, epochs=3, learning_rate=1.0, seed=0
        )
    assert np.isfinite(losses).all()
    assert _unobserved(tracing.TRAIN, tracer.spans, units=1) == []
