"""Training the linear crop embedder with dual-level contrastive mining.

A small-scale version of the training recipe: mine positives plus
position-level and orientation-level negatives across two buildings, train
the linear embedder against frozen visual-side anchors, and measure
retrieval on held-out anchors. Takes about 6 s on 2 vCPUs. Run with:

    python3 demos/04_train_crop_embedder.py
"""

import math

import numpy as np

from rayloc import (
    CropSpec,
    MiningSpec,
    PerturbSpec,
    RandomProjectionEmbedder,
    WorldSpec,
    add_peer_negatives,
    build_training_samples,
    crop_features,
    extract_crop,
    generate_world,
    mine_samples,
    relabel_texture,
    train_linear_embedder,
)

N_ANCHORS = 400
N_TRAIN = 360

crop = CropSpec(out_px=51)
mining = MiningSpec(seed=3, n_inner=4, n_cross=4, n_ori=1)

print("generating two twin-rooms buildings with distinct room appearance...")
worlds = []
texture_base = 0
for seed in (0, 1):
    plan, pool = generate_world(WorldSpec(seed=seed))
    if texture_base:
        plan = relabel_texture(plan, texture_base)
    texture_base += 2
    worlds.append((plan, pool))

rng = np.random.default_rng(42)
dataset = []
for j in range(N_ANCHORS):
    plan, pool = worlds[j % 2]
    dataset.append((plan, pool[int(rng.integers(len(pool)))]))

print(f"mining {N_ANCHORS} anchors (1 positive, 4 inner + 4 cross negatives, 1 rotation)...")
anchor_embedder = RandomProjectionEmbedder(dim=64, seed=7, texture_weight=1.0, geom_weight=1.0)
mined, anchors = [], []
for j, (plan, gt) in enumerate(dataset):
    mined.append(mine_samples(dataset, j, PerturbSpec(), mining, crop))
    anchors.append(anchor_embedder.embed_crop(extract_crop(plan, gt, crop)))
anchors = np.stack(anchors)

samples = build_training_samples(mined, anchors)
samples = add_peer_negatives(samples, dataset, n_peers=16, seed=777, pool=range(N_TRAIN))

print("training the linear embedder (full-batch gradient descent)...")
embedder, trace = train_linear_embedder(
    samples[:N_TRAIN], dim=64, epochs=200, learning_rate=1.0, seed=0
)
print(f"loss: {trace[0]:.3f} -> {trace[-1]:.3f} over {trace.size} epochs")

# held-out retrieval: does the trained crop embedding at the true pose beat
# 31 distractor crops from elsewhere?
feats = np.stack([crop_features(s.positive) for s in mined])
embs = feats @ embedder.weights.T
embs /= np.linalg.norm(embs, axis=1, keepdims=True)

eval_rng = np.random.default_rng(99)
hits = 0
held_out = range(N_TRAIN, N_ANCHORS)
for j in held_out:
    plan, gt = dataset[j]
    eligible = [
        k
        for k in range(N_ANCHORS)
        if k != j
        and (
            dataset[k][0] is not plan
            or math.hypot(dataset[k][1].x - gt.x, dataset[k][1].y - gt.y) >= 1.5
        )
    ]
    pick = eval_rng.choice(len(eligible), size=31, replace=False)
    cand = [j] + [eligible[int(k)] for k in pick]
    if int(np.argmax(embs[cand] @ anchors[j])) == 0:
        hits += 1
print(f"held-out retrieval: {hits}/{len(held_out)} anchors ranked their own crop first")
print("(the full-scale recipe in the acceptance suite reaches >90%)")
