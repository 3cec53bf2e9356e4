"""Floorplan localization by 2D ray casting, with visual-geometric
contrastive disambiguation of repetitive structure."""

from .contrastive import (
    ContrastiveBatch,
    LinearEmbedder,
    MiningSpec,
    PerturbSpec,
    add_peer_negatives,
    build_training_samples,
    crop_features,
    mine_samples,
    point_info_nce,
    point_info_nce_grad,
    train_linear_embedder,
)
from .crops import Crop, CropSpec, extract_crop
from .disambig import DisambigConfig, build_dpm, fuse_and_select, localize
from .errors import RaylocError
from .floorplan import (
    FloorPlan,
    Pose,
    RayFan,
    cast_ray,
    load_floorplan,
    render_gt_rays,
    save_floorplan,
)
from .metrics import EvalRecord, EvalReport, evaluate
from .raybins import BinSpec, bin_centers, encode_depth, expected_depths, floc_loss
from .scoring import (
    CandidateSet,
    GridScorer,
    PoseGridSpec,
    ProbMap,
    argmax_pose,
    top_x,
)
from .synth import (
    NoiseSpec,
    ObservationSignature,
    RandomProjectionEmbedder,
    WorldSpec,
    generate_world,
    relabel_texture,
    simulate_observation,
)

__version__ = "0.1.0"

__all__ = [
    "BinSpec",
    "CandidateSet",
    "ContrastiveBatch",
    "Crop",
    "CropSpec",
    "DisambigConfig",
    "EvalRecord",
    "EvalReport",
    "FloorPlan",
    "GridScorer",
    "LinearEmbedder",
    "MiningSpec",
    "NoiseSpec",
    "ObservationSignature",
    "PerturbSpec",
    "Pose",
    "PoseGridSpec",
    "ProbMap",
    "RandomProjectionEmbedder",
    "RayFan",
    "RaylocError",
    "WorldSpec",
    "add_peer_negatives",
    "argmax_pose",
    "bin_centers",
    "build_dpm",
    "build_training_samples",
    "crop_features",
    "cast_ray",
    "encode_depth",
    "evaluate",
    "expected_depths",
    "extract_crop",
    "floc_loss",
    "fuse_and_select",
    "generate_world",
    "load_floorplan",
    "localize",
    "mine_samples",
    "point_info_nce",
    "relabel_texture",
    "point_info_nce_grad",
    "render_gt_rays",
    "save_floorplan",
    "simulate_observation",
    "top_x",
    "train_linear_embedder",
]
