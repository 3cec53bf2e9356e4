"""End-to-end localization with visual disambiguation.

Runs the full pipeline on twin-rooms queries at several fusion weights and
shows how blending the crop-similarity map into the depth posterior resolves
the room ambiguity. Takes about a minute. Run with:

    python3 demos/03_disambiguation_pipeline.py
"""

from rayloc import DisambigConfig, NoiseSpec
from rayloc.bench import build_benchmark, run_benchmark, sample_queries
from rayloc.config import RunConfig
from rayloc.synth import WorldSpec

N_QUERIES = 40

print("building the benchmark (pre-rendering the pose-grid fan table)...")
bench = build_benchmark(RunConfig(world=WorldSpec(seed=0)))
queries = sample_queries(bench, N_QUERIES, seed=1)

print(f"\n{N_QUERIES} noiseless queries at different fusion weights w")
print("(w = 0 ranks by depth alone; w = 1 ranks candidates by visual similarity)")
print(f"{'w':>5} {'recall@0.5m':>12} {'recall@1m,30deg':>16} {'room accuracy':>14}")
for w in (0.0, 0.25, 0.5, 1.0):
    outcome = run_benchmark(bench, queries, config=DisambigConfig(w=w))
    print(
        f"{w:5.2f} {outcome.report.recall_0_5m:12.1%} "
        f"{outcome.report.recall_1m_30deg:16.1%} {outcome.room_accuracy:14.1%}"
    )

print("\nsame queries with 0.1 m depth noise")
print(f"{'w':>5} {'recall@0.5m':>12} {'room accuracy':>14}")
for w in (0.0, 0.5):
    outcome = run_benchmark(
        bench, queries, noise=NoiseSpec(depth_sigma=0.1), config=DisambigConfig(w=w)
    )
    print(f"{w:5.2f} {outcome.report.recall_0_5m:12.1%} {outcome.room_accuracy:14.1%}")

print(
    "\nDepth alone stalls near 50% room accuracy (the twin tie); fusing the"
    "\ncrop-similarity map recovers the correct room and most of the recall"
    "\nlost to noise."
)
