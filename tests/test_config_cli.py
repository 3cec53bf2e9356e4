"""Run-config parsing and the command-line interface."""

import csv
import dataclasses
import json
import math
import os
import re
import struct
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from rayloc.cli import EXIT_CONFIG, EXIT_MISSING, EXIT_RUNTIME, build_parser, main
from rayloc.config import (
    CONVERTERS,
    KEY_RENAMES,
    SCHEMA,
    RunConfig,
    _integer,
    _number,
    _pair,
    load_config,
    parse_config,
)
from rayloc.contrastive import write_embeddings
from rayloc.errors import ConfigurationError, RaylocError, ValidationError
from rayloc.floorplan import cast_ray, load_floorplan
from rayloc.scoring import MAX_TABLE_RANGE, GridScorer


_FLOATS = st.floats(min_value=1e-3, max_value=1e3)

# a value for each key, chosen by the key's converter unless the target
# dataclass accepts a narrower domain than the converter does
_KEY_VALUES = {
    ("rays", "n_rays"): st.integers(2, 720),
    ("rays", "fov_deg"): st.floats(min_value=0.5, max_value=359.5),
    ("grid", "cell_stride_m"): st.none() | _FLOATS,
    ("crop", "out_px"): st.none() | st.integers(2, 256),
    ("crop", "channels"): st.sampled_from(["occupancy", "occupancy+texture"]),
    ("disambig", "w"): st.floats(min_value=0.0, max_value=1.0),
    ("noise", "dropout"): st.floats(min_value=0.0, max_value=1.0),
    ("world", "layout"): st.sampled_from(["twin-rooms", "random-partition", "corridor-of-3"]),
    ("world", "texture_policy"): st.sampled_from(["distinct", "none"]),
    ("embedder", "dim"): st.integers(2, 512),
}
_CONVERTER_VALUES = {
    _number: _FLOATS | st.integers(1, 1000),
    _integer: st.integers(1, 10**6),
    _pair: st.lists(_FLOATS, min_size=2, max_size=2, unique=True).map(sorted),
}


def _section_is_valid(name: str, sub: dict) -> bool:
    # cross-field rules (d_min < d_max) are left to the dataclass
    try:
        parse_config({name: sub})
    except ValidationError:
        return False
    return True


@st.composite
def valid_documents(draw) -> dict:
    """A valid run-config document with a random subset of sections and keys,
    drawn from the config schema."""
    doc = {}
    for name in draw(st.lists(st.sampled_from(sorted(SCHEMA)), unique=True)):
        keys = SCHEMA[name][1]
        chosen = draw(st.lists(st.sampled_from(sorted(keys)), unique=True))
        values = {
            key: _KEY_VALUES.get((name, key), _CONVERTER_VALUES.get(keys[key][1]))
            for key in chosen
        }
        doc[name] = draw(
            st.fixed_dictionaries(values).filter(lambda sub: _section_is_valid(name, sub))
        )
    if draw(st.booleans()):
        doc["seed"] = draw(st.integers(0, 2**32))
    return doc


class TestParseConfig:
    def test_defaults(self):
        cfg = parse_config({})
        assert cfg.rays.n_rays == 40
        assert cfg.rays.fov == pytest.approx(math.radians(108.0))
        assert cfg.grid.cell_stride_m is None
        assert cfg.crop.side_m == 5.0
        assert cfg.disambig.w == 0.5
        assert cfg.world.layout == "twin-rooms"
        assert cfg.mining.n_cross == 8
        assert cfg.seed == 0

    def test_unknown_top_level_key(self):
        with pytest.raises(ConfigurationError):
            parse_config({"raygun": {}})

    def test_unknown_section_key(self):
        with pytest.raises(ConfigurationError):
            parse_config({"rays": {"n_rays": 10, "color": "red"}})

    def test_section_must_be_object(self):
        with pytest.raises(ConfigurationError):
            parse_config({"rays": 5})

    def test_malformed_value(self):
        with pytest.raises(ConfigurationError):
            parse_config({"rays": {"n_rays": "many"}})

    def test_invalid_domain_value(self):
        # out-of-range values surface as the target dataclass's own
        # ValidationError; the CLI maps both onto the config exit code
        with pytest.raises(RaylocError):
            parse_config({"disambig": {"w": 2.0}})

    def test_overrides_apply(self):
        cfg = parse_config(
            {
                "rays": {"n_rays": 16},
                "world": {"layout": "corridor-of-2", "extent_m": [8.0, 5.0]},
                "disambig": {"w": 0.25},
                "seed": 7,
            }
        )
        assert cfg.rays.n_rays == 16
        assert cfg.world.layout == "corridor-of-2"
        assert cfg.world.extent == (8.0, 5.0)
        assert cfg.disambig.w == 0.25
        assert cfg.seed == 7

    @settings(max_examples=200)
    @given(doc=valid_documents())
    def test_resolved_round_trips(self, doc):
        cfg = parse_config(doc)
        echoed = cfg.resolved()
        assert parse_config(json.loads(json.dumps(echoed))) == cfg
        # every value the document sets is echoed under its own key
        for name, value in doc.items():
            assert echoed[name] == (value if name == "seed" else {**echoed[name], **value})

    @settings(max_examples=100)
    @given(
        doc=valid_documents(),
        section=st.sampled_from(sorted(SCHEMA)),
        key=st.text(min_size=1, max_size=12),
    )
    def test_unknown_key_in_any_section(self, doc, section, key):
        assume(key not in SCHEMA[section][1])
        doc[section] = {**doc.get(section, {}), key: 1}
        with pytest.raises(ConfigurationError, match="unknown keys"):
            parse_config(doc)

    @pytest.mark.parametrize(
        "doc",
        [
            {"rays": {"n_rays": 40.9}},
            {"rays": {"n_rays": True}},
            {"rays": {"fov_deg": "90"}},
            {"rays": {"max_range_m": None}},
            {"rays": {"max_range_m": 10**400}},
            {"world": {"extent_m": [6, 4, 3]}},
            {"world": {"extent_m": "ab"}},
            {"world": {"extent_m": [6, False]}},
            {"world": {"layout": 3}},
            {"mining": {"inner_neg_dist_m": [1.5]}},
            {"crop": {"out_px": 32.5}},
            {"seed": 1.5},
        ],
    )
    def test_strict_converters(self, doc):
        with pytest.raises(ConfigurationError, match="malformed config value"):
            parse_config(doc)

    def test_integral_numbers_convert(self):
        cfg = parse_config(
            {"rays": {"n_rays": 16.0, "fov_deg": 90}, "world": {"extent_m": [10, 4]}}
        )
        assert cfg.rays.n_rays == 16 and isinstance(cfg.rays.n_rays, int)
        assert cfg.rays.fov_deg == 90.0 and isinstance(cfg.rays.fov_deg, float)
        # pairs are stored as floats, so an integer pair echoes as floats
        assert json.dumps(cfg.resolved()["world"]["extent_m"]) == "[10.0, 4.0]"

    @pytest.mark.parametrize(
        "section,key,value",
        [
            ("rays", "n_rays", 1),
            ("rays", "fov_deg", 0.0),
            ("rays", "fov_deg", 360.0),
            ("rays", "max_range_m", 0.0),
            ("rays", "max_range_m", 2147.5),  # past the int32 table's range
            ("grid", "cell_stride_m", 0.0),
            ("grid", "n_orientations", 0),
            ("bench", "n_queries", 0),
            ("bench", "n_worlds", 0),
            ("bench", "n_anchors", 0),
            ("bench", "sigma_m", 0.0),
            ("embedder", "dim", 1),
            ("embedder", "epochs", 0),
            ("embedder", "learning_rate", 0.0),
            ("embedder", "learning_rate", -0.5),
        ],
    )
    def test_range_checks(self, section, key, value):
        with pytest.raises(ValidationError, match=key):
            parse_config({section: {key: value}})

    def test_max_range_up_to_the_int32_table_cap(self):
        cfg = parse_config({"rays": {"max_range_m": MAX_TABLE_RANGE}})
        assert cfg.rays.max_range_m == MAX_TABLE_RANGE

    def test_readme_table_lists_every_default(self):
        readme = Path(__file__).resolve().parents[1] / "README.md"
        row = re.compile(r"^\| (?:`(\w+)`|—) \| `(\w+)` \| `([^`]*)` \|")
        documented = {}
        for line in readme.read_text(encoding="utf-8").splitlines():
            match = row.match(line)
            if match:
                section, key, default = match.groups()
                target = documented.setdefault(section, {}) if section else documented
                target[key] = json.loads(default)
        assert documented == parse_config({}).resolved()

    def test_load_config(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text('{"seed": 11}')
        assert load_config(str(path)).seed == 11
        assert load_config(None).seed == 0
        bad = tmp_path / "bad.json"
        bad.write_text("{nope")
        with pytest.raises(ConfigurationError):
            load_config(str(bad))


# every key whose value is one or two floats, as (section, key)
_FLOAT_KEYS = sorted(
    (name, key)
    for name, (_, keys) in SCHEMA.items()
    for key, (_, convert) in keys.items()
    if convert in (CONVERTERS[float], CONVERTERS[float | None], CONVERTERS[tuple[float, float]])
)


class TestSchema:
    def test_sections_are_the_run_config_dataclasses(self):
        defaults = RunConfig()
        assert list(SCHEMA) == [f.name for f in dataclasses.fields(RunConfig) if f.name != "seed"]
        for name, (cls, _) in SCHEMA.items():
            assert type(getattr(defaults, name)) is cls

    def test_every_section_field_is_a_key(self):
        for cls, keys in SCHEMA.values():
            names = [f.name for f in dataclasses.fields(cls)]
            assert [field for field, _ in keys.values()] == names
            assert list(keys) == [KEY_RENAMES.get(n, n) for n in names]

    def test_every_rename_names_a_section_field(self):
        fields = {f.name for cls, _ in SCHEMA.values() for f in dataclasses.fields(cls)}
        assert set(KEY_RENAMES) <= fields
        # a rename only adds the unit the field name leaves out
        for field, key in KEY_RENAMES.items():
            assert key.startswith(field + "_")

    @settings(max_examples=60)
    @given(
        doc=valid_documents(),
        target=st.sampled_from(_FLOAT_KEYS),
        bad=st.sampled_from([math.nan, math.inf, -math.inf]),
        slot=st.integers(0, 1),
    )
    def test_non_finite_number_is_config_error(self, doc, target, bad, slot):
        # JSON as Python writes and reads it admits NaN and Infinity
        name, key = target
        default = parse_config({}).resolved()[name][key]
        value = bad
        if isinstance(default, list):
            value = list(default)
            value[slot] = bad
        doc.setdefault(name, {})[key] = value
        with pytest.raises(ConfigurationError, match=f"{name}.{key}.*finite"):
            parse_config(doc)
        with tempfile.TemporaryDirectory() as tmp:
            cfg = os.path.join(tmp, "cfg.json")
            with open(cfg, "w") as fh:
                json.dump(doc, fh)
            out = os.path.join(tmp, "o")
            assert main(["gen-world", "--config", cfg, "--out", out]) == EXIT_CONFIG
            with open(os.path.join(out, "error.json")) as fh:
                assert json.load(fh)["error"]["exit"] == EXIT_CONFIG


SMALL_WORLD = {
    "world": {"extent_m": [6.0, 4.0], "seed": 0},
    "grid": {"n_orientations": 12},
    "rays": {"n_rays": 16},
}


@pytest.fixture(scope="module")
def small_config_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("cfg") / "small.json"
    path.write_text(json.dumps(SMALL_WORLD))
    return str(path)


@pytest.fixture(scope="module")
def generated_world(small_config_path, tmp_path_factory):
    out = tmp_path_factory.mktemp("world")
    code = main(
        ["gen-world", "--config", small_config_path, "--out", str(out)]
    )
    assert code == 0
    return out


class TestCliGenWorld:
    def test_artifacts(self, generated_world):
        assert (generated_world / "map.pgm").exists()
        assert (generated_world / "map.json").exists()
        assert (generated_world / "map_texture.pgm").exists()
        assert (generated_world / "resolved_config.json").exists()
        with open(generated_world / "poses.json") as fh:
            poses = json.load(fh)["poses"]
        assert poses
        plan = load_floorplan(str(generated_world / "map.pgm"))
        for doc in poses[::5]:
            assert plan.is_free(doc["x"], doc["y"])

    def test_resolved_config_echoes_overrides(self, generated_world):
        with open(generated_world / "resolved_config.json") as fh:
            doc = json.load(fh)
        assert doc["world"]["extent_m"] == [6.0, 4.0]
        assert doc["grid"]["n_orientations"] == 12
        assert doc["rays"]["n_rays"] == 16

    def test_seed_echo_reproduces_the_world(self, generated_world, small_config_path, tmp_path):
        seeded = tmp_path / "seeded"
        assert main(["gen-world", "--config", small_config_path, "--seed", "5",
                     "--out", str(seeded)]) == 0
        with open(seeded / "resolved_config.json") as fh:
            doc = json.load(fh)
        assert doc["world"]["seed"] == doc["seed"] == 5
        rerun = tmp_path / "rerun"
        assert main(["gen-world", "--config", str(seeded / "resolved_config.json"),
                     "--out", str(rerun)]) == 0
        for name in ("map.pgm", "poses.json"):
            assert (rerun / name).read_bytes() == (seeded / name).read_bytes()
        # --seed did pick another world than the config's world.seed of 0
        assert (seeded / "poses.json").read_bytes() != (generated_world / "poses.json").read_bytes()


class TestCliCast:
    def test_matches_library(self, generated_world, small_config_path, tmp_path):
        plan = load_floorplan(str(generated_world / "map.pgm"))
        with open(generated_world / "poses.json") as fh:
            pose = json.load(fh)["poses"][0]
        out = tmp_path / "cast"
        code = main(
            [
                "cast",
                "--config",
                small_config_path,
                "--map",
                str(generated_world / "map.pgm"),
                "--x",
                str(pose["x"]),
                "--y",
                str(pose["y"]),
                "--theta",
                str(pose["theta"]),
                "--out",
                str(out),
            ]
        )
        assert code == 0
        with open(out / "rays.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 16
        for row in rows:
            depth, hit = cast_ray(
                plan, pose["x"], pose["y"], float(row["bearing_rad"])
            )
            assert float(row["depth_m"]) == pytest.approx(depth, abs=1e-5)
            assert int(row["hit"]) == int(hit)


@pytest.fixture(scope="module")
def simulated(generated_world, small_config_path, tmp_path_factory):
    with open(generated_world / "poses.json") as fh:
        pose = json.load(fh)["poses"][3]
    out = tmp_path_factory.mktemp("sim")
    code = main(
        [
            "simulate",
            "--config",
            small_config_path,
            "--map",
            str(generated_world / "map.pgm"),
            "--x",
            str(pose["x"]),
            "--y",
            str(pose["y"]),
            "--theta",
            str(pose["theta"]),
            "--out",
            str(out),
        ]
    )
    assert code == 0
    return out, pose


class TestCliSimulate:
    def test_artifacts(self, simulated):
        out, pose = simulated
        with open(out / "signature.json") as fh:
            doc = json.load(fh)
        assert len(doc["depths_m"]) == 16
        assert len(doc["texture_counts"]) == 256
        assert doc["gt_pose"]["x"] == pytest.approx(pose["x"])
        with open(out / "rays.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 16


class TestCliLocalize:
    def test_full_pipeline(self, generated_world, small_config_path, simulated, tmp_path):
        sim_out, pose = simulated
        out = tmp_path / "loc"
        code = main(
            [
                "localize",
                "--config",
                small_config_path,
                "--map",
                str(generated_world / "map.pgm"),
                "--rays",
                str(sim_out / "rays.csv"),
                "--signature",
                str(sim_out / "signature.json"),
                "--out",
                str(out),
            ]
        )
        assert code == 0
        with open(out / "pose.json") as fh:
            predicted = json.load(fh)
        # noiseless query in a small world: position recovered to the grid cell
        err = math.hypot(predicted["x"] - pose["x"], predicted["y"] - pose["y"])
        assert err < 0.5
        assert (out / "dafpm.dpmf").exists()
        assert (out / "dafpm.pgm").exists()
        with open(out / "candidates.csv") as fh:
            reader = csv.DictReader(fh)
            assert reader.fieldnames == [
                "x",
                "y",
                "theta",
                "depth_prob",
                "visual_prob",
                "fused_prob",
            ]
            rows = list(reader)
        assert rows
        fused = np.array([float(r["fused_prob"]) for r in rows])
        assert fused.sum() == pytest.approx(1.0, abs=1e-3)

    def test_echo_reproduces_an_overridden_run(
        self, generated_world, small_config_path, simulated, tmp_path
    ):
        sim_out, _ = simulated
        inputs = (generated_world / "map.pgm", sim_out / "rays.csv", sim_out / "signature.json")
        first, rerun = tmp_path / "first", tmp_path / "rerun"
        argv = _localize(small_config_path, *inputs, first, "--w", "0.0", "--x", "7",
                         "--crop-m", "3")
        assert main(argv) == 0
        with open(first / "resolved_config.json") as fh:
            doc = json.load(fh)
        assert (doc["disambig"]["w"], doc["disambig"]["x"], doc["crop"]["side_m"]) == (0.0, 7, 3.0)
        with open(first / "candidates.csv") as fh:
            assert len(list(csv.DictReader(fh))) == 7
        assert main(_localize(first / "resolved_config.json", *inputs, rerun)) == 0
        for name in ("pose.json", "candidates.csv", "dafpm.dpmf", "resolved_config.json"):
            assert (rerun / name).read_bytes() == (first / name).read_bytes()

    def test_candidate_count_saturates(
        self, generated_world, small_config_path, simulated, tmp_path
    ):
        sim_out, _ = simulated
        out = tmp_path / "sat"
        code = main(
            [
                "localize",
                "--config",
                small_config_path,
                "--map",
                str(generated_world / "map.pgm"),
                "--rays",
                str(sim_out / "rays.csv"),
                "--signature",
                str(sim_out / "signature.json"),
                "--x",
                "10000000",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        with open(out / "candidates.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert 0 < len(rows) < 10_000_000

    def test_requires_signature_or_embedding(
        self, generated_world, small_config_path, simulated, tmp_path
    ):
        sim_out, _ = simulated
        out = tmp_path / "noq"
        code = main(
            [
                "localize",
                "--config",
                small_config_path,
                "--map",
                str(generated_world / "map.pgm"),
                "--rays",
                str(sim_out / "rays.csv"),
                "--out",
                str(out),
            ]
        )
        assert code == EXIT_CONFIG
        with open(out / "error.json") as fh:
            doc = json.load(fh)
        assert doc["error"]["exit"] == EXIT_CONFIG


class TestCliEval:
    def test_report(self, tmp_path):
        pred_path = tmp_path / "pred.csv"
        with open(pred_path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["pred_x", "pred_y", "pred_theta", "gt_x", "gt_y", "gt_theta"])
            writer.writerow([1.0, 1.0, 0.0, 1.0, 1.0, 0.0])  # exact
            writer.writerow([1.7, 1.0, 0.0, 1.0, 1.0, 0.0])  # 0.7 m off
            writer.writerow([9.0, 9.0, 1.0, 1.0, 1.0, 0.0])  # far off
        out = tmp_path / "eval"
        code = main(["eval", "--predictions", str(pred_path), "--out", str(out)])
        assert code == 0
        with open(out / "report.json") as fh:
            report = json.load(fh)
        assert report["n"] == 3
        assert report["recall_0.5m"] == pytest.approx(1 / 3)
        assert report["recall_1m"] == pytest.approx(2 / 3)
        with open(out / "report.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert [r["threshold"] for r in rows] == ["0.1m", "0.5m", "1m", "1m_30deg"]

    def test_missing_columns(self, tmp_path):
        pred_path = tmp_path / "bad.csv"
        pred_path.write_text("a,b\n1,2\n")
        code = main(["eval", "--predictions", str(pred_path), "--out", str(tmp_path / "o")])
        assert code == EXIT_MISSING

    @pytest.mark.parametrize(
        "content",
        [
            "pred_x,pred_y,pred_theta,gt_x,gt_y,gt_theta\n1,1,0,1,1\n",  # short row
            "pred_x,pred_y,pred_theta,gt_x,gt_y,gt_theta\n1,abc,0,1,1,0\n",
            "pred_x,pred_y,pred_theta,gt_x,gt_y,gt_theta\n1,1,0,1,1,0\nnan,1,0,1,1,0\n",
            "pred_x,pred_y,pred_theta,gt_x,gt_y,gt_theta\n1,1,inf,1,1,0\n",
        ],
    )
    def test_malformed_predictions_are_format_errors(self, tmp_path, content):
        pred_path = tmp_path / "bad.csv"
        pred_path.write_text(content)
        out = tmp_path / "o"
        assert main(["eval", "--predictions", str(pred_path), "--out", str(out)]) == EXIT_MISSING
        with open(out / "error.json") as fh:
            error = json.load(fh)["error"]
        assert error["type"] == "FormatError"
        assert not (out / "report.csv").exists()


class TestCliExitCodes:
    def test_missing_map(self, small_config_path, tmp_path):
        code = main(
            [
                "cast",
                "--config",
                small_config_path,
                "--map",
                str(tmp_path / "nope.pgm"),
                "--x",
                "1",
                "--y",
                "1",
                "--out",
                str(tmp_path / "o"),
            ]
        )
        assert code == EXIT_MISSING

    def test_missing_config_file(self, tmp_path):
        code = main(
            ["gen-world", "--config", str(tmp_path / "nope.json"), "--out", str(tmp_path / "o")]
        )
        assert code == EXIT_MISSING

    def test_bad_config(self, tmp_path):
        cfg = tmp_path / "bad.json"
        cfg.write_text('{"mystery_section": {}}')
        out = tmp_path / "o"
        code = main(["gen-world", "--config", str(cfg), "--out", str(out)])
        assert code == EXIT_CONFIG
        with open(out / "error.json") as fh:
            doc = json.load(fh)
        assert doc["error"]["type"] == "ConfigurationError"

    def test_bins_section_is_rejected(self, tmp_path):
        # the depth bins are library API (rayloc.raybins), not a config section
        cfg = tmp_path / "bins.json"
        cfg.write_text('{"bins": {"d_min_m": 0.1, "d_max_m": 10.0, "n_bins": 64, "gamma": 1.0}}')
        out = tmp_path / "o"
        code = main(["gen-world", "--config", str(cfg), "--out", str(out)])
        assert code == EXIT_CONFIG
        with open(out / "error.json") as fh:
            error = json.load(fh)["error"]
        assert error["type"] == "ConfigurationError"
        assert error["message"] == "unknown top-level config keys: ['bins']"

    @pytest.mark.parametrize(
        "command,section,override",
        [
            # malformed values
            ("gen-world", "rays", {"n_rays": 40.9}),
            ("gen-world", "rays", {"n_rays": True}),
            ("gen-world", "world", {"extent_m": [6, 4, 3]}),
            ("gen-world", "world", {"extent_m": "ab"}),
            # non-finite numbers, which Python's json reads as NaN and Infinity
            ("gen-world", "world", {"extent_m": [math.nan, 6]}),
            ("gen-world", "world", {"extent_m": [math.inf, 6]}),
            ("cast", "noise", {"depth_sigma_m": math.nan}),
            ("gen-world", "mining", {"ori_neg_rotation_rad": math.nan}),
            # out-of-range values, rejected before any command runs
            ("sweep", "grid", {"cell_stride_m": 0}),
            ("mine", "bench", {"n_worlds": 0}),
            ("mine", "bench", {"n_anchors": 0}),
            ("cast", "rays", {"n_rays": 1}),
            ("cast", "rays", {"max_range_m": -1}),
            ("cast", "rays", {"max_range_m": 2148.0}),
            # a twin-rooms extent with no room for the layout's margins
            ("gen-world", "world", {"extent_m": [3.0, 2.0]}),
            ("sweep", "grid", {"n_orientations": 0}),
            # negative seeds, which NumPy's seeding would reject with a traceback
            ("gen-world", "world", {"seed": -1}),
            ("mine", "mining", {"seed": -3}),
            ("train-embedder", "embedder", {"seed": -1}),
            ("sweep", "bench", {"query_seed": -1}),
        ],
    )
    def test_bad_value_is_config_error(
        self, generated_world, tmp_path, command, section, override
    ):
        doc = json.loads(json.dumps(SMALL_WORLD))
        doc["bench"] = {"n_queries": 2, "n_anchors": 2, "n_worlds": 1}
        doc.setdefault(section, {}).update(override)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(doc))
        out = tmp_path / "o"
        argv = [command, "--config", str(cfg), "--out", str(out)]
        if command == "cast":
            argv += ["--map", str(generated_world / "map.pgm"), "--x", "3", "--y", "2"]
        if command == "sweep":
            argv += ["--param", "w", "--values", "0.5"]
        assert main(argv) == EXIT_CONFIG
        with open(out / "error.json") as fh:
            error = json.load(fh)["error"]
        assert error["exit"] == EXIT_CONFIG
        assert error["type"] in ("ConfigurationError", "ValidationError")

    def test_runtime_error(self, generated_world, small_config_path, tmp_path):
        # casting from inside a wall is a runtime failure, not a config one
        code = main(
            [
                "cast",
                "--config",
                small_config_path,
                "--map",
                str(generated_world / "map.pgm"),
                "--x",
                "0.05",
                "--y",
                "0.05",
                "--out",
                str(tmp_path / "o"),
            ]
        )
        assert code == EXIT_RUNTIME


def _localize(config, map_path, rays, signature, out, *extra) -> list[str]:
    return [
        "localize", "--config", str(config), "--map", str(map_path),
        "--rays", str(rays), "--signature", str(signature), "--out", str(out), *extra,
    ]


def _error(out) -> dict:
    with open(out / "error.json") as fh:
        return json.load(fh)["error"]


class TestCliInputErrors:
    @pytest.mark.parametrize("argv,doc", [(["--seed", "-2"], {}), ([], {"seed": -1})])
    def test_negative_run_seed_is_config_error(self, tmp_path, argv, doc):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(doc))
        out = tmp_path / "o"
        assert main(["gen-world", *argv, "--config", str(cfg), "--out", str(out)]) == EXIT_CONFIG
        error = _error(out)
        assert error["exit"] == EXIT_CONFIG
        assert "seed must be >= 0" in error["message"]

    @pytest.mark.parametrize(
        "target,content",
        [
            ("map.json", '{"resolution_m": "abc"}'),
            ("map.json", '{"resolution_m": 0.1, "origin_m": "ab"}'),
            ("map.json", '{"resolution_m": 0.1, "origin_m": [0.0]}'),
            ("map.json", "5"),
            ("map.json", '{"resolution_m": NaN}'),
            ("map.json", '{"resolution_m": 0.1, "origin_m": [0.0, Infinity]}'),
            ("map.json", '{"resolution_m": 0.1, "texture_path": 5}'),
            ("map.json", '{"resolution_m": 0.1, "texture_path": true}'),
            ("rays.csv", "ray,depth_m\n0,abc\n"),
            ("rays.csv", "ray,depth_m\n0\n"),
            ("rays.csv", "nan"),
            ("rays.csv", "inf"),
            ("signature.json", "drop:fov_rad"),
            ("signature.json", "drop:noise"),
            ("signature.json", '{"depths_m": [1.0]'),
            ("signature.json", "set:texture_counts=[1, 2, 3]"),
            ("signature.json", "set:depths_m=[]"),
            pytest.param("signature.json", "set:texture_counts=" + json.dumps([-50] + [0] * 255),
                         id="signature.json-negative-count"),
            pytest.param("signature.json", "set:texture_counts=" + json.dumps([2.7] + [0] * 255),
                         id="signature.json-fractional-count"),
            ("query.emb", b"EMB1" + struct.pack("<II", 0, 64)),
        ],
    )
    def test_malformed_input_file_is_format_error(
        self, generated_world, small_config_path, simulated, tmp_path, monkeypatch,
        target, content,
    ):
        def no_table(*args, **kwargs):
            raise AssertionError("rendered-fan table built before the inputs were read")

        monkeypatch.setattr(GridScorer, "__init__", no_table)
        sim_out, _ = simulated
        for name in ("map.pgm", "map.json", "map_texture.pgm"):
            (tmp_path / name).write_bytes((generated_world / name).read_bytes())
        for name in ("rays.csv", "signature.json"):
            (tmp_path / name).write_bytes((sim_out / name).read_bytes())
        path = tmp_path / target
        extra = ["--query-emb", str(path)] if target == "query.emb" else []
        if isinstance(content, bytes):
            path.write_bytes(content)
        else:
            if content.startswith("drop:"):
                doc = json.loads(path.read_text())
                del doc[content[len("drop:"):]]
                content = json.dumps(doc)
            elif content.startswith("set:"):
                doc = json.loads(path.read_text())
                key, value = content[len("set:"):].split("=")
                doc[key] = json.loads(value)
                content = json.dumps(doc)
            elif content in ("nan", "inf"):
                lines = path.read_text().splitlines()
                lines[5] = f"4,{content}"
                content = "\n".join(lines) + "\n"
            path.write_text(content)
        out = tmp_path / "o"
        argv = _localize(
            small_config_path, tmp_path / "map.pgm", tmp_path / "rays.csv",
            tmp_path / "signature.json", out, *extra,
        )
        assert main(argv) == EXIT_MISSING
        error = _error(out)
        assert error["exit"] == EXIT_MISSING
        assert error["type"] == "FormatError"

    @pytest.mark.parametrize("kind", ["directory", "unreadable"])
    @pytest.mark.parametrize(
        "flag", ["--map", "--rays", "--signature", "--query-emb", "--config", "--predictions"]
    )
    def test_unreadable_input_path_is_missing_input(
        self, generated_world, small_config_path, simulated, tmp_path, monkeypatch, flag, kind
    ):
        def no_table(*args, **kwargs):
            raise AssertionError("rendered-fan table built before the inputs were read")

        monkeypatch.setattr(GridScorer, "__init__", no_table)
        sim_out, _ = simulated
        bad = tmp_path / "bad"
        if kind == "directory":
            bad.mkdir()
        else:
            bad.write_text("{}")
            bad.chmod(0)
            # a privileged user reads files whatever their mode: deny it here too
            access = os.access
            monkeypatch.setattr(
                os, "access", lambda path, mode: path != str(bad) and access(path, mode)
            )
        out = tmp_path / "o"
        if flag == "--predictions":
            argv = ["eval", "--predictions", str(bad), "--out", str(out)]
        else:
            files = {
                "--config": small_config_path,
                "--map": generated_world / "map.pgm",
                "--rays": sim_out / "rays.csv",
                "--signature": sim_out / "signature.json",
            }
            files[flag] = bad
            argv = _localize(
                files["--config"], files["--map"], files["--rays"], files["--signature"], out,
                *(["--query-emb", str(bad)] if flag == "--query-emb" else []),
            )
        assert main(argv) == EXIT_MISSING
        error = _error(out)
        assert error["exit"] == EXIT_MISSING
        assert str(bad) in error["message"]

    def test_query_embedding_width_is_config_error(
        self, generated_world, small_config_path, simulated, tmp_path, monkeypatch
    ):
        def no_table(*args, **kwargs):
            raise AssertionError("rendered-fan table built before the width check")

        monkeypatch.setattr(GridScorer, "__init__", no_table)
        sim_out, _ = simulated
        emb = tmp_path / "q.emb"
        write_embeddings(str(emb), np.ones((1, 63)) / math.sqrt(63))  # embedder.dim is 64
        out = tmp_path / "o"
        argv = _localize(
            small_config_path, generated_world / "map.pgm", sim_out / "rays.csv",
            sim_out / "signature.json", out, "--query-emb", str(emb),
        )
        assert main(argv) == EXIT_CONFIG
        error = _error(out)
        assert error["type"] == "ConfigurationError"
        assert "63" in error["message"] and "embedder.dim = 64" in error["message"]
        assert not (out / "pose.json").exists()

    @pytest.mark.parametrize("command", ["mine", "train-embedder"])
    def test_world_without_poses_is_config_error(self, tmp_path, command):
        # at 6 x 4 m, world seed 1 leaves no pose with the required wall clearance
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"world": {"extent_m": [6.0, 4.0]}}))
        out = tmp_path / "o"
        assert main([command, "--config", str(cfg), "--out", str(out)]) == EXIT_CONFIG
        error = _error(out)
        assert error["type"] == "ConfigurationError"
        assert "world seed 1" in error["message"]

    def test_bad_training_values_are_config_errors(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"bench": {"n_anchors": 4, "n_worlds": 2}}))
        train = ["train-embedder", "--config", str(cfg)]
        good = tmp_path / "good"
        assert main([*train, "--epochs", "2", "--out", str(good)]) == 0
        assert (good / "embedder.npz").exists()
        for name, argv in [
            ("epochs", ["--epochs", "-1"]),
            ("epochs", ["--epochs", "0"]),
            ("learning_rate", ["--learning-rate", "nan", "--epochs", "1"]),
            ("learning_rate", ["--learning-rate", "-0.5", "--epochs", "1"]),
        ]:
            out = tmp_path / f"o{len(list(tmp_path.iterdir()))}"
            assert main([*train, *argv, "--out", str(out)]) == EXIT_CONFIG
            error = _error(out)
            assert error["type"] == "ConfigurationError"
            assert name in error["message"]
            assert not (out / "embedder.npz").exists()

    def test_echo_reproduces_a_training_run(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"bench": {"n_anchors": 4, "n_worlds": 2}}))
        first, again = tmp_path / "first", tmp_path / "again"
        flags = ["--epochs", "3", "--learning-rate", "0.25"]
        assert main(["train-embedder", "--config", str(cfg), *flags, "--out", str(first)]) == 0
        echo = first / "resolved_config.json"
        embedder = json.loads(echo.read_text())["embedder"]
        assert (embedder["epochs"], embedder["learning_rate"]) == (3, 0.25)
        assert len((first / "loss_trace.csv").read_text().splitlines()) == 1 + 3
        # the echo alone, with no flags, trains the same model
        assert main(["train-embedder", "--config", str(echo), "--out", str(again)]) == 0
        for name in ("embedder.npz", "loss_trace.csv", "resolved_config.json"):
            assert (again / name).read_bytes() == (first / name).read_bytes(), name

    def test_depth_beyond_range_is_runtime_error(
        self, generated_world, small_config_path, simulated, tmp_path, monkeypatch
    ):
        def no_table(*args, **kwargs):
            raise AssertionError("rendered-fan table built before the depth check")

        monkeypatch.setattr(GridScorer, "__init__", no_table)
        sim_out, _ = simulated
        for bad in ("-0.5", "10.5"):
            rays = tmp_path / f"rays{bad}.csv"
            lines = (sim_out / "rays.csv").read_text().splitlines()
            lines[2] = f"1,{bad}"
            rays.write_text("\n".join(lines) + "\n")
            out = tmp_path / f"o{bad}"
            argv = _localize(
                small_config_path, generated_world / "map.pgm", rays,
                sim_out / "signature.json", out,
            )
            assert main(argv) == EXIT_RUNTIME
            error = _error(out)
            assert error["type"] == "ValidationError"
            assert not (out / "pose.json").exists()
        # signature depths too: at 1e200 m the embedding's norm overflows
        for bad in (-0.5, 10.5, 1e200):
            signature = tmp_path / f"sig{bad}.json"
            doc = json.loads((sim_out / "signature.json").read_text())
            doc["depths_m"] = [bad] * len(doc["depths_m"])
            signature.write_text(json.dumps(doc))
            out = tmp_path / f"s{bad}"
            argv = _localize(
                small_config_path, generated_world / "map.pgm", sim_out / "rays.csv",
                signature, out,
            )
            assert main(argv) == EXIT_RUNTIME
            error = _error(out)
            assert error["type"] == "ValidationError"
            assert "signature depths" in error["message"]

    @pytest.mark.parametrize(
        "param, values",
        [("w", "1.5"), ("w", "0,nan"), ("x", "2.5"), ("x", "0"), ("x", "inf"),
         ("crop-m", "0"), ("crop-m", "inf"), ("w", "0.5,abc")],
    )
    def test_bad_sweep_value_fails_before_table_build(
        self, tmp_path, monkeypatch, param, values
    ):
        def no_table(*args, **kwargs):
            raise AssertionError("rendered-fan table built before the sweep values")

        monkeypatch.setattr(GridScorer, "__init__", no_table)
        out = tmp_path / "o"
        argv = ["sweep", "--param", param, "--values", values, "--out", str(out)]
        assert main(argv) == EXIT_CONFIG
        error = _error(out)
        assert error["type"] == "ConfigurationError"
        assert param in error["message"]
        assert not (out / "sweep.csv").exists()

    @pytest.mark.parametrize(
        "flag, value",
        [("--w", "1.5"), ("--w", "nan"), ("--x", "0"), ("--crop-m", "0"), ("--crop-m", "inf")],
    )
    def test_bad_localize_override_fails_before_table_build(
        self, generated_world, small_config_path, simulated, tmp_path, monkeypatch,
        flag, value,
    ):
        def no_table(*args, **kwargs):
            raise AssertionError("rendered-fan table built before the overrides")

        monkeypatch.setattr(GridScorer, "__init__", no_table)
        sim_out, _ = simulated
        out = tmp_path / "o"
        argv = _localize(
            small_config_path, generated_world / "map.pgm", sim_out / "rays.csv",
            sim_out / "signature.json", out, flag, value,
        )
        assert main(argv) == EXIT_CONFIG
        error = _error(out)
        assert error["exit"] == EXIT_CONFIG
        assert error["type"] == "ConfigurationError"
        assert flag in error["message"]
        assert not (out / "pose.json").exists()

    @pytest.mark.parametrize("below", ["", "sub"])
    def test_out_naming_a_file_is_config_error(self, tmp_path, capsys, below):
        afile = tmp_path / "afile"
        afile.write_text("keep")
        out = afile / below if below else afile
        assert main(["gen-world", "--out", str(out)]) == EXIT_CONFIG
        error = json.loads(capsys.readouterr().err)["error"]
        assert error["exit"] == EXIT_CONFIG
        assert error["type"] == "ConfigurationError"
        assert "--out" in error["message"]
        assert afile.read_text() == "keep"

    @pytest.mark.parametrize("command", ["localize", "sweep"])
    def test_threads_below_one_is_config_error(
        self, generated_world, small_config_path, simulated, tmp_path, command
    ):
        sim_out, _ = simulated
        out = tmp_path / "o"
        if command == "localize":
            argv = _localize(
                small_config_path, generated_world / "map.pgm", sim_out / "rays.csv",
                sim_out / "signature.json", out,
            )
        else:
            argv = ["sweep", "--param", "w", "--values", "0.5", "--out", str(out)]
        assert main([*argv, "--threads", "0"]) == EXIT_CONFIG
        error = _error(out)
        assert error["exit"] == EXIT_CONFIG
        assert "--threads" in error["message"]

    @pytest.mark.parametrize(
        "argv",
        [
            ["gen-world"],
            ["cast", "--map", "m.pgm", "--x", "1", "--y", "1"],
            ["simulate", "--map", "m.pgm", "--x", "1", "--y", "1"],
            ["mine"],
            ["train-embedder"],
            ["eval", "--predictions", "p.csv"],
        ],
    )
    def test_threads_only_on_table_building_commands(self, argv):
        parser = build_parser()
        with pytest.raises(SystemExit) as exc:
            parser.parse_args([*argv, "--threads", "2"])
        assert exc.value.code == 2
        sweep = ["sweep", "--param", "w", "--values", "0", "--threads", "2"]
        assert parser.parse_args(sweep).threads == 2

    def test_localize_threads_do_not_change_output(
        self, generated_world, small_config_path, simulated, tmp_path
    ):
        sim_out, _ = simulated
        outputs = []
        for threads in ("1", "3"):
            out = tmp_path / f"t{threads}"
            argv = _localize(
                small_config_path, generated_world / "map.pgm", sim_out / "rays.csv",
                sim_out / "signature.json", out, "--threads", threads,
            )
            assert main(argv) == 0
            outputs.append(
                [(out / n).read_bytes() for n in ("pose.json", "dafpm.dpmf", "candidates.csv")]
            )
        assert outputs[0] == outputs[1]
