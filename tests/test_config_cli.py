"""Run-config parsing and the command-line interface."""

import csv
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from rayloc.cli import EXIT_CONFIG, EXIT_MISSING, EXIT_RUNTIME, build_parser, main
from rayloc.config import SCHEMA, _integer, _number, _pair, load_config, parse_config
from rayloc.errors import ConfigurationError, RaylocError, ValidationError
from rayloc.floorplan import cast_ray, load_floorplan


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
        assert cfg.bins.n_bins == 64
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

    @settings(max_examples=200, deadline=None)
    @given(doc=valid_documents())
    def test_resolved_round_trips(self, doc):
        cfg = parse_config(doc)
        echoed = cfg.resolved()
        assert parse_config(json.loads(json.dumps(echoed))) == cfg
        # every value the document sets is echoed under its own key
        for name, value in doc.items():
            assert echoed[name] == (value if name == "seed" else {**echoed[name], **value})

    @settings(max_examples=100, deadline=None)
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
            ("grid", "cell_stride_m", 0.0),
            ("grid", "n_orientations", 0),
            ("bench", "n_queries", 0),
            ("bench", "n_worlds", 0),
            ("bench", "n_anchors", 0),
            ("bench", "sigma_m", 0.0),
            ("embedder", "dim", 1),
        ],
    )
    def test_range_checks(self, section, key, value):
        with pytest.raises(ValidationError, match=key):
            parse_config({section: {key: value}})

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

    @pytest.mark.parametrize(
        "command,section,override",
        [
            # malformed values
            ("gen-world", "rays", {"n_rays": 40.9}),
            ("gen-world", "rays", {"n_rays": True}),
            ("gen-world", "world", {"extent_m": [6, 4, 3]}),
            ("gen-world", "world", {"extent_m": "ab"}),
            # out-of-range values, rejected before any command runs
            ("sweep", "grid", {"cell_stride_m": 0}),
            ("mine", "bench", {"n_worlds": 0}),
            ("mine", "bench", {"n_anchors": 0}),
            ("cast", "rays", {"n_rays": 1}),
            ("cast", "rays", {"max_range_m": -1}),
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
            ("rays.csv", "ray,depth_m\n0,abc\n"),
            ("rays.csv", "ray,depth_m\n0\n"),
            ("rays.csv", "nan"),
            ("rays.csv", "inf"),
            ("signature.json", "drop:fov_rad"),
            ("signature.json", "drop:noise"),
            ("signature.json", '{"depths_m": [1.0]'),
        ],
    )
    def test_malformed_input_file_is_format_error(
        self, generated_world, small_config_path, simulated, tmp_path, target, content
    ):
        sim_out, _ = simulated
        for name in ("map.pgm", "map.json", "map_texture.pgm"):
            (tmp_path / name).write_bytes((generated_world / name).read_bytes())
        for name in ("rays.csv", "signature.json"):
            (tmp_path / name).write_bytes((sim_out / name).read_bytes())
        path = tmp_path / target
        if content.startswith("drop:"):
            doc = json.loads(path.read_text())
            del doc[content[len("drop:"):]]
            content = json.dumps(doc)
        elif content in ("nan", "inf"):
            lines = path.read_text().splitlines()
            lines[5] = f"4,{content}"
            content = "\n".join(lines) + "\n"
        path.write_text(content)
        out = tmp_path / "o"
        argv = _localize(
            small_config_path, tmp_path / "map.pgm", tmp_path / "rays.csv",
            tmp_path / "signature.json", out,
        )
        assert main(argv) == EXIT_MISSING
        error = _error(out)
        assert error["exit"] == EXIT_MISSING
        assert error["type"] == "FormatError"

    def test_depth_beyond_range_is_runtime_error(
        self, generated_world, small_config_path, simulated, tmp_path
    ):
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
