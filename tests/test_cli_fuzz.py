"""Mutated input files through the command line (ROADMAP item 5): whatever
the bytes, a run returns a documented exit code instead of raising, and every
failure leaves <out>/error.json."""

import json
import shutil
import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rayloc.cli import main

TINY = {
    "world": {"extent_m": [6.0, 4.0], "seed": 0},
    "grid": {"n_orientations": 4},
    "rays": {"n_rays": 8},
    "crop": {"out_px": 16},
    "disambig": {"x": 10},
}
EXAMPLES = 40

# fragments that break numbers, rows and encodings
_TOKENS = [
    b"nan", b"inf", b"-inf", b"-1", b"0", b"1e400", b"abc", b"", b",", b"\n", b'"',
    b"\x00", b"\xff\xfe", b"[]", b"{}", b"null",
]
_CELLS = st.sampled_from([t.decode("latin-1") for t in _TOKENS]) | st.floats().map(repr)
# numbers at the edges of int64 and float64, where sums and squares overflow
_EXTREMES = st.sampled_from([1e300, 1e155, -1e300, 2**63, -(2**63) - 1, float("nan")])
_JSON_LEAVES = (
    _EXTREMES
    | st.none()
    | st.booleans()
    | st.integers(-(2**70), 2**70)
    | st.floats()
    | st.text(max_size=4)
)
_JSON_VALUES = st.recursive(
    _JSON_LEAVES,
    lambda kids: st.lists(kids, max_size=4)
    | st.dictionaries(st.text(max_size=3), kids, max_size=3),
    max_leaves=8,
)


def byte_edits(data: bytes):
    """One to three spans of ``data`` replaced by a token or random bytes."""

    @st.composite
    def edit(draw):
        out = bytearray(data)
        for _ in range(draw(st.integers(1, 3))):
            start = draw(st.integers(0, len(out)))
            stop = draw(st.integers(start, min(len(out), start + 12)))
            out[start:stop] = draw(st.sampled_from(_TOKENS) | st.binary(max_size=8))
        return bytes(out)

    return edit()


def csv_edits(data: bytes):
    """A cell replaced, a cell dropped or a row dropped in a CSV file."""

    @st.composite
    def edit(draw):
        rows = [line.split(",") for line in data.decode().splitlines()]
        r = draw(st.integers(0, len(rows) - 1))
        c = draw(st.integers(0, len(rows[r]) - 1))
        action = draw(st.sampled_from(["cell", "drop-cell", "drop-row"]))
        if action == "cell":
            rows[r][c] = draw(_CELLS)
        elif action == "drop-cell":
            del rows[r][c]
        else:
            del rows[r]
        return "".join(",".join(row) + "\n" for row in rows).encode("latin-1")

    return edit()


def json_edits(data: bytes):
    """In a JSON object, one value, one nested value or one list entry
    replaced, or every entry of a list set to one value."""

    @st.composite
    def edit(draw):
        doc = json.loads(data)
        key = draw(st.sampled_from(sorted(doc)))
        value = doc[key]
        action = draw(st.sampled_from(["replace", "entry", "fill"]))
        if isinstance(value, dict):
            value[draw(st.sampled_from(sorted(value)))] = draw(_JSON_VALUES)
        elif isinstance(value, list) and value and action == "entry":
            value[draw(st.integers(0, len(value) - 1))] = draw(_JSON_VALUES)
        elif isinstance(value, list) and action == "fill":
            doc[key] = [draw(_EXTREMES | _JSON_LEAVES)] * len(value)
        else:
            doc[key] = draw(_JSON_VALUES | st.lists(st.integers(0, 9), max_size=300))
        return json.dumps(doc).encode()

    return edit()


def emb_edits(data: bytes):
    """EMB1 bytes with a rewritten header or one value replaced by any float32."""

    @st.composite
    def edit(draw):
        out = bytearray(data)
        if draw(st.booleans()):
            sizes = st.integers(0, 3) | st.integers(60, 68) | st.integers(0, 2**32 - 1)
            out[4:12] = struct.pack("<II", draw(sizes), draw(sizes))
        else:
            i = draw(st.integers(0, (len(out) - 12) // 4 - 1))
            out[12 + 4 * i : 16 + 4 * i] = struct.pack("<f", draw(st.floats(width=32)))
        return bytes(out)

    return edit()


@dataclass
class Inputs:
    root: Path
    config: Path
    valid: dict = field(repr=False)  # file name -> valid bytes


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    config = root / "tiny.json"
    config.write_text(json.dumps(TINY))
    assert main(["gen-world", "--config", str(config), "--out", str(root / "world")]) == 0
    pose = json.loads((root / "world" / "poses.json").read_text())["poses"][0]
    argv = ["simulate", "--config", str(config), "--map", str(root / "world" / "map.pgm")]
    argv += ["--x", str(pose["x"]), "--y", str(pose["y"]), "--theta", str(pose["theta"])]
    assert main([*argv, "--out", str(root / "sim")]) == 0
    query = np.full((1, 64), 0.125)  # unit norm at the default embedder.dim
    valid = {
        "rays.csv": (root / "sim" / "rays.csv").read_bytes(),
        "signature.json": (root / "sim" / "signature.json").read_bytes(),
        "query.emb": b"EMB1" + struct.pack("<II", *query.shape) + query.astype("<f4").tobytes(),
        "predictions.csv": b"pred_x,pred_y,pred_theta,gt_x,gt_y,gt_theta\n"
        b"1.0,1.0,0.0,1.0,1.0,0.0\n1.7,1.0,0.0,1.0,1.0,0.5\n",
    }
    return Inputs(root, config, valid)


def _check_run(inputs: Inputs, name: str, data: bytes) -> None:
    root, config, valid = inputs.root, inputs.config, inputs.valid
    work, out = root / "work", root / "out"
    for path in (work, out):
        shutil.rmtree(path, ignore_errors=True)
    work.mkdir()
    for other, content in valid.items():
        (work / other).write_bytes(data if other == name else content)
    if name == "predictions.csv":
        argv = ["eval", "--predictions", str(work / name)]
    else:
        argv = ["localize", "--map", str(root / "world" / "map.pgm")]
        argv += ["--rays", str(work / "rays.csv"), "--signature", str(work / "signature.json")]
        if name == "query.emb":
            argv += ["--query-emb", str(work / name)]
    code = main([*argv, "--config", str(config), "--out", str(out)])
    assert code in (0, 1, 2, 3)
    if code:
        error = json.loads((out / "error.json").read_text())["error"]
        assert error["exit"] == code
    elif name != "predictions.csv":
        assert b"nan" not in (out / "candidates.csv").read_bytes().lower()


@settings(max_examples=EXAMPLES)
@given(data=st.data())
def test_mutated_rays_csv(inputs, data):
    original = inputs.valid["rays.csv"]
    _check_run(inputs, "rays.csv", data.draw(byte_edits(original) | csv_edits(original)))


@settings(max_examples=EXAMPLES)
@given(data=st.data())
def test_mutated_predictions_csv(inputs, data):
    original = inputs.valid["predictions.csv"]
    _check_run(inputs, "predictions.csv", data.draw(byte_edits(original) | csv_edits(original)))


@settings(max_examples=EXAMPLES)
@given(data=st.data())
def test_mutated_signature_json(inputs, data):
    original = inputs.valid["signature.json"]
    _check_run(inputs, "signature.json", data.draw(byte_edits(original) | json_edits(original)))


@settings(max_examples=EXAMPLES)
@given(data=st.data())
def test_mutated_query_embedding(inputs, data):
    original = inputs.valid["query.emb"]
    _check_run(inputs, "query.emb", data.draw(byte_edits(original) | emb_edits(original)))
