"""The benchmark workloads' seed-1 outputs, pinned under tests/golden/.

Each case builds its workload's capture with the benchmark's own scene
builder (``perfbench/child.build_scene``) and ``simulate``, then runs
``photontrack track`` in-process with ``configs/default.cfg`` and the
workload's ``track_args`` (``perfbench/workloads.WORKLOADS``).  Three
more cases make tracks coast.  ``clutter_kalman_centroid`` tracks
clutter's capture under ``assoc_mode=kalman_centroid``, which reads no
box.  ``parzen_bbox_coasting`` and ``parzen_kalman_bbox_coasting``
track parzen's capture under ``scheme=threshold``, ``threshold=1`` and
``t_max=12`` in the two box modes: noise tracks are born and coast
every step (447 of the 720 rows), so the box a coasting track reports,
and under ``bbox`` associates by, is refereed.
``parzen_moving_average`` tracks parzen's capture under
``threshold_mode=moving_average`` and ``alpha=0.2``, so every step
seeds its smoothing windows from the brightest voxel's smoothed value
and threads the previous step's threshold.  Each case's ``tracks.csv``
and ``links.csv``, and crossing's ``truth.csv`` and ``summary.json``,
must equal the golden files byte for byte.

Distances and principal axes go through BLAS, so another numpy build
may move a last printed digit.  On a byte mismatch both files are
parsed instead: every column must then be equal exactly, except the
float columns in ``FLOAT_COLUMNS``, which must agree to a relative
``REL_TOL``.  Below magnitude 1 the difference counts as absolute:
unit-vector components and accelerations sit near zero (the golden
files hold values like 4.8e-11 and -0), where a last-digit change is a
large relative one.  A mismatched ``summary.json`` is parsed as JSON
and compared the same way, every number under the float rule.  A
failure names the largest difference and where it is.

When a change alters the outputs on purpose, regenerate the golden
files and state the largest difference it made, which the command
prints for each table with the number of rows changed:

    PYTHONPATH=src python3 tests/test_reference_outputs.py

With ``--check`` it writes nothing under ``tests/golden``: it runs every
case in a temporary directory, prints ``identical`` or the difference
for each table, and exits 1 on any byte difference, however small.
"""
from __future__ import annotations

import csv
import dataclasses
import io
import json
import sys
from pathlib import Path

import pytest

import photontrack
from photontrack import cli
from photontrack.outputs import write_truth_csv

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden"
SEED = 1
# child.py imports workloads by name, so perfbench/ goes on the path
sys.path.insert(0, str(ROOT / "perfbench"))
import child  # noqa: E402
from workloads import CONFIG, WORKLOADS  # noqa: E402

CASES = {name: WORKLOADS[name] for name in ("crossing", "parzen", "swarm", "clutter")}
CASES["clutter_kalman_centroid"] = dataclasses.replace(
    CASES["clutter"],
    track_args=(*CASES["clutter"].track_args, "--set", "assoc_mode=kalman_centroid"),
)
for _mode in ("bbox", "kalman_bbox"):
    CASES[f"parzen_{_mode}_coasting"] = dataclasses.replace(
        CASES["parzen"],
        track_args=(
            *CASES["parzen"].track_args,
            "--set", "scheme=threshold", "--set", "threshold=1",
            "--set", "t_max=12", "--set", f"assoc_mode={_mode}",
        ),
    )
CASES["parzen_moving_average"] = dataclasses.replace(
    CASES["parzen"],
    track_args=(
        *CASES["parzen"].track_args,
        "--set", "threshold_mode=moving_average", "--set", "alpha=0.2",
    ),
)
REL_TOL = 1e-8
FLOAT_COLUMNS = frozenset(
    [f"centroid_{a}" for a in "xyz"]
    + [f"{kind}_{a}" for kind in ("velocity", "accel", "orient") for a in "xyz"]
    + ["speed"]
)


def _outputs(name: str, out_dir: Path) -> dict[str, bytes]:
    """Simulate the workload's capture and track it; returns file bytes
    by golden file name."""
    workload = CASES[name]
    scene, sensor = child.build_scene(photontrack, ROOT, workload.capture, SEED)
    frames, truth = photontrack.simulate(scene, sensor)
    raw = out_dir / "capture.raw"
    photontrack.write_raw(frames, raw)
    write_truth_csv(truth, out_dir / "truth.csv")
    rc = cli.main(
        ["track", "--raw", str(raw), "--config", str(ROOT / CONFIG),
         "--out-dir", str(out_dir), *workload.track_args]
    )
    assert rc == 0
    files = ["tracks.csv", "links.csv"]
    files += ["truth.csv", "summary.json"] if name == "crossing" else []
    return {f: (out_dir / f).read_bytes() for f in files}


def _rows(data: bytes) -> list[list[str]]:
    return list(csv.reader(io.StringIO(data.decode("utf-8"))))


def _rel_diff(a: float, b: float) -> float:
    return abs(a - b) / max(abs(a), abs(b), 1.0)


def _json_diffs(got, want, where: str):
    """Yield (relative difference, place) for every number pair of two
    parsed JSON values; any other difference fails at once."""
    if isinstance(want, dict):
        assert isinstance(got, dict) and got.keys() == want.keys(), where
        for key in want:
            yield from _json_diffs(got[key], want[key], f"{where}.{key}")
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), where
        for i, (g, w) in enumerate(zip(got, want)):
            yield from _json_diffs(g, w, f"{where}[{i}]")
    elif isinstance(want, float) or isinstance(got, float):
        yield _rel_diff(float(got), float(want)), where
    else:
        assert got == want, f"{where}: {got!r} != golden {want!r}"


def _table_diff(got_rows: list[list[str]], want_rows: list[list[str]]):
    """Walk two tables of one header and length cell by cell.  Returns
    the largest relative difference of a ``FLOAT_COLUMNS`` cell as
    (difference, column, line), the first other cell that differs as
    (line, column, value, golden value) or None, and how many rows
    differ at all."""
    header = want_rows[0]
    worst, other, changed = (0.0, None, None), None, 0
    for line, (g, w) in enumerate(zip(got_rows[1:], want_rows[1:]), start=2):
        changed += g != w
        for col, gv, wv in zip(header, g, w):
            if col in FLOAT_COLUMNS and gv and wv:
                diff = _rel_diff(float(gv), float(wv))
                if diff > worst[0]:
                    worst = (diff, col, line)
            elif gv != wv and other is None:
                other = (line, col, gv, wv)
    return worst, other, changed


def _compare(fname: str, got: bytes, want: bytes) -> None:
    """Pass on equal bytes, or on equal parsed tables (or JSON) whose
    floats agree to REL_TOL; otherwise fail naming the largest
    difference."""
    if got == want:
        return
    if fname.endswith(".json"):
        diffs = _json_diffs(json.loads(got), json.loads(want), fname)
        diff, where = max(diffs, default=(0.0, None))
        assert diff <= REL_TOL, (
            f"largest relative difference {diff:.3g} at {where} exceeds {REL_TOL:g}"
        )
        return
    got_rows, want_rows = _rows(got), _rows(want)
    header = want_rows[0]
    assert got_rows[0] == header, f"{fname}: header {got_rows[0]} != {header}"
    assert len(got_rows) == len(want_rows), (
        f"{fname}: {len(got_rows) - 1} rows, golden has {len(want_rows) - 1}"
    )
    (diff, col, line), other, _ = _table_diff(got_rows, want_rows)
    assert other is None, "{} line {}, {}: {!r} != golden {!r}".format(fname, *other)
    assert diff <= REL_TOL, (
        f"{fname}: largest relative difference {diff:.3g} in column {col} "
        f"(line {line}) exceeds {REL_TOL:g}"
    )


def _change(got: bytes, want: bytes) -> str:
    """How a regenerated table differs from the golden one it replaces."""
    got_rows, want_rows = _rows(got), _rows(want)
    if got_rows[0] != want_rows[0] or len(got_rows) != len(want_rows):
        return "header or row count changed"
    (diff, col, line), other, changed = _table_diff(got_rows, want_rows)
    text = f"{changed} of {len(want_rows) - 1} rows changed, largest relative "
    text += f"difference {diff:.3g}" + (f" in {col} (line {line})" if col else "")
    return text + ("" if other is None else f", and {other[1]} on line {other[0]}")


@pytest.mark.parametrize("name", CASES)
def test_outputs_match_golden_files(name, tmp_path):
    for fname, got in _outputs(name, tmp_path).items():
        _compare(fname, got, (GOLDEN / name / fname).read_bytes())


def test_compare_reports_the_largest_float_difference():
    want = b"step,centroid_x,speed\n0,1.5,2\n1,3,4\n"
    _compare("t.csv", b"step,centroid_x,speed\n0,1.5000000001,2\n1,3,4\n", want)
    _compare("t.csv", b"step,centroid_x,speed\n0,1.5,2\n1,3,1e-12\n",
             b"step,centroid_x,speed\n0,1.5,2\n1,3,-0\n")
    with pytest.raises(AssertionError, match=r"speed \(line 3\)"):
        _compare("t.csv", b"step,centroid_x,speed\n0,1.5,2.001\n1,3,4.01\n", want)
    with pytest.raises(AssertionError, match="line 2, step"):
        _compare("t.csv", b"step,centroid_x,speed\n7,1.5,2\n1,3,4\n", want)


def test_compare_reads_json_numbers_under_the_float_rule():
    want = b'{"n": 2, "p": [[0, 1.5, -0.0]]}'
    _compare("s.json", b'{"n": 2, "p": [[0, 1.5000000001, 1e-12]]}', want)
    with pytest.raises(AssertionError, match=r"s\.json\.p\[0\]\[1\]"):
        _compare("s.json", b'{"n": 2, "p": [[0, 1.6, 0.0]]}', want)
    with pytest.raises(AssertionError, match=r"s\.json\.n: 3"):
        _compare("s.json", b'{"n": 3, "p": [[0, 1.5, 0.0]]}', want)


def _report(fname: str, got: bytes, want: bytes) -> str:
    """``identical``, or how ``got`` differs from the golden ``want``."""
    if got == want:
        return "identical"
    if not fname.endswith(".json"):
        return _change(got, want)
    try:
        diffs = _json_diffs(json.loads(got), json.loads(want), fname)
        diff, where = max(diffs, default=(0.0, None))
    except AssertionError as exc:
        return f"changed: {exc}"
    return f"largest relative difference {diff:.3g} at {where}"


def main(argv=None) -> int:
    import argparse
    import tempfile

    parser = argparse.ArgumentParser(
        description="Regenerate the golden files, or compare with them."
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help="write nothing; print each table's difference from its golden "
        "file and exit 1 unless every byte is equal",
    )
    args = parser.parse_args(argv)
    rc = 0
    for name in CASES:
        with tempfile.TemporaryDirectory() as tmp:
            for fname, data in _outputs(name, Path(tmp)).items():
                path = GOLDEN / name / fname
                old = path.read_bytes() if path.exists() else None
                change = "no golden file" if old is None else _report(fname, data, old)
                if args.check:
                    rc |= data != old
                    print(f"{name}/{fname}: {change}")
                    continue
                path.parent.mkdir(parents=True, exist_ok=True)
                path.write_bytes(data)
                print(f"wrote {path} ({len(data)} bytes): {change}")
    return rc


if __name__ == "__main__":
    sys.exit(main())
