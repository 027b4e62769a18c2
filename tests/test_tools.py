"""Smoke checks of the layer-bench tool, tools/bench_layers.py, at tiny sizes."""

import contextlib
import importlib.util
import json
import os
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@contextlib.contextmanager
def _imported_tool():
    """The tool as a fresh module; the BLAS variables and sys.path it sets are undone after."""
    environ, path = os.environ.copy(), list(sys.path)
    spec = importlib.util.spec_from_file_location("bench_layers",
                                                  ROOT / "tools" / "bench_layers.py")
    tool = importlib.util.module_from_spec(spec)
    try:
        spec.loader.exec_module(tool)
        yield tool
    finally:
        os.environ.clear()
        os.environ.update(environ)
        sys.path[:] = path


@pytest.fixture(scope="module")
def tool():
    with _imported_tool() as module:
        yield module


def _committed_row_keys(topic):
    record = json.loads((ROOT / f"BENCH_{topic}.json").read_text())
    rows = record["sizes"] if "sizes" in record else record["cases"][0]["curve"]
    return list(rows[0])


def test_offset_table_row_keeps_the_committed_keys(tool):
    row = tool._offset_row(1.0, 40)
    assert list(row) == _committed_row_keys("offset_table")
    assert row["repeats"] == 1


def test_crack_assembly_row_from_one_child_keeps_the_committed_keys(tool):
    row = tool._assembly_row(40)
    assert list(row) == _committed_row_keys("crack_assembly")
    assert row["time_s_median"] == row["time_s_min"] == row["time_s_max"]


def test_against_head_exports_the_committed_tree(tool):
    import subprocess

    if subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--verify", "HEAD^{commit}"],
                      capture_output=True).returncode != 0:
        pytest.skip("not a git checkout with a commit")
    with tool._exported("HEAD") as (commit, tree):
        assert (tree / "tools" / "bench_layers.py").is_file()
        assert (tree / "src" / "hypersing" / "crack.py").is_file()
    assert not tree.exists()
    head = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                          capture_output=True, text=True).stdout.strip()
    assert commit == head


def test_records_merge_by_key_suffix(tool):
    runs = [{"topic": "t", "sizes": [{"n": 8, "t_median": t, "t_min": t, "t_max": t,
                                      "repeats": 1, "ok": ok, "cells": [0, 4],
                                      "first_row": [0.5, t], "table_sha256": "a" * 64}]}
            for t, ok in ((3.0, True), (1.0, True), (2.0, False))]
    merged = tool._merged(runs)
    assert merged == {"topic": "t", "sizes": [{
        "n": 8, "t_median": 2.0, "t_min": 1.0, "t_max": 3.0, "repeats": 3, "ok": False,
        "cells": [0, 4], "first_row": [0.5, 2.0], "table_sha256": "a" * 64}]}
    runs[1]["sizes"][0]["table_sha256"] = "b" * 64
    with pytest.raises(RuntimeError, match="table_sha256 differs across runs"):
        tool._merged(runs)
    with pytest.raises(RuntimeError, match="other keys"):
        tool._merged([{"n": 1}, {"m": 1}])


# a tool that writes a canned record: run k of tree NAME takes TIMES[NAME][k]
# seconds, and every run appends NAME to the order log beside the trees
STUB_TOOL = """
import json, sys
from pathlib import Path

tree = Path(__file__).resolve().parent.parent
log = tree.parent / "order.log"
done = log.read_text().split() if log.exists() else []
log.write_text(" ".join(done + [tree.name]))
seconds = {"own": [1.0, 3.0, 1.0], "rev": [2.0, 2.0, 2.0]}[tree.name][done.count(tree.name)]
assert sys.argv[1:4] == ["crack_assembly", "--repeats", "1"]
Path(sys.argv[5]).write_text(json.dumps({"topic": "crack_assembly", "sizes": [
    {"n": 40, "time_s_median": seconds, "repeats": 1,
     "opening_sha256": tree.name[0] * 64}]}))
"""


def test_paired_runs_alternate_and_count_the_pairs_won(tool, tmp_path):
    trees = [tmp_path / "own", tmp_path / "rev"]
    for tree in trees:
        (tree / "tools").mkdir(parents=True)
        (tree / "src").mkdir()
        (tree / "tools" / "bench_layers.py").write_text(STUB_TOOL)
    own, rev = tool._repeated("crack_assembly", 3, trees)
    assert (tmp_path / "order.log").read_text().split() == ["own", "rev", "rev", "own",
                                                             "own", "rev"]
    [row], [theirs] = own["sizes"], rev["sizes"]
    assert row == {"n": 40, "time_s_median": 1.0, "repeats": 3,
                   "opening_sha256": "o" * 64, "pairs_won": 2}
    assert theirs == {"n": 40, "time_s_median": 2.0, "repeats": 3, "opening_sha256": "r" * 64}
    own["against"] = {"rev": "REV", "commit": "0" * 40, "record": rev}
    lines = tool._paired_lines(["n=40"], own, "REV")
    assert lines == ["n=40; REV: 2 s, won 2/3, digests DIFFER", "digests DIFFER from REV's"]


def test_sweep_row_keeps_the_committed_keys_and_equals_single_solves(tool):
    layers = {name: getattr(tool.crack, name) for name in tool.LAYERS}
    row = tool._sweep_row(1.0, 20, 1)
    assert list(row) == _committed_row_keys("sweep_table")
    assert row["sweep_s_min"] == row["sweep_s"] <= row["sweep_s_max"]
    assert row["rows_equal_single_solves"] is True
    assert all(getattr(tool.crack, name) is layer for name, layer in layers.items())


def test_sweep_row_refuses_a_timed_sweep_with_other_rows(tool, monkeypatch):
    # the warm-up, then SWEEP_TIMINGS timed sweeps, the last of which differs
    calls = []

    def sweep(*args):
        calls.append(args)
        return [(0.35, 1.0, 1.0 + (len(calls) > tool.SWEEP_TIMINGS))]

    monkeypatch.setattr(tool, "porosity_sweep", sweep)
    with pytest.raises(RuntimeError, match="not deterministic"):
        tool._sweep_row(1.0, 20, 1)
    assert len(calls) == 1 + tool.SWEEP_TIMINGS


@pytest.mark.parametrize("topic", ["offset_table", "crack_assembly", "sweep_table"])
def test_repeats_below_one_are_refused(tool, topic, capsys):
    with pytest.raises(SystemExit) as exit_info:
        tool.main([topic, "--repeats", "0"])
    assert exit_info.value.code == 2
    assert "--repeats: must be at least 1, not 0" in capsys.readouterr().err


def test_importing_the_tool_is_undone():
    before = os.environ.copy(), list(sys.path)
    with _imported_tool() as tool:
        assert all(os.environ[var] == "1" for var in tool.BLAS_VARS)
    assert (os.environ.copy(), list(sys.path)) == before
