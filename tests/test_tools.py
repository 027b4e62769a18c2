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
    row = tool._offset_row(1.0, 40, 1, {})
    assert list(row) == _committed_row_keys("offset_table")
    assert row["previous_table_sha256"] is None


def test_crack_assembly_row_from_one_child_keeps_the_committed_keys(tool):
    row = tool._assembly_row(40, 1, {})
    assert list(row) == _committed_row_keys("crack_assembly")
    assert row["previous_opening_sha256"] is None


def test_crack_assembly_row_against_head_pairs_the_two_trees(tool):
    import subprocess

    if subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--verify", "HEAD^{commit}"],
                      capture_output=True).returncode != 0:
        pytest.skip("not a git checkout with a commit")
    with tool._exported("HEAD") as tree:
        assert (tree / "tools" / "bench_layers.py").is_file()
        row = tool._assembly_row(40, 2, {}, tree)
    assert not tree.exists()
    keys = _committed_row_keys("crack_assembly")
    assert list(row)[:len(keys)] == keys
    assert list(row)[len(keys):] == ["against_time_s_median", "against_time_s_min",
                                     "against_time_s_max", "against_peak_rss_mib_median",
                                     "against_opening_sha256", "pairs_won"]
    assert len(row["against_opening_sha256"]) == 64 and 0 <= row["pairs_won"] <= 2


def test_against_is_refused_for_other_topics(tool, capsys):
    with pytest.raises(SystemExit) as exit_info:
        tool.main(["sweep_table", "--against", "HEAD"])
    assert exit_info.value.code == 2
    assert "--against applies to crack_assembly only" in capsys.readouterr().err


def test_sweep_row_keeps_the_committed_keys_and_equals_single_solves(tool):
    layers = {name: getattr(tool.crack, name) for name in tool.LAYERS}
    row = tool._sweep_row(1.0, 20, 1, 1, {})
    assert list(row) == _committed_row_keys("sweep_table")
    assert row["rows_equal_single_solves"] is True
    assert all(getattr(tool.crack, name) is layer for name, layer in layers.items())


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


def test_previous_digests_are_read_by_row_key(tool):
    sweep = json.loads((ROOT / "BENCH_sweep_table.json").read_text())
    expect = {(case["half_length"], case["n"], row["targets"]): row["rows_sha256"]
              for case in sweep["cases"] for row in case["curve"]}
    assert tool._previous("sweep_table", ("half_length", "n", "targets"),
                          "rows_sha256") == expect
    assembly = json.loads((ROOT / "BENCH_crack_assembly.json").read_text())
    assert tool._previous("crack_assembly", ("n",), "opening_sha256") == {
        (row["n"],): row["opening_sha256"] for row in assembly["sizes"]}
    assert tool._previous("no_such_topic", ("n",), "opening_sha256") == {}
