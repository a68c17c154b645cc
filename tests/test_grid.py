"""bench/grid.py: one builtin case through the child path, and the grid's cases."""
import importlib.util
import sys
from pathlib import Path

PATH = Path(__file__).resolve().parent.parent / "bench" / "grid.py"
sys.path.insert(0, str(PATH.parent))    # grid.py imports its siblings diverge.py and pairs.py
spec = importlib.util.spec_from_file_location("grid", PATH)
grid = importlib.util.module_from_spec(spec)
spec.loader.exec_module(grid)


def test_a_builtin_case_runs_in_a_child_and_reports_its_figures(tmp_path):
    figures = grid.run_case(grid.ROOT, "scenario1", "aodv", str(tmp_path / "out"))
    assert sorted(figures) == ["events", "events_per_s", "peak_rss_mb", "run_s", "total_s"]
    assert figures["events"] > 0 and 0 < figures["run_s"] < figures["total_s"]
    assert figures["events_per_s"] == figures["events"] / figures["run_s"]
    assert figures["peak_rss_mb"] > 1
    assert (tmp_path / "out" / "trace.txt").read_text().startswith("s ")


def test_the_grid_names_both_builtins_every_size_and_both_highway_speeds_per_protocol():
    cases = grid.cases()
    assert list(cases) == [f"{protocol}-{case}" for protocol in ("aodv", "dsdv")
                           for case in ("scenario1", "scenario2", "rwp-25", "rwp-50", "rwp-100",
                                        "rwp-200", "highway-v0", "highway-v40")]
    assert {protocol for _, protocol in cases.values()} == {"aodv", "dsdv"}
    assert cases["dsdv-scenario2"] == ("scenario2", "dsdv")
    assert cases["aodv-rwp-200"][0].count("\nnode ") == 200
    assert "end 10.0\n" in cases["dsdv-highway-v40"][0]
