"""bench/opcodes.py on a three-node scenario: each count runs in a child process."""
import importlib.util
import sys
from pathlib import Path

PATH = Path(__file__).resolve().parent.parent / "bench" / "opcodes.py"
sys.path.insert(0, str(PATH.parent))    # opcodes.py imports its sibling diverge.py
spec = importlib.util.spec_from_file_location("opcodes", PATH)
opcodes = importlib.util.module_from_spec(spec)
spec.loader.exec_module(opcodes)

TINY = ("area 800 800\nnode 0 100 100\nnode 1 300 100\nnode 2 500 100\n"
        "flow 0 2 10 512 0.5 1.0\nend 1.0\n")


def test_a_run_counts_the_same_twice(tmp_path):
    scenario = tmp_path / "tiny.scn"
    scenario.write_text(TINY)
    first, second = (opcodes.count(opcodes.ROOT, str(scenario), "aodv", str(tmp_path / out))
                     for out in ("a", "b"))
    assert first == second
    assert first["opcodes"] > first["frames"] > 0
    assert (tmp_path / "a" / "trace.txt").read_text().startswith("s 0.500000 0 DATA 512 ")
