"""bench/diverge.py on a three-node scenario: each side runs in a child process."""
import importlib.util
import io
import shutil
import subprocess
import tempfile
from pathlib import Path

import pytest

PATH = Path(__file__).resolve().parent.parent / "bench" / "diverge.py"
spec = importlib.util.spec_from_file_location("diverge", PATH)
diverge = importlib.util.module_from_spec(spec)
spec.loader.exec_module(diverge)

TINY = ("area 800 800\nnode 0 100 100\nnode 1 300 100\nnode 2 500 100\n"
        "flow 0 2 10 512 0.5 1.0\nend 1.0\n")
IN_GIT = shutil.which("git") is not None and subprocess.run(
    ["git", "rev-parse", "HEAD"], cwd=diverge.ROOT, capture_output=True).returncode == 0


@pytest.fixture(scope="module")
def tiny(tmp_path_factory):
    path = tmp_path_factory.mktemp("diverge") / "tiny.scn"
    path.write_text(TINY)
    return str(path)


@pytest.fixture(scope="module")
def seeds(tiny):
    """The working tree's runs of TINY at sim seeds 1 and 2."""
    return [diverge.run_tree(diverge.ROOT, tiny, "aodv", seed) for seed in (1, 2)]


@pytest.mark.skipif(not IN_GIT, reason="git archive needs a git checkout")
def test_head_against_head_shows_no_divergence(tiny):
    runs = []
    for _ in range(2):
        with tempfile.TemporaryDirectory(prefix="diverge-head-") as tree:
            runs.append(diverge.run_tree(diverge.unpack("HEAD", tree), tiny, "aodv", 1))
    result = diverge.compare(*runs)
    assert result["event"] is None and result["trace_line"] is None
    out = io.StringIO()
    diverge.report(result, out)
    assert out.getvalue().startswith("no divergence: 24 events and ")


def test_two_seeds_first_differ_at_the_first_jittered_frame(seeds):
    """Seed 1 and seed 2 share the emission at 0.5 s; the rebroadcast frame
    after it is the first to carry a jitter draw."""
    one, two = seeds
    result = diverge.compare(one, two)
    assert result["event"] == 1 and result["trace_line"] == 2
    assert one.events[0] == two.events[0]
    # "Simulation.emit_data" where the code object has co_qualname (3.11 on)
    assert one.events[0].split()[:2] in (["0.500000", "Simulation.emit_data"],
                                         ["0.500000", "emit_data"])
    out = io.StringIO()
    diverge.report(result, out)
    lines = out.getvalue().splitlines()
    assert lines[:2] == ["events: parent 24, change 24", "first divergent event: 1"]
    assert [ln.split()[0] for ln in lines if ln.startswith(">")] == [">", ">"]
    assert "first divergent trace.txt line: 3" in lines


def test_permuted_uids_compare_equal_only_when_renumbered(seeds):
    run = seeds[0]
    uids = {line.split()[diverge.TRACE_UID] for line in run.trace}
    top = max(map(int, uids)) + 1
    flip = {uid: str(top - int(uid)) for uid in uids}   # reverses the uid order

    def permuted(lines, field):
        return [" ".join(flip.get(f, f) if i == field else f for i, f in enumerate(line.split()))
                for line in lines]

    other = diverge.Run(permuted(run.events, diverge.EVENT_UID),
                        permuted(run.trace, diverge.TRACE_UID))
    assert other != run and len(uids) > 1
    plain = diverge.compare(run, other)
    assert plain["event"] is not None and plain["trace_line"] is not None
    same = diverge.compare(run, other, renumber_uids=True)
    assert same["event"] is None and same["trace_line"] is None
