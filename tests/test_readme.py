"""The README's examples run against the current API."""
import ast
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def library_use_block() -> str:
    """The Python block under the README's "Library use" heading."""
    text = README.read_text()
    section = text[text.index("## Library use"):]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_library_use_example_prints_the_routes_in_its_comment():
    block = library_use_block()
    line = next(ln for ln in block.splitlines() if "route_history" in ln)
    claimed = ast.literal_eval(line.split("#", 1)[1].strip())
    assert claimed == [[0, 7, 3, 5], [0, 7, 5], [0, 1, 4, 5], [0, 9, 4, 5]]
    printed = []
    exec(compile(block, str(README), "exec"), {"print": printed.append})
    assert printed[0] == claimed
    assert printed[1]["scenario"] == "scenario2" and printed[1]["protocol"] == "aodv"
