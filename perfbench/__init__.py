"""Benchmark of the manetsim simulator; see README.md in this directory."""
from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def use_checkout_source() -> None:
    """Make `import manetsim` load this checkout's src/, or exit non-zero."""
    package = ROOT / "src" / "manetsim" / "__init__.py"
    if not package.is_file():
        sys.exit(f"error: simulator source not found at {package}")
    sys.path.insert(0, str(ROOT / "src"))
    import manetsim
    if Path(manetsim.__file__).resolve() != package.resolve():
        sys.exit(f"error: manetsim imported from {manetsim.__file__}, not {package}")
