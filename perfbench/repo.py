"""Locate the repository checkout and import walklab from its source tree.

The benchmark measures the code in the checkout it sits in, never an
installed copy, so every entry point calls `use_source_tree()` before it
imports walklab or the workload modules.
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def use_source_tree() -> None:
    """Put ROOT/src first on sys.path and import walklab from there.

    Exits with a non-zero status, printing no result, when the checkout
    holds no walklab sources or walklab resolves to another location.
    """
    if not (SRC / "walklab" / "__init__.py").is_file():
        sys.exit(f"perfbench: no walklab sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import walklab

    origin = Path(walklab.__file__).resolve()
    if SRC not in origin.parents:
        sys.exit(f"perfbench: walklab imported from {origin}, not from {SRC}")


def git_commit() -> str:
    """HEAD of the checkout read from .git, or "unknown" outside a git tree."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"
