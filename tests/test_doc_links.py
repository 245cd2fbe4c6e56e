"""Every repo path the docs cite must exist.

Runs ``tools/check_doc_links.py`` over the guided-tour documents, so a
deletion or move that leaves a dangling path reference fails locally in
tier-1 and not only on GitHub.
"""

from __future__ import annotations

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DOCS = [
    "ARCHITECTURE.md",
    "README.md",
    "ROADMAP.md",
    "docs/paper-figures.md",
    "benchmarks/README.md",
]


def test_doc_path_references_resolve():
    result = subprocess.run(
        [sys.executable, "tools/check_doc_links.py", *DOCS],
        cwd=ROOT, capture_output=True, text=True, timeout=60,
    )
    assert result.returncode == 0, result.stderr
