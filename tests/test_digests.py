"""The bytes every shipped and benchmark config writes match the committed digests.

``scripts/config_digests.py`` sets the BLAS thread count before numpy is
first imported, so it runs in its own process.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_config_outputs_match_committed_digests():
    result = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "config_digests.py")],
        capture_output=True, text=True, cwd=ROOT, timeout=600,
    )
    assert result.returncode == 0, result.stdout + result.stderr
    expected = (ROOT / "scripts" / "config_digests.txt").read_text(encoding="utf-8")
    assert result.stdout == expected
