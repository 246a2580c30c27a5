"""The bytes every shipped and benchmark config writes match the committed digests.

``scripts/config_digests.py`` sets the BLAS thread count before numpy is
first imported, so it runs in its own process.
"""

import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _label(line: str) -> str:
    """The config label of an output line, ``<label>/<file> <sha256>`` or
    ``<label> exit <code>``."""
    name, *rest = line.split(" ")
    return name if rest[0] == "exit" else name.rsplit("/", 1)[0]


def test_config_outputs_match_committed_digests():
    result = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "config_digests.py")],
        capture_output=True, text=True, cwd=ROOT, timeout=600,
    )
    assert result.returncode == 0, result.stdout + result.stderr
    expected = (ROOT / "scripts" / "config_digests.txt").read_text(encoding="utf-8")
    if result.stdout != expected:
        # name the configs whose digests moved, not the two whole outputs
        moved = set(result.stdout.splitlines()) ^ set(expected.splitlines())
        labels = sorted({_label(line) for line in moved}) or ["none; the line order differs"]
        pytest.fail(f"digests differ for: {', '.join(labels)}")


def test_a_variant_that_drops_a_key_its_config_lacks_is_refused(tmp_path):
    # such a drop would leave the variant the same as its config's run
    script = ROOT / "scripts" / "config_digests.py"
    code = f"""
import importlib.util, pathlib
spec = importlib.util.spec_from_file_location("config_digests", {str(script)!r})
digests = importlib.util.module_from_spec(spec)
spec.loader.exec_module(digests)
digests.VARIANTS = {{("continual_demo.json", "gone"): {{"patience": None}}}}
list(digests._runs(pathlib.Path({str(tmp_path)!r})))
"""
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                            cwd=ROOT, timeout=120)
    assert result.returncode == 1
    assert result.stderr.splitlines()[-1] == (
        "ValueError: variant 'gone' of continual_demo.json drops patience, which the config "
        "does not have"
    )
