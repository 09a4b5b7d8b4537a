"""Every toy-pipeline output keeps the digest recorded in ``tools/output_digests.txt``.

The test reruns ``tools/output_digests.py`` and compares. The bits depend on
the numpy version, the BLAS library and the kernel OpenBLAS picks, so on a
platform whose key differs from the recorded one the test skips and names the
key. A change that moves bits on purpose records the tool's new output in
that file and says why.
"""

import subprocess
import sys
from pathlib import Path

import pytest

TOOLS = Path(__file__).resolve().parents[1] / "tools"


def _parse(text: str) -> tuple[dict[str, str], dict[str, str]]:
    """(platform key, path -> sha256) of the tool's output."""
    key, digests = {}, {}
    for line in text.splitlines():
        if line.startswith("# "):
            name, _, value = line[2:].partition(": ")
            key[name] = value
        else:
            digest, _, path = line.partition("  ")
            digests[path] = digest
    return key, digests


def test_parse_reads_the_key_and_the_digests():
    assert _parse("# numpy: 2.0\nab  a/x.wav\ncd  b/y.s3ck\n") == (
        {"numpy": "2.0"}, {"a/x.wav": "ab", "b/y.s3ck": "cd"})


def test_outputs_match_the_recorded_digests(tmp_path):
    proc = subprocess.run([sys.executable, str(TOOLS / "output_digests.py"),
                           str(tmp_path / "out")],
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    recorded_key, recorded = _parse((TOOLS / "output_digests.txt").read_text("utf-8"))
    key, digests = _parse(proc.stdout)
    moved = [f"{name}: recorded {value!r}, here {key.get(name)!r}"
             for name, value in recorded_key.items() if key.get(name) != value]
    if moved:
        pytest.skip("digests were recorded on another platform: " + "; ".join(moved))
    differing = [f"{path}: recorded {recorded.get(path)}, here {digests.get(path)}"
                 for path in sorted(recorded.keys() | digests.keys())
                 if recorded.get(path) != digests.get(path)]
    assert differing == []
