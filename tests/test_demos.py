"""Every demo script, and the README's library tour, runs to completion against the
current API."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def _run(script, tmp_path):
    env = dict(os.environ, TMPDIR=str(tmp_path))
    proc = subprocess.run([sys.executable, str(script)], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_exits_zero(demo, tmp_path):
    _run(demo, tmp_path)


def test_readme_library_tour_exits_zero(tmp_path):
    blocks = re.findall(r"^```python\n(.*?)^```$", (ROOT / "README.md").read_text(),
                        re.DOTALL | re.MULTILINE)
    assert len(blocks) == 1
    tour = tmp_path / "tour.py"
    tour.write_text(blocks[0])
    # The tour prints the MSSD of its fit against the truth; the bound is its noise sigma.
    assert 0.0 <= float(_run(tour, tmp_path)) <= 0.001
