"""The README's code runs as written."""

import os
import re
import subprocess
import sys
from pathlib import Path

import torsiondeg

SRC = Path(torsiondeg.__file__).resolve().parents[1]
README = SRC.parent / "README.md"


def _python_blocks():
    return re.findall(r"^```python\n(.*?)^```", README.read_text("utf-8"),
                      flags=re.MULTILINE | re.DOTALL)


def test_readme_python_blocks_run(tmp_path):
    blocks = _python_blocks()
    assert blocks
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(SRC), os.environ.get("PYTHONPATH", "")])}
    for block in blocks:
        out = subprocess.run([sys.executable, "-c", block], env=env,
                             cwd=tmp_path, capture_output=True, text=True,
                             timeout=300)
        assert out.returncode == 0, out.stderr
