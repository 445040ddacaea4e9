"""The README's Python API example runs against the package as it stands."""

import os
import re
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_readme_python_example_runs():
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as fh:
        blocks = re.findall(r"^```python\n(.*?)^```$", fh.read(), re.M | re.S)
    assert len(blocks) == 1
    proc = subprocess.run(
        [sys.executable, "-c", blocks[0]],
        env={**os.environ, "PYTHONPATH": os.path.join(ROOT, "src")},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    # fidelity and the four budget numbers
    assert len(proc.stdout.split()) == 5
