"""The README's library use is the package's: its example runs, and every
name it lists as exported is."""

import os
import re
import subprocess
import sys
from pathlib import Path

import mfgnet as mn

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()
LIBRARY_USE = README[README.index("## Library use"):]


def test_library_example_runs_without_warnings():
    code = re.search(r"```python\n(.*?)```", LIBRARY_USE, re.S).group(1)
    env = dict(os.environ, PYTHONPATH=str(Path(mn.__file__).resolve().parents[1]))
    done = subprocess.run([sys.executable, "-W", "error", "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    t_star, iterations, residual = done.stdout.split()
    assert float(t_star) > 0 and int(iterations) >= 1 and float(residual) >= 0


def test_listed_exports_are_exported():
    start = LIBRARY_USE.index("The lower-level pieces are exported")
    sentence = LIBRARY_USE[start: LIBRARY_USE.index("Everything else", start)]
    names = re.findall(r"`(\w+)`", sentence)
    assert len(names) > 20
    assert sorted(set(names) - set(mn.__all__)) == []
