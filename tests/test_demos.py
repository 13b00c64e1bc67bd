"""The quick demos run to completion against the current package.

Each runs in a fresh interpreter with ``src`` on ``PYTHONPATH``, so a
checkout that is not installed runs them too.  The two tracking demos,
which take several seconds each, are left out.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("demo", ["demo_ospa_metrics.py",
                                  "demo_switching_criteria.py"])
def test_demo_runs(demo):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [
        str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / demo)],
                          capture_output=True, text=True, env=env, cwd=ROOT)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout
