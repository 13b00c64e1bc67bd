"""The quick demos and the README's examples run to completion against
the current package.

Each runs in a fresh interpreter with ``src`` on ``PYTHONPATH``, so a
checkout that is not installed runs them too.  The two tracking demos,
which take several seconds each, are left out; the CI workflow runs them
in a step of its own.
"""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def run_python(args):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [
        str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable] + args, capture_output=True,
                          text=True, env=env, cwd=ROOT)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


@pytest.mark.parametrize("demo", ["demo_ospa_metrics.py",
                                  "demo_switching_criteria.py"])
def test_demo_runs(demo):
    assert run_python([str(ROOT / "demos" / demo)])


def test_readme_examples_run():
    # "Quick start", then "drive the pipeline directly", which reads the
    # scans the first block made: one script, in README order.
    blocks = re.findall(r"^```python\n(.*?)^```$",
                        (ROOT / "README.md").read_text(), re.M | re.S)
    assert len(blocks) == 2
    assert "MultiObjectTracker(" in blocks[1]
    assert run_python(["-c", "\n".join(blocks)])
