"""Smoke test: every demo runs to completion.

Each demo runs as its own process, the three model demos at half size
(``--quick``), and writes under the git-ignored ``demos/out/``.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = [
    ("01_lift_and_reconstruct.py",),
    ("02_heat_kernel.py",),
    ("03_wilson_cowan_gratings.py", "--quick"),
    ("04_lhe_gratings.py", "--quick"),
    ("05_tau_sweep.py", "--quick"),
]


@pytest.mark.parametrize("demo", DEMOS, ids=[d[0].split("_")[0] for d in DEMOS])
def test_demo_runs(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    script, *args = demo
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / script), *args],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
