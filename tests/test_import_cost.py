"""Importing the package loads no scipy subpackage.

``scipy.interpolate`` and ``scipy.ndimage`` add about 26 MB of resident
memory and 0.4 s to every process that imports them; the package needs
neither (the cake bank evaluates its own B-spline pieces and the local
mean filters in the Fourier domain).  ``scipy.fft`` imports
``scipy.special``, another 25 MB and 0.35 s; ``heat`` loads scipy's
compiled pocketfft module from its file instead.  Tests may still use
all of them as oracles.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HEAVY = ("scipy.interpolate", "scipy.ndimage", "scipy.special", "scipy.fft")

PROBE = f"""
import json, sys
import srcortex, srcortex.cli
print(json.dumps([m for m in {HEAVY!r} if m in sys.modules]))
"""


def test_package_import_loads_no_interpolate_or_ndimage():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run([sys.executable, "-c", PROBE], env=env, capture_output=True,
                          text=True, timeout=120, check=True)
    assert json.loads(proc.stdout) == []
