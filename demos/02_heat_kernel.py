"""Visualize the anisotropic interaction kernel.

Evolves a point activation at a single orientation and renders its
spatial footprint for several diffusion times: the spread hugs the
orientation-aligned direction instead of growing isotropically.
"""

import math
from pathlib import Path

import numpy as np

from srcortex import ModelConfig, build_propagator, kernel_column, renormalize
from srcortex.imgio import write_pgm

out = Path(__file__).parent / "out" / "02_kernel"
out.mkdir(parents=True, exist_ok=True)

n, k = 64, 16
prop = build_propagator(n, k, ModelConfig.beta_for(n, k), 0.01)
k0 = 2  # orientation 22.5 degrees
theta = k0 * math.pi / k

for tau in (0.05, 0.2, 0.8):
    col = kernel_column(prop, n // 2, n // 2, k0, tau)
    footprint = col.sum(axis=2)
    ii, jj = np.meshgrid(np.arange(n) - n // 2, np.arange(n) - n // 2, indexing="ij")
    w = np.abs(footprint)
    along = (w * (ii * math.cos(theta) + jj * math.sin(theta)) ** 2).sum() / w.sum()
    across = (w * (-ii * math.sin(theta) + jj * math.cos(theta)) ** 2).sum() / w.sum()
    print(
        f"tau={tau}: mass={col.sum():.6f}, along-sigma={math.sqrt(along):.2f}px, "
        f"across-sigma={math.sqrt(across):.2f}px, ratio={along / across:.1f}"
    )
    write_pgm(out / f"kernel_tau{tau:g}.pgm", renormalize(-footprint))
print(f"wrote kernel footprints to {out}")
