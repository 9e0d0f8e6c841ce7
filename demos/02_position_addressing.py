"""Addressing a single trapped atom by position.

A magnetic field gradient maps position along the trap axis to qubit
frequency, so a swept pulse centered on one site only transfers atoms
within a window set by the sweep span.  With a 3.2 kHz/um gradient and a
+-35 kHz sweep the window is about 19 um wide with ~2.5 um edges: wide
enough to cover one site, sharp enough to leave a 30 um neighbor alone.
"""

import numpy as np

from apsim.addressing import crosstalk, plateau_metrics
from apsim.presets import preset_config
from apsim.cli import run_scan

cfg = preset_config("site_addressing")
scan = run_scan(cfg)

p_max = cfg.thermal.p_max
m = plateau_metrics(scan.abscissa, scan.p1, 0.9 * p_max, 0.1 * p_max)
print(
    f"addressing window {m.plateau_width:.1f} um wide "
    f"({m.hi_left:+.1f} .. {m.hi_right:+.1f}), "
    f"edge widths {m.left_edge_width:.1f} / {m.right_edge_width:.1f} um"
)

# a neighbor two sites away should be essentially untouched
for dx in (0.0, 15.0, 30.0):
    p = crosstalk(cfg.pulse, 0.0, dx, cfg.grad, cfg.thermal)
    print(f"atom at {dx:5.1f} um while addressing x=0: P1 = {p:.4f}")

try:
    import matplotlib

    matplotlib.use("Agg")
    import matplotlib.pyplot as plt
except ImportError:
    print("matplotlib not installed; skipping the figure")
else:
    fig, ax = plt.subplots(figsize=(6.5, 4))
    ax.plot(scan.abscissa, scan.p1, "o-", ms=3, color="C0")
    ax.axvspan(m.hi_left, m.hi_right, color="C0", alpha=0.08)
    ax.set_xlabel("position offset from sweep center (um)")
    ax.set_ylabel("transfer probability")
    ax.set_ylim(0, 1.02)
    fig.tight_layout()
    fig.savefig("position_addressing.png", dpi=150)
    print("wrote position_addressing.png")
