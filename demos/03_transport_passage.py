"""Transport through resonance: passage driven by moving the trap.

Moving an atom along the field gradient chirps its detuning through
resonance with a constant drive, so the move itself is the adiabatic
passage.  Slow moves transfer faithfully; fast ones start to leak
through the crossing, and the leak follows the constant-velocity
crossing formula evaluated at the mid-move sweep rate.
"""

from apsim.cli import run_scan
from apsim.presets import preset_config
from apsim.transport import interaction_width, landau_zener_oracle

cfg = preset_config("transport_speed")
plan = cfg.transport
scan = run_scan(cfg)

for inv_tau, p1, se in zip(scan.abscissa, scan.p1, scan.stderr):
    print(f"1/tau = {inv_tau:5.2f} /ms   P1 = {p1:.4f} +- {se:.4f}")

print(f"resonant interaction width {interaction_width(plan):.2f} um")

# mid-move sweep rate for the piecewise-parabolic trajectory: the average
# rate grad*d/tau times the peak/average velocity ratio 2
lz = [
    landau_zener_oracle(plan.omega_r, 2.0 * plan.grad * plan.d * inv_tau * 1e3)
    for inv_tau in scan.abscissa
]

try:
    import matplotlib

    matplotlib.use("Agg")
    import matplotlib.pyplot as plt
except ImportError:
    print("matplotlib not installed; skipping the figure")
else:
    fig, ax = plt.subplots(figsize=(6.5, 4))
    ax.errorbar(scan.abscissa, scan.p1, yerr=scan.stderr, fmt="o", ms=4, label="ensemble simulation")
    ax.plot(scan.abscissa, lz, "-", color="0.5", lw=1, label="crossing formula (mid-move rate)")
    ax.set_xscale("log")
    ax.set_xlabel("transport speed 1/tau (1/ms)")
    ax.set_ylabel("transfer probability")
    ax.set_ylim(0, 1.05)
    ax.legend(loc="lower left")
    fig.tight_layout()
    fig.savefig("transport_passage.png", dpi=150)
    print("wrote transport_passage.png")
