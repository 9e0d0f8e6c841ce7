"""Pulse programs that exist only as test oracles.

Both follow the package's pulse contract: rabi(t) and detuning(t) take t
inside [0, duration] and return values that broadcast to t's shape.
"""

from dataclasses import dataclass


class _InvertedPulse:
    """Exact inverse program: time-mirrored with omega and delta negated.

    Evolving under base then under inverted(base) returns any state to
    its start (for gamma_2 = 0); negating the detuning alone does not.
    """

    def __init__(self, base):
        self.base = base
        self.duration = base.duration

    def rabi(self, t):
        return -self.base.rabi(self.duration - t)

    def detuning(self, t):
        return -self.base.detuning(self.duration - t)


def inverted(pulse):
    return _InvertedPulse(pulse)


@dataclass(frozen=True)
class LinearSweepPulse:
    """Constant drive with detuning rate * (t - duration/2).

    The idealized constant-velocity crossing behind the Landau-Zener
    oracle; choose duration large enough that the edges are far off
    resonance compared to both omega and sqrt(rate).
    """

    omega: float
    rate: float
    duration: float

    def rabi(self, t):
        return self.omega

    def detuning(self, t):
        return self.rate * (t - self.duration / 2.0)
