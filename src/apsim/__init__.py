"""Microwave adiabatic passages on optically trapped atoms.

Simulation library for frequency-swept and transport-induced adiabatic
passages on a two-level atom: optical Bloch dynamics, magnetic-gradient
position addressing, thermal light-shift broadening of transfer spectra,
push-out detection, and least-squares spectrum fits.  The ``apsim`` command
line exposes the standard scans; see the README for an overview.
"""

from .addressing import (
    AtomPosition,
    PlateauMetrics,
    TrapGeometry,
    crosstalk,
    detuning_to_offset,
    offset_to_detuning,
    plateau_metrics,
    spatial_spectrum,
)
from .bloch import (
    GROUND,
    BlochState,
    DampingModel,
    IntegratorConfig,
    detuning_spectrum,
    evolve,
    evolve_offsets,
    transfer_probability,
)
from .config import RunConfig, TransportSettings, load_config
from .detection import DetectionModel, apply_detection
from .errors import (
    ConfigError,
    FitDataError,
    IntegrationError,
    QuadratureError,
)
from .fit import FitResult, fit_spectrum
from .presets import PRESETS, preset_config, preset_names
from .pulses import (
    APPulse,
    PulseProgram,
    RectPulse,
    TabulatedPulse,
    adiabaticity,
    max_adiabaticity,
    pulse_from_json,
    pulse_to_json,
)
from .scan import ScanResult
from .thermal import (
    SpectrumCache,
    ThermalModel,
    boltzmann_pdf,
    broadened_spectrum,
    convolve,
    convolve_on_grid,
    sample_light_shift,
    truncated_mass,
)
from .transport import (
    TransportPlan,
    TransportPulse,
    TransportResult,
    dressed_projection,
    dressed_state,
    interaction_width,
    landau_zener_oracle,
    transport_curve,
    transport_transfer,
)
from .units import khz_to_rad_per_s, ms_to_s, rad_per_s_to_khz, s_to_ms

__version__ = "0.1.0"
