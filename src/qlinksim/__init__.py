"""Desk-scale feasibility simulator for satellite-to-ground links that
carry classical data and quantum key material on the same signal.

Submodules: mathfn (shared special functions and thermal occupancy),
atmosphere (gaseous attenuation), fso (optical downlink
transmissivity), dvqkd (decoy-state rates with a direct-message
payload), cvqkd (displaced coherent-state rates), config/sweeps/cli
(batch orchestration).

atmosphere is the only submodule that needs numpy, and the package
does not import it, so importing the package, or running a rate
scenario, never loads numpy.
"""

from .config import ConfigError, SimulationConfig, SweepRanges, load_config
from .cvqkd import (
    CvProtocolParams,
    CvRateResult,
    PhaseEncodingNoise,
    ThermalLossChannel,
    composable_key_rate,
)
from .dvqkd import (
    DecoyProtocolParams,
    DvRateResult,
    FiniteSizeConfig,
    finite_key_rate,
)
from .fso import ChannelOutput, FsoChannelParams, slant_range
from .mathfn import thermal_photon_number
from .sweeps import (
    InfeasibleScenario,
    SecureAltitudeResult,
    SweepTable,
    max_secure_altitude,
    run_scenario,
)

__version__ = "0.1.0"

__all__ = [
    "thermal_photon_number",
    "ConfigError",
    "SimulationConfig",
    "SweepRanges",
    "load_config",
    "CvProtocolParams",
    "CvRateResult",
    "PhaseEncodingNoise",
    "ThermalLossChannel",
    "composable_key_rate",
    "DecoyProtocolParams",
    "DvRateResult",
    "FiniteSizeConfig",
    "finite_key_rate",
    "ChannelOutput",
    "FsoChannelParams",
    "slant_range",
    "InfeasibleScenario",
    "SecureAltitudeResult",
    "SweepTable",
    "max_secure_altitude",
    "run_scenario",
    "__version__",
]
