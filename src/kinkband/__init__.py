"""2D finite-strain single-slip crystal plasticity by incremental energy
minimization, reproducing kink-band formation in compressed layered media.

The package's interface is ``parse_config`` and ``run_simulation`` and
what they take, return and raise.  Everything else is imported from the
module that defines it (``kinkband.mesh``, ``.energy``, ``.evolution``,
...)."""

from .config import ConfigError, SimulationConfig, parse_config
from .energy import EnergyBreakdown, MaterialParams
from .evolution import State, StepFailureError, StepRecord, run_simulation

__version__ = "0.1.0"

__all__ = [
    "parse_config", "run_simulation",
    "SimulationConfig", "MaterialParams", "StepRecord", "EnergyBreakdown",
    "State", "ConfigError", "StepFailureError",
]
