"""2D finite-strain single-slip crystal plasticity by incremental energy
minimization, reproducing kink-band formation in compressed layered media."""

from .config import ConfigError, SimulationConfig, parse_config, serialize_config
from .energy import (EnergyBreakdown, MaterialParams, dissipation_increment,
                     material_law, total_energy)
from .evolution import (LoadProgram, State, StepFailureError, StepRecord,
                        apply_boundary_conditions, incremental_step,
                        initial_state, lift_state, reaction_force,
                        run_simulation)
from .kinematics import SlipSystem
from .mesh import (DofMap, GeometryError, Mesh2D, build_dofmap,
                   build_structured_mesh)
from .optimizer import (InvalidStartError, MinimizeResult, gradient_check,
                        minimize)
from .output import write_history_csv, write_snapshot_vtk

__version__ = "0.1.0"

__all__ = [
    "ConfigError", "SimulationConfig", "parse_config", "serialize_config",
    "EnergyBreakdown", "MaterialParams", "dissipation_increment",
    "material_law", "total_energy",
    "LoadProgram", "State", "StepFailureError", "StepRecord",
    "apply_boundary_conditions", "incremental_step", "initial_state",
    "lift_state", "reaction_force", "run_simulation",
    "SlipSystem",
    "DofMap", "GeometryError", "Mesh2D", "build_dofmap",
    "build_structured_mesh",
    "InvalidStartError", "MinimizeResult", "gradient_check", "minimize",
    "write_history_csv", "write_snapshot_vtk",
]
