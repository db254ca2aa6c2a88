import pytest

from kinkband import (MaterialParams, SimulationConfig, SlipSystem,
                      build_dofmap, build_structured_mesh, run_simulation)


@pytest.fixture(scope="session")
def slip():
    return SlipSystem.default()


@pytest.fixture(scope="session")
def params():
    return MaterialParams()


@pytest.fixture(scope="session")
def mesh_4x6():
    """Coarse mesh of the 42 x 75 mm specimen."""
    return build_structured_mesh(42.0, 75.0, 4, 6)


@pytest.fixture(scope="session")
def dofmap_4x6(mesh_4x6):
    return build_dofmap(mesh_4x6)


@pytest.fixture(scope="session")
def run_10x18_k20():
    """Reference compression run used by several diagnostics tests."""
    config = SimulationConfig(nx=10, ny=18, K=20)
    records, states = run_simulation(config)
    return config, records, states

