"""The package namespace is the interface: ``parse_config``,
``run_simulation`` and the types they take, return and raise.  Everything
else is read from the module that defines it."""

import types

import kinkband

INTERFACE = {
    "parse_config", "run_simulation",
    "SimulationConfig", "MaterialParams", "StepRecord", "EnergyBreakdown",
    "State", "ConfigError", "StepFailureError",
}


def test_the_package_exports_exactly_its_interface():
    assert len(kinkband.__all__) == len(INTERFACE)
    assert set(kinkband.__all__) == INTERFACE
    for name in INTERFACE:
        assert getattr(kinkband, name).__module__.startswith("kinkband.")
    # nothing else is imported into the package; its submodules are
    # attributes of it once imported
    public = {name for name, value in vars(kinkband).items()
              if not name.startswith("_")
              and not isinstance(value, types.ModuleType)}
    assert public == INTERFACE
