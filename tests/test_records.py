"""Every record type of securebeam checks what it holds: a dataclass without __post_init__
is a pass-through wrapper, whose callers can take the plain data instead."""
import dataclasses
import importlib
import pkgutil

import securebeam


def test_every_dataclass_defines_post_init():
    checks = {}  # module.Name: whether it defines __post_init__
    for info in pkgutil.iter_modules(securebeam.__path__):
        module = importlib.import_module(f"securebeam.{info.name}")
        for name, obj in vars(module).items():
            if dataclasses.is_dataclass(obj) and obj.__module__ == module.__name__:
                checks[f"{info.name}.{name}"] = "__post_init__" in vars(obj)
    known = {"config.PolarPosition", "config.ScenarioConfig", "experiments.ExperimentSpec"}
    assert known <= set(checks)  # the walk reaches every module
    assert [name for name, checked in checks.items() if not checked] == []
