"""The benchmark's traced run wraps genaft's layer entry points by name;
a refactor that drops or renames one must fail here, not pass silently
with a layer missing from the trace."""

import dataclasses
import importlib
import importlib.util
import pathlib

from genaft.engine import Approximator
from genaft.flowers import FlowerFramework

TRACING = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _entry_points() -> dict[str, list[str]]:
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.ENTRY_POINTS


def test_traced_entry_points_resolve():
    missing = []
    for module_name, entries in _entry_points().items():
        module = importlib.import_module(module_name)
        for entry in entries:
            target = module
            for part in entry.split("."):
                target = getattr(target, part, None)
            if not callable(target):
                missing.append(f"{module_name}.{entry}")
    assert missing == []


def test_traced_run_attributes_exist():
    assert "mapping" in {f.name for f in dataclasses.fields(Approximator)}
    assert callable(FlowerFramework.aub_mask)
