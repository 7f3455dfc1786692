import importlib

import pytest

MODULES = ("field", "noise", "dynamics", "analysis", "clt", "ldp", "cli")


@pytest.mark.parametrize("name", MODULES)
def test_every_export_resolves(name):
    module = importlib.import_module(f"llblab.{name}")
    assert module.__all__, name
    assert len(set(module.__all__)) == len(module.__all__)
    missing = [export for export in module.__all__ if not hasattr(module, export)]
    assert not missing, f"llblab.{name}.__all__ names undefined {missing}"
