import importlib

import pytest


@pytest.mark.parametrize("package", [
    "fleetopt", "fleetopt.mip", "fleetopt.dsl", "fleetopt.agent", "fleetopt.bench",
])
def test_every_exported_name_resolves(package):
    module = importlib.import_module(package)
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert missing == []
