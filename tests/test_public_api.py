"""Every exported name resolves, so a removal cannot leave a dangling export."""

import importlib

import pytest


@pytest.mark.parametrize("name", [
    "mcpdist", "mcpdist.analytic", "mcpdist.apps", "mcpdist.cli", "mcpdist.geometry",
    "mcpdist.simulator",
])
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    assert [attr for attr in module.__all__ if not hasattr(module, attr)] == []
