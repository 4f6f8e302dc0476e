"""Fixtures for the scheduling tests."""

import pytest


@pytest.fixture()
def folded(monkeypatch):
    """Every topology folded through ``HeteroPlatform.hierarchies``, in order."""
    import repro.scheduling.platform as platform_module

    calls = []
    real = platform_module.leaf_hierarchies

    def counting(topology):
        calls.append(topology)
        return real(topology)

    monkeypatch.setattr(platform_module, "leaf_hierarchies", counting)
    return calls
