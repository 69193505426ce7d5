"""Shared fixtures."""

import math

import pytest

import ffgp.gp as gp
import ffgp.model as model_module


@pytest.fixture
def mapped_bytes(monkeypatch):
    """A list that gets the size of every array gp._mapped hands out (to
    ffgp.gp and ffgp.model) while the test runs.  Those arrays live in
    anonymous mappings, which tracemalloc does not see, so a memory test adds
    their sum to its tracemalloc peak."""
    handed = []
    mapped = gp._mapped

    def counted(shape, *args, **kwargs):
        handed.append(8 * math.prod(shape))
        return mapped(shape, *args, **kwargs)

    monkeypatch.setattr(gp, "_mapped", counted)
    monkeypatch.setattr(model_module, "_mapped", counted)
    return handed
