"""Fixtures shared by the test modules."""

import pytest

import nvbath.decoherence
import nvbath.spinsys


@pytest.fixture(autouse=True)
def fresh_eigensystem():
    """The memos of spinsys.eigensystem and of the bath draw, emptied before
    every test, so that no test sees a solve or a draw left by another and
    each counts its own."""
    nvbath.decoherence._bath_phases.cache_clear()
    nvbath.spinsys._EIGEN_MEMO.clear()
    return nvbath.spinsys._EIGEN_MEMO
