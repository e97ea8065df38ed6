"""Fixtures shared by the test modules."""

import pytest

import nvbath.spinsys


@pytest.fixture(autouse=True)
def fresh_eigensystem():
    """The memo of spinsys.eigensystem, emptied before every test, so that
    no test sees a solve left by another and each counts its own."""
    nvbath.spinsys._EIGEN_MEMO.clear()
    return nvbath.spinsys._EIGEN_MEMO
