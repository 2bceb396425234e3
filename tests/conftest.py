"""Fixtures shared by the kernel tests."""

import pytest

from cml3 import _kernel


@pytest.fixture
def numpy_kernel(monkeypatch):
    """Send every product above ``MASK_MIN_PAIRS`` to the numpy kernel.

    ``_kernel.cmul_terms`` loads it only once the large products have
    reached ``MASK_LOAD_PAIRS`` pairs in the process; with an empty tally
    and a budget of 0 the first large product loads it.
    """
    monkeypatch.setattr(_kernel, "_join_pairs", 0)
    monkeypatch.setattr(_kernel, "MASK_LOAD_PAIRS", 0)
