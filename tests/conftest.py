"""Shared test setup."""

import pytest

from softlev import _kernels


@pytest.fixture(scope="session", autouse=True)
def warm_kernels():
    # Call every kernel once before any test runs, so timed assertions
    # measure math instead of numpy's and LAPACK's lazy set-up.
    _kernels.warmup()
