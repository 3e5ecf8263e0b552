"""Shared test setup."""

import os
from pathlib import Path

import pytest

import softlev
from softlev import _kernels, harness


@pytest.fixture(scope="session", autouse=True)
def warm_kernels():
    # Call every kernel once before any test runs, so timed assertions
    # measure math instead of numpy's and LAPACK's lazy set-up.
    _kernels.warmup()


@pytest.fixture(scope="session", autouse=True)
def subprocesses_import_these_sources():
    # The CLI tests run `python -m softlev.cli` in subprocesses; they must
    # import the package this process imported, installed or not.
    src = str(Path(softlev.__file__).resolve().parents[1])
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("PYTHONPATH", os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        yield


@pytest.fixture
def halved_lemma_bounds(monkeypatch):
    # The bound suite reads the two closed-form bounds through harness's
    # globals; halving them corrupts every strict and extremal row, so the
    # suite's failure path runs.
    h2_bound, tv_bound = harness.lemma_h2_bound, harness.lemma_tv_bound
    monkeypatch.setattr(harness, "lemma_h2_bound", lambda eps: 0.5 * h2_bound(eps))
    monkeypatch.setattr(harness, "lemma_tv_bound", lambda eps: 0.5 * tv_bound(eps))
