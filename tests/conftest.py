"""Imported before any test module, so lmdistill pins one BLAS thread through the environment
before numpy loads, as the CLI does; imported after numpy, it could reach only the OpenBLAS
numpy bundles. Every test must also leave no thread running that it started (the eval head's
helper, the trunk's stage B), and no child process (train()'s soft-label worker, which it
joins on every exit path)."""

import multiprocessing
import threading

import pytest

import lmdistill  # noqa: F401


@pytest.fixture(autouse=True)
def no_thread_left_running():
    before = threading.active_count()
    yield
    assert threading.active_count() <= before, [t.name for t in threading.enumerate()]


@pytest.fixture(autouse=True)
def no_child_left_running():
    yield
    assert multiprocessing.active_children() == []
