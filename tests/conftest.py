"""Shared fixtures: environment isolation for the whole suite.

Several tests toggle ``REPRO_*`` environment variables (cache, jobs,
tracing, store) directly; without isolation, a test that forgets to
restore a knob silently changes the behaviour — and the cache keys — of
every test that runs after it.  The autouse fixture below snapshots
``os.environ`` before each test, restores it afterwards, and resets the
one-shot warning dedupe in :mod:`repro.exec.parallel` so warning-emission
tests see a clean slate regardless of ordering.
"""

from __future__ import annotations

import os

import pytest

from repro.exec.parallel import reset_warned_values


@pytest.fixture(autouse=True)
def _isolate_environ():
    saved = dict(os.environ)
    reset_warned_values()
    yield
    for key in set(os.environ) - set(saved):
        del os.environ[key]
    for key, value in saved.items():
        if os.environ.get(key) != value:
            os.environ[key] = value
