"""Shared fixtures, and a hypothesis profile that makes every run draw the
same examples: derandomized, with no example database carried between runs."""

import functools

import pytest
from hypothesis import settings

from fractalab.suites import run_suite

settings.register_profile("reproducible", derandomize=True, database=None)
settings.load_profile("reproducible")


@pytest.fixture(scope="session")
def suite_result():
    """run_suite(name), each packaged suite run at most once per session."""
    return functools.cache(run_suite)
