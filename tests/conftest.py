"""Shared fixtures."""

import functools

import pytest

from fractalab.suites import run_suite


@pytest.fixture(scope="session")
def suite_result():
    """run_suite(name), each packaged suite run at most once per session."""
    return functools.cache(run_suite)
