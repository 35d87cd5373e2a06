"""Packaged suites: behaviour that the acceptance gate does not cover."""

import inspect

import mpmath
import pytest

from fractalab import suites


def test_golden_closed_form_is_the_raw_jessen_wintner_product():
    """|F_{r^-n}| = |prod_{k>=0} cos(2 pi r^{k-n})|, taken at 50 digits with
    the large phases r^{-m} unreduced, for n = 1..25."""
    with mpmath.workdps(50):
        r = (mpmath.sqrt(5) - 1) / 2
        for n, got in enumerate(suites._golden_nondecay(25), start=1):
            ref = abs(mpmath.fprod(mpmath.cos(2 * mpmath.pi * r**j) for j in range(-n, 200)))
            assert got == pytest.approx(float(ref), rel=1e-13), n


def test_pisot_nondecay_fails_when_the_floor_misses_the_product(monkeypatch, suite_result):
    res = suite_result("pisot-nondecay")
    assert res.passed
    assert "n <= 25" in res.assertions[0].desc
    closed = suites._golden_nondecay
    monkeypatch.setattr(suites, "_golden_nondecay", lambda n_max: [v + 2e-6 for v in closed(n_max)])
    res = suites.suite_pisot_nondecay()
    product = [a for a in res.assertions if "Jessen-Wintner" in a.desc]
    assert len(product) == 1 and not product[0].passed
    assert not res.passed


def test_suite_texts_state_the_counts_they_ran(suite_result):
    bracket = suite_result("stopping-bracket")
    assert bracket.assertions[0].desc == "zero bracket violations over 1e6 (path, k) pairs"
    assert sum(row[1] for row in bracket.tables["bracket"][1]) == 1_000_000
    gamma = suite_result("gamma-law")
    assert [a.desc.endswith("on 100 random cells") for a in gamma.assertions] == [True, True]
    assert suites._sci(1_000_000) == "1e6" and suites._sci(5_000) == "5e3" and suites._sci(1_200) == "1200"


def test_suites_take_no_arguments():
    """A suite is one fixed experiment: its sizes, seeds and tolerances are
    constants in its body, so no caller can run a shrunk copy."""
    assert len(suites.BUILTIN_SUITES) == 12
    for name, suite in suites.BUILTIN_SUITES.items():
        assert not inspect.signature(suite).parameters, name
    assert list(inspect.signature(suites.run_suite).parameters) == ["name"]
