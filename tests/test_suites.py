"""Packaged suites: behaviour that the acceptance gate does not cover."""

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


def test_pisot_nondecay_fails_when_the_floor_misses_the_product(monkeypatch):
    assert suites.suite_pisot_nondecay(n_max=3).passed
    closed = suites._golden_nondecay
    monkeypatch.setattr(suites, "_golden_nondecay", lambda n_max: [v + 2e-6 for v in closed(n_max)])
    res = suites.suite_pisot_nondecay(n_max=3)
    product = [a for a in res.assertions if "Jessen-Wintner" in a.desc]
    assert len(product) == 1 and not product[0].passed
    assert not res.passed
