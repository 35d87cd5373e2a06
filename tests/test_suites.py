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
    """A suite is a fixed experiment: a function suite's sizes, seeds and
    tolerances are constants in its body, and a packaged suite's configs name
    an experiment kind and only keys of that kind, so no caller can run a
    shrunk copy."""
    assert list(suites.BUILTIN_SUITES) == [
        "fourier-oracle-agreement", "fourier-recursion", "pisot-nondecay", "aperiodic-decay", "llt-trend",
        "stopping-bracket", "gamma-law", "cantor-digit-normality", "digit-certification", "classification",
        "scaled-energy", "moser-instance",
    ]
    for name, suite in suites.BUILTIN_SUITES.items():
        if callable(suite):
            assert not inspect.signature(suite).parameters, name
            continue
        topic, configs = suite
        assert topic and configs, name
        for cfg in configs:
            assert cfg["experiment"] in suites.RUNNERS, name
            _run, table = suites.RUNNERS[cfg["experiment"]]
            assert set(cfg) <= {*suites._COMMON, *table}, name
    assert list(inspect.signature(suites.run_suite).parameters) == ["name"]


def test_a_packaged_suite_joins_its_configs_under_system_names(monkeypatch):
    cfg = {"experiment": "llt", "ifs": "builtin:cantor", "k-list": "5 10", "paths": "500", "seed": "3"}
    floors = [{**cfg, "assert-median-floor": "0.2"}, {**cfg, "assert-median-floor": "2.0"}]
    monkeypatch.setitem(suites.BUILTIN_SUITES, "joined", ("two floors", floors))
    monkeypatch.setitem(suites.BUILTIN_SUITES, "single", ("one floor", floors[:1]))
    res = suites.run_suite("joined")
    assert (res.name, res.topic) == ("joined", "two floors")
    assert [a.desc for a in res.assertions] == ["cantor: weighted median KS >= 0.2 at every k",
                                                "cantor: weighted median KS >= 2.0 at every k"]
    assert [a.passed for a in res.assertions] == [True, False] and not res.passed
    assert list(res.tables) == ["cells"]
    header, rows = res.tables["cells"]
    part, _ = suites.run_config(floors[0])
    assert header == ("ifs", *part.tables["cells"][0])
    assert rows == 2 * [("cantor", *row) for row in part.tables["cells"][1]]
    one = suites.run_suite("single")
    assert (one.name, one.topic) == ("single", "one floor")
    assert [(a.desc, a.passed, a.detail) for a in one.assertions] == [
        (a.desc, a.passed, a.detail) for a in part.assertions]
    assert one.tables == part.tables


def test_scaled_energy_keeps_its_joined_energy_table(suite_result):
    header, rows = suite_result("scaled-energy").tables["energy"]
    assert ",".join(header) == "ifs,q,k,r,lhs,rhs,ok"
    assert len(rows) == 54
    assert [row[0] for row in rows] == 27 * ["cantor"] + 27 * ["bernoulli-1/3"]
