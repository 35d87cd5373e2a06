"""Packaged suites: behaviour that the acceptance gate does not cover."""

from fractalab import suites


def test_pisot_nondecay_fails_without_a_pinned_floor_and_writes_nothing(tmp_path, monkeypatch):
    missing = tmp_path / "pins.json"
    monkeypatch.setattr(suites, "_PINS_PATH", missing)
    res = suites.suite_pisot_nondecay(n_max=3)
    pin = [a for a in res.assertions if "pinned" in a.desc]
    assert len(pin) == 1
    assert not pin[0].passed
    assert "no pisot-floor entry" in pin[0].detail
    assert not res.passed
    assert not missing.exists()
