"""The MULTICL_* knob table (:mod:`repro.knobs`) and its one reader.

One parametrised test covers every row: unset and empty mean the default,
a valid value parses, a value below the minimum clamps or warns, junk warns
once and keeps the default, and an explicit value beats the environment.
"""

import re
import warnings
from pathlib import Path

import pytest

from repro import knobs
from repro.core.flags import _ENV_FIELDS, SchedulerConfig

README = Path(__file__).resolve().parents[1] / "README.md"

BOOL_KNOBS = sorted(n for n, k in knobs.KNOBS.items() if k.type is bool)


def _valid_sample(knob):
    """(raw, parsed) for a valid value that differs from the default."""
    if knob.type is bool:
        return ("off", False) if knob.default else ("on", True)
    if knob.type is str:
        return "some/dir", "some/dir"
    value = (knob.minimum or 0) + 3
    return str(value), value


def _junk_samples(knob):
    return {bool: ["maybe", "2"], int: ["soon", "1.5"]}.get(knob.type, [])


def _quiet_get(name):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return knobs.get(name)


@pytest.mark.parametrize("name", sorted(knobs.KNOBS))
def test_knob_row(name, monkeypatch):
    knob = knobs.KNOBS[name]
    assert knob.name == name and knob.doc
    monkeypatch.delenv(name, raising=False)
    assert _quiet_get(name) == knob.default
    monkeypatch.setenv(name, "")
    assert _quiet_get(name) == knob.default

    raw, parsed = _valid_sample(knob)
    assert parsed != knob.default
    monkeypatch.setenv(name, f" {raw} ")
    assert _quiet_get(name) == parsed

    if knob.minimum is not None:
        below = knob.minimum - 1
        monkeypatch.setenv(name, str(knob.type(below)))
        if knob.clamp:
            assert _quiet_get(name) == knob.minimum
        else:
            with pytest.warns(RuntimeWarning, match=name):
                assert knobs.get(name) == knob.default

    for junk in _junk_samples(knob):
        monkeypatch.setenv(name, junk)
        with pytest.warns(RuntimeWarning, match=f"{name}={junk!r}"):
            assert knobs.get(name) == knob.default
        # Warn once per (knob, raw value), not once per read.
        assert _quiet_get(name) == knob.default

    monkeypatch.setenv(name, raw)
    explicit = (not parsed) if knob.type is bool else knob.type("7")
    assert explicit != parsed
    assert knobs.get(name, explicit) == explicit


def test_documented_clamps(monkeypatch):
    assert [n for n, k in knobs.KNOBS.items() if k.clamp] == [
        "MULTICL_ITERATIVE_FREQUENCY"
    ]
    monkeypatch.setenv("MULTICL_ITERATIVE_FREQUENCY", "-3")
    assert _quiet_get("MULTICL_ITERATIVE_FREQUENCY") == 0


def test_unknown_knob_name_raises():
    with pytest.raises(KeyError):
        knobs.get("MULTICL_NO_SUCH_KNOB")


@pytest.mark.parametrize("name", BOOL_KNOBS)
def test_boolean_knob_grammar(name, monkeypatch):
    """Every boolean knob parses the same words, through the config that
    reads it; junk and "" keep the default instead of flipping it."""
    field = {knob: attr for attr, knob in _ENV_FIELDS.items()}[name]
    default = knobs.KNOBS[name].default

    def read():
        return getattr(SchedulerConfig.from_env(), field)

    for word in ("1", "true", "YES", " on "):
        monkeypatch.setenv(name, word)
        assert read() is True
    for word in ("0", "False", "no", "OFF"):
        monkeypatch.setenv(name, word)
        assert read() is False
    for junk in ("maybe", "2"):
        monkeypatch.setenv(name, junk)
        with pytest.warns(RuntimeWarning, match=name):
            assert read() is default
    monkeypatch.setenv(name, "")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert read() is default


def test_readme_env_table_matches_knob_table():
    text = README.read_text()
    section = text.split("## Environment variables", 1)[1].split("\n## ", 1)[0]
    documented = set(re.findall(r"^\| `(MULTICL_[A-Z_]+)` \|", section, re.M))
    assert documented == set(knobs.KNOBS)
