"""Shared fixtures.

``profile_dir`` gives every test session one on-disk device-profile cache,
so only the first platform creation pays for the (simulated) device
microbenchmarks; tests asserting cold-cache behaviour make their own tmp
dirs.
"""

import pytest

from repro import knobs
from repro.core.runtime import MultiCL
from repro.hardware.presets import aji_cluster15_node
from repro.hardware.topology import SimNode
from repro.ocl.enums import ContextScheduler
from repro.ocl.platform import Platform
from repro.sim.engine import SimEngine


@pytest.fixture(autouse=True)
def _fresh_knob_warnings():
    """Each test sees invalid knob values warn afresh, whatever ran before."""
    knobs._warned.clear()
    yield
    knobs._warned.clear()


@pytest.fixture(scope="session")
def profile_dir(tmp_path_factory):
    return str(tmp_path_factory.mktemp("multicl-profile-cache"))


@pytest.fixture
def engine():
    return SimEngine()


@pytest.fixture
def node(engine):
    return SimNode(engine, aji_cluster15_node())


@pytest.fixture
def platform(profile_dir):
    return Platform(profile=True, profile_dir=profile_dir)


@pytest.fixture
def bare_platform():
    """Platform without device profiling (pure OpenCL-layer tests)."""
    return Platform(profile=False)


@pytest.fixture
def manual_context(bare_platform):
    return bare_platform.create_context()


@pytest.fixture
def autofit(profile_dir):
    return MultiCL(policy=ContextScheduler.AUTO_FIT, profile_dir=profile_dir)


@pytest.fixture
def roundrobin(profile_dir):
    return MultiCL(policy=ContextScheduler.ROUND_ROBIN, profile_dir=profile_dir)
