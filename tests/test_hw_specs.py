"""Hardware description validation."""

import dataclasses

import pytest

from repro.hardware.presets import (
    OPTERON_6134,
    TESLA_C2050,
    aji_cluster15_node,
    cpu_only_node,
    symmetric_dual_gpu_node,
)
from repro.hardware.specs import (
    DeviceKind,
    DeviceSpec,
    HardwareError,
    LinkSpec,
    NodeSpec,
)


def _dev(**overrides):
    base = dict(
        name="d",
        kind=DeviceKind.GPU,
        compute_units=4,
        clock_ghz=1.0,
        peak_gflops=100.0,
        mem_bandwidth_gbs=50.0,
        mem_size_bytes=1 << 30,
    )
    base.update(overrides)
    return DeviceSpec(**base)


def test_valid_device():
    d = _dev()
    assert d.kind is DeviceKind.GPU


@pytest.mark.parametrize(
    "field,value",
    [
        ("compute_units", 0),
        ("peak_gflops", 0.0),
        ("mem_bandwidth_gbs", -1.0),
        ("mem_size_bytes", 0),
        ("launch_overhead_s", -1e-6),
        ("base_compute_efficiency", 1.5),
        ("base_memory_efficiency", -0.1),
        ("divergence_penalty", 2.0),
        ("irregularity_penalty", -0.5),
    ],
)
def test_invalid_device_fields(field, value):
    with pytest.raises(HardwareError):
        _dev(**{field: value})


def test_link_validation():
    LinkSpec("ok", 1e-6, 5.0)
    with pytest.raises(HardwareError):
        LinkSpec("bad", -1e-6, 5.0)
    with pytest.raises(HardwareError):
        LinkSpec("bad", 1e-6, 0.0)


def test_node_requires_links_for_every_device():
    d = _dev()
    with pytest.raises(HardwareError):
        NodeSpec(name="n", devices=(d,), host_links={})


def test_node_rejects_network_links_for_unknown_devices():
    link = LinkSpec("l", 1e-6, 5.0)
    with pytest.raises(HardwareError):
        NodeSpec(name="n", devices=(_dev(),), host_links={"d": link},
                 net_links={"ghost": link})


def test_node_rejects_duplicate_device_names():
    d = _dev()
    link = LinkSpec("l", 1e-6, 5.0)
    with pytest.raises(HardwareError):
        NodeSpec(name="n", devices=(d, d), host_links={"d": link})


def test_node_rejects_empty_devices():
    with pytest.raises(HardwareError):
        NodeSpec(name="n", devices=(), host_links={})


def test_node_device_lookup():
    node = aji_cluster15_node()
    assert node.device("cpu").kind is DeviceKind.CPU
    with pytest.raises(HardwareError):
        node.device("nope")


def test_aji_node_matches_paper_testbed():
    """Section VI.A: dual-socket oct-core Opteron + 2 Tesla C2050."""
    node = aji_cluster15_node()
    assert node.device_names == ("cpu", "gpu0", "gpu1")
    cpu = node.device("cpu")
    assert cpu.compute_units == 16  # 2 sockets x 8 cores
    assert cpu.mem_size_bytes == 32 * 10 ** 9
    for g in ("gpu0", "gpu1"):
        gpu = node.device(g)
        assert gpu.kind is DeviceKind.GPU
        assert gpu.mem_size_bytes == 3 * 10 ** 9  # 3 GB C2050
        assert gpu.socket == 1  # GPUs have affinity to socket 1
    # The NUMA distance shows up as slower GPU links than the CPU link.
    assert (
        node.host_links["gpu0"].bandwidth_gbs
        < node.host_links["cpu"].bandwidth_gbs
    )


def test_gpu_spec_is_fermi_c2050():
    assert TESLA_C2050.compute_units == 14
    assert TESLA_C2050.peak_gflops == pytest.approx(1030.0)
    assert TESLA_C2050.mem_bandwidth_gbs == pytest.approx(144.0)


def test_cpu_less_divergence_sensitive_than_gpu():
    assert OPTERON_6134.divergence_penalty < TESLA_C2050.divergence_penalty
    assert OPTERON_6134.irregularity_penalty < TESLA_C2050.irregularity_penalty


def test_other_presets():
    dual = symmetric_dual_gpu_node()
    assert len(dual.devices) == 2
    assert all(d.kind is DeviceKind.GPU for d in dual.devices)
    solo = cpu_only_node()
    assert solo.device_names == ("cpu",)


def test_specs_are_frozen():
    with pytest.raises(dataclasses.FrozenInstanceError):
        OPTERON_6134.peak_gflops = 1.0  # type: ignore[misc]
