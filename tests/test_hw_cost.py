"""Roofline cost model: monotonicity, minikernel arithmetic, transfers."""

import pytest
from hypothesis import given, strategies as st

from repro.hardware.cost import (
    KernelCost,
    effective_bandwidth_gbs,
    effective_gflops,
    kernel_time,
    transfer_time,
    workgroup_time,
)
from repro.hardware.presets import OPTERON_6134, TESLA_C2050
from repro.hardware.specs import DeviceKind, LinkSpec


def _cost(**overrides):
    base = dict(flops=1e9, bytes=1e8, work_items=1 << 20, workgroup_size=128)
    base.update(overrides)
    return KernelCost(**base)


def test_basic_time_positive():
    assert kernel_time(TESLA_C2050, _cost()) > 0.0


def test_launch_overhead_included():
    tiny = _cost(flops=0.0, bytes=0.0, work_items=1, workgroup_size=1)
    assert kernel_time(TESLA_C2050, tiny) >= TESLA_C2050.launch_overhead_s


def test_roofline_max_of_compute_and_memory():
    compute_bound = _cost(flops=1e12, bytes=1.0)
    memory_bound = _cost(flops=1.0, bytes=1e10)
    t_c = kernel_time(TESLA_C2050, compute_bound)
    t_m = kernel_time(TESLA_C2050, memory_bound)
    both = _cost(flops=1e12, bytes=1e10)
    assert kernel_time(TESLA_C2050, both) == pytest.approx(
        max(t_c, t_m), rel=1e-6
    )


def test_divergence_slows_gpu_more_than_cpu():
    smooth = _cost(divergence=0.0)
    branchy = _cost(divergence=0.9)
    gpu_slowdown = kernel_time(TESLA_C2050, branchy) / kernel_time(
        TESLA_C2050, smooth
    )
    cpu_slowdown = kernel_time(OPTERON_6134, branchy) / kernel_time(
        OPTERON_6134, smooth
    )
    assert gpu_slowdown > cpu_slowdown


def test_irregularity_hurts_gpu_bandwidth_more():
    regular = _cost(flops=1.0, bytes=1e9, irregularity=0.0)
    ragged = _cost(flops=1.0, bytes=1e9, irregularity=1.0)
    gpu_pen = kernel_time(TESLA_C2050, ragged) / kernel_time(TESLA_C2050, regular)
    cpu_pen = kernel_time(OPTERON_6134, ragged) / kernel_time(
        OPTERON_6134, regular
    )
    assert gpu_pen > cpu_pen


def test_occupancy_penalises_small_gpu_launches():
    small = _cost(flops=1e9, bytes=1.0, work_items=64)
    big = _cost(flops=1e9, bytes=1.0, work_items=1 << 20)
    assert kernel_time(TESLA_C2050, small) > kernel_time(TESLA_C2050, big)


def test_efficiency_override_scales_time():
    plain = _cost()
    derated = _cost(efficiency={DeviceKind.GPU: 0.1})
    assert kernel_time(TESLA_C2050, derated) > kernel_time(TESLA_C2050, plain)
    # CPU unaffected by a GPU-only override.
    assert kernel_time(OPTERON_6134, derated) == pytest.approx(
        kernel_time(OPTERON_6134, plain)
    )


def test_minikernel_much_cheaper_but_keeps_overhead():
    cost = _cost()
    full = kernel_time(TESLA_C2050, cost)
    mini = workgroup_time(TESLA_C2050, cost)
    assert mini < full / 50
    assert mini >= TESLA_C2050.launch_overhead_s


def test_minikernel_single_group_close_to_full():
    cost = _cost(work_items=128, workgroup_size=128)  # one workgroup
    full = kernel_time(TESLA_C2050, cost)
    mini = workgroup_time(TESLA_C2050, cost)
    # guard adds a whisker; body identical
    assert mini == pytest.approx(full, rel=0.05)


def test_num_workgroups_ceiling():
    assert _cost(work_items=100, workgroup_size=64).num_workgroups == 2
    assert _cost(work_items=128, workgroup_size=64).num_workgroups == 2


def test_scaled():
    c = _cost().scaled(2.0)
    assert c.flops == 2e9
    assert c.work_items == 2 << 20
    with pytest.raises(ValueError):
        _cost().scaled(0.0)


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(flops=-1.0),
        dict(bytes=-1.0),
        dict(work_items=0),
        dict(workgroup_size=0),
        dict(divergence=1.5),
        dict(irregularity=-0.1),
        dict(efficiency={DeviceKind.GPU: 0.0}),
    ],
)
def test_invalid_costs_rejected(kwargs):
    with pytest.raises(ValueError):
        _cost(**kwargs)


def test_transfer_time_latency_plus_bandwidth():
    link = LinkSpec("l", latency_s=10e-6, bandwidth_gbs=5.0)
    assert transfer_time(link, 0) == pytest.approx(10e-6)
    assert transfer_time(link, 5 * 10 ** 9) == pytest.approx(1.0 + 10e-6)
    with pytest.raises(ValueError):
        transfer_time(link, -1)


@given(
    flops=st.floats(min_value=1e3, max_value=1e13),
    bytes_=st.floats(min_value=1e3, max_value=1e12),
    items=st.integers(min_value=1, max_value=1 << 24),
)
def test_time_positive_and_monotone_in_flops(flops, bytes_, items):
    lo = KernelCost(flops=flops, bytes=bytes_, work_items=items)
    hi = KernelCost(flops=flops * 2, bytes=bytes_, work_items=items)
    for spec in (OPTERON_6134, TESLA_C2050):
        t_lo = kernel_time(spec, lo)
        t_hi = kernel_time(spec, hi)
        assert t_lo > 0
        assert t_hi >= t_lo


@given(
    div=st.floats(min_value=0.0, max_value=1.0),
    irr=st.floats(min_value=0.0, max_value=1.0),
)
def test_effective_rates_bounded_by_peaks(div, irr):
    cost = KernelCost(
        flops=1e9, bytes=1e9, work_items=1 << 22, divergence=div, irregularity=irr
    )
    for spec in (OPTERON_6134, TESLA_C2050):
        assert 0 < effective_gflops(spec, cost) <= spec.peak_gflops
        assert 0 < effective_bandwidth_gbs(spec, cost) <= spec.mem_bandwidth_gbs


@given(
    items=st.integers(min_value=64, max_value=1 << 22),
    wg=st.sampled_from([32, 64, 128, 256]),
)
def test_minikernel_never_exceeds_full_time(items, wg):
    cost = KernelCost(flops=1e8, bytes=1e7, work_items=items, workgroup_size=wg)
    for spec in (OPTERON_6134, TESLA_C2050):
        assert workgroup_time(spec, cost) <= kernel_time(spec, cost) * 1.05
