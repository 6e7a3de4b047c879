"""SimNode: device/link binding, transfer staging, contention."""

import pytest

from repro.hardware.cost import KernelCost, kernel_time, workgroup_time
from repro.hardware.specs import HardwareError


def test_device_list_order_stable(node):
    assert [d.name for d in node.device_list()] == ["cpu", "gpu0", "gpu1"]


def test_unknown_device_rejected(node):
    with pytest.raises(HardwareError):
        node.device("tpu")


def test_h2d_seconds_latency_bound_vs_bandwidth_bound(node):
    small = node.h2d_seconds("gpu0", 1)
    large = node.h2d_seconds("gpu0", 1 << 28)
    assert small < large
    assert small >= node.spec.host_links["gpu0"].latency_s


def test_d2d_same_device_uses_local_copy(node):
    t = node.d2d_seconds("gpu0", "gpu0", 1 << 20)
    assert t < node.d2d_seconds("gpu0", "gpu1", 1 << 20)


def test_d2d_cross_device_is_staged_sum(node):
    nbytes = 1 << 24
    assert node.d2d_seconds("gpu0", "gpu1", nbytes) == pytest.approx(
        node.d2h_seconds("gpu0", nbytes) + node.h2d_seconds("gpu1", nbytes)
    )


def test_submit_h2d_charges_link_time(engine, node):
    task = node.submit_h2d("gpu0", 1 << 24)
    engine.run_until(task)
    assert engine.now == pytest.approx(node.h2d_seconds("gpu0", 1 << 24))


def test_submit_d2d_cross_device_produces_two_stages(engine, node):
    task = node.submit_d2d("gpu0", "gpu1", 1 << 24)
    engine.run_until(task)
    ivs = engine.trace.filter(category="transfer")
    assert len(ivs) == 2
    directions = {iv.meta["direction"] for iv in ivs}
    assert directions == {"d2h", "h2d"}


def test_submit_d2d_same_device_runs_on_device_resource(engine, node):
    task = node.submit_d2d("gpu0", "gpu0", 1 << 24)
    engine.run_until(task)
    ivs = engine.trace.filter(resource="dev:gpu0")
    assert len(ivs) == 1
    assert ivs[0].meta["direction"] == "local"


def test_link_contention_serialises_transfers(engine, node):
    a = node.submit_h2d("gpu0", 1 << 24)
    b = node.submit_h2d("gpu0", 1 << 24)
    engine.run_until_idle()
    single = node.h2d_seconds("gpu0", 1 << 24)
    assert b.end_time == pytest.approx(2 * single)
    assert a.end_time == pytest.approx(single)


def test_separate_links_transfer_in_parallel(engine, node):
    a = node.submit_h2d("gpu0", 1 << 24)
    b = node.submit_h2d("gpu1", 1 << 24)
    engine.run_until_idle()
    assert a.end_time == pytest.approx(b.end_time)


def test_kernel_execution_on_device_resource(engine, node):
    cost = KernelCost(flops=1e9, bytes=1e8, work_items=1 << 20)
    dev = node.device("gpu0")
    t = dev.submit_kernel("k", kernel_time(dev.spec, cost))
    engine.run_until(t)
    assert t.duration == kernel_time(dev.spec, cost)
    assert engine.trace.count("dev:gpu0", "kernel") == 1
    assert t.meta["kernel"] == "k"
    assert t.meta["minikernel"] is False


def test_minikernel_flag_uses_workgroup_time(engine, node):
    cost = KernelCost(flops=1e10, bytes=1e8, work_items=1 << 20)
    dev = node.device("gpu0")
    full = dev.submit_kernel("k", kernel_time(dev.spec, cost))
    dev.slowdown = 3.0
    mini = dev.submit_kernel("k", workgroup_time(dev.spec, cost), minikernel=True)
    engine.run_until_idle()
    assert mini.meta["minikernel"] is True
    assert mini.duration == workgroup_time(dev.spec, cost) * 3.0
    assert mini.duration < full.duration / 50


def test_kernel_deps_respected_across_resources(engine, node):
    up = node.submit_h2d("gpu0", 1 << 26)
    cost = KernelCost(flops=1e8, bytes=1e6, work_items=1 << 16)
    dev = node.device("gpu0")
    k = dev.submit_kernel("k", kernel_time(dev.spec, cost), deps=[up])
    engine.run_until(k)
    assert k.start_time == pytest.approx(up.end_time)


def test_intradevice_copy_charged_at_device_bandwidth(engine, node):
    dev = node.device("gpu0")
    nbytes = 1 << 27
    t = dev.submit_intradevice_copy(nbytes)
    engine.run_until(t)
    expected = nbytes / (dev.spec.mem_bandwidth_gbs * 1e9)
    assert t.duration == pytest.approx(expected)


def test_repeated_transfers_share_task_name_and_meta(node):
    """Transfers repeating name, device, size, direction and the very meta
    object share one task name and meta dict; callers passing equal but
    distinct meta dicts each get their own."""
    mine, theirs = {"tenant": "a"}, {"tenant": "a"}
    first = node.submit_h2d("gpu0", 4096, name="write:x", meta=mine)
    again = node.submit_h2d("gpu0", 4096, name="write:x", meta=mine)
    assert again.meta is first.meta and again.name is first.name
    other = node.submit_h2d("gpu0", 4096, name="write:x", meta=theirs)
    assert other.meta is not first.meta
    assert other.meta == first.meta == {
        "device": "gpu0", "bytes": 4096, "direction": "h2d", "tenant": "a",
    }
    back = node.submit_h2d("gpu0", 4096, name="write:x", meta=mine)
    assert back.meta is not other.meta
    # Any other size, direction or device is its own transfer.
    assert node.submit_h2d("gpu0", 8192, name="write:x", meta=mine).meta["bytes"] == 8192
    read = node.submit_d2h("gpu0", 4096, name="write:x", meta=mine)
    assert read.name == "write:x:gpu0->host" and read.meta["direction"] == "d2h"
    assert node.submit_h2d("gpu1", 4096, name="write:x").meta == {
        "device": "gpu1", "bytes": 4096, "direction": "h2d",
    }
