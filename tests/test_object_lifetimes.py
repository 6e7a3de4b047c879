"""Per-command objects die by reference counting.

A command is its own event (``Event`` is :class:`~repro.ocl.queue.Command`).
It points at its long-lived queue and owns its simulated task; the queue
holds the command only on its own lists, which drop it by removal, and a
task drops its dependency list when it is submitted.  So a finished
command and its task are freed as soon as the program lets go of them
instead of waiting for the cyclic collector.

The test runs a small scheduled workload under ``gc.DEBUG_SAVEALL``, which
keeps in ``gc.garbage`` everything the collector finds unreachable, and
checks that no command or task is there.  The workload covers FIFO
issue, overlap issue, a split kernel, a callback registered on a deferred
command, and the replay of commands stranded on a failed device.
"""

import collections
import gc

import numpy as np

from repro.core.runtime import MultiCL
from repro.hardware.presets import symmetric_dual_gpu_node
from repro.ocl.enums import ContextScheduler, SchedFlag
from repro.ocl.queue import Command
from repro.sim.faults import FaultPlan

SOURCE = """
// @multicl flops_per_item=220 bytes_per_item=8 writes=1
__kernel void scale(__global float* src, __global float* dst, float s) {
  int i = get_global_id(0);
  dst[i] = src[i] * s;
}
"""

N = 1 << 16
AUTO = SchedFlag.SCHED_AUTO_DYNAMIC | SchedFlag.SCHED_KERNEL_EPOCH
FLAGS = {
    "fifo": AUTO,
    "overlap": AUTO | SchedFlag.SCHED_OVERLAP,
    "split": AUTO | SchedFlag.SCHED_SPLIT,
}


def _round(streams, r, fired):
    """One write → kernel → read round on every queue, then finish."""
    for q, kernel, src, dst, out in streams:
        q.enqueue_write_buffer(src, np.full(N, r + 1, np.float32))
        kernel.set_arg(0, src)
        kernel.set_arg(1, dst)
        kernel.set_arg(2, 2.0)
        ev = q.enqueue_nd_range_kernel(kernel, (N,), (64,))
        assert ev.task is None  # deferred until the scheduler triggers
        assert q.pending[-1] is ev  # the handle is the command itself
        ev.set_callback(fired.append)
        q.enqueue_read_buffer(dst, out)
    for q, *_ in streams:
        q.finish()
    for *_, out in streams:
        assert out[0] == 2.0 * (r + 1)


def _workload(profile_dir):
    mcl = MultiCL(
        node_spec=symmetric_dual_gpu_node(),
        policy=ContextScheduler.AUTO_FIT,
        profile_dir=profile_dir,
    )
    ctx = mcl.context
    program = ctx.create_program(SOURCE).build()
    streams = []
    for name, flags in FLAGS.items():
        kernel = program.create_kernel("scale")
        kernel.set_host_function(
            lambda a: np.multiply(a["src"], a["s"], out=a["dst"])
        )
        zeros = np.zeros(N, np.float32)
        streams.append((
            mcl.queue(flags=flags, name=name),
            kernel,
            ctx.create_buffer(4 * N, host_array=zeros.copy(), name=f"{name}.src"),
            ctx.create_buffer(4 * N, host_array=zeros.copy(), name=f"{name}.dst"),
            np.empty(N, np.float32),
        ))
    fired = []
    for r in range(3):
        _round(streams, r, fired)
    # Fail a GPU while the next round runs: its commands are requeued and
    # replayed on the survivor.
    fifo = streams[0][0]
    injector = mcl.inject_faults(
        FaultPlan().fail_device(fifo.device, at=mcl.now + 5e-5)
    )
    for r in range(3, 6):
        _round(streams, r, fired)
    return mcl, fired, injector


def test_commands_events_and_tasks_never_become_cyclic_garbage(profile_dir):
    gc.collect()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        mcl, fired, injector = _workload(profile_dir)
        gc.collect()
        garbage = collections.Counter(type(o).__name__ for o in gc.garbage)
    finally:
        gc.set_debug(0)
        gc.garbage.clear()

    # Every path the test claims to cover actually ran.
    names = {iv.task for iv in mcl.engine.trace}
    assert any(n.startswith("overlap-join@overlap") for n in names)
    assert any(n.startswith("split-join:scale@split") for n in names)
    assert injector.replayed_commands >= 1
    assert len(fired) == 6 * len(FLAGS)
    # A completed task no longer holds the graph behind it.
    assert all(ev.task.done and not ev.task.deps for ev in fired)
    # Each callback fired with the command the queue held, not a wrapper.
    assert all(type(ev) is Command for ev in fired)

    assert garbage["Command"] == 0
    assert garbage["SimTask"] == 0


def test_submitted_task_holds_no_deps(engine):
    first = engine.task("first", 1.0)
    second = engine.task("second", 1.0, deps=[first])
    assert second.deps == ()
    engine.run_until(second)
    assert second.done and first.done
    assert not second.deps and not first.deps
