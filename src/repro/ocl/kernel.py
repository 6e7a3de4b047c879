"""cl_kernel objects and per-device launch configurations.

Besides the stock OpenCL surface (argument setting, NDRange launches), this
implements the paper's proposed ``clSetKernelWorkGroupInfo`` (Section IV.C):
a kernel can carry one launch configuration *per device*, set ahead of time,
so the scheduler can launch — and profile — the kernel with the right
configuration on whichever device it dynamically picks.  Configurations
passed to ``clEnqueueNDRangeKernel`` are ignored for devices that have a
pre-set configuration, exactly as the paper specifies.

Timing comes from a cost model.  The default model is built from the
``// @multicl`` source annotations (flops/bytes per work item, divergence,
irregularity, per-device-kind efficiency); workloads may override it with
``set_cost_model`` for costs that are not per-item linear.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Optional, Sequence, Tuple, TYPE_CHECKING

from repro.hardware.cost import KernelCost
from repro.hardware.specs import DeviceKind, DeviceSpec
from repro.ocl.errors import (
    InvalidKernelArgs,
    InvalidValue,
    InvalidWorkGroupSize,
)
from repro.ocl.memory import Buffer
from repro.ocl.source import KernelSourceInfo

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.split import SplitPlan
    from repro.ocl.program import Program

__all__ = ["WorkGroupConfig", "Kernel", "CostModel", "HostFunction"]

#: Signature of a kernel cost model: (device spec, launch config, args) -> cost.
CostModel = Callable[[DeviceSpec, "WorkGroupConfig", Dict[int, Any]], KernelCost]

#: Signature of a functional payload: receives {arg_name: value} where buffer
#: arguments are delivered as their numpy arrays.
HostFunction = Callable[[Dict[str, Any]], None]

#: Marks an argument index that was never set (``set_arg`` identity test).
_UNSET = object()

#: Entries one kernel's split memos hold before they start over.
SPLIT_MEMO_SIZE = 256

_EFF_KEYS = {
    "cpu_eff": DeviceKind.CPU,
    "gpu_eff": DeviceKind.GPU,
    "accel_eff": DeviceKind.ACCELERATOR,
}


#: (global_size, local_size) -> validated WorkGroupConfig (frozen, shared).
_config_memo: Dict[Any, "WorkGroupConfig"] = {}


def _prod(xs: Sequence[int]) -> int:
    out = 1
    for x in xs:
        out *= int(x)
    return out


@dataclass(frozen=True)
class WorkGroupConfig:
    """An NDRange launch configuration."""

    global_size: Tuple[int, ...]
    local_size: Tuple[int, ...]
    #: total work items, the product of ``global_size``; computed once (the
    #: profiler's cache key reads it for every deferred kernel)
    work_items: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not 1 <= len(self.global_size) <= 3:
            raise InvalidWorkGroupSize(
                f"global_size must have 1-3 dimensions, got {self.global_size}"
            )
        if len(self.local_size) != len(self.global_size):
            raise InvalidWorkGroupSize(
                f"local_size {self.local_size} dimensionality does not match "
                f"global_size {self.global_size}"
            )
        if any(g <= 0 for g in self.global_size) or any(
            l <= 0 for l in self.local_size
        ):
            raise InvalidWorkGroupSize("sizes must be positive")
        object.__setattr__(self, "work_items", _prod(self.global_size))

    @property
    def workgroup_size(self) -> int:
        return _prod(self.local_size)

    @property
    def num_workgroups(self) -> int:
        return _prod(
            math.ceil(g / l) for g, l in zip(self.global_size, self.local_size)
        )

    @staticmethod
    def normalize(
        global_size: Sequence[int],
        local_size: Optional[Sequence[int]] = None,
    ) -> "WorkGroupConfig":
        # Memoised: enqueue loops launch the same configuration over and
        # over, and __post_init__ validation is pure in (gs, ls).  The raw
        # sizes are tried first: numpy and Python ints of one value hash and
        # compare equal, so a hit skips the int() conversion.
        global_size = tuple(global_size)
        if local_size is not None:
            local_size = tuple(local_size)
        raw: Any = (global_size, local_size)
        try:
            cached = _config_memo.get(raw)
        except TypeError:  # unhashable sizes (0-d arrays) still convert
            raw = cached = None
        if cached is not None:
            return cached
        gs = tuple(int(g) for g in global_size)
        if local_size is None:
            # OpenCL lets the implementation pick; we pick 64 linearised.
            ls: Tuple[int, ...] = (min(64, gs[0]),) + (1,) * (len(gs) - 1)
        else:
            ls = tuple(int(l) for l in local_size)
        config = _config_memo.get((gs, ls))
        if config is None:
            config = WorkGroupConfig(gs, ls)
        if len(_config_memo) > 256:
            _config_memo.clear()
        if raw is not None:
            _config_memo[raw] = config
        _config_memo[(gs, ls)] = config
        return config


class Kernel:
    """A kernel object bound to a built program."""

    def __init__(self, program: "Program", info: KernelSourceInfo) -> None:
        self.program = program
        self.info = info
        self.name = info.name
        self.args: Dict[int, Any] = {}
        #: device name -> WorkGroupConfig, set via clSetKernelWorkGroupInfo
        self.device_configs: Dict[str, WorkGroupConfig] = {}
        self._cost_model: Optional[CostModel] = None
        self.host_fn: Optional[HostFunction] = None
        #: WorkGroupConfig -> KernelCost for the annotation cost model
        #: (pure in config; KernelCost is frozen, so sharing is safe).
        self._annotation_cost_memo: Dict[WorkGroupConfig, KernelCost] = {}
        #: (device name, global size, local size) -> KernelCost of
        #: :meth:`launch_cost` for the annotation cost model (keyed on the
        #: sizes: hashing the WorkGroupConfig is a Python call per launch);
        #: cleared when a per-device configuration changes (a custom cost
        #: model bypasses it).
        self._launch_cost_memo: Dict[
            Tuple[str, Tuple[int, ...], Tuple[int, ...]], KernelCost
        ] = {}
        #: (launch, device order, per-device seconds) -> :meth:`split_plan`;
        #: (launch, plan) -> :meth:`split_shares`.  Both read
        #: effective_config, so a per-device configuration clears them.
        self._split_plan_memo: Dict[tuple, Optional["SplitPlan"]] = {}
        self._split_shares_memo: Dict[tuple, tuple] = {}
        #: ``(args copy, buffer args, written buffer args)`` for enqueue,
        #: built on first use after ``set_arg`` changes an argument.
        self._snapshot: Optional[
            Tuple[Dict[int, Any], Tuple[Buffer, ...], Tuple[Buffer, ...]]
        ] = None

    # ------------------------------------------------------------------
    # Standard OpenCL surface
    # ------------------------------------------------------------------
    def set_arg(self, index: int, value: Any) -> None:
        """clSetKernelArg."""
        if index < 0 or index >= len(self.info.args):
            raise InvalidKernelArgs(
                f"kernel {self.name!r} has {len(self.info.args)} args, "
                f"index {index} invalid"
            )
        expected_buffer = self.info.args[index].is_buffer
        got_buffer = isinstance(value, Buffer)
        if expected_buffer and not got_buffer:
            raise InvalidKernelArgs(
                f"kernel {self.name!r} arg {index} "
                f"({self.info.args[index].declaration!r}) expects a Buffer"
            )
        if not expected_buffer and got_buffer:
            raise InvalidKernelArgs(
                f"kernel {self.name!r} arg {index} "
                f"({self.info.args[index].declaration!r}) expects a scalar"
            )
        if self.args.get(index, _UNSET) is not value:
            self._snapshot = None
            # The cost model prices from self.args: a new value re-prices
            # launches already deferred.
            if self._cost_model is not None:
                self.program.context.cost_edits += 1
        self.args[index] = value

    def check_args_set(self) -> None:
        # set_arg validates 0 <= index < len(info.args), so a full dict
        # means every argument is set — the common (per-enqueue) case.
        if len(self.args) == len(self.info.args):
            return
        missing = [
            i for i in range(len(self.info.args)) if i not in self.args
        ]
        if missing:
            raise InvalidKernelArgs(
                f"kernel {self.name!r}: arguments {missing} not set"
            )

    def snapshot(
        self,
    ) -> Tuple[Dict[int, Any], Tuple[Buffer, ...], Tuple[Buffer, ...]]:
        """``(args, buffers, written)`` captured for one enqueue.

        ``args`` is a copy of :attr:`args` (never mutated, so enqueues with
        unchanged arguments share it); ``buffers`` are the buffer arguments
        in argument order and ``written`` those the kernel writes (the
        ``writes=`` annotation, else every buffer argument).  Built in one
        pass and reused until ``set_arg`` changes an argument.
        """
        snap = self._snapshot
        if snap is None:
            writes = self.info.writes
            buffers = []
            written = []
            for i, v in self.args.items():
                if isinstance(v, Buffer):
                    buffers.append(v)
                    if not writes or i in writes:
                        written.append(v)
            snap = self._snapshot = (dict(self.args), tuple(buffers), tuple(written))
        return snap

    def buffer_args(self) -> Dict[int, Buffer]:
        """Index -> Buffer for all buffer-typed arguments currently set."""
        return {i: v for i, v in self.args.items() if isinstance(v, Buffer)}

    def written_buffer_args(self) -> Dict[int, Buffer]:
        """Buffer args the kernel writes (``writes=`` annotation, else all)."""
        bufs = self.buffer_args()
        if not self.info.writes:
            return bufs
        return {i: b for i, b in bufs.items() if i in self.info.writes}

    # ------------------------------------------------------------------
    # Proposed extension: clSetKernelWorkGroupInfo (paper Section IV.C)
    # ------------------------------------------------------------------
    def set_work_group_info(
        self,
        device_name: str,
        global_size: Sequence[int],
        local_size: Optional[Sequence[int]] = None,
    ) -> None:
        """Pre-set the launch configuration to use on ``device_name``.

        May be invoked at any time before the launch.  Once set, the launch
        configuration passed to ``clEnqueueNDRangeKernel`` is ignored for
        this device.
        """
        self.device_configs[device_name] = WorkGroupConfig.normalize(
            global_size, local_size
        )
        self._launch_cost_memo.clear()
        self._split_plan_memo.clear()
        self._split_shares_memo.clear()
        self.program.context.cost_edits += 1

    def effective_config(
        self, device_name: str, launch: WorkGroupConfig
    ) -> WorkGroupConfig:
        """Configuration actually used on ``device_name``."""
        return self.device_configs.get(device_name, launch)

    def sub_range_config(
        self,
        device_name: str,
        launch: WorkGroupConfig,
        lo: int,
        hi: int,
    ) -> WorkGroupConfig:
        """Launch configuration for the ``[lo, hi)`` slice of dimension 0.

        Used by multi-device work-splitting: the sub-range keeps the full
        extent in dimensions 1+, inherits the device's effective local size
        (per-device override included), and clips it to the slice so tiny
        shares remain valid configurations.
        """
        if not 0 <= lo < hi <= launch.global_size[0]:
            raise InvalidValue(
                f"kernel {self.name!r}: sub-range [{lo}:{hi}) outside "
                f"global dimension 0 of {launch.global_size}"
            )
        base = self.effective_config(device_name, launch)
        global_size = (hi - lo,) + tuple(launch.global_size[1:])
        local = tuple(
            base.local_size[i] if i < len(base.local_size) else 1
            for i in range(len(global_size))
        )
        local = tuple(min(l, g) for l, g in zip(local, global_size))
        return WorkGroupConfig.normalize(global_size, local)

    def split_plan(
        self,
        launch: WorkGroupConfig,
        devices: Sequence[str],
        seconds: Dict[str, float],
        planner: Callable[..., Optional["SplitPlan"]],
    ) -> Optional["SplitPlan"]:
        """``planner(self, launch, devices, seconds)`` (the scheduler passes
        :func:`repro.core.split.plan_split`), called only for a launch,
        device order and per-device seconds not planned before."""
        memo = self._split_plan_memo
        key = (launch, tuple(devices), tuple([seconds.get(d) for d in devices]))
        if key in memo:
            return memo[key]
        if len(memo) >= SPLIT_MEMO_SIZE:
            memo.clear()
        plan = memo[key] = planner(self, launch, devices, seconds)
        return plan

    def split_shares(
        self, launch: WorkGroupConfig, plan: "SplitPlan"
    ) -> Tuple[Tuple[str, int, int, WorkGroupConfig], ...]:
        """``(device, lo, hi, sub-range config)`` of each non-empty share of
        ``plan``, memoised per ``(launch, plan)``."""
        memo = self._split_shares_memo
        key = (launch, plan)
        shares = memo.get(key)
        if shares is None:
            if len(memo) >= SPLIT_MEMO_SIZE:
                memo.clear()
            shares = memo[key] = tuple(
                (d, lo, hi, self.sub_range_config(d, launch, lo, hi))
                for d, lo, hi in plan.shares
                if hi > lo
            )
        return shares

    # ------------------------------------------------------------------
    # Cost and functional payload
    # ------------------------------------------------------------------
    def set_cost_model(self, fn: CostModel) -> None:
        """Override the annotation-derived cost model."""
        self._cost_model = fn
        self.program.context.cost_edits += 1

    def set_host_function(self, fn: HostFunction) -> None:
        """Attach a functional numpy payload executed when the kernel runs."""
        self.host_fn = fn

    def launch_cost(
        self, spec: DeviceSpec, launch: WorkGroupConfig
    ) -> KernelCost:
        """Cost of launching this kernel on ``spec`` with ``launch`` config.

        Honours the per-device configuration override before consulting the
        cost model.  Annotation-model costs are pure in (device, launch) and
        memoised; a custom cost model prices from the current arguments, so
        it is consulted on every launch.
        """
        if self._cost_model is not None:
            return self.config_cost(spec, self.effective_config(spec.name, launch))
        key = (spec.name, launch.global_size, launch.local_size)
        cost = self._launch_cost_memo.get(key)
        if cost is None:
            config = self.effective_config(spec.name, launch)
            cost = self._launch_cost_memo[key] = self.config_cost(spec, config)
        return cost

    def config_cost(self, spec: DeviceSpec, config: WorkGroupConfig) -> KernelCost:
        """Cost for an explicit configuration, bypassing the per-device
        override (work-splitting costs sub-ranges that already honoured it)."""
        if self._cost_model is not None:
            return self._cost_model(spec, config, self.args)
        return self._annotation_cost(config)

    def _annotation_cost(self, config: WorkGroupConfig) -> KernelCost:
        cached = self._annotation_cost_memo.get(config)
        if cached is not None:
            return cached
        a = self.info.annotations
        if "flops_per_item" not in a and "bytes_per_item" not in a:
            raise InvalidValue(
                f"kernel {self.name!r} has neither @multicl annotations nor a "
                f"cost model; cannot estimate launch cost"
            )
        items = config.work_items
        eff = {
            kind: a[key] for key, kind in _EFF_KEYS.items() if key in a
        }
        cost = KernelCost(
            flops=a.get("flops_per_item", 0.0) * items,
            bytes=a.get("bytes_per_item", 0.0) * items,
            work_items=items,
            workgroup_size=config.workgroup_size,
            divergence=a.get("divergence", 0.0),
            irregularity=a.get("irregularity", 0.0),
            efficiency=eff,
            times={},
        )
        self._annotation_cost_memo[config] = cost
        return cost

    def run_host_function(self, args: Optional[Dict[int, Any]] = None) -> None:
        """Execute the functional payload (if any) against ``args``
        (default: the current :attr:`args`)."""
        if self.host_fn is None:
            return
        if args is None:
            args = self.args
        named: Dict[str, Any] = {}
        for i, arg in enumerate(self.info.args):
            value = args.get(i)
            if isinstance(value, Buffer):
                named[arg.name] = value.array
            else:
                named[arg.name] = value
        self.host_fn(named)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Kernel({self.name!r}, args_set={sorted(self.args)})"
