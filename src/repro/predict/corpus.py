"""The offline probe corpus the predictor models are fitted on.

Fitting needs (feature, observed-seconds) pairs per device.  Rather than
profile application kernels (that is exactly what the predictor exists to
avoid), the fit measures a synthetic probe corpus on a **throwaway
simulated node**: probe kernels sweep the cost-descriptor axes (flops,
bytes, divergence, irregularity, device efficiency, launch width) over a
grid chosen to span every workload kernel in the suite, and each probe is
measured once per device on a private engine whose clock no application
ever sees.  This mirrors how a real deployment would fit against a
microbenchmark corpus once per machine, offline.

Every probe is rendered as *annotated kernel source text*, and its
features are those the runtime's parse + :func:`repro.predict.features.extract`
pipeline reads from that text — the trainer cannot cheat with features the
runtime could not reproduce.  The fit runs that pipeline once per probe
*shape* (argument counts and body motif; see :func:`_probe_features`).
Probe signatures and bodies deliberately
cycle through argument-count and control-flow motifs so the body-derived
feature columns have corpus variance; otherwise any workload kernel that
departed from a constant column would show infinite leverage and the
confidence gate would decline everything.

Determinism: grids are static tuples, iteration order is fixed, and label
measurement is pure float arithmetic on a fresh engine — fitting the same
node spec twice (in any process) yields bit-identical models.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from math import log
from typing import Dict, List, Tuple

from repro.core.profile_store import node_fingerprint
from repro.hardware.cost import KernelCost
from repro.hardware.specs import DeviceKind, NodeSpec
from repro.hardware.topology import SimNode
from repro.ocl.source import _parse_program_source_uncached
from repro.predict.features import KernelFeatures, extract
from repro.predict.model import (
    DEFAULT_LAMBDA,
    DeviceTimeModel,
    PredictorModel,
    compute_feature_vector,
    memory_feature_vector,
)
from repro.sim.engine import SimEngine

__all__ = ["ProbeSpec", "probe_specs", "probe_source", "fit_model"]

_TINY = 1e-21

#: Simulation task category for probe launches on the trainer engine.
PROBE_CATEGORY = "predict-probe"

# Grid axes.  Chosen to span (with margin) every annotation in the NPB +
# seismology + replay-service kernel sets: flops_per_item up to ~620,
# bytes_per_item up to ~2716, divergence up to 0.45, irregularity up to
# 0.85, efficiencies down to 0.05.
_COMPUTE_FLOPS = (1.0, 8.0, 64.0, 512.0, 4096.0)
# The penalty curves enter the basis as degree-8 monomials, so their grids
# need more than 8 distinct values — with fewer, off-grid penalty values
# fall outside the corpus span and the leverage gate declines everything.
_DIVERGENCE = (0.0, 0.075, 0.15, 0.225, 0.3, 0.375, 0.45, 0.525, 0.6, 0.675)
_MEMORY_BYTES = (4.0, 32.0, 256.0, 2048.0, 16384.0)
_IRREGULARITY = (0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9)
_EFFICIENCY = (0.05, 0.3, 1.0)
_COMPUTE_ITEMS = (1 << 6, 1 << 10, 1 << 14, 1 << 18)
_MEMORY_ITEMS = (1 << 8, 1 << 14, 1 << 20)
#: Dense power-of-two launch-width sweep pinning down the occupancy hinge
#: (compute term only; the roofline applies no occupancy to bandwidth).
_OCCUPANCY_ITEMS = tuple(1 << p for p in range(4, 21))

#: Body motifs cycled across probes so control-flow feature columns have
#: corpus variance.  Bodies never affect probe *labels* (the cost
#: descriptor is annotation-driven), only the feature side.
_BODY_MOTIFS = (
    "/* probe body (modelled) */",
    "int i = get_global_id(0);\n  if (i < 0) { a0[0] = 0.0f; }",
    "for (int k = 0; k < 8; ++k) { barrier(CLK_LOCAL_MEM_FENCE); }",
)
_BUFFER_TYPES = ("float", "double")


@dataclass(frozen=True)
class ProbeSpec:
    """One synthetic probe kernel: cost axes plus signature/body variety."""

    name: str
    head: str  # "compute" | "memory"
    flops_per_item: float
    bytes_per_item: float
    divergence: float
    irregularity: float
    efficiency: float
    work_items: int
    buffers: int = 1
    scalars: int = 0
    motif: int = 0


def probe_specs() -> List[ProbeSpec]:
    """The full corpus, in fixed deterministic order."""
    probes: List[ProbeSpec] = []

    def _add(head: str, f: float, b: float, d: float, irr: float,
             e: float, n: int) -> None:
        idx = len(probes)
        probes.append(
            ProbeSpec(
                name=f"probe_{head[0]}{idx}",
                head=head,
                flops_per_item=f,
                bytes_per_item=b,
                divergence=d,
                irregularity=irr,
                efficiency=e,
                work_items=n,
                buffers=1 + idx % 9,
                scalars=idx % 4,
                motif=idx % len(_BODY_MOTIFS),
            )
        )

    for f in _COMPUTE_FLOPS:
        for d in _DIVERGENCE:
            for e in _EFFICIENCY:
                for n in _COMPUTE_ITEMS:
                    _add("compute", f, 0.0, d, 0.0, e, n)
    # Several sweeps, not one: each off-main-grid launch width must be
    # observed multiple times or its hinge direction carries leverage ~1
    # and the confidence gate hovers at the threshold.
    for f in (8.0, 64.0, 512.0):
        for e in (0.3, 1.0):
            for n in _OCCUPANCY_ITEMS:
                _add("compute", f, 0.0, 0.0, 0.0, e, n)
    for b in _MEMORY_BYTES:
        for irr in _IRREGULARITY:
            for e in _EFFICIENCY:
                for n in _MEMORY_ITEMS:
                    _add("memory", 0.0, b, 0.0, irr, e, n)
    return probes


def probe_source(p: ProbeSpec) -> str:
    """Render a probe as annotated kernel source (the runtime's format)."""
    args = ", ".join(
        [
            f"__global {_BUFFER_TYPES[i % len(_BUFFER_TYPES)]}* a{i}"
            for i in range(p.buffers)
        ]
        + [f"int s{i}" for i in range(p.scalars)]
    )
    annot = (
        f"flops_per_item={p.flops_per_item!r} "
        f"bytes_per_item={p.bytes_per_item!r} "
        f"divergence={p.divergence!r} irregularity={p.irregularity!r} "
        f"cpu_eff={p.efficiency!r} gpu_eff={p.efficiency!r} "
        f"accel_eff={p.efficiency!r}"
    )
    body = _BODY_MOTIFS[p.motif]
    return (
        f"// @multicl {annot}\n"
        f"__kernel void {p.name}({args}) {{\n  {body}\n}}\n"
    )


def _probe_cost(feat: KernelFeatures, work_items: int) -> KernelCost:
    """The cost descriptor a probe's annotations denote.

    Built from the *extracted features* (not the ProbeSpec) so the label
    side and the feature side agree to the last bit — the same floats that
    went through annotation text come back out of the parse.
    """
    return KernelCost(
        flops=feat.flops_per_item * work_items,
        bytes=feat.bytes_per_item * work_items,
        work_items=work_items,
        workgroup_size=64,
        divergence=feat.divergence,
        irregularity=feat.irregularity,
        efficiency={DeviceKind(kind): eff for kind, eff in feat.efficiency},
    )


_OVERHEAD_COST = KernelCost(flops=0.0, bytes=0.0, work_items=1)


def _probe_features(probes: List[ProbeSpec]) -> List[KernelFeatures]:
    """Each probe's features, parsing and extracting each shape once.

    Probes of one ``(buffers, scalars, motif)`` shape differ in source
    only in the kernel name and the ``@multicl`` values, which
    :func:`extract` copies straight into ``name``, the four descriptor
    fields and ``efficiency``.  ``float(v)`` is exactly what ``float``
    parses back from the ``repr`` in :func:`probe_source`.  Parsing
    bypasses the shared parse memo, which 1,152 probes would flush.
    """
    shapes: Dict[Tuple[int, int, int], KernelFeatures] = {}
    feats: List[KernelFeatures] = []
    for p in probes:
        key = (p.buffers, p.scalars, p.motif)
        shape = shapes.get(key)
        if shape is None:
            src = probe_source(p)
            shape = extract(_parse_program_source_uncached(src)[0], src)
            shapes[key] = shape
        eff = float(p.efficiency)
        feats.append(
            replace(
                shape,
                name=p.name,
                flops_per_item=float(p.flops_per_item),
                bytes_per_item=float(p.bytes_per_item),
                divergence=float(p.divergence),
                irregularity=float(p.irregularity),
                efficiency=tuple((kind, eff) for kind, _ in shape.efficiency),
            )
        )
    return feats


def fit_model(spec: NodeSpec, lam: float = DEFAULT_LAMBDA) -> PredictorModel:
    """Fit a :class:`PredictorModel` for ``spec`` from the probe corpus.

    Probes run on a throwaway engine bound to a fresh :class:`SimNode` —
    the application clock is never charged.  Per device, an empty probe
    measures the launch overhead, then every corpus probe contributes one
    ``(features, log per-item body seconds)`` observation to the device's
    compute- or memory-bound head.  Each head folds its observations as
    one batch, in corpus order (:meth:`RidgeHead.fold`).
    """
    probes = probe_specs()
    feats = _probe_features(probes)
    engine = SimEngine()
    node = SimNode(engine, spec)
    devices: Dict[str, DeviceTimeModel] = {}
    last = None
    for dev in node.device_list():
        kind = dev.spec.kind.value
        probe0 = dev.submit_kernel(
            name="probe:overhead", cost=_OVERHEAD_COST, category=PROBE_CATEGORY
        )
        overhead = probe0.duration
        model = DeviceTimeModel(dev.name, kind, overhead, lam=lam)
        rows = {"compute": ([], []), "memory": ([], [])}
        prev = probe0
        for p, feat in zip(probes, feats):
            task = dev.submit_kernel(
                name=f"probe:{p.name}",
                cost=_probe_cost(feat, p.work_items),
                deps=[prev],
                category=PROBE_CATEGORY,
            )
            prev = task
            y = log(max((task.duration - overhead) / p.work_items, _TINY))
            vector = (
                compute_feature_vector
                if p.head == "compute"
                else memory_feature_vector
            )
            xs, ys = rows[p.head]
            xs.append(vector(feat, kind, p.work_items))
            ys.append(y)
        model.compute.fold(*rows["compute"])
        model.memory.fold(*rows["memory"])
        devices[dev.name] = model
        last = prev
    if last is not None:
        # Drain the trainer engine: probe "measurements" genuinely elapse
        # on the throwaway clock (and nowhere else).
        engine.run_until(last)
    return PredictorModel(
        fingerprint=node_fingerprint(spec),
        devices=devices,
        lam=lam,
    )
