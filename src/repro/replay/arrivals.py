"""Deterministic, seedable request-arrival processes over kernel families.

The replay subsystem evaluates the scheduler as an *open* queueing system:
requests arrive according to a stochastic process whether or not the fleet
has kept up, and the figures of merit are latency percentiles and
sustained throughput rather than makespan (the closed-loop view the paper
reports).  Three arrival processes cover the production-traffic shapes the
queueing literature cares about:

* :class:`PoissonProcess` — memoryless arrivals at a constant rate, the
  M/G/k baseline;
* :class:`OnOffProcess` — bursty on/off (Markov-modulated) traffic: ON
  windows at an elevated rate separated by silent OFF windows, with the
  same long-run average rate;
* :class:`DiurnalProcess` — a sinusoidally rate-modulated day/night cycle,
  realised by thinning a dominating Poisson process.

Every process is a pure function of its parameters and a seed (stdlib
``random.Random``, whose sequence is stable across Python versions and
platforms), so the same seed reproduces the same arrival schedule
bit-for-bit — the property the serial-vs-sharded determinism tests pin.

Each arrival also draws a *kernel family* (a request type with a fixed
flops/bytes footprint) from a weighted mix, modelling heterogeneous
production traffic: many small requests, a tail of heavy ones.
"""

from __future__ import annotations

import math
import random
from bisect import bisect_right
from dataclasses import dataclass, fields
from typing import Iterator, Sequence, Tuple

__all__ = [
    "KernelFamily",
    "DEFAULT_FAMILIES",
    "ArrivalProcess",
    "PoissonProcess",
    "OnOffProcess",
    "DiurnalProcess",
    "make_process",
    "derive_seed",
]

_SEED_MASK = (1 << 63) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def derive_seed(seed: int, index: int) -> int:
    """Mix a base seed with a stream index (per-tenant substreams).

    Pure integer arithmetic so serial and sharded runs derive identical
    per-tenant seeds regardless of process boundaries.
    """
    return ((seed + 1) * _GOLDEN + index * 0x85EBCA6B) & _SEED_MASK


@dataclass(frozen=True)
class KernelFamily:
    """One request type: a kernel with a fixed per-request work footprint."""

    name: str
    flops: float
    bytes: float
    #: relative arrival frequency within the traffic mix
    weight: float = 1.0


#: Production-flavoured default mix: mostly small requests, a heavy tail.
DEFAULT_FAMILIES: Tuple[KernelFamily, ...] = (
    KernelFamily("pointwise", flops=2.0e8, bytes=6.0e7, weight=8.0),
    KernelFamily("stencil", flops=1.2e9, bytes=3.0e8, weight=4.0),
    KernelFamily("reduce", flops=4.0e8, bytes=6.0e8, weight=2.0),
    KernelFamily("batch-gemm", flops=1.0e10, bytes=1.2e9, weight=1.0),
)


class ArrivalProcess:
    """Base class: a seedable stream of ``(arrival_time, family_index)``.

    Subclasses implement :meth:`_arrivals` (an infinite generator of
    arrival timestamps drawing from the supplied RNG); :meth:`stream`
    interleaves the family draw from the *same* RNG so the whole schedule
    is one deterministic sequence.
    """

    kind = "base"
    rate: float

    def _arrivals(self, rng: random.Random) -> Iterator[float]:
        raise NotImplementedError

    def stream(
        self,
        families: Sequence[KernelFamily],
        seed: int,
        limit: int,
    ) -> Iterator[Tuple[float, int]]:
        """Yield ``limit`` arrivals as ``(time, family_index)`` tuples."""
        rng = random.Random(seed)
        cum = []
        total = 0.0
        for fam in families:
            total += fam.weight
            cum.append(total)
        arrivals = self._arrivals(rng)
        uniform = rng.random
        for _ in range(limit):
            t = next(arrivals)
            yield t, bisect_right(cum, uniform() * total, 0, len(cum) - 1)


@dataclass(frozen=True)
class PoissonProcess(ArrivalProcess):
    """Memoryless arrivals: exponential inter-arrival times at ``rate``."""

    rate: float
    kind = "poisson"

    def _arrivals(self, rng: random.Random) -> Iterator[float]:
        expovariate = rng.expovariate
        rate = self.rate
        t = 0.0
        while True:
            t += expovariate(rate)
            yield t


@dataclass(frozen=True)
class OnOffProcess(ArrivalProcess):
    """Bursty traffic: Poisson bursts in ON windows, silence in OFF windows.

    ``rate`` is the *long-run average*; during an ON window the
    instantaneous rate is ``rate * (on_s + off_s) / on_s``.  Realised by
    drawing a Poisson stream over cumulative *active* (ON) time and mapping
    it onto the wall clock, inserting the OFF gap between consecutive ON
    windows — exact, no thinning needed.
    """

    rate: float
    on_s: float = 2.0
    off_s: float = 6.0
    kind = "bursty"

    def __post_init__(self) -> None:
        if not (math.isfinite(self.on_s) and self.on_s > 0.0):
            raise ValueError(f"on_s must be positive and finite, got {self.on_s}")
        if not (math.isfinite(self.off_s) and self.off_s >= 0.0):
            raise ValueError(
                f"off_s must be non-negative and finite, got {self.off_s}"
            )

    def _arrivals(self, rng: random.Random) -> Iterator[float]:
        expovariate = rng.expovariate
        on = self.on_s
        cycle = on + self.off_s
        burst_rate = self.rate * cycle / on
        active = 0.0
        while True:
            active += expovariate(burst_rate)
            window, offset = divmod(active, on)
            yield window * cycle + offset


@dataclass(frozen=True)
class DiurnalProcess(ArrivalProcess):
    """Day/night cycle: rate(t) = rate·(1 + amplitude·sin(2πt/period)).

    Realised by thinning a dominating Poisson process at the peak rate
    (``amplitude`` must stay below 1 so the rate never goes negative).
    """

    rate: float
    amplitude: float = 0.6
    period_s: float = 60.0
    kind = "diurnal"

    def __post_init__(self) -> None:
        if not 0.0 <= self.amplitude < 1.0:
            raise ValueError(
                f"amplitude must be in [0, 1), got {self.amplitude}"
            )
        if not (math.isfinite(self.period_s) and self.period_s > 0.0):
            raise ValueError(
                f"period_s must be positive and finite, got {self.period_s}"
            )

    def _arrivals(self, rng: random.Random) -> Iterator[float]:
        expovariate = rng.expovariate
        uniform = rng.random
        peak = self.rate * (1.0 + self.amplitude)
        two_pi_over_period = 2.0 * math.pi / self.period_s
        t = 0.0
        while True:
            t += expovariate(peak)
            instantaneous = self.rate * (
                1.0 + self.amplitude * math.sin(t * two_pi_over_period)
            )
            if uniform() * peak <= instantaneous:
                yield t


_PROCESSES = {
    "poisson": PoissonProcess,
    "bursty": OnOffProcess,
    "diurnal": DiurnalProcess,
}


def make_process(kind: str, rate: float, **params) -> ArrivalProcess:
    """Build an arrival process by name (``poisson``/``bursty``/``diurnal``)."""
    try:
        cls = _PROCESSES[kind]
    except KeyError:
        raise ValueError(
            f"unknown arrival process {kind!r}; expected one of "
            f"{sorted(_PROCESSES)}"
        )
    accepted = [f.name for f in fields(cls) if f.name != "rate"]
    unknown = sorted(set(params) - set(accepted))
    if unknown:
        raise ValueError(
            f"arrival process {kind!r} takes no parameter {unknown}; "
            f"it accepts {accepted or 'none'}"
        )
    return cls(rate=rate, **params)
