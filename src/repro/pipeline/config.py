"""Processor and platform configuration (paper Table 2).

All structural parameters of the simulated out-of-order core live here.
The defaults reproduce Table 2 of the paper: a 6-wide out-of-order core
with a 128-entry active list, 64-entry LSQ, 32-entry integer and FP
issue queues, 6 integer ALUs, 4 FP adders, two integer register-file
copies, 64 KB 4-way 2-cycle L1 caches, a 2 MB 8-way L2, 250-cycle
memory, 4.2 GHz at 1.2 V in 90 nm, a 358 K thermal ceiling and a 10 ms
cooling stall.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Tuple


@dataclass(frozen=True)
class CacheConfig:
    """Geometry and latency of one cache level."""

    size_bytes: int
    assoc: int
    latency: int
    block_bytes: int = 64
    ports: int = 2

    def __post_init__(self) -> None:
        if self.size_bytes <= 0 or self.assoc <= 0 or self.block_bytes <= 0:
            raise ValueError("cache dimensions must be positive")
        n_blocks = self.size_bytes // self.block_bytes
        if n_blocks % self.assoc:
            raise ValueError("cache size must be divisible by assoc * block")

    @property
    def n_sets(self) -> int:
        return self.size_bytes // self.block_bytes // self.assoc


@dataclass(frozen=True)
class ProcessorConfig:
    """Structural parameters of the simulated core (paper Table 2)."""

    issue_width: int = 6
    commit_width: int = 6
    fetch_width: int = 6
    active_list_entries: int = 128
    lsq_entries: int = 64
    int_queue_entries: int = 32
    fp_queue_entries: int = 32
    num_int_alus: int = 6
    num_fp_adders: int = 4
    num_regfile_copies: int = 2
    num_physical_regs: int = 256
    branch_mispredict_penalty: int = 10
    #: Cycles an issued instruction lingers in the issue queue before
    #: its slot is reclaimed, covering L1-miss replay (paper 2.1:
    #: "one or more cycles").  While it lingers it is marked invalid,
    #: defeating the clock gating of every entry above it.
    replay_window: int = 4
    l1d: CacheConfig = CacheConfig(64 * 1024, 4, 2)
    l1i: CacheConfig = CacheConfig(64 * 1024, 4, 2)
    l2: CacheConfig = CacheConfig(2 * 1024 * 1024, 8, 12)
    memory_latency: int = 250

    def __post_init__(self) -> None:
        if self.issue_width <= 0:
            raise ValueError("issue_width must be positive")
        if self.int_queue_entries % 2 or self.fp_queue_entries % 2:
            raise ValueError("issue queues must have an even entry count "
                             "(they are split into two thermal halves)")
        if self.num_int_alus % self.num_regfile_copies:
            raise ValueError("integer ALU count must divide evenly across "
                             "register-file copies")
        if self.num_physical_regs < 2 * self.active_list_entries:
            raise ValueError("physical register file too small for the "
                             "active list (rename would deadlock)")


@dataclass(frozen=True)
class ThermalConfig:
    """Package and thermal-management parameters (paper Table 2 / §3).

    ``acceleration`` shrinks all thermal capacitances so that heating
    and cooling dynamics that take milliseconds (millions of cycles at
    4.2 GHz) complete within runs of a few hundred thousand cycles; the
    ratios sensing interval << time constant << run length are
    preserved.  See DESIGN.md §5.
    """

    frequency_hz: float = 4.2e9
    vdd: float = 1.2
    max_temperature_k: float = 358.0
    ambient_k: float = 315.0
    heatsink_thickness_m: float = 6.9e-3
    convection_resistance_k_per_w: float = 0.8
    cooling_time_s: float = 10e-3
    sensor_interval_cycles: int = 250
    toggle_threshold_k: float = 0.5
    #: Hysteresis below the ceiling before a turned-off copy re-enables.
    turnoff_hysteresis_k: float = 0.4
    #: Register-file copies turn off this far below the critical
    #: threshold so writes can continue while the copy cools (paper
    #: 2.3, stale-copy solution 1).
    rf_turnoff_margin_k: float = 0.5
    #: Temporal fallback when spatial techniques cannot help:
    #: "stall" halts the core for the cooling time (Pentium 4 style,
    #: the paper's choice); "throttle" gates the front end and issue on
    #: alternate cycles for twice the cooling time (50% duty cycle),
    #: trading a longer cool-down for continued forward progress.
    temporal_technique: str = "stall"
    acceleration: float = 8_000.0

    def __post_init__(self) -> None:
        if self.max_temperature_k <= self.ambient_k:
            raise ValueError("thermal ceiling must exceed ambient")
        if self.sensor_interval_cycles <= 0:
            raise ValueError("sensor interval must be positive")
        if self.acceleration < 1.0:
            raise ValueError("acceleration must be >= 1")
        if self.temporal_technique not in ("stall", "throttle"):
            raise ValueError("temporal_technique must be 'stall' or "
                             "'throttle'")

    @property
    def cycle_time_s(self) -> float:
        return 1.0 / self.frequency_hz

    @property
    def cooling_cycles(self) -> int:
        """Cycles of a global cooling stall, after acceleration."""
        return max(
            self.sensor_interval_cycles,
            int(round(self.cooling_time_s / (self.cycle_time_s * self.acceleration))),
        )


DEFAULT_PROCESSOR = ProcessorConfig()
DEFAULT_THERMAL = ThermalConfig()


def scaled_thermal(base: ThermalConfig = DEFAULT_THERMAL, **overrides) -> ThermalConfig:
    """Return a copy of ``base`` with the given fields replaced."""
    return replace(base, **overrides)
