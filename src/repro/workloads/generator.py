"""Synthetic workload generation.

A :class:`WorkloadProfile` describes a program's *regime* — instruction
mix, instruction-level parallelism (as a mean register-dependency
distance), burstiness (alternating calm/burst phases with different
ILP), memory locality (probabilities of leaving the L1/L2 working
sets), and branch predictability.  :class:`SyntheticWorkload` expands a
profile into an endless, reproducible stream of
:class:`~repro.pipeline.isa.MicroOp` records.

This substitutes for the paper's SPEC2000 binaries (DESIGN.md §2): the
power-density phenomena under study depend on *activity rates and
their asymmetry* in the back end, which these streams reproduce, not
on program semantics.
"""

from __future__ import annotations

import math
import random
import zlib
from bisect import bisect
from collections import deque
from itertools import accumulate
from dataclasses import dataclass, field
from typing import Deque, Dict, Iterator, List

from ..pipeline.isa import MicroOp, OpClass

#: Op classes a profile mix may mention, in canonical order.
MIX_CLASSES = (OpClass.INT_ALU, OpClass.INT_MUL, OpClass.LOAD,
               OpClass.STORE, OpClass.BRANCH, OpClass.FP_ADD,
               OpClass.FP_MUL)

_HOT_POOL_BYTES = 16 * 1024        # comfortably inside the 64 KB L1
_WARM_POOL_BYTES = 1024 * 1024     # inside the 2 MB L2, far beyond L1
_LINE = 64
_HOT_LINES = _HOT_POOL_BYTES // _LINE
_WARM_LINES = _WARM_POOL_BYTES // _LINE

_LOAD = OpClass.LOAD
_STORE = OpClass.STORE
_BRANCH = OpClass.BRANCH
_FP_ADD = OpClass.FP_ADD
_FP_MUL = OpClass.FP_MUL


@dataclass(frozen=True)
class WorkloadProfile:
    """Statistical description of one benchmark's behaviour."""

    name: str
    #: Fractions per op class (same order as MIX_CLASSES); must sum to 1.
    mix: Dict[OpClass, float]
    #: Mean register-dependency distance outside bursts (higher = more ILP).
    dep_mean: float = 4.0
    #: Mean dependency distance inside bursts (0 disables bursts).
    burst_dep_mean: float = 0.0
    #: Burst / calm phase lengths, in instructions.
    burst_len: int = 0
    calm_len: int = 0
    #: Probability a load leaves the L1 working set.
    l1_miss: float = 0.03
    #: Of those, probability it also leaves the L2 working set.
    l2_frac: float = 0.1
    #: Branch mispredict probability.
    mispredict_rate: float = 0.05
    #: Probability an op carries no register dependences at all (its
    #: inputs are immediates or long-retired values).  Independent ops
    #: become ready the moment they dispatch, which scatters issue
    #: positions through the queue instead of concentrating them at
    #: the head.
    independent_frac: float = 0.2

    def __post_init__(self) -> None:
        total = sum(self.mix.values())
        if abs(total - 1.0) > 1e-6:
            raise ValueError(f"{self.name}: mix sums to {total}, not 1")
        for opclass in self.mix:
            if opclass not in MIX_CLASSES:
                raise ValueError(f"{self.name}: {opclass} not permitted")
        if self.dep_mean < 1.0:
            raise ValueError("dep_mean must be >= 1")
        if not 0.0 <= self.l1_miss <= 1.0 or not 0.0 <= self.l2_frac <= 1.0:
            raise ValueError("miss fractions must be probabilities")
        if not 0.0 <= self.mispredict_rate <= 1.0:
            raise ValueError("mispredict_rate must be a probability")
        if not 0.0 <= self.independent_frac <= 1.0:
            raise ValueError("independent_frac must be a probability")
        if (self.burst_len > 0) != (self.calm_len > 0):
            raise ValueError("burst_len and calm_len must both be set "
                             "or both be zero")
        if self.burst_len > 0 and self.burst_dep_mean < 1.0:
            raise ValueError("bursty profiles need burst_dep_mean >= 1")

    @property
    def bursty(self) -> bool:
        return self.burst_len > 0

    @property
    def fp_fraction(self) -> float:
        return (self.mix.get(OpClass.FP_ADD, 0.0)
                + self.mix.get(OpClass.FP_MUL, 0.0))


class SyntheticWorkload:
    """Reproducible micro-op stream for one profile."""

    def __init__(self, profile: WorkloadProfile, seed: int = 1) -> None:
        self.profile = profile
        self.seed = seed
        # zlib.crc32 is stable across processes (unlike hash(), which
        # is salted), so identical (profile, seed) pairs always yield
        # identical streams.
        self._rng = random.Random(
            (zlib.crc32(profile.name.encode()) ^ seed) & 0xFFFFFFFF)
        self._classes = list(profile.mix.keys())
        self._weights = [profile.mix[c] for c in self._classes]
        # Precomputed inverse-CDF tables for the per-op class draw.
        # Sampling via bisect over the cumulative weights consumes the
        # same single rng.random() call as random.choices() and picks
        # the same class, so streams are bit-identical to the choices()
        # implementation while skipping its per-call accumulation.
        self._cum_weights = list(accumulate(self._weights))
        self._cum_total = self._cum_weights[-1] + 0.0
        self._hi = len(self._classes) - 1
        # Hot-loop caches of immutable profile fields, plus the
        # geometric-sampling log denominator per dependency mean
        # (log(1 - 1/mean) is deterministic, so hoisting it out of the
        # per-op source pick leaves the sampled distances
        # bit-identical).
        self._independent_frac = profile.independent_frac
        self._l1_miss = profile.l1_miss
        self._l2_frac = profile.l2_frac
        self._mispredict_rate = profile.mispredict_rate
        self._calm_log_denom = (
            math.log(1.0 - 1.0 / profile.dep_mean)
            if profile.dep_mean > 1.0 else 0.0)
        self._burst_log_denom = (
            math.log(1.0 - 1.0 / profile.burst_dep_mean)
            if profile.burst_dep_mean > 1.0 else 0.0)
        self._recent_int: Deque[int] = deque(maxlen=64)
        self._recent_fp: Deque[int] = deque(maxlen=64)
        self._next_int_dst = 1
        self._next_fp_dst = 1
        self._seq = 0
        self._phase_left = profile.calm_len if profile.bursty else 0
        self._in_burst = False
        self._stream_addr = 256 * 1024 * 1024  # cold streaming region

    def __iter__(self) -> Iterator[MicroOp]:
        return self

    def __next__(self) -> MicroOp:
        return self.generate()

    # ------------------------------------------------------------------
    def generate(self) -> MicroOp:
        """Produce the next micro-op."""
        return self.generate_block(1)[0]

    def take(self, count: int) -> Iterator[MicroOp]:
        """Yield exactly ``count`` micro-ops (generated as one block
        when iteration starts)."""
        yield from self.generate_block(count)

    def generate_block(self, count: int) -> List[MicroOp]:
        """The next ``count`` micro-ops of the stream, in order.

        This is the stream's only implementation: :meth:`generate` is a
        block of one.  The per-op steps (phase advance, class draw,
        source picks, destination allocation, address draw) are
        inlined and every generator field lives in a local for the
        block and is stored back at the end, so any split of the stream
        into blocks yields the same ops and leaves the same state.
        """
        rng = self._rng
        draw = rng.random
        randrange = rng.randrange
        log = math.log
        classes = self._classes
        cum_weights = self._cum_weights
        cum_total = self._cum_total
        hi = self._hi
        independent = self._independent_frac
        l1_miss = self._l1_miss
        l2_frac = self._l2_frac
        mispredict = self._mispredict_rate
        recent_int = self._recent_int
        recent_fp = self._recent_fp
        next_int = self._next_int_dst
        next_fp = self._next_fp_dst
        seq = self._seq
        stream_addr = self._stream_addr
        profile = self.profile
        bursty = profile.bursty
        burst_len = profile.burst_len
        calm_len = profile.calm_len
        in_burst = self._in_burst
        phase_left = self._phase_left
        # Per phase: (dependency mean <= 1, so always the last
        # destination; log denominator of the geometric distance).
        phase_dep = ((profile.dep_mean <= 1.0, self._calm_log_denom),
                     (profile.burst_dep_mean <= 1.0, self._burst_log_denom))
        last_only, log_denom = phase_dep[in_burst]
        ops: List[MicroOp] = []
        append = ops.append
        for _ in range(count):
            if bursty:
                if phase_left <= 0:
                    in_burst = not in_burst
                    phase_left = burst_len if in_burst else calm_len
                    last_only, log_denom = phase_dep[in_burst]
                phase_left -= 1
            opclass = classes[bisect(cum_weights, draw() * cum_total,
                                     0, hi)]
            fp = opclass is _FP_ADD or opclass is _FP_MUL
            recent = recent_fp if fp else recent_int
            # Source operands: none with probability ``independent``,
            # else a recent destination at a geometric distance P(d) ~
            # (1-p)^(d-1) p with mean 1/p, sampled in closed form by
            # inversion and clamped to the history length.
            if draw() < independent:
                src1 = None
            elif not recent:
                src1 = 1
            elif last_only:
                src1 = recent[-1]
            else:
                distance = 1 + int(log(draw()) / log_denom)
                size = len(recent)
                src1 = recent[-distance if distance < size else -size]
            if opclass is _LOAD or opclass is _BRANCH:
                src2 = None
            elif draw() < independent:
                src2 = None
            elif not recent:
                src2 = 1
            elif last_only:
                src2 = recent[-1]
            else:
                distance = 1 + int(log(draw()) / log_denom)
                size = len(recent)
                src2 = recent[-distance if distance < size else -size]
            if opclass is _BRANCH:
                taken = draw() < 0.6
                append(MicroOp(seq, opclass, None, src1, None, None, taken,
                               draw() < mispredict, seq & 0xFFFF))
                seq += 1
                continue
            if opclass is _STORE:
                dst = None
            elif fp:
                dst = next_fp
                next_fp = dst % 30 + 1
                recent_fp.append(dst)
            else:
                dst = next_int
                next_int = dst % 30 + 1
                recent_int.append(dst)
            if opclass is _LOAD or opclass is _STORE:
                if draw() >= l1_miss:
                    mem_addr = randrange(_HOT_LINES) * _LINE
                elif draw() >= l2_frac:
                    mem_addr = (_HOT_POOL_BYTES
                                + randrange(_WARM_LINES) * _LINE)
                else:
                    # The cold streaming region is never revisited:
                    # a guaranteed miss.
                    stream_addr += _LINE
                    mem_addr = stream_addr
            else:
                mem_addr = None
            append(MicroOp(seq, opclass, dst, src1, src2, mem_addr, False,
                           False, seq & 0xFFFF))
            seq += 1
        self._next_int_dst = next_int
        self._next_fp_dst = next_fp
        self._seq = seq
        self._stream_addr = stream_addr
        self._in_burst = in_burst
        self._phase_left = phase_left
        return ops

    # ------------------------------------------------------------------
    def warm_footprint(self):
        """(L1 addresses, L2 addresses) for cache warm-up before a
        timed run — the hot pool belongs in the L1, the warm pool in
        the L2 (the cold streaming region is compulsory-miss by
        design and cannot be warmed)."""
        l1 = range(0, _HOT_POOL_BYTES, _LINE)
        l2 = range(_HOT_POOL_BYTES, _HOT_POOL_BYTES + _WARM_POOL_BYTES,
                   _LINE)
        return l1, l2

    @property
    def in_burst(self) -> bool:
        return self._in_burst
