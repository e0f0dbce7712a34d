"""Warm-state checkpoints shared across technique variants.

Every run in a paper-figure grid pays the same fixed cost before the
measured region starts: generate the µop stream, warm the caches, run
``warmup_cycles`` unmeasured cycles, and solve for the thermal steady
state.  None of that depends on the DTM technique being evaluated —
techniques only act on sensor samples, and sensors are only read during
measurement — so a grid of N technique variants over one benchmark
repeats identical warm-up work N times.

This module factors that redundancy out.  After warm-up, the simulator
state (processor microarchitectural state, trace position, and the
activity snapshots that reproduce the power/thermal initialization) is
pickled into a content-addressed entry keyed by everything the warm-up
*does* depend on:

* benchmark and seed (the trace),
* :class:`~repro.pipeline.config.ProcessorConfig` and
  :class:`~repro.power.energy.EnergyModel`,
* ``warmup_cycles``,
* the one *warm-relevant* technique field, the round-robin ALU policy
  (it rotates select priority during warm-up) — but **not** the rest
  of :class:`~repro.core.policies.TechniqueConfig`, the floorplan
  variant, thermal constants, ``max_cycles``, or the sanitize flag,
  none of which influence warm state,
* a fingerprint of the ``repro`` source tree.

The register-file port mapping is not in the key either.  It decides
only which copy each ALU read port drains, and nothing in the warm
state depends on it: the register file counts reads per port, and the
port-to-copy fold happens where reads become energy (the restoring
run's :class:`~repro.power.accounting.PowerAccountant` replays the
warm-up power through its own mapping) or metrics.  The three mapping
kinds therefore capture byte-identical blobs and share one checkpoint.

Technique variants that share a key fork from one stored checkpoint
instead of each re-running warm-up; restored runs are bit-identical to
fresh ones (the equivalence test suite enforces this).  The experiment
engine keeps checkpoints exactly when it has a store: one given
explicitly, or the one beside its result cache (so ``REPRO_CACHE=0``
leaves none); manage with ``repro cache info|clear``.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import json
import os
import signal
from contextlib import contextmanager
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path
from typing import TYPE_CHECKING, Any, Iterator, Mapping, Optional, Union

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (runner
    from .runner import SimulationConfig  # imports this module)

#: Format version embedded in every checkpoint payload; bumped whenever
#: the snapshot layout changes so stale entries are rejected, not
#: misinterpreted.
CHECKPOINT_VERSION = 4  # v4: only the counters something reads


class CheckpointError(RuntimeError):
    """A checkpoint cannot be captured or restored.

    Restore paths treat this as "fall back to a fresh warm-up", never
    as a fatal error: a corrupt or stale entry must not break a run.
    """


# ---------------------------------------------------------------------------
# stable content hashing (shared with the result cache in .parallel)
# ---------------------------------------------------------------------------

@lru_cache(maxsize=1)
def code_fingerprint() -> str:
    """SHA-256 over every ``repro`` source file (path + contents).

    Part of every cache and checkpoint key: editing any module
    invalidates all entries, which is coarse but can never serve a
    stale simulation.
    """
    digest = hashlib.sha256()
    root = Path(__file__).resolve().parents[1]
    for path in sorted(root.rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode())
        digest.update(b"\0")
        digest.update(path.read_bytes())
        digest.update(b"\0")
    return digest.hexdigest()


def _stable(obj: Any) -> Any:
    """Recursively convert ``obj`` to a JSON-serializable form whose
    text rendering is stable across processes and sessions."""
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return [type(obj).__name__,
                {f.name: _stable(getattr(obj, f.name))
                 for f in dataclasses.fields(obj)}]
    if isinstance(obj, enum.Enum):
        return [type(obj).__name__, obj.name]
    if isinstance(obj, Mapping):
        return {str(key): _stable(value)
                for key, value in sorted(obj.items(),
                                         key=lambda kv: str(kv[0]))}
    if isinstance(obj, (list, tuple)):
        return [_stable(value) for value in obj]
    if obj is None or isinstance(obj, (str, int, float, bool)):
        return obj
    raise TypeError(f"cannot build a stable key from {type(obj).__name__}")


def checkpoint_key(config: "SimulationConfig",
                   fingerprint: Optional[str] = None) -> str:
    """Content hash of everything the post-warm-up state depends on.

    Deliberately *excludes* the floorplan variant, thermal constants,
    ``max_cycles``, the technique label, the sanitize and
    ``trace_events`` flags, and every technique field that only acts
    on sensor samples — so all technique variants of one (benchmark,
    seed, processor, energy, warmup) cell share a single checkpoint
    (and traced runs reuse untraced warm state).  The one technique
    field that *does* shape warm state is included: round-robin ALU
    selection (rotates grant priority from cycle 0).  The register-file
    mapping kind is not: reads are counted per ALU read port, so the
    warm state is the same for every mapping.
    """
    payload = {
        "kind": "warm-checkpoint",
        "version": CHECKPOINT_VERSION,
        "benchmark": config.benchmark,
        "seed": config.seed,
        "warmup_cycles": config.warmup_cycles,
        "processor": _stable(config.processor),
        "energy": _stable(config.energy),
        "warm_techniques": {
            "round_robin_alus": config.techniques.round_robin_alus,
        },
        "code": code_fingerprint() if fingerprint is None else fingerprint,
    }
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


# ---------------------------------------------------------------------------
# on-disk blob store
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CacheInfo:
    """Summary of one cache directory."""

    root: str
    entries: int
    size_bytes: int


def clear_store(root: Path) -> int:
    """Empty a ``<root>/<key[:2]>/<key>.pkl`` store (results or
    checkpoints); returns the number of entries removed.

    Also removes the ``<key>.pkl.tmp<pid>`` file a writer killed
    between its temp write and :func:`os.replace` leaves behind, which
    would otherwise keep its bucket directory alive.
    """
    removed = 0
    if not root.is_dir():
        return removed
    for pattern in ("??/*.pkl", "??/*.tmp*"):
        for path in root.glob(pattern):
            try:
                path.unlink()
            except OSError:
                continue
            if pattern == "??/*.pkl":
                removed += 1
    for bucket in root.glob("??"):
        try:
            bucket.rmdir()
        except OSError:
            pass
    return removed


#: Length of the SHA-256 digest heading every stored result and
#: checkpoint entry.
_DIGEST_SIZE = hashlib.sha256().digest_size


def read_entry(path: Path) -> Optional[bytes]:
    """The payload :func:`write_entry` stored at ``path``, or ``None``
    when the entry is missing, unreadable, or does not match the
    SHA-256 digest stored ahead of it (a short entry never does)."""
    try:
        data = path.read_bytes()
    except OSError:
        return None
    payload = data[_DIGEST_SIZE:]
    if hashlib.sha256(payload).digest() != data[:_DIGEST_SIZE]:
        return None
    return payload


@contextmanager
def _sigterm_deferred() -> Iterator[None]:
    """Hold ``SIGTERM`` off this thread until the block exits (where
    the platform can); a pending one then ends the process."""
    if not hasattr(signal, "pthread_sigmask"):
        yield
        return
    previous = signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGTERM})
    try:
        yield
    finally:
        signal.pthread_sigmask(signal.SIG_SETMASK, previous)


def write_entry(path: Path, payload: bytes) -> None:
    """Store ``payload`` at ``path`` behind its SHA-256 digest.

    Writes go through a temp file and :func:`os.replace`, so a
    concurrent reader never sees a torn entry; a failed write is
    skipped.  ``SIGTERM`` waits until the write is done: a process
    pool terminates its other workers when one dies, and a worker
    caught between the temp write and the replace would leave the
    temp file behind.
    """
    tmp = path.with_name(f"{path.name}.tmp{os.getpid()}")
    with _sigterm_deferred():
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            with open(tmp, "wb") as handle:
                handle.write(hashlib.sha256(payload).digest())
                handle.write(payload)
            os.replace(tmp, path)
        except OSError:
            tmp.unlink(missing_ok=True)


def store_info(root: Path) -> CacheInfo:
    """Entry count and size of a store emptied by :func:`clear_store`."""
    entries = 0
    size = 0
    if root.is_dir():
        for path in root.glob("??/*.pkl"):
            try:
                size += path.stat().st_size
                entries += 1
            except OSError:
                pass
    return CacheInfo(root=str(root), entries=entries, size_bytes=size)


def default_checkpoint_root() -> Path:
    """``<result-cache-root>/checkpoints`` so ``repro cache`` commands
    manage results and checkpoints under one directory."""
    base = os.environ.get("REPRO_CACHE_DIR") or ".repro-cache"
    return Path(base) / "checkpoints"


class CheckpointStore:
    """Content-addressed store of warm-state blobs.

    Deliberately a *bytes* store: :class:`~repro.sim.runner.Simulator`
    owns the pickle format, and every restore deserializes the blob
    afresh so two runs forked from one checkpoint can never share (and
    mutate) the same live objects.  Entries live at
    ``<root>/<key[:2]>/<key>.pkl`` behind a digest of their payload
    (:func:`write_entry`).  All operations are best-effort: an
    unreadable or corrupt entry is a miss, a failed write is skipped.
    """

    def __init__(self, root: Union[str, Path, None] = None) -> None:
        self.root = default_checkpoint_root() if root is None else Path(root)

    def _path(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.pkl"

    def has(self, key: str) -> bool:
        return self._path(key).is_file()

    def get(self, key: str) -> Optional[bytes]:
        return read_entry(self._path(key))

    def put(self, key: str, blob: bytes) -> None:
        write_entry(self._path(key), blob)

    def clear(self) -> int:
        """Delete every checkpoint; returns the number removed."""
        return clear_store(self.root)

    def info(self) -> CacheInfo:
        return store_info(self.root)
