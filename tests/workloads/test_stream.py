"""The synthetic micro-op stream is pinned.

Every simulated result depends on the exact op stream, so the stream
is locked by SHA-256 digests of its first 50k ops for a spread of
profiles: bursty (the SPEC profiles, whose phases flip every 12k-22k
ops) and steady, integer and FP mixes, low and high dependency means,
memory-light and memory-heavy.  The digests were computed with the
per-op generator that :meth:`SyntheticWorkload.generate_block`
replaced, so they also prove the block generator reproduces it.
"""

import hashlib
from itertools import islice

import pytest

from repro.pipeline.isa import OpClass
from repro.workloads.generator import SyntheticWorkload, WorkloadProfile
from repro.workloads.spec2000 import workload

N_OPS = 50_000

STEADY_INT = WorkloadProfile(
    "steady-int", {OpClass.INT_ALU: 0.5, OpClass.INT_MUL: 0.05,
                   OpClass.LOAD: 0.25, OpClass.STORE: 0.08,
                   OpClass.BRANCH: 0.12},
    dep_mean=3.0, l1_miss=0.1, l2_frac=0.3, mispredict_rate=0.07,
    independent_frac=0.25)
#: ``dep_mean`` 1 always picks the latest destination (no distance
#: draw).
STEADY_FP = WorkloadProfile(
    "steady-fp", {OpClass.INT_ALU: 0.2, OpClass.LOAD: 0.25,
                  OpClass.STORE: 0.1, OpClass.BRANCH: 0.05,
                  OpClass.FP_ADD: 0.27, OpClass.FP_MUL: 0.13},
    dep_mean=1.0, l1_miss=0.2, l2_frac=0.5, mispredict_rate=0.02,
    independent_frac=0.1)

#: (source, seed) -> SHA-256 of the first N_OPS ops, and the next
#: ``rng.random()`` after them.
PINNED = {
    ("gzip", 1): ("2bc061d9d642a80d209ad8ab2f1adea7"
                  "cb43e3647f8611f416bf556dc6869bb6", 0.6718311623368098),
    ("mesa", 3): ("e8e4051d5a9531d43db8618f366e099e"
                  "4ecb7e8193f8cbbe7a8c5eb710e90d11", 0.555522271221694),
    ("mcf", 2): ("23f8e468894a1b468a66bc258e769134"
                 "f0192f9b397d07ce29afaf65b6da2684", 0.8237351959098878),
    ("facerec", 5): ("aaa7f0863259cdb7e0f912f285dbc4c2"
                     "c3d0f29af59e7a286e5998cf00c37a89", 0.818613340985084),
    ("bzip", 7): ("b4265035575af4b86c519170923a3577"
                  "66187ce05dffeade5dc04404294335fd", 0.9926821189097863),
    ("art", 11): ("41bd314e8ae1c7314bf74ce7c99d5b81"
                  "bade8cd795a2a8965c9949de4b296482", 0.49084315529861844),
    ("steady-int", 1): ("54ea4671bb2671c87dff12fd3b1757e5"
                        "905595820b396074ddcf650dbc290212",
                        0.9599745406691341),
    ("steady-fp", 2): ("d361c194f209599677303a4e7d9b42af"
                       "306c5fa676c603cbba000c6731c64466",
                       0.03948283584960055),
}


def source(name, seed):
    profile = {"steady-int": STEADY_INT, "steady-fp": STEADY_FP}.get(name)
    if profile is None:
        return workload(name, seed)
    return SyntheticWorkload(profile, seed)


def digest(ops):
    h = hashlib.sha256()
    for op in ops:
        h.update(f"{op.seq},{op.opclass.value},{op.dst},{op.src1},"
                 f"{op.src2},{op.mem_addr},{op.taken:d},"
                 f"{op.mispredicted:d},{op.pc}\n".encode())
    return h.hexdigest()


def fields(gen):
    """Every piece of generator state the stream depends on."""
    return (gen._rng.getstate(), list(gen._recent_int),
            list(gen._recent_fp), gen._next_int_dst, gen._next_fp_dst,
            gen._seq, gen._phase_left, gen._in_burst, gen._stream_addr)


@pytest.mark.parametrize("name,seed", sorted(PINNED))
def test_stream_matches_pinned_digest(name, seed):
    gen = source(name, seed)
    expected, next_draw = PINNED[(name, seed)]
    assert digest(gen.generate_block(N_OPS)) == expected
    assert gen._rng.random() == next_draw


@pytest.mark.parametrize("name,seed", [("gzip", 1), ("steady-fp", 2)])
def test_any_split_gives_the_same_stream(name, seed):
    """generate(), take() and odd-sized blocks, interleaved, yield the
    ops and leave the state of one big block."""
    whole = source(name, seed)
    expected = whole.generate_block(N_OPS)
    pieces = source(name, seed)
    ops = []
    sizes = [1, 7, 256, 3, 1023, 1, 4999, 2, 13]
    turn = 0
    while len(ops) < N_OPS:
        left = N_OPS - len(ops)
        size = min(sizes[turn % len(sizes)], left)
        kind = turn % 3
        if kind == 0:
            ops.extend(pieces.generate_block(size))
        elif kind == 1:
            ops.extend(pieces.take(size))
        else:
            ops.extend(pieces.generate() for _ in range(size))
        turn += 1
    assert digest(ops) == digest(expected)
    assert fields(pieces) == fields(whole)


def test_iterator_protocol_is_the_same_stream():
    ops = list(islice(source("mesa", 3), 2_000))
    assert digest(ops) == digest(source("mesa", 3).generate_block(2_000))


def test_take_is_lazy_until_iterated():
    gen = source("gzip", 1)
    before = fields(gen)
    pending = gen.take(10)
    assert fields(gen) == before
    assert len(list(pending)) == 10
