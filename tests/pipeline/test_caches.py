"""Tests for the cache hierarchy."""

import pytest

from repro.pipeline.caches import Cache, MemoryHierarchy
from repro.pipeline.config import CacheConfig, ProcessorConfig


def small_cache(size=1024, assoc=2, latency=2, block=64):
    return Cache(CacheConfig(size, assoc, latency, block))


class TestCache:
    def test_first_access_misses(self):
        cache = small_cache()
        assert cache.access(0) is False
        assert cache.access(0) is True

    def test_block_granularity(self):
        cache = small_cache()
        cache.access(0)
        assert cache.access(63) is True   # same 64B line
        assert cache.access(64) is False  # next line

    def test_lru_eviction(self):
        cache = small_cache(size=256, assoc=2, block=64)  # 2 sets
        n_sets = cache.config.n_sets
        stride = n_sets * 64  # same-set addresses
        cache.access(0)
        cache.access(stride)
        cache.access(2 * stride)  # evicts address 0
        assert cache.access(0) is False

    def test_lru_updated_on_hit(self):
        cache = small_cache(size=256, assoc=2, block=64)
        stride = cache.config.n_sets * 64
        cache.access(0)
        cache.access(stride)
        cache.access(0)           # refresh 0
        cache.access(2 * stride)  # evicts stride, not 0
        assert cache.access(0) is True

    def test_probe_does_not_touch_state(self):
        cache = small_cache()
        cache.access(0)
        before = cache.stats.accesses
        assert cache.probe(0) is True
        assert cache.probe(4096) is False
        assert cache.stats.accesses == before

    def test_negative_address_rejected(self):
        with pytest.raises(ValueError):
            small_cache().access(-1)

    def test_miss_rate(self):
        cache = small_cache()
        cache.access(0)
        cache.access(0)
        assert cache.stats.miss_rate == pytest.approx(0.5)

    def test_flush(self):
        cache = small_cache()
        cache.access(0)
        cache.flush()
        assert cache.probe(0) is False

    def test_config_validation(self):
        with pytest.raises(ValueError):
            CacheConfig(1024, 3, 2)  # 16 blocks not divisible by 3


class TestMemoryHierarchy:
    def test_l1_hit_latency(self):
        mem = MemoryHierarchy(ProcessorConfig())
        mem.load_latency(0)
        assert mem.load_latency(0) == 2

    def test_l2_hit_latency(self):
        cfg = ProcessorConfig()
        mem = MemoryHierarchy(cfg)
        mem.l2.access(0)  # warm only the L2
        assert mem.load_latency(0) == cfg.l1d.latency + cfg.l2.latency

    def test_memory_latency(self):
        cfg = ProcessorConfig()
        mem = MemoryHierarchy(cfg)
        assert mem.load_latency(0) == (cfg.l1d.latency + cfg.l2.latency
                                       + cfg.memory_latency)

    def test_warm_resets_stats(self):
        mem = MemoryHierarchy(ProcessorConfig())
        mem.warm(l1_addresses=range(0, 4096, 64))
        assert mem.l1d.stats.accesses == 0
        assert mem.load_latency(0) == 2  # warmed line hits

    def test_store_allocates(self):
        mem = MemoryHierarchy(ProcessorConfig())
        mem.store(128)
        assert mem.l1d.probe(128)
        assert mem.l1d.stats.accesses == 1
