"""LLC controller tests: hits, misses, write-back, locking and hazards."""

import pytest

from repro.cache.address_table import OperandKind
from repro.cache.line import LineRole
from repro.mem.memory import MainMemoryError
from repro.sim.kernel import Simulator


class TestHitMiss:
    def test_miss_then_hit(self, cache):
        cache.memory.write_u32(0x100, 0xCAFEBABE)
        assert cache.read(0x100) == 0xCAFEBABE
        assert cache.stats.value("llc.misses") == 1
        assert cache.read(0x100) == 0xCAFEBABE
        assert cache.stats.value("llc.hits") == 1

    def test_hit_is_single_cycle(self, cache):
        cache.read(0x100)  # miss fills the line
        before = cache.sim.now
        cache.read(0x104)  # same line
        assert cache.sim.now - before == 1  # paper III-A.1

    def test_miss_pays_offchip_fill(self, cache):
        start = cache.sim.now
        cache.read(0x100)
        fill = cache.bus.transfer_cycles(cache.ct.line_bytes, offchip=True)
        assert cache.sim.now - start == fill  # data forwarded as the fill completes

    def test_write_sets_dirty(self, cache):
        cache.write(0x100, 42)
        line = cache.ct.lookup(0x100)
        assert line.dirty
        assert cache.memory.read_u32(0x100) == 0  # write-back policy: not yet in memory

    def test_dirty_eviction_writes_back(self, cache):
        # fill all 8 lines with writes, then stream reads to force evictions
        for i in range(cache.ct.n_lines):
            cache.write(0x1000 + i * 64, i + 1)
        for i in range(cache.ct.n_lines):
            cache.read(0x8000 + i * 64)
        assert cache.stats.value("llc.writebacks") > 0
        assert cache.memory.read_u32(0x1000) == 1  # landed in memory

    def test_sub_word_accesses(self, cache):
        cache.write(0x200, 0xAB, size=1)
        cache.write(0x202, 0x1234, size=2)
        assert cache.read(0x200, size=1) == 0xAB
        assert cache.read(0x202, size=2) == 0x1234

    def test_misaligned_rejected(self, cache):
        with pytest.raises(ValueError, match="misaligned"):
            cache.read(0x101, 4)

    def test_bad_size_rejected(self, cache):
        with pytest.raises(ValueError):
            cache.read(0x100, 3)


class TestLocking:
    def test_lock_blocks_host(self, cache):
        sim = cache.sim
        sim.run_process(cache.controller.acquire_lock("ecpu"))
        log = []

        def host():
            value = yield from cache.controller.host_read(0x100, 4)
            log.append(sim.now)
            return value

        def ecpu():
            yield 50
            cache.controller.release_lock("ecpu")

        sim.process(host())
        sim.process(ecpu())
        sim.run()
        assert log and log[0] >= 50
        assert cache.stats.value("llc.host_lock_stalls") >= 1

    def test_lock_not_granted_during_host_op(self, cache):
        sim = cache.sim
        order = []

        def host():
            yield from cache.controller.host_read(0x100, 4)  # slow miss
            order.append(("host_done", sim.now))

        def ecpu():
            yield 1  # arrive while the host miss is in flight
            yield from cache.controller.acquire_lock("ecpu")
            order.append(("lock", sim.now))
            cache.controller.release_lock("ecpu")

        sim.process(host())
        sim.process(ecpu())
        sim.run()
        assert order[0][0] == "host_done"  # paper III-A.2: C-RT stalls

    def test_release_requires_holder(self, cache):
        with pytest.raises(RuntimeError):
            cache.controller.release_lock("ecpu")


class TestHazards:
    def test_war_store_blocks_until_source_release(self, cache):
        sim = cache.sim
        entry = cache.at.register(0x100, 0x140, OperandKind.SOURCE, matrix_id=5)
        done = []

        def host():
            yield from cache.controller.host_write(0x104, 7, 4)
            done.append(sim.now)

        def release():
            yield 200
            cache.at.release(5)

        sim.process(host())
        sim.process(release())
        sim.run()
        assert done[0] >= 200
        assert cache.stats.value("llc.hazard_war_stalls") >= 1

    def test_source_reads_never_stall(self, cache):
        cache.at.register(0x100, 0x140, OperandKind.SOURCE, matrix_id=5)
        cache.read(0x104)  # completes without a release
        assert cache.stats.value("llc.hazard_war_stalls") == 0

    def test_raw_load_blocks_on_dest(self, cache):
        sim = cache.sim
        cache.at.register(0x200, 0x240, OperandKind.DEST, matrix_id=6)
        done = []

        def host():
            value = yield from cache.controller.host_read(0x200, 4)
            done.append((sim.now, value))

        def writer():
            yield 100
            cache.controller.poke(0x200, (99).to_bytes(4, "little"))
            cache.at.release(6)

        sim.process(host())
        sim.process(writer())
        sim.run()
        assert done[0][0] >= 100
        assert done[0][1] == 99  # host observed the post-release data
        assert cache.stats.value("llc.hazard_raw_stalls") >= 1

    def test_waw_store_blocks_on_dest(self, cache):
        sim = cache.sim
        cache.at.register(0x200, 0x240, OperandKind.DEST, matrix_id=6)
        done = []

        def host():
            yield from cache.controller.host_write(0x200, 1, 4)
            done.append(sim.now)

        def release():
            yield 60
            cache.at.release(6)

        sim.process(host())
        sim.process(release())
        sim.run()
        assert done[0] >= 60
        assert cache.stats.value("llc.hazard_waw_stalls") >= 1

    def test_non_operand_traffic_flows_during_kernel(self, cache):
        cache.at.register(0x100, 0x140, OperandKind.DEST, matrix_id=1)
        start = cache.sim.now
        cache.read(0x4000)  # unrelated address: proceeds (fill + hit)
        assert cache.sim.now - start < 100


class TestRouting:
    def test_route_read_prefers_cache(self, cache):
        cache.memory.write_u32(0x100, 1)
        cache.write(0x100, 2)  # cached dirty copy
        value = int.from_bytes(cache.controller.route_read(0x100, 4), "little")
        assert value == 2

    def test_route_read_falls_back_to_memory(self, cache):
        cache.memory.write_u32(0x500, 77)
        assert int.from_bytes(cache.controller.route_read(0x500, 4), "little") == 77

    def test_route_read_spans_lines(self, cache):
        cache.memory.write_block(0x0, bytes(range(128)))
        cache.read(0x0)  # cache the first line only
        data = cache.controller.route_read(0x20, 64)  # crosses 64B boundary
        assert data == bytes(range(0x20, 0x60))

    def test_uncached_row_is_a_view_of_memory(self, cache):
        cache.memory.write_block(0x420, bytes(range(64)))  # spans two lines
        data = cache.controller.route_read(0x420, 64)
        assert bytes(data) == cache.memory.read_block(0x420, 64)
        assert memoryview(data).readonly
        assert cache.ct.lookup(0x420) is None  # reading allocated nothing

    def test_partly_cached_row_returns_the_dirty_cache_bytes(self, cache):
        cache.memory.write_block(0x600, bytes(range(128)))
        cache.write(0x644, 0xDEADBEEF)  # dirty line over the row's tail
        data = cache.controller.route_read(0x620, 64)
        expected = bytearray(range(0x20, 0x60))
        expected[0x24:0x28] = (0xDEADBEEF).to_bytes(4, "little")
        assert bytes(data) == bytes(expected)
        assert cache.memory.read_block(0x644, 4) != bytes(expected[0x24:0x28])

    def test_out_of_range_row_raises(self, cache):
        end = cache.memory.size
        with pytest.raises(MainMemoryError):
            cache.controller.route_read(end - 8, 16)
        with pytest.raises(MainMemoryError):
            cache.controller.route_read(end + 64, 4)

    def test_peek_returns_bytes(self, cache):
        cache.memory.write_block(0x700, bytes(range(8)))
        assert cache.controller.peek(0x700, 8) == bytes(range(8))
        assert type(cache.controller.peek(0x700, 8)) is bytes
        cache.read(0x700)  # now cached: the assembled path
        assert type(cache.controller.peek(0x700, 8)) is bytes

    def test_route_write_fetch_on_write(self, cache):
        cache.memory.write_block(0x300, bytes(range(64)))
        cache.controller.route_write(0x308, b"\xAA\xBB")
        line = cache.ct.lookup(0x308)
        assert line is not None and line.dirty  # landed in cache (III-A.4)
        data = cache.controller.route_read(0x300, 16)
        assert data[8] == 0xAA and data[9] == 0xBB
        assert data[0] == 0  # untouched bytes preserved by the fetch

    def test_set_and_clear_region_roles(self, cache):
        cache.read(0x100)
        marked = cache.controller.set_role_for_region(0x100, 0x140, LineRole.SOURCE)
        assert marked == 1
        assert cache.ct.lookup(0x100).role is LineRole.SOURCE
        cleared = cache.controller.clear_roles_for_region(0x100, 0x140)
        assert cleared == 1
        assert cache.ct.lookup(0x100).role is LineRole.NONE

    def test_flush(self, cache):
        cache.write(0x100, 123)
        assert cache.controller.flush() == 1
        assert cache.memory.read_u32(0x100) == 123

    def test_refill_restores_operand_role(self, cache):
        # a line belonging to a registered region regains its marker on refill
        cache.at.register(0x100, 0x140, OperandKind.SOURCE, matrix_id=3)
        cache.read(0x100)  # miss -> fill; covered by AT -> marked SOURCE
        assert cache.ct.lookup(0x100).role is LineRole.SOURCE
