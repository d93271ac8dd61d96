"""Wire-built batches through routing and fan-out.

A wire batch carries each row's frame and path id instead of parsed
contexts, so ``select`` (the shard router) and ``slice_view`` (the
parallel engine's ``split_batch``) must carry those columns too.  Both
engines, fed ``iter_packet_batches`` of a catalog scenario, must emit the
digests the scalar ``Stat4.process`` loop emits over the same frames, bit
for bit.
"""

import pytest

from repro.cluster import ShardedStat4
from repro.p4.errors import ParseError
from repro.p4.packet import Packet
from repro.p4.parser import standard_parser
from repro.p4.switch import PacketContext, StandardMetadata
from repro.scenarios.catalog import build_scenario
from repro.stat4 import HAS_NUMPY, Stat4, Stat4Runtime
from repro.stat4.parallel import ParallelBatchEngine, split_batch

BATCH = 512


@pytest.fixture(scope="module")
def scenario():
    return build_scenario("port_scan")


def scalar_contexts(scenario):
    parser = standard_parser()
    contexts = []
    for record in scenario.trace:
        try:
            parsed = parser.parse(Packet(record.data))
        except ParseError:
            continue
        ctx = PacketContext(
            parsed=parsed, meta=StandardMetadata(ingress_port=0, timestamp=record.timestamp)
        )
        ctx.user["frame_bytes"] = len(record.data)
        contexts.append(ctx)
    return contexts


def bound_stat4(scenario):
    stat4 = Stat4(scenario.config)
    runtime = Stat4Runtime(stat4)
    for stage, match, spec in scenario.bindings:
        runtime.bind(stage, match, spec)
    return stat4


def wire_batches(scenario):
    return scenario.trace.iter_packet_batches(standard_parser(), BATCH)


@pytest.mark.skipif(not HAS_NUMPY, reason="process fan-out ships numpy columns")
def test_process_pool_matches_scalar(scenario):
    reference = bound_stat4(scenario)
    expected = []
    for ctx in scalar_contexts(scenario):
        reference.process(ctx)
        expected.extend(ctx.digests)
    engine = ParallelBatchEngine(
        bound_stat4(scenario), workers=2, executor="process", min_chunk=64
    )
    digests = []
    for batch in wire_batches(scenario):
        assert batch.contexts is None and batch.frames is not None
        digests.extend(engine.process(batch).digests)
    assert expected
    assert digests == expected


def test_sharded_ingest_matches_scalar(scenario):
    def cluster():
        sharded = ShardedStat4(2, config=scenario.config)
        for stage, match, spec in scenario.bindings:
            sharded.bind(stage, match, spec)
        return sharded

    reference = cluster()
    expected = {0: [], 1: []}
    for ctx in scalar_contexts(scenario):
        expected[reference.process(ctx)].extend(ctx.digests)
    routed = cluster()
    got = {0: [], 1: []}
    for batch in wire_batches(scenario):
        for shard, digest in routed.ingest(batch, workers=2).digests:
            got[shard].append(digest)
    assert all(routed.shard_loads())
    assert got == expected
    assert routed.shard_loads() == reference.shard_loads()


def test_select_and_slice_view_carry_frames(scenario):
    batch = next(iter(wire_batches(scenario)))
    rows = [5, 0, 17, 3]
    picked = batch.select(rows)
    chunk = split_batch(batch, 100)[1]
    for source in ("ipv4.dst", "tcp.flags", "udp.dst_port", "frame.size"):
        column = batch.raw_column(source)
        assert picked.raw_column(source) == [column[i] for i in rows]
        assert chunk.raw_column(source) == column[100:200]
    assert picked.keys == [batch.keys[i] for i in rows]
