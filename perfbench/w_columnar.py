"""``columnar_fanout``: pre-decoded column batches through the process pool.

Timed path per batch: ``PacketBatch(timestamps, keys, columns=...)`` and
``SwitchNode.ingest_batch`` on ``ParallelBatchEngine(workers=2,
executor="process")`` (backend "auto").  Parse does no work here.  Every
pass starts from a fresh detector, so each pass must reproduce the scalar
reference exactly.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

import check
import gen
from common import (
    REPLAY_BATCH,
    Calibrator,
    Outcome,
    add_kernels,
    build_node,
    median,
    now_ns,
    peak_rss_mb,
    percentile,
    settle_heap,
    table_counters,
    timed_setups,
    work_dir,
)
from layers import kernel_metrics
from spans import EngineProbe, Tracer, patched

#: Set-ups per run: each is short and spawns a pool, so take the median of five.
SETUPS = 5
WORKERS = 2
#: Calibration samples on each side of a batch that its scale is the median of.
CALIBRATION_REACH = 2
WARMUP_BATCHES = 2


def _engine(stat4: Any, serial: bool = False) -> Any:
    from repro.stat4.batch import BatchEngine
    from repro.stat4.parallel import ParallelBatchEngine

    if serial:
        return BatchEngine(stat4, backend="auto")
    return ParallelBatchEngine(stat4, backend="auto", workers=WORKERS, executor="process")


def setup(seed: int) -> gen.ColumnarInput:
    """Generate the columns, spawn a fresh pool and warm it up."""
    from repro.stat4.batch import PacketBatch
    from repro.stat4.parallel import shutdown_pools

    shutdown_pools()
    inputs = gen.columnar_inputs(seed, REPLAY_BATCH)
    config, bindings = gen.columnar_detector()
    node, stat4, _runtime, _handles = build_node(config, bindings, "columnar-warmup")
    engine = _engine(stat4)
    for timestamps, keys, columns in inputs.batches[:WARMUP_BATCHES]:
        node.ingest_batch(PacketBatch(timestamps, keys, columns=columns), engine)
    return inputs


class Pass:
    """One replay of the column batches through a fresh detector."""

    def __init__(self, inputs: gen.ColumnarInput, serial: bool = False, tracer: Optional[Tracer] = None):
        config, bindings = gen.columnar_detector()
        self.inputs = inputs
        self.tracer = tracer
        self.node, self.stat4, _runtime, _handles = build_node(config, bindings, "columnar")
        self.engine = _engine(self.stat4, serial)
        if tracer is not None:
            # Traced passes also account the pickled bytes of every task.
            self.engine.measure_shipping = True
        self.digests: List[Any] = []
        self.batch_ms: List[float] = []
        self.kernels: Dict[str, int] = {}
        self.calibrator = Calibrator()

    def run(self) -> None:
        """Time each batch, with calibration in between (see Calibrator)."""
        from repro.stat4.batch import PacketBatch

        tracer = self.tracer
        engine = self.engine if tracer is None else EngineProbe(tracer, self.engine)
        node = self.node
        cal = self.calibrator
        timed: List[int] = []
        cal.sample()
        for timestamps, keys, columns in self.inputs.batches:
            start = now_ns()
            if tracer is not None:
                tracer.new_trace()
                tracer.begin("assemble")
            batch = PacketBatch(timestamps, keys, columns=columns)
            if tracer is not None:
                tracer.end()
                tracer.begin("sink")
            result = node.ingest_batch(batch, engine)
            if tracer is not None:
                tracer.end()
            timed.append(now_ns() - start)
            cal.sample()
            self.digests.extend(result.digests)
            add_kernels(self.kernels, result.kernels)
        factors = cal.unit_factors(CALIBRATION_REACH)
        self.batch_ms = [ns * f / 1e6 for ns, f in zip(timed, factors)]

    def ns_per_pkt(self) -> float:
        return sum(self.batch_ms) * 1e6 / self.inputs.packets

    def unmatched_share(self) -> float:
        stage0 = self.stat4.binding_tables[0]
        return 1.0 - stage0.hits / stage0.lookups


def run_passes(
    inputs: gen.ColumnarInput,
    seconds: float,
    serial: bool = False,
    tracer: Optional[Tracer] = None,
) -> List[Pass]:
    passes: List[Pass] = []
    settle_heap()
    deadline = now_ns() + seconds * 1e9
    while not passes or now_ns() < deadline:
        one = Pass(inputs, serial, tracer)
        one.run()
        passes.append(one)
    return passes


def verify(inputs: gen.ColumnarInput, passes: List[Pass]) -> List[str]:
    """Each pass against ``Stat4.process`` over contexts holding the columns."""
    config, bindings = gen.columnar_detector()
    _node, stat4, _runtime, _handles = build_node(config, bindings, "reference")
    reference: List[Any] = []
    for timestamps, keys, columns in inputs.batches:
        reference += check.run_scalar(stat4, check.column_contexts(timestamps, keys, columns))
    findings: List[str] = []
    for number, one in enumerate(passes):
        findings += check.compare_digests(f"columnar pass {number}", one.digests, reference)
    return findings


def end_to_end(seed: int, seconds: float) -> Outcome:
    from repro.stat4.parallel import shutdown_pools

    try:
        inputs, setup_s = timed_setups(lambda _mark: setup(seed), SETUPS)
        passes = run_passes(inputs, seconds)
    finally:
        shutdown_pools()
    rss = peak_rss_mb()
    batch_ms = [ms for one in passes for ms in one.batch_ms]
    return Outcome(
        attempted=len(batch_ms),
        failures=verify(inputs, passes),
        metrics={
            "setup_s": median(setup_s),
            "peak_rss_mb": rss,
            "ns_per_pkt": median([one.ns_per_pkt() for one in passes]),
            "detect_f1": gen.columnar_f1(passes[0].digests, inputs),
            "alert_p50_ms": percentile(batch_ms, 50),
            "alert_p95_ms": percentile(batch_ms, 95),
            "drop_share": passes[0].unmatched_share(),
        },
    )


def per_layer(seed: int, seconds: float) -> Outcome:
    from repro.p4.tables import Table
    from repro.stat4.batch import PacketBatch
    from repro.stat4.parallel import shutdown_pools

    third = seconds / 3
    tracer = Tracer()
    targets = [
        (Table, "lookup", "match"),
        (PacketBatch, "values_for", "assemble"),
        (PacketBatch, "values_array_for", "assemble"),
    ]
    try:
        inputs = setup(seed)
        plain = run_passes(inputs, third)
        with patched(tracer, targets):
            traced = run_passes(inputs, third, tracer=tracer)
        serial = run_passes(inputs, third, serial=True)
    finally:
        shutdown_pools()
    tracer.dump(work_dir() / "spans-columnar_fanout.jsonl")

    packets = inputs.packets * len(traced)
    times = tracer.self_times()
    scale = median([one.calibrator.median_factor() for one in traced])
    self_ns = {name: row["self_ns"] * scale for name, row in times.items()}
    lookups = hits = 0
    kernels: Dict[str, int] = {}
    merge = {"adopted": 0, "folded": 0, "replayed": 0}
    shipped = 0
    for one in traced:
        got = table_counters(one.stat4)
        lookups += got[0]
        hits += got[1]
        add_kernels(kernels, one.kernels)
        merge["adopted"] += one.engine.merge_adopted_chunks
        merge["folded"] += one.engine.merge_folded_chunks
        merge["replayed"] += one.engine.merge_replayed_chunks
        shipped += one.engine.shipped_bytes
    chunks = sum(merge.values())
    digests = sum(len(one.digests) for one in traced)
    plain_ns = median([one.ns_per_pkt() for one in plain])
    metrics = {
        "assemble.ns_per_pkt": self_ns.get("assemble", 0) / packets,
        "match.table_lookups_per_pkt": times.get("match", {}).get("count", 0) / packets,
        "match.hit_share": hits / lookups if lookups else 0.0,
        "engine.ns_per_pkt": self_ns.get("engine", 0) / packets,
        "merge.adopted": merge["adopted"] / len(traced),
        "merge.folded": merge["folded"] / len(traced),
        "merge.replayed": merge["replayed"] / len(traced),
        "merge.replay_share": merge["replayed"] / chunks if chunks else 0.0,
        "fanout.shipped_bytes_per_batch": shipped / (len(inputs.batches) * len(traced)),
        "fanout.vs_serial_ratio": plain_ns / median([one.ns_per_pkt() for one in serial]),
        "sink.digests": digests / len(traced),
        "sink.ns_per_digest": self_ns.get("sink", 0) / digests if digests else 0.0,
        "tracing.overhead_share": median([one.ns_per_pkt() for one in traced]) / plain_ns - 1.0,
    }
    metrics.update(kernel_metrics(kernels))
    everything = plain + traced + serial
    return Outcome(
        attempted=sum(len(one.batch_ms) for one in everything),
        failures=verify(inputs, everything),
        metrics=metrics,
    )
