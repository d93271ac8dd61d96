"""``pcap_catalog``: wire bytes to alert over the six catalog shapes.

Timed path per pass, per shape: ``PacketTrace.load`` of the shape's pcap,
``iter_packet_batches(standard_parser(), 2048)``, and
``SwitchNode.ingest_batch`` on a serial ``BatchEngine`` (backend "auto").
Every pass starts from fresh detectors, so each pass must reproduce the
scalar reference exactly.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Tuple

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

SETUPS = 3
WARMUP_FRAMES = 256
#: Calibration samples on each side of a unit that its scale is the median of.
CALIBRATION_REACH = 2


class Inputs:
    def __init__(self, shapes: List[gen.CatalogShape], paths: Dict[str, str]):
        self.shapes = shapes
        self.paths = paths
        self.frames = sum(len(shape.trace) for shape in shapes)
        self.truncations = sum(shape.truncations for shape in shapes)


def _fresh_detectors(shapes: List[gen.CatalogShape]):
    from repro.stat4.batch import BatchEngine

    detectors = []
    for shape in shapes:
        node, stat4, _runtime, _handles = build_node(shape.config, shape.bindings, shape.name)
        detectors.append((node, stat4, BatchEngine(stat4, backend="auto")))
    return detectors


def setup(seed: int, detectors: Dict[str, Any], mark: Callable[[], None] = lambda: None) -> Inputs:
    """Render, truncate and write the pcaps; build and warm the detectors.

    ``mark`` is called after each shape is written (see ``timed_setups``).
    """
    from repro.p4.parser import standard_parser

    out = work_dir()
    shapes = []
    paths = {}
    for shape in gen.catalog_inputs(seed, detectors):
        path = out / f"pcap_catalog-{shape.name}.pcap"
        shape.trace.save(str(path))
        shapes.append(shape)
        paths[shape.name] = str(path)
        mark()
    parser = standard_parser()
    for (node, _stat4, engine), shape in zip(_fresh_detectors(shapes), shapes):
        head = type(shape.trace)(shape.trace.records[:WARMUP_FRAMES])
        for batch in head.iter_packet_batches(parser, REPLAY_BATCH):
            node.ingest_batch(batch, engine)
    return Inputs(shapes, paths)


class Pass:
    """One replay of the six pcaps through fresh detectors."""

    def __init__(self, inputs: Inputs, tracer: Optional[Tracer] = None):
        self.inputs = inputs
        self.tracer = tracer
        self.detectors = _fresh_detectors(inputs.shapes)
        self.digests: List[List[Any]] = []
        self.rejects: List[int] = []
        self.batch_ms: List[float] = []  # normalized, see Calibrator
        self.kernels: Dict[str, int] = {}
        self.elapsed_ns = 0.0  # normalized sum of the timed units
        self.load_ns = 0.0
        self.calibrator = Calibrator()

    def run(self) -> None:
        """Time each pcap load and each batch, with calibration in between."""
        from repro.p4.parser import standard_parser
        from repro.traffic.trace import PacketTrace

        tracer = self.tracer
        cal = self.calibrator
        timed: List[Tuple[str, int]] = []  # ("load" | "batch", raw ns)
        cal.sample()
        for shape, (node, _stat4, engine) in zip(self.inputs.shapes, self.detectors):
            if tracer is not None:
                engine = EngineProbe(tracer, engine)
            digests: List[Any] = []
            rejects = 0
            start = now_ns()
            trace = PacketTrace.load(self.inputs.paths[shape.name])
            timed.append(("load", now_ns() - start))
            cal.sample()
            batches = trace.iter_packet_batches(standard_parser(), REPLAY_BATCH)
            while True:
                start = now_ns()
                if tracer is not None:
                    tracer.new_trace()
                    tracer.begin("assemble")
                batch = next(batches, None)
                if tracer is not None:
                    tracer.end()
                if batch is None:
                    break
                if tracer is not None:
                    tracer.begin("sink")
                result = node.ingest_batch(batch, engine)
                if tracer is not None:
                    tracer.end()
                timed.append(("batch", now_ns() - start))
                cal.sample()
                digests.extend(result.digests)
                rejects += batch.parse_errors
                add_kernels(self.kernels, result.kernels)
            self.digests.append(digests)
            self.rejects.append(rejects)
        for (kind, ns), factor in zip(timed, cal.unit_factors(CALIBRATION_REACH)):
            if kind == "load":
                self.load_ns += ns * factor
            else:
                self.batch_ms.append(ns * factor / 1e6)
        self.elapsed_ns = self.load_ns + sum(self.batch_ms) * 1e6

    def ns_per_pkt(self) -> float:
        return self.elapsed_ns / self.inputs.frames


def run_passes(inputs: Inputs, seconds: float, tracer: Optional[Tracer] = None) -> List[Pass]:
    passes: List[Pass] = []
    settle_heap()
    deadline = now_ns() + seconds * 1e9
    while not passes or now_ns() < deadline:
        one = Pass(inputs, tracer)
        one.run()
        passes.append(one)
    return passes


def verify(inputs: Inputs, passes: List[Pass]) -> List[str]:
    """Each pass against the scalar reference over the same pcap frames."""
    from repro.traffic.trace import PacketTrace

    findings: List[str] = []
    for index, shape in enumerate(inputs.shapes):
        records = PacketTrace.load(inputs.paths[shape.name]).records
        contexts, rejected = check.frame_contexts(records)
        _node, stat4, _runtime, _handles = build_node(shape.config, shape.bindings, "reference")
        reference = check.run_scalar(stat4, contexts)
        findings += check.compare_count(
            f"{shape.name}: scalar parser rejects", rejected, shape.truncations
        )
        for number, one in enumerate(passes):
            label = f"{shape.name} pass {number}"
            findings += check.compare_digests(label, one.digests[index], reference)
            findings += check.compare_count(
                f"{label}: parse.rejects", one.rejects[index], shape.truncations
            )
    return findings


def detect_f1(inputs: Inputs, one: Pass) -> float:
    from repro.scenarios.score import score_digests

    scores = [
        score_digests(shape.truth, digests).f1
        for shape, digests in zip(inputs.shapes, one.digests)
    ]
    return sum(scores) / len(scores)


def end_to_end(seed: int, seconds: float) -> Outcome:
    detectors = gen.catalog_detectors()
    inputs, setup_s = timed_setups(lambda mark: setup(seed, detectors, mark), SETUPS)
    passes = run_passes(inputs, seconds)
    rss = peak_rss_mb()
    batch_ms = [ms for one in passes for ms in one.batch_ms]
    return Outcome(
        attempted=len(batch_ms),
        failures=verify(inputs, passes),
        metrics={
            "setup_s": median(setup_s),
            "peak_rss_mb": rss,
            "ns_per_pkt": median([one.ns_per_pkt() for one in passes]),
            "detect_f1": detect_f1(inputs, passes[0]),
            "alert_p50_ms": percentile(batch_ms, 50),
            "alert_p95_ms": percentile(batch_ms, 95),
            "drop_share": sum(passes[0].rejects) / inputs.frames,
        },
    )


def per_layer(seed: int, seconds: float) -> Outcome:
    from repro.p4.parser import Parser
    from repro.p4.tables import Table
    from repro.stat4.batch import PacketBatch

    inputs = setup(seed, gen.catalog_detectors())
    plain = run_passes(inputs, seconds / 2)
    tracer = Tracer()
    targets = [
        (Parser, "parse", "parse"),
        (Table, "lookup", "match"),
        (PacketBatch, "values_for", "assemble"),
        (PacketBatch, "values_array_for", "assemble"),
    ]
    with patched(tracer, targets):
        traced = run_passes(inputs, seconds / 2, tracer)
    tracer.dump(work_dir() / "spans-pcap_catalog.jsonl")

    frames = inputs.frames * len(traced)
    packets = frames - sum(sum(one.rejects) for one in traced)
    times = tracer.self_times()
    scale = median([one.calibrator.median_factor() for one in traced])
    self_ns = {name: row["self_ns"] * scale for name, row in times.items()}
    lookups = hits = 0
    for one in traced:
        for _node, stat4, _engine in one.detectors:
            got = table_counters(stat4)
            lookups += got[0]
            hits += got[1]
    kernels: Dict[str, int] = {}
    for one in traced:
        add_kernels(kernels, one.kernels)
    digests = sum(len(d) for one in traced for d in one.digests)
    plain_ns = median([one.ns_per_pkt() for one in plain])
    traced_ns = median([one.ns_per_pkt() for one in traced])
    metrics = {
        "pcap.load_ns_per_pkt": sum(one.load_ns for one in traced) / frames,
        "parse.ns_per_pkt": self_ns.get("parse", 0) / frames,
        "parse.rejects": sum(traced[0].rejects),
        "assemble.ns_per_pkt": self_ns.get("assemble", 0) / frames,
        "match.table_lookups_per_pkt": times.get("match", {}).get("count", 0) / packets,
        "match.hit_share": hits / lookups if lookups else 0.0,
        "engine.ns_per_pkt": self_ns.get("engine", 0) / packets,
        "sink.digests": digests / len(traced),
        "sink.ns_per_digest": self_ns.get("sink", 0) / digests if digests else 0.0,
        "tracing.overhead_share": traced_ns / plain_ns - 1.0,
    }
    metrics.update(kernel_metrics(kernels))
    return Outcome(
        attempted=sum(len(one.batch_ms) for one in plain + traced),
        failures=verify(inputs, plain + traced),
        metrics=metrics,
    )

