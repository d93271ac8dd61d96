"""What each metric means, which layer it measures, and what it should move.

``BENCHMARK.json`` carries every metric's name, unit, direction and bound;
this module carries the rest of the description: the layer -> module ->
public call map, each metric's meaning per workload, and which end-to-end
metric a per-layer metric is expected to move on which workload.
``python3 perfbench/run.py --describe`` prints it all, and the self-test
checks that it names exactly the metrics ``BENCHMARK.json`` lists.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

WORKLOADS = ("pcap_catalog", "columnar_fanout", "feed_drilldown")

#: layer -> (module, public calls the benchmark times or counts from outside).
LAYERS: Dict[str, Tuple[str, str]] = {
    "pcap": ("repro.traffic.trace", "PacketTrace.load"),
    "parse": ("repro.p4.parser", "Parser.parse; PacketBatch.parse_errors"),
    "feed": (
        "repro.service.sources",
        "FeedSource iteration (producer-thread CPU time); FeedSource.bad_lines",
    ),
    "assemble": (
        "repro.stat4.batch",
        "PacketBatch.from_trace minus parse; PacketBatch.values_for / values_array_for",
    ),
    "match": ("repro.p4.tables", "Table.lookup calls; table lookups/hits counters"),
    "engine": ("repro.stat4.batch", "BatchEngine.process / ParallelBatchEngine.process"),
    "kernel": (
        "repro.stat4.batch, .compiled, .sparse, .parallel",
        "BatchResult.kernels",
    ),
    "fanout": ("repro.stat4.parallel", "ParallelBatchEngine.process, shipped bytes"),
    "merge": ("repro.stat4.parallel", "merge_adopted/folded/replayed_chunks"),
    "sink": (
        "repro.netsim.switchnode",
        "SwitchNode.ingest_batch minus engine.process",
    ),
    "queue": (
        "repro.service.pipeline",
        "source yield -> handler entry per batch; ServicePipeline.queue_depth",
    ),
    "service": (
        "repro.service.pipeline, repro.service.server",
        "pipeline.handler; DetectionService.retune",
    ),
}

#: End-to-end metric -> its meaning on each workload.  Every workload
#: reports every metric; a latency or loss metric of the live feed takes the
#: closed-loop meaning named here on the replay workloads.
#: Every time is normalized to a reference machine speed by a calibration
#: loop run next to the timed work (``common.Calibrator``), because a
#: shared 2-core runner changes speed by up to ~1.5x for seconds at a time.
END_TO_END: Dict[str, Dict[str, str]] = {
    "setup_s": {
        "pcap_catalog": "render six shapes, truncate, write pcaps, build and warm detectors",
        "columnar_fanout": "generate Zipf columns, build detector, spawn the 2-worker pool, warm up",
        "feed_drilldown": "build a session's line schedule, FeedSource and DetectionService",
        "*": "median of the set-ups in one run: 3 (pcap), 5 (columnar), one per live session (feed: 8)",
    },
    "peak_rss_mb": {"*": "peak resident set of the benchmark process, before the check runs"},
    "ns_per_pkt": {
        "pcap_catalog": "pass time from pcap file to digest lists / frames; median over passes",
        "columnar_fanout": "pass time from column lists to digest lists / packets; median over passes",
        "feed_drilldown": "worker-thread CPU time in pipeline.handler per packet; median over batches",
    },
    "detect_f1": {
        "pcap_catalog": "mean F1 of the six shapes against their catalog truth",
        "columnar_fanout": "imbalance alerts: precision = naming a cell hot so far, recall = epochs whose hot cells get named",
        "feed_drilldown": "F1 of imbalance alerts against the labelled bursts (score_digests), mean over sessions",
    },
    "alert_p50_ms": {
        "pcap_catalog": "per batch: digests returned minus start of reading the batch",
        "columnar_fanout": "per batch: digests returned minus batch construction start",
        "feed_drilldown": "per applied batch: handler returned minus due time of its last line; lowest of the eight sessions' medians",
    },
    "alert_p95_ms": {
        "*": "as alert_p50_ms, 95th percentile",
        "feed_drilldown": "the lowest of the eight sessions' 95th percentiles",
    },
    "drop_share": {
        "pcap_catalog": "frames the parser rejected / frames offered",
        "columnar_fanout": "rows no binding matched / rows offered (table hit counters)",
        "feed_drilldown": "(lines in dropped batches + bad lines) / lines sent",
    },
}

#: Kernel counters reported as ``kernel.events.<name>``.
KERNELS = (
    "frequency_fast",
    "percentile_fast",
    "sparse_fast",
    "time_series",
    "exact_loop",
    "frequency_parallel",
    "percentile_parallel",
    "alert_parallel",
    "merge_parallel",
    "compiled_frequency",
    "compiled_tracked",
    "compiled_alerting",
    "compiled_merge",
    "compiled_time_series",
    "compiled_sparse",
)

ALL = "all"

#: Per-layer metric -> (meaning, end-to-end metric it should move, workload).
#: Each traced run reports all of them; a layer its workload does not cross
#: reads 0.  Times are normalized like the end-to-end ones.
PER_LAYER: Dict[str, Tuple[str, str, str]] = {
    "pcap.load_ns_per_pkt": (
        "PacketTrace.load time / frames",
        "ns_per_pkt",
        "pcap_catalog; flat elsewhere",
    ),
    "parse.ns_per_pkt": (
        "Parser.parse self time / frames (feed: lines)",
        "ns_per_pkt",
        "pcap_catalog (most of it); flat on columnar_fanout",
    ),
    "parse.rejects": (
        "PacketBatch.parse_errors summed over one pass; must equal the truncations",
        "- (check)",
        "pcap_catalog",
    ),
    "assemble.ns_per_pkt": (
        "from_trace minus parse, plus value-column assembly, self time / frames",
        "ns_per_pkt",
        "pcap_catalog; flat on columnar_fanout",
    ),
    "feed.cpu_ns_per_line": (
        "producer-thread CPU time inside FeedSource iteration / lines received",
        "alert_p50_ms",
        "feed_drilldown",
    ),
    "feed.bad_lines": ("FeedSource.bad_lines", "drop_share", "feed_drilldown"),
    "match.table_lookups_per_pkt": (
        "Table.lookup calls / packets (the engine memoizes per batch)",
        "ns_per_pkt",
        "columnar_fanout",
    ),
    "match.hit_share": ("binding-table hits / lookups counters", "drop_share", ALL),
    "engine.ns_per_pkt": (
        "engine.process self time (minus match and assembly) / packets",
        "ns_per_pkt",
        "columnar_fanout (main); a few % of pcap_catalog",
    ),
    "kernel.exact_loop_share": (
        "exact_loop events / all kernel events",
        "ns_per_pkt",
        "columnar_fanout",
    ),
    "merge.adopted": ("merge_adopted_chunks", "ns_per_pkt", "columnar_fanout"),
    "merge.folded": ("merge_folded_chunks", "ns_per_pkt", "columnar_fanout"),
    "merge.replayed": ("merge_replayed_chunks", "ns_per_pkt", "columnar_fanout"),
    "merge.replay_share": (
        "replayed / (adopted + folded + replayed)",
        "ns_per_pkt",
        "columnar_fanout",
    ),
    "fanout.shipped_bytes_per_batch": (
        "pickled task payload bytes / batches (measure_shipping on)",
        "ns_per_pkt",
        "columnar_fanout",
    ),
    "fanout.vs_serial_ratio": (
        "parallel ns/pkt / serial BatchEngine ns/pkt on the same backend and batches",
        "ns_per_pkt",
        "columnar_fanout",
    ),
    "sink.digests": ("digests per pass (feed: per run)", "ns_per_pkt, alert_p50_ms", ALL),
    "sink.ns_per_digest": (
        "SwitchNode.ingest_batch self time (minus engine.process) / digests",
        "ns_per_pkt, alert_p50_ms",
        ALL,
    ),
    "queue.wait_ms_p50": (
        "source yield -> handler entry, median over batches",
        "alert_p95_ms, drop_share",
        "feed_drilldown",
    ),
    "queue.wait_ms_p95": (
        "source yield -> handler entry, 95th percentile",
        "alert_p95_ms, drop_share",
        "feed_drilldown",
    ),
    "queue.depth_max": (
        "largest ServicePipeline.queue_depth seen at handler entry",
        "alert_p95_ms, drop_share",
        "feed_drilldown",
    ),
    "service.handler_ns_per_pkt": (
        "pipeline.handler time / applied packets",
        "alert_p95_ms, drop_share",
        "feed_drilldown",
    ),
    "service.vs_engine_ratio": (
        "service handler ns/pkt / bare SwitchNode.ingest_batch ns/pkt on the applied batches",
        "alert_p95_ms",
        "feed_drilldown",
    ),
    "rebind.count": ("DetectionService.retune calls", "alert_p95_ms", "feed_drilldown"),
    "rebind.ms_p50": ("DetectionService.retune time, median", "alert_p95_ms", "feed_drilldown"),
    "gen.lag_ms_p95": (
        "load generator lateness against the schedule, 95th percentile",
        "- (validity)",
        "feed_drilldown (replays have no generator: 0)",
    ),
    "tracing.overhead_share": (
        "traced ns_per_pkt / untraced ns_per_pkt - 1, measured in the traced run",
        "- (validity)",
        ALL,
    ),
}
for _name in KERNELS:
    PER_LAYER[f"kernel.events.{_name}"] = (
        f"BatchResult.kernels['{_name}'] summed over the traced passes",
        "ns_per_pkt",
        "columnar_fanout (main)",
    )


def kernel_metrics(kernels: Dict[str, int]) -> Dict[str, float]:
    """``kernel.events.<name>`` for every known kernel, plus the exact-loop share."""
    total = sum(kernels.values())
    out: Dict[str, float] = {f"kernel.events.{name}": kernels.get(name, 0) for name in KERNELS}
    out["kernel.exact_loop_share"] = kernels.get("exact_loop", 0) / total if total else 0.0
    return out


def describe() -> List[str]:
    """Human-readable lines for ``run.py --describe``."""
    lines = ["layers (module: public calls timed from the benchmark):"]
    lines += [f"  {layer:9} {module}: {calls}" for layer, (module, calls) in LAYERS.items()]
    lines.append("end-to-end metrics (per workload):")
    for name, meanings in END_TO_END.items():
        for workload, meaning in meanings.items():
            lines.append(f"  {name:14} {workload:16} {meaning}")
    lines.append("per-layer metrics (meaning | moves | workload; 0 where a workload skips the layer):")
    for name, (meaning, moves, workload) in PER_LAYER.items():
        lines.append(f"  {name:34} {meaning} | {moves} | {workload}")
    return lines
