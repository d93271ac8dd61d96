"""``feed_drilldown``: the live detection service under an open-loop feed.

``DetectionService(FeedSource(batch_size=64), policy="drop",
with_http=False)`` with the default bindings and engine settings.  A
separate generator process (``feedgen.py``) sends JSON lines over one
loopback connection at a fixed rate; each line's ``ts`` is its due time.
Every ``RETUNE_EVERY`` applied batches the wrapped ``pipeline.handler``
retunes the imbalance binding's accept window before handing on the batch,
so the rebinds land between batches at known batch indices, and the scalar
reference repeats them at the same indices.
"""

from __future__ import annotations

import json
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

import check
import gen
from common import (
    Calibrator,
    Outcome,
    add_kernels,
    bound,
    build_node,
    median,
    percentile,
    peak_rss_mb,
    settle_heap,
    table_counters,
    timed_setups,
    work_dir,
)
from layers import kernel_metrics
from spans import EngineProbe, Tracer, patched, spanned

#: Live sessions per run; each is set up and run on its own schedule, so a
#: run's set-up time is the median of eight.  At 20 s a session is 2.5 s,
#: about 110 batches: a 95th percentile with five batches beyond it.  More,
#: shorter sessions give the lowest-session latencies below more chances to
#: fall outside a burst of stolen CPU time.
SESSIONS = 8
#: How long the service may take to drain after the generator is done.
DRAIN_SECONDS = 30.0
#: The calibration loop run after each batch (about 0.4 ms), and how many
#: samples on each side of a batch its scale is the median of.
CALIBRATION_ITERATIONS = 2_000
CALIBRATION_REACH = 4
FEEDGEN = Path(__file__).resolve().parent / "feedgen.py"

clock_ns = time.monotonic_ns


class Recorder:
    """Wraps ``pipeline.handler``: retunes, latency, and the applied batches."""

    def __init__(self, service: Any, tracer: Optional[Tracer] = None):
        self.service = service
        self.tracer = tracer
        self.original = service.pipeline.handler
        service.pipeline.handler = self.handle
        self.start_ns = 0  # the schedule's time zero, on the monotonic clock
        self.applied = 0
        self.batches: List[Tuple[float, float, int]] = []  # (first ts, last ts, size)
        self.rebinds: Dict[int, Tuple[int, Dict[str, int]]] = {}
        self.rebind_ms: List[float] = []
        self.latency_ms: List[float] = []
        self.cpu_ns_per_pkt: List[float] = []
        self.handler_ns = 0
        self.packets = 0
        self.digests: List[Any] = []
        self.kernels: Dict[str, int] = {}
        self.queue_wait_ms: List[float] = []
        self.depth_max = 0
        self.yielded: Dict[int, int] = {}
        # A short loop after every batch, timed in the worker thread's CPU
        # time, tracks the speed the worker ran at batch by batch.
        self.calibrator = Calibrator(CALIBRATION_ITERATIONS, time.thread_time_ns)

    def handle(self, batch: Any) -> Any:
        entry = clock_ns()
        tracer = self.tracer
        if not self.applied:
            self.calibrator.sample()
        if tracer is not None:
            tracer.new_trace()
            self.queue_wait_ms.append((entry - self.yielded.pop(id(batch), entry)) / 1e6)
            self.depth_max = max(self.depth_max, self.service.pipeline.queue_depth)
        if self.applied and self.applied % gen.RETUNE_EVERY == 0:
            window = gen.RETUNE_WINDOWS[(self.applied // gen.RETUNE_EVERY - 1) % 2]
            before = clock_ns()
            if tracer is not None:
                tracer.begin("rebind")
            self.service.retune(gen.IMBALANCE_BINDING, dict(window))
            if tracer is not None:
                tracer.end()
            self.rebind_ms.append((clock_ns() - before) / 1e6)
            self.rebinds[self.applied] = (gen.IMBALANCE_BINDING, dict(window))
        start = clock_ns()
        cpu = time.thread_time_ns()
        if tracer is not None:
            tracer.begin("service")
        result = self.original(batch)
        if tracer is not None:
            tracer.end()
        cpu = time.thread_time_ns() - cpu
        done = clock_ns()
        size = len(batch)
        last = batch.timestamps[-1]
        self.latency_ms.append((done - self.start_ns) / 1e6 - last * 1e3)
        self.handler_ns += done - start
        self.packets += size
        self.cpu_ns_per_pkt.append(cpu / size)
        self.batches.append((batch.timestamps[0], last, size))
        self.digests.extend(result.digests)
        add_kernels(self.kernels, result.kernels)
        self.applied += 1
        self.calibrator.sample()
        return result

    def factors(self) -> List[float]:
        """Per applied batch: the Calibrator scale over neighbouring batches."""
        return self.calibrator.unit_factors(CALIBRATION_REACH)


class TimedFeed:
    """The traced run's source: FeedSource iteration with producer CPU time.

    Records a ``feed`` span and the producer thread's CPU time around each
    batch the FeedSource yields, and the yield time the queue wait is
    measured from.
    """

    def __init__(self, feed: Any, tracer: Tracer):
        self.feed = feed
        self.tracer = tracer
        self.cpu_ns = 0
        self.recorder: Optional[Recorder] = None

    def __iter__(self):
        batches = iter(self.feed)
        while True:
            cpu = time.thread_time_ns()
            self.tracer.new_trace()
            self.tracer.begin("feed")
            batch = next(batches, None)
            self.tracer.end()
            self.cpu_ns += time.thread_time_ns() - cpu
            if batch is None:
                return
            self.recorder.yielded[id(batch)] = clock_ns()
            yield batch


class Session:
    """One live run: schedule, source, service and the recording handler."""

    def __init__(self, seed: int, seconds: float, tracer: Optional[Tracer] = None):
        from repro.service.server import DetectionService
        from repro.service.sources import FeedSource

        self.seed = seed
        self.seconds = seconds
        self.schedule = gen.feed_schedule(seed, seconds)
        self.feed = FeedSource(batch_size=gen.FEED_BATCH)
        source: Any = self.feed if tracer is None else TimedFeed(self.feed, tracer)
        self.service = DetectionService(source, policy="drop", with_http=False)
        self.recorder = Recorder(self.service, tracer)
        if tracer is not None:
            source.recorder = self.recorder
            self.service.engine = EngineProbe(tracer, self.service.engine)
            node = self.service.node
            node.ingest_batch = spanned(tracer, node.ingest_batch, "sink")
        self.source = source
        self.generator: Dict[str, float] = {}
        self.factor = 1.0  # Calibrator scale for this session's times

    def close(self) -> None:
        self.service.close()
        self.feed.close()

    def run(self) -> List[str]:
        """Start the service, drive it with the generator, wait for the drain."""
        findings: List[str] = []
        port = self.feed.address[1]
        settle_heap()
        self.service.start()
        try:
            self.generator = self._drive(port)
            if not self.service.wait(DRAIN_SECONDS):
                findings.append("service did not drain after the feed closed")
        finally:
            self.close()
        self.factor = median(self.recorder.factors())
        if self.service.pipeline.error is not None:
            findings.append(f"service failed: {self.service.pipeline.error!r}")
        return findings

    def _drive(self, port: int) -> Dict[str, float]:
        """Run the generator process to completion; its final report."""
        child = subprocess.Popen(
            [sys.executable, str(FEEDGEN), "--port", str(port), "--seed", str(self.seed),
             "--seconds", repr(self.seconds)],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )
        try:
            if child.stdout.readline().strip() != "ready":
                raise RuntimeError("load generator did not start")
            start = time.monotonic() + 0.05
            self.recorder.start_ns = int(start * 1e9)
            child.stdin.write(f"{start!r}\n")
            child.stdin.flush()
            out, _ = child.communicate(timeout=self.seconds + 60)
            return json.loads(out.strip().splitlines()[-1])
        finally:
            if child.poll() is None:
                child.kill()
            child.wait()

    # -- results ---------------------------------------------------------------

    def lines_sent(self) -> int:
        return int(self.generator.get("sent", 0))

    def dropped_lines(self) -> int:
        return self.service.metrics.dropped_packets

    def applied_lines(self) -> List[List[gen.FeedLine]]:
        """The good lines of each applied batch, from the schedule."""
        good = [line for line in self.schedule.lines if line.dst is not None]
        index_of = {line.due: index for index, line in enumerate(good)}
        out = []
        for first, last, size in self.recorder.batches:
            index = index_of.get(first, -1)
            lines = good[index : index + size] if index >= 0 else []
            out.append(lines)
        return out

    def verify(self) -> List[str]:
        """Feed decoding, lateness, and the digests against the scalar loop."""
        from repro.service.server import default_bindings, default_config

        findings = check.compare_count(
            "lines sent", self.lines_sent(), len(self.schedule.lines)
        )
        findings += check.compare_count(
            "feed.bad_lines", self.feed.bad_lines, self.schedule.bad
        )
        batches = self.applied_lines()
        for number, ((first, last, size), lines) in enumerate(zip(self.recorder.batches, batches)):
            if len(lines) != size or lines[-1].due != last:
                findings.append(
                    f"applied batch {number} ({size} lines from ts {first!r}) is not "
                    "a run of consecutive scheduled lines"
                )
                return findings
        applied = sum(len(lines) for lines in batches)
        findings += check.compare_count(
            "lines applied + dropped + bad",
            applied + self.dropped_lines() + self.feed.bad_lines,
            self.lines_sent(),
        )
        reference = check.scalar_with_rebinds(
            default_config(),
            default_bindings(),
            [check.feed_contexts(lines) for lines in batches],
            self.recorder.rebinds,
        )
        findings += check.compare_digests("feed", self.recorder.digests, reference)
        # Latency is timed from when a line was due, so the generator's
        # lateness adds straight into it: a run where lateness alone could
        # move alert_p95_ms by more than its bound is invalid.
        share = bound("alert_p95_ms")
        lag = self.generator.get("lag_ms_p95", 0.0)
        allowed = share * percentile(self.recorder.latency_ms, 95)
        if lag > allowed:
            findings.append(
                f"invalid run: generator lateness p95 {lag:.3f} ms exceeds "
                f"{allowed:.3f} ms ({share} of the 95th-percentile alert latency)"
            )
        return findings

    def detect_f1(self) -> float:
        from repro.scenarios.score import score_digests

        truth = gen.feed_truth(self.schedule, self.seconds)
        return score_digests(truth, self.recorder.digests).f1


def end_to_end(seed: int, seconds: float) -> Outcome:
    """``SESSIONS`` live sessions of equal length, each on its own schedule."""
    import repro.service.server  # noqa: F401  (imports are not set-up work)
    sessions: List[Session] = []
    setup_s: List[float] = []
    findings: List[str] = []
    for number in range(SESSIONS):
        session, took = timed_setups(
            lambda _mark: Session(seed * SESSIONS + number, seconds / SESSIONS), 1
        )
        setup_s += took
        findings += session.run()
        sessions.append(session)
    rss = peak_rss_mb()
    for session in sessions:
        findings += session.verify()
    # Latencies are normalized like every other time, but the normalization
    # only sees CPU speed.  Thread wake-ups and interpreter hand-offs, and on
    # a shared runner the hypervisor taking the vCPU away for milliseconds at
    # a time, add wall time it cannot see, and such bursts last seconds to
    # minutes.  So both percentiles are taken per session and the run reports
    # its lowest session: a session that ran through a burst does not set the
    # number, while a slower program raises every session's.
    session_p50: List[float] = []
    session_p95: List[float] = []
    cpu: List[float] = []
    for session in sessions:
        recorder = session.recorder
        factors = recorder.factors()
        latency = [ms * f for ms, f in zip(recorder.latency_ms, factors)]
        session_p50.append(percentile(latency, 50))
        session_p95.append(percentile(latency, 95))
        cpu += [ns * f for ns, f in zip(recorder.cpu_ns_per_pkt, factors)]
    sent = sum(s.lines_sent() for s in sessions)
    lost = sum(s.dropped_lines() + s.feed.bad_lines for s in sessions)
    dropped = sum(s.service.metrics.dropped_batches for s in sessions)
    return Outcome(
        attempted=sum(s.recorder.applied for s in sessions) + dropped,
        failed=dropped,
        failures=findings,
        metrics={
            "setup_s": median(setup_s),
            "peak_rss_mb": rss,
            "ns_per_pkt": median(cpu),
            "detect_f1": sum(s.detect_f1() for s in sessions) / len(sessions),
            "alert_p50_ms": min(session_p50),
            "alert_p95_ms": min(session_p95),
            "drop_share": lost / sent,
        },
    )


def bare_twin(session: Session) -> Tuple[float, List[str]]:
    """The session's applied batches through a bare ``SwitchNode.ingest_batch``.

    Same detector, same rebinds at the same batch indices, serial engine on
    the default backend.  Returns ``(ns per packet, check findings)``.
    """
    from dataclasses import replace

    from repro.service.server import default_bindings, default_config
    from repro.stat4.batch import BatchEngine, PacketBatch

    node, stat4, runtime, handles = build_node(default_config(), default_bindings(), "bare")
    engine = BatchEngine(stat4, backend="auto")
    batches = [PacketBatch.from_contexts(check.feed_contexts(lines)) for lines in session.applied_lines()]
    digests: List[Any] = []
    elapsed = 0
    cal = Calibrator()
    cal.sample(5)
    for index, batch in enumerate(batches):
        if index in session.recorder.rebinds:
            binding, overrides = session.recorder.rebinds[index]
            handles[binding], _ = runtime.rebind(
                handles[binding], spec=replace(handles[binding].spec, **overrides)
            )
        start = clock_ns()
        result = node.ingest_batch(batch, engine)
        elapsed += clock_ns() - start
        digests.extend(result.digests)
    packets = sum(len(batch) for batch in batches)
    findings = check.compare_digests("bare twin", digests, session.recorder.digests)
    cal.sample(5)
    return elapsed * cal.unit_factors()[0] / packets, findings


def per_layer(seed: int, seconds: float) -> Outcome:
    from repro.p4.parser import Parser
    from repro.p4.tables import Table
    from repro.stat4.batch import PacketBatch

    half = seconds / 2
    plain = Session(seed, half)
    findings = plain.run()
    findings += plain.verify()
    bare_ns, twin_findings = bare_twin(plain)
    findings += twin_findings

    tracer = Tracer()
    targets = [
        (Parser, "parse", "parse"),
        (Table, "lookup", "match"),
        (PacketBatch, "values_for", "assemble"),
        (PacketBatch, "values_array_for", "assemble"),
    ]
    traced = Session(seed, half, tracer)
    with patched(tracer, targets):
        findings += traced.run()
    tracer.dump(work_dir() / "spans-feed_drilldown.jsonl")
    findings += traced.verify()

    recorder = traced.recorder
    times = tracer.self_times()
    self_ns = {name: row["self_ns"] * traced.factor for name, row in times.items()}
    packets = recorder.packets
    received = traced.lines_sent()
    lookups, hits = table_counters(traced.service.stat4)
    digests = len(recorder.digests)
    plain_ns = plain.recorder.handler_ns * plain.factor / plain.recorder.packets
    traced_ns = recorder.handler_ns * traced.factor / packets
    metrics = {
        "parse.ns_per_pkt": self_ns.get("parse", 0) / (packets + traced.dropped_lines()),
        "assemble.ns_per_pkt": self_ns.get("assemble", 0) / packets,
        "feed.cpu_ns_per_line": traced.source.cpu_ns * traced.factor / received,
        "feed.bad_lines": traced.feed.bad_lines,
        "match.table_lookups_per_pkt": times.get("match", {}).get("count", 0) / packets,
        "match.hit_share": hits / lookups if lookups else 0.0,
        "engine.ns_per_pkt": self_ns.get("engine", 0) / packets,
        "sink.digests": digests,
        "sink.ns_per_digest": self_ns.get("sink", 0) / digests if digests else 0.0,
        "queue.wait_ms_p50": percentile(recorder.queue_wait_ms, 50) * traced.factor,
        "queue.wait_ms_p95": percentile(recorder.queue_wait_ms, 95) * traced.factor,
        "queue.depth_max": recorder.depth_max,
        "service.handler_ns_per_pkt": plain_ns,
        "service.vs_engine_ratio": plain_ns / bare_ns,
        "rebind.count": len(recorder.rebind_ms),
        "rebind.ms_p50": percentile(recorder.rebind_ms, 50) * traced.factor,
        "gen.lag_ms_p95": traced.generator.get("lag_ms_p95", 0.0),
        "tracing.overhead_share": traced_ns / plain_ns - 1.0,
    }
    metrics.update(kernel_metrics(recorder.kernels))
    return Outcome(
        attempted=sum(s.recorder.applied + s.service.metrics.dropped_batches for s in (plain, traced)),
        failed=sum(s.service.metrics.dropped_batches for s in (plain, traced)),
        failures=findings,
        metrics=metrics,
    )
