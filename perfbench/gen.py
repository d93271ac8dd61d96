"""Seeded input generators for the three workloads.

Each generator takes the benchmark seed and returns plain inputs: pcap
traces, column lists, or feed lines.  The same seed gives the same inputs.
The program under test only ever receives these inputs.

The feed part is standard library only: the load-generator process imports
this module without the program on its path.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from typing import Any, Dict, Iterator, List, Optional, Sequence, Set, Tuple

# -- pcap_catalog -----------------------------------------------------------------

#: Share of frames that are truncated copies the parser must reject.
TRUNCATED_SHARE = 0.01
#: Header boundaries a truncated frame is cut at: no Ethernet header, then
#: no IPv4 header, then no UDP/TCP header.
TRUNCATION_CUTS = (0, 14, 34)


@dataclass
class CatalogShape:
    """One catalog scenario re-rendered with the bench seed."""

    name: str
    trace: Any  # repro.traffic.trace.PacketTrace, truncations included
    truncations: int
    config: Any
    bindings: Any
    truth: Any


def _hosts(base: int, count: int, start: int = 0) -> List[int]:
    return [base + start + i for i in range(count)]


def catalog_phases() -> Dict[str, Any]:
    """The catalog's six phase lists, with the catalog's own parameters.

    ``repro.scenarios.catalog`` renders these with fixed seeds; the
    benchmark renders the same phases with its own seed, so the traffic
    changes with ``--seed`` while the shape, detector and truth stay those
    of the catalog.
    """
    from repro.scenarios.catalog import INTERVAL as iv
    from repro.traffic import profiles as p

    return {
        "volumetric_flood": p.volumetric_flood_phases(
            victim=0x0A000009,
            background=_hosts(0x0A000000, 8, start=1),
            rate_pps=3000.0,
            benign=30 * iv,
            flood=20 * iv,
            recovery=15 * iv,
            flood_factor=8.0,
            victim_share=0.9,
            poisson=False,
        ),
        "slow_ramp_flood": p.ramp_flood_phases(
            victim=0x0A000009,
            background=_hosts(0x0A000000, 8, start=1),
            rate_pps=3000.0,
            benign=30 * iv,
            step_duration=3 * iv,
            step_factors=(1.1, 1.2, 1.35, 1.5, 2.0),
            plateau=10 * iv,
            recovery=10 * iv,
            victim_share=0.9,
            poisson=False,
        ),
        "port_scan": p.port_scan_phases(
            target=0x0A000001,
            background=_hosts(0x0A000000, 8, start=1),
            service_ports=[9000 + port for port in range(8)],
            scan_ports=list(range(256)),
            rate_pps=2000.0,
            benign=30 * iv,
            scan=20 * iv,
            recovery=0.0,
            scan_rate_factor=1.5,
            poisson=False,
        ),
        "heavy_hitter": p.heavy_hitter_phases(
            victim=0x0A000150,
            population=_hosts(0x0A000100, 96),
            rate_pps=2000.0,
            benign=30 * iv,
            emergence=20 * iv,
            recovery=0.0,
            victim_share=0.6,
            poisson=False,
        ),
        "zipf_drift": p.zipf_drift_phases(
            destinations=_hosts(0x0A000000, 64),
            rate_pps=2000.0,
            benign=30 * iv,
            drift_durations=[10 * iv, 10 * iv],
            drift_exponents=[2.0, 3.0],
            benign_exponent=1.2,
            poisson=False,
        ),
        "mode_shift": p.mode_shift_phases(
            mode_a=_hosts(0x0A000000, 32, start=16),
            mode_b=_hosts(0x0A000000, 32, start=80),
            rate_pps=2000.0,
            benign=30 * iv,
            shifted=25 * iv,
            poisson=False,
        ),
    }


def catalog_detectors() -> Dict[str, Tuple[Any, Any, Any]]:
    """``name -> (config, bindings, truth)`` straight from the catalog."""
    from repro.scenarios.catalog import build_scenarios

    return {s.name: (s.config, s.bindings, s.truth) for s in build_scenarios()}


def truncate(trace: Any, rng: random.Random) -> Tuple[Any, int]:
    """Insert truncated copies of about 1% of the frames.

    Each copy sits right after its original, with the same timestamp, and is
    cut at a header boundary.  Returns the new trace and the copy count.
    """
    from repro.traffic.trace import PacketTrace, TraceRecord

    records = trace.records
    count = max(1, round(len(records) * TRUNCATED_SHARE))
    chosen = set(rng.sample(range(len(records)), count))
    out: List[Any] = []
    for index, record in enumerate(records):
        out.append(record)
        if index in chosen:
            cut = rng.choice(TRUNCATION_CUTS)
            out.append(TraceRecord(timestamp=record.timestamp, data=record.data[:cut]))
    return PacketTrace(out), count


def catalog_inputs(
    seed: int, detectors: Dict[str, Tuple[Any, Any, Any]]
) -> Iterator[CatalogShape]:
    """The six shapes rendered with ``seed``, with seeded truncations."""
    from repro.traffic.profiles import render_phases

    for index, (name, phases) in enumerate(catalog_phases().items()):
        shape_seed = seed * 1009 + index
        trace = render_phases(phases, seed=shape_seed)
        trace, count = truncate(trace, random.Random(shape_seed))
        config, bindings, truth = detectors[name]
        yield CatalogShape(name, trace, count, config, bindings, truth)


# -- columnar_fanout ----------------------------------------------------------------

#: Batches per pass and the virtual packet rate their timestamps follow.
COLUMNAR_BATCHES = 16
COLUMNAR_RATE = 100_000.0
#: The hot set moves every this many batches (one epoch).
DRIFT_EVERY = 2
#: Ranks that make up the hot set, the Zipf exponent over 256 ranks, and the
#: share of rows addressed outside 10.0.0.0/8 (no binding matches them).
HOT_RANKS = 8
ZIPF_EXPONENT = 1.3
UNMATCHED_SHARE = 0.01
COLUMNAR_PORTS = 64


@dataclass
class ColumnarInput:
    """Pre-decoded column batches plus the hot cells of each epoch."""

    batches: List[Tuple[List[float], List[Tuple[int, int, int, int]], Dict[str, List[int]]]]
    hot: List[Set[int]]  # per epoch: the dst cells (last octet) of the hot set
    batch_size: int

    @property
    def packets(self) -> int:
        return sum(len(ts) for ts, _keys, _cols in self.batches)

    def epoch_of(self, timestamp: float) -> int:
        return int(round(timestamp * COLUMNAR_RATE)) // (self.batch_size * DRIFT_EVERY)


def columnar_inputs(seed: int, batch_size: int) -> ColumnarInput:
    """Zipf destinations whose hot set drifts every few batches."""
    rng = random.Random(seed)
    ranks = range(256)
    cum: List[float] = []
    total = 0.0
    for rank in ranks:
        total += 1.0 / (rank + 1) ** ZIPF_EXPONENT
        cum.append(total)
    cell_of_rank = list(ranks)
    rng.shuffle(cell_of_rank)
    out = []
    hot: List[Set[int]] = []
    row = 0
    for index in range(COLUMNAR_BATCHES):
        if index % DRIFT_EVERY == 0:
            if index:
                for rank in range(HOT_RANKS):
                    other = rng.randrange(HOT_RANKS, 256)
                    cell_of_rank[rank], cell_of_rank[other] = (
                        cell_of_rank[other],
                        cell_of_rank[rank],
                    )
            hot.append(set(cell_of_rank[:HOT_RANKS]))
        timestamps: List[float] = []
        keys: List[Tuple[int, int, int, int]] = []
        dsts: List[int] = []
        ports: List[int] = []
        unmatched = set(rng.sample(range(batch_size), round(batch_size * UNMATCHED_SHARE)))
        for position, rank in enumerate(rng.choices(ranks, cum_weights=cum, k=batch_size)):
            if position in unmatched:
                dst = 0xC0A80000 | rng.randrange(256)
            else:
                dst = 0x0A000000 | cell_of_rank[rank]
            timestamps.append(row / COLUMNAR_RATE)
            row += 1
            keys.append((0x0800, dst, 17, 0))
            dsts.append(dst)
            ports.append(9000 + rng.randrange(COLUMNAR_PORTS))
        out.append((timestamps, keys, {"ipv4.dst": dsts, "udp.dst_port": ports}))
    return ColumnarInput(out, hot, batch_size)


def columnar_detector() -> Tuple[Any, List[Tuple[int, Any, Any]]]:
    """Four binding stages over 10.0.0.0/8, one per kernel family.

    - dist 0: tracker + k·σ + percentile alert on ``ipv4.dst & 0xFF`` (the
      merge engine's shape);
    - dist 1: tally-only frequency of ``udp.dst_port & 0xFF``;
    - dist 2: packet rate over 5 ms intervals;
    - dist 3: sparse (hashed) frequency of the full destination.
    """
    from repro.stat4.binding import BindingMatch
    from repro.stat4.config import Stat4Config
    from repro.stat4.extract import ExtractSpec
    from repro.stat4.runtime import Stat4Runtime

    specs = Stat4Runtime()
    match = BindingMatch.ipv4_prefix("10.0.0.0", 8)
    config = Stat4Config(
        counter_num=4,
        counter_size=256,
        binding_stages=4,
        sparse_dists=(3,),
        sparse_slots=64,
        sparse_stages=2,
    )
    bindings = [
        (
            0,
            match,
            specs.frequency_of(
                0,
                ExtractSpec.field("ipv4.dst", mask=0xFF),
                percent=50,
                percentile_alert="median_moved",
                k_sigma=2,
                min_samples=64,
                cooldown=0.02,
            ),
        ),
        (1, match, specs.frequency_of(1, ExtractSpec.field("udp.dst_port", mask=0xFF))),
        (
            2,
            match,
            specs.rate_over_time(
                2, interval=0.005, k_sigma=2, min_samples=8, margin=8, window=64
            ),
        ),
        (
            3,
            match,
            specs.sparse_frequency_of(
                3,
                ExtractSpec.field("ipv4.dst"),
                k_sigma=4,
                min_samples=64,
                margin=6,
                cooldown=0.02,
            ),
        ),
    ]
    return config, bindings


# -- feed_drilldown -----------------------------------------------------------------

#: Offered load in lines per second: about half of what the service sustains
#: on a 2-core runner (it saturates near 5.6k lines/s there).
FEED_RATE = 2800.0
FEED_BATCH = 64
#: Every this many applied batches the imbalance binding's accept window is
#: retuned, alternating between the two windows below.
RETUNE_EVERY = 24
RETUNE_WINDOWS = ({"accept_lo": 0, "accept_hi": 128}, {"accept_lo": 0, "accept_hi": 0})
#: The imbalance binding's index in ``default_bindings()``.
IMBALANCE_BINDING = 1
BAD_SHARE = 0.01
#: Bursts: in every third one-second epoch (epochs 1, 4, 7, ...) this share
#: of the lines goes to one victim host.
BURST_EPOCH = 1.0
BURST_SHARE = 0.3
#: Benign lines cycle over this many hosts, all inside both accept windows.
FEED_HOSTS = 64
SCORE_INTERVAL = 0.1

_BAD_LINES = (
    b'{"dst": "10.0.0.999", "ts": 0.5}',
    b'{"dst": 10',
    b'{"ts": 1.0}',
    b"[1, 2]",
    b"\xff\xfe",
)


@dataclass
class FeedLine:
    due: float  # seconds after the schedule's start; also the line's ts
    data: bytes
    dst: Optional[int] = None  # None for a bad line
    sport: int = 0
    dport: int = 0


@dataclass
class FeedSchedule:
    lines: List[FeedLine]
    bursts: List[Tuple[float, float, int]]  # (start, end, victim address)
    rate: float

    @property
    def bad(self) -> int:
        return sum(1 for line in self.lines if line.dst is None)


def _dotted(address: int) -> str:
    return ".".join(str((address >> shift) & 0xFF) for shift in (24, 16, 8, 0))


def feed_schedule(seed: int, seconds: float, rate: float = FEED_RATE) -> FeedSchedule:
    """The open-loop line schedule: line ``i`` is due at ``i / rate``."""
    rng = random.Random(seed)
    count = int(rate * seconds)
    hosts = [0x0A000000 | cell for cell in rng.sample(range(128), FEED_HOSTS)]
    bad = set(rng.sample(range(count), max(1, round(count * BAD_SHARE))))
    bursts = []
    epoch = 1
    while epoch * BURST_EPOCH < seconds:
        start = epoch * BURST_EPOCH
        bursts.append((start, min(start + BURST_EPOCH, seconds), rng.choice(hosts)))
        epoch += 3
    lines: List[FeedLine] = []
    cursor = 0
    for index in range(count):
        due = index / rate
        if index in bad:
            lines.append(FeedLine(due, _BAD_LINES[index % len(_BAD_LINES)]))
            continue
        victim = next((v for s, e, v in bursts if s <= due < e), None)
        if victim is not None and rng.random() < BURST_SHARE:
            dst = victim
        else:
            dst = hosts[cursor % FEED_HOSTS]
            cursor += 1
        sport = 40000 + rng.randrange(1024)
        dport = 9000 + rng.randrange(16)
        data = json.dumps(
            {"dst": _dotted(dst), "ts": due, "sport": sport, "dport": dport}
        ).encode("ascii")
        lines.append(FeedLine(due, data, dst, sport, dport))
    return FeedSchedule(lines, bursts, rate)


def feed_truth(schedule: FeedSchedule, seconds: float) -> Any:
    """Labelled burst windows for ``score_digests``.

    A window runs from the burst's start to one retune period past its end:
    the imbalance slot keeps the victim's count until the next retune resets
    it, so alerts in that tail are the burst's, not false positives.
    """
    from repro.scenarios.truth import AttackWindow, ScenarioTruth

    lag = RETUNE_EVERY * FEED_BATCH / schedule.rate
    intervals = max(1, math.ceil(seconds / SCORE_INTERVAL))
    windows = [
        AttackWindow(
            int(start / SCORE_INTERVAL),
            min(intervals, math.ceil((end + lag) / SCORE_INTERVAL)),
            kinds=("imbalance",),
            victim_keys=(victim & 0xFF,),
        )
        for start, end, victim in schedule.bursts
    ]
    return ScenarioTruth(
        interval=SCORE_INTERVAL,
        intervals=intervals,
        windows=tuple(windows),
        alert_kinds=("imbalance",),
    )


def columnar_f1(digests: Sequence[Any], inputs: ColumnarInput) -> float:
    """F1 of the k·σ imbalance alerts against the drifting hot set.

    Counts never decay, so a cell that was hot in an earlier epoch stays
    heavy: an alert naming any cell hot so far is a true positive.  An epoch
    is detected when an alert in it names one of its own hot cells.
    Precision is over alerts, recall over epochs.
    """
    alerts = [d for d in digests if d.name == "imbalance"]
    detected: Set[int] = set()
    true_alerts = 0
    for digest in alerts:
        epoch = inputs.epoch_of(digest.timestamp)
        cell = digest.fields.get("index")
        if any(cell in hot for hot in inputs.hot[: epoch + 1]):
            true_alerts += 1
        if cell in inputs.hot[epoch]:
            detected.add(epoch)
    precision = true_alerts / len(alerts) if alerts else 1.0
    recall = len(detected) / len(inputs.hot)
    return 0.0 if precision + recall == 0 else 2 * precision * recall / (precision + recall)
