# p4-ok-file — host-side traffic generation, not data-plane code.
"""Packet traces: record to and replay from real pcap files.

Experiments become portable when their workloads are files: a recorded
trace can be inspected with tcpdump/wireshark (the format is classic pcap,
microsecond resolution, LINKTYPE_ETHERNET), archived next to results, and
replayed bit-exactly through any switch program.

- :class:`PacketTrace` — an in-memory list of (timestamp, bytes) records
  with pcap save/load;
- :class:`TraceTap` — a transparent two-port node that records everything
  flowing through it;
- :class:`TraceReplayer` — a source node that plays a trace back on its
  original timestamps (optionally time-shifted or rate-scaled).
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Any, Iterator, List, Optional, Tuple

from repro.netsim.network import Network
from repro.p4.packet import Packet

__all__ = ["TraceRecord", "PacketTrace", "TraceTap", "TraceReplayer"]

#: Classic pcap global header: magic, v2.4, UTC, 0 sigfigs, snaplen, ethernet.
_PCAP_MAGIC = 0xA1B2C3D4
#: Nanosecond-resolution classic pcap (read only).
_PCAP_MAGIC_NS = 0xA1B23C4D
#: Sub-second units per second, by magic.
_FRACTION_SCALE = {_PCAP_MAGIC: 1_000_000, _PCAP_MAGIC_NS: 1_000_000_000}
#: pcapng's section header block type (the same bytes in either order).
_PCAPNG_MAGIC = b"\x0a\x0d\x0d\x0a"
_PCAP_VERSION = (2, 4)
_LINKTYPE_ETHERNET = 1
_GLOBAL_HEADER = struct.Struct("<IHHiIII")
_RECORD_HEADER = struct.Struct("<IIII")


@dataclass(frozen=True)
class TraceRecord:
    """One captured frame."""

    timestamp: float
    data: bytes

    def __len__(self) -> int:
        return len(self.data)


class PacketTrace:
    """An ordered packet capture with pcap (de)serialization."""

    def __init__(self, records: Optional[List[TraceRecord]] = None):
        self.records: List[TraceRecord] = list(records or [])

    def append(self, timestamp: float, data: bytes) -> None:
        """Add one frame (timestamps should be non-decreasing)."""
        self.records.append(TraceRecord(timestamp=timestamp, data=data))

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self) -> Iterator[TraceRecord]:
        return iter(self.records)

    def iter_batches(self, size: int) -> Iterator[List[TraceRecord]]:
        """Yield the records in consecutive chunks of at most ``size``.

        The unit of work for the batched fast path: feed each chunk to
        :meth:`repro.stat4.batch.PacketBatch.from_trace`.
        """
        if size <= 0:
            raise ValueError("batch size must be positive")
        for start in range(0, len(self.records), size):
            yield self.records[start : start + size]

    def iter_packet_batches(self, parser: Any, size: int) -> Iterator[Any]:
        """Yield decoded :class:`~repro.stat4.batch.PacketBatch` chunks.

        The pipeline entry point from wire bytes: each chunk of records is
        decoded in one pass by the parser's compiled
        :class:`~repro.p4.decode.WireDecoder` — timestamps, frame sizes
        and binding keys at once, header fields sliced from the frame
        bytes only when a binding reads them — ready for
        ``BatchEngine.process`` / ``ParallelBatchEngine.process``.
        Frames the parser rejects are counted in each batch's
        ``parse_errors``.
        """
        from repro.stat4.batch import PacketBatch

        for chunk in self.iter_batches(size):
            yield PacketBatch.from_trace(chunk, parser)

    @property
    def duration(self) -> float:
        """Time span between first and last frame."""
        if len(self.records) < 2:
            return 0.0
        return self.records[-1].timestamp - self.records[0].timestamp

    # -- pcap I/O ------------------------------------------------------------

    def save(self, path: str, snaplen: int = 65535) -> None:
        """Write a classic little-endian pcap file."""
        with open(path, "wb") as handle:
            handle.write(
                _GLOBAL_HEADER.pack(
                    _PCAP_MAGIC,
                    _PCAP_VERSION[0],
                    _PCAP_VERSION[1],
                    0,
                    0,
                    snaplen,
                    _LINKTYPE_ETHERNET,
                )
            )
            for record in self.records:
                seconds = int(record.timestamp)
                micros = int(round((record.timestamp - seconds) * 1_000_000))
                if micros >= 1_000_000:
                    seconds += 1
                    micros -= 1_000_000
                handle.write(
                    _RECORD_HEADER.pack(
                        seconds, micros, len(record.data), len(record.data)
                    )
                )
                handle.write(record.data)

    @classmethod
    def load(cls, path: str) -> "PacketTrace":
        """Read a classic pcap file.

        Accepts either byte order at microsecond (``0xa1b2c3d4``) or
        nanosecond (``0xa1b23c4d``) resolution.

        Raises:
            ValueError: if the file is pcapng, not a classic pcap capture,
                or truncated.
        """
        with open(path, "rb") as handle:
            blob = handle.read()
        if blob[:4] == _PCAPNG_MAGIC:
            raise ValueError(f"{path}: pcapng is not supported (classic pcap only)")
        if len(blob) < _GLOBAL_HEADER.size:
            raise ValueError(f"{path}: truncated pcap header")
        for endian in "<>":
            scale = _FRACTION_SCALE.get(struct.unpack(endian + "I", blob[:4])[0])
            if scale is not None:
                break
        else:
            raise ValueError(f"{path}: not a classic pcap file")
        record_header = struct.Struct(endian + "IIII")
        offset = _GLOBAL_HEADER.size
        records: List[TraceRecord] = []
        while offset + record_header.size <= len(blob):
            seconds, fraction, caplen, _origlen = record_header.unpack_from(
                blob, offset
            )
            offset += record_header.size
            data = blob[offset : offset + caplen]
            if len(data) != caplen:
                raise ValueError(f"{path}: truncated packet record")
            offset += caplen
            records.append(TraceRecord(timestamp=seconds + fraction / scale, data=data))
        return cls(records)


class TraceTap:
    """A transparent bump-in-the-wire that records traversing packets.

    Wire it between two nodes: traffic entering port 0 leaves port 1 and
    vice versa, with every frame (and its arrival time) appended to the
    trace.
    """

    def __init__(self, name: str, trace: Optional[PacketTrace] = None):
        self.name = name
        self.trace = trace if trace is not None else PacketTrace()
        self.network: Optional[Network] = None

    def attach(self, network: Network) -> None:
        """Network callback on :meth:`Network.add`."""
        self.network = network

    def receive(self, message: Any, port: int, now: float) -> None:
        """Record and forward to the opposite port."""
        assert self.network is not None
        if isinstance(message, Packet):
            self.trace.append(now, message.data)
        self.network.transmit(self, 1 - port, message)


class TraceReplayer:
    """Plays a :class:`PacketTrace` back into the network.

    Args:
        name: node name.
        trace: the capture to replay.
        time_scale: >1 slows the trace down, <1 speeds it up.
        start_at: simulation time of the first frame (original inter-frame
            gaps are preserved, scaled).
    """

    def __init__(
        self,
        name: str,
        trace: PacketTrace,
        time_scale: float = 1.0,
        start_at: float = 0.0,
    ):
        if time_scale <= 0:
            raise ValueError("time_scale must be positive")
        self.name = name
        self.trace = trace
        self.time_scale = time_scale
        self.start_at = start_at
        self.network: Optional[Network] = None
        self.replayed = 0

    def attach(self, network: Network) -> None:
        """Network callback on :meth:`Network.add`."""
        self.network = network

    def receive(self, message: Any, port: int, now: float) -> None:
        """Replayers ignore inbound traffic."""

    def start(self) -> None:
        """Schedule every frame of the trace."""
        if self.network is None:
            raise RuntimeError(f"replayer {self.name!r} is not attached")
        if not self.trace.records:
            return
        base = self.trace.records[0].timestamp

        def send(record: TraceRecord, when: float):
            def fire():
                assert self.network is not None
                self.network.transmit(
                    self, 0, Packet(record.data, created_at=when)
                )
                self.replayed += 1

            return fire

        for record in self.trace.records:
            when = self.start_at + (record.timestamp - base) * self.time_scale
            self.network.sim.schedule_at(when, send(record, when))
