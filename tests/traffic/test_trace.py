"""Tests for pcap traces, taps and replay."""

import struct

import pytest

from repro.netsim.hosts import Host
from repro.netsim.network import Network
from repro.p4 import headers as hdr
from repro.traffic.builders import udp_to
from repro.traffic.trace import PacketTrace, TraceReplayer, TraceTap


def sample_trace(n=5):
    trace = PacketTrace()
    for i in range(n):
        trace.append(1.5 + i * 0.25, udp_to(hdr.ip_to_int(f"10.0.0.{i + 1}")).data)
    return trace


class TestPcapRoundTrip:
    def test_save_load_identical(self, tmp_path):
        trace = sample_trace()
        path = str(tmp_path / "t.pcap")
        trace.save(path)
        loaded = PacketTrace.load(path)
        assert len(loaded) == len(trace)
        for original, reloaded in zip(trace, loaded):
            assert reloaded.data == original.data
            assert reloaded.timestamp == pytest.approx(original.timestamp, abs=1e-6)

    def test_global_header_is_classic_pcap(self, tmp_path):
        path = str(tmp_path / "t.pcap")
        sample_trace(1).save(path)
        with open(path, "rb") as handle:
            head = handle.read(24)
        magic, vmaj, vmin, _tz, _sig, snaplen, linktype = struct.unpack(
            "<IHHiIII", head
        )
        assert magic == 0xA1B2C3D4
        assert (vmaj, vmin) == (2, 4)
        assert linktype == 1  # ethernet

    def test_big_endian_load(self, tmp_path):
        # Write a minimal big-endian capture by hand.
        path = str(tmp_path / "be.pcap")
        payload = b"\xaa" * 20
        with open(path, "wb") as handle:
            handle.write(struct.pack(">IHHiIII", 0xA1B2C3D4, 2, 4, 0, 0, 65535, 1))
            handle.write(struct.pack(">IIII", 7, 500_000, len(payload), len(payload)))
            handle.write(payload)
        loaded = PacketTrace.load(path)
        assert len(loaded) == 1
        assert loaded.records[0].timestamp == pytest.approx(7.5)
        assert loaded.records[0].data == payload

    def test_microsecond_timestamps_load_exactly(self, tmp_path):
        path = str(tmp_path / "t.pcap")
        trace = PacketTrace()
        for i in range(5):
            trace.append(1.5 + i * 0.123457, b"\x00" * 14)
        trace.save(path)
        loaded = PacketTrace.load(path)
        for original, reloaded in zip(trace, loaded):
            seconds = int(original.timestamp)
            micros = int(round((original.timestamp - seconds) * 1_000_000))
            assert reloaded.timestamp == seconds + micros / 1_000_000

    @pytest.mark.parametrize("endian", ["<", ">"])
    def test_nanosecond_magic_load(self, tmp_path, endian):
        path = str(tmp_path / "ns.pcap")
        payload = b"\xbb" * 20
        with open(path, "wb") as handle:
            handle.write(struct.pack(endian + "IHHiIII", 0xA1B23C4D, 2, 4, 0, 0, 65535, 1))
            handle.write(struct.pack(endian + "IIII", 7, 250_000_001, len(payload), len(payload)))
            handle.write(payload)
        loaded = PacketTrace.load(path)
        assert len(loaded) == 1
        assert loaded.records[0].timestamp == 7 + 250_000_001 / 1_000_000_000
        assert loaded.records[0].data == payload

    def test_pcapng_rejected_explicitly(self, tmp_path):
        path = str(tmp_path / "x.pcapng")
        # Section header block: type, length, byte-order magic, v1.0, section length.
        block = struct.pack("<IIIHHq", 0x0A0D0D0A, 28, 0x1A2B3C4D, 1, 0, -1)
        with open(path, "wb") as handle:
            handle.write(block + struct.pack("<I", 28))
        with pytest.raises(ValueError, match="pcapng is not supported"):
            PacketTrace.load(path)

    def test_not_pcap_rejected(self, tmp_path):
        path = str(tmp_path / "x.bin")
        with open(path, "wb") as handle:
            handle.write(b"hello world, definitely not pcap")
        with pytest.raises(ValueError):
            PacketTrace.load(path)

    def test_truncated_record_rejected(self, tmp_path):
        path = str(tmp_path / "t.pcap")
        sample_trace(1).save(path)
        with open(path, "rb") as handle:
            blob = handle.read()
        with open(path, "wb") as handle:
            handle.write(blob[:-3])
        with pytest.raises(ValueError):
            PacketTrace.load(path)

    def test_duration(self):
        assert sample_trace(5).duration == pytest.approx(1.0)
        assert PacketTrace().duration == 0.0


class TestTraceTap:
    def test_transparent_and_recording(self):
        net = Network()
        a = net.add(Host("a"))
        b = net.add(Host("b"))
        tap = net.add(TraceTap("tap"))
        net.connect(a, 0, tap, 0, delay=0.001)
        net.connect(tap, 1, b, 0, delay=0.001)
        a.send(udp_to(1))
        net.run()
        b.send(udp_to(2))
        net.run()
        assert a.packets_received == 1
        assert b.packets_received == 1
        assert len(tap.trace) == 2


class TestReplay:
    def test_replay_preserves_gaps(self):
        trace = sample_trace(4)  # frames at 1.5, 1.75, 2.0, 2.25
        net = Network()
        sink = net.add(Host("sink"))
        replayer = net.add(TraceReplayer("replay", trace, start_at=10.0))
        net.connect(replayer, 0, sink, 0, delay=0.0)
        replayer.start()
        net.run()
        arrivals = [when for when, _ in sink.received]
        assert arrivals == pytest.approx([10.0, 10.25, 10.5, 10.75])
        assert replayer.replayed == 4

    def test_time_scale(self):
        trace = sample_trace(3)
        net = Network()
        sink = net.add(Host("sink"))
        replayer = net.add(TraceReplayer("replay", trace, time_scale=2.0))
        net.connect(replayer, 0, sink, 0, delay=0.0)
        replayer.start()
        net.run()
        arrivals = [when for when, _ in sink.received]
        assert arrivals == pytest.approx([0.0, 0.5, 1.0])

    def test_replayed_bytes_identical(self):
        trace = sample_trace(3)
        net = Network()
        sink = net.add(Host("sink"))
        replayer = net.add(TraceReplayer("replay", trace))
        net.connect(replayer, 0, sink, 0)
        replayer.start()
        net.run()
        assert [p.data for _, p in sink.received] == [r.data for r in trace]

    def test_record_then_replay_through_monitor(self, tmp_path):
        """End to end: capture a workload, save, load, replay — the monitor
        sees identical statistics."""
        from repro.apps.load_balance import build_load_balance_app
        from repro.p4.switch import BehavioralSwitch

        trace = PacketTrace()
        for i in range(120):
            trace.append(i * 0.001, udp_to(hdr.ip_to_int(f"10.0.1.{i % 4 + 1}")).data)
        path = str(tmp_path / "workload.pcap")
        trace.save(path)
        reloaded = PacketTrace.load(path)

        def run(capture):
            bundle = build_load_balance_app()
            switch = BehavioralSwitch("s", bundle.program)
            for record in capture:
                from repro.p4.packet import Packet

                switch.process(Packet(record.data), 0, record.timestamp)
            return bundle.stat4.read_measures(0)

        assert run(trace) == run(reloaded)

    def test_validation(self):
        with pytest.raises(ValueError):
            TraceReplayer("r", PacketTrace(), time_scale=0)
        replayer = TraceReplayer("r", PacketTrace())
        with pytest.raises(RuntimeError):
            replayer.start()
