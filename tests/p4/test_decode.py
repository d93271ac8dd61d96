"""Differential tests: the compiled wire decoder against ``Parser.parse``.

``PacketBatch.from_trace`` decodes frames with the parser's compiled
:class:`~repro.p4.decode.WireDecoder`; the oracle parses the same frames
one by one with :meth:`repro.p4.parser.Parser.parse` and reads every
column through the scalar path (:meth:`ExtractSpec.extract` on a
``PacketContext`` built the way ``BehavioralSwitch`` builds it, and
:func:`binding_key_of`).  They must agree on which frames are rejected,
on the binding keys and timestamps of the rest, and column by column on
every field of every standard header plus ``frame.size`` and ``meta.*``.
"""

import gc
import weakref

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.p4 import headers as hdr
from repro.p4.decode import Layout, decoder_for
from repro.p4.errors import ParseError, ValueRangeError
from repro.p4.packet import HeaderType, Packet
from repro.p4.parser import Parser, ParserState, standard_parser
from repro.p4.switch import PacketContext, StandardMetadata
from repro.scenarios.catalog import build_scenarios
from repro.stat4.batch import PacketBatch
from repro.stat4.binding import BINDING_KEY_FIELDS, binding_key_of
from repro.stat4.extract import ExtractSpec
from repro.traffic.builders import echo_frame, tcp_to, udp_to
from repro.traffic.trace import TraceRecord

STANDARD_HEADERS = (hdr.ETHERNET, hdr.IPV4, hdr.TCP, hdr.UDP, hdr.STAT4_ECHO)

STANDARD_SOURCES = [
    f"{header.name}.{spec.name}" for header in STANDARD_HEADERS for spec in header.fields
] + ["frame.size", "meta.frame_bytes", "meta.retransmit"]

ETHERTYPE_VLAN = 0x8100


def _spec(source):
    if source == "frame.size":
        return ExtractSpec.frame_size()
    if source.startswith("meta."):
        return ExtractSpec.metadata(source[5:])
    return ExtractSpec.field(source)


def oracle(parser, frames, timestamps, sources):
    """Per-frame ``Parser.parse`` and scalar extraction of every column."""
    contexts = []
    rejected = 0
    for data, when in zip(frames, timestamps):
        try:
            parsed = parser.parse(Packet(bytes(data)))
        except ParseError:
            rejected += 1
            continue
        ctx = PacketContext(
            parsed=parsed, meta=StandardMetadata(ingress_port=0, timestamp=when)
        )
        ctx.user["frame_bytes"] = len(data)
        contexts.append(ctx)
    specs = {source: _spec(source) for source in sources}
    columns = {
        source: [spec.extract(ctx, ctx.user["frame_bytes"]) for ctx in contexts]
        for source, spec in specs.items()
    }
    return {
        "rejected": rejected,
        "timestamps": [ctx.meta.timestamp for ctx in contexts],
        "keys": [binding_key_of(ctx) for ctx in contexts],
        "columns": columns,
    }


def assert_matches_oracle(frames, parser=None, sources=STANDARD_SOURCES):
    parser = parser if parser is not None else standard_parser()
    timestamps = [index * 0.001 for index in range(len(frames))]
    batch = PacketBatch.from_trace(
        [TraceRecord(timestamp=when, data=data) for when, data in zip(timestamps, frames)],
        parser,
    )
    expected = oracle(parser, frames, timestamps, sources)
    assert batch.parse_errors == expected["rejected"]
    assert batch.timestamps == expected["timestamps"]
    assert batch.keys == expected["keys"]
    for source in sources:
        assert batch.raw_column(source) == expected["columns"][source], source
    return batch


# -- frame builders ---------------------------------------------------------------


def eth(ether_type):
    return hdr.ethernet(0x0A0000000001, 0x0A0000000002, ether_type).pack()


def ipv4_frame(protocol, ihl=5, options=b"", tail=b""):
    ip = hdr.ipv4(0x0A000001, 0x0A000102, protocol, total_len=20 + len(options))
    ip["ihl"] = ihl
    return eth(hdr.ETHERTYPE_IPV4) + ip.pack() + options + tail


def vlan_frame():
    # 802.1Q tag (TCI 0x0064) then the inner IPv4 ethertype and a TCP packet.
    inner = ipv4_frame(hdr.PROTO_TCP, tail=hdr.tcp(1234, 80).pack())[12:]
    return eth(ETHERTYPE_VLAN) + b"\x00\x64" + inner


SAMPLE_FRAMES = {
    "tcp": tcp_to(0x0A000105, flags=hdr.TCP_FLAG_SYN).data,
    "udp": udp_to(0x0A000203).data,
    "icmp": ipv4_frame(1, tail=b"\x08\x00" + bytes(30)),
    "echo": echo_frame(-17).data,
    "arp": eth(0x0806) + bytes(28),
    "vlan": vlan_frame(),
    "ihl6": ipv4_frame(hdr.PROTO_TCP, ihl=6, options=b"\x01\x02\x03\x04",
                       tail=hdr.tcp(99, 443, flags=0x12).pack()),
    "ihl15_udp": ipv4_frame(hdr.PROTO_UDP, ihl=15, options=bytes(40),
                            tail=hdr.udp(53, 53).pack()),
}


# -- standard graph -------------------------------------------------------------


def test_all_catalog_frames():
    """Every distinct frame of every catalog scenario (decoding depends on
    the bytes alone, and the catalog repeats a few hundred frames)."""
    frames = list(
        dict.fromkeys(record.data for scenario in build_scenarios() for record in scenario.trace)
    )
    batch = assert_matches_oracle(frames)
    assert len(batch) == len(frames)


@pytest.mark.parametrize("name", sorted(SAMPLE_FRAMES))
def test_every_truncation(name):
    """Every prefix: each header boundary, and one byte either side."""
    frame = SAMPLE_FRAMES[name]
    assert_matches_oracle([frame[:cut] for cut in range(len(frame) + 1)])


def test_ihl_is_ignored_like_the_oracle():
    """The standard graph reads TCP at offset 34 whatever IHL says."""
    frame = SAMPLE_FRAMES["ihl6"]
    batch = assert_matches_oracle([frame])
    assert batch.raw_column("ipv4.ihl") == [6]
    assert batch.raw_column("tcp.src_port") == [0x0102]


def test_vlan_frames_are_ethernet_only():
    batch = assert_matches_oracle([SAMPLE_FRAMES["vlan"]])
    assert batch.keys == [(ETHERTYPE_VLAN, 0, 0, 0)]
    assert batch.raw_column("ipv4.dst") == [None]


def test_echo_frames():
    frames = [echo_frame(value).data for value in (-255, -1, 0, 7, 255)]
    batch = assert_matches_oracle(frames)
    assert batch.raw_column("stat4_echo.value") == [
        value + hdr.ECHO_VALUE_OFFSET for value in (-255, -1, 0, 7, 255)
    ]


def test_non_bytes_frames_decode_like_bytes():
    frame = SAMPLE_FRAMES["tcp"]
    batch = PacketBatch.from_packets(
        [Packet(bytearray(frame)), Packet(memoryview(frame))], standard_parser()
    )
    assert batch.keys == [binding_key_of_frame(frame)] * 2


def binding_key_of_frame(frame):
    ctx = PacketContext(
        parsed=standard_parser().parse(Packet(frame)),
        meta=StandardMetadata(ingress_port=0, timestamp=0.0),
    )
    return binding_key_of(ctx)


@st.composite
def wire_frames(draw):
    """Structured frames around the standard graph's decision points."""
    ether_type = draw(
        st.sampled_from(
            [hdr.ETHERTYPE_IPV4, hdr.ETHERTYPE_STAT4_ECHO, ETHERTYPE_VLAN, 0x86DD, 0x0806]
        )
        | st.integers(0, 0xFFFF)
    )
    frame = eth(ether_type)
    if ether_type == hdr.ETHERTYPE_IPV4:
        protocol = draw(st.sampled_from([hdr.PROTO_TCP, hdr.PROTO_UDP, 1]) | st.integers(0, 255))
        ihl = draw(st.integers(0, 15))
        frame = ipv4_frame(protocol, ihl=ihl)
    frame += draw(st.binary(max_size=64))
    cut = draw(st.integers(0, len(frame)))
    return frame[:cut] if draw(st.booleans()) else frame


@st.composite
def corrupted_frames(draw):
    frame = bytearray(SAMPLE_FRAMES[draw(st.sampled_from(sorted(SAMPLE_FRAMES)))])
    for _ in range(draw(st.integers(1, 4))):
        frame[draw(st.integers(0, len(frame) - 1))] = draw(st.integers(0, 255))
    return bytes(frame[: draw(st.integers(0, len(frame)))])


@settings(deadline=None, max_examples=60, suppress_health_check=[HealthCheck.too_slow])
@given(frames=st.lists(wire_frames() | corrupted_frames() | st.binary(max_size=80), max_size=24))
def test_fuzzed_frames(frames):
    assert_matches_oracle(frames)


# -- custom graphs ----------------------------------------------------------------

TAG = HeaderType("tag", [("more", 8)])
NARROW_ETH = HeaderType("ethernet", [("pad", 4), ("ether_type", 12)])


def looping_parser(max_depth):
    """``tag`` headers chained while ``more`` is 1: a cycle only the depth
    cap ends."""
    states = {
        "start": ParserState(
            "start", extracts=TAG, select_field="more", transitions={1: "start"}
        )
    }
    return Parser(states, start="start", max_depth=max_depth)


@pytest.mark.parametrize("max_depth", [0, 1, 2, 5])
def test_cycle_hits_max_depth(max_depth):
    frames = [bytes([1] * ones + [0]) for ones in range(8)] + [b"", b"\x01", b"\x02\x01"]
    assert_matches_oracle(frames, looping_parser(max_depth), ["tag.more", "frame.size"])


def odd_parser():
    """Undefined states, a select on a state that extracts nothing, a
    sub-byte select field and a key field that is not byte aligned."""
    states = {
        "start": ParserState(
            "start",
            extracts=NARROW_ETH,
            select_field="ether_type",
            transitions={0x800: "ip", 0x123: "nowhere", 0x456: "peek"},
        ),
        "ip": ParserState(
            "ip", extracts=hdr.IPV4, select_field="version", transitions={4: "tcp", 6: "gone"}
        ),
        "tcp": ParserState("tcp", extracts=hdr.TCP),
        "peek": ParserState("peek", select_field="more", transitions={1: "tcp"}),
    }
    return Parser(states, start="start")


def test_custom_graph_rejects_like_the_oracle():
    ip_tcp = ipv4_frame(hdr.PROTO_TCP, tail=hdr.tcp(1, 2, flags=0x18).pack())[14:]
    frames = []
    for head in (0x0800, 0x1123, 0xF456, 0x0999):
        frames.append(head.to_bytes(2, "big") + ip_tcp)
    version6 = bytearray(ip_tcp)
    version6[0] = 0x65
    frames.append(b"\x08\x00" + bytes(version6))
    frames.append(b"\x08\x00" + ip_tcp[:25])
    sources = ["ethernet.ether_type", "ethernet.pad", "ipv4.version", "ipv4.dst", "tcp.flags"]
    batch = assert_matches_oracle(frames, odd_parser(), sources)
    assert batch.parse_errors == 4
    assert batch.keys[0] == (0x800, 0x0A000102, hdr.PROTO_TCP, 0x18)


WIDE = HeaderType("wide", [("nib", 4), ("blob", 72), ("odd", 3), ("tail", 9), ("byte", 8)])


@settings(deadline=None, max_examples=30)
@given(frames=st.lists(st.binary(min_size=10, max_size=14), max_size=8))
def test_unaligned_and_wide_fields(frames):
    """Fields cut out of sub-byte and wider-than-64-bit windows."""
    parser = Parser({"start": ParserState("start", extracts=WIDE)}, start="start")
    sources = [f"wide.{spec.name}" for spec in WIDE.fields]
    assert_matches_oracle(frames + [b"\x01" * 11], parser, sources)


def test_select_on_missing_field_raises_like_the_oracle():
    states = {"start": ParserState("start", extracts=TAG, select_field="nope")}
    parser = Parser(states, start="start")
    with pytest.raises(ValueRangeError):
        parser.parse(Packet(b"\x01"))
    with pytest.raises(ValueRangeError):
        PacketBatch.from_packets([Packet(b"\x01")], parser)
    # Too short for the extraction: both reject before the select.
    assert PacketBatch.from_packets([Packet(b"")], parser).parse_errors == 1


# -- decoder plumbing -------------------------------------------------------------


def test_decoder_compiled_once_per_parser():
    parser = standard_parser()
    decoder = decoder_for(parser, BINDING_KEY_FIELDS)
    assert decoder_for(parser, BINDING_KEY_FIELDS) is decoder
    assert decoder_for(standard_parser(), BINDING_KEY_FIELDS) is not decoder
    assert decoder_for(parser, BINDING_KEY_FIELDS[:2]) is not decoder


def test_decoder_dies_with_its_parser():
    """The cached decoder must not keep its parser alive."""
    parser = standard_parser()
    PacketBatch.from_packets([Packet(SAMPLE_FRAMES["tcp"])], parser)
    alive = weakref.ref(parser)
    del parser
    gc.collect()
    assert alive() is None


def test_key_fields_follow_the_binding_key():
    """The decoder reads exactly the fields ``binding_key_of`` keys on."""
    parser = standard_parser()
    frames = list(SAMPLE_FRAMES.values())
    decoded = decoder_for(parser, BINDING_KEY_FIELDS[::-1]).decode(frames, [0.0] * len(frames))
    expected = [key[::-1] for key in PacketBatch.from_packets(
        [Packet(frame) for frame in frames], parser
    ).keys]
    assert decoded.keys == expected


def test_standard_graph_has_five_paths():
    parser = standard_parser()
    assert_matches_oracle(list(SAMPLE_FRAMES.values()), parser)
    layouts = decoder_for(parser, BINDING_KEY_FIELDS).layouts
    assert sorted(layout.states for layout in layouts) == sorted(
        [
            ("start",),
            ("start", "parse_echo"),
            ("start", "parse_ipv4"),
            ("start", "parse_ipv4", "parse_tcp"),
            ("start", "parse_ipv4", "parse_udp"),
        ]
    )


def test_successor_table_never_outgrows_the_graph():
    """Distinct select values share the default successor instead of each
    adding an entry."""
    parser = standard_parser()
    frames = [eth(ether_type) + bytes(40) for ether_type in range(0x0800, 0x0900)]
    assert_matches_oracle(frames + list(SAMPLE_FRAMES.values()), parser)
    root = decoder_for(parser, BINDING_KEY_FIELDS).root
    transitions = parser.states["start"].transitions
    assert set(root.by_key) == {value.to_bytes(2, "big") for value in transitions}
    assert len(root.children) <= len(root.by_key) + 1


def test_non_parse_errors_propagate(monkeypatch):
    """Only what the oracle rejects counts as a parse error; a bug raised
    while decoding surfaces instead of being counted."""

    def broken(self, key_fields):
        def key(data):
            raise TypeError("broken layout")

        return key

    monkeypatch.setattr(Layout, "_key_reader", broken)
    with pytest.raises(TypeError, match="broken layout"):
        PacketBatch.from_packets([Packet(SAMPLE_FRAMES["udp"])], standard_parser())
