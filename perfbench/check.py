"""The per-run correctness check: every fast path against scalar ``Stat4.process``.

The reference feeds the same inputs one packet at a time through a fresh
``Stat4`` (no batching, no engine, no pool) and collects the digests the
packets' contexts emit.  The run's digest stream must equal it in names,
fields, timestamps and order, and the parser must have rejected exactly the
frames the generator truncated.  The check runs outside the timed region.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

Digest = Any


def _describe(digest: Optional[Digest]) -> str:
    if digest is None:
        return "nothing"
    fields = ", ".join(f"{k}={v}" for k, v in sorted(digest.fields.items()))
    return f"{digest.name}({fields}) @ {digest.timestamp!r}"


def compare_digests(label: str, got: Sequence[Digest], want: Sequence[Digest]) -> List[str]:
    """Findings (empty when equal) for a digest stream against its reference."""
    for index in range(max(len(got), len(want))):
        a = got[index] if index < len(got) else None
        b = want[index] if index < len(want) else None
        same = (
            a is not None
            and b is not None
            and a.name == b.name
            and a.fields == b.fields
            and a.timestamp == b.timestamp
        )
        if not same:
            return [
                f"{label}: digest #{index} is {_describe(a)}, the scalar reference "
                f"has {_describe(b)} ({len(got)} vs {len(want)} digests)"
            ]
    return []


def compare_count(label: str, got: int, want: int) -> List[str]:
    if got == want:
        return []
    return [f"{label}: {got}, expected {want}"]


# -- references -------------------------------------------------------------------


def _context(parsed: Any, timestamp: float, frame_bytes: int) -> Any:
    from repro.p4.switch import PacketContext, StandardMetadata

    ctx = PacketContext(
        parsed=parsed, meta=StandardMetadata(ingress_port=0, timestamp=timestamp)
    )
    ctx.user["frame_bytes"] = frame_bytes
    return ctx


def run_scalar(stat4: Any, contexts: Iterable[Any]) -> List[Digest]:
    """``Stat4.process`` per context; the digests in emission order."""
    digests: List[Digest] = []
    for ctx in contexts:
        stat4.process(ctx)
        digests.extend(ctx.digests)
    return digests


def frame_contexts(records: Iterable[Any]) -> Tuple[List[Any], int]:
    """Parse trace records one by one; ``(contexts, rejected frames)``."""
    from repro.p4.errors import ParseError
    from repro.p4.packet import Packet
    from repro.p4.parser import standard_parser

    parser = standard_parser()
    contexts = []
    rejected = 0
    for record in records:
        try:
            parsed = parser.parse(Packet(record.data))
        except ParseError:
            rejected += 1
            continue
        contexts.append(_context(parsed, record.timestamp, len(record.data)))
    return contexts, rejected


def column_contexts(
    timestamps: Sequence[float],
    keys: Sequence[Tuple[int, int, int, int]],
    columns: Dict[str, Sequence[int]],
) -> List[Any]:
    """Contexts carrying exactly the fields a column batch holds.

    The binding key comes from ``ethernet.ether_type``, ``ipv4.dst`` and
    ``ipv4.protocol``; the value columns are ``ipv4.dst`` and
    ``udp.dst_port``.
    """
    from repro.p4.packet import HeaderType, ParsedPacket

    eth = HeaderType("ethernet", [("ether_type", 16)])
    ipv4 = HeaderType("ipv4", [("dst", 32), ("protocol", 8)])
    udp = HeaderType("udp", [("dst_port", 16)])
    ports = columns["udp.dst_port"]
    contexts = []
    for index, (ether_type, dst, protocol, _flags) in enumerate(keys):
        parsed = ParsedPacket()
        parsed.add("ethernet", eth.instance(ether_type=ether_type))
        parsed.add("ipv4", ipv4.instance(dst=dst, protocol=protocol))
        parsed.add("udp", udp.instance(dst_port=ports[index]))
        contexts.append(_context(parsed, timestamps[index], 0))
    return contexts


def feed_contexts(lines: Sequence[Any]) -> List[Any]:
    """Contexts for good feed lines, built the way a feed packet is: a UDP
    datagram to ``dst`` from 1.1.1.1, parsed by the standard parser."""
    from repro.p4.packet import Packet
    from repro.p4.parser import standard_parser
    from repro.traffic.builders import udp_to

    parser = standard_parser()
    contexts = []
    for line in lines:
        packet = udp_to(line.dst, sport=line.sport, dport=line.dport)
        contexts.append(
            _context(parser.parse(Packet(packet.data)), line.due, len(packet.data))
        )
    return contexts


def scalar_with_rebinds(
    config: Any,
    bindings: Sequence[Tuple[int, Any, Any]],
    batches: Sequence[Sequence[Any]],
    rebinds: Dict[int, Tuple[int, Dict[str, Any]]],
) -> List[Digest]:
    """The scalar loop over batches of contexts, with rebinds between them.

    ``rebinds`` maps a batch index to ``(binding index, spec overrides)``
    applied through ``Stat4Runtime.rebind`` before that batch, as the
    service applies them.
    """
    from common import build_node

    _node, stat4, runtime, handles = build_node(config, bindings, "reference")
    digests: List[Digest] = []
    for index, contexts in enumerate(batches):
        if index in rebinds:
            binding, overrides = rebinds[index]
            handle = handles[binding]
            handles[binding], _ = runtime.rebind(
                handle, spec=replace(handle.spec, **overrides)
            )
        digests.extend(run_scalar(stat4, contexts))
    return digests
