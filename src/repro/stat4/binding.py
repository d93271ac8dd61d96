"""Binding tables: which packets feed which distribution.

Figure 4's binding tables map packet predicates to register updates.  The
reproduction uses a fixed composite key that covers every use case in
Table 1 —

    (ether_type ternary, ipv4.dst LPM, ip.protocol ternary, tcp.flags ternary)

— so "SYN == 1" is a flags ternary, "dst 1.0/16" is an LPM, and the echo
application matches its EtherType exactly.  Each of the library's
``binding_stages`` tables yields at most one matching rule per packet;
running two stages lets the case study track the /8 rate *and* the per-/24
spread simultaneously while keeping "at most one dependency between
match-action rules" (Sec. 4).

:class:`BindingMatch` is the human-friendly way to write the composite
match; :func:`build_binding_table` constructs one stage's table.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from repro.p4 import headers as hdr
from repro.p4.switch import PacketContext
from repro.p4.tables import ActionSpec, Table, lpm_key, ternary_key

__all__ = [
    "BindingMatch",
    "MATCH_ALL",
    "build_binding_table",
    "binding_key_of",
    "BINDING_KEY_FIELDS",
    "TRACK_ACTION",
]

#: The single action of a binding table: feed the packet to a distribution.
TRACK_ACTION = "track"


@dataclass(frozen=True)
class BindingMatch:
    """A composite binding-table match, with None meaning wildcard.

    Attributes:
        ether_type: exact EtherType (e.g. 0x0800), or None for any.
        dst_prefix: ``(address, prefix_len)`` LPM on the IPv4 destination,
            or None for any.
        protocol: exact IP protocol (6 = TCP), or None for any.
        tcp_flags: ``(value, mask)`` ternary on TCP flags (e.g.
            ``(SYN, SYN)`` for "SYN set"), or None for any.
    """

    ether_type: Optional[int] = None
    dst_prefix: Optional[Tuple[int, int]] = None
    protocol: Optional[int] = None
    tcp_flags: Optional[Tuple[int, int]] = None

    def to_matches(self) -> Tuple:
        """Lower to the table's raw match tuple."""
        ether = (self.ether_type, 0xFFFF) if self.ether_type is not None else (0, 0)
        prefix = self.dst_prefix if self.dst_prefix is not None else (0, 0)
        proto = (self.protocol, 0xFF) if self.protocol is not None else (0, 0)
        flags = self.tcp_flags if self.tcp_flags is not None else (0, 0)
        return (ether, prefix, proto, flags)

    @staticmethod
    def ipv4_prefix(address: str, prefix_len: int) -> "BindingMatch":
        """Match IPv4 traffic into ``address/prefix_len``."""
        return BindingMatch(
            ether_type=hdr.ETHERTYPE_IPV4,
            dst_prefix=(hdr.ip_to_int(address), prefix_len),
        )

    @staticmethod
    def syn_packets(address: str = "0.0.0.0", prefix_len: int = 0) -> "BindingMatch":
        """Match TCP SYNs (optionally within a destination prefix)."""
        return BindingMatch(
            ether_type=hdr.ETHERTYPE_IPV4,
            dst_prefix=(hdr.ip_to_int(address), prefix_len),
            protocol=hdr.PROTO_TCP,
            tcp_flags=(hdr.TCP_FLAG_SYN, hdr.TCP_FLAG_SYN),
        )

    @staticmethod
    def echo_packets() -> "BindingMatch":
        """Match the Stat4 validation echo header (Figure 5)."""
        return BindingMatch(ether_type=hdr.ETHERTYPE_STAT4_ECHO)


#: Wildcard match — every packet feeds the distribution.
MATCH_ALL = BindingMatch()


def build_binding_table(stage: int, max_size: int = 64) -> Table:
    """Construct one binding stage's match-action table."""
    return Table(
        name=f"stat4_binding_{stage}",
        keys=[
            ternary_key("ether_type", 16),
            lpm_key("ipv4_dst", 32),
            ternary_key("ip_protocol", 8),
            ternary_key("tcp_flags", 8),
        ],
        actions=[ActionSpec(TRACK_ACTION, params=("spec",))],
        max_size=max_size,
    )


#: The composite lookup key, ``(header, field)`` in key order.  The wire
#: decoder (:mod:`repro.p4.decode`) reads the same fields out of frame bytes.
BINDING_KEY_FIELDS: Tuple[Tuple[str, str], ...] = (
    ("ethernet", "ether_type"),
    ("ipv4", "dst"),
    ("ipv4", "protocol"),
    ("tcp", "flags"),
)


def binding_key_of(ctx: PacketContext) -> Tuple[int, int, int, int]:
    """Assemble the composite lookup key from a parsed packet.

    Missing headers contribute zero fields, which wildcard entries (mask 0)
    still match — exactly how a P4 program keys on possibly-invalid headers
    by guarding with validity bits folded into the ternary mask.
    """
    parsed = ctx.parsed
    return tuple(
        parsed[header].get(name) if parsed.has(header) else 0
        for header, name in BINDING_KEY_FIELDS
    )
