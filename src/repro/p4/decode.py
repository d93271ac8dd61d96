# p4-ok-file — host-side wire decoder for the batched fast path; the
# per-packet parse semantics it reproduces live in repro.p4.parser.
"""Columnar wire decoding: a parse graph compiled to fixed header offsets.

:meth:`repro.p4.parser.Parser.parse` is the per-packet oracle: it walks the
state machine over one frame and builds a :class:`~repro.p4.packet.Header`
of :class:`~repro.p4.values.P4Int` fields for every header it extracts.
The batched fast path needs none of those objects.  In an acyclic,
fixed-width parse graph every header on a path sits at a byte offset fixed
by the select values read before it, so a frame is fully described by
*which path* it took.  :func:`decoder_for` compiles a parser into a trie
of those offsets:

- a node is one parser state reached at a fixed offset and depth; it knows
  the frame length its extraction needs and which bytes hold its select
  field;
- a node's successors are built on first use and kept per select value
  named in the state's transitions, plus one for every other value (the
  default), so the table never outgrows the parse graph.  A byte-aligned
  select field (every one in the standard graph) is keyed by its raw
  bytes, so a steady trace costs one slice and one dict probe per state;
  any other field is read to an int first;
- a leaf is either a reject (an undefined state, a select on a state that
  extracts nothing, or ``max_depth`` exceeded) or a :class:`Layout` — the
  header offsets of one accepted path, numbered by a dense path id.

:meth:`WireDecoder.decode` runs that walk over a batch of frames and
returns, for the frames kept, the frame bytes, sizes, path ids and
binding keys (the ``key_fields`` the decoder was built for, 0 for an
absent header).  A frame is rejected exactly when the oracle raises
:class:`~repro.p4.errors.ParseError`; anything else the oracle would raise
(a select on a field the header lacks) propagates here too.  Field values
are sliced out of the kept frame bytes only when a column asks for them
(:meth:`Layout.field`).

The oracle's quirks are the spec, not the RFCs: the standard graph reads
TCP at offset 34 whatever the IPv4 IHL says, and a VLAN-tagged frame
(``0x8100``) is accepted as Ethernet only.
"""

from __future__ import annotations

import operator
import struct
import threading
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

from repro.p4.packet import HeaderType
from repro.p4.parser import ACCEPT, Parser, ParserState

__all__ = ["FieldReader", "Layout", "Decoded", "WireDecoder", "decoder_for"]

#: ``(header, field)`` pairs a decoder reads into each row's key.
KeyFields = Tuple[Tuple[str, str], ...]

#: ``need`` of a reject leaf: no frame is long enough to pass it.
_NEVER = 1 << 62

#: Memo miss sentinel (a cached reader may legitimately be None).
_ABSENT = object()

#: struct codes of the big-endian unsigned widths struct reads natively.
_CODES = {8: "B", 16: "H", 32: "I", 64: "Q"}
#: Window size in bytes → its unpacker.
_UNPACKERS = {
    width >> 3: struct.Struct(">" + code).unpack_from for width, code in _CODES.items()
}


def field_bits(header_type: HeaderType, offset: int, name: str) -> Tuple[int, int]:
    """``(first bit, width)`` of a field of a header starting at byte
    ``offset``, the bit counted from the start of the frame.

    Raises:
        ValueRangeError: if the header type has no such field (the error
            :meth:`Header.get` raises in the oracle).
    """
    spec = header_type.field(name)
    bit = offset << 3
    for each in header_type.fields:
        if each is spec:
            break
        bit += each.width
    return bit, spec.width


def _wide_unpacker(size: int) -> Callable[[bytes, int], Tuple[int]]:
    def unpack(data: bytes, at: int) -> Tuple[int]:
        return (int.from_bytes(data[at : at + size], "big"),)

    return unpack


class FieldReader(NamedTuple):
    """How to read one field out of a frame: unpack the big-endian window
    of bytes at ``at``, then shift it right and mask it.

    The window is the smallest struct-native size (1, 2, 4 or 8 bytes)
    covering the field that fits inside ``limit`` — the bytes every frame
    on the path is known to have — or, for fields wider than 64 bits, the
    covering bytes themselves.
    """

    unpack: Callable[[bytes, int], Tuple[int, ...]]
    at: int
    shift: int
    mask: int

    @classmethod
    def build(cls, bit: int, width: int, limit: int) -> "FieldReader":
        first = bit >> 3
        last = (bit + width + 7) >> 3
        mask = (1 << width) - 1
        for size in (1, 2, 4, 8):
            at = min(first, limit - size)
            if size >= last - first and at >= 0:
                return cls(_UNPACKERS[size], at, ((at + size) << 3) - bit - width, mask)
        return cls(_wide_unpacker(last - first), first, (last << 3) - bit - width, mask)

    def read(self, data: bytes) -> int:
        """The field's value in ``data``."""
        return (self.unpack(data, self.at)[0] >> self.shift) & self.mask

    def struct_code(self) -> Optional[str]:
        """The struct code reading exactly this field, if there is one.

        A field with no shift ends on a byte boundary; if its width is
        also a native one it starts on one too, and its window is the
        field itself.
        """
        return None if self.shift else _CODES.get(self.mask.bit_length())


class Layout:
    """One accepted parse path: the offset of every header on it.

    Attributes:
        path_id: dense index of this path in its decoder's ``layouts``.
        states: the parser states visited, in order (diagnostics).
        headers: header name → ``(header type, offset)``; a header
            extracted twice keeps its last instance, as the oracle's header
            stack does.
        length: bytes the path extracts (every frame on it has as many).
        key: ``frame bytes → key`` for frames on this path, one value per
            ``key_fields`` entry (0 where its header is absent).
    """

    __slots__ = ("path_id", "states", "headers", "length", "key", "_readers")

    def __init__(
        self,
        path_id: int,
        states: Tuple[str, ...],
        headers: Dict[str, Tuple[HeaderType, int]],
        length: int,
        key_fields: KeyFields,
    ):
        self.path_id = path_id
        self.states = states
        self.headers = headers
        self.length = length
        self._readers: Dict[str, Optional[FieldReader]] = {}
        self.key = self._key_reader(key_fields)

    def __repr__(self) -> str:
        return f"Layout({self.path_id}, {' -> '.join(self.states)})"

    def field(self, source: str) -> Optional[FieldReader]:
        """The reader of ``"<header>.<field>"`` on this path (None = the
        header is absent)."""
        found = self._readers.get(source, _ABSENT)
        if found is _ABSENT:
            header_name, _, field_name = source.partition(".")
            placed = self.headers.get(header_name)
            if placed is not None:
                found = FieldReader.build(*field_bits(*placed, field_name), self.length)
            else:
                found = None
            self._readers[source] = found
        return found

    def _key_reader(self, key_fields: KeyFields) -> Callable[[bytes], Tuple[int, ...]]:
        """Build this path's key reader.

        When the key has two or more fields and every present one is a
        byte-aligned 8/16/32/64-bit field (all the standard headers) one
        precompiled ``struct`` unpack reads them in offset order and an
        ``itemgetter`` puts them in key order, with a trailing 0 standing
        in for absent headers.  Any other key falls back to per-field
        slicing.
        """
        readers = [self.field(f"{header}.{name}") for header, name in key_fields]
        present = sorted(
            (reader.at, index) for index, reader in enumerate(readers) if reader is not None
        )
        codes = [readers[index].struct_code() for _at, index in present]
        if None in codes or len(readers) < 2:
            def generic(data: bytes) -> Tuple[int, ...]:
                return tuple(0 if reader is None else reader.read(data) for reader in readers)

            return generic
        fmt = [">"]
        position = 0
        order = [len(present)] * len(readers)
        for rank, ((at, index), code) in enumerate(zip(present, codes)):
            fmt.append(f"{at - position}x{code}" if at > position else code)
            position = at + struct.calcsize(code)
            order[index] = rank
        unpack = struct.Struct("".join(fmt)).unpack_from
        arrange = operator.itemgetter(*order)
        pad = (0,)
        return lambda data: arrange(unpack(data) + pad)


class _Node:
    """One parser state reached at a fixed offset and depth."""

    __slots__ = (
        "layout",
        "need",
        "select",
        "start",
        "stop",
        "by_key",
        "fallback",
        "children",
        "decoder",
        "state",
        "offset",
        "depth",
        "trail",
        "headers",
    )

    def __init__(self, decoder: "WireDecoder"):
        self.decoder = decoder
        self.layout: Optional[Layout] = None
        self.need = 0
        self.select: Optional[FieldReader] = None
        #: Byte-aligned select field: the frame slice holding exactly it.
        self.start: Optional[int] = None
        self.stop = 0
        #: Select value named in the transitions (its raw bytes when the
        #: slice is set) → its successor, None until first used; every
        #: other value goes to ``fallback``.
        self.by_key: Dict[Any, Optional["_Node"]] = {}
        self.fallback: Optional["_Node"] = None
        #: Target state → successor, shared by every value leading there.
        self.children: Dict[str, "_Node"] = {}
        self.state: Optional[ParserState] = None
        self.offset = 0
        self.depth = 0
        self.trail: Tuple[str, ...] = ()
        self.headers: Dict[str, Tuple[HeaderType, int]] = {}

    def resolve(self, data: bytes) -> "_Node":
        """Slow path: build the successor for ``data`` on first use."""
        state = self.state
        key = None
        if self.select is None:
            if state.select_field is not None:
                # The oracle's ``header.get`` on a missing field raises
                # ValueRangeError after the extraction succeeded.
                state.extracts.field(state.select_field)
            target = state.default
        else:
            value = self.select.read(data)
            target = state.transitions.get(value, state.default)
            key = value if self.start is None else data[self.start : self.stop]
        with self.decoder.lock:
            child = self.children.get(target)
            if child is None:
                child = self.decoder.node(target, self)
                self.children[target] = child
            if key in self.by_key:
                self.by_key[key] = child
            else:
                self.fallback = child
        return child


class Decoded(NamedTuple):
    """What :meth:`WireDecoder.decode` returns, one entry per kept frame."""

    frames: List[bytes]
    timestamps: List[float]
    sizes: List[int]
    paths: List[int]
    keys: List[Tuple[int, ...]]
    rejected: int


class WireDecoder:
    """A :class:`Parser` compiled to per-path header offsets.

    Build one with :func:`decoder_for`, which caches it on the parser: like
    a P4 parse graph, a parser is compiled once and fixed from then on.
    The decoder keeps the parser's states, not the parser, so the cache
    lives and dies with the parser.

    Attributes:
        key_fields: the ``(header, field)`` pairs read into each row's key.
        layouts: every accepted path seen so far, indexed by path id
            (append-only, so path ids stay valid for batches already built).
    """

    def __init__(self, parser: Parser, key_fields: KeyFields):
        self.states = parser.states
        self.max_depth = parser.max_depth
        self.key_fields = tuple(key_fields)
        self.layouts: List[Layout] = []
        self.lock = threading.Lock()
        self.root = self.node(parser.start, None)

    def node(self, state_name: str, parent: Optional[_Node]) -> _Node:
        """Build the node for ``state_name`` entered from ``parent``.

        Mirrors one iteration of the oracle's loop: the depth cap first,
        then ``accept``, then the state lookup, then the extraction.
        """
        node = _Node(self)
        if parent is not None:
            node.depth = parent.depth + 1
            node.offset = parent.offset
            node.trail = parent.trail
            node.headers = parent.headers
        if node.depth >= self.max_depth:
            node.need = _NEVER
            return node
        if state_name == ACCEPT:
            node.layout = Layout(
                len(self.layouts), node.trail, node.headers, node.offset, self.key_fields
            )
            self.layouts.append(node.layout)
            return node
        state = self.states.get(state_name)
        if state is None:
            node.need = _NEVER
            return node
        node.state = state
        node.trail = node.trail + (state_name,)
        header_type = state.extracts
        if header_type is not None:
            node.need = node.offset + header_type.byte_width
            node.headers = dict(node.headers)
            node.headers[header_type.name] = (header_type, node.offset)
            if state.select_field is not None and any(
                spec.name == state.select_field for spec in header_type.fields
            ):
                bit, width = field_bits(header_type, node.offset, state.select_field)
                node.select = FieldReader.build(bit, width, node.need)
                if bit % 8 == 0 and width % 8 == 0:
                    node.start, node.stop = bit >> 3, (bit + width) >> 3
                    node.by_key = {
                        value.to_bytes(width >> 3, "big"): None
                        for value in state.transitions
                        if 0 <= value < 1 << width
                    }
                else:
                    node.by_key = dict.fromkeys(state.transitions)
            node.offset = node.need
        elif state.select_field is not None:
            node.need = _NEVER
        return node

    def decode(self, frames: Sequence[Any], timestamps: Sequence[float]) -> Decoded:
        """Walk every frame through the compiled graph in one pass.

        ``frames`` are byte strings (``bytearray`` / ``memoryview`` frames
        are copied to ``bytes``); ``timestamps`` pairs with them one to one.
        """
        if len(frames) != len(timestamps):
            raise ValueError(
                f"{len(frames)} frames but {len(timestamps)} timestamps"
            )
        root = self.root
        kept: List[bytes] = []
        times: List[float] = []
        sizes: List[int] = []
        paths: List[int] = []
        keys: List[Tuple[int, ...]] = []
        rejected = 0
        for data, when in zip(frames, timestamps):
            if data.__class__ is not bytes:
                data = bytes(data)
            size = len(data)
            node = root
            layout = node.layout
            while layout is None:
                if size < node.need:
                    break
                start = node.start
                if start is not None:
                    child = node.by_key.get(data[start : node.stop], node.fallback)
                elif node.select is None:
                    child = node.fallback
                else:
                    unpack, at, shift, mask = node.select
                    child = node.by_key.get(
                        (unpack(data, at)[0] >> shift) & mask, node.fallback
                    )
                if child is None:
                    child = node.resolve(data)
                node = child
                layout = node.layout
            if layout is None:
                rejected += 1
                continue
            kept.append(data)
            times.append(when)
            sizes.append(size)
            paths.append(layout.path_id)
            keys.append(layout.key(data))
        return Decoded(kept, times, sizes, paths, keys, rejected)


def decoder_for(parser: Parser, key_fields: KeyFields) -> WireDecoder:
    """The compiled decoder of ``parser`` reading ``key_fields`` into each
    row's key (built on first use, then cached on the parser itself)."""
    key_fields = tuple(key_fields)
    cache: Optional[Dict[KeyFields, WireDecoder]] = getattr(parser, "_wire_decoders", None)
    if cache is None:
        cache = parser._wire_decoders = {}
    decoder = cache.get(key_fields)
    if decoder is None:
        # Two threads racing here each build a whole decoder and one wins
        # the slot; a batch keeps the layouts of the decoder that built it.
        decoder = cache[key_fields] = WireDecoder(parser, key_fields)
    return decoder
