"""A behavioral-model simulator of a P4-programmable switch.

Models the parts of P4 and of programmable switch hardware that the paper's
techniques are shaped by: fixed-width wrapping unsigned arithmetic with no
division (:mod:`repro.p4.values`), byte-exact packet parsing
(:mod:`repro.p4.packet`, :mod:`repro.p4.headers`) and its columnar
counterpart for the batched path (:mod:`repro.p4.decode`), register arrays
(:mod:`repro.p4.registers`), match-action tables with exact/LPM/ternary
matching and runtime entry management (:mod:`repro.p4.tables`), a
parser→ingress→egress pipeline with dependency accounting
(:mod:`repro.p4.pipeline`), and digests pushed to the controller
(:mod:`repro.p4.switch`).
"""

from repro.p4.errors import (
    P4Error,
    ParseError,
    PipelineError,
    RegisterIndexError,
    ResourceError,
    TableError,
    UnsupportedOperationError,
    ValueRangeError,
    WidthMismatchError,
)
from repro.p4.values import (
    BMV2,
    SOFTWARE,
    TOFINO_LIKE,
    P4Int,
    TargetProfile,
    active_target,
    checked_multiply,
    set_target,
    u8,
    u16,
    u32,
    u48,
    u64,
    use_target,
)

__all__ = [
    "P4Error",
    "ParseError",
    "PipelineError",
    "RegisterIndexError",
    "ResourceError",
    "TableError",
    "UnsupportedOperationError",
    "ValueRangeError",
    "WidthMismatchError",
    "BMV2",
    "SOFTWARE",
    "TOFINO_LIKE",
    "P4Int",
    "TargetProfile",
    "active_target",
    "checked_multiply",
    "set_target",
    "u8",
    "u16",
    "u32",
    "u48",
    "u64",
    "use_target",
]
