"""Field schemas, rules and the match/ordering primitives.

Field vectors (packet keys, rule fields, masks) are packed into a single
Python int, field 0 in the most significant position.  Per-field bitwise
subset tests and maskings are equivalent to the same operation on the
packed int because fields never cross their bit boundaries, so the hot
path is a couple of native big-int ops regardless of the field count.
"""

from __future__ import annotations

from dataclasses import dataclass, field

# Priority reported for a miss; ``Rule`` refuses any priority at or
# below it, so it is below every storable rule priority.
MISS_PRIORITY = -(2**63)


class SchemaError(ValueError):
    """A value does not fit the schema it is used with."""


@dataclass(frozen=True, slots=True)
class FieldSchema:
    """Bit widths of the fields a classifier matches on."""

    widths: tuple[int, ...]
    # stored once: every build and insert checks rule masks against it
    total_width: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.widths:
            raise SchemaError("schema needs at least one field")
        for w in self.widths:
            if not 1 <= w <= 128:
                raise SchemaError(f"field width {w} out of range 1..128")
        object.__setattr__(self, "total_width", sum(self.widths))

    @property
    def field_count(self) -> int:
        return len(self.widths)

    def pack(self, values) -> int:
        """Concatenate per-field values into one int (field 0 highest)."""
        values = tuple(values)
        if len(values) != len(self.widths):
            raise SchemaError(
                f"expected {len(self.widths)} fields, got {len(values)}")
        out = 0
        for v, w in zip(values, self.widths):
            if not 0 <= v < (1 << w):
                raise SchemaError(f"value {v:#x} does not fit {w} bits")
            out = (out << w) | v
        return out

    def unpack(self, packed: int) -> tuple[int, ...]:
        if not 0 <= packed < (1 << self.total_width):
            raise SchemaError(f"{packed:#x} does not fit schema")
        out = []
        for w in reversed(self.widths):
            out.append(packed & ((1 << w) - 1))
            packed >>= w
        return tuple(reversed(out))


@dataclass(frozen=True, slots=True)
class Rule:
    """A d-field wildcard rule: masked field values plus a priority.

    ``fields`` must be mask-canonical (bits outside ``mask`` cleared);
    ``priority`` must be above ``MISS_PRIORITY``; ``rule_id`` breaks
    priority ties and identifies the rule on delete.
    """

    fields: int
    mask: int
    priority: int
    rule_id: int

    def __post_init__(self):
        if self.mask < 0:
            raise ValueError(f"rule mask {self.mask:#x} is negative")
        if self.fields & self.mask != self.fields:
            raise ValueError(
                f"rule fields {self.fields:#x} not canonical under mask "
                f"{self.mask:#x}")
        if self.rule_id < 0:
            raise ValueError("rule_id must be non-negative")
        if self.priority <= MISS_PRIORITY:
            raise ValueError(f"rule priority {self.priority} is not above "
                             f"the miss priority {MISS_PRIORITY}")

    def sort_key(self) -> tuple[int, int]:
        # Higher priority wins; ties go to the smaller id.
        return (self.priority, -self.rule_id)


# Not frozen: every lookup builds one, and a frozen dataclass's
# ``__init__`` (``object.__setattr__`` per field) costs over twice as much.
@dataclass(slots=True)
class MatchResult:
    """Outcome of one lookup: best rule (or miss) plus probe count."""

    rule: Rule | None
    probes: int

    @property
    def priority(self) -> int:
        return self.rule.priority if self.rule is not None else MISS_PRIORITY

    @property
    def rule_id(self) -> int | None:
        return self.rule.rule_id if self.rule is not None else None


def matches(key: int, rule: Rule) -> bool:
    """True iff the packet key matches the rule (key & mask == fields)."""
    return key & rule.mask == rule.fields


def mask_less_than(a: int, b: int) -> bool:
    """Strict tuple order: every set bit of a is set in b, and a != b."""
    return a != b and a & b == a


def best_rule(a: Rule | None, b: Rule | None) -> Rule | None:
    """The preferred of two optional rules; a miss loses to any hit."""
    if a is None:
        return b
    if b is None:
        return a
    # sort_key order, without building the two tuples
    if a.priority != b.priority:
        return a if a.priority > b.priority else b
    return a if a.rule_id <= b.rule_id else b
