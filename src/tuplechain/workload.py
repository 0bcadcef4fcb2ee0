"""Rule set / trace / update-stream ingestion and synthetic generation.

File formats (all gzip-transparent by ``.gz`` suffix).  In every format
a ``#`` starts a comment that runs to the end of its line, lines left
blank are skipped, and an error names the file and line it was found on.

* generic rules: two header lines ``fields: d`` and ``widths: w1 .. wd``,
  then one rule per line as d ``hexvalue/hexmask`` tokens followed by a
  decimal priority.  Rule ids are the line order.
* traces: one key per line as d hex tokens.
* update streams: generic header, then ``i``/``d``, the rule tokens, the
  priority and the rule id.
* ClassBench filter sets: ``@sip/len dip/len slo : shi dlo : dhi
  proto/mask ...``; port ranges are expanded into maximal prefix blocks
  and the source line order fixes descending priorities.  Overlapping
  ranges can expand two filters into the same ``(fields, mask)`` block;
  only the first, higher-priority copy is kept, since the other can
  never win a lookup.
"""

from __future__ import annotations

import gzip
import itertools
import random
import re
import zlib
from dataclasses import dataclass

from .model import FieldSchema, Rule, SchemaError

CLASSBENCH_SCHEMA = FieldSchema((32, 32, 16, 16, 8))

# Each address is captured as its four octets, so it is read with the
# line's other decimal fields.
_CB_LINE = re.compile(
    r"^@?(\d+)\.(\d+)\.(\d+)\.(\d+)/(\d+)\s+"
    r"(\d+)\.(\d+)\.(\d+)\.(\d+)/(\d+)\s+"
    r"(\d+)\s*:\s*(\d+)\s+(\d+)\s*:\s*(\d+)\s+"
    r"(0[xX][0-9a-fA-F]+|\d+)/(0[xX][0-9a-fA-F]+|\d+)")


class ParseError(ValueError):
    def __init__(self, path, lineno, msg):
        super().__init__(f"{path}:{lineno}: {msg}")
        self.lineno = lineno


@dataclass
class RuleSetFile:
    schema: FieldSchema
    rules: list[Rule]
    # rules per source line once port ranges are expanded
    expansion_factor: float = 1.0
    # expanded blocks dropped because an earlier filter holds the same one
    shadowed_duplicates: int = 0


@dataclass
class UpdateStream:
    schema: FieldSchema
    ops: list[tuple[str, Rule]]   # ("insert"|"delete", rule)


def _open(path, mode="rt"):
    # an undecodable byte reads as U+FFFD, so the record holding it fails
    # to convert and is reported at its line
    if str(path).endswith(".gz"):
        return gzip.open(path, mode, errors="replace")
    return open(path, mode, errors="replace")


# -- range expansion ------------------------------------------------


def range_to_prefixes(lo: int, hi: int, width: int) -> list[tuple[int, int]]:
    """Maximal (value, mask) prefix blocks exactly covering [lo, hi]."""
    if not 0 <= lo <= hi < (1 << width):
        raise ValueError(f"bad range {lo}:{hi} for {width} bits")
    full = (1 << width) - 1
    out = []
    while lo <= hi:
        size = lo & -lo if lo else 1 << width
        while size > hi - lo + 1:
            size >>= 1
        out.append((lo, full ^ (size - 1)))
        lo += size
    return out


def _prefix_mask(plen: int, width: int) -> int:
    if not 0 <= plen <= width:
        raise ValueError(f"bad prefix length {plen}")
    return ((1 << width) - 1) ^ ((1 << (width - plen)) - 1)


# -- parsers --------------------------------------------------------


def _read_records(path, convert, at_end=None) -> list:
    """convert(record) for each record of the file, in file order, then
    at_end() if given.

    A record is a line with its ``#`` comment cut off and its
    whitespace stripped; lines left empty are skipped.  A ValueError
    that convert raises becomes a ParseError at the record's line, one
    that at_end raises a ParseError at the last line read (line 1 for
    an empty file).  A compressed file that ends early or holds corrupt
    data is a ParseError at the line after the last one read.
    """
    out = []
    lineno = 0
    with _open(path) as fh:
        try:
            for lineno, line in enumerate(fh, 1):
                line = line.split("#", 1)[0].strip()
                if line:
                    out.append(convert(line))
            if at_end is not None:
                at_end()
        except (EOFError, zlib.error) as exc:
            raise ParseError(path, lineno + 1, str(exc)) from exc
        except ValueError as exc:
            raise ParseError(path, max(lineno, 1), str(exc)) from exc
    return out


def _classbench_blocks(line) -> list[tuple[int, int]]:
    """The (fields, mask) blocks one ClassBench filter expands into."""
    m = _CB_LINE.match(line)
    if m is None:
        raise ValueError(f"malformed filter: {line!r}")
    *decimal, proto, pmask = m.groups()
    s1, s2, s3, s4, slen, d1, d2, d3, d4, dlen, slo, shi, dlo, dhi = \
        map(int, decimal)
    smask, dmask = _prefix_mask(slen, 32), _prefix_mask(dlen, 32)
    if s1 > 255 or s2 > 255 or s3 > 255 or s4 > 255:
        raise ValueError(f"bad IPv4 address {line[m.start(1):m.end(4)]}")
    if d1 > 255 or d2 > 255 or d3 > 255 or d4 > 255:
        raise ValueError(f"bad IPv4 address {line[m.start(6):m.end(9)]}")
    sip = ((s1 << 24) | (s2 << 16) | (s3 << 8) | s4) & smask
    dip = ((d1 << 24) | (d2 << 16) | (d3 << 8) | d4) & dmask
    pmask = int(pmask, 0)
    proto = int(proto, 0) & pmask
    sports = range_to_prefixes(slo, shi, 16)
    dports = [(v << 8, m << 8) for v, m in range_to_prefixes(dlo, dhi, 16)]
    # Packed as CLASSBENCH_SCHEMA.pack would, with the one check of its
    # that can fail here: every other field is range-checked above.
    for v in (proto, pmask):
        if v >= 1 << 8:
            raise SchemaError(f"value {v:#x} does not fit 8 bits")
    # source 32 | destination 32 | source port 16 | dest port 16 | proto 8
    fields = (sip << 72) | (dip << 40) | proto
    mask = (smask << 72) | (dmask << 40) | pmask
    out = []
    for sv, sm in sports:
        f, m = fields | (sv << 24), mask | (sm << 24)
        out += [(f | dv, m | dm) for dv, dm in dports]
    return out


def parse_classbench(path) -> RuleSetFile:
    """Parse a ClassBench filter set into expanded 5-field rules."""
    filters = _read_records(path, _classbench_blocks)
    rules = []
    seen = set()
    for seq, blocks in enumerate(filters):
        priority = len(filters) - seq   # earlier lines win
        for fields, mask in blocks:
            if (fields, mask) not in seen:
                seen.add((fields, mask))
                rules.append(Rule(fields, mask, priority, len(rules)))
    expanded = sum(map(len, filters))
    return RuleSetFile(
        CLASSBENCH_SCHEMA, rules,
        expansion_factor=len(rules) / len(filters) if filters else 1.0,
        shadowed_duplicates=expanded - len(rules))


def _read_with_header(path, convert):
    """(schema, records) of a file that opens with the ``fields: d`` and
    ``widths: w1 .. wd`` header records; convert(schema, record) reads
    each record after them."""
    head = []   # the field count, then the schema

    def record(line):
        if len(head) == 2:
            return convert(head[1], line)
        key, _, value = line.partition(":")
        if key != ("fields", "widths")[len(head)]:
            raise ValueError("missing fields/widths header")
        if head:
            widths = tuple(int(w) for w in value.split())
            if len(widths) != head[0]:
                raise ValueError(
                    f"expected {head[0]} widths, got {len(widths)}")
            head.append(FieldSchema(widths))
        else:
            head.append(int(value))

    def header_read():
        if len(head) < 2:
            raise ValueError("missing fields/widths header")

    records = _read_records(path, record, header_read)
    return head[1], records[2:]


def _parse_rule_tokens(schema, toks) -> tuple[int, int]:
    """Packed (fields, mask) of d ``hexvalue/hexmask`` tokens, in one
    pass with ``FieldSchema.pack``'s checks."""
    widths = schema.widths
    if len(toks) != len(widths):
        raise SchemaError(f"expected {len(widths)} fields, got {len(toks)}")
    fields = mask = 0
    for tok, w in zip(toks, widths):
        v, slash, m = tok.partition("/")
        if not slash:
            raise ValueError(f"bad token {tok!r}")
        v = int(v, 16)
        m = int(m, 16)
        top = 1 << w
        if not 0 <= v < top:
            raise SchemaError(f"value {v:#x} does not fit {w} bits")
        if not 0 <= m < top:
            raise SchemaError(f"value {m:#x} does not fit {w} bits")
        fields = (fields << w) | v
        mask = (mask << w) | m
    return fields, mask


def parse_generic(path) -> RuleSetFile:
    ids = itertools.count()

    def rule(schema, line):
        *toks, priority = line.split()
        fields, mask = _parse_rule_tokens(schema, toks)
        return Rule(fields, mask, int(priority), next(ids))

    return RuleSetFile(*_read_with_header(path, rule))


def _format_rule(schema, r: Rule) -> str:
    vals = schema.unpack(r.fields)
    masks = schema.unpack(r.mask)
    toks = [f"{v:x}/{m:x}" for v, m in zip(vals, masks)]
    return " ".join(toks) + f" {r.priority}"


def _write_with_header(path, schema: FieldSchema, lines) -> None:
    with _open(path, "wt") as fh:
        fh.write(f"fields: {schema.field_count}\n")
        fh.write("widths: " + " ".join(map(str, schema.widths)) + "\n")
        for line in lines:
            fh.write(line + "\n")


def write_generic(rules, schema: FieldSchema, path) -> None:
    _write_with_header(path, schema, (
        _format_rule(schema, r)
        for r in sorted(rules, key=lambda r: r.rule_id)))


def parse_trace(path, schema: FieldSchema) -> list[int]:
    return _read_records(path, lambda line: schema.pack(
        [int(t, 16) for t in line.split()]))


def write_trace(keys, schema: FieldSchema, path) -> None:
    with _open(path, "wt") as fh:
        for k in keys:
            fh.write(" ".join(f"{v:x}" for v in schema.unpack(k)) + "\n")


_UPDATE_OPS = {"i": "insert", "d": "delete"}


def _update(schema, line) -> tuple[str, Rule]:
    toks = line.split()
    if toks[0] not in _UPDATE_OPS or len(toks) < 3:
        raise ValueError("malformed update line")
    fields, mask = _parse_rule_tokens(schema, toks[1:-2])
    return _UPDATE_OPS[toks[0]], Rule(fields, mask, int(toks[-2]),
                                      int(toks[-1]))


def parse_updates(path) -> UpdateStream:
    return UpdateStream(*_read_with_header(path, _update))


def write_updates(stream: UpdateStream, path) -> None:
    schema = stream.schema
    # the tag is the op's first letter: i or d
    _write_with_header(path, schema, (
        f"{op[0]} {_format_rule(schema, r)} {r.rule_id}"
        for op, r in stream.ops))


# -- synthetic generators -------------------------------------------


@dataclass(frozen=True)
class TupleProfile:
    """Shape of a synthetic rule set's mask population.

    Masks are laid out as ``num_chains`` containment chains (each mask a
    strict superset of its predecessor) plus ``loose_masks`` unrelated
    masks, so the containment-graph density is set by construction.
    ``rule_skew`` is the zipf exponent of the rules-per-mask split.
    """

    num_masks: int = 32
    num_chains: int = 8
    loose_masks: int = 0
    rule_skew: float = 1.0
    mask_bit_prob: float = 0.35

    def __post_init__(self):
        if self.loose_masks < 0:
            raise ValueError(f"loose_masks must be >= 0, not "
                             f"{self.loose_masks}")
        chained = self.num_masks - self.loose_masks
        if chained < self.num_chains or self.num_chains < 1:
            raise ValueError(f"{chained} chained masks make 1 to {chained} "
                             f"chains, not {self.num_chains}")

    def chain_sizes(self) -> list[int]:
        chained = self.num_masks - self.loose_masks
        base, extra = divmod(chained, self.num_chains)
        return [base + (1 if i < extra else 0)
                for i in range(self.num_chains)]


def _random_mask(rng, schema, bit_prob, min_bits=1, max_bits=None):
    w = schema.total_width
    while True:
        m = 0
        for b in range(w):
            if rng.random() < bit_prob:
                m |= 1 << b
        if max_bits is not None and m.bit_count() > max_bits:
            continue
        if m.bit_count() >= min_bits:
            return m


def _gen_masks(rng, schema: FieldSchema, profile: TupleProfile) -> list[int]:
    w = schema.total_width
    sizes = profile.chain_sizes()
    # Masks are distinct and not 0, and each one in a chain holds at
    # least one bit more than the one before it.
    if max(sizes) > w:
        raise ValueError(f"a chain of {max(sizes)} masks needs at least "
                         f"{max(sizes)} key bits, not {w}")
    if profile.num_masks >= 1 << w:
        raise ValueError(f"{profile.num_masks} distinct masks do not fit "
                         f"{w} key bits")
    masks: set[int] = set()
    out = []
    for size in sizes:
        for _ in range(1000):
            # keep room for `size - 1` strict extensions
            base = _random_mask(rng, schema, profile.mask_bit_prob,
                                max_bits=w - size + 1)
            chain = [base]
            while len(chain) < size:
                free = [b for b in range(w) if not chain[-1] >> b & 1]
                if not free:
                    break   # grown too fast: draw the chain again
                grow = rng.sample(free, rng.randint(1, max(1, len(free) // 4)))
                nxt = chain[-1]
                for b in grow:
                    nxt |= 1 << b
                chain.append(nxt)
            if len(chain) == size and masks.isdisjoint(chain):
                masks.update(chain)
                out.extend(chain)
                break
        else:
            raise ValueError(f"could not draw {size} distinct nested masks "
                             f"in {w} key bits")
    for _ in range(profile.loose_masks):
        while True:
            m = _random_mask(rng, schema, profile.mask_bit_prob)
            if m not in masks:
                masks.add(m)
                out.append(m)
                break
    return out


def gen_rules(seed: int, count: int, schema: FieldSchema,
              profile: TupleProfile | None = None) -> RuleSetFile:
    """Deterministic synthetic rule set shaped by the tuple profile."""
    profile = profile or TupleProfile()
    rng = random.Random(seed)
    mask_list = _gen_masks(rng, schema, profile)
    room = sum(1 << m.bit_count() for m in mask_list)
    if count > room:
        raise ValueError(f"{len(mask_list)} masks hold at most {room} "
                         f"distinct rules, not {count}")
    weights = [1.0 / (i + 1) ** profile.rule_skew
               for i in range(len(mask_list))]
    total_w = sum(weights)
    quotas = [max(1, round(count * w / total_w)) for w in weights]
    rules: list[Rule] = []
    used: set[tuple[int, int]] = set()
    rid = 0
    for mask, quota in zip(mask_list, quotas):
        capacity = 1 << mask.bit_count()
        for _ in range(min(quota, capacity)):
            if len(rules) >= count:
                break
            for _ in range(64):
                fields = rng.getrandbits(schema.total_width) & mask
                if (mask, fields) not in used:
                    break
            else:
                break
            used.add((mask, fields))
            rules.append(Rule(fields, mask, rng.randrange(1 << 20), rid))
            rid += 1
    # top up on the widest masks if quotas undershot the request
    wide = sorted(mask_list, key=lambda m: -m.bit_count())
    wi = 0
    while len(rules) < count and wide:
        mask = wide[wi % len(wide)]
        wi += 1
        fields = rng.getrandbits(schema.total_width) & mask
        if (mask, fields) in used:
            continue
        used.add((mask, fields))
        rules.append(Rule(fields, mask, rng.randrange(1 << 20), rid))
        rid += 1
    return RuleSetFile(schema, rules)


def gen_trace(rules, seed: int, count: int, hit_ratio: float,
              schema: FieldSchema) -> list[int]:
    """hit_ratio of the keys are grown from stored rules, rest uniform."""
    if not 0.0 <= hit_ratio <= 1.0:
        raise ValueError("hit_ratio must be in [0, 1]")
    rng = random.Random(seed)
    rules = list(rules)
    full = (1 << schema.total_width) - 1
    keys = []
    for _ in range(count):
        if rules and rng.random() < hit_ratio:
            r = rng.choice(rules)
            keys.append(r.fields | (rng.getrandbits(schema.total_width)
                                    & ~r.mask & full))
        else:
            keys.append(rng.getrandbits(schema.total_width))
    return keys


def gen_updates(rules, seed: int, count: int, insert_ratio: float,
                schema: FieldSchema) -> UpdateStream:
    """Consistent insert/delete stream: deletes target live rules,
    inserts are fresh rules on the existing mask population."""
    if not 0.0 <= insert_ratio <= 1.0:
        raise ValueError("insert_ratio must be in [0, 1]")
    rng = random.Random(seed)
    live = list(rules)
    used = {(r.mask, r.fields) for r in live}
    mask_pool = sorted({r.mask for r in live})
    next_id = max((r.rule_id for r in live), default=-1) + 1
    ops = []
    for _ in range(count):
        if (rng.random() < insert_ratio or not live) and mask_pool:
            for _ in range(64):
                mask = rng.choice(mask_pool)
                fields = rng.getrandbits(schema.total_width) & mask
                if (mask, fields) not in used:
                    break
            else:
                continue
            r = Rule(fields, mask, rng.randrange(1 << 20), next_id)
            next_id += 1
            used.add((mask, fields))
            live.append(r)
            ops.append(("insert", r))
        elif live:
            i = rng.randrange(len(live))
            r = live[i]
            live[i] = live[-1]
            live.pop()
            used.discard((r.mask, r.fields))
            ops.append(("delete", r))
    return UpdateStream(schema, ops)
