"""Rule set / trace / update-stream ingestion and synthetic generation.

File formats (all gzip-transparent by ``.gz`` suffix):

* generic rules: two header lines ``fields: d`` and ``widths: w1 .. wd``,
  then one rule per line as d ``hexvalue/hexmask`` tokens followed by a
  decimal priority.  Rule ids are the line order.
* traces: one key per line as d hex tokens, optionally followed by a
  ``# expected=<pri>`` comment.
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
import random
import re
from dataclasses import dataclass, field

from .model import FieldSchema, Rule

CLASSBENCH_SCHEMA = FieldSchema((32, 32, 16, 16, 8))

_CB_LINE = re.compile(
    r"^@?(\d+\.\d+\.\d+\.\d+)/(\d+)\s+(\d+\.\d+\.\d+\.\d+)/(\d+)\s+"
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
    provenance: dict = field(default_factory=dict)

    @property
    def expansion_factor(self) -> float:
        return self.provenance.get("expansion_factor", 1.0)


@dataclass
class UpdateStream:
    schema: FieldSchema
    ops: list[tuple[str, Rule]]   # ("insert"|"delete", rule)


def _open(path, mode="rt"):
    if str(path).endswith(".gz"):
        return gzip.open(path, mode)
    return open(path, mode)


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


def _ip_to_int(s: str) -> int:
    parts = [int(p) for p in s.split(".")]
    if len(parts) != 4 or any(not 0 <= p <= 255 for p in parts):
        raise ValueError(f"bad IPv4 address {s}")
    return (parts[0] << 24) | (parts[1] << 16) | (parts[2] << 8) | parts[3]


def _prefix_mask(plen: int, width: int) -> int:
    if not 0 <= plen <= width:
        raise ValueError(f"bad prefix length {plen}")
    return ((1 << width) - 1) ^ ((1 << (width - plen)) - 1)


# -- parsers --------------------------------------------------------


def parse_classbench(path) -> RuleSetFile:
    """Parse a ClassBench filter set into expanded 5-field rules."""
    schema = CLASSBENCH_SCHEMA
    raw = []
    with _open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            m = _CB_LINE.match(line)
            if m is None:
                raise ParseError(path, lineno, f"malformed filter: {line!r}")
            raw.append((lineno, m.groups()))
    rules = []
    seen = set()
    expanded = 0
    for seq, (lineno, g) in enumerate(raw):
        try:
            sip, dip = _ip_to_int(g[0]), _ip_to_int(g[2])
            smask, dmask = _prefix_mask(int(g[1]), 32), _prefix_mask(int(g[3]), 32)
            slo, shi, dlo, dhi = int(g[4]), int(g[5]), int(g[6]), int(g[7])
            proto, pmask = int(g[8], 0), int(g[9], 0)
            sblocks = range_to_prefixes(slo, shi, 16)
            dblocks = range_to_prefixes(dlo, dhi, 16)
        except ValueError as exc:
            raise ParseError(path, lineno, str(exc)) from exc
        priority = len(raw) - seq   # earlier lines win
        expanded += len(sblocks) * len(dblocks)
        for sv, sm in sblocks:
            for dv, dm in dblocks:
                fields = schema.pack((sip & smask, dip & dmask, sv, dv,
                                      proto & pmask))
                mask = schema.pack((smask, dmask, sm, dm, pmask))
                if (fields, mask) not in seen:
                    seen.add((fields, mask))
                    rules.append(Rule(fields, mask, priority, len(rules)))
    return RuleSetFile(schema, rules, {
        "format": "classbench",
        "path": str(path),
        "source_rules": len(raw),
        "shadowed_duplicates": expanded - len(rules),
        "expansion_factor": len(rules) / len(raw) if raw else 1.0,
    })


def _parse_header(fh, path):
    lines = []
    for lineno, line in enumerate(fh, 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        lines.append((lineno, line))
        if len(lines) == 2:
            break
    if len(lines) < 2 or not lines[0][1].startswith("fields:") \
            or not lines[1][1].startswith("widths:"):
        raise ParseError(path, lines[0][0] if lines else 0,
                         "missing fields/widths header")
    d = int(lines[0][1].split(":", 1)[1])
    widths = tuple(int(w) for w in lines[1][1].split(":", 1)[1].split())
    if len(widths) != d:
        raise ParseError(path, lines[1][0],
                         f"expected {d} widths, got {len(widths)}")
    return FieldSchema(widths)


def _parse_rule_tokens(schema, toks, path, lineno):
    values, masks = [], []
    for tok, w in zip(toks, schema.widths):
        try:
            v, m = tok.split("/")
            v, m = int(v, 16), int(m, 16)
        except ValueError as exc:
            raise ParseError(path, lineno, f"bad token {tok!r}") from exc
        if v >= (1 << w) or m >= (1 << w):
            raise ParseError(path, lineno, f"token {tok!r} overflows "
                             f"{w} bits")
        if v & m != v:
            raise ParseError(path, lineno,
                             f"value {v:#x} not canonical under {m:#x}")
        values.append(v)
        masks.append(m)
    return schema.pack(values), schema.pack(masks)


def parse_generic(path) -> RuleSetFile:
    with _open(path) as fh:
        schema = _parse_header(fh, path)
        rules = []
        for lineno, line in enumerate(fh, 3):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            toks = line.split()
            if len(toks) != schema.field_count + 1:
                raise ParseError(path, lineno,
                                 f"expected {schema.field_count} field "
                                 f"tokens and a priority")
            fields, mask = _parse_rule_tokens(schema, toks, path, lineno)
            rules.append(Rule(fields, mask, int(toks[-1]), len(rules)))
    return RuleSetFile(schema, rules,
                       {"format": "generic", "path": str(path)})


def _format_rule(schema, r: Rule) -> str:
    vals = schema.unpack(r.fields)
    masks = schema.unpack(r.mask)
    toks = [f"{v:x}/{m:x}" for v, m in zip(vals, masks)]
    return " ".join(toks) + f" {r.priority}"


def write_generic(rules, schema: FieldSchema, path) -> None:
    with _open(path, "wt") as fh:
        fh.write(f"fields: {schema.field_count}\n")
        fh.write("widths: " + " ".join(map(str, schema.widths)) + "\n")
        for r in sorted(rules, key=lambda r: r.rule_id):
            fh.write(_format_rule(schema, r) + "\n")


def parse_trace(path, schema: FieldSchema) -> list[int]:
    keys = []
    with _open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            toks = line.split()
            if len(toks) != schema.field_count:
                raise ParseError(path, lineno,
                                 f"expected {schema.field_count} tokens")
            try:
                keys.append(schema.pack(tuple(int(t, 16) for t in toks)))
            except ValueError as exc:
                raise ParseError(path, lineno, str(exc)) from exc
    return keys


def write_trace(keys, schema: FieldSchema, path, expected=None) -> None:
    with _open(path, "wt") as fh:
        for i, k in enumerate(keys):
            line = " ".join(f"{v:x}" for v in schema.unpack(k))
            if expected is not None:
                line += f"  # expected={expected[i]}"
            fh.write(line + "\n")


def parse_updates(path) -> UpdateStream:
    with _open(path) as fh:
        schema = _parse_header(fh, path)
        ops = []
        for lineno, line in enumerate(fh, 3):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            toks = line.split()
            if len(toks) != schema.field_count + 3 or toks[0] not in ("i", "d"):
                raise ParseError(path, lineno, "malformed update line")
            fields, mask = _parse_rule_tokens(schema, toks[1:-2],
                                              path, lineno)
            r = Rule(fields, mask, int(toks[-2]), int(toks[-1]))
            ops.append(("insert" if toks[0] == "i" else "delete", r))
    return UpdateStream(schema, ops)


def write_updates(stream: UpdateStream, path) -> None:
    schema = stream.schema
    with _open(path, "wt") as fh:
        fh.write(f"fields: {schema.field_count}\n")
        fh.write("widths: " + " ".join(map(str, schema.widths)) + "\n")
        for op, r in stream.ops:
            tag = "i" if op == "insert" else "d"
            fh.write(f"{tag} {_format_rule(schema, r)} {r.rule_id}\n")


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
        chained = self.num_masks - self.loose_masks
        if chained < self.num_chains or self.num_chains < 1:
            raise ValueError("profile needs at least one mask per chain")

    def chain_sizes(self) -> list[int]:
        chained = self.num_masks - self.loose_masks
        base, extra = divmod(chained, self.num_chains)
        return [base + (1 if i < extra else 0)
                for i in range(self.num_chains)]

    def expected_density(self) -> float:
        """Containment-pair density implied by the chain layout."""
        v = self.num_masks
        if v < 2:
            return 0.0
        pairs = sum(s * (s - 1) // 2 for s in self.chain_sizes())
        return pairs / (v * (v - 1) / 2)


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
    masks: set[int] = set()
    out = []
    for size in profile.chain_sizes():
        for _ in range(1000):
            # keep room for `size - 1` strict extensions
            base = _random_mask(rng, schema, profile.mask_bit_prob,
                                max_bits=w - size + 1)
            chain = [base]
            while len(chain) < size:
                free = [b for b in range(w) if not chain[-1] >> b & 1]
                grow = rng.sample(free, rng.randint(1, max(1, len(free) // 4)))
                nxt = chain[-1]
                for b in grow:
                    nxt |= 1 << b
                chain.append(nxt)
            if masks.isdisjoint(chain):
                masks.update(chain)
                out.extend(chain)
                break
        else:
            raise RuntimeError("could not generate distinct mask chain")
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
    return RuleSetFile(schema, rules, {
        "format": "synthetic", "seed": seed, "profile": profile,
    })


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
