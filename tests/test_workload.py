import gzip
import ipaddress
import random

import pytest
from hypothesis import given, settings, strategies as st

from tuplechain.baselines import linear_lookup
from tuplechain.bench import ALGOS
from tuplechain.cli import main
from tuplechain.model import MISS_PRIORITY, FieldSchema, Rule, matches
from tuplechain.workload import (CLASSBENCH_SCHEMA, ParseError, TupleProfile,
                                 UpdateStream, gen_rules, gen_trace,
                                 gen_updates, parse_classbench, parse_generic,
                                 parse_trace, parse_updates,
                                 range_to_prefixes, write_generic,
                                 write_trace, write_updates)
from tuplechain.workload import (_classbench_blocks, _parse_rule_tokens,
                                 _prefix_mask)

S = FieldSchema((8, 8))


def _dotted(ip):
    return ".".join(str(ip >> s & 0xFF) for s in (24, 16, 8, 0))


def _two_pack_blocks(line):
    """A ClassBench filter's blocks, each packed by two
    ``CLASSBENCH_SCHEMA.pack`` calls: the reference the one-pass packing
    is checked against.  ``line`` is spaced as the test below writes it,
    with valid addresses."""
    src, dst, slo, _, shi, dlo, _, dhi, proto = line[1:].split()
    (sip, slen), (dip, dlen) = src.split("/"), dst.split("/")
    proto, pmask = proto.split("/")
    smask, dmask = _prefix_mask(int(slen), 32), _prefix_mask(int(dlen), 32)
    sip = int(ipaddress.IPv4Address(sip)) & smask
    dip = int(ipaddress.IPv4Address(dip)) & dmask
    pmask = int(pmask, 0)
    proto = int(proto, 0) & pmask
    pack = CLASSBENCH_SCHEMA.pack
    return [(pack((sip, dip, sv, dv, proto)),
             pack((smask, dmask, sm, dm, pmask)))
            for sv, sm in range_to_prefixes(int(slo), int(shi), 16)
            for dv, dm in range_to_prefixes(int(dlo), int(dhi), 16)]


class TestRangeExpansion:
    @pytest.mark.parametrize("lo, hi, want", [
        (0, 65535, [(0, 0)]),
        (80, 80, [(80, 0xFFFF)]),
        (1024, 65535, [(1024, 0xFC00), (2048, 0xF800), (4096, 0xF000),
                       (8192, 0xE000), (16384, 0xC000), (32768, 0x8000)]),
    ])
    def test_known_port_ranges(self, lo, hi, want):
        assert range_to_prefixes(lo, hi, 16) == want

    def test_blocks_exactly_cover_the_range(self):
        rng = random.Random(1)
        for _ in range(200):
            lo = rng.randrange(256)
            hi = rng.randrange(lo, 256)
            blocks = range_to_prefixes(lo, hi, 8)
            covered = set()
            for v, m in blocks:
                assert v & m == v
                members = {x for x in range(256) if x & m == v}
                assert not members & covered   # disjoint
                covered |= members
            assert covered == set(range(lo, hi + 1))

    def test_maximality(self):
        # merging any two adjacent blocks must break prefix alignment
        for lo, hi in [(1, 14), (3, 200), (0, 127), (100, 101)]:
            blocks = range_to_prefixes(lo, hi, 8)
            for (v1, m1), (v2, m2) in zip(blocks, blocks[1:]):
                size = (0xFF ^ m1) + 1
                mergeable = (m1 == m2 and v2 == v1 + size
                             and v1 % (2 * size) == 0)
                assert not mergeable

    def test_bad_range_rejected(self):
        with pytest.raises(ValueError):
            range_to_prefixes(5, 4, 8)
        with pytest.raises(ValueError):
            range_to_prefixes(0, 256, 8)


class TestClassBench(object):
    LINES = (
        "@192.168.1.0/24 10.0.0.0/8 0 : 65535 80 : 80 0x06/0xFF\n"
        "@0.0.0.0/0 10.1.0.0/16 1024 : 65535 53 : 53 0x11/0xFF\n"
    )

    def test_parse_and_priorities(self, tmp_path):
        p = tmp_path / "cb.rules"
        p.write_text(self.LINES)
        rsf = parse_classbench(p)
        assert rsf.schema is CLASSBENCH_SCHEMA
        # line 1 expands to a single rule; line 2 port range 1024:65535
        # expands into 6 maximal blocks
        assert len(rsf.rules) == 1 + 6
        assert rsf.rules[0].priority == 2
        assert all(r.priority == 1 for r in rsf.rules[1:])
        assert rsf.expansion_factor == pytest.approx(7 / 2)
        key = CLASSBENCH_SCHEMA.pack(
            ((192 << 24) | (168 << 16) | (1 << 8) | 77,
             (10 << 24) | 123, 40000, 80, 6))
        assert matches(key, rsf.rules[0])

    def test_expansion_preserves_semantics(self, tmp_path):
        p = tmp_path / "cb.rules"
        p.write_text(self.LINES)
        rsf = parse_classbench(p)
        rng = random.Random(3)
        second = [r for r in rsf.rules if r.priority == 1]
        for _ in range(500):
            sp = rng.randrange(1 << 16)
            key = CLASSBENCH_SCHEMA.pack(
                ((10 << 24) | (1 << 16) | rng.getrandbits(16),
                 (10 << 24) | (1 << 16) | rng.getrandbits(16),
                 sp, 53, 0x11))
            want = 1024 <= sp <= 65535
            assert any(matches(key, r) for r in second) == want

    def test_gzip_transparent(self, tmp_path):
        p = tmp_path / "cb.rules.gz"
        with gzip.open(p, "wt") as fh:
            fh.write(self.LINES)
        assert len(parse_classbench(p).rules) == 7

    def test_malformed_line_reports_position(self, tmp_path):
        p = tmp_path / "bad.rules"
        p.write_text("@1.2.3.4/32 nonsense\n")
        with pytest.raises(ParseError) as ei:
            parse_classbench(p)
        assert ei.value.lineno == 1

    @pytest.mark.parametrize("bad", [
        "@1.2.3.4/33 0.0.0.0/0 0 : 65535 0 : 65535 0x06/0xFF",
        "@1.2.3.4/32 0.0.0.0/0 9 : 8 0 : 65535 0x06/0xFF",
        "@1.2.3.4/32 0.0.0.0/0 0 : 65535 0 : 65535 0x06/0x1FF",
        "@1.2.3.256/32 0.0.0.0/0 0 : 65535 0 : 65535 0x06/0xFF",
    ], ids=["prefix", "range", "proto-mask", "address"])
    def test_bad_value_reports_position(self, tmp_path, bad):
        p = tmp_path / "bad.rules"
        p.write_text(self.LINES + "# next\n" + bad + "\n")
        with pytest.raises(ParseError) as ei:
            parse_classbench(p)
        assert ei.value.lineno == 4

    @pytest.mark.parametrize("line, address", [
        ("@1.2.3.256/32 0.0.0.0/0 0 : 65535 0 : 65535 0x06/0xFF",
         "1.2.3.256"),
        ("@1.2.3.4/32 10.300.0.01/8 0 : 65535 0 : 65535 0x06/0xFF",
         "10.300.0.01"),
    ], ids=["source", "destination"])
    def test_bad_address_is_named_as_written(self, line, address):
        with pytest.raises(ValueError) as ei:
            _classbench_blocks(line)
        assert str(ei.value) == f"bad IPv4 address {address}"

    def test_comments_and_blanks_skipped(self, tmp_path):
        p = tmp_path / "cb.rules"
        p.write_text("# header\n\n" + self.LINES)
        assert len(parse_classbench(p).rules) == 7

    def test_overlapping_port_ranges_keep_the_first_copy(self, tmp_path):
        # 1024:65535 expands to six blocks, the last being 32768:65535,
        # which is all the second filter expands to
        p = tmp_path / "cb.rules"
        p.write_text(
            "@10.0.0.0/8 0.0.0.0/0 0 : 65535 1024 : 65535 0x06/0xFF\n"
            "@10.0.0.0/8 0.0.0.0/0 0 : 65535 32768 : 65535 0x06/0xFF\n")
        rsf = parse_classbench(p)
        assert [r.rule_id for r in rsf.rules] == list(range(6))
        assert all(r.priority == 2 for r in rsf.rules)
        assert rsf.shadowed_duplicates == 1
        assert rsf.expansion_factor == pytest.approx(6 / 2)
        for algo in ALGOS:
            assert main(["build", "--rules", str(p), "--format",
                         "classbench", "--algo", algo]) == 0
        trace = tmp_path / "t.trace"
        write_trace([CLASSBENCH_SCHEMA.pack((10 << 24, 1, 5, dp, 6))
                     for dp in (80, 1024, 40000, 65535)],
                    CLASSBENCH_SCHEMA, trace)
        assert main(["equiv", "--rules", str(p), "--format", "classbench",
                     "--trace", str(trace)]) == 0


class TestGenericFormat:
    def test_round_trip(self, tmp_path):
        rules = [
            Rule(S.pack((0x10, 0x00)), S.pack((0xF0, 0x00)), 7, 0),
            Rule(S.pack((0x00, 0xA8)), S.pack((0x00, 0xFC)), 3, 1),
        ]
        p = tmp_path / "r.rules"
        write_generic(rules, S, p)
        rsf = parse_generic(p)
        assert rsf.schema.widths == S.widths
        assert rsf.rules == rules

    @given(st.lists(st.tuples(st.integers(0, 255), st.integers(0, 255),
                              st.integers(0, 255), st.integers(0, 255),
                              st.integers(0, 10**6)),
                    min_size=0, max_size=30))
    @settings(max_examples=40, deadline=None)
    def test_round_trip_property(self, specs):
        import tempfile
        rules = [Rule(S.pack((fa & ma, fb & mb)), S.pack((ma, mb)), p, i)
                 for i, (fa, ma, fb, mb, p) in enumerate(specs)]
        with tempfile.TemporaryDirectory() as d:
            path = d + "/r.rules"
            write_generic(rules, S, path)
            assert parse_generic(path).rules == rules

    def test_six_mask_fixture(self, tmp_path):
        masks = [(0x80, 0xC0), (0xC0, 0xF0), (0xC0, 0xFC),
                 (0xE0, 0xF8), (0xF8, 0xFC), (0xFF, 0xFF)]
        rules = [Rule(S.pack((0x12 & a, 0x34 & b)), S.pack((a, b)), i, i)
                 for i, (a, b) in enumerate(masks)]
        p = tmp_path / "six.rules"
        write_generic(rules, S, p)
        got = parse_generic(p)
        assert {r.mask for r in got.rules} == {S.pack(m) for m in masks}

    def test_non_canonical_value_rejected(self, tmp_path):
        p = tmp_path / "bad.rules"
        p.write_text("fields: 2\nwidths: 8 8\nff/0f 0/0 5\n")
        with pytest.raises(ParseError):
            parse_generic(p)

    def test_missing_header_rejected(self, tmp_path):
        p = tmp_path / "bad.rules"
        p.write_text("10/f0 0/0 5\n")
        with pytest.raises(ParseError):
            parse_generic(p)

    def test_trace_round_trip(self, tmp_path):
        keys = [S.pack((0xAB, 0xCD)), S.pack((0x00, 0xFF))]
        p = tmp_path / "t.trace"
        write_trace(keys, S, p)
        assert parse_trace(p, S) == keys

    @pytest.mark.parametrize("parse, body", [
        (parse_generic, "10/f0 0/0 5\nzz/ff 0/0 3\n"),
        (parse_updates, "i 10/f0 0/0 5 0\nd zz/ff 0/0 3 1\n"),
    ], ids=["rules", "updates"])
    def test_error_names_the_file_line(self, tmp_path, parse, body):
        # the comment and the blank line count as lines 1 and 2
        p = tmp_path / "bad.txt"
        p.write_text("# made by hand\n\nfields: 2\nwidths: 8 8\n" + body)
        with pytest.raises(ParseError) as ei:
            parse(p)
        assert ei.value.lineno == 6
        assert f"{p}:6:" in str(ei.value) and "zz" in str(ei.value)

    @pytest.mark.parametrize("parse, text, lineno", [
        (parse_generic, b"fields: 2\nwidths: 8 8\n10/f0 0/0 high\n", 3),
        (parse_updates, b"fields: 2\nwidths: 8 8\ni 10/f0 0/0 5 -3\n", 3),
        (parse_generic, b"fields: x\nwidths: 8 8\n", 1),
        (parse_generic, b"fields: 2\nwidths: 8 0\n", 2),
        (parse_generic, b"fields: 2\nwidths: 8 8\n10/f0 0/0 9/1 5\n", 3),
        (parse_generic, b"fields: 2\nwidths: 8 8\n\xff0/f0 0/0 5\n", 3),
        (parse_generic, b"fields: 2\nwidths: 8 8\n10/f0 100/0 5\n", 3),
        (parse_updates, b"fields: 2\nwidths: 8 8\ni 10/f0 0/1ff 5 0\n", 3),
    ], ids=["priority", "update-id", "field-count", "width", "token-count",
            "undecodable", "value-too-wide", "mask-too-wide"])
    def test_bad_value_is_a_parse_error(self, tmp_path, parse, text, lineno):
        p = tmp_path / "bad.txt"
        p.write_bytes(text)
        with pytest.raises(ParseError) as ei:
            parse(p)
        assert ei.value.lineno == lineno

    @pytest.mark.parametrize("parse, record", [
        (parse_generic, "10/f0 0/0 {}"),
        (parse_updates, "i 10/f0 0/0 {} 7"),
    ], ids=["rules", "updates"])
    def test_miss_priority_is_a_parse_error(self, tmp_path, parse, record):
        # Rule refuses a priority that would rank with a miss, and the
        # parser names the line that asked for one
        p = tmp_path / "bad.txt"
        p.write_text("fields: 2\nwidths: 8 8\n" + record.format(5) + "\n"
                     + record.format(MISS_PRIORITY) + "\n")
        with pytest.raises(ParseError, match="miss priority") as ei:
            parse(p)
        assert ei.value.lineno == 4 and f"{p}:4:" in str(ei.value)

    @given(st.lists(st.tuples(st.integers(1, 12), st.integers(-2, 1 << 13),
                              st.integers(-2, 1 << 13)), min_size=1,
                    max_size=4),
           st.integers(-1, 1))
    @settings(max_examples=300, deadline=None)
    def test_tokens_pack_as_schema_pack_does(self, fields, extra):
        # one pass over the tokens must give what two FieldSchema.pack
        # calls give, and raise where either of them raises; ``extra``
        # drops the last token or adds one
        schema = FieldSchema(tuple(w for w, _, _ in fields))
        toks = [f"{v:x}/{m:x}" for _, v, m in fields]
        toks = toks[:-1] if extra < 0 else toks + ["0/0"] * extra
        values = [int(t.partition("/")[0], 16) for t in toks]
        masks = [int(t.partition("/")[2], 16) for t in toks]
        try:
            want = schema.pack(values), schema.pack(masks)
        except ValueError:
            with pytest.raises(ValueError):
                _parse_rule_tokens(schema, toks)
        else:
            assert _parse_rule_tokens(schema, toks) == want

    @given(st.lists(st.integers(0, (1 << 32) - 1), min_size=2, max_size=2),
           st.lists(st.integers(0, 33), min_size=2, max_size=2),
           st.lists(st.integers(0, (1 << 16) - 1), min_size=4, max_size=4),
           st.integers(0, 0x3FF), st.integers(0, 0x3FF))
    @settings(max_examples=300, deadline=None)
    def test_classbench_blocks_pack_as_schema_pack_does(
            self, ips, plens, ports, proto, pmask):
        # one packing pass over each filter must give the blocks that two
        # CLASSBENCH_SCHEMA.pack calls per block give, and raise the same
        # error where they raise; prefix length 33, a reversed port range
        # and a protocol or mask past 8 bits are bad values
        sip, dip = ips
        slo, shi, dlo, dhi = ports
        line = (f"@{_dotted(sip)}/{plens[0]} {_dotted(dip)}/{plens[1]} "
                f"{slo} : {shi} {dlo} : {dhi} {proto:#x}/{pmask:#x}")
        try:
            want = _two_pack_blocks(line)
        except ValueError as exc:
            with pytest.raises(ValueError) as got:
                _classbench_blocks(line)
            assert str(got.value) == str(exc)
        else:
            assert _classbench_blocks(line) == want

    def test_comment_after_header_value(self, tmp_path):
        p = tmp_path / "r.rules"
        p.write_text("fields: 2  # two fields\nwidths: 8 8 # bits\n"
                     "10/f0 0/0 5  # one rule\n")
        rsf = parse_generic(p)
        assert rsf.schema.widths == (8, 8)
        assert rsf.rules == [Rule(S.pack((0x10, 0)), S.pack((0xF0, 0)), 5, 0)]

    def test_cli_reports_a_bad_file_in_one_line(self, tmp_path, capsys):
        p = tmp_path / "bad.rules"
        p.write_text("# made by hand\n\nfields: 2\nwidths: 8 8\n"
                     "10/f0 0/0 5\nzz/ff 0/0 3\n")
        missing = tmp_path / "missing.rules"
        for path, where in ((p, f"{p}:6:"), (missing, str(missing))):
            assert main(["build", "--rules", str(path)]) == 1
            out, err = capsys.readouterr()
            assert out == "" and err.startswith("tuplechain: ")
            assert err.count("\n") == 1 and where in err

    def _gzipped_rules(self, tmp_path, n=300):
        rng = random.Random(2)
        rules = [Rule(v, 0xFFFF, rng.randrange(1000), v) for v in range(n)]
        p = tmp_path / "r.rules.gz"
        write_generic(rules, S, p)
        return p.read_bytes()

    def test_truncated_gzip_is_a_parse_error(self, tmp_path, capsys):
        # the first 20 bytes hold no whole line: line 1 is where it ends
        p = tmp_path / "t.rules.gz"
        p.write_bytes(self._gzipped_rules(tmp_path)[:20])
        with pytest.raises(ParseError) as ei:
            parse_generic(p)
        assert ei.value.lineno == 1
        assert main(["build", "--rules", str(p)]) == 1
        out, err = capsys.readouterr()
        assert out == "" and err.startswith(f"tuplechain: {p}:1: ")
        assert err.count("\n") == 1

    def test_gzip_cut_midway_names_the_line_after_the_last_read(
            self, tmp_path):
        whole = self._gzipped_rules(tmp_path)
        p = tmp_path / "t.rules.gz"
        p.write_bytes(whole[:len(whole) // 2])
        with pytest.raises(ParseError) as ei:
            parse_generic(p)
        # the header and some rules were read whole; the last never is
        lines = []
        with gzip.open(p, "rt") as fh, pytest.raises(EOFError):
            lines.extend(fh)
        assert 2 < len(lines) < 302
        assert ei.value.lineno == len(lines) + 1

    def test_corrupt_gzip_is_a_parse_error(self, tmp_path):
        data = bytearray(self._gzipped_rules(tmp_path))
        for i in range(40, 60):
            data[i] ^= 0xFF
        p = tmp_path / "c.rules.gz"
        p.write_bytes(bytes(data))
        with pytest.raises(ParseError):
            parse_generic(p)

    @pytest.mark.parametrize("text, lineno", [
        ("", 1),
        ("fields: 2\n", 1),
        ("# made by hand\nfields: 2\n\n# no widths\n", 4),
    ], ids=["empty", "fields-only", "comments-after"])
    @pytest.mark.parametrize("parse", [parse_generic, parse_updates],
                             ids=["rules", "updates"])
    def test_file_ending_in_its_header_names_the_last_line(
            self, tmp_path, parse, text, lineno):
        p = tmp_path / "h.rules"
        p.write_text(text)
        with pytest.raises(ParseError) as ei:
            parse(p)
        assert ei.value.lineno == lineno
        assert str(ei.value) == (f"{p}:{lineno}: missing fields/widths "
                                 "header")

    def test_updates_round_trip(self, tmp_path):
        r1 = Rule(S.pack((0x10, 0x00)), S.pack((0xF0, 0x00)), 7, 12)
        stream = UpdateStream(S, [("insert", r1), ("delete", r1)])
        p = tmp_path / "u.updates"
        write_updates(stream, p)
        got = parse_updates(p)
        assert got.schema.widths == S.widths
        assert got.ops == stream.ops


class TestGenerators:
    def test_deterministic_by_seed(self):
        a = gen_rules(9, 200, S)
        b = gen_rules(9, 200, S)
        assert a.rules == b.rules
        assert gen_rules(10, 200, S).rules != a.rules

    def test_exact_count_and_unique_entries(self):
        rsf = gen_rules(1, 500, S)
        assert len(rsf.rules) == 500
        assert len({(r.mask, r.fields) for r in rsf.rules}) == 500
        assert [r.rule_id for r in rsf.rules] == list(range(500))

    def test_mask_population_matches_profile(self):
        prof = TupleProfile(num_masks=12, num_chains=3, loose_masks=2)
        rsf = gen_rules(4, 400, S, prof)
        masks = {r.mask for r in rsf.rules}
        assert len(masks) <= 12
        # chain structure: the chained masks decompose into 3 paths
        from tuplechain.graph import build_graph, min_path_cover
        pc = min_path_cover(build_graph(sorted(masks)))
        assert pc.chain_count <= 3 + 2

    def test_profile_validation(self):
        with pytest.raises(ValueError):
            TupleProfile(num_masks=4, num_chains=5)
        with pytest.raises(ValueError):
            TupleProfile(num_masks=8, num_chains=2, loose_masks=7)
        with pytest.raises(ValueError, match="loose_masks must be >= 0"):
            TupleProfile(loose_masks=-3)

    @pytest.mark.parametrize("widths, profile, count, why", [
        ((1,), TupleProfile(), 10, "a chain of 4 masks needs at least 4 "
         "key bits, not 1"),
        ((2,), TupleProfile(num_masks=8, num_chains=8), 10,
         "8 distinct masks do not fit 2 key bits"),
        ((4,), TupleProfile(num_masks=4, num_chains=1), 31,
         "4 masks hold at most 30 distinct rules, not 31"),
    ], ids=["chain-too-long", "too-many-masks", "too-many-rules"])
    def test_profile_the_widths_cannot_hold_is_refused(self, widths,
                                                       profile, count, why):
        # each of these once looped forever or ended in another error;
        # the refusal comes before any mask is drawn
        with pytest.raises(ValueError) as ei:
            gen_rules(0, count, FieldSchema(widths), profile)
        assert str(ei.value) == why

    def test_long_chain_that_outgrows_its_bits_is_drawn_again(self):
        # one chain of 20 masks in 32 bits: a draw that runs out of
        # free bits before its last mask is dropped and drawn again
        prof = TupleProfile(num_masks=20, num_chains=1)
        rsf = gen_rules(0, 500, FieldSchema((32,)), prof)
        masks = sorted({r.mask for r in rsf.rules}, key=int.bit_count)
        assert len(masks) == 20
        assert all(a & b == a != b for a, b in zip(masks, masks[1:]))

    def test_trace_hit_ratio(self):
        S16 = FieldSchema((16, 16))
        rsf = gen_rules(2, 300, S16)
        keys = gen_trace(rsf.rules, 7, 5000, 0.6, S16)
        hits = sum(linear_lookup(rsf.rules, k).rule is not None
                   for k in keys)
        # random misses can still hit, so observed >= requested
        assert 0.58 <= hits / 5000
        assert hits / 5000 <= 0.75

    def test_trace_extremes(self):
        rsf = gen_rules(2, 50, S)
        assert all(linear_lookup(rsf.rules, k).rule is not None
                   for k in gen_trace(rsf.rules, 1, 200, 1.0, S))
        with pytest.raises(ValueError):
            gen_trace(rsf.rules, 1, 10, 1.5, S)

    def test_updates_are_consistent(self):
        rsf = gen_rules(3, 150, S)
        stream = gen_updates(rsf.rules, 5, 600, 0.5, S)
        live = {(r.mask, r.fields): r for r in rsf.rules}
        ids = {r.rule_id for r in rsf.rules}
        for op, r in stream.ops:
            key = (r.mask, r.fields)
            if op == "insert":
                assert key not in live and r.rule_id not in ids
                live[key] = r
                ids.add(r.rule_id)
            else:
                assert live.pop(key) == r

    def test_updates_deterministic(self):
        rsf = gen_rules(3, 100, S)
        a = gen_updates(rsf.rules, 5, 200, 0.5, S)
        b = gen_updates(rsf.rules, 5, 200, 0.5, S)
        assert a.ops == b.ops
