import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from tuplechain import bench as bench_mod
from tuplechain.baselines import (LinearClassifier, TssClassifier,
                                  linear_lookup_batch)
from tuplechain.bench import (ALGOS, BenchError, _interleave,
                              make_classifier, run_bench, run_equiv,
                              traced_build)
from tuplechain.classifier import StructureStats, TupleChainClassifier
from tuplechain.cli import main
from tuplechain.etc import EtcClassifier
from tuplechain.model import FieldSchema, MatchResult, Rule
from tuplechain.workload import (RuleSetFile, TupleProfile, UpdateStream,
                                 gen_rules, gen_trace, gen_updates,
                                 parse_generic, parse_trace, parse_updates)

SRC = Path(__file__).resolve().parent.parent / "src"
S = FieldSchema((16, 16))
PROFILE = TupleProfile(num_masks=12, num_chains=4)
# (mask, fields, priority): nested masks, masks comparable with none of
# them, and mask 0, with few field bits so rules share head keys
DRAWN = st.tuples(
    st.sampled_from([S.pack(m) for m in (
        (0, 0), (0xF000, 0), (0xFF00, 0), (0xFFF0, 0), (0xFFFF, 0xF000),
        (0, 0x000F), (0x0F00, 0x00FF), (0xF00F, 0xF00F))]),
    st.integers(0, 0xFFFF_FFFF).map(lambda f: f & 0x3303_0303),
    st.integers(0, 40))


@pytest.fixture(scope="module")
def workload():
    rs = gen_rules(11, 300, S, PROFILE)
    trace = gen_trace(rs.rules, 12, 2000, 0.7, S)
    ups = gen_updates(rs.rules, 13, 400, 0.5, S)
    return rs, trace, ups


def bench(workload, algo="tc", **kw):
    rs, trace, _ = workload
    kw.setdefault("trace", trace)
    return run_bench(algo, rs, **kw)


class TestFactory:
    def test_each_algo_builds_the_right_type(self, workload):
        rs, _, _ = workload
        types = {"tc": TupleChainClassifier, "etc": EtcClassifier,
                 "tss": TssClassifier, "linear": LinearClassifier}
        for algo in ALGOS:
            assert isinstance(make_classifier(algo, rs), types[algo])

    @pytest.mark.parametrize("algo", ALGOS)
    def test_every_algo_reports_through_stats(self, workload, algo):
        rs, _, _ = workload
        clf = make_classifier(algo, rs)
        assert not hasattr(clf, "memory_bytes")
        st = clf.stats()
        assert isinstance(st, StructureStats)
        assert st.rule_count == len(rs.rules)

    @pytest.mark.parametrize("algo, want", [
        ("tc", 39088), ("etc", 38912), ("tss", 10800), ("linear", 6000)])
    def test_model_bytes_are_pinned(self, workload, algo, want):
        # the C-layout cost model's figures on this fixture; a change
        # to any of them is a change to the model
        rs, _, _ = workload
        assert make_classifier(algo, rs).stats().memory_bytes == want

    def test_unknown_algo_rejected(self, workload):
        rs, _, _ = workload
        with pytest.raises(BenchError):
            make_classifier("cuckoo", rs)

    @pytest.mark.parametrize("algo", ALGOS)
    def test_traced_build_counts_what_the_classifier_holds(self, workload,
                                                           algo):
        # the same classifier make_classifier builds, tracing stopped
        # after it, and more bytes held for more rules, except where
        # ETC's layout differs
        rs, _, _ = workload
        clf, held = traced_build(algo, rs)
        assert not tracemalloc.is_tracing()
        assert clf.stats() == make_classifier(algo, rs).stats()
        half = RuleSetFile(rs.schema, rs.rules[:len(rs.rules) // 2])
        small, held_half = traced_build(algo, half)
        if algo == "etc":
            # all the rules fold a 7-bit head that holds 109 of its 128
            # keys and keep an 8-bit one; the first half keep one 11-bit
            # head with a chain set for each of its 149 keys, and that
            # holds more
            assert [(g.head_mask.bit_count(), len(g.head))
                    for g in clf.groups] == [(0, 1), (8, 57)]
            assert [(g.head_mask.bit_count(), len(g.head))
                    for g in small.groups] == [(11, 149)]
            assert 0 < held < held_half
        else:
            assert 0 < held_half < held


class TestRunBench:
    def test_config_validation(self, workload):
        with pytest.raises(BenchError):
            bench(workload, algo="nope")
        with pytest.raises(BenchError):
            bench(workload, trace=[])

    def test_lookup_only_run(self, workload):
        rep = bench(workload)
        assert rep.lookups == len(workload[1]) and rep.updates == 0
        assert rep.bound_violations == 0
        assert 0 < rep.avg_probes <= rep.max_probes
        assert rep.lookups_per_s == pytest.approx(
            rep.lookups / rep.lookup_s)
        assert rep.build_s > 0 and rep.update_s == 0
        assert rep.update_p99_us == rep.update_max_us == 0
        assert rep.memory_bytes > 0

    def test_probes_stay_within_static_bound(self, workload):
        rs, _, _ = workload
        clf = make_classifier("tc", rs)
        rep = bench(workload)
        assert rep.max_probes <= clf.probe_bound()

    def test_offline_replay_matches_direct_loop(self, workload):
        # the replay applies every update exactly once, like a direct
        # loop over the stream
        rs, trace, ups = workload
        clf = make_classifier("tc", rs)
        for op, r in ups.ops:
            (clf.insert if op == "insert" else clf.remove)(r)
        assert clf.audit() == []
        rep = bench(workload, updates=ups)
        assert rep.updates == len(ups.ops)
        assert rep.lookups == len(trace)

    def test_updates_spread_evenly_through_trace(self):
        # every insert opens a fresh tuple, so a TSS lookup's probe
        # count shows how many updates ran before it: with 2 updates
        # over 4 lookups they run before lookups 0 and 2
        rules = [Rule(0, S.pack((0xFF00, 0)), 1, 0)]
        ins = [Rule(0, S.pack((0xFFFF, m)), 1, i + 1)
               for i, m in enumerate((0xF000, 0xFF00))]
        rs = RuleSetFile(S, rules)
        ups = UpdateStream(S, [("insert", r) for r in ins])
        rep = run_bench("tss", rs, [0, 1, 2, 3], ups)
        assert rep.updates == 2 and rep.max_probes == 3
        assert rep.avg_probes == pytest.approx((2 + 2 + 3 + 3) / 4)
        assert rep.bound_violations == 0

    @staticmethod
    def splice_stream():
        """Rules of two nested masks, and 100 updates: deletes and
        re-inserts of stored rules and, as update 50, the first rule of
        a mask between the two, which splices a fresh tuple into the
        middle of their chain, and a last delete."""
        lo, mid, hi = (S.pack((0xFF00, 0)), S.pack((0xFFF0, 0)),
                       S.pack((0xFFFF, 0xFF00)))
        rules = [Rule(S.pack((i << 8, 0)), lo, i, i) for i in range(20)] + \
            [Rule(S.pack((i << 8 | i, i << 8)), hi, 50 + i, 20 + i)
             for i in range(20)]
        ops = [(op, r) for r in rules + rules[:9]
               for op in ("delete", "insert")]
        ops.insert(50, ("insert", Rule(S.pack((0x0310, 0)), mid, 99, 99)))
        ops.append(("delete", rules[0]))
        assert len(ops) == 100
        return RuleSetFile(S, rules), UpdateStream(S, ops), mid

    @pytest.mark.parametrize("algo", ALGOS)
    def test_update_p99_and_max(self, algo, monkeypatch):
        rs, ups, mid = self.splice_stream()
        rep = run_bench(algo, rs, list(range(10)), ups)
        assert rep.updates == 100
        assert 0 < rep.update_p99_us <= rep.update_max_us \
            <= rep.update_s * 1e6
        # on a clock that ticks 1 us per read, with the splice taking
        # 50 ticks more: the p99 (nearest rank, the 99th of 100) is a
        # plain update's 1 us and the slowest the splice's 51 us
        ticks = [0]

        def clock():
            ticks[0] += 1
            return ticks[0] * 1e-6

        cls = ALGOS[algo]
        insert = cls.insert

        def slow_splice(self, r):
            if r.mask == mid:
                ticks[0] += 50
            insert(self, r)

        monkeypatch.setattr(bench_mod, "time",
                            SimpleNamespace(perf_counter=clock))
        monkeypatch.setattr(cls, "insert", slow_splice)
        rep = run_bench(algo, rs, list(range(10)), ups)
        assert rep.update_p99_us == pytest.approx(1)
        assert rep.update_max_us == pytest.approx(51)
        assert rep.update_s == pytest.approx(150e-6)

    @pytest.mark.parametrize("algo", ALGOS)
    def test_update_that_changes_nothing_stops_the_run(self, workload, algo):
        rs, _, _ = workload
        stored = rs.rules[5]
        absent = Rule(stored.fields, stored.mask, stored.priority, 10**6)
        for op, r, what in (("delete", absent, "removed nothing"),
                            ("insert", stored, "rejected")):
            ups = UpdateStream(S, [("delete", rs.rules[0]), (op, r)])
            with pytest.raises(BenchError, match=f"^update 1: {op} of "
                               f"rule {r.rule_id} .*{what}"):
                bench(workload, algo=algo, updates=ups)

    @pytest.mark.parametrize("algo", ALGOS)
    def test_bound_taken_once_per_run_of_updates(self, workload, algo,
                                                 monkeypatch):
        # ten updates all run before the one lookup: the bound is taken
        # after the build and once more, just before that lookup
        rs, trace, _ = workload
        cls = ALGOS[algo]
        calls = []
        bound = cls.probe_bound
        monkeypatch.setattr(cls, "probe_bound",
                            lambda self: calls.append(1) or bound(self))
        ups = UpdateStream(S, [("delete", r) for r in rs.rules[:10]])
        rep = bench(workload, algo=algo, trace=trace[:1], updates=ups)
        assert rep.updates == 10 and rep.bound_violations == 0
        assert len(calls) == 2

    @pytest.mark.parametrize("algo", ALGOS)
    @settings(max_examples=30, deadline=None)
    @given(built=st.lists(DRAWN, max_size=20),
           ops=st.lists(st.tuples(st.booleans(), DRAWN), max_size=30))
    def test_inserts_never_lower_the_bound(self, algo, built, ops):
        # what run_bench relies on to skip the bound after inserts: tc
        # and etc only add tuples, chains, head entries or groups on an
        # insert, tss adds tables, linear adds rules.  Removals, drawn
        # in between, may lower it
        live = {}
        for m, f, p in built:
            live.setdefault((f & m, m), Rule(f & m, m, p, len(live)))
        clf = ALGOS[algo].build(S, list(live.values()))
        next_id = len(live)
        for remove, (m, f, p) in ops:
            if remove:
                if live:
                    key = sorted(live)[f % len(live)]
                    assert clf.remove(live.pop(key))
                continue
            if (f & m, m) in live:
                continue
            before = clf.probe_bound()
            r = live[f & m, m] = Rule(f & m, m, p, next_id)
            next_id += 1
            clf.insert(r)
            assert clf.probe_bound() >= before
        assert clf.audit() == []

    @pytest.mark.parametrize("algo", ALGOS)
    def test_bound_retaken_after_removals_only(self, workload, algo,
                                               monkeypatch):
        # inserts on a stored mask before lookups 0 and 2, a delete
        # before lookup 1: the bound is taken after the build and before
        # lookup 1.  A linear scan's probes are its bound, so each insert
        # raises the bound above the one taken, and the next lookup
        # takes it again: two calls more
        rs, trace, _ = workload
        cls = ALGOS[algo]
        calls = []
        bound = cls.probe_bound
        monkeypatch.setattr(cls, "probe_bound",
                            lambda self: calls.append(1) or bound(self))
        mask = rs.rules[0].mask
        used = {r.fields for r in rs.rules if r.mask == mask}
        fields, f = [], 0
        while len(fields) < 2:
            f = (f - mask) & mask   # mask's next submask, counting up
            if f not in used:
                fields.append(f)
        new = [Rule(f, mask, 5, 10**6 + i) for i, f in enumerate(fields)]
        ups = UpdateStream(S, [("insert", new[0]), ("delete", rs.rules[5]),
                               ("insert", new[1])])
        rep = bench(workload, algo=algo, trace=trace[:4], updates=ups)
        assert rep.updates == 3 and rep.bound_violations == 0
        assert len(calls) == (4 if algo == "linear" else 2)

    def test_removal_that_lowers_the_bound_still_flags(self, monkeypatch):
        # a linear scan whose lookups report a set number of probes; its
        # bound is its rule count, 3 after the build
        probes = [3]
        monkeypatch.setattr(LinearClassifier, "lookup",
                            lambda self, key: MatchResult(None, probes[0]))
        rules = [Rule(S.pack((i << 8, 0)), S.pack((0xFF00, 0)), 1, i)
                 for i in range(3)]
        extra = Rule(S.pack((0x0900, 0)), rules[0].mask, 1, 9)
        rs = RuleSetFile(S, rules)
        # a delete before lookup 0 lowers the bound to 2 under all three
        ups = UpdateStream(S, [("delete", rules[2])])
        rep = run_bench("linear", rs, [0, 1, 2], ups)
        assert rep.bound_violations == 3
        # an insert raises it to 4: lookups of 4 probes exceed the bound
        # taken after the build, but not the one in force
        probes[0] = 4
        ups = UpdateStream(S, [("insert", extra)])
        rep = run_bench("linear", rs, [0, 1, 2], ups)
        assert rep.bound_violations == 0
        # a delete and an insert before lookup 0 (bound 3), a delete
        # before lookup 1 (bound 2)
        probes[0] = 3
        ups = UpdateStream(S, [("delete", rules[2]), ("insert", extra),
                               ("delete", rules[1])])
        rep = run_bench("linear", rs, [0, 1], ups)
        assert rep.bound_violations == 1

    @pytest.mark.parametrize("algo", ["tc", "etc"])
    def test_bound_calls_fall_on_the_gen_default_stream(
            self, algo, tmp_path, monkeypatch):
        # a bound before every lookup that follows updates, as before,
        # would take it 1 + 1,000 times: 1,000 updates over 1,000 keys
        paths = [tmp_path / n for n in ("r.rules", "t.trace", "u.updates")]
        assert main(["gen", "--rules", str(paths[0]), "--trace",
                     str(paths[1]), "--updates", str(paths[2])]) == 0
        rs = parse_generic(paths[0])
        trace = parse_trace(paths[1], rs.schema)
        ups = parse_updates(paths[2])
        cls = ALGOS[algo]
        calls = []
        bound = cls.probe_bound
        monkeypatch.setattr(cls, "probe_bound",
                            lambda self: calls.append(1) or bound(self))
        rep = run_bench(algo, rs, trace, ups)
        runs = [[ups.ops[j][0] for j in before]
                for _, before in _interleave(trace, ups.ops)]
        every = 1 + sum(bool(r) for r in runs)
        removing = 1 + sum("delete" in r for r in runs)
        assert rep.bound_violations == 0 and every == 1001
        assert removing <= len(calls) < every
        assert len(calls) < 0.6 * every

    @pytest.mark.parametrize("algo", ALGOS)
    def test_layout_counts_after_the_stream_and_of_a_fresh_build(
            self, workload, algo):
        rs, _, ups = workload
        rep = bench(workload, algo=algo)
        st = make_classifier(algo, rs).stats()
        assert (rep.chains, rep.groups) == (rep.bulk_chains, rep.bulk_groups) \
            == (st.chain_count, st.group_count)
        # a direct loop over the stream, and a build over what it leaves
        clf = make_classifier(algo, rs)
        live = {r.rule_id: r for r in rs.rules}
        for op, r in ups.ops:
            (clf.insert if op == "insert" else clf.remove)(r)
            if op == "insert":
                live[r.rule_id] = r
            else:
                del live[r.rule_id]
        st = clf.stats()
        bulk = make_classifier(algo, RuleSetFile(S, list(live.values())))
        rep = bench(workload, algo=algo, updates=ups)
        assert (rep.chains, rep.groups) == (st.chain_count, st.group_count)
        assert (rep.bulk_chains, rep.bulk_groups) == (
            bulk.stats().chain_count, bulk.stats().group_count)

    def test_etc_groups_that_a_build_would_fold_show(self):
        # a sparse two-mask head, then two fresh masks that contain no
        # head: each opens a group of its own, where a build over the
        # same rules folds both lone masks into one head-mask-0 group
        rules = [Rule(S.pack((0x0100, 0)), S.pack((0xFF00, 0)), 1, 0),
                 Rule(S.pack((0x0200, 0x10)), S.pack((0xFF00, 0xF0)), 1, 1)]
        fresh = [Rule(S.pack((0, 1)), S.pack((0, 0x0F)), 1, 2),
                 Rule(S.pack((1, 0)), S.pack((0x0F, 0)), 1, 3)]
        ups = UpdateStream(S, [("insert", r) for r in fresh])
        rep = run_bench("etc", RuleSetFile(S, rules), [0, 1, 2], ups)
        assert (rep.groups, rep.bulk_groups) == (3, 2)
        # one chain behind each of the sparse head's two entries
        assert rep.chains == rep.bulk_chains == 4

    @pytest.mark.parametrize("algo", ALGOS)
    def test_all_algos_complete(self, workload, algo):
        _, trace, ups = workload
        rep = bench(workload, algo=algo, updates=ups)
        assert rep.algo == algo and rep.lookups == len(trace)
        assert rep.updates == len(ups.ops)
        assert rep.bound_violations == 0


class TestReports:
    def test_json_keys_are_stable(self, files, capsys):
        rules, trace, _ = files
        assert main(["bench", "--rules", str(rules), "--trace", str(trace),
                     "--report", "json"]) == 0
        d = json.loads(capsys.readouterr().out)
        assert set(d) == {
            "algo", "rule_count", "lookups", "updates", "build_s",
            "lookup_s", "update_s", "lookups_per_s", "updates_per_s",
            "update_p99_us", "update_max_us", "avg_probes", "max_probes",
            "bound_violations", "memory_bytes", "chains", "groups",
            "bulk_chains", "bulk_groups"}
        assert list(d) == sorted(d)

    def test_text_and_json_reports_carry_the_same_keys(self, files, capsys):
        rules, trace, _ = files
        args = ["bench", "--rules", str(rules), "--trace", str(trace)]
        assert main(args + ["--report", "json"]) == 0
        keys = set(json.loads(capsys.readouterr().out))
        assert main(args) == 0
        lines = capsys.readouterr().out.splitlines()
        assert {line.split(": ", 1)[0] for line in lines} == keys
        assert len(lines) == len(keys)


class TestEquivDriver:
    def test_all_algorithms_agree(self, workload):
        rs, trace, _ = workload
        assert run_equiv(rs, trace) is None

    def test_divergence_is_reported(self, workload, monkeypatch):
        rs, trace, _ = workload
        monkeypatch.setattr(TssClassifier, "lookup",
                            lambda self, key: MatchResult(None, 0))
        div = run_equiv(rs, trace)
        assert div is not None and "tss returned" in div

    def test_updates_agree(self, workload):
        rs, trace, ups = workload
        assert run_equiv(rs, trace, ups) is None

    # key 0x1234 matches both rules; the first wins until it is deleted
    KEY = S.pack((0x12, 0x34))
    TOP = Rule(KEY, S.pack((0xFFFF, 0xFFFF)), 9, 0)
    LOW = Rule(0, 0, 1, 1)

    def test_delete_that_changes_an_answer_passes(self):
        rs = RuleSetFile(S, [self.TOP, self.LOW])
        ups = UpdateStream(S, [("delete", self.TOP)])
        assert run_equiv(rs, [self.KEY] * 3) is None
        # the built rules' answer is now wrong: the live rules answer
        assert linear_lookup_batch(rs.rules, [self.KEY]) == [(9, 0)]
        assert run_equiv(rs, [self.KEY] * 3, ups) is None

    def test_classifier_that_misses_a_delete_is_reported(self,
                                                         monkeypatch):
        # tss says it removed the rule but keeps answering with it
        monkeypatch.setattr(TssClassifier, "remove", lambda self, r: True)
        rs = RuleSetFile(S, [self.TOP, self.LOW])
        ups = UpdateStream(S, [("delete", self.TOP)])
        div = run_equiv(rs, [self.KEY] * 3, ups)
        assert div == (f"after 0 keys, key {self.KEY:#x}: tss returned "
                       "(9, 0), oracle says (1, 1)")

    def test_update_that_changes_nothing_is_an_error(self):
        rs = RuleSetFile(S, [self.TOP, self.LOW])
        gone = Rule(0, 0, 1, 7)
        ups = UpdateStream(S, [("delete", gone)])
        with pytest.raises(BenchError, match="^update 0: delete of rule 7 "
                           "removed nothing"):
            run_equiv(rs, [self.KEY], ups)


@pytest.fixture()
def files(tmp_path):
    rules = tmp_path / "r.rules"
    trace = tmp_path / "t.trace"
    ups = tmp_path / "u.updates"
    rc = main(["gen", "--rules", str(rules), "--trace", str(trace),
               "--updates", str(ups), "--seed", "3", "--count", "200",
               "--widths", "16", "16", "--masks", "10", "--chains", "4",
               "--trace-count", "300", "--update-count", "100"])
    assert rc == 0
    return rules, trace, ups


class TestCli:
    def test_build_json_report(self, files, tmp_path, capsys):
        rules, _, _ = files
        out = tmp_path / "build.json"
        rc = main(["build", "--rules", str(rules), "--algo", "tc",
                   "--report", "json", "--out", str(out)])
        assert rc == 0
        d = json.loads(out.read_text())
        assert d["rules"] == 200 and d["audit_violations"] == 0

    def test_audit_exit_zero(self, files, capsys):
        # build audits every structure it builds
        rules, _, _ = files
        assert main(["build", "--rules", str(rules), "--algo", "etc"]) == 0
        out, err = capsys.readouterr()
        assert "audit_violations: 0" in out.splitlines() and err == ""

    def test_build_fails_on_audit_violation(self, files, capsys,
                                            monkeypatch):
        rules, _, _ = files
        monkeypatch.setattr(EtcClassifier, "audit",
                            lambda self: ["group 0: head entry misplaced"])
        assert main(["build", "--rules", str(rules), "--algo", "etc"]) == 1
        out, err = capsys.readouterr()
        assert "audit_violations: 1" in out.splitlines()
        assert "group 0: head entry misplaced" in err

    def test_audit_and_min_head_bits_are_gone(self, files):
        rules, _, _ = files
        with pytest.raises(SystemExit):
            main(["audit", "--rules", str(rules)])
        for cmd in ("build", "bench", "equiv"):
            with pytest.raises(SystemExit):
                main([cmd, "--rules", str(rules), "--trace", str(rules),
                      "--min-head-bits", "2"])

    def test_equiv_exit_zero(self, files, capsys):
        rules, trace, _ = files
        assert main(["equiv", "--rules", str(rules),
                     "--trace", str(trace)]) == 0
        assert capsys.readouterr().out == \
            "equivalence: 300 keys, no divergence\n"

    def test_equiv_with_updates(self, files, tmp_path, capsys):
        rules, trace, ups = files
        assert main(["equiv", "--rules", str(rules), "--trace", str(trace),
                     "--updates", str(ups)]) == 0
        assert capsys.readouterr().out == \
            "equivalence: 300 keys, 100 updates, no divergence\n"
        # the stream applied twice: its second half deletes what the
        # first already deleted, or re-inserts a stored id
        twice = tmp_path / "twice.updates"
        lines = ups.read_text().splitlines()
        body = [ln for ln in lines if ln[:2] in ("i ", "d ")]
        twice.write_text("\n".join(lines + body) + "\n")
        assert main(["equiv", "--rules", str(rules), "--trace", str(trace),
                     "--updates", str(twice)]) == 1
        out, err = capsys.readouterr()
        assert out == "" and err.count("\n") == 1
        assert err.startswith("equiv: update 100: ")

    def test_bench_smoke(self, files, capsys):
        rules, trace, ups = files
        rc = main(["bench", "--rules", str(rules), "--trace", str(trace),
                   "--updates", str(ups), "--algo", "tc",
                   "--report", "json"])
        assert rc == 0
        d = json.loads(capsys.readouterr().out)
        assert d["bound_violations"] == 0 and d["lookups"] == 300
        assert d["updates"] == 100

    def test_bench_refuses_another_rule_sets_updates(self, files, tmp_path,
                                                     capsys):
        rules, trace, _ = files
        for widths in (["16", "16"], ["8", "8", "8"]):
            other = tmp_path / f"u{len(widths)}.updates"
            assert main(["gen", "--rules", str(tmp_path / "o.rules"),
                         "--updates", str(other), "--seed", "4",
                         "--count", "200", "--widths", *widths,
                         "--masks", "10", "--chains", "4",
                         "--update-count", "100"]) == 0
            capsys.readouterr()
            assert main(["bench", "--rules", str(rules), "--trace",
                         str(trace), "--updates", str(other)]) == 1
            out, err = capsys.readouterr()
            assert out == "" and err.count("\n") == 1
            assert err.startswith("bench: ")
        # the last stream's widths differ from the rule set's
        assert "widths (8, 8, 8) differ" in err

    @pytest.mark.parametrize("cmd,flag,value", [
        ("build", "--trace", "X"), ("build", "--updates", "X"),
        ("equiv", "--algo", "tc"), ("equiv", "--report", "json")])
    def test_subcommand_rejects_flags_it_does_not_read(self, files, cmd,
                                                       flag, value):
        rules, trace, _ = files
        argv = [cmd, "--rules", str(rules), flag, value]
        if cmd == "equiv":
            argv += ["--trace", str(trace)]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2

    def test_bench_has_no_rate_flags(self, files):
        rules, trace, _ = files
        for flag in ("--tx-rate", "--update-rate", "--duration", "--seed"):
            with pytest.raises(SystemExit):
                main(["bench", "--rules", str(rules), "--trace", str(trace),
                      flag, "1"])

    @pytest.mark.parametrize("algo", ALGOS)
    def test_build_reports_common_keys(self, files, tmp_path, algo):
        rules, _, _ = files
        out = tmp_path / "build.json"
        assert main(["build", "--rules", str(rules), "--algo", algo,
                     "--report", "json", "--out", str(out)]) == 0
        d = json.loads(out.read_text())
        # the same keys for every algorithm
        assert set(d) == {"rules", "tuples", "chains", "groups", "entries",
                          "owner_links", "memory_bytes", "traced_bytes",
                          "probe_bound", "audit_violations"}
        assert d["rules"] == 200 and d["audit_violations"] == 0
        assert d["probe_bound"] > 0 and d["memory_bytes"] > 0
        # the heap the build holds, which the C-layout model undercounts
        assert d["traced_bytes"] > d["memory_bytes"]
        assert (d["groups"] > 0) == (algo == "etc")
        assert (d["chains"] > 0) == (algo in ("tc", "etc"))

    @pytest.mark.parametrize("opts,why", [
        (["--masks", "2", "--chains", "8"], "1 to 2 chains, not 8"),
        (["--widths", "0"], "field width 0 out of range"),
        (["--hit-ratio", "2"], "--hit-ratio 2.0 is not in [0, 1]"),
        (["--widths", "1"], "a chain of 4 masks needs at least 4 key bits"),
        (["--widths", "2", "--masks", "8", "--chains", "8"],
         "8 distinct masks do not fit 2 key bits"),
        (["--loose-masks", "-3"], "loose_masks must be >= 0, not -3")],
        ids=["profile", "widths", "hit-ratio", "one-bit", "two-bits",
             "loose"])
    def test_gen_rejects_bad_options_before_writing(self, tmp_path, opts,
                                                    why):
        # in a child process under a timeout: a profile the widths
        # cannot hold once made gen loop forever
        out = [tmp_path / n for n in ("r.rules", "t.trace", "u.updates")]
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(SRC), env.get("PYTHONPATH")) if p)
        proc = subprocess.run(
            [sys.executable, "-m", "tuplechain.cli", "gen", "--rules",
             str(out[0]), "--trace", str(out[1]), "--updates", str(out[2]),
             *opts], env=env, capture_output=True, text=True, timeout=10)
        assert proc.returncode == 2
        assert proc.stdout == "" and proc.stderr.count("\n") == 1
        assert proc.stderr.startswith("tuplechain: gen: ")
        assert why in proc.stderr
        assert not any(p.exists() for p in out)

    def test_missing_trace_fails(self, files):
        rules, _, _ = files
        with pytest.raises(SystemExit):
            main(["equiv", "--rules", str(rules)])
