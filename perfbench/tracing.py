"""Span recording around the package's entry points, from outside it.

``Tracer.install`` replaces methods and module globals of tuplechain
with wrappers that record one span per call: name, start, end, parent
span and request id.  A span with no open parent starts a new request,
so every classifier call the benchmark makes is one request, labelled by
its root span.  Spans live in one flat list until ``write`` dumps them.
"""

from __future__ import annotations

import itertools
import time
from collections import defaultdict


def _touches(args):
    t = args[0].touches
    return t.marker, t.hint


def _touch_delta(args, result, before):
    t = args[0].touches
    return t.marker - before[0], t.hint - before[1]


def _etc_heads(args, result, before):
    # one head probe per group; the rest of the probes are local
    return len(args[0].groups), result.probes


def targets():
    """(owner, attribute, span name, before hook, after hook).

    Module globals are wrapped where their callers look them up: the
    graph functions in ``classifier`` and ``etc``, the marker and hint
    helpers in ``chain``."""
    from tuplechain import chain, classifier, etc, workload
    C, T, E = chain.Chain, classifier.TupleChainClassifier, etc.EtcClassifier
    out = []
    for op in ("build", "lookup", "insert", "remove"):
        out.append((T, op, f"tc.{op}", None, None))
        out.append((E, op, f"etc.{op}", None,
                    _etc_heads if op == "lookup" else None))
    out.append((C, "lookup", "chain.lookup", None, None))
    for op in ("insert_rule", "delete_rule", "insert_tuple"):
        out.append((C, op, f"chain.{op}", _touches, _touch_delta))
    for mod in (classifier, etc):
        out.append((mod, "build_graph", "graph.build_graph", None, None))
        out.append((mod, "min_path_cover", "graph.min_path_cover",
                    None, None))
    out.append((etc, "group_chains", "etc.group_chains", None, None))
    for fn in ("leave_marker", "delete_marker", "report_hint"):
        out.append((chain, fn, f"tuple_store.{fn}", None, None))
    for fn in ("parse_classbench", "parse_generic"):
        out.append((workload, fn, f"workload.{fn}", None, None))
    return out


class Tracer:
    """In-memory span store.  Stops opening requests past ``cap`` spans;
    a request already open is always recorded whole."""

    def __init__(self, cap: int):
        self.cap = cap
        self.names: list[str] = []
        # six ints per span, appended at exit:
        # span id (entry order), name id, start ns, end ns, parent, request
        self.rec: list[int] = []
        self.root_names: list[str] = []      # label per request id
        # (root name, span name) -> summed hook values
        self.tallies: dict[tuple[str, str], list[float]] = defaultdict(
            lambda: [0.0, 0.0])
        self.child_cost_ns = 0.0
        self._stack: list[int] = []
        self._open = [True]
        self._ids = itertools.count()
        self._saved: list[tuple[object, str, object]] = []

    @property
    def spans(self) -> int:
        return len(self.rec) // 6

    @property
    def full(self) -> bool:
        return self.spans >= self.cap

    def _span(self, fn, name, before=None, after=None):
        nid = len(self.names)
        self.names.append(name)
        stack, ids, roots = self._stack, self._ids, self.root_names
        push, pop, extend = stack.append, stack.pop, self.rec.extend
        clock = time.perf_counter_ns
        limit = 6 * self.cap
        rec, open_ = self.rec, self._open

        def wrapper(*args, **kwargs):
            if stack:
                parent = stack[-1]
            elif len(rec) >= limit or not open_[0]:
                return fn(*args, **kwargs)
            else:
                parent = -1
                roots.append(name)
            idx = next(ids)
            push(idx)
            state = before(args) if before is not None else None
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                pop()
                extend((idx, nid, t0, t1, parent, len(roots) - 1))
            if after is not None:
                acc = self.tallies[(roots[-1], name)]
                for i, v in enumerate(after(args, result, state)):
                    acc[i] += v
            return result

        return wrapper

    def untraced(self, fn):
        """fn, run with recording paused."""
        def run(*args, **kwargs):
            self._open[0] = False
            try:
                return fn(*args, **kwargs)
            finally:
                self._open[0] = True
        return run

    def calibrate(self, calls: int = 2000, repeats: int = 7) -> None:
        """Measure what one traced child adds to its parent's self time
        outside its own span (entry and exit bookkeeping), so that
        ``aggregate`` can take it back out."""
        probe = Tracer(self.cap)

        def noop():
            return None

        child = probe._span(noop, "child")

        def traced():
            for _ in range(calls):
                child()

        parent = probe._span(traced, "parent")
        costs = []
        for _ in range(repeats):
            t0 = time.perf_counter_ns()
            for _ in range(calls):
                noop()
            plain = time.perf_counter_ns() - t0
            del probe.rec[:]
            parent()
            self_ns = probe.aggregate()[("parent", "parent")][2]
            costs.append((self_ns - plain) / calls)
        costs.sort()
        self.child_cost_ns = max(0.0, costs[len(costs) // 2])

    def install(self) -> None:
        for owner, attr, name, before, after in targets():
            raw = owner.__dict__[attr]
            if isinstance(raw, classmethod):
                new = classmethod(self._span(raw.__func__, name, before,
                                             after))
            else:
                new = self._span(raw, name, before, after)
            self._saved.append((owner, attr, raw))
            setattr(owner, attr, new)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, raw = self._saved.pop()
            setattr(owner, attr, raw)

    # -- derived numbers ------------------------------------------------

    def _columns(self):
        """Spans in entry order as (name id, start, end, parent row,
        request)."""
        rec = self.rec
        order = sorted(range(0, len(rec), 6), key=rec.__getitem__)
        row_of = {rec[i]: row for row, i in enumerate(order)}
        row_of[-1] = -1
        return [(rec[i + 1], rec[i + 2], rec[i + 3], row_of[rec[i + 4]],
                 rec[i + 5]) for i in order]

    def aggregate(self) -> dict[tuple[str, str], list[float]]:
        """(root name, span name) -> [count, total ns, self ns].

        Self time is a span's duration minus its children's durations and
        minus the calibrated bookkeeping cost of each child."""
        rows = self._columns()
        child = [0.0] * len(rows)
        for nid, t0, t1, parent, _ in rows:
            if parent >= 0:
                child[parent] += t1 - t0 + self.child_cost_ns
        out: dict[tuple[str, str], list[float]] = defaultdict(
            lambda: [0, 0, 0.0])
        for i, (nid, t0, t1, _, req) in enumerate(rows):
            acc = out[(self.root_names[req], self.names[nid])]
            acc[0] += 1
            acc[1] += t1 - t0
            acc[2] += max(0.0, t1 - t0 - child[i])
        return out

    def nested_in(self, parent_name: str, child_name: str) -> int:
        """Spans named child_name whose parent span is parent_name."""
        rows = self._columns()
        return sum(1 for nid, _, _, parent, _ in rows
                   if parent >= 0 and self.names[nid] == child_name
                   and self.names[rows[parent][0]] == parent_name)

    def write(self, path) -> None:
        """One CSV line per span, times relative to the first span."""
        rows = self._columns()
        base = min((r[1] for r in rows), default=0)
        with open(path, "w") as fh:
            fh.write("span,name,start_ns,end_ns,parent,request,"
                     "request_root\n")
            for i, (nid, t0, t1, parent, req) in enumerate(rows):
                fh.write(f"{i},{self.names[nid]},{t0 - base},{t1 - base},"
                         f"{parent},{req},{self.root_names[req]}\n")
