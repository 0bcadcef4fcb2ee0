import functools
import random

import pytest

from tuplechain import graph
from tuplechain.graph import (GraphError, TupleGraph, _hopcroft_karp,
                              build_graph, min_path_cover)
from tuplechain.model import FieldSchema, mask_less_than

S = FieldSchema((8, 8))

FIG_MASKS = [S.pack(m) for m in [
    (0x80, 0xC0), (0xC0, 0xF0), (0xC0, 0xFC),
    (0xE0, 0xF8), (0xF8, 0xFC), (0xFF, 0xFF),
]]


def brute_force_cover_size(g: TupleGraph) -> int:
    """Exponential oracle: DP over (next vertex, open path tails).

    Vertices are taken in index order (a topological order is not needed:
    a path may only step along edges, and we only ever extend a tail
    with a later vertex, which is fine because every DAG edge can be
    oriented along some fixed topological order -- we brute force all
    orders below by trying every subset of tails).
    """
    n = len(g.vertices)
    order = _topo_order(g)
    pos = {v: i for i, v in enumerate(order)}
    succ = [set(g.adj[v]) for v in range(n)]

    @functools.lru_cache(maxsize=None)
    def go(i: int, tails: frozenset) -> int:
        if i == n:
            return len(tails)
        v = order[i]
        best = go(i + 1, tails | {v}) + 0  # start a new path at v
        for t in tails:
            if v in succ[t]:
                best = min(best, go(i + 1, (tails - {t}) | {v}))
        return best

    # each open tail eventually counts as one path
    result = go(0, frozenset())
    go.cache_clear()
    return result


def _topo_order(g: TupleGraph):
    indeg = [0] * len(g.vertices)
    for outs in g.adj:
        for j in outs:
            indeg[j] += 1
    order, stack = [], [i for i, d in enumerate(indeg) if d == 0]
    while stack:
        i = stack.pop()
        order.append(i)
        for j in g.adj[i]:
            indeg[j] -= 1
            if indeg[j] == 0:
                stack.append(j)
    return order


def random_dag(rng, n, p):
    masks = list(range(n))  # vertex labels; edges supplied explicitly
    adj = tuple(tuple(j for j in range(i + 1, n) if rng.random() < p)
                for i in range(n))
    return TupleGraph(tuple(masks), adj)


class TestBuildGraph:
    def test_fig_masks_contain_known_edge(self):
        g = build_graph(FIG_MASKS)
        assert 1 in g.adj[0]   # (0x80,0xC0) < (0xC0,0xF0)

    def test_single_mask_no_edges(self):
        g = build_graph([S.pack((0xF0, 0x00))])
        assert g.edge_count == 0

    def test_duplicate_masks_rejected(self):
        with pytest.raises(GraphError):
            build_graph([1, 2, 1])

    def test_edges_equal_subset_relation(self):
        rng = random.Random(4)
        masks = rng.sample(range(1, 2**12), 40)
        g = build_graph(masks)
        for i, a in enumerate(masks):
            for j, b in enumerate(masks):
                assert (j in g.adj[i]) == mask_less_than(a, b)


class TestMinPathCover:
    def test_edgeless_graph_all_singletons(self):
        g = TupleGraph(tuple(range(5)), ((),) * 5)
        pc = min_path_cover(g)
        assert pc.chain_count == 5
        assert all(len(p) == 1 for p in pc.paths)

    def test_total_order_single_chain(self):
        n = 6
        adj = tuple(tuple(range(i + 1, n)) for i in range(n))
        pc = min_path_cover(TupleGraph(tuple(range(n)), adj))
        assert pc.chain_count == 1

    def test_fig_masks_cover(self):
        g = build_graph(FIG_MASKS)
        pc = min_path_cover(g)
        assert pc.chain_count == brute_force_cover_size(g)
        assert pc.chain_count <= 3

    def test_cycle_rejected(self):
        g = TupleGraph((0, 1), ((1,), (0,)))
        with pytest.raises(GraphError):
            min_path_cover(g)

    def test_cycle_check_only_for_graphs_not_built_from_masks(self,
                                                             monkeypatch):
        checked = []
        monkeypatch.setattr(graph, "_check_acyclic", checked.append)
        built = build_graph(FIG_MASKS)
        min_path_cover(built)
        assert checked == []
        given = TupleGraph(built.vertices, built.adj)
        assert min_path_cover(given).paths == min_path_cover(built).paths
        assert checked == [given]

    def test_paths_disjoint_and_covering(self):
        rng = random.Random(17)
        for _ in range(50):
            g = random_dag(rng, rng.randint(1, 12), rng.random())
            pc = min_path_cover(g)
            seen = [v for p in pc.paths for v in p]
            assert sorted(seen) == list(range(len(g.vertices)))
            for p in pc.paths:
                for a, b in zip(p, p[1:]):
                    assert b in g.adj[a]

    def test_matches_brute_force_on_small_dags(self):
        rng = random.Random(99)
        for _ in range(60):
            g = random_dag(rng, rng.randint(1, 10), rng.choice([0.1, 0.3, 0.6]))
            assert min_path_cover(g).chain_count == brute_force_cover_size(g)

    def test_chains_strictly_increase_under_mask_order(self):
        rng = random.Random(2)
        masks = rng.sample(range(1, 2**14), 60)
        pc = min_path_cover(build_graph(masks))
        for path in pc.mask_paths():
            for a, b in zip(path, path[1:]):
                assert mask_less_than(a, b)


def test_matching_survives_a_4000_step_augmenting_path():
    # left i -> right (i+1, i): the first phase matches every i < 1999
    # to i+1 and leaves one augmenting path through all 2000 vertices
    adj = [(i + 1, i) for i in range(1999)] + [(1999,)]
    match = _hopcroft_karp(2000, adj)
    assert sorted(match) == list(range(2000))


class TestCoverQuality:
    def test_report_matches_direct_formula(self):
        # a cover of l chains over m tuples probes at most
        # sum(1 + floor(log2 |chain|)) <= l(1 + log2(m/l)) per lookup
        import math
        rng = random.Random(6)
        for _ in range(30):
            g = random_dag(rng, rng.randint(2, 12), 0.4)
            pc = min_path_cover(g)
            sizes = [len(p) for p in pc.paths]
            l, m = pc.chain_count, len(g.vertices)
            assert l == len(sizes) and sum(sizes) == m
            bound = sum(1 + int(math.log2(s)) for s in sizes)
            closed_form = l * (1 + math.log2(m / l))
            # the per-chain sum never exceeds the closed form
            assert bound <= closed_form + 1e-9


def test_fewer_chains_never_raise_the_bound():
    # the closed-form bound is monotone in l below m/2
    import math
    m = 64
    vals = [l * (1 + math.log2(m / l)) for l in range(1, m // 2 + 1)]
    assert vals == sorted(vals)
