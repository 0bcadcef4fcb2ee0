"""Tuple graph over masks and minimum path cover for chain construction.

The graph has one vertex per mask and an edge a->b whenever a's bits are
a strict subset of b's.  Breaking it into the fewest chains is minimum
path cover on a DAG, solved by maximum bipartite matching over the edge
set (out-copies matched to in-copies; cover size = V - |matching|).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass


class GraphError(ValueError):
    pass


@dataclass(frozen=True, slots=True)
class TupleGraph:
    vertices: tuple[int, ...]          # masks
    adj: tuple[tuple[int, ...], ...]   # successor indices per vertex

    @property
    def edge_count(self) -> int:
        return sum(len(a) for a in self.adj)


@dataclass(frozen=True, slots=True)
class PathCover:
    """Vertex-disjoint paths (index sequences) covering the graph."""

    graph: TupleGraph
    paths: tuple[tuple[int, ...], ...]

    @property
    def chain_count(self) -> int:
        return len(self.paths)

    def mask_paths(self) -> list[list[int]]:
        return [[self.graph.vertices[i] for i in p] for p in self.paths]


@dataclass(frozen=True, slots=True)
class _ContainmentGraph(TupleGraph):
    """A graph ``build_graph`` made.  Its edges are strict containment,
    a strict order, so it holds no cycle and needs no check for one."""


def build_graph(masks: list[int]) -> TupleGraph:
    if len(set(masks)) != len(masks):
        raise GraphError("duplicate masks")
    # mask_less_than(a, b), inlined: it runs once per pair of masks, and
    # the masks are distinct, so a != b leaves out the pair (a, a)
    adj = tuple(
        tuple([j for j, b in enumerate(masks) if a & b == a and a != b])
        for a in masks)
    return _ContainmentGraph(tuple(masks), adj)


def _check_acyclic(g: TupleGraph) -> None:
    indeg = [0] * len(g.vertices)
    for outs in g.adj:
        for j in outs:
            indeg[j] += 1
    q = deque(i for i, d in enumerate(indeg) if d == 0)
    seen = 0
    while q:
        i = q.popleft()
        seen += 1
        for j in g.adj[i]:
            indeg[j] -= 1
            if indeg[j] == 0:
                q.append(j)
    if seen != len(g.vertices):
        raise GraphError("graph has a cycle")


def _hopcroft_karp(n: int, adj) -> list[int]:
    """Maximum matching left->right on a bipartite graph with n vertices
    on each side; returns match_left (-1 for unmatched)."""
    INF = n + 1
    match_l = [-1] * n
    match_r = [-1] * n
    dist = [0] * n

    def bfs() -> bool:
        q = deque()
        for u in range(n):
            if match_l[u] == -1:
                dist[u] = 0
                q.append(u)
            else:
                dist[u] = INF
        found = False
        while q:
            u = q.popleft()
            for v in adj[u]:
                w = match_r[v]
                if w == -1:
                    found = True
                elif dist[w] == INF:
                    dist[w] = dist[u] + 1
                    q.append(w)
        return found

    def dfs(root: int) -> None:
        """Augment from free vertex root along a shortest alternating
        path, if any.  Iterative, so path length is not bounded by the
        interpreter's recursion limit: ``path[k]`` resumes its scan of
        ``tried[k]`` when the vertex after it dead-ends, and ``took[k]``
        is the neighbour it last stepped through."""
        path = [root]
        tried = [iter(adj[root])]
        took = [-1]
        while path:
            u = path[-1]
            want = dist[u] + 1
            for v in tried[-1]:
                w = match_r[v]
                if w == -1 or dist[w] == want:
                    break
            else:
                # dead end: no augmenting path through u this phase
                dist[u] = INF
                path.pop()
                tried.pop()
                took.pop()
                continue
            took[-1] = v
            if w == -1:
                # free vertex reached: flip every edge along the path
                for u, v in zip(path, took):
                    match_l[u] = v
                    match_r[v] = u
                return
            path.append(w)
            tried.append(iter(adj[w]))
            took.append(-1)

    while bfs():
        for u in range(n):
            if match_l[u] == -1:
                dfs(u)
    return match_l


def min_path_cover(g: TupleGraph) -> PathCover:
    """Fewest vertex-disjoint paths covering all vertices of the DAG."""
    if not isinstance(g, _ContainmentGraph):
        _check_acyclic(g)
    n = len(g.vertices)
    match_l = _hopcroft_karp(n, g.adj)
    has_pred = set(v for v in match_l if v != -1)
    paths = []
    for i in range(n):
        if i in has_pred:
            continue
        path = [i]
        while match_l[path[-1]] != -1:
            path.append(match_l[path[-1]])
        paths.append(tuple(path))
    return PathCover(g, tuple(paths))

