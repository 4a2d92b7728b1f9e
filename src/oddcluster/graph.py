"""Simple undirected graphs, stored as their adjacency sets alone, and BFS-layer primitives.

Vertices are dense integer indices 0..n-1.  All set-valued outputs are
sorted ascending so that repeated runs produce identical results.

Walk kernels: ``components`` when only the reached sets matter (it takes
each component out of a pool as it goes), ``bfs_tree`` when the visit order
reaches the output (it takes neighbours in ascending order, so the order is
fixed by the graph), and ``bfs_layers``' frontier walk, whose layers are
sorted sets.
"""

from dataclasses import dataclass

from .errors import ResourceLimitError

# Size caps of a Graph.  At both caps (random edges) its adjacency sets hold about
# 0.17 GB, 0.21 GB while they are built, far beyond what min-fill and the exact
# searches finish on; the caps turn a hostile size into exit 2 instead of memory exhaustion.
MAX_VERTICES = 500_000
MAX_EDGES = 1_000_000


def check_graph_size(n, m=0):
    """Raise ResourceLimitError when n vertices or m edges exceed the caps of ``Graph``."""
    if n > MAX_VERTICES:
        raise ResourceLimitError(f"{n} vertices exceed the cap of {MAX_VERTICES}")
    if m > MAX_EDGES:
        raise ResourceLimitError(f"{m} edges exceed the cap of {MAX_EDGES}")


class Graph:
    """Immutable simple undirected graph on vertices 0..n-1, stored as its adjacency sets alone.

    The caps are checked before anything is allocated: ``n`` on entry, and
    the ``edges`` given, which may be lazy, as they are read.
    """

    __slots__ = ("n", "adj")

    def __init__(self, n, edges=()):
        if n < 0:
            raise ValueError("vertex count must be non-negative")
        check_graph_size(n)
        adj = [set() for _ in range(n)]
        for k, (u, v) in enumerate(edges):
            if k == MAX_EDGES:
                check_graph_size(n, k + 1)
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u},{v}) out of range for n={n}")
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            adj[u].add(v)
            adj[v].add(u)
        for i, s in enumerate(adj):  # one set at a time: the peak stays near what is kept
            adj[i] = frozenset(s)
        self.n = n
        self.adj = tuple(adj)

    @property
    def edges(self):
        """The edges as ``(a, b)`` pairs with ``a < b``: a frozenset built from ``adj`` on each read."""
        return frozenset((a, b) for a, nbrs in enumerate(self.adj) for b in nbrs if a < b)

    @property
    def m(self):
        return sum(map(len, self.adj)) // 2

    def has_edge(self, u, v):
        return 0 <= u < self.n and v in self.adj[u]

    def degree(self, v):
        return len(self.adj[v])

    def __eq__(self, other):
        if not isinstance(other, Graph):
            return NotImplemented
        return self.n == other.n and self.adj == other.adj

    def __hash__(self):
        return hash((self.n, self.adj))

    def __repr__(self):
        return f"Graph(n={self.n}, m={self.m})"


@dataclass(frozen=True)
class Layering:
    """BFS layers of one connected component: layer i = vertices at distance i."""

    root: int
    layers: tuple


def bfs_layers(g, r, allowed=None):
    """Partition the component of r in G[allowed] (all of G when None) into distance layers from r."""
    if allowed is not None:
        allowed = frozenset(allowed)
    if not 0 <= r < g.n or (allowed is not None and r not in allowed):
        raise ValueError(f"invalid root {r}")
    seen, layers = {r}, [(r,)]
    while True:
        nxt = set()
        for v in layers[-1]:  # per vertex: a small region never pays a hub's full degree
            nxt |= g.adj[v] if allowed is None else g.adj[v] & allowed
        nxt -= seen
        if not nxt:
            return Layering(root=r, layers=tuple(layers))
        seen |= nxt
        layers.append(tuple(sorted(nxt)))


def induced_subgraph(g, xs):
    """Subgraph induced on xs, re-indexed densely.

    Returns ``(subgraph, index_map)`` where ``index_map[new] = old``
    (old vertices in ascending order).
    """
    xs = sorted(set(xs))
    for v in xs:
        if not 0 <= v < g.n:
            raise ValueError(f"invalid vertex {v}")
    pos = {v: i for i, v in enumerate(xs)}
    edges = [(pos[a], pos[b]) for a in xs for b in g.adj[a] if a < b and b in pos]
    return Graph(len(xs), edges), xs


def components(adj, starts, pool):
    """Yield, for each vertex of ``starts`` still in the set ``pool``, its component within ``pool``.

    ``adj[v]`` is v's neighbour set.  Each component is an unsorted set, and
    it is removed from ``pool`` as it is walked, so ``pool`` ends up holding
    exactly the vertices that no yielded component contains.
    """
    for v in starts:
        if v not in pool:
            continue
        pool.discard(v)
        comp = {v}
        nb = adj[v] & pool
        while nb:
            pool -= nb
            comp |= nb
            frontier, nb = nb, set()
            for x in frontier:
                nb |= adj[x] & pool
        yield comp


def bfs_tree(adj, start):
    """BFS parents ``{v: parent}`` of the component of ``start``, start excluded.

    The dict is in visit order, and each vertex's neighbours are taken in
    ascending order, so the tree and its order are fixed by the graph alone.
    """
    parent = {}
    order = [start]
    for v in order:  # grows while read: BFS order
        for u in sorted(adj[v]):
            if u not in parent and u != start:
                parent[u] = v
                order.append(u)
    return parent


def connected_components(g, xs=None):
    """Maximal connected vertex sets of G[xs] (all of G when None), each sorted, ordered by minimum element."""
    if xs is None:
        starts = range(g.n)
    else:
        starts = sorted(set(xs))
        if starts and not (0 <= starts[0] and starts[-1] < g.n):
            raise ValueError(f"vertex set leaves 0..{g.n - 1}")
    return [tuple(sorted(comp)) for comp in components(g.adj, starts, set(starts))]
