"""Simple undirected graphs, rooted trees, and BFS-layer primitives.

Vertices are dense integer indices 0..n-1.  All set-valued outputs are
sorted ascending so that repeated runs produce identical results.

Two walk kernels carry the package's graph walks: ``reach`` when only the
reached set matters, ``bfs_tree`` when the visit order reaches the output
(it takes neighbours in ascending order, so the order is fixed by the graph).
"""

from dataclasses import dataclass


class Graph:
    """Immutable simple undirected graph on vertices 0..n-1."""

    __slots__ = ("n", "edges", "adj")

    def __init__(self, n, edges=()):
        if n < 0:
            raise ValueError("vertex count must be non-negative")
        adj = [set() for _ in range(n)]
        es = set()
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u},{v}) out of range for n={n}")
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            a, b = (u, v) if u < v else (v, u)
            es.add((a, b))
            adj[a].add(b)
            adj[b].add(a)
        self.n = n
        self.edges = frozenset(es)
        self.adj = tuple(frozenset(s) for s in adj)

    @property
    def m(self):
        return len(self.edges)

    def has_edge(self, u, v):
        a, b = (u, v) if u < v else (v, u)
        return (a, b) in self.edges

    def degree(self, v):
        return len(self.adj[v])

    def __eq__(self, other):
        if not isinstance(other, Graph):
            return NotImplemented
        return self.n == other.n and self.edges == other.edges

    def __hash__(self):
        return hash((self.n, self.edges))

    def __repr__(self):
        return f"Graph(n={self.n}, m={self.m})"


class RootedTree:
    """A rooted tree or forest given by a child -> parent map.

    Every vertex that is not a key of ``parent`` must appear in ``roots``.
    """

    __slots__ = ("parent", "roots")

    def __init__(self, parent, roots):
        self.parent = dict(parent)
        self.roots = tuple(sorted(roots))
        if not self.roots and self.parent:
            raise ValueError("non-empty forest needs at least one root")
        rootset = set(self.roots)
        if rootset & set(self.parent):
            raise ValueError("a root cannot also have a parent")
        # every vertex must reach a root; vertices already known to reach one
        # end later walks, so each vertex is walked over once
        reaches_root = set(rootset)
        for v in self.parent:
            walk = set()
            while v not in reaches_root:
                if v in walk or v not in self.parent:
                    raise ValueError("parent map contains a cycle or dangling vertex")
                walk.add(v)
                v = self.parent[v]
            reaches_root |= walk

    def vertices(self):
        return set(self.roots) | set(self.parent)

    def edges(self):
        return sorted((min(c, p), max(c, p)) for c, p in self.parent.items())

    def children(self):
        ch = {v: [] for v in self.vertices()}
        for c, p in self.parent.items():
            ch[p].append(c)
        for v in ch:
            ch[v].sort()
        return ch

    def depth(self, v):
        """Number of edges from v to its root."""
        d = 0
        while v in self.parent:
            v = self.parent[v]
            d += 1
        return d

    def vertex_height(self):
        """Maximum number of vertices on a root-to-leaf path."""
        if not self.vertices():
            return 0
        return 1 + max(self.depth(v) for v in self.vertices())

    def __repr__(self):
        return f"RootedTree(roots={self.roots}, edges={len(self.parent)})"


@dataclass(frozen=True)
class Layering:
    """BFS layers of one connected component: layer i = vertices at distance i."""

    root: int
    layers: tuple

    def layer_of(self):
        """Map vertex -> layer index."""
        out = {}
        for i, layer in enumerate(self.layers):
            for v in layer:
                out[v] = i
        return out


def bfs_layers(g, r, allowed=None):
    """Partition the component of r in G[allowed] (all of G when None) into distance layers from r."""
    if allowed is not None:
        allowed = frozenset(allowed)
    if not 0 <= r < g.n or (allowed is not None and r not in allowed):
        raise ValueError(f"invalid root {r}")
    depth = {r: 0}
    layers = [[r]]
    for v, p in bfs_tree(g.adj, r, allowed).items():
        depth[v] = k = depth[p] + 1
        if k == len(layers):
            layers.append([])
        layers[k].append(v)
    return Layering(root=r, layers=tuple(tuple(sorted(l)) for l in layers))


def layered_spanning_tree(g, layering, i, u_i):
    """Spanning tree of layers 0..i-1 plus u_i, one edge down per vertex.

    Each non-root vertex in layer j is attached to its minimum-index
    neighbour in layer j-1, which exists by the layering invariant.
    """
    if i < 1:
        raise ValueError("layer index must be >= 1")
    if i >= len(layering.layers) or u_i not in layering.layers[i]:
        raise ValueError(f"vertex {u_i} is not in layer {i}")
    parent = {}
    for j in range(1, i):
        below = set(layering.layers[j - 1])
        for v in layering.layers[j]:
            parent[v] = min(g.adj[v] & below)
    parent[u_i] = min(g.adj[u_i] & set(layering.layers[i - 1]))
    return RootedTree(parent=parent, roots=(layering.root,))


def is_bipartite(g):
    """Try to properly 2-colour g.

    Returns ``(colouring, None)`` on success, or ``(None, cycle)`` where
    ``cycle`` is a vertex sequence of an odd cycle in g, extracted from the
    first parity conflict met by BFS.
    """
    colour = {}
    for s in range(g.n):
        if s in colour:
            continue
        tree = bfs_tree(g.adj, s)
        colour[s] = 0
        for v, p in tree.items():
            colour[v] = 1 - colour[p]
        # colours never change once given, so the first same-colour edge in
        # BFS order is the conflict an interleaved BFS would meet first
        for v in (s, *tree):
            for u in sorted(g.adj[v]):
                if colour[u] == colour[v]:
                    return None, _conflict_cycle(tree, v, u)
    return colour, None


def _conflict_cycle(parent, v, u):
    """Odd cycle through the BFS-tree paths of a same-colour edge vu."""
    pv = [v]
    while pv[-1] in parent:
        pv.append(parent[pv[-1]])
    pu = [u]
    while pu[-1] in parent:
        pu.append(parent[pu[-1]])
    on_pv = set(pv)
    k = next(i for i, x in enumerate(pu) if x in on_pv)
    lca = pu[k]
    left = pv[: pv.index(lca) + 1]
    right = pu[:k]
    return left + list(reversed(right))


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


def reach(adj, start, allowed=None, edge_ok=None):
    """Vertices reachable from ``start`` through ``allowed`` by edges vu with ``edge_ok(v, u)``.

    ``adj[v]`` is v's neighbour set; None allows every vertex or edge.  The
    walk takes neighbours in set order, as only the set is returned.
    """
    seen = {start}
    stack = [start]
    while stack:
        v = stack.pop()
        for u in adj[v] if allowed is None else adj[v] & allowed:
            if u not in seen and (edge_ok is None or edge_ok(v, u)):
                seen.add(u)
                stack.append(u)
    return seen


def bfs_tree(adj, start, allowed=None, edge_ok=None):
    """BFS parents ``{v: parent}`` of the vertices ``reach`` finds, start excluded.

    The dict is in visit order, and each vertex's neighbours are taken in
    ascending order, so the tree and its order are fixed by the graph alone.
    """
    parent = {}
    order = [start]
    for v in order:  # grows while read: BFS order
        for u in sorted(adj[v] if allowed is None else adj[v] & allowed):
            if u not in parent and u != start and (edge_ok is None or edge_ok(v, u)):
                parent[u] = v
                order.append(u)
    return parent


def connected_components(g, xs=None):
    """Maximal connected vertex sets of G[xs] (all of G when None), each sorted, ordered by minimum element."""
    if xs is not None:
        xs = frozenset(xs)
        if xs and not (0 <= min(xs) and max(xs) < g.n):
            raise ValueError(f"vertex set leaves 0..{g.n - 1}")
    seen = set()
    comps = []
    for s in range(g.n) if xs is None else sorted(xs):
        if s not in seen:
            comp = reach(g.adj, s, xs)
            seen |= comp
            comps.append(tuple(sorted(comp)))
    return comps
