"""Shared brute-force oracles for the test suite.

These are intentionally written from the definitions, without reusing the
library's optimized code paths, so the two can falsify each other.
"""

import random
from itertools import combinations, permutations

from oddcluster import Graph, TreeDecomposition


def random_small_graph(rng, n_max, n_min=1):
    n = rng.randint(n_min, n_max)
    edges = [e for e in combinations(range(n), 2) if rng.random() < rng.random()]
    return Graph(n, edges)


def brute_tree_depth(adj, verts):
    """td via the plain recursion: 1 + min_v td(G-v) on connected pieces."""
    if not verts:
        return 0
    comps = _components(adj, verts)
    if len(comps) > 1:
        return max(brute_tree_depth(adj, c) for c in comps)
    if len(verts) == 1:
        return 1
    return 1 + min(brute_tree_depth(adj, verts - {v}) for v in verts)


def _components(adj, verts):
    comps = []
    rest = set(verts)
    while rest:
        start = min(rest)
        comp = {start}
        stack = [start]
        while stack:
            v = stack.pop()
            for u in adj[v] & rest:
                if u not in comp:
                    comp.add(u)
                    stack.append(u)
        comps.append(frozenset(comp))
        rest -= comp
    return comps


def brute_treewidth(g):
    """Exhaustive elimination-order treewidth, n <= 7 or so."""
    best = g.n
    for order in permutations(range(g.n)):
        adj = [set(s) for s in g.adj]
        width = 0
        for v in order:
            width = max(width, len(adj[v]))
            if width >= best:
                break
            for a in adj[v]:
                for b in adj[v]:
                    if a != b:
                        adj[a].add(b)
            for a in adj[v]:
                adj[a].discard(v)
            adj[v] = set()
        best = min(best, width)
    return best


def triangles_of(g, region=None):
    verts = sorted(region) if region is not None else range(g.n)
    out = []
    for a, b, c in combinations(verts, 3):
        if g.has_edge(a, b) and g.has_edge(a, c) and g.has_edge(b, c):
            out.append((a, b, c))
    return out


def max_disjoint_triangles(g):
    """Brute-force maximum number of vertex-disjoint triangles."""
    tris = triangles_of(g)

    def rec(i, used):
        if i == len(tris):
            return 0
        best = rec(i + 1, used)
        t = tris[i]
        if not used & set(t):
            best = max(best, 1 + rec(i + 1, used | set(t)))
        return best

    return rec(0, set())


def check_layered_tree(g, layering, i, u_i, tree):
    """Independent checker for the layered spanning tree contract."""
    want = set()
    for j in range(i):
        want |= set(layering.layers[j])
    want.add(u_i)
    verts = tree.vertices()
    assert verts == want, "tree does not span layers 0..i-1 plus u_i"
    assert len(tree.parent) == len(verts) - 1
    layer_of = layering.layer_of()
    for c, p in tree.parent.items():
        assert g.has_edge(c, p), "tree edge not in graph"
        assert layer_of[p] == layer_of[c] - 1, "tree edge does not go one layer down"
    assert len(verts) >= 2


def all_two_colourings_proper(g):
    """Exhaustive bipartiteness test, for cross-checking is_bipartite."""
    for bits in range(1 << g.n):
        if all((bits >> a & 1) != (bits >> b & 1) for a, b in g.edges):
            return True
    return g.n == 0


def renumbered(dec, index_map):
    """``dec`` with host ids renumbered by an ``induced_subgraph`` index map (new -> old)."""
    pos = {v: i for i, v in enumerate(index_map)}
    return TreeDecomposition(dec.tree, [[pos[v] for v in bag] for bag in dec.bags])
