"""Closures, the universal family U_{h,d}, and exact (connected) tree-depth.

Tree-depth is computed by memoized recursion over vertex subsets
(bitmask-keyed), so it is exact but only intended for desk-scale inputs;
the default cap is 20 vertices.
"""

from functools import lru_cache

from .errors import ResourceLimitError
from .graph import Graph, RootedTree

TREE_DEPTH_CAP = 20
U_GRAPH_VERTEX_CAP = 4096


def closure(tree):
    """Graph joining every vertex of a rooted forest to all its strict ancestors."""
    verts = sorted(tree.vertices())
    if verts != list(range(len(verts))):
        raise ValueError("closure expects dense vertex indices 0..n-1")
    edges = []
    for v in verts:
        a = v
        while a in tree.parent:
            a = tree.parent[a]
            edges.append((v, a))
    return Graph(len(verts), edges)


def complete_dary_tree(h, d):
    """Complete d-ary tree of vertex-height h, vertices in BFS order (root 0)."""
    if h < 1 or d < 1:
        raise ValueError("h and d must be >= 1")
    n, level = 0, 1
    for _ in range(h):  # level by level, so a huge h or d stops at the cap
        n, level = n + level, level * d
        if n > U_GRAPH_VERTEX_CAP:
            raise ResourceLimitError(f"U_{{{h},{d}}} has over {U_GRAPH_VERTEX_CAP} vertices")
    parent = {v: (v - 1) // d for v in range(1, n)}
    return RootedTree(parent=parent, roots=(0,))


@lru_cache(maxsize=64)
def u_graph(h, d):
    """U_{h,d}: the closure of the complete d-ary tree of vertex-height h.

    Memoized: a ``Graph`` is immutable, so every caller can share one copy.
    """
    return closure(complete_dary_tree(h, d))


def u_child_embedding(h, d, j):
    """Embed U_{h-1,d} into U_{h,d} as the subtree under the root's j-th child.

    Returns a map from U_{h-1,d} vertices (BFS order) to U_{h,d} vertices.
    U_{h,d} is d disjoint such copies plus the dominant root.
    """
    if h < 2 or not 0 <= j < d:
        raise ValueError("need h >= 2 and 0 <= j < d")
    emb = {}
    sub_start = 0  # first index of level l in the (h-1)-tree
    big_start = 1  # first index of level l+1 in the h-tree
    size = 1  # d**l
    for level in range(h - 1):
        for p in range(size):
            emb[sub_start + p] = big_start + j * size + p
        sub_start += size
        big_start += size * d
        size *= d
    return emb


def _bit_components(adj_masks, mask):
    """Connected components of the subgraph induced on the bitmask ``mask``."""
    comps = []
    rest = mask
    while rest:
        start = rest & -rest
        comp = start
        frontier = start
        while frontier:
            v = (frontier & -frontier).bit_length() - 1
            frontier &= frontier - 1
            nbrs = adj_masks[v] & mask & ~comp
            comp |= nbrs
            frontier |= nbrs
        comps.append(comp)
        rest &= ~comp
    return comps


class _TreeDepthSearch:
    """Memoized recursion td(G) = 1 + min_v td(G - v) on connected pieces."""

    def __init__(self, g):
        self.adj = [0] * g.n
        for a, b in g.edges:
            self.adj[a] |= 1 << b
            self.adj[b] |= 1 << a
        self.memo = {}  # connected mask -> (value, chosen root)

    def forest_value(self, mask):
        if mask == 0:
            return 0
        return max(self.connected_value(c) for c in _bit_components(self.adj, mask))

    def connected_value(self, mask):
        hit = self.memo.get(mask)
        if hit is not None:
            return hit[0]
        count = mask.bit_count()
        if count == 1:
            self.memo[mask] = (1, mask.bit_length() - 1)
            return 1
        best = count + 1
        best_v = None
        rest = mask
        while rest:
            v = (rest & -rest).bit_length() - 1
            rest &= rest - 1
            val = 1 + self.forest_value(mask & ~(1 << v))
            if val < best:
                best, best_v = val, v
                if best == 2:  # can't beat: count >= 2 forces td >= 2
                    break
        self.memo[mask] = (best, best_v)
        return best

    def forest_witness(self, mask):
        """Parent map and roots of an optimal rooted forest for the induced subgraph."""
        parent = {}
        roots = []
        for comp in _bit_components(self.adj, mask):
            self.connected_value(comp)
            root = self.memo[comp][1]
            roots.append(root)
            below, sub_roots = self.forest_witness(comp & ~(1 << root))
            parent.update(below)
            parent.update(dict.fromkeys(sub_roots, root))
        return parent, roots


def tree_depth(g, cap=TREE_DEPTH_CAP):
    """Exact tree-depth with an optimal rooted-forest witness.

    The witness spans V(G) and its closure contains G as a subgraph.
    """
    if g.n > cap:
        raise ResourceLimitError(f"tree-depth search capped at {cap} vertices, got {g.n}")
    if g.n == 0:
        return 0, RootedTree(parent={}, roots=())
    search = _TreeDepthSearch(g)
    full = (1 << g.n) - 1
    value = search.forest_value(full)
    parent, roots = search.forest_witness(full)
    return value, RootedTree(parent=parent, roots=roots)


def connected_tree_depth(g, cap=TREE_DEPTH_CAP):
    """Minimum vertex-height of a single rooted tree on V(G) whose closure contains G.

    Computed directly as 1 + min over roots r of td(G - r): removing the
    root of the witness tree leaves a rooted forest that must accommodate
    G - r, and conversely any such forest hangs below r.
    """
    if g.n == 0:
        raise ValueError("connected tree-depth needs at least one vertex")
    if g.n > cap:
        raise ResourceLimitError(f"tree-depth search capped at {cap} vertices, got {g.n}")
    search = _TreeDepthSearch(g)
    full = (1 << g.n) - 1
    best = None
    best_r = None
    for r in range(g.n):
        val = 1 + search.forest_value(full & ~(1 << r))
        if best is None or val < best:
            best, best_r = val, r
    parent, roots = search.forest_witness(full & ~(1 << best_r))
    for sub_root in roots:
        parent[sub_root] = best_r
    return best, RootedTree(parent=parent, roots=(best_r,))

