"""The universal family U_{h,d}, and exact (connected) tree-depth.

Tree-depth is computed by memoized recursion over vertex subsets
(bitmask-keyed), so it is exact but only intended for desk-scale inputs;
the default cap is 20 vertices.
"""

from functools import lru_cache

from .errors import ResourceLimitError
from .graph import Graph, check_graph_size

TREE_DEPTH_CAP = 20
U_GRAPH_VERTEX_CAP = 4096


def u_order(h, d, limit):
    """|V(U_{h,d})|, counted level by level; past ``limit`` the count stops.

    The result is exact when it is at most ``limit``; otherwise it is the
    running total at the first level that passed ``limit``, so a huge h or d
    costs a few levels, never d**h.
    """
    n, level = 0, 1
    for _ in range(h):
        n += level
        if n > limit:
            break
        level *= d
    return n


@lru_cache(maxsize=64)
def u_graph(h, d):
    """U_{h,d}: the closure of the complete d-ary tree of vertex-height h.

    Vertices are numbered breadth-first from the root 0, so the parent of v
    is (v - 1) // d, and each vertex is joined to all its strict ancestors.
    Both totals are checked against the caps before anything is allocated,
    the vertex count first, so a huge h or d stops at the count.
    Memoized: a ``Graph`` is immutable, so every caller can share one copy.
    """
    if h < 1 or d < 1:
        raise ValueError("h and d must be >= 1")
    n = u_order(h, d, U_GRAPH_VERTEX_CAP)
    if n > U_GRAPH_VERTEX_CAP:
        raise ResourceLimitError(f"U_{{{h},{d}}} has over {U_GRAPH_VERTEX_CAP} vertices")
    check_graph_size(n, sum(depth * d**depth for depth in range(h)))  # `depth` ancestors per vertex
    edges = []
    for v in range(1, n):
        a = v
        while a:
            a = (a - 1) // d
            edges.append((v, a))
    return Graph(n, edges)


def u_child_embedding(h, d, j):
    """Embed U_{h-1,d} into U_{h,d} as the subtree under the root's j-th child.

    Returns a map from U_{h-1,d} vertices (BFS order) to U_{h,d} vertices.
    U_{h,d} is d disjoint such copies plus the dominant root.
    """
    if h < 2 or not 0 <= j < d:
        raise ValueError("need h >= 2 and 0 <= j < d")
    # in BFS order the children of v are d*v + 1 .. d*v + d, in both trees
    emb = {0: 1 + j}
    for w in range(1, u_order(h - 1, d, U_GRAPH_VERTEX_CAP)):
        emb[w] = d * emb[(w - 1) // d] + 1 + (w - 1) % d
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
    """Memoized recursion td(G) = 1 + min_v td(G - v) on connected pieces.

    On any mask, ``connected_value`` is 1 + min_v td(G - v): the connected
    tree-depth, and the tree-depth when the mask is connected.
    """

    def __init__(self, g):
        self.adj = [sum(1 << u for u in nbrs) for nbrs in g.adj]
        self.memo = {}  # mask -> (connected_value, chosen root)

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

    def hang(self, parent, mask, above):
        """Write an optimal rooted forest of the subgraph induced on ``mask`` into ``parent``.

        Each component's memoised root hangs below ``above`` (-1: it is a
        root), and the rest of the component hangs below that root.
        """
        for comp in _bit_components(self.adj, mask):
            self.connected_value(comp)
            root = self.memo[comp][1]
            parent[root] = above
            self.hang(parent, comp & ~(1 << root), root)


def tree_depth(g, cap=TREE_DEPTH_CAP):
    """Exact tree-depth with an optimal rooted-forest witness ``parent``.

    ``parent[v]`` is v's parent, -1 at a root; the closure of the forest
    contains G as a subgraph.
    """
    if g.n > cap:
        raise ResourceLimitError(f"tree-depth search capped at {cap} vertices, got {g.n}")
    search = _TreeDepthSearch(g)
    full = (1 << g.n) - 1
    parent = [-1] * g.n
    search.hang(parent, full, -1)
    return search.forest_value(full), parent


def connected_tree_depth(g, cap=TREE_DEPTH_CAP):
    """Minimum vertex-height of a single rooted tree on V(G) whose closure contains G.

    This is 1 + min over roots r of td(G - r): removing the root of the
    witness tree leaves a rooted forest that must accommodate G - r, and
    conversely any such forest hangs below r.  The witness is a parent
    array, as for ``tree_depth``, with exactly one -1.
    """
    if g.n == 0:
        raise ValueError("connected tree-depth needs at least one vertex")
    if g.n > cap:
        raise ResourceLimitError(f"tree-depth search capped at {cap} vertices, got {g.n}")
    search = _TreeDepthSearch(g)
    full = (1 << g.n) - 1
    value = search.connected_value(full)
    root = search.memo[full][1]
    parent = [-1] * g.n
    search.hang(parent, full & ~(1 << root), root)
    return value, parent
