"""Tree-decompositions: validity checking, exact treewidth, min-fill heuristic.

Exact treewidth runs iterative deepening over elimination orders: for a
candidate width k it searches for an order eliminating every vertex with
(filled) degree at most k, memoizing failed eliminated-sets.  The filled
graph after eliminating a set is independent of the order, so the
eliminated-set is a sound state key.  Decompositions built from an
elimination order are normalized to a rooted tree with node 0 as root and
children ordered by minimum bag element; a restriction numbers its nodes in
the pre-order of the decomposition it came from.

Every decomposition carries a lazily built trace index (pre-order entry and
exit times, parents, vertex -> nodes).  Restriction reads it, so its cost
follows the bags that meet the domain rather than the size of the tree, and
validation checks coverage and connectivity with it in one pass over the
bags.
"""

import heapq

from .errors import ResourceLimitError
from .graph import Graph, RootedTree

EXACT_TREEWIDTH_CAP = 18


class TreeDecomposition:
    """Tree of bags over a host graph; width = max bag size - 1."""

    __slots__ = ("tree", "bags", "width", "_index")

    def __init__(self, tree, bags):
        self.tree = tree
        self.bags = tuple(tuple(sorted(b)) for b in bags)
        self.width = max((len(b) for b in self.bags), default=0) - 1
        self._index = None

    @property
    def num_nodes(self):
        return len(self.bags)

    def __repr__(self):
        return f"TreeDecomposition(nodes={self.num_nodes}, width={self.width})"


class _TraceIndex:
    """Pre-order entry/exit times, parents and vertex -> nodes of one decomposition.

    Node x is an ancestor of node y (or y itself) iff
    ``tin[x] <= tin[y] < tout[x]``.  ``up[x]`` is x's parent, -1 at a root.
    ``trace[v]`` lists the nodes whose bags hold v, in pre-order.
    """

    __slots__ = ("tin", "tout", "up", "trace")

    def __init__(self, dec):
        children = dec.tree.children()
        n = dec.num_nodes
        order = []
        stack = list(reversed(dec.tree.roots))
        while stack:
            x = stack.pop()
            order.append(x)
            stack.extend(reversed(children[x]))
        self.up = [-1] * n
        for c, p in dec.tree.parent.items():
            self.up[c] = p
        self.tin = [0] * n
        size = [1] * n
        for i, x in enumerate(order):
            self.tin[x] = i
        for x in reversed(order):
            if self.up[x] >= 0:
                size[self.up[x]] += size[x]
        self.tout = [self.tin[x] + size[x] for x in range(n)]
        self.trace = {}
        for x in order:
            for v in dec.bags[x]:
                nodes = self.trace.setdefault(v, [])
                if not nodes or nodes[-1] != x:  # bags are sorted: repeats are adjacent
                    nodes.append(x)


def _trace_index(dec):
    """The decomposition's trace index, built on first use and kept on ``dec``."""
    if dec._index is None:
        dec._index = _TraceIndex(dec)
    return dec._index


def validate_decomposition(g, dec):
    """Check the three decomposition conditions; returns (ok, first violation).

    Runs in O(sum of bag sizes + m): an edge is covered iff its endpoint
    traces meet, and a trace of t nodes is connected iff exactly t - 1 tree
    edges join two of its nodes.
    """
    if dec.tree.vertices() != set(range(dec.num_nodes)):
        return False, "decomposition tree nodes do not match bag indices"
    for b in dec.bags:
        for v in b:
            if not 0 <= v < g.n:
                return False, f"bag contains invalid vertex {v}"
    trace = {v: set(nodes) for v, nodes in _trace_index(dec).trace.items()}
    for a, b in g.edges:
        if trace.get(a, set()).isdisjoint(trace.get(b, ())):
            return False, f"edge ({a},{b}) not covered by any bag"
    bag_sets = [set(b) for b in dec.bags]
    inner_edges = dict.fromkeys(trace, 0)
    for c, p in dec.tree.parent.items():
        for v in bag_sets[c] & bag_sets[p]:
            inner_edges[v] += 1
    for v in range(g.n):
        if v not in trace:
            return False, f"vertex {v} appears in no bag"
        if inner_edges[v] != len(trace[v]) - 1:
            return False, f"bags containing vertex {v} are not connected in the tree"
    recomputed = max((len(b) for b in dec.bags), default=0) - 1
    if dec.width != recomputed:
        return False, f"stored width {dec.width} != recomputed {recomputed}"
    return True, None


def _reach_through(adj, v, eliminated):
    """Vertices outside ``eliminated`` reachable from v via eliminated vertices.

    This is exactly v's neighbourhood in the filled graph after eliminating
    the set, regardless of the order of elimination.
    """
    seen = {v}
    out = set()
    stack = [v]
    while stack:
        x = stack.pop()
        for y in adj[x]:
            if y in seen:
                continue
            seen.add(y)
            if y in eliminated:
                stack.append(y)
            else:
                out.add(y)
    return out


def _eliminate(adj, v):
    """Make v's live neighbourhood a clique and remove v from it."""
    nbrs = adj[v]
    for a in nbrs:
        adj[a] |= nbrs
        adj[a].discard(a)
        adj[a].discard(v)


def _min_fill_order(g):
    """Eliminate a vertex of least fill-in next, ties to the smaller index.

    Fill-in is kept in a lazy heap.  Eliminating v changes the fill only of
    N(v) (their neighbourhoods change) and of N(N(v)) (edges appear among
    their neighbours), so only those are recomputed; an entry whose fill is
    no longer current is skipped when popped.
    """
    adj = [set(s) for s in g.adj]

    def fill(v):
        # non-adjacent pairs in N(v): N(v) - N(a) holds a itself and the
        # members of N(v) that a misses; summed over a, each pair counts twice
        nbrs = adj[v]
        return (sum(len(nbrs - adj[a]) for a in nbrs) - len(nbrs)) // 2

    current = [fill(v) for v in range(g.n)]
    heap = [(f, v) for v, f in enumerate(current)]
    heapq.heapify(heap)
    alive = [True] * g.n
    order = []
    while heap:
        f, best = heapq.heappop(heap)
        if not alive[best] or f != current[best]:
            continue
        _eliminate(adj, best)
        alive[best] = False
        order.append(best)
        touched = set(adj[best])
        for a in adj[best]:
            touched |= adj[a]
        for u in touched:
            f = fill(u)
            if f != current[u]:
                current[u] = f
                heapq.heappush(heap, (f, u))
    return order


def _degeneracy_lower_bound(g):
    """Max over the peeling process of the minimum degree (MMD lower bound)."""
    adj = [set(s) for s in g.adj]
    alive = set(range(g.n))
    lb = 0
    while alive:
        v = min(alive, key=lambda x: (len(adj[x]), x))
        lb = max(lb, len(adj[v]))
        for u in adj[v]:
            adj[u].discard(v)
        alive.remove(v)
    return lb


def _find_order_within(g, k):
    """Elimination order with every filled degree <= k, or None.

    Depth-first search over eliminated-sets with a dead-state memo.  A vertex
    whose filled neighbourhood is a clique (simplicial) can always be
    eliminated first, which collapses the search on chordal-ish inputs.
    """
    adj = g.adj
    full = frozenset(range(g.n))
    dead = set()

    def filled_clique(nbrs, eliminated):
        for a in nbrs:
            reach_a = _reach_through(adj, a, eliminated)
            if not nbrs - {a} <= reach_a:
                return False
        return True

    def search(eliminated, order):
        if len(eliminated) == g.n:
            return True
        key = frozenset(eliminated)
        if key in dead:
            return False
        candidates = []
        for v in sorted(full - eliminated):
            nbrs = _reach_through(adj, v, eliminated)
            if len(nbrs) > k:
                continue
            if len(nbrs) <= 1 or filled_clique(nbrs, eliminated):
                candidates = [v]  # safe to commit without branching
                break
            candidates.append(v)
        for v in candidates:
            eliminated.add(v)
            order.append(v)
            if search(eliminated, order):
                return True
            eliminated.discard(v)
            order.pop()
        dead.add(key)
        return False

    order = []
    if search(set(), order):
        return order
    return None


def decomposition_from_order(g, order):
    """Build a normalized decomposition from an elimination order."""
    if g.n == 0:
        return TreeDecomposition(RootedTree(parent={}, roots=(0,)), [()])
    adj = [set(s) for s in g.adj]
    bags = []
    pos = {v: i for i, v in enumerate(order)}
    for v in order:
        bags.append(adj[v] | {v})
        _eliminate(adj, v)
    parent = {}
    for i, v in enumerate(order[:-1]):
        later = [u for u in bags[i] if u != v]
        if later:
            parent[i] = pos[min(later, key=lambda u: pos[u])]
        else:
            parent[i] = i + 1  # keep the tree connected for isolated pieces
    tree = RootedTree(parent=parent, roots=(len(order) - 1,))
    return _normalize(tree, bags)


def _normalize(tree, bags):
    """Re-root at node 0 (BFS relabelling, children by minimum bag element)."""
    children = tree.children()
    root = tree.roots[0]
    relabel = {root: 0}
    order = [root]
    for x in order:  # grows while read: BFS order
        kids = sorted(children[x], key=lambda y: (min(bags[y]) if bags[y] else -1, y))
        for y in kids:
            relabel[y] = len(relabel)
            order.append(y)
    new_bags = [bags[x] for x in order]
    new_parent = {relabel[c]: relabel[p] for c, p in tree.parent.items()}
    return TreeDecomposition(RootedTree(parent=new_parent, roots=(0,)), new_bags)


def exact_treewidth(g, cap=EXACT_TREEWIDTH_CAP):
    """Minimum-width tree-decomposition via iterative deepening on width."""
    if g.n > cap:
        raise ResourceLimitError(f"exact treewidth capped at {cap} vertices, got {g.n}")
    mf_dec = decomposition_from_order(g, _min_fill_order(g))
    ub = mf_dec.width
    for k in range(_degeneracy_lower_bound(g), ub):
        order = _find_order_within(g, k)
        if order is not None:
            return k, decomposition_from_order(g, order)
    return ub, mf_dec


def heuristic_decomposition(g):
    """Valid decomposition from a min-fill elimination order (width >= tw)."""
    return decomposition_from_order(g, _min_fill_order(g))


def decompose(g):
    """Exact treewidth up to EXACT_TREEWIDTH_CAP vertices, min-fill above."""
    if g.n <= EXACT_TREEWIDTH_CAP:
        return exact_treewidth(g)[1]
    return heuristic_decomposition(g)


def restrict_decomposition(dec, old_to_new):
    """Decomposition of the subgraph induced on the domain of ``old_to_new``.

    Keeps the nodes whose bags meet the domain plus the lowest common
    ancestors of nodes consecutive in pre-order (the virtual tree of the
    kept nodes), and contracts the paths between them.  A domain vertex's
    trace lies wholly among the kept nodes and stays connected, so every
    induced edge stays covered and the width can only shrink.  Kept nodes
    are numbered in pre-order: ``postorder`` visits them in the same relative
    order as in ``dec``, and a node left out has an empty bag and the same
    subtree union as its highest kept descendant, so the dichotomy walk
    makes the same choices on either decomposition.  When ``old_to_new`` is
    the identity on every vertex of ``dec``, ``dec`` itself is returned.
    """
    index = _trace_index(dec)
    tin, tout, up, trace = index.tin, index.tout, index.up, index.trace
    if len(old_to_new) == len(trace) and all(old_to_new.get(v) == v for v in trace):
        return dec
    hits = sorted({x for v in old_to_new for x in trace.get(v, ())}, key=tin.__getitem__)
    if not hits:
        return TreeDecomposition(RootedTree(parent={}, roots=(0,)), [()])
    keep = set(hits)
    for a, b in zip(hits, hits[1:]):
        x = a
        while x >= 0 and not tin[x] <= tin[b] < tout[x]:
            x = up[x]
        if x >= 0:  # a and b lie in one tree of the forest
            keep.add(x)
    nodes = sorted(keep, key=tin.__getitem__)
    new_id = {x: i for i, x in enumerate(nodes)}
    parent = {}
    roots = []
    ancestors = []
    for x in nodes:
        while ancestors and tout[ancestors[-1]] <= tin[x]:
            ancestors.pop()
        if ancestors:
            parent[new_id[x]] = new_id[ancestors[-1]]
        else:
            roots.append(new_id[x])
        ancestors.append(x)
    bags = [[old_to_new[v] for v in dec.bags[x] if v in old_to_new] for x in nodes]
    return TreeDecomposition(RootedTree(parent=parent, roots=roots), bags)


def trivial_decomposition(g):
    """Single bag holding all of V(G)."""
    return TreeDecomposition(RootedTree(parent={}, roots=(0,)), [tuple(range(g.n))])


def subtree_bag_unions(dec):
    """For each node, the union of bags in its rooted subtree."""
    out = [set(b) for b in dec.bags]
    parent = dec.tree.parent
    for x in postorder(dec):
        if x in parent:
            out[parent[x]] |= out[x]
    return out


def postorder(dec):
    """Post-order traversal of the decomposition forest, roots and children in index order."""
    children = dec.tree.children()
    out = []
    stack = list(dec.tree.roots)
    while stack:  # pre-order with the children reversed, read backwards
        x = stack.pop()
        out.append(x)
        stack.extend(children[x])
    out.reverse()
    return out
