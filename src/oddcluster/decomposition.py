"""Tree-decompositions: validity checking, exact treewidth, min-fill heuristic.

Exact treewidth runs iterative deepening over elimination orders: for a
candidate width k it searches for an order eliminating every vertex with
(filled) degree at most k, memoizing failed eliminated-sets.  The filled
graph after eliminating a set is independent of the order, so the
eliminated-set is a sound state key; each branch of the search eliminates
on its own copy of the filled adjacency and records the bag of each vertex
it eliminates.  Min-fill plays the game once too, keeping fill-in counts up
to date incrementally; either way the tree is built from the recorded bags.

Every decomposition numbers its nodes in pre-order and stores its tree as a
parent array, so the subtree of node x is the node range ``x .. end[x] - 1``
and one pass over the ids walks the tree.  A decomposition built from an
elimination order is rooted at its last bag, children visited by minimum
bag element.  A restriction to a vertex set keeps the host's vertex ids in
its bags and its kept nodes in the order of the decomposition it came from;
it reads the lazily built vertex -> nodes trace, so its cost follows the
bags that meet the domain rather than the size of the tree.
"""

import heapq

from .errors import ResourceLimitError

EXACT_TREEWIDTH_CAP = 18


class TreeDecomposition:
    """Tree (or forest) of bags over a host graph; width = max bag size - 1.

    Nodes are numbered in pre-order: ``parent[x]`` is x's parent, -1 at a
    root, and precedes x; siblings and roots are visited in id order.  The
    subtree of x is the node range ``x .. end[x] - 1``, so x is an ancestor
    of y (or y itself) iff ``x <= y < end[x]``.  The constructor derives
    ``end`` in one pass and raises ValueError for a parent array that is not
    in pre-order.
    """

    __slots__ = ("parent", "end", "bags", "width", "_trace")

    def __init__(self, parent, bags):
        self.parent = tuple(parent)
        self.bags = tuple(tuple(sorted(b)) for b in bags)
        n = len(self.bags)
        if len(self.parent) != n:
            raise ValueError(f"{len(self.parent)} parents for {n} bags")
        end = [n] * n
        path = []  # the node last read and its ancestors, root first
        for x, p in enumerate(self.parent):
            while path and path[-1] != p:
                end[path.pop()] = x
            if p != -1 and not path:
                raise ValueError(f"node {x}'s parent {p} is not on the pre-order path")
            path.append(x)
        self.end = tuple(end)
        self.width = max((len(b) for b in self.bags), default=0) - 1
        self._trace = None

    @property
    def num_nodes(self):
        return len(self.bags)

    @property
    def trace(self):
        """Vertex -> the nodes whose bags hold it, ascending; built on first use."""
        if self._trace is None:
            trace = {}
            for x, bag in enumerate(self.bags):
                for v in bag:
                    nodes = trace.setdefault(v, [])
                    if not nodes or nodes[-1] != x:  # bags are sorted: repeats are adjacent
                        nodes.append(x)
            self._trace = trace
        return self._trace

    def __repr__(self):
        return f"TreeDecomposition(nodes={self.num_nodes}, width={self.width})"


def preorder_decomposition(children, roots, bags):
    """The decomposition of a forest given by child lists, its nodes renumbered in pre-order.

    ``children[x]`` and ``roots`` are visited in list order; ``bags[x]`` is
    node x's bag.
    """
    order = []
    parent = []
    stack = [(r, -1) for r in reversed(roots)]
    while stack:
        x, p = stack.pop()
        stack.extend((y, len(order)) for y in reversed(children[x]))
        order.append(x)
        parent.append(p)
    return TreeDecomposition(parent, [bags[x] for x in order])


def validate_decomposition(g, dec):
    """Check the three decomposition conditions; returns (ok, first violation).

    Runs in O(sum of bag sizes + m): an edge is covered iff its endpoint
    traces meet, and a trace of t nodes is connected iff exactly t - 1 tree
    edges join two of its nodes.
    """
    for x, b in enumerate(dec.bags):
        for i, v in enumerate(b):  # bags are sorted, so a repeat is next to its first copy
            if not 0 <= v < g.n:
                return False, f"bag contains invalid vertex {v}"
            if i and b[i - 1] == v:
                return False, f"bag {x} repeats vertex {v}"
    trace = {v: set(nodes) for v, nodes in dec.trace.items()}
    for a, b in g.edges:
        if trace.get(a, set()).isdisjoint(trace.get(b, ())):
            return False, f"edge ({a},{b}) not covered by any bag"
    bag_sets = [set(b) for b in dec.bags]
    inner_edges = dict.fromkeys(trace, 0)
    for c, p in enumerate(dec.parent):
        if p >= 0:
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


def _eliminate(adj, v):
    """Make v's live neighbourhood a clique and remove v from it."""
    nbrs = adj[v]
    for a in nbrs:
        adj[a] |= nbrs
        adj[a].discard(a)
        adj[a].discard(v)


def _min_fill_elimination(g):
    """Eliminate a vertex of least fill-in next, ties to the smaller index.

    Returns ``(order, bags)``, where ``bags[i]`` is ``N(v) | {v}`` for
    ``v = order[i]`` in the filled graph at the moment v is eliminated.
    Fill-in is kept in a lazy heap and updated in place: a fill edge ab adds
    to a (and to b) the neighbours of a that b misses, and removes the pair
    from every common neighbour; when v then leaves, each u in N(v) loses the
    pairs of v with the neighbours of u that v misses.  Every count is a size
    minus an intersection, and an intersection walks the smaller set, so a
    vertex next to a hub never pays the hub's degree.  An entry whose fill is
    no longer current is skipped when popped.
    """
    adj = [set(s) for s in g.adj]
    # non-adjacent pairs in N(v): deg(v) - |N(v) & N(a)| counts a itself and
    # the members of N(v) that a misses; summed over a, each pair counts twice
    fill = []
    for nbrs in adj:
        deg = len(nbrs)
        fill.append((deg * deg - deg - sum(len(nbrs & adj[a]) for a in nbrs)) // 2)
    heap = [(f, v) for v, f in enumerate(fill)]
    heapq.heapify(heap)
    alive = [True] * g.n
    order = []
    bags = []
    while heap:
        f, v = heapq.heappop(heap)
        if not alive[v] or f != fill[v]:
            continue
        alive[v] = False
        order.append(v)
        nbrs = adj[v]
        bags.append(nbrs | {v})
        touched = set(nbrs)
        for a in nbrs:
            missing = nbrs - adj[a]
            missing.discard(a)
            for b in missing:
                common = adj[a] & adj[b]  # holds v
                fill[a] += len(adj[a]) - len(common)
                fill[b] += len(adj[b]) - len(common)
                for c in common:
                    fill[c] -= 1
                touched |= common
                adj[a].add(b)
                adj[b].add(a)
        # N(v) is now a clique, so v misses |N(u)| - |N(v)| neighbours of u
        for u in nbrs:
            fill[u] -= len(adj[u]) - len(nbrs)
            adj[u].discard(v)
        touched.discard(v)
        for u in touched:
            heapq.heappush(heap, (fill[u], u))
    return order, bags


def _degeneracy_lower_bound(g, stop):
    """Max over the peeling process of the minimum degree (MMD lower bound).

    Peeling ends once the bound reaches ``stop``.
    """
    adj = [set(s) for s in g.adj]
    alive = set(range(g.n))
    lb = 0
    while alive and lb < stop:
        v = min(alive, key=lambda x: (len(adj[x]), x))
        lb = max(lb, len(adj[v]))
        for u in adj[v]:
            adj[u].discard(v)
        alive.remove(v)
    return lb


def _find_order_within(g, k):
    """``(order, bags)`` like ``_min_fill_elimination``'s, each filled degree <= k, or None.

    Depth-first search over eliminated-sets with a dead-state memo; each
    branch eliminates on its own copy of the filled adjacency.  A vertex
    whose filled neighbourhood is a clique (simplicial) can always be
    eliminated first, which collapses the search on chordal-ish inputs.
    """
    dead = set()

    def search(adj, eliminated, order, bags):
        if len(eliminated) == g.n:
            return True
        key = frozenset(eliminated)
        if key in dead:
            return False
        candidates = []
        for v in range(g.n):
            nbrs = adj[v]
            if v in eliminated or len(nbrs) > k:
                continue
            if len(nbrs) <= 1 or all(nbrs - {a} <= adj[a] for a in nbrs):
                candidates = [v]  # safe to commit without branching
                break
            candidates.append(v)
        for v in candidates:
            filled = [set(s) for s in adj]
            _eliminate(filled, v)
            eliminated.add(v)
            order.append(v)
            bags.append(adj[v] | {v})
            if search(filled, eliminated, order, bags):
                return True
            eliminated.discard(v)
            order.pop()
            bags.pop()
        dead.add(key)
        return False

    order, bags = [], []
    found = search([set(s) for s in g.adj], set(), order, bags)
    search = None  # drop the closure's reference to itself: no cycle for the collector
    return (order, bags) if found else None


def _tree_from_bags(order, bags):
    """The decomposition whose node i holds ``bags[i]``, the bag of ``order[i]``.

    Node i hangs below the bag of its earliest-eliminated other member, or
    below the next bag when it has none.  Rooted at the last bag; siblings
    are visited by minimum bag element, ties by bag index.
    """
    if not order:
        return TreeDecomposition((-1,), [()])
    pos = {v: i for i, v in enumerate(order)}
    children = [[] for _ in order]
    for i, v in enumerate(order[:-1]):
        later = [pos[u] for u in bags[i] if u != v]
        children[min(later) if later else i + 1].append(i)  # the next bag joins isolated pieces
    for kids in children:
        kids.sort(key=lambda y: min(bags[y]))  # stable: ties stay in index order
    return preorder_decomposition(children, [len(order) - 1], bags)


def exact_treewidth(g, cap=EXACT_TREEWIDTH_CAP):
    """Minimum-width tree-decomposition via iterative deepening on width."""
    if g.n > cap:
        raise ResourceLimitError(f"exact treewidth capped at {cap} vertices, got {g.n}")
    mf_dec = _tree_from_bags(*_min_fill_elimination(g))
    ub = mf_dec.width
    for k in range(_degeneracy_lower_bound(g, ub), ub):
        found = _find_order_within(g, k)
        if found is not None:
            return k, _tree_from_bags(*found)
    return ub, mf_dec


def heuristic_decomposition(g):
    """Valid decomposition from a min-fill elimination order (width >= tw)."""
    return _tree_from_bags(*_min_fill_elimination(g))


def decompose(g):
    """Exact treewidth up to EXACT_TREEWIDTH_CAP vertices, min-fill above."""
    if g.n <= EXACT_TREEWIDTH_CAP:
        return exact_treewidth(g)[1]
    return heuristic_decomposition(g)


def restrict_decomposition(dec, xs):
    """Decomposition of the subgraph induced on the vertex set ``xs``, in the same ids.

    Keeps exactly the nodes whose bags meet ``xs``, each under its nearest
    kept ancestor (a root if it has none), with its bag cut to ``xs``.  The
    trace of a vertex of ``xs`` is all kept, and the parent of each of its
    nodes but the top is in it too, so the trace stays connected, every
    induced edge stays covered and the width can only shrink.  Kept nodes
    keep their relative order, which is a pre-order of the new forest, so
    ``postorder`` visits them in the same relative order as in ``dec``.  A
    dropped node's bag misses ``xs``, so no edge of G[xs] joins the kept
    nodes of two of its child subtrees, and a connected target in its region
    lies in one child's part.  That child was asked first and found no
    target there, or its part was deleted; so a dropped node never stops
    the dichotomy walk, which makes the same stops, with the same bags and
    unions, on either decomposition.  When ``xs`` holds every vertex of
    ``dec``, ``dec`` itself is returned; when it meets no bag, one empty bag is.
    """
    trace = dec.trace
    xs = frozenset(xs)
    if trace.keys() <= xs:
        return dec
    nodes = sorted({x for v in xs for x in trace.get(v, ())})
    if not nodes:
        return TreeDecomposition((-1,), [()])
    end = dec.end
    new_parent = []
    path = []  # new ids of the kept ancestors of the node read
    for x in nodes:
        while path and end[nodes[path[-1]]] <= x:
            path.pop()
        new_parent.append(path[-1] if path else -1)
        path.append(len(new_parent) - 1)
    bags = [[v for v in dec.bags[x] if v in xs] for x in nodes]
    return TreeDecomposition(new_parent, bags)


def subtree_bag_unions(dec, order):
    """Yield the union of the bags in each node's subtree, along the post-order ``order``.

    Each union starts from the pending set its children merged into, merges
    itself into its parent's, and is dropped: the pending sets stand for
    disjoint sets of finished nodes, so memory stays linear in the bags.
    """
    parent, bags = dec.parent, dec.bags
    pending = [None] * len(bags)
    for x in order:
        union = pending[x] or set()
        pending[x] = None
        union.update(bags[x])
        yield union
        p = parent[x]
        if p >= 0:
            if pending[p] is None:
                pending[p] = set(union)  # a copy, so a yielded set never changes
            else:
                pending[p] |= union


def postorder(dec):
    """Post-order traversal of the decomposition forest, roots and children in id order."""
    end = dec.end
    out = []
    path = []
    for x in range(dec.num_nodes):
        while path and end[path[-1]] <= x:  # subtree finished
            out.append(path.pop())
        path.append(x)
    out.extend(reversed(path))
    return out
