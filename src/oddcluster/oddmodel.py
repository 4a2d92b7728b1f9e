"""H-models with parity witnesses, and exhaustive odd-model search.

An H-model assigns to each pattern vertex a branch set (disjoint connected
vertex sets of the host) with a spanning branch tree, such that every
pattern edge is realized by a host edge between the two branch sets.  The
model is odd if some red/blue colouring makes every branch tree properly
coloured while every pattern edge has a monochromatic realizing edge.

The search collapses "choose a spanning tree plus a proper colouring of it"
into "choose a vertex 2-colouring whose bichromatic edges span the branch
set"; the two admit the same colourings, and the latter is cheap to
enumerate: one BFS of the bichromatic subgraph tests a colouring and
gives its branch tree.

Branch sets are placed one pattern vertex at a time, in decreasing pattern
degree.  Each candidate set is generated once and passes one feasibility
test, whether the rest of the region still has room for the later branch
sets; that test is monotone, so a candidate that fails it ends its whole
superset subtree.
"""

from dataclasses import dataclass

from .errors import ResourceLimitError
from .graph import Graph, bfs_tree, reach

FIND_MODEL_CAP = 24


@dataclass
class Model:
    pattern: Graph
    branch_sets: dict  # pattern vertex -> sorted tuple of host vertices
    branch_trees: dict  # pattern vertex -> sorted tuple of host edges

    def covered_vertices(self):
        return sorted(v for bs in self.branch_sets.values() for v in bs)


def _is_spanning_tree(edges, verts, host):
    verts = set(verts)
    if len(edges) != len(verts) - 1:
        return False
    adj = {v: set() for v in verts}
    for a, b in edges:
        if a not in verts or b not in verts or not host.has_edge(a, b):
            return False
        adj[a].add(b)
        adj[b].add(a)
    return reach(adj, next(iter(verts))) == verts


def joining_edges(g, set_a, set_b):
    """Host edges with one endpoint in each set."""
    sb = set(set_b)
    return [(v, u) for v in sorted(set(set_a)) for u in sorted(g.adj[v] & sb)]


def _joined(g, set_a, set_b):
    """True iff some host edge has one endpoint in each set."""
    return any(not g.adj[v].isdisjoint(set_b) for v in set_a)


def verify_model(g, model):
    """Check the model invariants; returns (ok, first violation)."""
    h = model.pattern
    if set(model.branch_sets) != set(range(h.n)):
        return False, "branch sets do not cover the pattern's vertices"
    owner = {}
    for x in range(h.n):
        bs = model.branch_sets[x]
        if not bs:
            return False, f"branch set of pattern vertex {x} is empty"
        for v in bs:
            if not 0 <= v < g.n:
                return False, f"branch set of {x} contains invalid vertex {v}"
            if owner.get(v) == x:
                return False, f"branch set of {x} repeats vertex {v}"
            if v in owner:
                return False, f"vertex {v} appears in two branch sets"
            owner[v] = x
    for x in range(h.n):
        if not _is_spanning_tree(model.branch_trees.get(x, ()), model.branch_sets[x], g):
            return False, f"branch tree of pattern vertex {x} is not a spanning tree"
    for x, y in h.edges:
        if not _joined(g, model.branch_sets[x], model.branch_sets[y]):
            return False, f"pattern edge ({x},{y}) has no realizing edge"
    return True, None


def verify_odd_witness(g, model, witness):
    """Check an oddness witness, {covered host vertex: 0 (red) | 1 (blue)}; returns (ok, why)."""
    for v in model.covered_vertices():
        if v not in witness:
            return False, f"witness misses covered vertex {v}"
    for x, tree_edges in model.branch_trees.items():
        for a, b in tree_edges:
            if a not in witness or b not in witness:
                return False, f"branch tree of {x} has edge ({a},{b}) with an uncoloured end"
            if witness[a] == witness[b]:
                return False, f"branch tree of {x} has monochromatic edge ({a},{b})"
    for x, y in model.pattern.edges:
        if not any(
            witness[a] == witness[b]
            for a, b in joining_edges(g, model.branch_sets[x], model.branch_sets[y])
        ):
            return False, f"pattern edge ({x},{y}) has no monochromatic realizing edge"
    return True, None


def is_nontrivial(model):
    """True iff every branch set has at least 2 vertices."""
    return all(len(bs) >= 2 for bs in model.branch_sets.values())


def _connected_subsets(adj, available, min_size, fits):
    """Connected subsets of ``available`` with at least ``min_size`` vertices that fit.

    Standard once-only enumeration, by minimum vertex, then by growing the
    set through its frontier and banning each frontier vertex for later
    branches at the same level.  ``fits(current)`` is called once on each
    set of at least ``min_size`` vertices; it must be monotone (a set that
    does not fit has no superset that fits), so a set that does not fit is
    not yielded and ends its whole superset subtree.
    """
    for mv in sorted(available):
        yield from _grow(adj, {mv}, {v for v in available if v > mv}, min_size, fits)


def _grow(adj, current, candidates, min_size, fits):
    if len(current) >= min_size:
        if not fits(current):
            return
        yield tuple(sorted(current))
    frontier = sorted({u for v in current for u in adj[v] if u in candidates and u not in current})
    banned = set()
    for u in frontier:
        yield from _grow(adj, current | {u}, candidates - banned, min_size, fits)
        banned.add(u)


def _max_edge_packing_bound(g, available):
    """Cheap upper bound on the number of disjoint edges inside ``available``."""
    covered = {v for v in available if g.adj[v] & available}
    return len(covered) // 2


def find_odd_model(g, pattern, region=None, require_nontrivial=False, cap=FIND_MODEL_CAP):
    """Exhaustively search G[region] for an odd pattern-model.

    Returns the first model in lexicographic search order with its oddness
    witness, ``(Model, {covered vertex: 0 | 1})``, or ``None`` with an
    exhaustiveness guarantee.  Raises ResourceLimitError when the region
    exceeds the cap — callers rely on "None means none exists", so there is
    no heuristic fallback.  A region of any size without room for
    ``pattern.n`` branch sets is answered first, and so is the empty
    pattern, whose empty model every region holds; ``room`` is the same
    bound that each candidate set must leave for the branch sets after it.
    """
    region = sorted(set(range(g.n) if region is None else region))
    for v in region:
        if not 0 <= v < g.n:
            raise ValueError(f"invalid region vertex {v}")
    region_set = set(region)

    def room(available):
        # an upper bound on the disjoint branch sets that fit in ``available``:
        # a non-trivial one holds an edge, any other a vertex
        return _max_edge_packing_bound(g, available) if require_nontrivial else len(available)

    if room(region_set) < pattern.n:
        return None
    if pattern.n and len(region) > cap:
        raise ResourceLimitError(
            f"odd-model search capped at {cap} region vertices, got {len(region)}"
        )
    adj = {v: g.adj[v] & region_set for v in region}
    min_size = 2 if require_nontrivial else 1
    order = sorted(range(pattern.n), key=lambda x: (-pattern.degree(x), x))

    def place(k, available, sets):
        if k == len(order):
            return _witness_search(g, pattern, order, sets)
        x = order[k]
        slots_after = len(order) - k - 1

        def fits(current):
            # room for the later branch sets; only tightens as the set grows
            return room(available - current) >= slots_after

        for cand in _connected_subsets(adj, available, min_size, fits):
            if all(y not in sets or _joined(g, sets[y], cand) for y in pattern.adj[x]):
                sets[x] = cand
                found = place(k + 1, available.difference(cand), sets)
                if found is not None:
                    return found
                del sets[x]
        return None

    found = place(0, region_set, {})
    place = None  # drop the closure's reference to itself: no cycle for the collector
    return found


def _witness_search(g, pattern, order, sets):
    """Decide oddness of a fixed branch-set family; build the model and its witness if odd.

    Every branch set is connected, so some colouring's bichromatic BFS tree
    spans it, and ``place`` has joined every pattern edge; the search only
    decides whether the choices can make every pattern edge monochromatic.
    """
    options = {}  # pattern vertex -> [(colouring, its spanning bichromatic BFS parents)]
    for x, bs in sets.items():
        adj = {v: g.adj[v].intersection(bs) for v in bs}
        options[x] = []
        for bits in range(1 << len(bs)):
            col = {v: bits >> i & 1 for i, v in enumerate(bs)}
            tree = bfs_tree({v: {u for u in adj[v] if col[u] != col[v]} for v in bs}, bs[0])
            if len(tree) == len(bs) - 1:
                options[x].append((col, tree))
    # joining-edge lists from order[k]'s set to each earlier neighbour's set
    joins = [
        [joining_edges(g, sets[x], sets[y]) for y in order[:k] if y in pattern.adj[x]]
        for k, x in enumerate(order)
    ]
    colour, trees = {}, {}  # the options chosen at levels 0..k, written over on backtracking

    def assign(k):
        if k == len(order):
            return True
        x = order[k]
        for col, tree in options[x]:
            colour.update(col)
            trees[x] = tree
            if all(any(colour[a] == colour[b] for a, b in je) for je in joins[k]) and assign(k + 1):
                return True
        return False

    odd = assign(0)
    assign = None  # drop the closure's reference to itself: no cycle for the collector
    if not odd:
        return None
    model = Model(
        pattern=pattern,
        branch_sets={x: tuple(bs) for x, bs in sets.items()},
        branch_trees={x: tuple(sorted((min(v, p), max(v, p)) for v, p in trees[x].items())) for x in sets},
    )
    return model, colour
