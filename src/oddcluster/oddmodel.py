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

The placement runs on int bitmasks: bit i is the region's i-th smallest
vertex, and the vertex neighbourhoods, the free vertices, each candidate
set, its frontier and each placed set's neighbourhood are masks.  Lowest bit
first is ascending vertex order, so candidates come in the order a search
over sorted vertex sets takes them: the same first model and witness.
"""

from dataclasses import dataclass

from .errors import ResourceLimitError
from .graph import Graph, bfs_tree, components

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
    next(components(adj, [next(iter(verts))], verts))  # takes that vertex's component out
    return not verts


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
    extra = witness.keys() - set(model.covered_vertices())
    if extra:
        return False, f"witness colours vertex {min(extra)}, which no branch set covers"
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


def _connected_masks(adjmask, candidates, min_size, fits, current=0, nbhd=0):
    """Connected subsets of ``candidates`` with at least ``min_size`` vertices that fit.

    Yields ``(set mask, neighbourhood mask)``.  Standard once-only
    enumeration: a tree of sets rooted at the empty set, whose frontier is
    every candidate; each set grows by its frontier vertices, lowest bit
    first, and bans each one for the later branches at its level.
    ``fits(mask)`` is called once on each set of at least ``min_size``
    vertices; it must be monotone (a set that does not fit has no superset
    that fits), so a set that does not fit is not yielded and ends its whole
    superset subtree.
    """
    if current.bit_count() >= min_size:
        if not fits(current):
            return
        yield current, nbhd
    frontier = nbhd & candidates & ~current if current else candidates
    while frontier:
        low = frontier & -frontier
        grown = nbhd | adjmask[low.bit_length() - 1]
        if current or grown & candidates or min_size < 2:  # else one vertex, too small to yield
            yield from _connected_masks(adjmask, candidates, min_size, fits, current | low, grown)
        candidates ^= low  # banned for the later branches at this level
        frontier ^= low


def _has_room(adjmask, rest, slots, require_nontrivial):
    """Whether mask ``rest`` may hold ``slots`` disjoint branch sets: the search's room bound.

    A non-trivial set holds an edge, so it needs two vertices with a
    neighbour in ``rest``; any other set needs a vertex.
    """
    if not require_nontrivial:
        return rest.bit_count() >= slots
    need = 2 * slots
    spare = rest.bit_count() - need  # how many vertices of ``rest`` may lack a neighbour in it
    left = rest
    while need > 0 and spare >= 0:  # one of them reaches its bound before ``left`` runs out
        low = left & -left
        left ^= low
        if adjmask[low.bit_length() - 1] & rest:
            need -= 1
        else:
            spare -= 1
    return spare >= 0


def find_odd_model(g, pattern, region=None, require_nontrivial=False, cap=FIND_MODEL_CAP):
    """Exhaustively search G[region] for an odd pattern-model.

    Returns the first model in lexicographic search order with its oddness
    witness, ``(Model, {covered vertex: 0 | 1})``, or ``None`` with an
    exhaustiveness guarantee.  Raises ResourceLimitError when the region
    exceeds the cap — callers rely on "None means none exists", so there is
    no heuristic fallback.  Four answers come before the cap, for a region
    of any size: no model when the region has no room for ``pattern.n``
    branch sets (``room`` is the bound that ``_has_room`` asks each
    candidate set to leave for the sets after it); the empty model of the
    empty pattern; a K_1, the region's least vertex a (vertex 0 of the whole
    graph) with witness {a: 0}; and a non-trivial K_1, the region's least
    edge (a, b), a the least vertex with a neighbour in the region and b its
    least such neighbour, with witness {a: 1, b: 0}.  Each K_1 answer is the
    search's first model.  The whole graph's region set, and the masks, are
    built only after the cap check.
    """
    if region is None:  # the whole graph: room is counted on ``g.adj``, the set waits for the cap
        size = g.n
        room = sum(map(bool, g.adj)) // 2 if require_nontrivial else size
    else:
        region_set = set(region)
        invalid = [v for v in region_set if not 0 <= v < g.n]
        if invalid:
            raise ValueError(f"invalid region vertex {min(invalid)}")
        size = len(region_set)
        room = sum(not g.adj[v].isdisjoint(region_set) for v in region_set) // 2 if require_nontrivial else size
    if room < pattern.n:
        return None
    if not pattern.n:
        return _witness_search(g, pattern, [], {})
    if pattern.n == 1 and not require_nontrivial:  # room >= 1: the least region vertex, alone
        a = 0 if region is None else min(region_set)
        return Model(pattern=pattern, branch_sets={0: (a,)}, branch_trees={0: ()}), {a: 0}
    if pattern.n == 1:  # non-trivial, room >= 1: some region vertex has a neighbour in it
        if region is None:
            a = next(v for v, nbrs in enumerate(g.adj) if nbrs)
            b = min(g.adj[a])
        else:
            a = min(v for v in region_set if not g.adj[v].isdisjoint(region_set))
            b = min(g.adj[a] & region_set)
        model = Model(pattern=pattern, branch_sets={0: (a, b)}, branch_trees={0: ((a, b),)})
        return model, {a: 1, b: 0}
    if size > cap:
        raise ResourceLimitError(f"odd-model search capped at {cap} region vertices, got {size}")
    if region is None:
        region_set = set(range(g.n))
    region = sorted(region_set)
    bit = {v: 1 << i for i, v in enumerate(region)}
    adjmask = [sum(bit[u] for u in g.adj[v] & region_set) for v in region]
    order = sorted(range(pattern.n), key=lambda x: (-pattern.degree(x), x))
    search = (g, pattern, order, region, adjmask, require_nontrivial)
    return _place(search, 0, (1 << len(region)) - 1, {})


def _place(search, k, available, sets):
    """Place the branch sets of ``order[k:]`` in mask ``available``; the first odd model, or None.

    ``sets`` maps each pattern vertex of ``order[:k]`` to its set's mask and neighbourhood mask.
    """
    g, pattern, order, region, adjmask, require_nontrivial = search
    if k == len(order):
        vertex_sets = {x: tuple(v for i, v in enumerate(region) if m >> i & 1) for x, (m, _) in sets.items()}
        return _witness_search(g, pattern, order, vertex_sets)
    x = order[k]
    slots_after = len(order) - k - 1
    placed = [sets[y][1] for y in pattern.adj[x] if y in sets]

    def fits(current):
        # room for the later branch sets; only tightens as the set grows
        return _has_room(adjmask, available & ~current, slots_after, require_nontrivial)

    for cand, nbhd in _connected_masks(adjmask, available, 2 if require_nontrivial else 1, fits):
        if all(nb & cand for nb in placed):  # joined to every placed neighbour's set
            sets[x] = cand, nbhd
            found = _place(search, k + 1, available & ~cand, sets)
            if found is not None:
                return found
            del sets[x]
    return None


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
