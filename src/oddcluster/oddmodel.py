"""H-models with parity witnesses, and exhaustive odd-model search.

An H-model assigns to each pattern vertex a branch set (disjoint connected
vertex sets of the host) with a spanning branch tree, such that every
pattern edge is realized by a host edge between the two branch sets.  The
model is odd if some red/blue colouring makes every branch tree properly
coloured while every pattern edge has a monochromatic realizing edge.

The search collapses "choose a spanning tree plus a proper colouring of it"
into "choose a vertex 2-colouring whose bichromatic edges span the branch
set" (see ``parity_realizable``); the two formulations admit exactly the
same colourings, and the latter is cheap to enumerate.
"""

from dataclasses import dataclass

from .errors import ResourceLimitError
from .graph import Graph, bfs_tree, reach

FIND_MODEL_CAP = 24

RED, BLUE = 0, 1


@dataclass
class Model:
    pattern: Graph
    branch_sets: dict  # pattern vertex -> sorted tuple of host vertices
    branch_trees: dict  # pattern vertex -> sorted tuple of host edges

    def covered_vertices(self):
        return sorted(v for bs in self.branch_sets.values() for v in bs)


@dataclass
class Witness:
    colour: dict  # covered host vertex -> RED | BLUE


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
    sa, sb = set(set_a), set(set_b)
    out = []
    for v in sorted(sa):
        for u in sorted(g.adj[v] & sb):
            out.append((v, u))
    return out


def verify_model(g, model):
    """Check the model invariants; returns (ok, first violation)."""
    h = model.pattern
    if set(model.branch_sets) != set(range(h.n)):
        return False, "branch sets do not cover the pattern's vertices"
    seen = set()
    for x in range(h.n):
        bs = model.branch_sets[x]
        if not bs:
            return False, f"branch set of pattern vertex {x} is empty"
        for v in bs:
            if not 0 <= v < g.n:
                return False, f"branch set of {x} contains invalid vertex {v}"
            if v in seen:
                return False, f"vertex {v} appears in two branch sets"
            seen.add(v)
    for x in range(h.n):
        if not _is_spanning_tree(model.branch_trees.get(x, ()), model.branch_sets[x], g):
            return False, f"branch tree of pattern vertex {x} is not a spanning tree"
    for x, y in h.edges:
        if not joining_edges(g, model.branch_sets[x], model.branch_sets[y]):
            return False, f"pattern edge ({x},{y}) has no realizing edge"
    return True, None


def verify_odd_witness(g, model, witness):
    """Check the oddness-witness invariants; returns (ok, first violation)."""
    for v in model.covered_vertices():
        if v not in witness.colour:
            return False, f"witness misses covered vertex {v}"
    for x, tree_edges in model.branch_trees.items():
        for a, b in tree_edges:
            if a not in witness.colour or b not in witness.colour:
                return False, f"branch tree of {x} has edge ({a},{b}) with an uncoloured end"
            if witness.colour[a] == witness.colour[b]:
                return False, f"branch tree of {x} has monochromatic edge ({a},{b})"
    for x, y in model.pattern.edges:
        if not any(
            witness.colour[a] == witness.colour[b]
            for a, b in joining_edges(g, model.branch_sets[x], model.branch_sets[y])
        ):
            return False, f"pattern edge ({x},{y}) has no monochromatic realizing edge"
    return True, None


def is_nontrivial(model):
    """True iff every branch set has at least 2 vertices."""
    return all(len(bs) >= 2 for bs in model.branch_sets.values())


def parity_realizable(g, branch_set, colour):
    """True iff the colouring properly 2-colours some spanning tree of G[B].

    Equivalently: the bichromatic edges of G[B] form a connected spanning
    subgraph of B.
    """
    bs = set(branch_set)
    if not bs:
        raise ValueError("empty branch set")
    return reach(g.adj, min(bs), bs, lambda v, u: colour[u] != colour[v]) == bs


def _bichromatic_bfs_tree(g, branch_set, colour):
    """Minimum-index BFS tree inside the bichromatic subgraph of G[B]."""
    bs = set(branch_set)
    tree = bfs_tree(g.adj, min(bs), bs, lambda v, u: colour[u] != colour[v])
    return tuple(sorted((min(v, p), max(v, p)) for v, p in tree.items()))


def _connected_subsets(adj, available, min_vertex, prune):
    """All connected subsets of ``available`` whose minimum element is ``min_vertex``.

    Standard once-only enumeration: grow the set through its frontier,
    banning each frontier vertex for later branches at the same level.
    ``prune(current)`` may return True to cut the whole superset subtree
    (the condition must be monotone in the grown set).
    """
    return _grow(adj, {min_vertex}, {v for v in available if v > min_vertex}, prune)


def _grow(adj, current, candidates, prune):
    yield tuple(sorted(current))
    if prune(current):
        return
    frontier = sorted({u for v in current for u in adj[v] if u in candidates and u not in current})
    banned = set()
    for u in frontier:
        yield from _grow(adj, current | {u}, candidates - banned, prune)
        banned.add(u)


def _max_edge_packing_bound(g, available):
    """Cheap upper bound on the number of disjoint edges inside ``available``."""
    covered = {v for v in available if g.adj[v] & available}
    return len(covered) // 2


def find_odd_model(g, pattern, region=None, require_nontrivial=False, cap=FIND_MODEL_CAP):
    """Exhaustively search G[region] for an odd pattern-model.

    Returns ``(Model, Witness)`` for the first model in lexicographic search
    order, or ``None`` with an exhaustiveness guarantee.  Raises
    ResourceLimitError when the region exceeds the cap — callers rely on
    "None means none exists", so there is no heuristic fallback.  A region
    of any size without room for a non-trivial model is answered first:
    non-trivial branch sets are disjoint and each holds an edge.
    """
    if region is None:
        region = range(g.n)
    region = sorted(set(region))
    for v in region:
        if not 0 <= v < g.n:
            raise ValueError(f"invalid region vertex {v}")
    region_set = set(region)
    if require_nontrivial and _max_edge_packing_bound(g, region_set) < pattern.n:
        return None
    if len(region) > cap:
        raise ResourceLimitError(
            f"odd-model search capped at {cap} region vertices, got {len(region)}"
        )
    adj = {v: g.adj[v] & region_set for v in region}
    min_size = 2 if require_nontrivial else 1
    order = sorted(range(pattern.n), key=lambda x: (-pattern.degree(x), x))
    pattern_pos = {x: k for k, x in enumerate(order)}

    if pattern.n * min_size > len(region):
        return None

    def feasible_rest(available, slots_left):
        if require_nontrivial:
            return _max_edge_packing_bound(g, available) >= slots_left
        return len(available) >= slots_left

    def place(k, available, sets):
        if k == len(order):
            return _witness_search(g, pattern, order, sets)
        x = order[k]
        slots_after = len(order) - k - 1

        def prune(current):
            if len(current) >= min_size:
                # constraints only tighten as the set grows
                return not feasible_rest(available - current, slots_after)
            return False

        for mv in sorted(available):
            for cand in _connected_subsets(adj, available, mv, prune):
                if len(cand) < min_size:
                    continue
                cand_set = set(cand)
                ok = True
                for y in pattern.adj[x]:
                    if pattern_pos[y] < k and not joining_edges(g, sets[y], cand):
                        ok = False
                        break
                if not ok:
                    continue
                if not feasible_rest(available - cand_set, slots_after):
                    continue
                sets[x] = cand
                found = place(k + 1, available - cand_set, sets)
                if found is not None:
                    return found
                del sets[x]
        return None

    found = place(0, region_set, {})
    place = None  # drop the closure's reference to itself: no cycle for the collector
    return found


def _witness_search(g, pattern, order, sets):
    """Decide oddness of a fixed branch-set family; build Model+Witness if odd."""
    options = {}
    for x, bs in sets.items():
        opts = []
        for bits in range(1 << len(bs)):
            col = {v: (bits >> i) & 1 for i, v in enumerate(bs)}
            if parity_realizable(g, bs, col):
                opts.append(col)
        if not opts:
            return None
        options[x] = opts
    joins = {}
    for x, y in pattern.edges:
        je = joining_edges(g, sets[x], sets[y])
        if not je:
            return None
        joins[(x, y)] = je

    chosen = {}

    def assign(k):
        if k == len(order):
            return True
        x = order[k]
        for col in options[x]:
            chosen[x] = col
            ok = True
            for y in pattern.adj[x]:
                if y not in chosen or y == x:
                    continue
                key = (x, y) if (x, y) in joins else (y, x)
                mono = False
                for a, b in joins[key]:
                    ca = chosen[x].get(a, chosen[y].get(a))
                    cb = chosen[x].get(b, chosen[y].get(b))
                    if ca == cb:
                        mono = True
                        break
                if not mono:
                    ok = False
                    break
            if ok and assign(k + 1):
                return True
            del chosen[x]
        return False

    odd = assign(0)
    assign = None  # drop the closure's reference to itself: no cycle for the collector
    if not odd:
        return None
    colour = {}
    for x in sets:
        colour.update(chosen[x])
    model = Model(
        pattern=pattern,
        branch_sets={x: tuple(bs) for x, bs in sets.items()},
        branch_trees={
            x: _bichromatic_bfs_tree(g, bs, chosen[x]) for x, bs in sets.items()
        },
    )
    return model, Witness(colour=colour)
