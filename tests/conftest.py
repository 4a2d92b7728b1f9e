"""Shared brute-force oracles and fixtures for the test suite.

The oracles are intentionally written from the definitions, without reusing
the library's optimized code paths, so the two can falsify each other.  The
helpers at the end (the ``bfs_tree``-based layering that ``bfs_layers``'
frontier walk is checked against, bipartiteness with odd-cycle extraction,
the single-bag decomposition, small graph families, the closure of a rooted
forest and the complete d-ary tree that ``u_graph`` is checked against, a
forest's children lists, the parity test of a branch-set colouring,
triangulated strips, seeded relabellings, the set-based odd-model search
that the bitmask search replaced, the pipeline that decomposes every
monochromatic component up front, a colour run's layer oracle and the
edge scan that ``make_colouring``'s scope check is checked against) are used
only by the tests, so they live here rather than in the library.  A rooted
forest is a parent array, as the tree-depth witnesses are: ``parent[v]`` is v's parent, -1 at a
root.
"""

import functools
import random
from itertools import combinations, permutations

from oddcluster import (
    Graph,
    Layering,
    Model,
    OddModelCertificate,
    TreeDecomposition,
    colour_bounded_tw,
    colour_budget,
    colouring,
    connected_components,
    connected_tree_depth,
    induced_subgraph,
    make_colouring,
)
from oddcluster.decomposition import decompose
from oddcluster.errors import InternalConsistencyError, ResourceLimitError
from oddcluster.graph import bfs_tree
from oddcluster.treedepth import U_GRAPH_VERTEX_CAP


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


def check_layered_tree(g, layering, i, u_i, branch_set, tree_edges):
    """Independent checker for the layered spanning tree of a certificate's root branch set."""
    want = {u_i}.union(*layering.layers[:i])
    assert set(branch_set) == want, "tree does not span layers 0..i-1 plus u_i"
    assert len(tree_edges) == len(want) - 1
    layer_of = {v: j for j, layer in enumerate(layering.layers) for v in layer}
    children = []
    for a, b in tree_edges:
        assert g.has_edge(a, b), "tree edge not in graph"
        assert abs(layer_of[a] - layer_of[b]) == 1, "tree edge does not go one layer down"
        children.append(max((a, b), key=layer_of.get))
    assert sorted(children) == sorted(want - {layering.root}), "a vertex has no single edge down"
    assert len(want) >= 2


def all_two_colourings_proper(g):
    """Exhaustive bipartiteness test, for cross-checking is_bipartite."""
    for bits in range(1 << g.n):
        if all((bits >> a & 1) != (bits >> b & 1) for a, b in g.edges):
            return True
    return g.n == 0


def renumbered(dec, index_map):
    """``dec`` with host ids renumbered by an ``induced_subgraph`` index map (new -> old)."""
    pos = {v: i for i, v in enumerate(index_map)}
    return TreeDecomposition(dec.parent, [[pos[v] for v in bag] for bag in dec.bags])


def reference_bfs_layers(g, r, allowed=None):
    """Distance layers from r in G[allowed], read off the depths of ``bfs_tree``'s parents."""
    if allowed is not None:
        allowed = frozenset(allowed)
    if not 0 <= r < g.n or (allowed is not None and r not in allowed):
        raise ValueError(f"invalid root {r}")
    adj = g.adj if allowed is None else {v: g.adj[v] & allowed for v in allowed}
    depth = {r: 0}
    layers = [[r]]
    for v, p in bfs_tree(adj, r).items():
        depth[v] = k = depth[p] + 1
        if k == len(layers):
            layers.append([])
        layers[k].append(v)
    return Layering(root=r, layers=tuple(tuple(sorted(l)) for l in layers))


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


def trivial_decomposition(g):
    """Single bag holding all of V(G)."""
    return TreeDecomposition((-1,), [tuple(range(g.n))])


def path_graph(n):
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def empty_graph(n):
    return Graph(n, [])


def random_tree(n, seed):
    rng = random.Random(seed)
    edges = [(rng.randrange(v), v) for v in range(1, n)]
    return Graph(n, edges)


def random_graph(n, p, seed):
    rng = random.Random(seed)
    edges = [e for e in combinations(range(n), 2) if rng.random() < p]
    return Graph(n, edges)


def closure(parent):
    """Graph joining every vertex of a rooted forest to all its strict ancestors."""
    edges = []
    for v in range(len(parent)):
        a = parent[v]
        while a >= 0:
            edges.append((v, a))
            a = parent[a]
    return Graph(len(parent), edges)


def forest_height(parent):
    """Vertex-height of a rooted forest: the most vertices on a path from a vertex up to its root."""
    best = 0
    for v in range(len(parent)):
        k = 0
        while v >= 0:
            v, k = parent[v], k + 1
            assert k <= len(parent), "the parent array has a cycle"
        best = max(best, k)
    return best


def complete_dary_tree(h, d):
    """Parent array of the complete d-ary tree of vertex-height h, in BFS order (root 0)."""
    if h < 1 or d < 1:
        raise ValueError("h and d must be >= 1")
    n, level = 0, 1
    for _ in range(h):  # level by level, so a huge h or d stops at the cap
        n, level = n + level, level * d
        if n > U_GRAPH_VERTEX_CAP:
            raise ResourceLimitError(f"U_{{{h},{d}}} has over {U_GRAPH_VERTEX_CAP} vertices")
    return [-1] + [(v - 1) // d for v in range(1, n)]


def tree_children(parent):
    """Children lists ``[[c, ...], ...]`` of a rooted forest, each ascending."""
    children = [[] for _ in parent]
    for c, p in enumerate(parent):
        if p >= 0:
            children[p].append(c)
    return children


RED = 0


def _bichromatic_adj(g, bs, colour):
    """Adjacency of the bichromatic subgraph of G[bs] under a RED/BLUE colouring."""
    red = {v for v in bs if colour[v] == RED}
    return {v: g.adj[v] & (bs - red if v in red else red) for v in bs}


def parity_realizable(g, branch_set, colour):
    """True iff the colouring properly 2-colours some spanning tree of G[B].

    Equivalently: the bichromatic edges of G[B] form a connected spanning
    subgraph of B.
    """
    bs = set(branch_set)
    if not bs:
        raise ValueError("empty branch set")
    return len(_components(_bichromatic_adj(g, bs, colour), bs)) == 1


def bichromatic_bfs_tree(g, branch_set, colour):
    """Minimum-index BFS tree inside the bichromatic subgraph of G[B]."""
    bs = set(branch_set)
    tree = bfs_tree(_bichromatic_adj(g, bs, colour), min(bs))
    return tuple(sorted((min(v, p), max(v, p)) for v, p in tree.items()))


def strip(length, width):
    """Triangulated ``length`` x ``width`` grid (treewidth ``width``)."""
    edges = []
    for i in range(length):
        for j in range(width):
            v = i * width + j
            if j + 1 < width:
                edges.append((v, v + 1))
            if i + 1 < length:
                edges.append((v, v + width))
                if j + 1 < width:
                    edges.append((v, v + width + 1))
    return Graph(length * width, edges)


def permuted(g, seed):
    """g with its vertices relabelled by a seeded random permutation."""
    perm = list(range(g.n))
    random.Random(seed).shuffle(perm)
    return Graph(g.n, [(perm[a], perm[b]) for a, b in g.edges])


def reference_find_odd_model(g, pattern, region=None, require_nontrivial=False, cap=24):
    """The set-based odd-model search that ``find_odd_model`` replaced, as its reference.

    Each candidate branch set is a Python set and each frontier a sorted set
    comprehension; the witness search keeps one colour dict per pattern
    vertex and tests each colouring with ``parity_realizable``.  Same order,
    so the same first model and witness, dict order included.
    """
    region = sorted(set(range(g.n) if region is None else region))
    region_set = set(region)

    def room(available):
        return _max_edge_packing_bound(g, available) if require_nontrivial else len(available)

    if room(region_set) < pattern.n:
        return None
    if pattern.n and len(region) > cap:
        raise ResourceLimitError(f"odd-model search capped at {cap} region vertices, got {len(region)}")
    adj = {v: g.adj[v] & region_set for v in region}
    min_size = 2 if require_nontrivial else 1
    order = sorted(range(pattern.n), key=lambda x: (-pattern.degree(x), x))

    def place(k, available, sets):
        if k == len(order):
            return _reference_witness_search(g, pattern, order, sets)
        x = order[k]
        slots_after = len(order) - k - 1

        def fits(current):
            return room(available - current) >= slots_after

        for cand in connected_subsets(adj, available, min_size, fits):
            if all(y not in sets or _joining_edges(g, sets[y], cand) for y in pattern.adj[x]):
                sets[x] = cand
                found = place(k + 1, available.difference(cand), sets)
                if found is not None:
                    return found
                del sets[x]
        return None

    found = place(0, region_set, {})
    place = None  # drop the closure's reference to itself
    return found


def connected_subsets(adj, available, min_size, fits):
    """Connected subsets of ``available``, as sorted tuples, by the set-based enumeration.

    By minimum vertex, then by growing the set through its frontier and
    banning each frontier vertex for later branches at the same level.
    ``fits(current)`` is asked once on each set of at least ``min_size``
    vertices; a set that does not fit is not yielded and ends its whole
    superset subtree.
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
    """Upper bound on the disjoint edges inside ``available``: half its non-isolated vertices."""
    covered = {v for v in available if g.adj[v] & available}
    return len(covered) // 2


def _joining_edges(g, set_a, set_b):
    sb = set(set_b)
    return [(v, u) for v in sorted(set(set_a)) for u in sorted(g.adj[v] & sb)]


def _reference_witness_search(g, pattern, order, sets):
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
        je = _joining_edges(g, sets[x], sets[y])
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
    assign = None  # drop the closure's reference to itself
    if not odd:
        return None
    colour = {}
    for x in sets:
        colour.update(chosen[x])
    model = Model(
        pattern=pattern,
        branch_sets={x: tuple(bs) for x, bs in sets.items()},
        branch_trees={x: bichromatic_bfs_tree(g, bs, chosen[x]) for x, bs in sets.items()},
    )
    return model, colour


def eager_colour_pipeline(g, pattern_graph, partition, cap=24):
    """``colour_pipeline`` with a partition, decomposing every monochromatic component up front.

    Each component is copied, decomposed, and coloured by ``colour_bounded_tw``
    with the decomposition's bags mapped back to host ids, whether or not a
    layer region of it ever walks the decomposition.
    """
    h, _ = connected_tree_depth(pattern_graph)
    d = pattern_graph.n
    raw, scope = {}, {}
    for side, offset in (("r", 0), ("b", colour_budget(h))):
        comps = connected_components(g, [v for v in range(g.n) if partition[v] == side])
        decs = []
        for comp in comps:
            gcomp, comp_map = induced_subgraph(g, comp)
            dec = decompose(gcomp)
            decs.append(TreeDecomposition(dec.parent, [[comp_map[v] for v in bag] for bag in dec.bags]))
        for ci, dec in enumerate(decs):
            out = colour_bounded_tw(g, h, d, dec, cap=cap)
            if isinstance(out, OddModelCertificate):
                return out
            for v, col in out.colour.items():
                raw[v] = offset + col
                scope[v] = f"{side}{ci}:{out.scope[v]}"
    return make_colouring(g, raw, scope)


def layer_oracle(g, pattern, cap):
    """The layer oracle a colour run of g with search cap ``cap`` asks, ``oracle(region)``, with a memo of its own."""
    return functools.partial(colouring._Run(g, None, None, cap).oracle, pattern, {})


def assert_scope_locality(g, raw, scope):
    """The edge scan: raise if a monochromatic edge joins two scopes.

    A monochromatic component lies in one scope iff each of its edges does.
    """
    for a in raw:
        for b in g.adj[a]:
            if a < b and b in raw and raw[a] == raw[b] and scope[a] != scope[b]:
                raise InternalConsistencyError(
                    f"monochromatic edge ({a},{b}) joins scopes {scope[a]!r} and {scope[b]!r}"
                )
