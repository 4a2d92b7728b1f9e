"""Independent brute-force oracles and verifiers.

These deliberately share no code with the optimized searches they check:
``odd_minor_oracle`` enumerates branch-set assignments, spanning trees and
proper tree colourings directly from the definitions, so that it and
``find_odd_model`` can falsify each other.
"""

from itertools import combinations, product

from .errors import ResourceLimitError

ODD_MINOR_ORACLE_CAP = 8
MIN_COLOURS_CAP = 10


def verify_colouring(g, colouring, max_colours, max_cluster):
    """Check colour count and cluster sizes; returns (ok, report)."""
    for v in range(g.n):
        if v not in colouring.colour:
            raise ValueError(f"colouring misses vertex {v}")
    used = len(set(colouring.colour.values()))
    if used > max_colours:
        return False, f"{used} colours used, budget {max_colours}"
    comps = _monochromatic_components(g, colouring.colour)
    worst = max(comps, key=len, default=())
    if len(worst) > max_cluster:
        return False, f"monochromatic component {worst} exceeds cluster bound {max_cluster}"
    return True, None


def _monochromatic_components(g, colour):
    """Components of each colour class, as sorted tuples in order of their least vertex."""
    classes = {}
    for v, c in colour.items():
        classes.setdefault(c, set()).add(v)
    seen = set()
    comps = []
    for s in sorted(colour):
        if s in seen:
            continue
        cls = classes[colour[s]]
        seen.add(s)
        stack = [s]
        comp = [s]
        while stack:
            v = stack.pop()
            for u in g.adj[v] & cls:
                if u not in seen:
                    seen.add(u)
                    stack.append(u)
                    comp.append(u)
        comps.append(tuple(sorted(comp)))
    return comps


def min_colours_with_clustering(g, k, cap=MIN_COLOURS_CAP):
    """Minimum c such that some c-colouring of g has clustering at most k."""
    if g.n > cap:
        raise ResourceLimitError(f"exhaustive colouring search capped at {cap} vertices")
    if k < 1:
        raise ValueError("cluster bound must be >= 1")
    if g.n == 0:
        return 0

    def feasible(c):
        colour = {}

        def cluster_ok(v):
            # component of v's colour through v stays within k
            comp = {v}
            stack = [v]
            while stack:
                x = stack.pop()
                for y in g.adj[x]:
                    if y in colour and colour[y] == colour[v] and y not in comp:
                        comp.add(y)
                        stack.append(y)
            return len(comp) <= k

        def assign(v, used):
            if v == g.n:
                return True
            for col in range(min(used + 1, c)):  # new colours introduced in order
                colour[v] = col
                if cluster_ok(v) and assign(v + 1, max(used, col + 1)):
                    return True
                del colour[v]
            return False

        return assign(0, 0)

    for c in range(1, g.n + 1):
        if feasible(c):
            return c
    raise AssertionError("n colours always suffice")


def _spanning_trees(g, verts):
    """All spanning trees of G[verts], as sorted edge tuples."""
    verts = tuple(sorted(verts))
    if len(verts) == 1:
        yield ()
        return
    vs = set(verts)
    inner = [e for e in sorted(g.edges) if e[0] in vs and e[1] in vs]
    for combo in combinations(inner, len(verts) - 1):
        parent = {v: v for v in verts}

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        ok = True
        for a, b in combo:
            ra, rb = find(a), find(b)
            if ra == rb:
                ok = False
                break
            parent[ra] = rb
        if ok:
            yield combo


def _tree_two_colourings(verts, edges):
    """The (at most two) proper 2-colourings of a tree."""
    verts = tuple(sorted(verts))
    adj = {v: set() for v in verts}
    for a, b in edges:
        adj[a].add(b)
        adj[b].add(a)
    base = {verts[0]: 0}
    stack = [verts[0]]
    while stack:
        v = stack.pop()
        for u in adj[v]:
            if u not in base:
                base[u] = 1 - base[v]
                stack.append(u)
    yield base
    yield {v: 1 - c for v, c in base.items()}


def odd_minor_oracle(g, h, cap=ODD_MINOR_ORACLE_CAP):
    """Exhaustive ground truth for 'g contains an odd h-model'."""
    if g.n > cap:
        raise ResourceLimitError(f"odd-minor oracle capped at {cap} vertices, got {g.n}")
    if h.n == 0:
        return True
    if h.n > g.n:
        return False
    labels = list(range(h.n)) + [None]
    for assignment in product(labels, repeat=g.n):
        sets = {x: [v for v in range(g.n) if assignment[v] == x] for x in range(h.n)}
        if any(not sets[x] for x in range(h.n)):
            continue
        if not all(_connected_in(g, sets[x]) for x in range(h.n)):
            continue
        join = {}
        ok = True
        for x, y in h.edges:
            je = [
                (a, b)
                for a in sets[x]
                for b in g.adj[a]
                if b in sets[y]
            ]
            if not je:
                ok = False
                break
            join[(x, y)] = je
        if not ok:
            continue
        if _odd_witness_exists(g, h, sets, join):
            return True
    return False


def _connected_in(g, verts):
    vs = set(verts)
    start = verts[0]
    seen = {start}
    stack = [start]
    while stack:
        v = stack.pop()
        for u in g.adj[v] & vs:
            if u not in seen:
                seen.add(u)
                stack.append(u)
    return seen == vs


def _odd_witness_exists(g, h, sets, join):
    per_set = []
    for x in range(h.n):
        opts = []
        for tree in _spanning_trees(g, sets[x]):
            for col in _tree_two_colourings(sets[x], tree):
                if col not in opts:
                    opts.append(col)
        per_set.append(opts)
    for choice in product(*per_set):
        colour = {}
        for col in choice:
            colour.update(col)
        if all(
            any(colour[a] == colour[b] for a, b in join[(x, y)]) for x, y in h.edges
        ):
            return True
    return False
