"""Recursive clustered colouring with odd-model certificates.

``colour_bounded_tw`` colours a graph of bounded treewidth with at most
3*2^(h-1) - 2 colours and clustering at most d*w + d - w, or returns a
verified non-trivial odd U_{h,d}-model certificate.  The recursion works
layer by layer: each BFS layer either yields d disjoint non-trivial odd
U_{h-1,d}-models (assembled with a layered spanning tree into a U_{h,d}
certificate) or a small hitting set, after which the layer minus the
hitting set is coloured recursively at h-1.  A layer whose region (the
layer minus its least vertex u_i) has fewer than 2|V(U_{h-1,d})| vertices
skips the decomposition restriction and the dichotomy: a non-trivial model
puts at least 2 vertices in each branch set, so no subset of the region
holds one, the oracle would answer None everywhere and the hitting set
would come out empty.  Skipping it is exact; only u_i is hit.  U_{h-1,d}
is built when a layer first has a non-empty region, so a run whose
regions are all empty never builds it.

The whole recursion runs on the input graph and decomposition: a
sub-problem (a component, a layer's region, what the hitting set leaves) is
a vertex set of the input, never a relabelled copy.  Each component is
walked once: the BFS layering from its least vertex is what finds it.  Each
layer that runs the dichotomy restricts the input decomposition once, to its
region; since a restriction keeps exactly the nodes whose bags meet its
vertex set, each under its nearest kept ancestor, this is the same tree that
restricting component by component would give.
The pipeline copies a monochromatic component only to decompose it: the
bags are mapped back to the host's ids and the component is coloured on the
host, so colourings and certificates come back in host ids with nothing to
relabel.  Each vertex's colour and scope are written once, into two maps
the run owns: a level colours from the palette offset it is given and
returns a certificate or None, so nothing is copied or re-offset on the way
back up.

Palette discipline: the palette of size f(h) = 2*(f(h-1)+1) splits into an
even-layer and an odd-layer subpalette of size f(h-1)+1 each; within a
subpalette the last index is the hitting-set colour and the first f(h-1)
feed the recursion.  Layers two apart are non-adjacent, so reusing a
subpalette across same-parity layers cannot merge monochromatic components;
this is asserted, not assumed.
"""

from dataclasses import dataclass, field

from . import treedepth
from .errors import InternalConsistencyError
from .decomposition import TreeDecomposition, decompose, restrict_decomposition
from .eposa import Target, disjoint_or_hitting
from .graph import bfs_layers, connected_components, induced_subgraph, reach
from .oddmodel import (
    FIND_MODEL_CAP,
    Model,
    find_odd_model,
    is_nontrivial,
    verify_model,
    verify_odd_witness,
)
from .treedepth import u_child_embedding, u_graph

H_MAX = 60  # largest h with a colour budget
D_MAX = 2**30  # largest d (and width) with a clustering budget


def colour_budget(h):
    """3*2^(h-1) - 2, the colour bound at pattern height h."""
    if h < 1:
        raise ValueError("h must be >= 1")
    if h > H_MAX:
        raise OverflowError("colour budget out of sane range")
    return 3 * 2 ** (h - 1) - 2


def clustering_budget(d, w):
    """d*w + d - w, the cluster-size bound for d branches at width w."""
    if d < 1 or w < 0:
        raise ValueError("need d >= 1 and w >= 0")
    if d > D_MAX or w > D_MAX:
        raise OverflowError("clustering budget out of sane range")
    return d * w + d - w


@dataclass(frozen=True)
class Budgets:
    h: int
    d: int
    w: int

    @property
    def colours(self):
        return colour_budget(self.h)

    @property
    def clustering(self):
        return clustering_budget(self.d, self.w)


@dataclass
class Colouring:
    colour: dict  # vertex -> dense colour id
    num_colours: int
    max_cluster: int
    scope: dict = field(default_factory=dict, repr=False)


@dataclass
class OddModelCertificate:
    h: int
    d: int
    model: Model
    witness: dict  # covered host vertex -> 0 (red) | 1 (blue)


def make_colouring(g, raw_colour, scope=None):
    """Compact raw colour ids to dense 0..k-1 and recompute the cluster size."""
    used = sorted(set(raw_colour.values()))
    dense = {c: i for i, c in enumerate(used)}
    colour = {v: dense[c] for v, c in raw_colour.items()}
    return Colouring(
        colour=colour,
        num_colours=len(used),
        max_cluster=max_monochromatic_component(g, colour),
        scope={} if scope is None else scope,
    )


def max_monochromatic_component(g, colour):
    return max(map(len, _monochromatic_sets(g, colour)), default=0)


def monochromatic_components(g, colour):
    """Components of each colour class, sorted, by least vertex; uncoloured vertices are skipped."""
    return sorted(tuple(sorted(comp)) for comp in _monochromatic_sets(g, colour))


def _monochromatic_sets(g, colour):
    """Each monochromatic component as an unsorted set, one colour class at a time."""
    classes = {}
    for v, c in colour.items():
        classes.setdefault(c, set()).add(v)
    for cls in classes.values():
        while cls:
            comp = reach(g.adj, cls.pop(), cls)
            cls -= comp
            yield comp


def _k1_certificate(d, edge):
    """Non-trivial odd U_{1,d} = K_1 certificate: an edge, coloured red/blue."""
    a, b = edge
    model = Model(
        pattern=u_graph(1, d),
        branch_sets={0: (a, b)},
        branch_trees={0: ((a, b),)},
    )
    return OddModelCertificate(h=1, d=d, model=model, witness={a: 0, b: 1})


def assemble_certificate(g, layering, i, u_i, submodels, h, d):
    """Glue d non-trivial odd U_{h-1,d}-models, ``(Model, witness)`` pairs, below layers 0..i-1.

    The branch set of the dominant root of U_{h,d} is layers 0..i-1 plus
    u_i, with each vertex but the root hung from its least neighbour one
    layer down, which exists by the layering invariant; it is coloured by
    layer parity with layer i-1 red.  Every branch set in layer i contains
    a red vertex (non-trivial branch trees carry both colours) with a
    neighbour in the all-red layer i-1, which realizes the root edges
    monochromatically.  Nothing is verified here: ``colour_bounded_tw``
    checks the result, submodels included.
    """
    if i < 1:
        raise ValueError("layer index must be >= 1")
    if i >= len(layering.layers) or u_i not in layering.layers[i]:
        raise ValueError(f"vertex {u_i} is not in layer {i}")
    if len(submodels) != d:
        raise ValueError(f"need exactly {d} submodels, got {len(submodels)}")
    region = set(layering.layers[i]) - {u_i}
    for model, _ in submodels:
        if not is_nontrivial(model):
            raise ValueError("submodel is not non-trivial")
        if not region.issuperset(model.covered_vertices()):
            raise ValueError("submodel leaves layer i minus u_i")

    colour, tree_edges, below = {}, [], set()
    for j, layer in enumerate((*layering.layers[:i], (u_i,))):
        for v in layer:
            colour[v] = (i - 1 - j) % 2
            if j:
                p = min(g.adj[v] & below)
                tree_edges.append((min(v, p), max(v, p)))
        below = set(layer)
    branch_sets = {0: tuple(sorted(colour))}
    branch_trees = {0: tuple(sorted(tree_edges))}
    for j, (model, witness) in enumerate(submodels):
        emb = u_child_embedding(h, d, j)
        for x, bs in model.branch_sets.items():
            branch_sets[emb[x]] = bs
            branch_trees[emb[x]] = model.branch_trees[x]
        colour.update(witness)

    cert_model = Model(pattern=u_graph(h, d), branch_sets=branch_sets, branch_trees=branch_trees)
    return OddModelCertificate(h=h, d=d, model=cert_model, witness=colour)


def verify_certificate(g, cert):
    """Check a certificate's model, its oddness witness and non-triviality; returns (ok, why)."""
    ok, why = verify_model(g, cert.model)
    if ok:
        ok, why = verify_odd_witness(g, cert.model, cert.witness)
    if ok and not is_nontrivial(cert.model):
        ok, why = False, "model is trivial (a branch set has fewer than 2 vertices)"
    return ok, why


def colour_bounded_tw(g, h, d, dec, cap=FIND_MODEL_CAP):
    """Colour G[X] within the h/d budgets or emit a non-trivial odd U_{h,d}-certificate.

    X is the set of vertices that ``dec``'s bags cover: all of V(G) for a
    decomposition of g, or part of it for a decomposition of an induced
    subgraph in g's own ids.  Colourings and certificates are in g's ids.
    The result is checked: a certificate that ``verify_certificate``
    rejects, or a colouring over f(h) colours or with a cluster over
    d*w + d - w, raises InternalConsistencyError.
    """
    if h < 1 or d < 1:
        raise ValueError("need h >= 1 and d >= 1")
    xs = frozenset().union(*dec.bags)
    if xs and not (0 <= min(xs) and max(xs) < g.n):
        raise ValueError(f"decomposition bags leave 0..{g.n - 1}")
    raw, scope = {}, {}
    cert = _colour_rec(g, h, d, dec, cap, xs, "", 0, raw, scope)
    if cert is not None:
        ok, why = verify_certificate(g, cert)
        if not ok:
            raise InternalConsistencyError(f"U_{{{h},{d}}} certificate invalid: {why}")
        return cert
    _assert_scope_locality(g, raw, scope)
    colouring = make_colouring(g, raw, scope)
    budgets = Budgets(h=h, d=d, w=max(dec.width, 0))
    if colouring.num_colours > budgets.colours:
        raise InternalConsistencyError(
            f"{colouring.num_colours} colours exceed the budget {budgets.colours}"
        )
    if colouring.max_cluster > budgets.clustering:
        raise InternalConsistencyError(
            f"cluster of {colouring.max_cluster} exceeds the budget {budgets.clustering}"
        )
    return colouring


def _assert_scope_locality(g, raw, scope):
    # every monochromatic component must sit inside a single layer of a
    # single recursion scope; same-parity palette reuse relies on this.  A
    # component lies in one scope iff each of its edges does.
    for a in raw:
        for b in g.adj[a]:
            if a < b and b in raw and raw[a] == raw[b] and scope[a] != scope[b]:
                raise InternalConsistencyError(
                    f"monochromatic edge ({a},{b}) joins scopes {scope[a]!r} and {scope[b]!r}"
                )


def _colour_rec(g, h, d, dec, cap, xs, prefix, base, raw, scope):
    """Colour G[xs], a frozenset of host vertices, from palette base..base+f(h)-1.

    Writes each vertex's colour into ``raw`` and its scope into ``scope``,
    the run's two maps, and returns a certificate if one is found, else None.
    """
    if h == 1:
        edge = min(((a, b) for a in xs for b in g.adj[a] & xs if a < b), default=None)
        if edge is not None:
            return _k1_certificate(d, edge)
        tag = f"{prefix}/base" if prefix else "base"
        for v in sorted(xs):
            raw[v] = base
            scope[v] = tag
        return None
    seen, ci = set(), 0
    for s in sorted(xs):
        if s not in seen:
            layering = bfs_layers(g, s, xs)
            seen.update(*layering.layers)
            cert = _colour_component(g, h, d, dec, cap, layering, f"{prefix}/c{ci}", base, raw, scope)
            if cert is not None:
                return cert
            ci += 1
    return None


def _colour_component(g, h, d, dec, cap, layering, prefix, base, raw, scope):
    """Colour a connected component of the recursion from its BFS layering, layer by layer."""
    sub_size = colour_budget(h - 1)
    raw[layering.root] = base
    scope[layering.root] = f"{prefix}/L0"
    pattern = None  # U_{h-1,d}, built when a layer first needs it
    for i in range(1, len(layering.layers)):
        u_i, *region = layering.layers[i]
        offset = base if i % 2 == 0 else base + sub_size + 1
        hit = [u_i]
        if region and pattern is None:
            pattern = u_graph(h - 1, d)
        # a region of fewer than 2|V(U)| vertices holds no non-trivial model:
        # the dichotomy would find none and hit nothing, so it is not run
        if region and len(region) >= 2 * pattern.n:
            dec_i = restrict_decomposition(dec, region)
            dich = disjoint_or_hitting(g, dec_i, _component_oracle(g, pattern, cap), d)
            if dich.is_disjoint_arm:
                submodels = [t.payload for t in dich.disjoint]
                return assemble_certificate(g, layering, i, u_i, submodels, h, d)
            hit = [*dich.hitting_set, u_i]
        tag = f"{prefix}/L{i}/hit"
        for v in hit:
            raw[v] = offset + sub_size
            scope[v] = tag
        rest = frozenset(region).difference(hit)
        if rest and _colour_rec(g, h - 1, d, dec, cap, rest, f"{prefix}/L{i}", offset, raw, scope):
            raise InternalConsistencyError(
                f"odd U_{{{h-1},{d}}}-model found in a region the hitting set certified clean"
            )
    return None


def _component_oracle(g, pattern, cap):
    """The layer oracle: a memoised non-trivial odd pattern-model search, component-wise.

    ``oracle(region)`` returns, as a Target, the model that
    ``find_odd_model(g, pattern, region, require_nontrivial=True)`` returns,
    or None, but searches each component of G[region] on its own, with
    ``cap`` applied per component.  The pattern U is connected, so a model
    lies in one component, and components with fewer than 2|V(U)| vertices
    cannot hold a non-trivial one.  The memo is keyed by components, so it
    holds no more than the searches made.  Pattern vertex 0, the root of U,
    is placed first and every other pattern vertex is adjacent to it; so the
    whole-region search returns, among the components' models, the one
    whose root branch set has the least minimum vertex.  The colouring
    does not build this oracle for a layer region below 2|V(U)| vertices:
    every component of every region asked would be skipped by the size
    test above, so the answer would be None throughout.
    """
    memo = {}

    def oracle(region):
        targets = []
        seen = set()
        for v in sorted(region):
            if v in seen:
                continue
            comp = frozenset(reach(g.adj, v, region))
            seen |= comp
            if len(comp) < 2 * pattern.n:
                continue
            if comp not in memo:
                found = find_odd_model(g, pattern, sorted(comp), require_nontrivial=True, cap=cap)
                memo[comp] = found and Target(tuple(found[0].covered_vertices()), found)
            if memo[comp] is not None:
                targets.append(memo[comp])
        return min(targets, key=lambda t: t.payload[0].branch_sets[0][0], default=None)

    return oracle


def colour_pipeline(g, pattern_graph, partition=None, *, cap=FIND_MODEL_CAP):
    """Colour g against the excluded pattern H: h = ctd(H), d = |V(H)|.

    Without a partition the graph is decomposed directly (exact when small
    enough, min-fill otherwise) and coloured with at most f(h) colours.
    With a red/blue partition covering V(G), each monochromatic component
    is coloured separately, red components on palette [0, f(h)) and blue
    components on [f(h), 2*f(h)), for at most 3*2^h - 4 colours total.
    A certificate from any component is reported at the U_{h,d} level.
    """
    h, _ = treedepth.connected_tree_depth(pattern_graph)
    d = pattern_graph.n
    if partition is None:
        return colour_bounded_tw(g, h, d, decompose(g), cap=cap)

    partition = list(partition)
    if len(partition) != g.n or set(partition) - {"r", "b"}:
        raise ValueError("partition must assign 'r' or 'b' to every vertex")
    f_h = colour_budget(h)
    raw = {}
    scope = {}
    for side, offset in (("r", 0), ("b", f_h)):
        side_vertices = [v for v in range(g.n) if partition[v] == side]
        for comp in connected_components(g, side_vertices):
            gcomp, comp_map = induced_subgraph(g, comp)
            dec = decompose(gcomp)
            dec = TreeDecomposition(dec.parent, [[comp_map[v] for v in bag] for bag in dec.bags])
            out = colour_bounded_tw(g, h, d, dec, cap=cap)
            if isinstance(out, OddModelCertificate):
                return out
            for v, col in out.colour.items():
                raw[v] = offset + col
                scope[v] = f"{side}:{out.scope[v]}"
    return make_colouring(g, raw, scope)
