"""Recursive clustered colouring with odd-model certificates.

``colour_bounded_tw`` colours a graph of bounded treewidth with at most
3*2^(h-1) - 2 colours and clustering at most d*w + d - w, or returns a
verified non-trivial odd U_{h,d}-model certificate.  The recursion works
layer by layer: each BFS layer either yields d disjoint non-trivial odd
U_{h-1,d}-models (glued into a U_{h,d} certificate below a root branch set
made of the layers before it plus u_i) or a small hitting set, after which
the layer minus the hitting set is coloured recursively at h-1.

One run of the recursion is a ``_Run``, built once per colouring of G[xs].
It holds what every level shares: the graph, d, the decomposition getter,
the search cap, and the two maps each vertex's colour and scope are written
into, once.  ``_Run.colour`` colours a vertex set at height h from the
palette offset it is given and returns a certificate or None, so nothing is
copied or re-offset on the way back up.  ``_Run.oracle`` is the layer
oracle, given the pattern U = U_{h-1,d} and a memo that lives for one layer.

Which layers ask.  A layer whose region (the layer minus its least vertex
u_i) has fewer than 2|V(U)| vertices is not asked at all: a non-trivial
model puts at least 2 vertices in each branch set, so no subset of the
region holds one and the dichotomy would hit nothing; only u_i is hit.  The
threshold is counted by ``u_order``, and U is built only for a region that
reaches it, so a U over its size cap stops only a run that needs U.  A
region that reaches it is first asked whole.  The oracle answers None only
after searching every component of at least 2|V(U)| vertices under the cap
and finding no model; a region the walk would ask lies inside the layer
region, so each of its components lies inside one of those: the walk would
end in an empty hitting set.  So on None the layer is neither decomposed,
restricted nor walked; only u_i is hit, which is exact too.  A target, or a ResourceLimitError,
sends the region to the walk with the same memo: the walk may stop at d
targets before it reaches a component over the cap.

The whole recursion runs on the input graph and decomposition: a
sub-problem (a component, a layer's region, what the hitting set leaves) is
a vertex set of the input, never a relabelled copy.  Each component is
walked once: the BFS layering from its least vertex is what finds it.  Each
layer that runs the dichotomy restricts the input decomposition once, to its
region; since a restriction keeps exactly the nodes whose bags meet its
vertex set, each under its nearest kept ancestor, this is the same tree that
restricting component by component would give.
The pipeline colours each monochromatic component on the host, so
colourings and certificates come back in host ids with nothing to relabel;
it copies and decomposes a component, at most once, only when a layer
region first needs its decomposition (or the cluster check its width), and
maps the bags back to the host's ids.

Palette discipline: the palette of size f(h) = 2*(f(h-1)+1) splits into an
even-layer and an odd-layer subpalette of size f(h-1)+1 each; within a
subpalette the last index is the hitting-set colour and the first f(h-1)
feed the recursion.  Layers two apart are non-adjacent, so reusing a
subpalette across same-parity layers cannot merge monochromatic components;
this is asserted, not assumed.
"""

import functools
from dataclasses import dataclass, field

from . import treedepth
from .errors import InternalConsistencyError, ResourceLimitError
from .decomposition import TreeDecomposition, decompose, restrict_decomposition
from .eposa import Target, disjoint_or_hitting
from .graph import bfs_layers, components, connected_components, induced_subgraph
from .oddmodel import (
    FIND_MODEL_CAP,
    Model,
    find_odd_model,
    is_nontrivial,
    verify_model,
    verify_odd_witness,
)
from .treedepth import u_child_embedding, u_graph, u_order

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
    """Each monochromatic component as an unsorted set, walked out of its colour class."""
    classes = {}
    for v, c in colour.items():
        classes.setdefault(c, set()).add(v)
    for cls in classes.values():
        yield from components(g.adj, list(cls), cls)


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
    return _colour_checked(g, h, d, lambda: dec, cap, xs)


def _colour_checked(g, h, d, get_dec, cap, xs):
    """``colour_bounded_tw`` on G[xs], with ``get_dec()`` returning its decomposition when first needed.

    The cluster check reads the width only for a cluster over d, the budget at width 0:
    d*w + d - w never decreases in w when d >= 1, so a cluster of at most d is within every width's.
    """
    run = _Run(g, d, get_dec, cap)
    cert = run.colour(h, xs, "", 0)
    if cert is not None:
        ok, why = verify_certificate(g, cert)
        if not ok:
            raise InternalConsistencyError(f"U_{{{h},{d}}} certificate invalid: {why}")
        return cert
    _assert_scope_locality(g, run.raw, run.scope)
    colouring = make_colouring(g, run.raw, run.scope)
    if colouring.num_colours > colour_budget(h):
        raise InternalConsistencyError(f"{colouring.num_colours} colours exceed the budget {colour_budget(h)}")
    if colouring.max_cluster > clustering_budget(d, 0):
        budget = clustering_budget(d, max(get_dec().width, 0))
        if colouring.max_cluster > budget:
            raise InternalConsistencyError(f"cluster of {colouring.max_cluster} exceeds the budget {budget}")
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


class _Run:
    """One colouring run: the values every level of the recursion shares, and the two maps it writes.

    ``raw`` and ``scope`` take each vertex's colour and recursion scope.  The
    run stores none of its own bound methods, so it is freed without the cycle collector.
    """

    __slots__ = ("g", "d", "get_dec", "cap", "raw", "scope")

    def __init__(self, g, d, get_dec, cap):
        self.g, self.d, self.get_dec, self.cap = g, d, get_dec, cap
        self.raw, self.scope = {}, {}

    def paint(self, vertices, colour, tag):
        """Write ``colour`` and the scope ``tag`` for each of ``vertices``."""
        for v in vertices:
            self.raw[v] = colour
            self.scope[v] = tag

    def colour(self, h, xs, prefix, base):
        """Colour G[xs], a frozenset of host vertices, from palette base..base+f(h)-1.

        Each component is coloured from its BFS layering, layer by layer.
        Returns a certificate if one is found, else None.
        """
        g, d = self.g, self.d
        if h == 1:  # U_{1,d} = K_1: a non-trivial model is an edge, answered at any size
            found = find_odd_model(g, u_graph(1, d), xs, require_nontrivial=True)
            if found is not None:
                return OddModelCertificate(h=1, d=d, model=found[0], witness=found[1])
            self.paint(sorted(xs), base, f"{prefix}/base" if prefix else "base")
            return None
        sub_size = colour_budget(h - 1)
        room = 2 * u_order(h - 1, d, g.n)
        seen, ci = set(), 0
        for s in sorted(xs):
            if s in seen:
                continue
            layering = bfs_layers(g, s, xs)
            seen.update(*layering.layers)
            comp = f"{prefix}/c{ci}"
            ci += 1
            self.paint([s], base, f"{comp}/L0")
            for i in range(1, len(layering.layers)):
                u_i, *region = layering.layers[i]
                offset = base if i % 2 == 0 else base + sub_size + 1
                hit = [u_i]
                if len(region) >= room:
                    oracle = functools.partial(self.oracle, u_graph(h - 1, d), {})
                    try:
                        walk = oracle(frozenset(region)) is not None
                    except ResourceLimitError:
                        walk = True
                    if walk:
                        dich = disjoint_or_hitting(g, restrict_decomposition(self.get_dec(), region), oracle, d)
                        if dich.is_disjoint_arm:
                            submodels = [t.payload for t in dich.disjoint]
                            return assemble_certificate(g, layering, i, u_i, submodels, h, d)
                        hit = [*dich.hitting_set, u_i]
                self.paint(hit, offset + sub_size, f"{comp}/L{i}/hit")
                rest = frozenset(region).difference(hit)
                if rest and self.colour(h - 1, rest, f"{comp}/L{i}", offset):
                    raise InternalConsistencyError(
                        f"odd U_{{{h-1},{d}}}-model found in a region the hitting set certified clean"
                    )
        return None

    def oracle(self, pattern, memo, region):
        """The layer oracle: a memoised non-trivial odd pattern-model search, component-wise.

        ``functools.partial(run.oracle, pattern, memo)`` is the one-argument
        ``oracle(region)`` that ``disjoint_or_hitting`` calls.  It walks the
        components of G[region] in least-vertex order and returns, as a
        Target, the model that ``find_odd_model`` (``require_nontrivial=True``,
        the run's cap per component) finds in the first component holding
        one, or None if none does; later components are neither walked nor
        searched.  The pattern U is connected, so a model lies in one
        component, and a component with fewer than 2|V(U)| vertices holds no
        non-trivial one and is skipped unsearched.  ``memo`` is keyed by
        components, so it holds no more than the searches made.
        """
        for comp in components(self.g.adj, sorted(region), set(region)):
            if len(comp) < 2 * pattern.n:
                continue
            comp = frozenset(comp)
            if comp not in memo:
                found = find_odd_model(self.g, pattern, sorted(comp), require_nontrivial=True, cap=self.cap)
                memo[comp] = found and Target(tuple(found[0].covered_vertices()), found)
            if memo[comp] is not None:
                return memo[comp]
        return None


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
        for ci, comp in enumerate(connected_components(g, side_vertices)):
            @functools.cache
            def get_dec(comp=comp):
                gcomp, comp_map = induced_subgraph(g, comp)
                dec = decompose(gcomp)
                return TreeDecomposition(dec.parent, [[comp_map[v] for v in bag] for bag in dec.bags])

            out = _colour_checked(g, h, d, get_dec, cap, frozenset(comp))
            if isinstance(out, OddModelCertificate):
                return out
            for v, col in out.colour.items():
                raw[v] = offset + col
                scope[v] = f"{side}{ci}:{out.scope[v]}"
    return make_colouring(g, raw, scope)
