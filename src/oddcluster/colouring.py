"""Recursive clustered colouring with odd-model certificates.

``colour_bounded_tw`` colours a graph of bounded treewidth with at most
3*2^(h-1) - 2 colours and clustering at most d*w + d - w, or returns a
verified non-trivial odd U_{h,d}-model certificate.  The recursion works
layer by layer: each BFS layer either yields d disjoint non-trivial odd
U_{h-1,d}-models (assembled with a layered spanning tree into a U_{h,d}
certificate) or a small hitting set, after which the layer minus the
hitting set is coloured recursively at h-1.

Palette discipline: the palette of size f(h) = 2*(f(h-1)+1) splits into an
even-layer and an odd-layer subpalette of size f(h-1)+1 each; within a
subpalette the last index is the hitting-set colour and the first f(h-1)
feed the recursion.  Layers two apart are non-adjacent, so reusing a
subpalette across same-parity layers cannot merge monochromatic components;
this is asserted, not assumed.
"""

from dataclasses import dataclass, field

from .errors import InternalConsistencyError
from .decomposition import restrict_decomposition
from .eposa import Target, disjoint_or_hitting
from .graph import bfs_layers, connected_components, induced_subgraph, layered_spanning_tree
from .oddmodel import (
    FIND_MODEL_CAP,
    Model,
    Witness,
    find_odd_model,
    is_nontrivial,
    verify_model,
    verify_odd_witness,
)
from .treedepth import u_child_embedding, u_graph


def colour_budget(h):
    """3*2^(h-1) - 2, the colour bound at pattern height h."""
    if h < 1:
        raise ValueError("h must be >= 1")
    if h > 60:
        raise OverflowError("colour budget out of sane range")
    return 3 * 2 ** (h - 1) - 2


def clustering_budget(d, w):
    """d*w + d - w, the cluster-size bound for d branches at width w."""
    if d < 1 or w < 0:
        raise ValueError("need d >= 1 and w >= 0")
    if d > 2**30 or w > 2**30:
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
    witness: Witness


def make_colouring(g, raw_colour, scope=None):
    """Compact raw colour ids to dense 0..k-1 and recompute the cluster size."""
    used = sorted(set(raw_colour.values()))
    dense = {c: i for i, c in enumerate(used)}
    colour = {v: dense[c] for v, c in raw_colour.items()}
    return Colouring(
        colour=colour,
        num_colours=len(used),
        max_cluster=max_monochromatic_component(g, colour),
        scope=dict(scope or {}),
    )


def max_monochromatic_component(g, colour):
    if not colour:
        return 0
    return max(len(c) for c in monochromatic_components(g, colour))


def monochromatic_components(g, colour):
    """Connected components of each colour class."""
    seen = set()
    comps = []
    for s in range(g.n):
        if s in seen or s not in colour:
            continue
        comp = [s]
        seen.add(s)
        stack = [s]
        while stack:
            v = stack.pop()
            for u in g.adj[v]:
                if u not in seen and colour.get(u) == colour[s]:
                    seen.add(u)
                    comp.append(u)
                    stack.append(u)
        comps.append(tuple(sorted(comp)))
    return comps


def _k1_certificate(g, d, scope_note=""):
    """Non-trivial odd U_{1,d} = K_1 certificate: any edge, coloured red/blue."""
    a, b = min(g.edges)
    model = Model(
        pattern=u_graph(1, d),
        branch_sets={0: (a, b)},
        branch_trees={0: ((a, b),)},
    )
    witness = Witness(colour={a: 0, b: 1})
    return model, witness


def assemble_certificate(g, layering, i, u_i, tree, submodels, h, d):
    """Glue d disjoint non-trivial odd U_{h-1,d}-models below a layered spanning tree.

    ``tree`` spans layers 0..i-1 plus u_i and becomes the branch set of the
    dominant root of U_{h,d}; it is coloured by layer parity with layer i-1
    red.  Every branch set in layer i contains a red vertex (non-trivial
    branch trees carry both colours) with a neighbour in the all-red layer
    i-1, which realizes the root edges monochromatically.
    """
    if len(submodels) != d:
        raise ValueError(f"need exactly {d} submodels, got {len(submodels)}")
    layer_i = set(layering.layers[i])
    used = set()
    for model, witness in submodels:
        if not is_nontrivial(model):
            raise ValueError("submodel is not non-trivial")
        ok, why = verify_model(g, model)
        if not ok:
            raise ValueError(f"invalid submodel: {why}")
        ok, why = verify_odd_witness(g, model, witness)
        if not ok:
            raise ValueError(f"submodel witness invalid: {why}")
        sup = set(model.covered_vertices())
        if not sup <= layer_i - {u_i}:
            raise ValueError("submodel leaves layer i minus u_i")
        if sup & used:
            raise ValueError("submodels are not disjoint")
        used |= sup

    tree_verts = tuple(sorted(tree.vertices()))
    layer_of = layering.layer_of()
    branch_sets = {0: tree_verts}
    branch_trees = {0: tuple(sorted(tuple(sorted(e)) for e in tree.edges()))}
    colour = {v: (i - 1 - layer_of[v]) % 2 for v in tree_verts}
    for j, (model, witness) in enumerate(submodels):
        emb = u_child_embedding(h, d, j)
        for x, bs in model.branch_sets.items():
            branch_sets[emb[x]] = bs
            branch_trees[emb[x]] = model.branch_trees[x]
        colour.update(witness.colour)

    cert_model = Model(pattern=u_graph(h, d), branch_sets=branch_sets, branch_trees=branch_trees)
    cert_witness = Witness(colour=colour)
    ok, why = verify_model(g, cert_model)
    if not ok:
        raise InternalConsistencyError(f"assembled certificate invalid: {why}")
    ok, why = verify_odd_witness(g, cert_model, cert_witness)
    if not ok:
        raise InternalConsistencyError(f"assembled witness invalid: {why}")
    if not is_nontrivial(cert_model):
        raise InternalConsistencyError("assembled certificate is trivial")
    return OddModelCertificate(h=h, d=d, model=cert_model, witness=cert_witness)


def _relabel_pair(model, witness, new_of_old):
    return model.relabel(new_of_old), witness.relabel(new_of_old)


def colour_bounded_tw(g, h, d, dec, cap=FIND_MODEL_CAP):
    """Colour within the h/d budgets or emit a non-trivial odd U_{h,d}-certificate."""
    if h < 1 or d < 1:
        raise ValueError("need h >= 1 and d >= 1")
    out = _colour_rec(g, h, d, dec, cap, "")
    if isinstance(out, OddModelCertificate):
        return out
    raw, scope = out
    _assert_scope_locality(g, raw, scope)
    return make_colouring(g, raw, scope)


def _assert_scope_locality(g, raw, scope):
    # every monochromatic component must sit inside a single layer of a
    # single recursion scope; same-parity palette reuse relies on this
    for comp in monochromatic_components(g, raw):
        scopes = {scope[v] for v in comp}
        if len(scopes) != 1:
            raise InternalConsistencyError(
                f"monochromatic component {comp} spans scopes {sorted(scopes)}"
            )


def _colour_rec(g, h, d, dec, cap, prefix):
    """Either (raw colour map, scope map) in palette 0..f(h)-1, or a certificate."""
    if h == 1:
        if g.edges:
            model, witness = _k1_certificate(g, d)
            return OddModelCertificate(h=1, d=d, model=model, witness=witness)
        tag = f"{prefix}/base" if prefix else "base"
        return {v: 0 for v in range(g.n)}, {v: tag for v in range(g.n)}

    raw = {}
    scope = {}
    for ci, comp in enumerate(connected_components(g)):
        gc, comp_map = induced_subgraph(g, comp)
        local_to_global = comp_map
        global_to_local = {v: i for i, v in enumerate(comp_map)}
        dec_c = restrict_decomposition(dec, global_to_local)
        out = _colour_component(gc, h, d, dec_c, cap, f"{prefix}/c{ci}")
        if isinstance(out, OddModelCertificate):
            model, witness = _relabel_pair(out.model, out.witness, local_to_global)
            return OddModelCertificate(h=h, d=d, model=model, witness=witness)
        raw_c, scope_c = out
        for v_local, col in raw_c.items():
            raw[local_to_global[v_local]] = col
        for v_local, s in scope_c.items():
            scope[local_to_global[v_local]] = s
    return raw, scope


def _colour_component(g, h, d, dec, cap, prefix):
    layering = bfs_layers(g, 0)
    sub_size = colour_budget(h - 1)
    raw = {0: 0}
    scope = {0: f"{prefix}/L0"}
    pattern = None  # U_{h-1,d}, built when a layer first needs it
    for i in range(1, len(layering.layers)):
        layer = layering.layers[i]
        u_i = layer[0]
        offset = 0 if i % 2 == 0 else sub_size + 1
        hit_colour = offset + sub_size
        region = [v for v in layer if v != u_i]
        hit_scope = f"{prefix}/L{i}/hit"
        if not region:
            raw[u_i] = hit_colour
            scope[u_i] = hit_scope
            continue
        gi, region_map = induced_subgraph(g, region)
        region_to_local = {v: k for k, v in enumerate(region_map)}
        dec_i = restrict_decomposition(dec, region_to_local)
        if pattern is None:
            pattern = u_graph(h - 1, d)
        memo = {}

        def oracle(reg, _gi=gi, _pattern=pattern, _memo=memo):
            key = frozenset(reg)
            if key in _memo:
                return _memo[key]
            found = find_odd_model(
                _gi, _pattern, sorted(key), require_nontrivial=True, cap=cap
            )
            if found is None:
                _memo[key] = None
            else:
                model, witness = found
                _memo[key] = Target(support=model.support(), payload=(model, witness))
            return _memo[key]

        dich = disjoint_or_hitting(gi, dec_i, oracle, d)
        if dich.is_disjoint_arm:
            submodels = [
                _relabel_pair(t.payload[0], t.payload[1], region_map)
                for t in dich.disjoint
            ]
            tree = layered_spanning_tree(g, layering, i, u_i)
            return assemble_certificate(g, layering, i, u_i, tree, submodels, h, d)

        hit = sorted(region_map[v] for v in dich.hitting_set) + [u_i]
        for v in hit:
            raw[v] = hit_colour
            scope[v] = hit_scope
        rest = sorted(set(region) - set(hit))
        if not rest:
            continue
        gr, rest_map = induced_subgraph(g, rest)
        rest_to_local = {v: k for k, v in enumerate(rest_map)}
        dec_r = restrict_decomposition(dec, rest_to_local)
        sub = _colour_rec(gr, h - 1, d, dec_r, cap, f"{prefix}/L{i}")
        if isinstance(sub, OddModelCertificate):
            raise InternalConsistencyError(
                f"odd U_{{{h-1},{d}}}-model found in a region the hitting set certified clean"
            )
        raw_r, scope_r = sub
        for v_local, col in raw_r.items():
            raw[rest_map[v_local]] = offset + col
        for v_local, s in scope_r.items():
            scope[rest_map[v_local]] = s
    return raw, scope


def colour_pipeline(
    g,
    pattern_graph,
    partition=None,
    *,
    cap=FIND_MODEL_CAP,
    exact_tw_cap=None,
    td_cap=None,
):
    """Colour g against the excluded pattern H: h = ctd(H), d = |V(H)|.

    Without a partition the graph is decomposed directly (exact when small
    enough, min-fill otherwise) and coloured with at most f(h) colours.
    With a red/blue partition covering V(G), each monochromatic component
    is coloured separately, red components on palette [0, f(h)) and blue
    components on [f(h), 2*f(h)), for at most 3*2^h - 4 colours total.
    A certificate from any component is reported at the U_{h,d} level.
    """
    from .decomposition import EXACT_TREEWIDTH_CAP, exact_treewidth, heuristic_decomposition
    from .treedepth import TREE_DEPTH_CAP, connected_tree_depth

    exact_tw_cap = EXACT_TREEWIDTH_CAP if exact_tw_cap is None else exact_tw_cap
    td_cap = TREE_DEPTH_CAP if td_cap is None else td_cap
    h, _ = connected_tree_depth(pattern_graph, cap=td_cap)
    d = pattern_graph.n

    def decompose(graph):
        if graph.n <= exact_tw_cap:
            return exact_treewidth(graph, cap=exact_tw_cap)[1]
        return heuristic_decomposition(graph)

    if partition is None:
        dec = decompose(g)
        return colour_bounded_tw(g, h, d, dec, cap=cap)

    partition = list(partition)
    if len(partition) != g.n or set(partition) - {"r", "b"}:
        raise ValueError("partition must assign 'r' or 'b' to every vertex")
    f_h = colour_budget(h)
    raw = {}
    scope = {}
    for side, offset in (("r", 0), ("b", f_h)):
        side_vertices = [v for v in range(g.n) if partition[v] == side]
        gs, side_map = induced_subgraph(g, side_vertices)
        for comp in connected_components(gs):
            comp_global = [side_map[v] for v in comp]
            gcomp, comp_map = induced_subgraph(g, comp_global)
            dec = decompose(gcomp)
            out = colour_bounded_tw(gcomp, h, d, dec, cap=cap)
            if isinstance(out, OddModelCertificate):
                model, witness = _relabel_pair(out.model, out.witness, comp_map)
                return OddModelCertificate(h=h, d=d, model=model, witness=witness)
            for v_local, col in out.colour.items():
                raw[comp_map[v_local]] = offset + col
            for v_local, s in out.scope.items():
                scope[comp_map[v_local]] = f"{side}:{s}"
    return make_colouring(g, raw, scope)
