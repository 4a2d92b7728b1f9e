"""File formats: edge-list graphs, partitions, and JSON result schemas.

Graph files: first significant line ``p <n> <m>``, then m lines ``<u> <v>``
with 0-based indices; ``#`` starts a comment.  Partition files: one line of
``r``/``b`` characters, index-aligned with the vertices.  JSON artifacts are
checked against their schema as they are read: malformed ones raise
ParseError, so the verifiers only ever see well-typed values.
"""

import json

from .errors import ParseError
from .graph import MAX_VERTICES, Graph, bfs_tree, check_graph_size
from .decomposition import preorder_decomposition
from .oddmodel import Model
from .colouring import OddModelCertificate
from .treedepth import u_graph


def parse_graph(text):
    n = m = None
    edges = []
    expected = 0
    for lineno, rawline in enumerate(text.splitlines(), start=1):
        line = rawline.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if n is None:
            if parts[0] != "p" or len(parts) != 3:
                raise ParseError(lineno, f"expected header 'p <n> <m>', got {line!r}")
            try:
                n, expected = int(parts[1]), int(parts[2])
            except ValueError:
                raise ParseError(lineno, "header counts must be integers") from None
            if n < 0 or expected < 0:
                raise ParseError(lineno, "header counts must be non-negative")
            check_graph_size(n, expected)
            continue
        if len(parts) != 2:
            raise ParseError(lineno, f"expected edge '<u> <v>', got {line!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise ParseError(lineno, "edge endpoints must be integers") from None
        if not (0 <= u < n and 0 <= v < n) or u == v:
            raise ParseError(lineno, f"invalid edge ({u},{v}) for n={n}")
        edges.append((u, v))
    if n is None:
        raise ParseError(1, "missing 'p <n> <m>' header")
    if len(edges) != expected:
        raise ParseError(1, f"header promises {expected} edges, file has {len(edges)}")
    return Graph(n, edges)


def serialize_graph(g):
    edges = [f"{a} {b}" for a, nbrs in enumerate(g.adj) for b in sorted(nbrs) if b > a]
    return "\n".join([f"p {g.n} {len(edges)}", *edges]) + "\n"


def parse_partition(text, n):
    for lineno, rawline in enumerate(text.splitlines(), start=1):
        line = rawline.split("#", 1)[0].strip()
        if not line:
            continue
        if len(line) != n:
            raise ParseError(lineno, f"partition has {len(line)} entries, graph has {n}")
        if set(line) - {"r", "b"}:
            raise ParseError(lineno, "partition may only contain 'r' and 'b'")
        return list(line)
    if n == 0:
        return []  # the partition of no vertices is an empty line, which reads as blank
    raise ParseError(1, "empty partition file")


def forest_to_json(parent):
    """A rooted forest on 0..n-1, given by its parent array (-1 at a root)."""

    def height(v):  # the vertices from v up to its root
        return 0 if v < 0 else 1 + height(parent[v])

    return {
        "parent": list(parent),
        "roots": [v for v, p in enumerate(parent) if p == -1],
        "vertex_height": max(map(height, range(len(parent))), default=0),
    }


def colouring_to_json(g, colouring, budgets=None):
    out = {
        "colours": [colouring.colour[v] for v in range(g.n)],
        "num_colours": colouring.num_colours,
        "max_cluster": colouring.max_cluster,
    }
    if budgets is not None:
        out["budgets"] = {"colours": budgets.colours, "clustering": budgets.clustering}
    return out


def model_to_json(model, witness):
    pattern_n = model.pattern.n
    return {
        "branch_sets": [list(model.branch_sets[x]) for x in range(pattern_n)],
        "tree_edges": [[list(e) for e in model.branch_trees[x]] for x in range(pattern_n)],
        "witness": {str(v): c for v, c in sorted(witness.items())},
    }


def certificate_to_json(cert):
    return {"h": cert.h, "d": cert.d, **model_to_json(cert.model, cert.witness)}


def parse_json(text):
    """The top-level object of a JSON artifact."""
    try:
        data = json.loads(text)
    except (ValueError, RecursionError) as exc:  # bad syntax, an overlong integer, deep nesting
        raise ParseError(None, str(exc)) from None
    _require(isinstance(data, dict), "a JSON artifact must be an object")
    return data


def _require(ok, message):
    if not ok:
        raise ParseError(None, message)


def _int_lists(x, size):
    """True iff x is a list of integer lists, each of length ``size`` (any, if None)."""
    return isinstance(x, list) and all(
        isinstance(v, list) and size in (None, len(v)) and all(type(i) is int for i in v)
        for v in x
    )


def _is_vertex_key(key):
    """True iff ``key`` is ``str(v)`` for an index v with no more digits than a vertex can have.

    The digits are checked before ``int`` reads them, so an overlong key never reaches it.
    """
    return key.isascii() and key.isdigit() and len(key) <= len(str(MAX_VERTICES)) and key == str(int(key))


def certificate_from_json(data):
    h, d, sets, trees, witness = map(data.get, ("h", "d", "branch_sets", "tree_edges", "witness"))
    _require(type(h) is type(d) is int and min(h, d) >= 1, "'h' and 'd' must be positive integers")
    _require(_int_lists(sets, None), "'branch_sets' must be a list of vertex lists")
    _require(
        isinstance(trees, list)
        and len(trees) == len(sets)
        and all(_int_lists(t, 2) for t in trees),
        "'tree_edges' must hold one list of vertex pairs per branch set",
    )
    _require(
        isinstance(witness, dict)
        and all(_is_vertex_key(v) and type(c) is int and c in (0, 1) for v, c in witness.items()),
        "'witness' must map vertices, each written as str(v), to 0 or 1",
    )
    colour = {int(v): c for v, c in witness.items()}
    model = Model(
        pattern=u_graph(h, d),
        branch_sets={x: tuple(bs) for x, bs in enumerate(sets)},
        branch_trees={x: tuple(tuple(e) for e in te) for x, te in enumerate(trees)},
    )
    return OddModelCertificate(h=h, d=d, model=model, witness=colour)


def colouring_from_json(data, n):
    """The colours of a colouring on n vertices, and its declared budgets ({} if none)."""
    colours, budgets = data.get("colours"), data.get("budgets", {})
    _require(_int_lists([colours], n), f"'colours' must list {n} integer colours")
    _require(
        isinstance(budgets, dict)
        and all(type(budgets.get(k, 0)) is int for k in ("colours", "clustering")),
        "'budgets' must map 'colours' and 'clustering' to integers",
    )
    return colours, budgets


def decomposition_to_json(dec):
    return {
        "nodes": dec.num_nodes,
        "edges": sorted([p, x] for x, p in enumerate(dec.parent) if p >= 0),
        "bags": [list(b) for b in dec.bags],
        "width": dec.width,
    }


def decomposition_from_json(data):
    """The decomposition rooted at node 0, renumbered in pre-order with children by node id.

    Its edges must form a tree on its nodes, and it must hold one bag per node.
    A declared ``width`` becomes its stored width, for ``validate_decomposition`` to check.
    """
    nodes, edges, bags = data.get("nodes"), data.get("edges"), data.get("bags")
    _require(type(nodes) is int and nodes >= 1, "'nodes' must be a positive integer")
    _require(type(data.get("width", 0)) is int, "'width' must be an integer")
    _require(
        _int_lists(bags, None) and len(bags) == nodes, f"'bags' must hold {nodes} vertex lists"
    )
    _require(
        _int_lists(edges, 2)
        and len(edges) == nodes - 1
        and all(0 <= x < nodes for e in edges for x in e),
        f"'edges' must hold exactly nodes - 1 = {nodes - 1} pairs of nodes in 0..{nodes - 1}",
    )
    adj = [set() for _ in range(nodes)]
    for a, b in edges:
        adj[a].add(b)
        adj[b].add(a)
    parent = bfs_tree(adj, 0)  # n - 1 edges that reach all n nodes form a tree
    _require(len(parent) == nodes - 1, "'edges' do not form a tree")
    children = [sorted(adj[x] - {parent.get(x)}) for x in range(nodes)]
    dec = preorder_decomposition(children, [0], bags)
    dec.width = data.get("width", dec.width)
    return dec
