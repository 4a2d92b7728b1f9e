"""Seeded instance pools for the verdict benchmark.

Every pool is a list of ``Instance`` records holding only text: the edge
list (and, for the pipeline, the partition and the excluded pattern).  The
package sees nothing but that text, exactly as the ``oddcluster`` CLI would.
Why each workload exists, and what it should and should not move, is
written up in ``README.md`` next to this file.
"""

import random
from dataclasses import dataclass
from itertools import combinations

# Pattern graphs of the `partitioned` workload with their connected
# tree-depth, known from the definitions (ctd(K_n) = n, ctd(P4) = ctd(C4) = 3)
# so the verdict check does not rely on the code it is checking.
PATTERNS = {
    "K3": (3, [(0, 1), (0, 2), (1, 2)], 3),
    "P4": (4, [(0, 1), (1, 2), (2, 3)], 3),
    "C4": (4, [(0, 1), (1, 2), (2, 3), (0, 3)], 3),
    "K4": (4, list(combinations(range(4), 2)), 4),
}


@dataclass(frozen=True)
class Instance:
    """One graph to turn into a verified verdict.

    ``mode`` is ``"colour"`` (the ``oddcluster colour`` path) or
    ``"pipeline"`` (``oddcluster pipeline`` with a partition).  For the
    pipeline, ``h`` and ``d`` are ctd(H) and |V(H)| and ``width`` bounds the
    treewidth of every monochromatic component of the partition.
    """

    name: str
    mode: str
    graph_text: str
    h: int
    d: int
    partition_text: str = None
    pattern_text: str = None
    width: int = None


def edge_list_text(lib, n, edges):
    return lib.io.serialize_graph(lib.graph.Graph(n, edges))


def _permuted(rng, n, edges):
    perm = list(range(n))
    rng.shuffle(perm)
    return perm, [(perm[a], perm[b]) for a, b in edges]


def cycle_edges(n):
    return n, [(i, (i + 1) % n) for i in range(n)]


def strip_edges(length, width):
    """Triangulated ``length`` x ``width`` grid: treewidth ``width``."""
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
    return length * width, edges


# thin-long: instance i of the ladder takes shape/(h, d) combination i % 12,
# so every seed gets the same mix and sizes only jitter inside their stratum.
THIN_SHAPES = ("cycle", "strip2", "strip3")
THIN_HD = ((2, 2), (2, 3), (3, 2), (3, 3))
THIN_COMBOS = [(s, h, d) for s in THIN_SHAPES for h, d in THIN_HD]
THIN_LADDER = 38
THIN_MIN_N, THIN_MAX_N = 200, 300
# Two instances per pool are listed in path order, so min-fill builds a
# path-shaped decomposition of depth n - 1 and the recursive tree walk ends in
# RecursionError at the default recursion limit.  Their sizes sit well above
# the ~995-node boundary so the harness's own stack depth cannot decide an
# outcome (README.md, "recursion-limit exclusion zone").  A random relabelling
# would make the decomposition shallow and hide the defect.
THIN_DEEP_N = (1100, 1200)


def _thin_graph(shape, n):
    if shape == "cycle":
        return cycle_edges(n)
    width = 2 if shape == "strip2" else 3
    return strip_edges(max(3, round(n / width)), width)


def thin_long(lib, seed):
    rng = random.Random(seed)
    specs = []
    ratio = THIN_MAX_N / THIN_MIN_N
    for i in range(THIN_LADDER):
        shape, h, d = THIN_COMBOS[i % len(THIN_COMBOS)]
        n = round(THIN_MIN_N * ratio ** ((i + rng.random()) / THIN_LADDER))
        specs.append((shape, n, h, d, True))
    for shape in ("cycle", "strip2"):
        h, d = rng.choice(THIN_HD)
        specs.append((shape, rng.randint(*THIN_DEEP_N), h, d, False))
    rng.shuffle(specs)
    pool = []
    for k, (shape, n, h, d, relabel) in enumerate(specs):
        n_real, edges = _thin_graph(shape, n)
        if relabel:
            _, edges = _permuted(rng, n_real, edges)
        text = edge_list_text(lib, n_real, edges)
        order = "" if relabel else "-ordered"
        pool.append(Instance(f"{k}:{shape}{order}-{n_real}-h{h}d{d}", "colour", text, h, d))
    return pool


SMALL_POOL = 120


def small_search(lib, seed):
    rng = random.Random(seed)
    pool = []
    for k in range(SMALL_POOL):
        n = rng.randint(16, 44)
        tw = rng.choice((3, 4))
        keep = rng.uniform(0.8, 0.9)
        d = rng.choice((2, 3))
        g = lib.generators.random_partial_ktree(n, tw, rng.randrange(2**31), edge_keep=keep)
        text = lib.io.serialize_graph(g)
        pool.append(Instance(f"{k}:pkt{tw}-{n}-h3d{d}", "colour", text, 3, d))
    return pool


def ktree_blob(rng, size, k, keep):
    """Partial k-tree whose first (k+1)-clique is always kept: treewidth exactly k."""
    edges = list(combinations(range(k + 1), 2))
    cliques = [tuple(range(k + 1))]
    for v in range(k + 1, size):
        host = rng.sample(rng.choice(cliques), k)
        edges.extend((u, v) for u in host if rng.random() < keep)
        cliques.append(tuple(sorted(host)) + (v,))
    return edges


PART_POOL = 80
PART_BLOBS = (20, 40)
# Blobs are 3-trees of at most 15 vertices: on 4-trees and larger blobs the
# odd-model search has a tail of seconds per blob that no run length averages
# out (README.md, `partitioned`).
PART_BLOB_SIZE = (12, 15)
PART_BLOB_WIDTH = 3


def blob_chain(rng, blobs):
    """Red partial 3-trees joined in a chain by single blue connector vertices."""
    edges, colour = [], []
    prev = None
    for _ in range(blobs):
        size = rng.randint(*PART_BLOB_SIZE)
        base = len(colour)
        blob = ktree_blob(rng, size, PART_BLOB_WIDTH, rng.uniform(0.8, 0.9))
        edges.extend((base + a, base + b) for a, b in blob)
        colour.extend("r" * size)
        if prev is not None:
            connector = len(colour)
            colour.append("b")
            edges.append((prev, connector))
            edges.append((connector, base + rng.randrange(size)))
        prev = base + rng.randrange(size)
    return len(colour), edges, colour


def partitioned(lib, seed):
    rng = random.Random(seed)
    names = list(PATTERNS)
    lo, hi = PART_BLOBS
    pool = []
    for k in range(PART_POOL):
        blobs = lo + int((hi - lo + 1) * (k + rng.random()) / PART_POOL)
        n, edges, colour = blob_chain(rng, blobs)
        perm, edges = _permuted(rng, n, edges)
        labels = [None] * n
        for v, c in enumerate(colour):
            labels[perm[v]] = c
        pname = names[k % len(names)]
        pn, pedges, ctd = PATTERNS[pname]
        pool.append(
            Instance(
                f"{k}:chain{blobs}-{n}-{pname}",
                "pipeline",
                edge_list_text(lib, n, edges),
                ctd,
                pn,
                partition_text="".join(labels) + "\n",
                pattern_text=edge_list_text(lib, pn, pedges),
                width=PART_BLOB_WIDTH,
            )
        )
    rng.shuffle(pool)
    return pool


WORKLOADS = {
    "thin-long": thin_long,
    "small-search": small_search,
    "partitioned": partitioned,
}
