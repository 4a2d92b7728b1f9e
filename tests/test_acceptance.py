"""End-to-end acceptance suite.

Each test covers one headline guarantee of the library and prints a single
PASS line on success; any failure shows up as a normal pytest failure.
"""

import random
from itertools import combinations

from oddcluster import (
    Graph,
    clustering_budget,
    colour_bounded_tw,
    colour_budget,
    colour_pipeline,
    connected_components,
    connected_tree_depth,
    disjoint_or_hitting,
    exact_treewidth,
    find_odd_model,
    heuristic_decomposition,
    induced_subgraph,
    is_nontrivial,
    odd_minor_oracle,
    tree_depth,
    u_graph,
    verify_colouring,
    verify_model,
    verify_odd_witness,
)
from oddcluster.colouring import OddModelCertificate
from oddcluster.eposa import Target
from oddcluster.generators import (
    complete_graph,
    cycle_graph,
    random_partial_ktree,
)
from conftest import (
    brute_tree_depth,
    brute_treewidth,
    forest_height,
    is_bipartite,
    path_graph,
    random_small_graph,
    random_tree,
    triangles_of,
    trivial_decomposition,
)

K2 = Graph(2, [(0, 1)])
K3 = complete_graph(3)
P3 = path_graph(3)


def report(line):
    print(f"\n[ACCEPTANCE] {line}")


def decompose(g):
    if g.n <= 18:
        return exact_treewidth(g)[1]
    return heuristic_decomposition(g)


def check_certificate(g, cert, h, d):
    ok, why = verify_model(g, cert.model)
    assert ok, why
    ok, why = verify_odd_witness(g, cert.model, cert.witness)
    assert ok, why
    assert is_nontrivial(cert.model)
    assert cert.model.pattern == u_graph(h, d)


def test_criterion_1_odd_k3_is_nonbipartiteness():
    """Odd K_3 models exist exactly in the non-bipartite graphs (5-vertex sweep)."""
    edges5 = list(combinations(range(5), 2))
    checked = 0
    for bits in range(1 << len(edges5)):
        g = Graph(5, [e for i, e in enumerate(edges5) if bits >> i & 1])
        bipartite = is_bipartite(g)[0] is not None
        assert odd_minor_oracle(g, K3) == (not bipartite)
        assert (find_odd_model(g, K3) is not None) == (not bipartite)
        checked += 1
    assert checked == 1024
    report("criterion 1 PASS: odd-K3 <=> non-bipartite on all 1024 5-vertex graphs")


def test_criterion_2_packing_covering_dichotomy_bound():
    """Hitting sets stay within (ell-1)(tw+1) and really hit; disjoint arms are disjoint."""
    rng = random.Random(202)
    runs = 0
    for _ in range(200):
        n = rng.randint(3, 15)
        g = random_partial_ktree(n, 2, rng.randrange(10**6), edge_keep=rng.uniform(0.5, 1.0))
        width, dec = exact_treewidth(g)

        def oracle(region):
            tris = triangles_of(g, region)
            return Target(support=tris[0]) if tris else None

        for ell in (1, 2, 3):
            out = disjoint_or_hitting(g, dec, oracle, ell)
            if out.is_disjoint_arm:
                assert len(out.disjoint) == ell
                used = set()
                for t in out.disjoint:
                    assert tuple(sorted(t.support)) in triangles_of(g)
                    assert not used & set(t.support)
                    used |= set(t.support)
            else:
                assert len(out.hitting_set) <= (ell - 1) * (width + 1)
                assert not triangles_of(g, set(range(g.n)) - set(out.hitting_set))
            runs += 1
    report(f"criterion 2 PASS: dichotomy valid on {runs} runs (200 graphs x ell in 1..3)")


def test_criterion_3_colouring_budgets_on_partial_ktrees():
    """Every colouring arm meets both budgets; every certificate arm verifies."""
    rng = random.Random(303)
    colourings = certificates = 0
    for _ in range(100):
        n = rng.randint(2, 40)
        k = rng.randint(1, 3)
        g = random_partial_ktree(n, k, rng.randrange(10**6), edge_keep=rng.uniform(0.4, 1.0))
        dec = decompose(g)
        for h, d in ((1, 1), (2, 1), (2, 2), (3, 2)):
            out = colour_bounded_tw(g, h, d, dec, cap=40)
            if isinstance(out, OddModelCertificate):
                check_certificate(g, out, h, d)
                certificates += 1
            else:
                ok, why = verify_colouring(
                    g, out, colour_budget(h), clustering_budget(d, max(dec.width, 0))
                )
                assert ok, why
                colourings += 1
    report(
        "criterion 3 PASS: budgets hold on 100 partial k-trees x 4 settings "
        f"({colourings} colourings, {certificates} certificates)"
    )


def test_criterion_4_base_case():
    """Edgeless graphs use one colour with clustering 1; any edge at h=1 certifies."""
    for n in range(1, 51):
        g = Graph(n)
        out = colour_bounded_tw(g, 1, 1, trivial_decomposition(g))
        assert out.num_colours == 1 and out.max_cluster == 1
    for g in (path_graph(2), cycle_graph(4), complete_graph(3)):
        out = colour_bounded_tw(g, 1, 2, trivial_decomposition(g))
        assert isinstance(out, OddModelCertificate) and out.h == 1
        check_certificate(g, out, 1, out.d)
    report("criterion 4 PASS: base case exact on edgeless 1..50 and edge fixtures")


def test_criterion_5_ctd_of_u_family():
    """connected_tree_depth(u_graph(h, d)) == h for h, d in 1..3."""
    for h in (1, 2, 3):
        for d in (1, 2, 3):
            value, witness = connected_tree_depth(u_graph(h, d))
            assert value == h, (h, d, value)
            assert forest_height(witness) == h
    report("criterion 5 PASS: ctd(U_{h,d}) = h for all h,d in {1,2,3}")


def test_criterion_6_treedepth_against_brute_force():
    """td/ctd match a brute-force recursion and obey the two-component rule."""
    rng = random.Random(606)
    for _ in range(500):
        g = random_small_graph(rng, 6)
        adj = {v: set(g.adj[v]) for v in range(g.n)}
        td = tree_depth(g)[0]
        assert td == brute_tree_depth(adj, frozenset(range(g.n)))
        if g.n == 0:
            continue
        ctd = connected_tree_depth(g)[0]
        per_comp = []
        for comp in connected_components(g):
            sub, _ = induced_subgraph(g, comp)
            per_comp.append(tree_depth(sub)[0])
        if sum(1 for t in per_comp if t == td) >= 2:
            assert ctd == td + 1
        else:
            assert ctd == td
    report("criterion 6 PASS: td/ctd match brute force and footnote rule on 500 samples")


def test_criterion_7_pipeline_total_colour_bound():
    """Partition mode never exceeds 3*2^ctd(H) - 4 colours on bipartite fixtures."""
    grid = Graph(
        9,
        [(r * 3 + c, r * 3 + c + 1) for r in range(3) for c in range(2)]
        + [(r * 3 + c, (r + 1) * 3 + c) for r in range(2) for c in range(3)],
    )
    fixtures = [path_graph(10), random_tree(15, 4), cycle_graph(8), grid]
    for g in fixtures:
        assert is_bipartite(g)[0] is not None
        for pattern in (K2, P3, K3):
            ctd = connected_tree_depth(pattern)[0]
            out = colour_pipeline(g, pattern, partition=["r"] * g.n)
            assert not isinstance(out, OddModelCertificate)
            assert out.num_colours <= 3 * 2**ctd - 4
            h, d = ctd, pattern.n
            width = max(
                (decompose(induced_subgraph(g, c)[0]).width for c in connected_components(g)),
                default=0,
            )
            ok, why = verify_colouring(
                g, out, colour_budget(h), clustering_budget(d, max(width, 0))
            )
            assert ok, why
    report("criterion 7 PASS: pipeline within 3*2^ctd(H)-4 on 4 fixtures x 3 patterns")


def test_criterion_8_certificate_soundness_fuzz():
    """1000 random runs: no verifier rejection, no internal-consistency error."""
    rng = random.Random(808)
    certificates = 0
    for _ in range(1000):
        n = rng.randint(1, 12)
        k = rng.randint(1, 3)
        g = random_partial_ktree(n, min(k, n - 1) if n > 1 else 1, rng.randrange(10**6),
                                edge_keep=rng.uniform(0.3, 1.0))
        h = rng.randint(1, 3)
        d = rng.randint(1, 3)
        dec = decompose(g)
        out = colour_bounded_tw(g, h, d, dec)
        if isinstance(out, OddModelCertificate):
            check_certificate(g, out, h, d)
            certificates += 1
        else:
            ok, why = verify_colouring(
                g, out, colour_budget(h), clustering_budget(d, max(dec.width, 0))
            )
            assert ok, why
    report(f"criterion 8 PASS: 1000 fuzz runs clean ({certificates} certificates verified)")


def test_criterion_9_treewidth_ground_truth():
    """exact_treewidth matches elimination-order brute force; trees have width 1."""
    rng = random.Random(909)
    for _ in range(500):
        g = random_small_graph(rng, 6)
        assert exact_treewidth(g)[0] == brute_treewidth(g)
    for seed in range(50):
        g = random_tree(rng.randint(2, 14), seed)
        assert exact_treewidth(g)[0] == 1
    report("criterion 9 PASS: treewidth matches brute force (500 graphs) and 50 trees")
