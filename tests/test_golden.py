"""Golden outputs: the sha256 of the JSON the CLI would emit for seeded instances.

The digests were recorded before the colour recursion stopped copying
sub-problems into relabelled graphs.  Every relabelling that copying did was
monotone, so no sorted order and no output may change; a refactor of the
recursion that moves one of these digests has changed behaviour.

The ``metric td`` / ``metric ctd`` digests were recorded while the tree-depth
witness was still a ``RootedTree`` object; they pin the parent arrays, the
roots and the vertex-height that the JSON prints.
"""

import hashlib
import json
import random

import pytest

from oddcluster import (
    Budgets,
    Graph,
    OddModelCertificate,
    colour_bounded_tw,
    colour_pipeline,
    u_graph,
)
from oddcluster.cli import main
from oddcluster.decomposition import decompose
from oddcluster.generators import complete_graph, cycle_graph, random_partial_ktree, star_graph
from oddcluster.io import certificate_to_json, colouring_to_json, serialize_graph
from conftest import permuted, strip


def disjoint_union(*graphs):
    edges, base = [], 0
    for g in graphs:
        edges += [(a + base, b + base) for a, b in g.edges]
        base += g.n
    return Graph(base, edges)


def emitted(g, out, budgets=None):
    """The text ``oddcluster colour`` / ``pipeline`` prints for ``out``."""
    if isinstance(out, OddModelCertificate):
        obj = certificate_to_json(out)
    else:
        obj = colouring_to_json(g, out, budgets)
    return json.dumps(obj, indent=2) + "\n"


def colour(g, h, d):
    dec = decompose(g)
    out = colour_bounded_tw(g, h, d, dec)
    return g, out, Budgets(h=h, d=d, w=max(dec.width, 0))


def pipeline(g, pattern, seed):
    rng = random.Random(seed)
    partition = [rng.choice("rb") for _ in range(g.n)]
    return g, colour_pipeline(g, pattern, partition), None


CASES = {
    "cycle-9-h2d2": lambda: colour(cycle_graph(9), 2, 2),
    "cycle-60-permuted-h3d2": lambda: colour(permuted(cycle_graph(60), 1), 3, 2),
    "strip-20x3-h2d2-certificate": lambda: colour(strip(20, 3), 2, 2),
    "strip-30x2-permuted-h3d3": lambda: colour(permuted(strip(30, 2), 2), 3, 3),
    "strip-12x3-h3d2": lambda: colour(strip(12, 3), 3, 2),
    "partial-2-tree-30-h2d2": lambda: colour(random_partial_ktree(30, 2, 3), 2, 2),
    "partial-2-tree-40-h3d2": lambda: colour(random_partial_ktree(40, 2, 5), 3, 2),
    "partial-2-tree-16-h3d3-exact": lambda: colour(random_partial_ktree(16, 2, 7), 3, 3),
    "partial-3-tree-30-h3d2": lambda: colour(random_partial_ktree(30, 3, 6), 3, 2),
    "partial-3-tree-35-h3d2": lambda: colour(random_partial_ktree(35, 3, 7), 3, 2),
    "union-cycles-star-h2d3": lambda: colour(
        disjoint_union(cycle_graph(7), star_graph(6), cycle_graph(10)), 2, 3
    ),
    "pipeline-partial-2-tree-50-k3": lambda: pipeline(
        random_partial_ktree(50, 2, 11), complete_graph(3), 4
    ),
    "pipeline-partial-2-tree-50-p3-certificate": lambda: pipeline(
        random_partial_ktree(50, 2, 11), Graph(3, [(0, 1), (1, 2)]), 4
    ),
    "pipeline-partial-3-tree-40-p3": lambda: pipeline(
        random_partial_ktree(40, 3, 2), Graph(3, [(0, 1), (1, 2)]), 5
    ),
}

GOLDEN = {
    "cycle-60-permuted-h3d2": "9d84c3ebe3c0734e78e004306ac0be3fc91f506f1c2ef3ecce294e19eb7714d0",
    "cycle-9-h2d2": "99a1cecd95149347791cded7c5aac173f925a3dff020b7e2c2823421f9a6fd4f",
    "partial-2-tree-16-h3d3-exact": "09362e4951366c4dc44b5909f3b0934fa76e69736878fc84a2789cc27ef66810",
    "partial-2-tree-30-h2d2": "eb5bd1c9c09d009ddbd58b960b04155ebf42a7c8dcc8ef2dbd219d0ab787d642",
    "partial-2-tree-40-h3d2": "e3ba50efa2a2d0deca671a17c9008ae990f0ac4f9f9f5ffc6efec8865ef465d7",
    "partial-3-tree-30-h3d2": "39d85419681b12b8f3b458c724b6ab58e29193c25a65347f8fb11e671897f592",
    "partial-3-tree-35-h3d2": "3eb5845b7906f178ef6d08e45bf3d458163fe96ff40d146d855f7b71399e4e04",
    "pipeline-partial-2-tree-50-k3": "abe3afa4f1e1e138d547648283682eeb7ecc1238df90bb60903bb2e6016e4934",
    "pipeline-partial-2-tree-50-p3-certificate": "31e2a502c434ef4c557a6b5fd49f25b884ca78fd056ff0cf87b602628f3ad8a6",
    "pipeline-partial-3-tree-40-p3": "0120a01ffa64a18f0f331bea23afa232f97c07b78921b9f00bf9ad838e11991b",
    "strip-12x3-h3d2": "460ff1fe26be0ead689c329e94627790597642cefea1628243f4644a90fc646e",
    "strip-20x3-h2d2-certificate": "15dbf3b4d3b0a128415a9f9ba34270edf7187411cc4701a908751781be0d1843",
    "strip-30x2-permuted-h3d3": "1266828267f522c9e5db59a3ff2668ac187280b7503abd8caa000173a13f2c32",
    "union-cycles-star-h2d3": "042be0e4e50ce4af43adc20406ef488c88e275d5b787730e4073d622fa0bbb08",
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_emitted_json_is_unchanged(name):
    text = emitted(*CASES[name]())
    assert hashlib.sha256(text.encode()).hexdigest() == GOLDEN[name]


def test_cases_cover_both_verdicts():
    kinds = {name: isinstance(CASES[name]()[1], OddModelCertificate) for name in CASES}
    assert kinds["strip-20x3-h2d2-certificate"]
    assert kinds["pipeline-partial-2-tree-50-p3-certificate"]
    assert not all(kinds.values())


METRIC_GRAPHS = {
    "empty": lambda: Graph(0),
    "cycle-7": lambda: cycle_graph(7),
    "u-3-2": lambda: u_graph(3, 2),
    "union-cycle-5-star-4": lambda: disjoint_union(cycle_graph(5), star_graph(4)),
    "complete-5": lambda: complete_graph(5),
    "partial-2-tree-16-seed-7": lambda: random_partial_ktree(16, 2, 7),
}

METRIC_GOLDEN = {
    "td-empty": "58ad1885621965801710d68362289b8f2993e4a6abb73483e7bdee7c41b697f7",
    "td-cycle-7": "e70b8441dadfb868dc4b75bdc7f09e659bace42ddd52c4816430b6fee77d0c9d",
    "ctd-cycle-7": "fce806f3c9608accbf12d70de481dbf39b4ba40372fb875151630fb0b9aed104",
    "td-u-3-2": "6d8ee41df3fd7fe845b7b75c5438d0f92448d2f33e39d533ae9a2ae13ed774e9",
    "ctd-u-3-2": "9d25a372581894046dfb2a8337c26ac80e0532bacecbdeaa7cba9e1e867f938d",
    "td-union-cycle-5-star-4": "16cccd20551323373a70e35126a521c557c72f89c22a12bedd3cf53e76845a64",
    "ctd-union-cycle-5-star-4": "0555c47ccc5e67f8f7e55432933af6cf53a902d666c951a6d954df2b9758d0e0",
    "td-complete-5": "3b2e82315f88df48420cf03cbfcd4346df94702c79a05b79afc485f54be70292",
    "ctd-complete-5": "6af01dc206e629a515fd6def18e6b5065b747e1414fa1a13d76086439c59d56b",
    "td-partial-2-tree-16-seed-7": "7d49db1431dea7a749256832867f3cc6b7417054f747faf7633b0743b4941a7b",
    "ctd-partial-2-tree-16-seed-7": "9d4f0d0027a83e6da054643534c1edc3aa077198071ee10d14e7f9d2584cbd7c",
}


@pytest.mark.parametrize("name", sorted(METRIC_GOLDEN))
def test_metric_json_is_unchanged(name, capsys, tmp_path):
    """The text ``oddcluster metric td|ctd`` prints for each graph (`partial-2-tree-16-seed-7`
    is `gen partial-ktree --n 16 --k 2 --seed 7`)."""
    metric, graph = name.split("-", 1)
    path = tmp_path / "g.txt"
    path.write_text(serialize_graph(METRIC_GRAPHS[graph]()))
    assert main(["metric", metric, str(path)]) == 0
    text = capsys.readouterr().out
    assert hashlib.sha256(text.encode()).hexdigest() == METRIC_GOLDEN[name]
