import json
import random
import subprocess
import sys

import pytest

from oddcluster import (
    Graph,
    colour_bounded_tw,
    exact_treewidth,
    tree_depth,
    validate_decomposition,
    verify_model,
    verify_odd_witness,
)
from oddcluster.cli import main
from oddcluster.colouring import OddModelCertificate
from oddcluster.errors import ParseError
from oddcluster.generators import cycle_graph, random_graph
from oddcluster.io import (
    certificate_from_json,
    certificate_to_json,
    decomposition_from_json,
    decomposition_to_json,
    forest_to_json,
    parse_graph,
    parse_partition,
    serialize_graph,
)


class TestGraphFormat:
    def test_round_trip(self):
        rng = random.Random(1)
        for _ in range(20):
            g = random_graph(rng.randint(1, 12), rng.random(), rng.randrange(10**6))
            assert parse_graph(serialize_graph(g)) == g

    def test_comments_and_blanks(self):
        g = parse_graph("# a triangle\n\np 3 3\n0 1  # first\n1 2\n0 2\n")
        assert g == cycle_graph(3)

    def test_bad_header_line_number(self):
        with pytest.raises(ParseError) as err:
            parse_graph("# c\nq 3 3\n")
        assert err.value.line == 2

    def test_bad_edge_line_number(self):
        with pytest.raises(ParseError) as err:
            parse_graph("p 3 1\n0 5\n")
        assert err.value.line == 2

    def test_edge_count_mismatch(self):
        with pytest.raises(ParseError):
            parse_graph("p 3 2\n0 1\n")


class TestPartitionFormat:
    def test_parse(self):
        assert parse_partition("rbrb\n", 4) == ["r", "b", "r", "b"]

    def test_wrong_length(self):
        with pytest.raises(ParseError):
            parse_partition("rb\n", 3)

    def test_bad_symbol(self):
        with pytest.raises(ParseError):
            parse_partition("rbx\n", 3)


class TestJsonRoundTrips:
    def test_forest_json(self):
        _, witness = tree_depth(cycle_graph(4))
        data = forest_to_json(witness)
        assert data["vertex_height"] == 3
        assert sum(1 for p in data["parent"] if p == -1) == len(data["roots"])

    def test_decomposition_json(self):
        g = cycle_graph(6)
        _, dec = exact_treewidth(g)
        back = decomposition_from_json(json.loads(json.dumps(decomposition_to_json(dec))))
        assert back.bags == dec.bags
        ok, why = validate_decomposition(g, back)
        assert ok, why

    def test_certificate_json(self):
        g = Graph(4, [(0, 1), (0, 2), (0, 3), (2, 3)])
        out = colour_bounded_tw(g, 2, 1, exact_treewidth(g)[1])
        assert isinstance(out, OddModelCertificate)
        back = certificate_from_json(json.loads(json.dumps(certificate_to_json(out))))
        assert (back.h, back.d) == (out.h, out.d)
        assert verify_model(g, back.model)[0]
        assert verify_odd_witness(g, back.model, back.witness)[0]


@pytest.fixture
def write(tmp_path):
    def _write(name, text):
        path = tmp_path / name
        path.write_text(text)
        return str(path)

    return _write


def run_cli(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


class TestCli:
    def test_gen_u(self, capsys):
        code, out = run_cli(capsys, ["gen", "u", "--h", "2", "--d", "3"])
        assert code == 0
        g = parse_graph(out)
        assert g.n == 4 and g.m == 3

    def test_gen_partial_ktree(self, capsys):
        code, out = run_cli(
            capsys, ["gen", "partial-ktree", "--n", "10", "--k", "2", "--seed", "3"]
        )
        assert code == 0 and parse_graph(out).n == 10

    def test_metric_ctd(self, capsys, write):
        path = write("g.txt", serialize_graph(cycle_graph(4)))
        code, out = run_cli(capsys, ["metric", "ctd", path])
        assert code == 0
        assert json.loads(out)["value"] == 3

    def test_metric_tw(self, capsys, write):
        path = write("g.txt", serialize_graph(cycle_graph(6)))
        code, out = run_cli(capsys, ["metric", "tw", path])
        assert code == 0 and json.loads(out)["value"] == 2

    def test_odd_minor_found(self, capsys, write):
        gp = write("g.txt", serialize_graph(cycle_graph(5)))
        hp = write("h.txt", "p 3 3\n0 1\n1 2\n0 2\n")
        code, out = run_cli(capsys, ["odd-minor", gp, hp])
        assert code == 0 and json.loads(out)["found"]

    def test_odd_minor_not_found(self, capsys, write):
        gp = write("g.txt", serialize_graph(cycle_graph(4)))
        hp = write("h.txt", "p 3 3\n0 1\n1 2\n0 2\n")
        code, out = run_cli(capsys, ["odd-minor", gp, hp])
        assert code == 1 and not json.loads(out)["found"]

    def test_colour_ok(self, capsys, write):
        gp = write("g.txt", serialize_graph(cycle_graph(6)))
        code, out = run_cli(capsys, ["colour", gp, "--h", "2", "--d", "2"])
        assert code == 0
        data = json.loads(out)
        assert data["num_colours"] <= data["budgets"]["colours"]
        assert data["max_cluster"] <= data["budgets"]["clustering"]

    def test_colour_certificate_then_verify(self, capsys, write, tmp_path):
        g = Graph(4, [(0, 1), (0, 2), (0, 3), (2, 3)])
        gp = write("g.txt", serialize_graph(g))
        code, out = run_cli(capsys, ["colour", gp, "--h", "2", "--d", "1"])
        assert code == 3
        ap = write("cert.json", out)
        code, out = run_cli(capsys, ["verify", "model", gp, ap])
        assert code == 0 and json.loads(out)["ok"]

    def test_verify_colouring_artifact(self, capsys, write):
        gp = write("g.txt", serialize_graph(cycle_graph(6)))
        code, out = run_cli(capsys, ["colour", gp, "--h", "2", "--d", "2"])
        ap = write("col.json", out)
        code, out = run_cli(capsys, ["verify", "colouring", gp, ap])
        assert code == 0 and json.loads(out)["ok"]

    def test_verify_rejects_bad_colouring(self, capsys, write):
        gp = write("g.txt", serialize_graph(cycle_graph(4)))
        ap = write("col.json", json.dumps({"colours": [0, 0, 0, 0]}))
        code, out = run_cli(capsys, ["verify", "colouring", gp, ap, "--max-cluster", "1"])
        assert code == 1 and not json.loads(out)["ok"]

    def test_verify_decomposition(self, capsys, write):
        g = cycle_graph(6)
        gp = write("g.txt", serialize_graph(g))
        ap = write("dec.json", json.dumps(decomposition_to_json(exact_treewidth(g)[1])))
        code, out = run_cli(capsys, ["verify", "decomposition", gp, ap])
        assert code == 0 and json.loads(out)["ok"]

    def test_pipeline_partition(self, capsys, write):
        gp = write("g.txt", serialize_graph(cycle_graph(6)))
        hp = write("h.txt", "p 2 1\n0 1\n")
        pp = write("part.txt", "rrrrrr\n")
        code, out = run_cli(capsys, ["pipeline", gp, hp, "--partition", pp])
        assert code == 0
        assert json.loads(out)["max_cluster"] >= 1

    def test_pipeline_certificate(self, capsys, write):
        gp = write("g.txt", serialize_graph(cycle_graph(5)))
        hp = write("h.txt", "p 1 0\n")
        code, out = run_cli(capsys, ["pipeline", gp, hp])
        assert code == 3
        assert json.loads(out)["h"] >= 1

    def test_parse_error_exit_code(self, capsys, write):
        gp = write("g.txt", "not a graph\n")
        code, _ = run_cli(capsys, ["metric", "td", gp])
        assert code == 2

    def test_missing_file_exit_code(self, capsys):
        code, _ = run_cli(capsys, ["metric", "td", "/nonexistent/graph.txt"])
        assert code == 2

    def test_resource_cap_exit_code(self, capsys, write):
        gp = write("g.txt", serialize_graph(Graph(25)))
        code, _ = run_cli(capsys, ["metric", "td", gp])
        assert code == 2

    def test_entry_point_smoke(self):
        proc = subprocess.run(
            [sys.executable, "-m", "oddcluster.cli", "gen", "cycle", "--n", "5"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert parse_graph(proc.stdout).n == 5

    def test_colour_long_cycle_at_default_recursion_limit(self, tmp_path):
        gp = tmp_path / "cycle.txt"
        gp.write_text(serialize_graph(cycle_graph(max(1500, 2 * sys.getrecursionlimit()))))
        proc = subprocess.run(
            [sys.executable, "-m", "oddcluster.cli", "colour", str(gp), "--h", "2", "--d", "2"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert proc.stderr == ""
        assert json.loads(proc.stdout)["max_cluster"] <= 2
