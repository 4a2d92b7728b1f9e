import hashlib
import json
import os
import random
import re
import shlex
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import pytest

from oddcluster import (
    Graph,
    clustering_budget,
    colour_bounded_tw,
    colour_budget,
    connected_tree_depth,
    exact_treewidth,
    tree_depth,
    validate_decomposition,
    verify_model,
    verify_odd_witness,
)
from oddcluster.cli import build_parser, main
from oddcluster.colouring import OddModelCertificate
from oddcluster.decomposition import decompose
from oddcluster.errors import ParseError
from oddcluster.generators import complete_graph, cycle_graph, random_partial_ktree, star_graph
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
from conftest import path_graph, random_graph


class TestGraphFormat:
    def test_round_trip(self):
        rng = random.Random(1)
        for _ in range(20):
            g = random_graph(rng.randint(1, 12), rng.random(), rng.randrange(10**6))
            assert parse_graph(serialize_graph(g)) == g

    def test_text_lists_the_sorted_edges(self):
        # the text is a header and then every edge (a, b), a < b, in sorted order
        rng = random.Random(5)
        graphs = [Graph(0), Graph(7)]
        for trial in range(30):
            graphs.append(random_graph(rng.randint(1, 40), rng.random(), trial))
            graphs.append(random_partial_ktree(rng.randint(2, 60), rng.randint(1, 4), trial))
        for g in graphs:
            edges = sorted(g.edges)
            want = "".join([f"p {g.n} {len(edges)}\n", *(f"{a} {b}\n" for a, b in edges)])
            assert serialize_graph(g) == want

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

    def test_empty_graph_has_the_empty_partition(self):
        # its one line is empty, so a file with no significant line holds it
        for text in ("", "\n", "# no vertices\n"):
            assert parse_partition(text, 0) == []
        with pytest.raises(ParseError):
            parse_partition("r\n", 0)
        for text in ("", "\n"):
            with pytest.raises(ParseError, match="empty partition file"):
                parse_partition(text, 1)


class TestJsonRoundTrips:
    def test_forest_json(self):
        _, parent = tree_depth(cycle_graph(4))
        data = forest_to_json(parent)
        assert data["parent"] == parent and data["vertex_height"] == 3
        assert data["roots"] == [v for v, p in enumerate(parent) if p == -1]

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

    @pytest.mark.parametrize("keep", ["0", "0.35", "0.8", "1"])
    def test_gen_partial_ktree_edge_keep(self, capsys, keep):
        code, out = run_cli(
            capsys, ["gen", "partial-ktree", "--n", "30", "--k", "3", "--seed", "5", "--edge-keep", keep]
        )
        assert code == 0
        assert out == serialize_graph(random_partial_ktree(30, 3, 5, edge_keep=float(keep)))

    def test_metric_ctd(self, capsys, write):
        path = write("g.txt", serialize_graph(cycle_graph(4)))
        code, out = run_cli(capsys, ["metric", "ctd", path])
        assert code == 0
        assert json.loads(out)["value"] == 3
        # the witness's vertex_height is computed from its parent array
        up = write("u32.txt", run_cli(capsys, ["gen", "u", "--h", "3", "--d", "2"])[1])
        code, out = run_cli(capsys, ["metric", "ctd", up])
        data = json.loads(out)
        assert code == 0 and data["value"] == data["witness"]["vertex_height"] == 3

    def test_metric_tw(self, capsys, write):
        path = write("g.txt", serialize_graph(cycle_graph(6)))
        code, out = run_cli(capsys, ["metric", "tw", path])
        assert code == 0 and json.loads(out)["value"] == 2
        # the witness is the file that verify decomposition and colour --decomposition read
        pk = write("pk.txt", run_cli(capsys, ["gen", "partial-ktree", "--n", "16", "--k", "2", "--seed", "7"])[1])
        dec = write("dec.json", json.dumps(json.loads(run_cli(capsys, ["metric", "tw", pk])[1])["witness"]))
        assert run_cli(capsys, ["verify", "decomposition", pk, dec])[0] == 0
        code, out = run_cli(capsys, ["colour", pk, "--h", "3", "--d", "2", "--decomposition", dec])
        assert code == 0
        code, out = run_cli(capsys, ["verify", "colouring", pk, write("pkc.json", out)])
        assert code == 0 and json.loads(out)["ok"]

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

    def test_odd_minor_without_room_ignores_the_cap(self, capsys, write):
        gp = write("c5.txt", serialize_graph(cycle_graph(5)))
        hp = write("k6.txt", serialize_graph(complete_graph(6)))
        code, out = run_cli(capsys, ["--cap", "3", "odd-minor", gp, hp])
        assert code == 1 and json.loads(out) == {"found": False}

    def test_odd_minor_empty_pattern_ignores_the_cap(self, capsys, write):
        # the empty model is in every graph, beyond the cap too
        gp = write("c30.txt", serialize_graph(cycle_graph(30)))
        hp = write("empty.txt", "p 0 0\n")
        code, out = run_cli(capsys, ["odd-minor", gp, hp])
        assert code == 0
        assert json.loads(out) == {"found": True, "branch_sets": [], "tree_edges": [], "witness": {}}

    def test_odd_minor_nontrivial_k1_ignores_the_cap(self, capsys, write):
        # a non-trivial K_1 is the least edge, in a graph of any size
        gp = write("c60.txt", run_cli(capsys, ["gen", "cycle", "--n", "60"])[1])
        hp = write("k1.txt", "p 1 0\n")
        code, out = run_cli(capsys, ["odd-minor", "--nontrivial", gp, hp])
        assert code == 0
        assert json.loads(out) == {
            "found": True,
            "branch_sets": [[0, 1]],
            "tree_edges": [[[0, 1]]],
            "witness": {"0": 1, "1": 0},
        }
        ep = write("e60.txt", "p 60 0\n")
        code, out = run_cli(capsys, ["odd-minor", "--nontrivial", ep, hp])
        assert code == 1 and json.loads(out) == {"found": False}

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
        code, out = run_cli(capsys, ["verify", "colouring", gp, ap, "--max-colours", "1", "--max-cluster", "1"])
        assert code == 1 and not json.loads(out)["ok"]

    def test_verify_colouring_needs_both_budgets(self, capsys, write):
        # a single colour on C_7 with no budgets declared is not checked against its own counts
        gp = write("g.txt", serialize_graph(cycle_graph(7)))
        ap = write("col.json", json.dumps({"colours": [0] * 7}))
        for flags, missing in (([], "--max-colours"), (["--max-colours", "1"], "--max-cluster")):
            code, out = run_cli(capsys, ["verify", "colouring", gp, ap, *flags])
            data = json.loads(out)
            assert code == 1 and not data["ok"] and missing in data["violation"]
        code, out = run_cli(capsys, ["verify", "colouring", gp, ap, "--max-colours", "1", "--max-cluster", "7"])
        assert code == 0 and json.loads(out)["ok"]

    @pytest.mark.parametrize("flag, value", [("--max-colours", "-1"), ("--max-cluster", "0")])
    def test_verify_colouring_budget_out_of_range(self, capsys, write, flag, value):
        gp = write("g.txt", serialize_graph(cycle_graph(7)))
        ap = write("col.json", json.dumps({"colours": [0, 1] * 3 + [2]}))
        with pytest.raises(SystemExit) as exc:
            main(["verify", "colouring", gp, ap, flag, value])
        err = capsys.readouterr().err
        assert exc.value.code == 2
        assert len(err.splitlines()) == 1 and "Traceback" not in err

    def test_verify_model_rejects_a_trivial_model(self, capsys, write):
        ap = write("cert.json", json.dumps(cert_json(branch_sets=[[0]], tree_edges=[[]], witness={"0": 0})))
        code, out = run_cli(capsys, ["verify", "model", write("g.txt", P3), ap])
        assert code == 1 and json.loads(out)["violation"].startswith("model is trivial")

    def test_verify_model_rejects_a_witness_missing_a_vertex(self, capsys, write):
        # well-formed but wrong, like any other failing certificate: exit 1, not a parse error
        ap = write("cert.json", json.dumps(cert_json(witness={"0": 0})))
        code, out = run_cli(capsys, ["verify", "model", write("g.txt", P3), ap])
        assert code == 1 and json.loads(out)["violation"] == "witness misses covered vertex 1"

    def test_verify_model_rejects_a_witness_colouring_uncovered_vertices(self, capsys, write):
        # a vertex no branch set covers, in the graph (2) or not (99999): the least is named
        ap = write("cert.json", json.dumps(cert_json(witness={"0": 0, "1": 1, "2": 0, "99999": 1})))
        code, out = run_cli(capsys, ["verify", "model", write("g.txt", P3), ap])
        assert code == 1
        assert json.loads(out)["violation"] == "witness colours vertex 2, which no branch set covers"

    def test_verify_decomposition(self, capsys, write):
        g = cycle_graph(6)
        gp = write("g.txt", serialize_graph(g))
        ap = write("dec.json", json.dumps(decomposition_to_json(exact_treewidth(g)[1])))
        code, out = run_cli(capsys, ["verify", "decomposition", gp, ap])
        assert code == 0 and json.loads(out)["ok"]

    def test_a_wrong_stored_width_fails_verify_and_colour_alike(self, capsys, write):
        # both commands read a decomposition through one check, its stored width included
        gp = write("pk.txt", run_cli(capsys, ["gen", "partial-ktree", "--n", "16", "--k", "2", "--seed", "7"])[1])
        witness = json.loads(run_cli(capsys, ["metric", "tw", gp])[1])["witness"]
        bad = write("bad.json", json.dumps({**witness, "width": 99}))
        code, out = run_cli(capsys, ["verify", "decomposition", gp, bad])
        assert code == 1 and json.loads(out)["violation"] == "stored width 99 != recomputed 2"
        code = main(["colour", gp, "--h", "3", "--d", "2", "--decomposition", bad])
        captured = capsys.readouterr()
        assert code == 2 and not captured.out
        assert captured.err == "error: supplied decomposition is invalid: stored width 99 != recomputed 2\n"

    def test_a_repeated_bag_vertex_fails_verify_and_colour_alike(self, capsys, write):
        # repeats would inflate the width, and with it the clustering budget colour checks against
        gp = write("c6.txt", serialize_graph(cycle_graph(6)))
        witness = json.loads(run_cli(capsys, ["metric", "tw", gp])[1])["witness"]
        bags = [witness["bags"][0] * 10, *witness["bags"][1:]]
        bad = write("bad.json", json.dumps({**witness, "bags": bags, "width": 9}))
        why = f"bag 0 repeats vertex {bags[0][0]}"
        code, out = run_cli(capsys, ["verify", "decomposition", gp, bad])
        assert code == 1 and json.loads(out) == {"ok": False, "violation": why}
        code = main(["colour", gp, "--h", "2", "--d", "2", "--decomposition", bad])
        captured = capsys.readouterr()
        assert code == 2 and not captured.out
        assert captured.err == f"error: supplied decomposition is invalid: {why}\n"

    def test_pipeline_partition(self, capsys, write):
        gp = write("g.txt", serialize_graph(cycle_graph(6)))
        hp = write("h.txt", "p 2 1\n0 1\n")
        pp = write("part.txt", "rrrrrr\n")
        code, out = run_cli(capsys, ["pipeline", gp, hp, "--partition", pp])
        assert code == 0
        assert json.loads(out)["max_cluster"] >= 1
        # C10 against K3, sides alternating: f(ctd(K3)) = 10 colours a side, every cluster one vertex
        gp = write("c10.txt", serialize_graph(cycle_graph(10)))
        kp = write("k3.txt", serialize_graph(complete_graph(3)))
        code, out = run_cli(capsys, ["pipeline", gp, kp, "--partition", write("rb.txt", "rbrbrbrbrb\n")])
        assert code == 0 and json.loads(out)["max_cluster"] == 1
        budgets = ["--max-colours", "20", "--max-cluster", "3"]
        code, out = run_cli(capsys, ["verify", "colouring", gp, write("c10.json", out), *budgets])
        assert code == 0 and json.loads(out)["ok"]

    @pytest.mark.parametrize("p", [16, 20])
    @pytest.mark.parametrize("name", ["c5", "c12", "pkt3-200"])
    def test_pipeline_against_a_long_path(self, capsys, write, name, p):
        # ctd(P_16) = ctd(P_20) = 5, and U_{4,16} and U_{4,20} are over the
        # pattern size cap; no layer region can hold a U_{4,d}-model, so the
        # colouring never builds it
        g = {"c5": cycle_graph(5), "c12": cycle_graph(12), "pkt3-200": random_partial_ktree(200, 3, 1)}[name]
        path = path_graph(p)
        gp = write("g.txt", serialize_graph(g))
        code, out = run_cli(capsys, ["pipeline", gp, write("p.txt", serialize_graph(path))])
        assert code == 0
        h = connected_tree_depth(path)[0]
        w = decompose(g).width
        budgets = ["--max-colours", str(colour_budget(h)), "--max-cluster", str(clustering_budget(p, w))]
        code, out = run_cli(capsys, ["verify", "colouring", gp, write("out.json", out), *budgets])
        assert h == 5 and code == 0 and json.loads(out)["ok"]

    def test_pipeline_empty_graph_with_a_partition(self, capsys, write):
        # an empty or blank partition file is the empty graph's partition
        gp = write("g.txt", "p 0 0\n")
        hp = write("h.txt", "p 1 0\n")
        for text in ("", "\n"):
            code, out = run_cli(capsys, ["pipeline", gp, hp, "--partition", write("part.txt", text)])
            assert code == 0
            assert json.loads(out) == {"colours": [], "num_colours": 0, "max_cluster": 0}

    def test_pipeline_certificate(self, capsys, write):
        gp = write("g.txt", serialize_graph(cycle_graph(5)))
        hp = write("h.txt", "p 1 0\n")
        code, out = run_cli(capsys, ["pipeline", gp, hp])
        assert code == 3
        assert json.loads(out)["h"] >= 1

    def test_colour_builds_the_pattern_only_for_a_region_that_can_hold_a_model(self, capsys, write):
        # U_{13,2} is over the pattern size cap, but no layer region of a
        # 6-vertex path or of C_5 reaches 2|V(U_{13,2})| vertices, so the
        # colouring never needs it
        for name, g in (("p6.txt", path_graph(6)), ("c5.txt", cycle_graph(5))):
            gp = write(name, serialize_graph(g))
            code, out = run_cli(capsys, ["colour", gp, "--h", "14", "--d", "2"])
            assert code == 0 and json.loads(out)["num_colours"] >= 1
            code, out = run_cli(capsys, ["verify", "colouring", gp, write("out.json", out)])
            assert code == 0 and json.loads(out)["ok"]
        # U_{2,4096} has 4097 vertices: a star's one region, its leaves but
        # the least, reaches 2 * 4097 = 8194 vertices at 8196 vertices, and
        # only then is U built, over the cap
        gp = write("star8195.txt", serialize_graph(star_graph(8195)))
        code, out = run_cli(capsys, ["colour", gp, "--h", "3", "--d", "4096"])
        assert code == 0
        code, out = run_cli(capsys, ["verify", "colouring", gp, write("star.json", out)])
        assert code == 0 and json.loads(out)["ok"]
        code = main(["colour", write("star8196.txt", serialize_graph(star_graph(8196))), "--h", "3", "--d", "4096"])
        captured = capsys.readouterr()
        assert code == 2 and not captured.out
        assert captured.err.splitlines() == ["resource limit: U_{2,4096} has over 4096 vertices"]

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

    def test_parser_is_built_once(self, capsys):
        assert build_parser() is build_parser()
        first = build_parser().parse_args(["metric", "ctd", "g.txt"])
        second = build_parser().parse_args(["metric", "tw", "h.txt"])
        assert first is not second
        assert (first.metric, first.graph) == ("ctd", "g.txt")
        assert run_cli(capsys, ["gen", "u", "--h", "1", "--d", "1"])[0] == 0

    def test_readme_walkthrough_runs_as_written(self, capsys, monkeypatch, tmp_path):
        # every line of README's CLI block, top to bottom in an empty directory:
        # `oddcluster` lines through main with stdout sent to the file after `>`,
        # the rest through the shell; each exits 0 or with its `# exit N` note
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        block = re.search(r"## CLI\n.*?```sh\n(.*?)```", readme, re.S).group(1)
        monkeypatch.chdir(tmp_path)
        ran = 0
        for line in block.splitlines():
            if not line.strip() or line.startswith("#"):
                continue
            note = re.search(r"# exit (\d+)$", line)
            want = int(note.group(1)) if note else 0
            words = shlex.split(line, comments=True)
            if words[0] == "oddcluster":
                argv, out = words[1:], None
                if ">" in argv:
                    argv, out = argv[: argv.index(">")], argv[argv.index(">") + 1]
                code, text = run_cli(capsys, argv)
                if out is not None:
                    Path(out).write_text(text)
                ran += 1
            else:
                code = subprocess.run(line, shell=True).returncode
            assert code == want, line
        assert ran >= 15



P3 ="p 3 2\n0 1\n1 2\n"


def cert_json(**changes):
    """A valid non-trivial odd U_{1,1}-model in the path P3, with ``changes`` applied."""
    data = {"h": 1, "d": 1, "branch_sets": [[0, 1]], "tree_edges": [[[0, 1]]]}
    data["witness"] = {"0": 0, "1": 1}
    data.update(changes)
    return data


def verify_artifact(capsys, write, what, artifact):
    """Exit code and stderr of ``verify <what>`` on P3 and the artifact."""
    text = artifact if isinstance(artifact, str) else json.dumps(artifact)
    code = main(["verify", what, write("g.txt", P3), write("artifact.json", text)])
    return code, capsys.readouterr().err


def assert_parse_error(code, err):
    assert code == 2
    assert err.startswith("parse error:") and "Traceback" not in err


class TestMalformedInputs:
    """Malformed files end in exit 2 with a parse error on stderr, never a traceback."""

    @pytest.mark.parametrize(
        "dec",
        [
            pytest.param(
                {"nodes": 3, "edges": [[0, 1], [1, 2], [2, 0]], "bags": [[0, 1], [1, 2], [0, 2]]},
                id="dec0",
            ),
            pytest.param(
                {"nodes": 2, "edges": [[0, 1], [0, 1]], "bags": [[0, 1], [1, 2]]},
                id="dec1",
            ),
            pytest.param({"nodes": 2, "edges": [[0, 5]], "bags": [[0, 1], [1, 2]]}, id="dec2"),
            pytest.param(
                {"nodes": 3, "edges": [[0, 1], [1, 0]], "bags": [[0, 1], [1, 2], [2]]},
                id="dec3",
            ),
            pytest.param({"nodes": 2, "edges": [[0, 0]], "bags": [[0, 1], [1, 2]]}, id="dec4"),
            pytest.param({"nodes": 0, "edges": [], "bags": []}, id="dec5"),
            pytest.param({"nodes": 2, "edges": [[0, "1"]], "bags": [[0, 1], [1, 2]]}, id="dec6"),
            pytest.param(
                {"nodes": 2, "edges": [[0, 1]], "bags": [[0, 1], [1, 2]], "width": "1"},
                id="dec7",
            ),
            pytest.param({"nodes": 2, "edges": [[0, 1]], "bags": [[0, 1], 2]}, id="dec8"),
            pytest.param({"nodes": 2, "edges": [[0, 1]], "bags": [[0, 1], [1, 2], [2]]}, id="dec9"),
            pytest.param(
                {"nodes": 3, "edges": [[0, 1], [1, 2]], "bags": [[0, 1], [1, 2]]},
                id="dec10",
            ),
        ],
    )
    def test_decomposition_edges_must_form_a_tree(self, capsys, write, dec):
        assert_parse_error(*verify_artifact(capsys, write, "decomposition", dec))
        argv = ["colour", write("g.txt", P3), "--h", "2", "--d", "2"]
        code = main([*argv, "--decomposition", write("dec.json", json.dumps(dec))])
        assert_parse_error(code, capsys.readouterr().err)

    @pytest.mark.parametrize(
        "dec",
        [
            pytest.param(
                {"nodes": 2, "edges": [[1, 0]], "bags": [[0, 1], [1, 2]], "width": 1},
                id="dec0",
            ),
            pytest.param({"nodes": 1, "edges": [], "bags": [[0, 1, 2]]}, id="dec1"),
        ],
    )
    def test_tree_shaped_decomposition_still_verifies(self, capsys, write, dec):
        assert verify_artifact(capsys, write, "decomposition", dec)[0] == 0

    def test_negative_header(self, capsys, write):
        code = main(["metric", "td", write("g.txt", "p -1 0\n")])
        assert_parse_error(code, capsys.readouterr().err)

    @pytest.mark.parametrize(
        "artifact",
        [
            pytest.param({k: v for k, v in cert_json().items() if k != "d"}, id="artifact0"),
            pytest.param(cert_json(h=0), id="artifact1"),
            pytest.param(cert_json(h="1"), id="artifact2"),
            pytest.param(cert_json(branch_sets=[["0", 1]]), id="artifact3"),
            pytest.param(cert_json(tree_edges=[]), id="artifact4"),
            pytest.param(cert_json(tree_edges=[[[0, 1, 2]]]), id="artifact5"),
            pytest.param(cert_json(witness={"0": 0, "1": 2}), id="artifact6"),
            pytest.param(cert_json(witness=[0, 1]), id="artifact7"),
            pytest.param(cert_json(witness={"x": 0, "0": 0, "1": 1}), id="artifact8"),
            pytest.param(cert_json(witness={"0": 0, "1": 1, "1" + "0" * 4999: 0}), id="witness-key-5000-digits"),
            pytest.param(cert_json(witness={"0": 0, "1": 1, "01": 0}), id="witness-key-leading-zero"),
            pytest.param(cert_json(witness={"0": 0, "1": 1, "\u0661": 0}), id="witness-key-arabic-indic-digit"),
            pytest.param("[1, 2", id="bad-syntax"),
            pytest.param("[]", id="not-an-object"),
            pytest.param("[" * 100000, id="deep-nesting"),
        ],
    )
    def test_model(self, capsys, write, artifact):
        assert_parse_error(*verify_artifact(capsys, write, "model", artifact))

    def test_huge_integers(self, capsys, write):
        # U_{4096,1} = K_4096 passes the vertex cap; its 8 386 560 edges are
        # refused from their count, before one is listed
        for h, d in ((10**6, 3), (4096, 1)):
            tracemalloc.start()
            try:
                code, err = verify_artifact(capsys, write, "model", cert_json(h=h, d=d))
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert code == 2 and err.startswith("resource limit:") and "Traceback" not in err
            assert peak < 50_000_000, (h, d)
        huge = '{"h": 1' + "0" * 5000 + ', "d": 1}'
        assert_parse_error(*verify_artifact(capsys, write, "model", huge))

    def test_non_utf8_graph_file(self, capsys, tmp_path):
        path = tmp_path / "g.txt"
        path.write_bytes(P3.encode() + b"# \xff\n")  # a valid graph but for one byte in a comment
        assert_parse_error(main(["metric", "td", str(path)]), capsys.readouterr().err)

    def test_non_utf8_artifact_file(self, capsys, write, tmp_path):
        path = tmp_path / "colouring.json"
        path.write_bytes(b'{"colours": [0, 1, 0], "note": "\xff"}')
        code = main(["verify", "colouring", write("g.txt", P3), str(path)])
        assert_parse_error(code, capsys.readouterr().err)

    def test_non_utf8_stdin_in_a_subprocess(self):
        # stdin decoded as Latin-1 would read 0xff as a character of the comment
        proc = subprocess.run(
            [sys.executable, "-m", "oddcluster.cli", "metric", "td", "-"],
            input=P3.encode() + b"# \xff\n",
            capture_output=True,
            env={**os.environ, "PYTHONIOENCODING": "latin-1"},
        )
        lines = proc.stderr.decode().splitlines()
        assert proc.returncode == 2 and len(lines) == 1 and lines[0].startswith("parse error:")

    def test_valid_model_still_verifies(self, capsys, write):
        assert verify_artifact(capsys, write, "model", cert_json())[0] == 0

    @pytest.mark.parametrize(
        "artifact",
        [
            pytest.param({"colours": [0, 1]}, id="artifact0"),
            pytest.param({"colours": [0, 1, 0, 1]}, id="artifact1"),
            pytest.param({"colours": [0, "1", 0]}, id="artifact2"),
            pytest.param({"colours": [0, 1, 0], "budgets": {"colours": "2"}}, id="artifact3"),
            pytest.param({"colours": [0, 1, 0], "budgets": [2, 1]}, id="artifact4"),
            pytest.param({}, id="artifact5"),
        ],
    )
    def test_colouring(self, capsys, write, artifact):
        assert_parse_error(*verify_artifact(capsys, write, "colouring", artifact))

    def test_in_a_subprocess(self, tmp_path):
        files = {
            "g.txt": P3,
            "neg.txt": "p -1 0\n",
            "short.json": json.dumps({"colours": [0, 1]}),
            "cycle.json": json.dumps(
                {"nodes": 3, "edges": [[0, 1], [1, 2], [2, 0]], "bags": [[0, 1], [1, 2], [0, 2]]}
            ),
            "empty.txt": "p 0 0\n",
        }
        for name, text in files.items():
            (tmp_path / name).write_text(text)

        def run(argv):
            paths = [str(tmp_path / a) if a in files else a for a in argv]
            return subprocess.run(
                [sys.executable, "-m", "oddcluster.cli", *paths], capture_output=True, text=True
            )

        for argv in (
            ["metric", "td", "neg.txt"],
            ["verify", "colouring", "g.txt", "short.json"],
            ["verify", "decomposition", "g.txt", "cycle.json"],
        ):
            proc = run(argv)
            assert_parse_error(proc.returncode, proc.stderr)
        # out-of-range arguments: exit 2 with a one-line message
        for argv in (
            ["colour", "g.txt", "--h", "0", "--d", "2"],
            ["colour", "g.txt", "--h", "2", "--d", "0"],
            ["colour", "g.txt", "--h", "70", "--d", "2"],
            ["gen", "cycle", "--n", "2"],
            ["gen", "u", "--h", "0", "--d", "2"],
            ["gen", "partial-ktree", "--n", "0", "--k", "2", "--seed", "1"],
            ["gen", "partial-ktree", "--n", "5", "--k", "2", "--seed", "1", "--edge-keep", "nan"],
            ["gen", "partial-ktree", "--n", "5", "--k", "2", "--seed", "1", "--edge-keep", "-1"],
            ["gen", "partial-ktree", "--n", "5", "--k", "2", "--seed", "1", "--edge-keep", "7"],
            ["gen", "star", "--n", "0"],
            ["metric", "ctd", "empty.txt"],
            ["pipeline", "g.txt", "empty.txt"],
            ["--cap", "0", "colour", "g.txt", "--h", "2", "--d", "2"],
            ["--cap", "abc", "odd-minor", "g.txt", "g.txt"],
        ):
            proc = run(argv)
            assert proc.returncode == 2, argv
            assert len(proc.stderr.splitlines()) == 1 and "Traceback" not in proc.stderr, argv

    def test_sizes_over_the_caps_in_a_subprocess(self, tmp_path):
        big = tmp_path / "big.txt"
        big.write_text("p 300000000 0\n")
        for argv in (
            ["colour", str(big), "--h", "2", "--d", "2"],
            ["gen", "star", "--n", "9" * 4000],
            ["gen", "complete", "--n", "100000"],
        ):
            start = time.monotonic()
            proc = subprocess.run(
                [sys.executable, "-m", "oddcluster.cli", *argv], capture_output=True, text=True, timeout=60
            )
            assert time.monotonic() - start < 10, argv[:2]
            assert proc.returncode == 2, argv[:2]
            lines = proc.stderr.splitlines()
            assert len(lines) == 1 and "resource limit:" in lines[0], argv[:2]
            assert "Traceback" not in proc.stderr and not proc.stdout, argv[:2]

    def test_out_of_memory_exits_2(self, capsys, monkeypatch, write):
        from oddcluster import cli

        def exhausted(text):
            raise MemoryError

        monkeypatch.setattr(cli, "parse_graph", exhausted)
        code = main(["colour", write("g.txt", P3), "--h", "2", "--d", "2"])
        captured = capsys.readouterr()
        assert code == 2 and not captured.out
        assert captured.err == "resource limit: out of memory\n"

    @pytest.mark.parametrize(
        "argv",
        [
            pytest.param(["metric", "td", "p.txt"], id="td"),
            pytest.param(["metric", "ctd", "p.txt"], id="ctd"),
            pytest.param(["odd-minor", "p.txt", "k3.txt"], id="odd-minor"),
        ],
    )
    def test_deep_search_exits_2_in_a_subprocess(self, tmp_path, argv):
        # the exact searches recurse once per vertex: a path longer than the
        # recursion limit, let in by a raised --cap, exhausts the stack
        (tmp_path / "p.txt").write_text(serialize_graph(Graph(1100, [(i, i + 1) for i in range(1099)])))
        (tmp_path / "k3.txt").write_text(serialize_graph(complete_graph(3)))
        paths = [str(tmp_path / a) if a.endswith(".txt") else a for a in argv]
        proc = subprocess.run(
            [sys.executable, "-m", "oddcluster.cli", "--cap", "1100", *paths], capture_output=True, text=True
        )
        assert proc.returncode == 2 and not proc.stdout
        assert proc.stderr == "resource limit: recursion depth exceeded\n"

    def test_cap_is_set_by_the_option_alone(self, capsys, monkeypatch, write):
        monkeypatch.setenv("ODDCLUSTER_CAP", "abc")
        gp = write("g.txt", serialize_graph(cycle_graph(5)))
        hp = write("h.txt", "p 3 3\n0 1\n1 2\n0 2\n")
        assert run_cli(capsys, ["odd-minor", gp, hp])[0] == 0
        assert run_cli(capsys, ["--cap", "4", "odd-minor", gp, hp])[0] == 2

    def test_odd_minor_json_has_the_certificate_fields(self, capsys, write):
        gp = write("g.txt", serialize_graph(cycle_graph(5)))
        hp = write("h.txt", "p 3 3\n0 1\n1 2\n0 2\n")
        code, out = run_cli(capsys, ["odd-minor", gp, hp])
        assert code == 0
        assert list(json.loads(out)) == ["found", "branch_sets", "tree_edges", "witness"]


class TestHostileArtifacts:
    """A certificate or partition file that breaks the rules gets its exit code, never a traceback."""

    def run(self, capsys, argv):
        code = main(argv)
        captured = capsys.readouterr()
        assert "Traceback" not in captured.err
        return code, captured.out, captured.err

    def k4_certificate(self, capsys, write):
        gp = write("k4.txt", serialize_graph(complete_graph(4)))
        code, out, _ = self.run(capsys, ["colour", gp, "--h", "2", "--d", "1"])
        assert code == 3
        return gp, json.loads(out)

    def test_empty_branch_set(self, capsys, write):
        gp, cert = self.k4_certificate(capsys, write)
        cert["branch_sets"][1] = []
        cert["tree_edges"][1] = []
        code, out, _ = self.run(capsys, ["verify", "model", gp, write("cert.json", json.dumps(cert))])
        assert code == 1
        assert json.loads(out) == {"ok": False, "violation": "branch set of pattern vertex 1 is empty"}

    def test_branch_vertex_out_of_range(self, capsys, write):
        gp, cert = self.k4_certificate(capsys, write)
        cert["branch_sets"][0].append(99)
        cert["witness"]["99"] = 0
        code, out, _ = self.run(capsys, ["verify", "model", gp, write("cert.json", json.dumps(cert))])
        assert code == 1
        assert json.loads(out) == {"ok": False, "violation": "branch set of 0 contains invalid vertex 99"}

    def test_partition_of_only_a_comment(self, capsys, write):
        gp = write("k4.txt", serialize_graph(complete_graph(4)))
        pp = write("part.txt", "# no partition here\n")
        code, out, err = self.run(capsys, ["pipeline", gp, gp, "--partition", pp])
        assert code == 2 and not out
        assert err == "parse error: line 1: empty partition file\n"


def bfs_numbered_json(dec):
    """``dec`` as JSON with its nodes renumbered breadth-first, children in id order."""
    order = [0]
    for x in order:  # grows while read
        order.extend(y for y, p in enumerate(dec.parent) if p == x)
    new = {x: i for i, x in enumerate(order)}
    edges = sorted(sorted([new[p], new[x]]) for x, p in enumerate(dec.parent) if p >= 0)
    return {"nodes": dec.num_nodes, "edges": edges, "bags": [list(dec.bags[x]) for x in order]}


class TestDecompositionNumbering:
    """Nodes are numbered in pre-order; a decomposition JSON in another numbering colours the same."""

    # `gen partial-ktree --n 12 --k 2 --seed 7`: the metric tw witness's edges as
    # numbered breadth-first before, and in pre-order now
    BFS_EDGES = [[0, 1], [1, 2], [2, 3], [3, 4], [3, 5], [3, 6], [5, 7], [5, 8], [5, 9], [6, 10], [9, 11]]
    PRE_EDGES = [[0, 1], [1, 2], [2, 3], [3, 4], [3, 5], [3, 10], [5, 6], [5, 7], [5, 8], [8, 9], [10, 11]]
    # sha256 of `colour` on that graph per (h, d), recorded with the breadth-first numbering
    RECORDED = {
        (2, 1): "16056b62bacc0b2b6ad2070c8c8f2c82ad59310bd075f14afec751af65f152f3",
        (2, 2): "2cefd69324ecc45b355477fcd0e910a8d2e33738546688065a08e345a9fc7372",
        (3, 2): "dbfad975bfcd863d2c1b33b390008c6a715fc3e73d30a0d09ad637604da5b751",
        (3, 3): "f96d393dad133e6707698c72181773451c5096d2cec434b2ecb47efaa1d1aba3",
    }

    def graph_file(self, capsys, write):
        code, text = run_cli(capsys, ["gen", "partial-ktree", "--n", "12", "--k", "2", "--seed", "7"])
        assert code == 0
        return parse_graph(text), write("g.txt", text)

    def test_metric_tw_witness_is_in_pre_order(self, capsys, write):
        g, gp = self.graph_file(capsys, write)
        code, out = run_cli(capsys, ["metric", "tw", gp])
        witness = json.loads(out)["witness"]
        assert code == 0 and json.loads(out)["value"] == witness["width"] == 2
        assert witness["edges"] == self.PRE_EDGES
        dec = decomposition_from_json(witness)
        assert [list(b) for b in dec.bags] == witness["bags"]  # read back unchanged
        assert bfs_numbered_json(dec)["edges"] == self.BFS_EDGES
        code, out = run_cli(capsys, ["verify", "decomposition", gp, write("w.json", json.dumps(witness))])
        assert code == 0 and json.loads(out)["ok"]

    def test_bfs_numbered_json_colours_byte_identically(self, capsys, write):
        g, gp = self.graph_file(capsys, write)
        dec = exact_treewidth(g)[1]
        bfs = bfs_numbered_json(dec)
        assert bfs["edges"] == self.BFS_EDGES
        files = [
            write("bfs.json", json.dumps(bfs)),
            write("pre.json", json.dumps(decomposition_to_json(dec))),
        ]
        arms = set()
        for (h, d), digest in self.RECORDED.items():
            argv = ["colour", gp, "--h", str(h), "--d", str(d)]
            code, out = run_cli(capsys, argv)
            arms.add(code)
            assert hashlib.sha256(out.encode()).hexdigest() == digest, (h, d)
            for path in files:
                assert run_cli(capsys, [*argv, "--decomposition", path]) == (code, out), (h, d, path)
        assert arms == {0, 3}
