"""Seeded mutation sweep over the CLI's inputs: every run ends in a documented exit code.

A graph file and the colouring, certificate and decomposition JSON that the
CLI emits for it are mutated with the standard library's ``random`` (truncate,
splice, retype a character, inject a large or negative integer, duplicate a
span) and fed back to ``colour``, ``colour --decomposition`` and ``verify``.
Every run must return 0, 1, 2 or 3, and no exception may escape ``cli.main``.
"""

import contextlib
import io
import json
import random
import re
import subprocess
import sys

from oddcluster.cli import main

GRAPH = "p 12 14\n0 1\n0 2\n1 2\n2 3\n2 5\n3 4\n3 5\n4 5\n5 10\n5 11\n2 6\n6 7\n7 8\n0 3\n"
INTEGERS = (-1, -7, -(10**9), 10**6, 2**31, 2**63, 10**30)
CHARS = '0123456789-[]{}",: \n\tpx.e'
EXIT_CODES = {0, 1, 2, 3}


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue()


def artifacts(tmp_path):
    """The graph file and the three artifacts the CLI emits for it, as text."""
    graph = tmp_path / "base.txt"
    graph.write_text(GRAPH)
    code, colouring = run(["colour", str(graph), "--h", "2", "--d", "2"])
    assert code == 0
    code, certificate = run(["colour", str(graph), "--h", "2", "--d", "1"])
    assert code == 3
    code, metric = run(["metric", "tw", str(graph)])
    assert code == 0
    decomposition = json.dumps(json.loads(metric)["witness"], indent=2)
    return {
        "graph": GRAPH,
        "colouring": colouring,
        "certificate": certificate,
        "decomposition": decomposition,
    }


def mutate(rng, text, donor):
    """One random mutation of ``text``; ``donor`` supplies spliced spans."""
    i = rng.randrange(len(text) + 1)
    op = rng.randrange(5)
    if op == 0:  # truncate
        return text[:i]
    if op == 1:  # splice a span of the donor over a short span of the text
        j = rng.randrange(len(donor) + 1)
        return text[:i] + donor[j : j + rng.randint(1, 40)] + text[i + rng.randint(0, 10) :]
    if op == 2:  # retype a character
        return text[:i] + rng.choice(CHARS) + text[i + 1 :]
    if op == 3:  # a large or negative integer in place of one, or anywhere
        value = str(rng.choice(INTEGERS))
        spans = [m.span() for m in re.finditer(r"\d+", text)]
        if spans:
            a, b = rng.choice(spans)
            return text[:a] + value + text[b:]
        return text[:i] + value + text[i:]
    a = rng.randrange(len(text) + 1)  # duplicate a span
    return text[:i] + text[a : a + rng.randint(1, 30)] + text[i:]


def commands(kind, paths):
    """The runs that can read a mutated input of this kind."""
    g, col, cert, dec = (paths[k] for k in ("graph", "colouring", "certificate", "decomposition"))
    colour_with = ["colour", g, "--h", "2", "--d", "2", "--decomposition", dec]
    return {
        "graph": [
            ["colour", g, "--h", "2", "--d", "1"],  # the certificate arm on the intact graph
            ["verify", "colouring", g, col],
            ["verify", "model", g, cert],
            ["verify", "decomposition", g, dec],
            colour_with,
        ],
        "colouring": [["verify", "colouring", g, col]],
        "certificate": [["verify", "model", g, cert]],
        "decomposition": [["verify", "decomposition", g, dec], colour_with],
    }[kind]


def vectors(tmp_path, seed, count):
    """Yield (kind, text, argv) for ``count`` mutated inputs, each run by one command that reads it.

    Each mutated file is written next to the intact ones, which fill the
    command's other arguments.
    """
    base = artifacts(tmp_path)
    intact = {}
    for kind, text in base.items():
        intact[kind] = tmp_path / f"{kind}.orig"
        intact[kind].write_text(text)
    rng = random.Random(seed)
    kinds = sorted(base)
    for _ in range(count):
        kind = rng.choice(kinds)
        text = base[kind]
        for _ in range(rng.choice((1, 1, 1, 2, 3))):
            text = mutate(rng, text, base[rng.choice(kinds)])
        mutated = tmp_path / f"{kind}.mut"
        mutated.write_text(text)
        paths = {k: str(mutated if k == kind else p) for k, p in intact.items()}
        yield kind, text, rng.choice(commands(kind, paths))


def test_in_process_sweep(tmp_path):
    seen = {code: 0 for code in EXIT_CODES}
    commands_run = set()
    for kind, text, argv in vectors(tmp_path, seed=2027, count=2000):
        try:
            code, _ = run(argv)
        except BaseException as exc:  # an escape is the failure being looked for
            raise AssertionError(f"{argv[:2]} on mutated {kind} {text!r} raised {exc!r}") from exc
        assert code in EXIT_CODES, (argv[:2], kind, text, code)
        seen[code] += 1
        commands_run.add((kind, tuple(argv[:2]), "--decomposition" in argv))
    assert sum(seen.values()) == 2000
    assert len(commands_run) == 9  # every command on every input it reads
    # the sweep reaches rejection and acceptance alike
    assert seen[0] and seen[1] and seen[2] and seen[3], seen


def test_subprocess_runs_print_no_traceback(tmp_path):
    checked = 0
    for kind, text, argv in vectors(tmp_path, seed=2028, count=10):
        proc = subprocess.run(
            [sys.executable, "-m", "oddcluster.cli", *argv],
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert proc.returncode in EXIT_CODES, (argv[:2], kind, text, proc.stderr)
        assert "Traceback" not in proc.stderr, (argv[:2], kind, text, proc.stderr)
        checked += 1
    assert checked == 10
