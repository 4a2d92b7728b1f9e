"""Time to a verified verdict: the oddcluster benchmark.

    python3 bench/run.py --workload thin-long --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30

One single-threaded process, one client, closed loop: each instance of the
seeded pool goes from graph text to a verified verdict before the next one
starts.  The loop makes whole passes over the pool until ``--seconds`` have
elapsed, so every run measures the same instances.  Every time is scaled to
a reference host speed measured next to it (see ``hostspeed.py``), because
other tenants of a shared host slow work down for minutes at a time.  The
run reports the median pass and each instance's median over the passes: a
minimum would fall with the number of passes, which itself falls when the
host is slow.  ``--trace 1`` wraps the package's layers (see ``spans.py``)
and reports per-layer metrics instead of end-to-end ones.
``--workload all`` runs every workload untraced and traced in child
processes and reports tracing overhead, unaccounted time and whether the two
runs emitted identical verdicts.

The last line of output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  The exit code is non-zero when any verdict fails
verification, when the outputs differ between passes, or when the self-check
finds that a corrupted verdict is accepted.  See ``README.md``.
"""

import argparse
import hashlib
import importlib
import json
import math
import resource
import statistics
import subprocess
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

import hostspeed
import spans
import verdict
import workloads

SRC = Path(__file__).resolve().parent.parent / "src"
PACKAGE_MODULES = (
    "colouring",
    "decomposition",
    "eposa",
    "generators",
    "graph",
    "io",
    "oddmodel",
    "oracles",
    "treedepth",
)
SETUP_REPEATS = 15
# Host speed is sampled before an instance whenever this much time has passed
# since the last sample, and at the end of each pass: about 5% of the loop's
# time.  Each instance is scaled by the two samples around it.
SAMPLE_EVERY_S = 0.25
TAIL_BEYOND = 10

END_TO_END = {
    "setup_s": "s",
    "verdicts_per_s": "1/s",
    "verdict_p50_s": "s",
    "verdict_tail_s": "s",
    "decided_share": "ratio",
    "peak_rss_mb": "MB",
}


def per_layer_units(name):
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_ratio", "_use", "_share")):
        return "ratio"
    return "count"


def import_package():
    """Import oddcluster afresh from the checkout's ``src``, never from elsewhere."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [m for m in sys.modules if m == "oddcluster" or m.startswith("oddcluster.")]:
        del sys.modules[name]
    package = importlib.import_module("oddcluster")
    if Path(package.__file__).resolve().parent.parent != SRC.resolve():
        raise ImportError(f"oddcluster imported from {package.__file__}, not from {SRC}")
    return SimpleNamespace(**{m: importlib.import_module(f"oddcluster.{m}") for m in PACKAGE_MODULES})


def setup(workload, seed):
    """Import the package and build the pool, several times.

    Returns the last package and pool, and the median time at reference host
    speed, sampled after each repetition.
    """
    times, samples = [], []
    for _ in range(SETUP_REPEATS):
        start = perf_counter()
        lib = import_package()
        pool = workloads.WORKLOADS[workload](lib, seed)
        times.append(perf_counter() - start)
        samples.append(hostspeed.sample())
    return lib, pool, statistics.median(times) * hostspeed.scale(samples)


def self_check(lib):
    """A correct colouring and certificate pass; each one corrupted is rejected."""
    n, edges = workloads.cycle_edges(40)
    colouring = workloads.Instance("selfcheck-cycle", "colour", workloads.edge_list_text(lib, n, edges), 2, 2)
    n, edges = workloads.strip_edges(20, 3)
    certificate = workloads.Instance("selfcheck-strip", "colour", workloads.edge_list_text(lib, n, edges), 2, 2)
    lines, ok = [], True
    for inst, kind in ((colouring, "colouring"), (certificate, "certificate")):
        good = verdict.run_instance(lib, inst)
        bad = verdict.run_instance(lib, inst, corrupt=True)
        passed = good.kind == kind and good.ok and not bad.ok
        ok &= passed
        lines.append(
            f"selfcheck {kind}: genuine {'accepted' if good.ok else 'REJECTED'} ({good.kind}), "
            f"corrupted {'rejected' if not bad.ok else 'ACCEPTED'}: {bad.why}"
        )
    return ok, lines


def nearest_rank(sorted_times, rank):
    return sorted_times[rank - 1]


def measure(lib, pool, seconds, corrupt, tracer):
    times = [[] for _ in pool]
    first = [None] * len(pool)
    state = SimpleNamespace(
        executions=0, verdicts=0, errors=Counter(), rejected=[], changed=set(), use=[0.0, 0.0]
    )
    pass_rates, scales, all_samples = [], [], []
    start = perf_counter()
    while not pass_rates or perf_counter() - start < seconds:
        pass_verdicts, pass_times, samples, before = state.verdicts, [], [], []
        sampled = -math.inf
        for i, inst in enumerate(pool):
            if perf_counter() - sampled >= SAMPLE_EVERY_S:
                samples.append(hostspeed.sample())
                sampled = perf_counter()
            before.append(len(samples) - 1)
            if tracer is not None:
                tracer.instance = i
                span = tracer.open(spans.INSTANCE)
            t0 = perf_counter()
            v = verdict.run_instance(lib, inst, corrupt)
            pass_times.append(perf_counter() - t0)
            if tracer is not None:
                tracer.close(span)
            state.executions += 1
            if v.kind == "error":
                state.errors[v.text] += 1
            elif not v.ok:
                state.rejected.append((inst.name, v.kind, v.why))
            else:
                state.verdicts += 1
                state.use = [max(state.use[0], v.colours_use), max(state.use[1], v.cluster_use)]
            if first[i] is None:
                first[i] = v
            elif first[i].digest != v.digest:
                state.changed.add(inst.name)
        samples.append(hostspeed.sample())
        scaled = [t * hostspeed.scale(samples[j : j + 2]) for t, j in zip(pass_times, before)]
        for i, t in enumerate(scaled):
            times[i].append(t)
        pass_rates.append((state.verdicts - pass_verdicts) / sum(scaled))
        scales.append(hostspeed.scale(samples))
        all_samples += samples
    state.elapsed = perf_counter() - start
    state.pass_rates = pass_rates
    state.scales = scales
    state.scale = hostspeed.scale(all_samples)
    state.first = first
    state.instance_times = [statistics.median(t) if v.ok else math.inf for t, v in zip(times, first)]
    return state


def end_to_end(state, setup_s):
    ranked = sorted(state.instance_times)
    size = len(ranked)
    failed = sum(1 for t in ranked if t == math.inf)
    tail_rank = min(size - TAIL_BEYOND, size - failed)
    if failed * 2 >= size or tail_rank < 1:
        raise SystemExit(f"too few verified verdicts for percentiles: {size - failed} of {size}")
    metrics = {
        "setup_s": setup_s,
        "verdicts_per_s": statistics.median(state.pass_rates),
        "verdict_p50_s": nearest_rank(ranked, math.ceil(size / 2)),
        "verdict_tail_s": nearest_rank(ranked, tail_rank),
        "decided_share": state.verdicts / state.executions,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    tail_note = f"p{100 * tail_rank / size:.1f} of {size} instances, {size - tail_rank} beyond"
    return metrics, tail_note


def pool_digest(first):
    return hashlib.sha256("".join(v.digest for v in first).encode()).hexdigest()


def run_workload(args):
    if not (SRC / "oddcluster" / "__init__.py").is_file():
        print(f"package source not found under {SRC}", file=sys.stderr)
        return 2
    lib, pool, setup_s = setup(args.workload, args.seed)
    modules = dict(vars(lib), verdict=verdict)
    ok, lines = self_check(lib)
    for line in lines:
        print(line)
    tracer = None
    if args.trace:
        tracer = spans.Tracer()
        saved = spans.install(tracer, modules)
    else:
        spans.assert_untraced(modules)
    try:
        state = measure(lib, pool, args.seconds, args.corrupt, tracer)
    finally:
        if tracer is not None:
            spans.restore(saved)

    kinds = Counter(v.kind if v.kind != "error" else f"error:{v.text}" for v in state.first)
    print(f"workload {args.workload} seed {args.seed}: {len(pool)} instances, {len(state.pass_rates)} passes, "
          f"{state.elapsed:.2f} s, outcomes {dict(sorted(kinds.items()))}")
    print("host speed scale, median by pass (reference loop time / measured; "
          "times below are multiplied by it): " + ", ".join(f"{k:.3f}" for k in state.scales))
    print(f"failures by type over {state.executions} executions: {dict(state.errors)}")
    print(f"digest {pool_digest(state.first)} identical across passes: {not state.changed}")
    for name, kind, why in state.rejected[:5]:
        print(f"REJECTED {name} ({kind}): {why}")
    for name in sorted(state.changed)[:5]:
        print(f"OUTPUT CHANGED between passes: {name}")

    metrics, tail_note = end_to_end(state, setup_s)
    if tracer is None:
        report = metrics
        notes = {"verdict_tail_s": tail_note}
        units = END_TO_END
    else:
        report, shares = spans.summarize(tracer, state.use)
        report = {
            name: value * state.scale if per_layer_units(name) == "s" else value
            for name, value in report.items()
        }
        report["trace.verdicts_per_s"] = metrics["verdicts_per_s"]
        notes = {}
        units = {name: per_layer_units(name) for name in report}
        print("share of instance time by module (self time): "
              + ", ".join(f"{m} {s:.3f}" for m, s in shares.most_common()))
    for name, value in report.items():
        note = f" ({notes[name]})" if name in notes else ""
        print(f"{name} = {value:.6g} {units[name]}{note}")

    correct = ok and not state.rejected and not state.changed
    result = {
        "correct": correct,
        "attempted": state.executions,
        "failed": state.executions - state.verdicts,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in report.items()},
    }
    print(json.dumps(result))
    return 0 if correct else 1


def run_all(args):
    """Every workload untraced then traced, in child processes; compare the two."""
    status = 0
    rows = []
    for name in workloads.WORKLOADS:
        outputs = []
        for traced in (0, 1):
            cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(traced)]
            proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
            print(f"## {name} trace={traced} (exit {proc.returncode})")
            print(proc.stdout, end="")
            if proc.returncode != 0:
                status = 1
                print(proc.stderr, end="", file=sys.stderr)
            outputs.append(proc.stdout.splitlines())
        untraced, traced_out = outputs
        try:
            plain = json.loads(untraced[-1])["metrics"]
            layered = json.loads(traced_out[-1])["metrics"]
        except (IndexError, ValueError, KeyError):
            status = 1
            continue
        digests = [next((l for l in out if l.startswith("digest ")), "").split()[1:2] for out in outputs]
        same = digests[0] == digests[1] and digests[0] != []
        if not same:
            status = 1
        rows.append((name, plain, layered, same))
    print("## summary")
    for name, plain, layered, same in rows:
        overhead = layered["trace.verdicts_per_s"]["value"] / plain["verdicts_per_s"]["value"]
        print(f"{name}: " + ", ".join(f"{k} {v['value']:.4g} {v['unit']}" for k, v in plain.items()))
        print(f"{name}: traced throughput {overhead:.3f} of untraced, unaccounted share "
              f"{layered['trace.unaccounted_share']['value']:.3f}, traced and untraced verdicts identical: {same}")
    return status


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--corrupt", action="store_true",
                        help="corrupt every verdict before checking it; the run must fail")
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
