"""Layer spans recorded from outside the package, for the traced run only.

``install`` rebinds the package functions that consumer modules imported
(``oddcluster.colouring.find_odd_model``, ``oddcluster.eposa.postorder``,
...) to wrappers that open a span around each call and count work at the
same boundary.  ``restore`` puts the originals back.  The untraced run never
calls ``install``; ``assert_untraced`` checks that every binding is still
the imported function.

A span is ``[layer, start, end, parent span, instance id, outermost]``.
Self time is a span's duration minus the durations of its direct children.
``outermost`` is false for a span nested inside another span of the same
layer, so layer totals do not count recursion twice.
"""

import functools
from collections import Counter, defaultdict
from time import perf_counter

INSTANCE = "instance"
ORACLE = "colouring.oracle"
# The verdict check is benchmark code: its self time is glue, like the
# instance span's, and its wrapped children (verify_colouring, verify_model,
# verify_odd_witness) are counted in their own layers.
CHECK = "verdict.check"
GLUE = (INSTANCE, CHECK)


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.active = Counter()
        self.instance = -1
        self.count = Counter()
        self.peak = defaultdict(float)

    def open(self, layer):
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([layer, perf_counter(), 0.0, parent, self.instance, self.active[layer] == 0])
        self.active[layer] += 1
        self.stack.append(idx)
        return idx

    def close(self, idx):
        span = self.spans[idx]
        span[2] = perf_counter()
        self.active[span[0]] -= 1
        self.stack.pop()

    def raise_peak(self, key, value):
        if value > self.peak[key]:
            self.peak[key] = value


def _wrap(tracer, layer, fn, after=None, adapt=None):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        if adapt is not None:
            args = adapt(tracer, args)
        idx = tracer.open(layer)
        try:
            result = fn(*args, **kwargs)
        except BaseException as exc:
            tracer.close(idx)
            if after is not None:
                after(tracer, args, kwargs, None, exc)
            raise
        tracer.close(idx)
        if after is not None:
            after(tracer, args, kwargs, result, None)
        return result

    traced.traced_layer = layer
    return traced


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs.get(name)


def _after_restrict(tracer, args, kwargs, result, exc):
    tracer.count["restrict_bags_scanned"] += len(args[0].bags)
    if result is not None:
        tracer.count["restrict_bags_out"] += len(result.bags)
        tracer.count["restrict_bags_kept"] += sum(1 for bag in result.bags if bag)


def _after_induced(tracer, args, kwargs, result, exc):
    tracer.count["induced_edges_scanned"] += args[0].m
    if result is not None:
        tracer.count["induced_edges_kept"] += result[0].m


def _after_bfs_layers(tracer, args, kwargs, result, exc):
    if result is not None:
        tracer.count["layers"] += len(result.layers)


def _after_colour_bounded_tw(tracer, args, kwargs, result, exc):
    tracer.raise_peak("width_max", _arg(args, kwargs, 3, "dec").width)


def _adapt_dichotomy(tracer, args):
    g, dec, oracle, *rest = args

    def traced_oracle(region):
        tracer.count["oracle_calls"] += 1
        idx = tracer.open(ORACLE)
        try:
            return oracle(region)
        finally:
            tracer.close(idx)

    return (g, dec, traced_oracle, *rest)


def _after_dichotomy(tracer, args, kwargs, result, exc):
    if result is None:
        return
    if result.is_disjoint_arm:
        tracer.count["disjoint_arm"] += 1
        return
    ell = _arg(args, kwargs, 3, "ell")
    bound = (ell - 1) * (args[1].width + 1)
    if bound > 0:
        tracer.raise_peak("hitting_bound_use", len(result.hitting_set) / bound)


def _after_search(tracer, args, kwargs, result, exc):
    region = _arg(args, kwargs, 2, "region")
    tracer.raise_peak("region_max", len(region) if region is not None else args[0].n)
    if exc is not None:
        if type(exc).__name__ == "ResourceLimitError":
            tracer.count["cap_errors"] += 1
    elif result is not None:
        tracer.count["found"] += 1


def _after_assemble(tracer, args, kwargs, result, exc):
    if result is not None:
        tracer.count["certificates"] += 1


# (layer, module, function name, after-hook, argument adapter)
BINDINGS = [
    ("io.parse", "io", "parse_graph", None, None),
    ("io.parse", "io", "parse_partition", None, None),
    ("io.emit", "verdict", "emit", None, None),
    (CHECK, "verdict", "check", None, None),
    ("decomposition.minfill", "decomposition", "heuristic_decomposition", None, None),
    ("decomposition.exact", "decomposition", "exact_treewidth", None, None),
    ("decomposition.restrict", "colouring", "restrict_decomposition", _after_restrict, None),
    ("decomposition.walk", "eposa", "postorder", None, None),
    ("decomposition.walk", "eposa", "subtree_bag_unions", None, None),
    ("graph.induced", "colouring", "induced_subgraph", _after_induced, None),
    ("graph.bfs", "colouring", "bfs_layers", _after_bfs_layers, None),
    ("graph.bfs", "colouring", "connected_components", None, None),
    ("eposa.dichotomy", "colouring", "disjoint_or_hitting", _after_dichotomy, _adapt_dichotomy),
    ("oddmodel.search", "colouring", "find_odd_model", _after_search, None),
    ("oddmodel.verify", "colouring", "verify_model", None, None),
    ("oddmodel.verify", "colouring", "verify_odd_witness", None, None),
    ("oddmodel.verify", "oddmodel", "verify_model", None, None),
    ("oddmodel.verify", "oddmodel", "verify_odd_witness", None, None),
    ("treedepth.u_graph", "colouring", "u_graph", None, None),
    ("treedepth.ctd", "treedepth", "connected_tree_depth", None, None),
    ("colouring.colour", "colouring", "colour_bounded_tw", _after_colour_bounded_tw, None),
    ("colouring.colour", "colouring", "colour_pipeline", None, None),
    ("colouring.assemble", "colouring", "assemble_certificate", _after_assemble, None),
    ("colouring.cluster_check", "colouring", "make_colouring", None, None),
    ("oracles.verify", "oracles", "verify_colouring", None, None),
]


def install(tracer, modules):
    """Wrap every binding in ``BINDINGS``; returns the originals for ``restore``."""
    saved = []
    for layer, mod_name, attr, after, adapt in BINDINGS:
        module = modules[mod_name]
        original = getattr(module, attr)
        saved.append((module, attr, original))
        setattr(module, attr, _wrap(tracer, layer, original, after, adapt))
    return saved


def restore(saved):
    for module, attr, original in reversed(saved):
        setattr(module, attr, original)


def assert_untraced(modules):
    for _, mod_name, attr, _, _ in BINDINGS:
        if hasattr(getattr(modules[mod_name], attr), "traced_layer"):
            raise RuntimeError(f"{mod_name}.{attr} is wrapped in the untraced run")


def _times(spans):
    """Per-layer outermost total, self total and call count."""
    child = [0.0] * len(spans)
    for layer, start, end, parent, _, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    total, self_time, calls = Counter(), Counter(), Counter()
    for i, (layer, start, end, _, _, outermost) in enumerate(spans):
        calls[layer] += 1
        self_time[layer] += end - start - child[i]
        if outermost:
            total[layer] += end - start
    return total, self_time, calls


def _module(layer):
    return "unaccounted" if layer in GLUE else layer.split(".")[0]


def summarize(tracer, budget_use):
    """Per-layer metrics (per instance run) and each module's share of instance time."""
    total, self_time, calls = _times(tracer.spans)
    runs = max(calls[INSTANCE], 1)
    count, peak = tracer.count, tracer.peak

    def per_run(x):
        return x / runs

    def ratio(a, b):
        return a / b if b else 0.0

    metrics = {
        "decomposition.minfill_s": per_run(total["decomposition.minfill"]),
        "decomposition.exact_calls": per_run(calls["decomposition.exact"]),
        "decomposition.exact_s": per_run(total["decomposition.exact"]),
        "decomposition.width_max": peak["width_max"],
        "decomposition.restrict_calls": per_run(calls["decomposition.restrict"]),
        "decomposition.restrict_s": per_run(total["decomposition.restrict"]),
        "decomposition.restrict_bags_scanned": per_run(count["restrict_bags_scanned"]),
        "decomposition.restrict_keep_ratio": ratio(count["restrict_bags_kept"], count["restrict_bags_out"]),
        "decomposition.walk_s": per_run(total["decomposition.walk"]),
        "graph.induced_calls": per_run(calls["graph.induced"]),
        "graph.induced_s": per_run(total["graph.induced"]),
        "graph.induced_edges_scanned": per_run(count["induced_edges_scanned"]),
        "graph.induced_keep_ratio": ratio(count["induced_edges_kept"], count["induced_edges_scanned"]),
        "graph.bfs_s": per_run(total["graph.bfs"]),
        "eposa.calls": per_run(calls["eposa.dichotomy"]),
        "eposa.self_s": per_run(self_time["eposa.dichotomy"]),
        "eposa.oracle_calls": per_run(count["oracle_calls"]),
        "eposa.disjoint_arm": per_run(count["disjoint_arm"]),
        "eposa.hitting_bound_use": peak["hitting_bound_use"],
        "oddmodel.search_calls": per_run(calls["oddmodel.search"]),
        "oddmodel.search_s": per_run(total["oddmodel.search"]),
        "oddmodel.found_ratio": ratio(count["found"], calls["oddmodel.search"]),
        "oddmodel.region_max": peak["region_max"],
        "oddmodel.cap_errors": per_run(count["cap_errors"]),
        "oddmodel.memo_hit_ratio": ratio(count["oracle_calls"] - calls["oddmodel.search"], count["oracle_calls"]),
        "oddmodel.verify_s": per_run(total["oddmodel.verify"]),
        "treedepth.u_graph_calls": per_run(calls["treedepth.u_graph"]),
        "treedepth.u_graph_s": per_run(total["treedepth.u_graph"]),
        "treedepth.ctd_s": per_run(total["treedepth.ctd"]),
        "colouring.colour_s": per_run(total["colouring.colour"]),
        "colouring.self_s": per_run(self_time["colouring.colour"] + self_time[ORACLE]),
        "colouring.layers": per_run(count["layers"]),
        "colouring.certificates": per_run(count["certificates"]),
        "colouring.assemble_s": per_run(total["colouring.assemble"]),
        "colouring.cluster_check_s": per_run(total["colouring.cluster_check"]),
        "colouring.colour_budget_use": budget_use[0],
        "colouring.cluster_budget_use": budget_use[1],
        "io.parse_s": per_run(total["io.parse"]),
        "io.emit_s": per_run(total["io.emit"]),
        "oracles.verify_s": per_run(total["oracles.verify"]),
        "trace.unaccounted_share": ratio(sum(self_time[layer] for layer in GLUE), total[INSTANCE]),
    }
    shares = Counter()
    for layer, t in self_time.items():
        shares[_module(layer)] += ratio(t, total[INSTANCE])
    return metrics, shares

