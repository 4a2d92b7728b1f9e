"""One instance from graph text to a verified verdict, as the CLI would do it.

``produce`` follows ``oddcluster colour`` / ``oddcluster pipeline``: parse,
decompose (exact treewidth up to the exact cap, min-fill above it; the
pipeline decides this itself), colour or certify, and emit the JSON the CLI
prints.  ``check`` then plays ``oddcluster verify`` on that JSON, but against
budgets the benchmark computes itself, so a verdict that breaks the paper's
bounds is rejected even if it is self-consistent.

Every package call goes through a module attribute (``lib.io.parse_graph``,
not a name imported here), so the traced run can rebind it.  ``check`` is
the benchmark's own work: the traced run times it as a span of its own, and
it calls ``make_colouring`` unwrapped, so the package's layer figures count
only what producing the verdict cost.
"""

import hashlib
import json
from dataclasses import dataclass


def colour_bound(h):
    """f(h) = 3*2^(h-1) - 2, recomputed here rather than taken from the package."""
    return 3 * 2 ** (h - 1) - 2


def cluster_bound(d, w):
    """d*w + d - w for decomposition width w."""
    return d * w + d - w


@dataclass
class Verdict:
    kind: str  # "colouring" | "certificate" | "rejected" | "error"
    text: str  # emitted JSON, or the exception type for an error
    ok: bool = False
    why: str = None
    colours_use: float = 0.0
    cluster_use: float = 0.0

    @property
    def digest(self):
        return hashlib.sha256(f"{self.kind}\n{self.text}".encode()).hexdigest()


def emit(lib, g, out, budgets=None):
    """The JSON that ``oddcluster colour``/``pipeline`` prints for ``out``."""
    if isinstance(out, lib.colouring.OddModelCertificate):
        obj = lib.io.certificate_to_json(out)
    else:
        obj = lib.io.colouring_to_json(g, out, budgets)
    return json.dumps(obj, indent=2) + "\n"


def produce(lib, inst):
    """Returns (graph, result object, emitted JSON, (colour budget, cluster budget))."""
    g = lib.io.parse_graph(inst.graph_text)
    if inst.mode == "pipeline":
        pattern = lib.io.parse_graph(inst.pattern_text)
        partition = lib.io.parse_partition(inst.partition_text, g.n)
        out = lib.colouring.colour_pipeline(g, pattern, partition)
        budgets = (2 * colour_bound(inst.h), cluster_bound(inst.d, inst.width))
        return g, out, emit(lib, g, out), budgets
    dec_mod = lib.decomposition
    if g.n <= dec_mod.EXACT_TREEWIDTH_CAP:
        dec = dec_mod.exact_treewidth(g)[1]
    else:
        dec = dec_mod.heuristic_decomposition(g)
    out = lib.colouring.colour_bounded_tw(g, inst.h, inst.d, dec)
    w = max(dec.width, 0)
    budgets = (colour_bound(inst.h), cluster_bound(inst.d, w))
    return g, out, emit(lib, g, out, lib.colouring.Budgets(h=inst.h, d=inst.d, w=w)), budgets


def unwrapped(fn):
    """The package function behind a traced-run wrapper (``fn`` itself when untraced)."""
    return getattr(fn, "__wrapped__", fn)


def check_colouring(lib, g, data, budgets):
    max_colours, max_cluster = budgets
    colours = data["colours"]
    if len(colours) != g.n:
        return False, f"{len(colours)} colours for {g.n} vertices", 0.0, 0.0
    declared = data.get("budgets")
    if declared is not None and declared != {"colours": max_colours, "clustering": max_cluster}:
        return False, f"declared budgets {declared} != ({max_colours}, {max_cluster})", 0.0, 0.0
    colouring = unwrapped(lib.colouring.make_colouring)(g, dict(enumerate(colours)))
    ok, why = lib.oracles.verify_colouring(g, colouring, max_colours, max_cluster)
    return ok, why, colouring.num_colours / max_colours, colouring.max_cluster / max_cluster


def check_certificate(lib, g, out, data, inst):
    if (data["h"], data["d"]) != (inst.h, inst.d):
        return False, f"certificate for U_{{{data['h']},{data['d']}}}, expected U_{{{inst.h},{inst.d}}}"
    if out is not None and out.model.pattern != lib.treedepth.u_graph(inst.h, inst.d):
        return False, "certificate pattern is not U_{h,d}"
    cert = lib.io.certificate_from_json(data)
    ok, why = lib.oddmodel.verify_model(g, cert.model)
    if ok:
        ok, why = lib.oddmodel.verify_odd_witness(g, cert.model, cert.witness)
    if ok and not lib.oddmodel.is_nontrivial(cert.model):
        ok, why = False, "model is trivial (a branch set has fewer than 2 vertices)"
    return ok, why


def check(lib, inst, g, out, text, budgets):
    """Verify emitted JSON; any exception while checking is a rejection."""
    try:
        data = json.loads(text)
        if "branch_sets" in data:
            ok, why = check_certificate(lib, g, out, data, inst)
            return Verdict("certificate", text, ok, why)
        ok, why, colours_use, cluster_use = check_colouring(lib, g, data, budgets)
        return Verdict("colouring", text, ok, why, colours_use, cluster_use)
    except Exception as exc:  # a malformed verdict must fail the check, not the run
        return Verdict("rejected", text, False, f"{type(exc).__name__}: {exc}")


def run_instance(lib, inst, corrupt=False):
    """Graph text to verified verdict.  Package exceptions become ``error`` verdicts.

    ``corrupt`` damages the emitted JSON before it is checked, to show that
    the check rejects it and the run fails.
    """
    try:
        g, out, text, budgets = produce(lib, inst)
    except Exception as exc:  # ResourceLimitError, RecursionError, anything: counted by type
        return Verdict("error", type(exc).__name__, why=str(exc)[:200])
    if corrupt:
        text = corrupt_verdict(lib, g, text, budgets)
        out = None
    return check(lib, inst, g, out, text, budgets)


def corrupt_verdict(lib, g, text, budgets):
    data = json.loads(text)
    if "branch_sets" in data:
        return json.dumps(drop_branch_vertex(data), indent=2) + "\n"
    return json.dumps(merge_clusters(lib, g, data, budgets[1]), indent=2) + "\n"


def drop_branch_vertex(data):
    """Remove one vertex from the largest branch set, leaving its tree edges."""
    sets = data["branch_sets"]
    biggest = max(range(len(sets)), key=lambda x: len(sets[x]))
    sets[biggest].pop()
    return data


def merge_clusters(lib, g, data, max_cluster):
    """Merge the largest cluster with its neighbours' clusters until it exceeds ``max_cluster``."""
    colours = list(data["colours"])

    def cluster_of(v):
        comps = lib.colouring.monochromatic_components(g, dict(enumerate(colours)))
        return next(c for c in comps if v in c)

    start = max(lib.colouring.monochromatic_components(g, dict(enumerate(colours))), key=len)[0]
    cluster = cluster_of(start)
    while len(cluster) <= max_cluster:
        members = set(cluster)
        outside = [u for v in cluster for u in g.adj[v] if u not in members]
        if not outside:
            break
        for v in cluster_of(min(outside)):
            colours[v] = colours[start]
        cluster = cluster_of(start)
    return dict(data, colours=colours)
