"""Command-line interface.

Exit codes: 0 success/found, 1 not-found or verification failure,
2 resource/parse error or a bad command line (an argument out of range
included), 3 certificate arm of `colour`/`pipeline`.
"""

import argparse
import functools
import json
import sys

from .colouring import (
    D_MAX,
    H_MAX,
    Budgets,
    OddModelCertificate,
    colour_bounded_tw,
    colour_pipeline,
    make_colouring,
    verify_certificate,
)
from .decomposition import EXACT_TREEWIDTH_CAP, decompose, exact_treewidth, validate_decomposition
from .errors import OddClusterError, ParseError, ResourceLimitError
from .graph import MAX_VERTICES
from .generators import (
    complete_graph,
    cycle_graph,
    random_partial_ktree,
    star_graph,
)
from .io import (
    certificate_from_json,
    certificate_to_json,
    colouring_from_json,
    colouring_to_json,
    decomposition_from_json,
    decomposition_to_json,
    forest_to_json,
    model_to_json,
    parse_graph,
    parse_json,
    parse_partition,
    serialize_graph,
)
from .oddmodel import FIND_MODEL_CAP, find_odd_model
from .oracles import verify_colouring
from .treedepth import TREE_DEPTH_CAP, connected_tree_depth, tree_depth, u_graph

EXIT_OK = 0
EXIT_NOT_FOUND = 1
EXIT_RESOURCE = 2
EXIT_CERTIFICATE = 3


class _Parser(argparse.ArgumentParser):
    """Reports a bad command line in one line on stderr, with exit 2."""

    def error(self, message):
        self.exit(EXIT_RESOURCE, f"{self.prog}: error: {message}\n")


def _int_in(lo, hi=None):
    """An argparse type: an integer in lo..hi, or at least lo when hi is None.

    ``hi`` is a cap, so a value above it is reported as a resource limit.
    """

    def integer(text):
        value = int(text)  # argparse reports a ValueError as "invalid integer value"
        span = f">= {lo}" if hi is None else f"in {lo}..{hi}"
        if value < lo:
            raise argparse.ArgumentTypeError(f"expected an integer {span}, got {value}")
        if hi is not None and value > hi:  # the value itself may run to thousands of digits
            raise argparse.ArgumentTypeError(f"resource limit: expected an integer {span}")
        return value

    return integer


def _float_in(lo, hi):
    """An argparse type: a number in [lo, hi]; nan and the infinities fall outside."""

    def number(text):
        value = float(text)  # argparse reports a ValueError as "invalid number value"
        if not lo <= value <= hi:
            raise argparse.ArgumentTypeError(f"expected a number in [{lo}, {hi}], got {value}")
        return value

    return number


def _read(path):
    """The text of a file, or of stdin for ``-``, decoded as UTF-8 whatever the locale."""
    if path == "-":
        data = sys.stdin.buffer.read()
    else:
        with open(path, "rb") as fh:
            data = fh.read()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(None, f"input is not UTF-8 ({exc.reason} at byte {exc.start})") from None


def _load_graph(path):
    return parse_graph(_read(path))


def _emit(obj):
    json.dump(obj, sys.stdout, indent=2)
    sys.stdout.write("\n")


def cmd_gen(args):
    if args.family == "u":
        g = u_graph(args.h, args.d)
    elif args.family == "partial-ktree":
        g = random_partial_ktree(args.n, args.k, args.seed, edge_keep=args.edge_keep)
    elif args.family == "cycle":
        g = cycle_graph(args.n)
    elif args.family == "complete":
        g = complete_graph(args.n)
    else:
        g = star_graph(args.n)
    sys.stdout.write(serialize_graph(g))
    return EXIT_OK


def cmd_metric(args):
    g = _load_graph(args.graph)
    if args.metric == "ctd" and g.n == 0:
        raise OddClusterError("connected tree-depth needs at least one vertex")
    if args.metric == "tw":
        value, dec = exact_treewidth(g, cap=args.cap or EXACT_TREEWIDTH_CAP)
        witness = decomposition_to_json(dec)
    else:
        search = tree_depth if args.metric == "td" else connected_tree_depth
        value, parent = search(g, cap=args.cap or TREE_DEPTH_CAP)
        witness = forest_to_json(parent)
    _emit({"metric": args.metric, "value": value, "witness": witness})
    return EXIT_OK


def cmd_odd_minor(args):
    g = _load_graph(args.graph)
    h = _load_graph(args.pattern)
    found = find_odd_model(g, h, require_nontrivial=args.nontrivial, cap=args.cap or FIND_MODEL_CAP)
    if found is None:
        _emit({"found": False})
        return EXIT_NOT_FOUND
    _emit({"found": True, **model_to_json(*found)})
    return EXIT_OK


def _load_decomposition(g, path):
    dec = decomposition_from_json(parse_json(_read(path)))
    ok, why = validate_decomposition(g, dec)
    if not ok:
        raise OddClusterError(f"supplied decomposition is invalid: {why}")
    return dec


def _emit_result(g, out, budgets):
    """Print a colouring (exit 0) or a certificate (exit 3)."""
    if isinstance(out, OddModelCertificate):
        _emit(certificate_to_json(out))
        return EXIT_CERTIFICATE
    _emit(colouring_to_json(g, out, budgets))
    return EXIT_OK


def cmd_colour(args):
    g = _load_graph(args.graph)
    dec = _load_decomposition(g, args.decomposition) if args.decomposition else decompose(g)
    out = colour_bounded_tw(g, args.h, args.d, dec, cap=args.cap or FIND_MODEL_CAP)
    return _emit_result(g, out, Budgets(h=args.h, d=args.d, w=max(dec.width, 0)))


def cmd_pipeline(args):
    g = _load_graph(args.graph)
    h = _load_graph(args.pattern)
    if h.n == 0:
        raise OddClusterError("the pattern needs at least one vertex")
    partition = None
    if args.partition:
        partition = parse_partition(_read(args.partition), g.n)
    out = colour_pipeline(g, h, partition, cap=args.cap or FIND_MODEL_CAP)
    return _emit_result(g, out, None)


def cmd_verify(args):
    g = _load_graph(args.graph)
    data = parse_json(_read(args.artifact))
    if args.what == "model":
        ok, why = verify_certificate(g, certificate_from_json(data))
    elif args.what == "decomposition":
        ok, why = validate_decomposition(g, decomposition_from_json(data))
    else:
        colours, budgets = colouring_from_json(data, g.n)
        colouring = make_colouring(g, dict(enumerate(colours)))
        max_colours = budgets.get("colours") if args.max_colours is None else args.max_colours
        max_cluster = budgets.get("clustering") if args.max_cluster is None else args.max_cluster
        if max_colours is None:
            ok, why = False, "the artifact declares no colour budget and --max-colours is not given"
        elif max_cluster is None:
            ok, why = False, "the artifact declares no cluster budget and --max-cluster is not given"
        else:
            ok, why = verify_colouring(g, colouring, max_colours, max_cluster)
    _emit({"ok": ok, "violation": why})
    return EXIT_OK if ok else EXIT_NOT_FOUND


@functools.lru_cache(maxsize=None)
def build_parser():
    """Built once per process: a parse leaves the parser unchanged and returns a new namespace."""
    parser = _Parser(
        prog="oddcluster",
        description="Clustered colouring under excluded odd minors: metrics, "
        "model search, colouring runs and certificate verification.",
    )
    parser.add_argument(
        "--cap",
        type=_int_in(1),
        help="the odd-model region cap (odd-minor; per layer component in colour, pipeline), "
        "the exact-treewidth cap (metric tw) or the tree-depth cap (metric td/ctd)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a graph as an edge list")
    gensub = p.add_subparsers(dest="family", required=True)
    pu = gensub.add_parser("u")
    pu.add_argument("--h", type=_int_in(1), required=True)
    pu.add_argument("--d", type=_int_in(1), required=True)
    pk = gensub.add_parser("partial-ktree")
    pk.add_argument("--n", type=_int_in(1, MAX_VERTICES), required=True)
    pk.add_argument("--k", type=_int_in(0), required=True)
    pk.add_argument("--seed", type=int, required=True)
    pk.add_argument("--edge-keep", type=_float_in(0, 1), default=0.8)
    for fam, least in (("cycle", 3), ("complete", 0), ("star", 1)):
        pf = gensub.add_parser(fam)
        pf.add_argument("--n", type=_int_in(least, MAX_VERTICES), required=True)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("metric", help="tree-depth, connected tree-depth or treewidth")
    p.add_argument("metric", choices=["td", "ctd", "tw"])
    p.add_argument("graph")
    p.set_defaults(func=cmd_metric)

    p = sub.add_parser("odd-minor", help="search for an odd pattern-model")
    p.add_argument("graph")
    p.add_argument("pattern")
    p.add_argument("--nontrivial", action="store_true")
    p.set_defaults(func=cmd_odd_minor)

    p = sub.add_parser("colour", help="clustered colouring or U_{h,d} certificate")
    p.add_argument("graph")
    p.add_argument("--h", type=_int_in(1, H_MAX), required=True)
    p.add_argument("--d", type=_int_in(1, D_MAX), required=True)
    p.add_argument("--decomposition", default=None)
    p.set_defaults(func=cmd_colour)

    p = sub.add_parser("pipeline", help="full run against an excluded pattern H")
    p.add_argument("graph")
    p.add_argument("pattern")
    p.add_argument("--partition", default=None)
    p.set_defaults(func=cmd_pipeline)

    p = sub.add_parser("verify", help="check a colouring/model/decomposition artifact")
    p.add_argument("what", choices=["colouring", "model", "decomposition"])
    p.add_argument("graph")
    p.add_argument("artifact")
    p.add_argument("--max-colours", type=_int_in(1), default=None)
    p.add_argument("--max-cluster", type=_int_in(1), default=None)
    p.set_defaults(func=cmd_verify)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ResourceLimitError as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except OddClusterError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except MemoryError:
        print("resource limit: out of memory", file=sys.stderr)
        return EXIT_RESOURCE
    except RecursionError:
        print("resource limit: recursion depth exceeded", file=sys.stderr)
        return EXIT_RESOURCE


if __name__ == "__main__":
    sys.exit(main())
