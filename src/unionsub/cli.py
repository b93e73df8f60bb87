"""Command-line surface: coeffs, distinguish, gen, bench, train.

Exit codes: 0 success, 1 parse, input or output error, 2 descriptor error.
Diagnostics go to standard error; primary outputs are byte-identical across
runs for fixed seeds (timings excluded).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import random
import sys
import time
import warnings
from pathlib import Path

import numpy as np

from . import wl
from .datasets import (
    build_cycle_dataset,
    read_corpus,
    read_dataset,
    read_graph_file,
    split_dataset,
    write_dataset,
)
from .descriptors import (
    Descriptor,
    DescriptorError,
    check_cycle_length,
    coefficient_table,
    convert_parameter,
    cycle_count,
)
from .graphs import (
    MAX_PARSED_NODES, GraphError, GraphParseError, complete_graph, cycle_graph, path_graph,
    random_graph, rook_graph_4x4, shrikhande_graph, two_triangles_graph,
)
from .neural import DEFAULT_BATCH_SIZE, ModelSpec, params_to_json_obj, train_classifier

EXIT_OK = 0
EXIT_PARSE = 1
EXIT_DESCRIPTOR = 2
MAX_ALL_PAIRS_NODES = 1448  # bound of the specs that visit all n(n-1)/2 node pairs


def _write_output(text, out_path):
    if out_path is None:
        sys.stdout.write(text)
    else:
        Path(out_path).write_text(text, encoding="ascii")


def cmd_coeffs(args):
    g = read_graph_file(args.graph)
    table = coefficient_table(g, Descriptor.parse(args.kind))
    if args.format == "json":
        text = json.dumps(table.to_json_obj(), indent=2) + "\n"
    else:
        text = table.to_csv_text()
    _write_output(text, args.out)
    return EXIT_OK


def cmd_distinguish(args):
    g1 = read_graph_file(args.graph1)
    g2 = read_graph_file(args.graph2)
    verdict = wl.distinguish_pair(g1, g2, Descriptor.parse(args.kind))
    sys.stdout.write(json.dumps(verdict.to_json_obj()) + "\n")
    return EXIT_OK


def _one_int(params, least=-math.inf, most=math.inf):
    (n,) = map(int, params)  # ValueError unless exactly one integer
    if not least <= n <= most:
        raise ValueError
    return (n,)


def _er_params(params):
    lo_text, _, hi_text = (params[0] if params and params[0] else "20-50").partition("-")
    lo, hi = int(lo_text), int(hi_text or lo_text)
    avg_degree = float(params[1]) if len(params) > 1 else 3.7
    if (len(params) > 2 or not 2 <= lo <= hi <= MAX_ALL_PAIRS_NODES
            or not 0 < avg_degree < math.inf):
        raise ValueError
    return lo, hi, avg_degree


def _er_graphs(lo, hi, avg_degree, count, seed):
    rng = random.Random(seed)
    sizes = (rng.randint(lo, hi) for _ in range(count))  # each drawn before its graph
    graphs = [random_graph(n, min(1.0, avg_degree / (n - 1)), rng) for n in sizes]
    return graphs, [0] * count


def _sized(least, make, most=MAX_PARSED_NODES):
    return (f":N ({least} <= N <= {most})", lambda p: _one_int(p, least, most),
            lambda n: [make(n)], False)


def _fixed(*makes):
    def parse(params):
        if params:
            raise ValueError
        return ()
    return "", parse, lambda: [make() for make in makes], False


# Every `gen` spec NAME[:PARAM...]: name -> (PARAM form for help and errors,
# parser of the PARAM texts into maker arguments, ValueError if malformed,
# maker, sampled).  A sampled maker also takes count and seed and returns
# (graphs, labels); any other returns its fixed graphs.
GEN_SPECS = {
    "cycle": _sized(3, cycle_graph),
    "complete": _sized(1, complete_graph, MAX_ALL_PAIRS_NODES),  # K_1449: > 2^20 edges
    "path": _sized(1, path_graph),
    "rook4x4": _fixed(rook_graph_4x4),
    "shrikhande": _fixed(shrikhande_graph),
    "two-triangles-vs-c6": _fixed(two_triangles_graph, lambda: cycle_graph(6)),
    "four-cycle-pair": ("[:K] (K default 4)", lambda params: _one_int(params or ["4"]),
                        build_cycle_dataset, True),
    "er": (f"[:LO-HI[:DEG]] (2 <= LO <= HI <= {MAX_ALL_PAIRS_NODES}, DEG > 0, "
           "default 20-50:3.7)", _er_params, _er_graphs, True),
}
GEN_FORMS = " | ".join(name + form for name, (form, *_) in GEN_SPECS.items())


def _gen_graphs(spec_text, count, seed):
    """Graphs and labels for a spec; count None takes the spec's default."""
    name, *params = spec_text.split(":")
    if name not in GEN_SPECS:
        raise GraphParseError(f"unknown spec {spec_text!r}; expected {GEN_FORMS}")
    form, parse, make, sampled = GEN_SPECS[name]
    try:
        args = parse(params)
    except ValueError:
        raise GraphParseError(f"invalid spec {spec_text!r}: expected {name}{form}") from None
    if sampled:
        return make(*args, 2 if count is None else count, seed)
    graphs = make(*args)
    if count is not None and count != len(graphs):
        raise GraphError(
            f"{spec_text} makes {len(graphs)} graph(s); --count must be "
            f"{len(graphs)} or omitted, got {count}"
        )
    return graphs, [0] * len(graphs)


def cmd_gen(args):
    if args.count is not None and args.count < 1:
        raise GraphError(f"count must be at least 1, got {args.count}")
    graphs, labels = _gen_graphs(args.spec, args.count, args.seed)
    write_dataset(args.out, graphs, labels)
    sys.stderr.write(f"wrote {len(graphs)} graphs to {args.out}\n")
    return EXIT_OK


BENCH_KINDS = ("count-ne", "union-path", "betweenness", "curvature", "cycle-count:6")


def _bench_call(kind_text):
    """The per-graph call a bench kind times: a descriptor's coefficient_table,
    or for the bench-only cycle-count[:K] (K default 6) its simple K-cycles."""
    name, sep, _ = kind_text.partition(":")
    if name != "cycle-count":
        kind = Descriptor.parse(kind_text)
        return lambda g: coefficient_table(g, kind)
    k = convert_parameter(kind_text, int) if sep else 6
    check_cycle_length(k)  # refused here, before any kind is timed
    return lambda g: cycle_count(g, k)


def _time_kind(call, graphs):
    """Wall-clock one full pass of a bench kind's per-graph call over the corpus."""
    with warnings.catch_warnings():
        # normalization fallbacks are reported by `coeffs`; here only time counts
        warnings.filterwarnings("ignore", "coefficients around .* sum to ~0", RuntimeWarning)
        start = time.perf_counter()
        for g in graphs:
            call(g)
        return time.perf_counter() - start


def _environment():
    """What a bench report's times depend on beside the code: the python and
    numpy versions, the BLAS numpy was built with and its thread cap, and the
    usable processors.  The cap is OPENBLAS_NUM_THREADS, else OMP_NUM_THREADS,
    as an int; null when neither is set, BLAS's default of one thread per
    processor."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (KeyError, TypeError):  # numpy before 1.25 has no mode
        blas = {}
    threads = next((int(os.environ[name]) for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
                    if os.environ.get(name, "").strip().isdigit()), None)
    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": {"name": blas.get("name"), "version": blas.get("version"),
                     "threads": threads}, "nproc": nproc}


def run_bench(graphs, kinds, repeats):
    """Median-of-repeats wall times per kind on the identical corpus, with
    the environment they were measured in."""
    if repeats < 1:
        raise GraphError(f"repeats must be at least 1, got {repeats}")
    total_edges = sum(g.num_edges for g in graphs)
    if not total_edges:
        raise GraphError("the corpus has no edges, so no per-edge time")
    report = {
        "graphs": len(graphs),
        "edges": total_edges,
        "repeats": repeats,
        "env": _environment(),
        "kinds": {},
    }
    calls = {kind_text: _bench_call(kind_text) for kind_text in kinds}  # all parsed first
    for kind_text, call in calls.items():
        times = sorted(_time_kind(call, graphs) for _ in range(repeats))
        median = times[len(times) // 2]
        report["kinds"][kind_text] = {
            "seconds": median,
            "edges": total_edges,
            "us_per_edge": median / total_edges * 1e6,
        }
    return report


def cmd_bench(args):
    graphs = read_corpus(args.corpus)
    kinds = args.kinds.split(",") if args.kinds is not None else list(BENCH_KINDS)
    report = run_bench(graphs, kinds, args.repeats)
    text = json.dumps(report, indent=2) + "\n"
    _write_output(text, args.out)
    return EXIT_OK


def _check_out_dir(path):
    """Refuse a ``train --out`` that cannot become a directory before any
    training, since the outputs are written only after the last epoch."""
    for parent in (path, *path.parents):
        if parent.exists():
            if not parent.is_dir():
                raise NotADirectoryError(f"{parent} exists and is not a directory")
            return


def cmd_train(args):
    out_dir = Path(args.out or ".")
    _check_out_dir(out_dir)
    dataset = read_dataset(args.dataset)
    train, val, test = split_dataset(dataset)
    spec = ModelSpec.parse(args.model, hidden=args.hidden)
    report = train_classifier(
        train, val, test, spec, epochs=args.epochs, seed=args.seed,
        batch_size=args.batch_size,
    )
    out_dir.mkdir(parents=True, exist_ok=True)
    curve_path = out_dir / "training_log.csv"
    with open(curve_path, "w", encoding="ascii") as fh:
        fh.write("epoch,train_loss,val_acc\n")
        for epoch, loss, val_acc in report.loss_curve:
            fh.write(f"{epoch},{loss:.10g},{val_acc:.10g}\n")
    ckpt_path = out_dir / "checkpoint.json"
    ckpt_path.write_text(
        json.dumps(params_to_json_obj(report.model)) + "\n", encoding="ascii"
    )
    metrics = {
        "model": args.model,
        "epochs": args.epochs,
        "seed": args.seed,
        "train_acc": report.train_acc,
        "val_acc": report.val_acc,
        "test_acc": report.test_acc,
        "training_log": str(curve_path),
        "checkpoint": str(ckpt_path),
    }
    sys.stdout.write(json.dumps(metrics, indent=2) + "\n")
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, allow_abbrev=False, **kwargs):  # a flag's prefix is no flag
        super().__init__(*args, allow_abbrev=allow_abbrev, **kwargs)

    def error(self, message):  # one line and exit 1, not the usage block and exit 2
        self.exit(EXIT_PARSE, f"{self.prog}: error: {message}\n")


def build_parser():
    parser = _Parser(
        prog="unionsub",
        description="Union-subgraph structural coefficients and harnesses",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("coeffs", help="per-edge coefficient table for one graph")
    p.add_argument("graph")
    p.add_argument("--kind", default="union-path")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--out")
    p.set_defaults(func=cmd_coeffs)

    p = sub.add_parser("distinguish", help="1-WL vs coefficient verdict for a pair")
    p.add_argument("graph1")
    p.add_argument("graph2")
    p.add_argument("--kind", default="union-path")
    p.set_defaults(func=cmd_distinguish)

    p = sub.add_parser("gen", help="generate graphs or datasets")
    p.add_argument("spec", help=GEN_FORMS)
    sampled = " and ".join(name for name, row in GEN_SPECS.items() if row[-1])
    p.add_argument("--count", type=int,
                   help=f"graphs to make; default 2 for {sampled}, else fixed by the spec")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("bench", help="descriptor preprocessing-time comparison")
    p.add_argument("corpus")
    p.add_argument("--kinds", help="comma-separated descriptor kinds or cycle-count[:K]")
    p.add_argument("--repeats", type=int, default=3)
    p.add_argument("--out")
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("train", help="train a toy graph classifier on a dataset")
    p.add_argument("dataset")
    p.add_argument("--model", default="union-gcn", choices=ModelSpec.NAMES)
    p.add_argument("--epochs", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--hidden", type=int, default=ModelSpec.hidden)
    p.add_argument("--batch-size", type=int, default=DEFAULT_BATCH_SIZE)
    p.add_argument("--out")
    p.set_defaults(func=cmd_train)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except GraphParseError as exc:
        sys.stderr.write(f"parse error: {exc}\n")
        return EXIT_PARSE
    except DescriptorError as exc:
        sys.stderr.write(f"descriptor error: {exc}\n")
        return EXIT_DESCRIPTOR
    except (GraphError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_PARSE


if __name__ == "__main__":
    sys.exit(main())
