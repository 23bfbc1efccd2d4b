"""Batch command line interface.

Subcommands wire the library into reproducible file-to-file experiments:
build-model assembles a jumping model from a subtype alignment, simulate
writes recombinant queries with their truth, decode annotates queries,
and bench sweeps decoders over a parameter grid and reports accuracy.
All outputs are deterministic for a fixed config and seed; bench wall
times therefore go to a separate timing sidecar, never into the metrics
CSV.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

from ._files import create
from .gain import GainParams, decode_from_posteriors, decode_grid, window_scores
from .inference import forward_backward, posterior_decode, viterbi_decode
from .jumping import JumpingHmmSpec, build_jumping_hmm
from .metrics import aggregate, base_accuracy, boundary_metrics
from .model import InvalidModelError, color_graph, load_model, save_model, sidecar_path
from .seqio import format_segments, read_fasta, read_segments, \
    read_subtype_alignment, segment_rows, write_fasta, write_segments
from .simulate import check_recombinant_args, random_recombinants

DECODERS = ("viterbi", "posterior", "herd")


def _parse_sweep(text, cast, flag, shown=str):
    """The values of a comma-separated grid flag, each distinct as `shown`
    prints it in file names and CSV cells."""
    values = []
    for v in filter(str.strip, text.split(",")):
        try:
            values.append(cast(v))
        except ValueError:
            raise ValueError(f"{flag} lists {v.strip()!r}, not a valid {cast.__name__}") from None
    if not values:
        raise ValueError(f"{flag} needs a nonempty comma-separated list")
    printed = {}
    for v in values:
        if v in printed.values():
            raise ValueError(f"{flag} lists the value {v} twice")
        other = printed.setdefault(shown(v), v)
        if other is not v:  # an earlier value prints alike; `is`, as nan != nan
            raise ValueError(f"{flag} lists {other} and {v}, which both print as {shown(v)}")
    return values


def _distinct_paths(*paths):
    """Refuse two of a command's (label, path) pairs, read or written, naming one file."""
    seen = {}
    for label, p in paths:
        key = os.path.realpath(p)
        if key in seen:
            raise ValueError(f"{label} and {seen[key]} point at the same path {p}")
        seen[key] = label


def _flag_named(flags, check, *args, **kwargs):
    """check(*args, **kwargs), a ValueError naming a parameter in `flags` renamed to its flag."""
    try:
        return check(*args, **kwargs)
    except ValueError as e:
        name, _, rest = str(e).partition(" ")
        if name not in flags:
            raise
        raise ValueError(f"{flags[name]} {rest}") from None


def cmd_build_model(args):
    _distinct_paths(("--in", args.input), ("--out", args.out),
                    ("--out's sidecar", sidecar_path(args.out)))
    spec = _flag_named({"jump_prob": "--pj", "pseudocount": "--pseudocount"},
                       JumpingHmmSpec, jump_prob=args.pj, pseudocount=args.pseudocount)
    msa = read_subtype_alignment(args.input)
    hmm = build_jumping_hmm(msa, spec)
    save_model(hmm, args.out)
    print(f"wrote model with {hmm.n_states} states, "
          f"{hmm.n_colors} subtypes to {args.out}")
    return 0


def cmd_simulate(args):
    _distinct_paths(("--in", args.input), ("--out", args.out), ("--truth", args.truth))
    _flag_named({"count": "--count", "breakpoint_range[1]": "--max-breakpoints",
                 "min_segment": "--min-segment", "mutation_rate": "--rate"},
                check_recombinant_args, args.count, (1, args.max_breakpoints),
                args.min_segment, args.rate)
    if args.seed < 0:
        raise ValueError(f"--seed must be an integer >= 0, not {args.seed}")
    msa = read_subtype_alignment(args.input)
    records = random_recombinants(
        msa, args.count, seed=args.seed,
        breakpoint_range=(1, args.max_breakpoints),
        min_segment=args.min_segment, mutation_rate=args.rate)
    names = [f"q{i:04d}" for i in range(len(records))]
    write_fasta(args.out, [(n, r.seq) for n, r in zip(names, records)])
    write_segments(args.truth, [(n, r.truth) for n, r in zip(names, records)],
                   list(msa.names))
    print(f"wrote {len(records)} queries to {args.out} and truth to {args.truth}")
    return 0


def _read_queries(path):
    """The FASTA records of a query file; segment tables key rows by record
    id, so a repeated id is refused."""
    records = read_fasta(path)
    seen = set()
    for rec in records:
        if rec.id in seen:
            raise ValueError(f"{path}: record id {rec.id!r} appears more than once")
        seen.add(rec.id)
    return records


def _decode_one(decoder, hmm, graph, seq, params):
    if decoder == "viterbi":
        return viterbi_decode(hmm, seq)[0]
    post = forward_backward(hmm, seq)
    if decoder == "posterior":
        return posterior_decode(post)
    return decode_from_posteriors(post, window_scores(post, params.window), params, graph)[0]


def cmd_decode(args):
    _distinct_paths(("--model", args.model), ("--model's sidecar", sidecar_path(args.model)),
                    ("--in", args.input), ("--out", args.out))
    params = _flag_named({"window": "--W", "gamma": "--gamma", "alpha": "--alpha"},
                         GainParams, window=args.W, gamma=args.gamma, alpha=args.alpha)
    hmm = load_model(args.model)
    graph = color_graph(hmm)
    records = _read_queries(args.input)
    entries = []
    for rec in records:
        try:
            entries.append((rec.id, _decode_one(args.decoder, hmm, graph, rec.seq, params)))
        except ValueError as e:
            raise ValueError(f"record {rec.id!r}: {e}") from None
    write_segments(args.out, entries, hmm.color_names)
    print(f"decoded {len(entries)} records to {args.out}")
    return 0


METRIC_COLUMNS = ("boundary_sensitivity", "boundary_precision", "boundary_f1",
                  "exact_f1", "base_accuracy")


def _bench_metrics(pred, truth, tolerance):
    at_tol = boundary_metrics(pred, truth, tolerance)
    return dict(zip(METRIC_COLUMNS, (at_tol.sensitivity, at_tol.precision, at_tol.f1,
                                     boundary_metrics(pred, truth, 0).f1,
                                     base_accuracy(pred, truth))))


def _check_truth(records, truth, n_colors):
    """Reject truth that cannot be scored against the queries, naming the record."""
    for rec in records:
        if rec.id not in truth:
            raise ValueError(f"no truth segments for record {rec.id!r}")
        annotation = truth[rec.id]
        if len(annotation) != len(rec.seq):
            raise ValueError(f"record {rec.id!r}: truth covers {len(annotation)} "
                             f"positions, the sequence has {len(rec.seq)}")
        top = int(annotation.colors.max())
        if top >= n_colors:
            raise ValueError(f"record {rec.id!r}: truth color id {top} is not "
                             f"in the model ({n_colors} colors)")


def cmd_bench(args):
    if args.tolerance < 0:
        raise ValueError("--tolerance must be >= 0")
    w_grid = _parse_sweep(args.W, int, "--W/--sweep-W")
    g_grid = _parse_sweep(args.gamma, float, "--gamma/--sweep-gamma", "{:g}".format)
    flags = {"window": "--W/--sweep-W", "gamma": "--gamma/--sweep-gamma", "alpha": "--alpha"}
    grid = [_flag_named(flags, GainParams, window=w, gamma=g, alpha=args.alpha)
            for w in w_grid for g in g_grid]
    preds_dir = args.out + ".preds"
    pred_files = {(d, p): os.path.join(preds_dir, f"{d}_W{p.window}_g{p.gamma:g}.tsv")
                  for p in grid for d in DECODERS}
    _distinct_paths(("--model", args.model), ("--model's sidecar", sidecar_path(args.model)),
                    ("--in", args.input), ("--truth", args.truth), ("--out", args.out),
                    ("--out's report", args.out + ".json"),
                    ("--out's timing", args.out + ".timing.csv"),
                    *(("--out's predictions", path) for path in pred_files.values()))
    if os.path.lexists(preds_dir) and not os.path.isdir(preds_dir):
        raise ValueError(f"--out's predictions directory {preds_dir} is not a directory")

    hmm = load_model(args.model)
    graph = color_graph(hmm)
    records = _read_queries(args.input)
    if not records:
        raise ValueError(f"{args.input}: no FASTA records to benchmark")
    truth = read_segments(args.truth)
    _check_truth(records, truth, hmm.n_colors)

    # Forward-backward and the W/gamma-independent decoders run once per
    # query, and so does the gain decoder: one decode_grid call covers
    # every grid point on the query's posteriors.
    base_preds = {"viterbi": [], "posterior": []}
    herd_preds = [[] for _ in grid]
    t_fb = t_vit = t_post = t_grid = 0.0
    for rec in records:
        try:
            t0 = time.perf_counter()
            annot, _ = viterbi_decode(hmm, rec.seq)
            t1 = time.perf_counter()
            post = forward_backward(hmm, rec.seq)
            t2 = time.perf_counter()
            pd = posterior_decode(post)
            t3 = time.perf_counter()
            decoded = decode_grid(post, grid, graph)
            t4 = time.perf_counter()
        except ValueError as e:
            raise ValueError(f"record {rec.id!r}: {e}") from None
        t_vit += t1 - t0
        t_fb += t2 - t1
        t_post += t3 - t2
        t_grid += t4 - t3
        base_preds["viterbi"].append(annot)
        base_preds["posterior"].append(pd)
        for preds, (annotation, _) in zip(herd_preds, decoded):
            preds.append(annotation)

    os.makedirs(preds_dir, exist_ok=True)
    ids = [r.id for r in records]
    table_header = format_segments([], hmm.color_names)  # an empty table is its header
    # Many grid points give a query the same prediction, so each distinct
    # (query, prediction) is scored and rendered once.
    seen = [{} for _ in ids]

    def score_and_render(preds):
        per_query, lines = [], [table_header]
        for rid, pred, known in zip(ids, preds, seen):
            hit = known.get(pred)
            if hit is None:
                hit = known[pred] = (
                    _bench_metrics(pred, truth[rid], args.tolerance),
                    segment_rows(rid, pred, hmm.color_names))
            per_query.append(hit[0])
            lines.append(hit[1])
        return aggregate(per_query)["mean"], "".join(lines)

    # The Viterbi and posterior predictions do not depend on W or gamma, so
    # they are scored and rendered once and reused at every grid point.
    base_results = {d: score_and_render(p) for d, p in base_preds.items()}
    # A herd row reports forward-backward plus its share of the window sums
    # and the grid pass.
    wall = {"viterbi": t_vit, "posterior": t_fb + t_post, "herd": t_fb + t_grid / len(grid)}
    rows, timing = [], []
    for params, preds in zip(grid, herd_preds):
        w, g = params.window, params.gamma
        results = dict(base_results, herd=score_and_render(preds))
        for decoder in DECODERS:
            means, text = results[decoder]
            row = {"decoder": decoder, "W": w, "gamma": g, "alpha": args.alpha,
                   "tolerance": args.tolerance, "n_queries": len(ids)}
            row.update({k: means[k] for k in METRIC_COLUMNS})
            rows.append(row)
            timing.append((decoder, w, g, wall[decoder] * 1e3))
            with create(pred_files[decoder, params]) as fh:
                fh.write(text)

    header = ("decoder", "W", "gamma", "alpha", "tolerance", "n_queries") + METRIC_COLUMNS
    with create(args.out) as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            cells = [str(row["decoder"]), str(row["W"]), f"{row['gamma']:g}",
                     f"{row['alpha']:g}", str(row["tolerance"]), str(row["n_queries"])]
            cells += [f"{row[k]:.6f}" for k in METRIC_COLUMNS]
            fh.write(",".join(cells) + "\n")
    report = {
        "model": args.model,
        "queries": args.input,
        "truth": args.truth,
        "tolerance": args.tolerance,
        "seed": args.seed,
        "rows": rows,
    }
    with create(args.out + ".json") as fh:
        json.dump(report, fh, indent=1, sort_keys=True)
        fh.write("\n")
    with create(args.out + ".timing.csv") as fh:
        fh.write("decoder,W,gamma,wall_ms\n")
        for decoder, w, g, ms in timing:
            fh.write(f"{decoder},{w},{g:g},{ms:.3f}\n")
    print(f"wrote {len(rows)} benchmark rows to {args.out}")
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="gainhmm",
        description="HMM sequence annotation under explicit gain functions")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build-model", help="assemble a jumping model from a subtype MSA")
    p.add_argument("--in", dest="input", required=True, help="subtype MSA FASTA")
    p.add_argument("--out", required=True, help="model file to write")
    p.add_argument("--pj", type=float, default=0.01, help="jump probability")
    p.add_argument("--pseudocount", type=float, default=1.0, help="emission smoothing")
    p.set_defaults(func=cmd_build_model)

    p = sub.add_parser("simulate", help="write recombinant queries plus truth")
    p.add_argument("--in", dest="input", required=True, help="subtype MSA FASTA")
    p.add_argument("--out", required=True, help="query FASTA to write")
    p.add_argument("--truth", required=True, help="truth segment TSV to write")
    p.add_argument("--count", type=int, default=10, help="number of queries")
    p.add_argument("--rate", type=float, default=0.05, help="query mutation rate")
    p.add_argument("--seed", type=int, default=0, help="random seed")
    p.add_argument("--min-segment", type=int, default=100, help="minimum span width")
    p.add_argument("--max-breakpoints", type=int, default=3, help="breakpoints per query")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("decode", help="annotate FASTA records with one decoder")
    p.add_argument("--model", required=True, help="model file")
    p.add_argument("--in", dest="input", required=True, help="query FASTA")
    p.add_argument("--out", required=True, help="segment TSV to write")
    p.add_argument("--decoder", choices=DECODERS, required=True)
    p.add_argument("--W", type=int, default=10, help="boundary window half-width")
    p.add_argument("--gamma", type=float, default=0.2,
                   help="false boundary penalty; at 0.2 herd may place a run of "
                        "alternating boundaries around one breakpoint (README, "
                        "design notes), gamma 1 places one")
    p.add_argument("--alpha", type=float, default=0.0, help="per-position bonus")
    p.set_defaults(func=cmd_decode)

    p = sub.add_parser("bench", help="compare decoders against truth over a grid")
    p.add_argument("--model", required=True, help="model file")
    p.add_argument("--in", dest="input", required=True, help="query FASTA")
    p.add_argument("--truth", required=True, help="truth segment TSV")
    p.add_argument("--out", required=True, help="metrics CSV to write")
    p.add_argument("--W", "--sweep-W", dest="W", default="10",
                   help="boundary window half-width, or a comma-separated grid of them")
    p.add_argument("--gamma", "--sweep-gamma", dest="gamma", default="0.2",
                   help="false boundary penalty, or a comma-separated grid of them")
    p.add_argument("--alpha", type=float, default=0.0)
    p.add_argument("--tolerance", type=int, default=10,
                   help="boundary match tolerance for metrics")
    p.add_argument("--seed", type=int, default=0,
                   help="recorded for config replay; bench itself is deterministic")
    p.set_defaults(func=cmd_bench)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, InvalidModelError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
