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

from .gain import GainParams, decode_from_posteriors, window_scores
from .inference import forward_backward, posterior_decode, viterbi_decode
from .jumping import JumpingHmmSpec, build_jumping_hmm
from .metrics import aggregate, base_accuracy, boundary_metrics
from .model import InvalidModelError, color_graph, load_model, save_model
from .seqio import format_segments, read_fasta, read_segments, \
    read_subtype_alignment, write_fasta, write_segments
from .simulate import random_recombinants

DECODERS = ("viterbi", "posterior", "herd")


def _parse_sweep(text, cast, flag):
    values = [v for v in text.split(",") if v.strip()]
    if not values:
        raise ValueError(f"{flag} needs a nonempty comma-separated list")
    return [cast(v) for v in values]


def _distinct_paths(*paths):
    seen = {}
    for label, p in paths:
        if p is None:
            continue
        key = os.path.abspath(p)
        if key in seen:
            raise ValueError(f"{label} and {seen[key]} point at the same path {p}")
        seen[key] = label


def cmd_build_model(args):
    _distinct_paths(("--in", args.input), ("--out", args.out))
    msa = read_subtype_alignment(args.input)
    spec = JumpingHmmSpec(jump_prob=args.pj, pseudocount=args.pseudocount)
    hmm = build_jumping_hmm(msa, spec)
    save_model(hmm, args.out)
    print(f"wrote model with {hmm.n_states} states, "
          f"{hmm.n_colors} subtypes to {args.out}")
    return 0


def cmd_simulate(args):
    _distinct_paths(("--in", args.input), ("--out", args.out), ("--truth", args.truth))
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


def _decode_one(decoder, hmm, graph, seq, params):
    if decoder == "viterbi":
        return viterbi_decode(hmm, seq)[0]
    post = forward_backward(hmm, seq)
    if decoder == "posterior":
        return posterior_decode(post)
    windows = window_scores(post, params.window)
    return decode_from_posteriors(post, windows, params, graph)[0]


def cmd_decode(args):
    _distinct_paths(("--model", args.model), ("--in", args.input), ("--out", args.out))
    hmm = load_model(args.model)
    graph = color_graph(hmm)
    params = GainParams(window=args.W, gamma=args.gamma, alpha=args.alpha)
    records = read_fasta(args.input)
    entries = []
    for rec in records:
        try:
            entries.append((rec.id, _decode_one(args.decoder, hmm, graph, rec.seq, params)))
        except ValueError as e:
            raise ValueError(f"record {rec.id!r}: {e}") from None
    write_segments(args.out, entries, hmm.color_names)
    print(f"decoded {len(entries)} records to {args.out}")
    return 0


def _bench_metrics(pred, truth, tolerance):
    at_tol = boundary_metrics(pred, truth, tolerance)
    exact = boundary_metrics(pred, truth, 0)
    return {
        "boundary_sensitivity": at_tol.sensitivity,
        "boundary_precision": at_tol.precision,
        "boundary_f1": at_tol.f1,
        "exact_f1": exact.f1,
        "base_accuracy": base_accuracy(pred, truth),
    }

METRIC_COLUMNS = ("boundary_sensitivity", "boundary_precision", "boundary_f1",
                  "exact_f1", "base_accuracy")


def cmd_bench(args):
    _distinct_paths(("--model", args.model), ("--in", args.input),
                    ("--truth", args.truth), ("--out", args.out))
    hmm = load_model(args.model)
    graph = color_graph(hmm)
    records = read_fasta(args.input)
    truth = read_segments(args.truth)
    missing = [r.id for r in records if r.id not in truth]
    if missing:
        raise ValueError(f"no truth segments for record {missing[0]!r}")

    w_grid = _parse_sweep(args.sweep_W, int, "--sweep-W") if args.sweep_W else [args.W]
    g_grid = (_parse_sweep(args.sweep_gamma, float, "--sweep-gamma")
              if args.sweep_gamma else [args.gamma])

    # Forward-backward and the W/gamma-independent decoders run once per
    # query; the gain decoder reruns per grid point on cached posteriors.
    posts, windows_by_w = [], {w: [] for w in w_grid}
    base_preds = {"viterbi": [], "posterior": []}
    t_fb = t_vit = t_post = 0.0
    for rec in records:
        try:
            t0 = time.perf_counter()
            annot, _ = viterbi_decode(hmm, rec.seq)
            t1 = time.perf_counter()
            post = forward_backward(hmm, rec.seq)
            t2 = time.perf_counter()
            pd = posterior_decode(post)
            t3 = time.perf_counter()
        except ValueError as e:
            raise ValueError(f"record {rec.id!r}: {e}") from None
        t_vit += t1 - t0
        t_fb += t2 - t1
        t_post += t3 - t2
        posts.append(post)
        base_preds["viterbi"].append(annot)
        base_preds["posterior"].append(pd)
        for w in w_grid:
            windows_by_w[w].append(window_scores(post, w))

    preds_dir = args.out + ".preds"
    os.makedirs(preds_dir, exist_ok=True)
    ids = [r.id for r in records]

    def score_and_render(preds):
        per_query = [_bench_metrics(p, truth[i], args.tolerance)
                     for p, i in zip(preds, ids)]
        means = aggregate(per_query)["mean"]
        return means, format_segments(list(zip(ids, preds)), hmm.color_names)

    # The Viterbi and posterior predictions do not depend on W or gamma, so
    # they are scored and rendered once and reused at every grid point.
    base_results = {d: score_and_render(p) for d, p in base_preds.items()}
    rows, timing = [], []
    for w in w_grid:
        for g in g_grid:
            params = GainParams(window=w, gamma=g, alpha=args.alpha)
            t0 = time.perf_counter()
            herd_preds = [
                decode_from_posteriors(post, win, params, graph)[0]
                for post, win in zip(posts, windows_by_w[w])]
            t_herd = time.perf_counter() - t0
            results = dict(base_results, herd=score_and_render(herd_preds))
            for decoder in DECODERS:
                means, text = results[decoder]
                row = {"decoder": decoder, "W": w, "gamma": g, "alpha": args.alpha,
                       "tolerance": args.tolerance, "n_queries": len(ids)}
                row.update({k: means[k] for k in METRIC_COLUMNS})
                rows.append(row)
                wall = {"viterbi": t_vit,
                        "posterior": t_fb + t_post,
                        "herd": t_fb + t_herd}[decoder]
                timing.append((decoder, w, g, wall * 1e3))
                with open(os.path.join(preds_dir, f"{decoder}_W{w}_g{g:g}.tsv"), "w") as fh:
                    fh.write(text)

    header = ("decoder", "W", "gamma", "alpha", "tolerance", "n_queries") + METRIC_COLUMNS
    with open(args.out, "w") as fh:
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
    with open(args.out + ".json", "w") as fh:
        json.dump(report, fh, indent=1, sort_keys=True)
        fh.write("\n")
    with open(args.out + ".timing.csv", "w") as fh:
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
    p.add_argument("--W", type=int, default=10)
    p.add_argument("--gamma", type=float, default=0.2)
    p.add_argument("--alpha", type=float, default=0.0)
    p.add_argument("--tolerance", type=int, default=10,
                   help="boundary match tolerance for metrics")
    p.add_argument("--seed", type=int, default=0,
                   help="recorded for config replay; bench itself is deterministic")
    p.add_argument("--sweep-W", help="comma-separated W grid")
    p.add_argument("--sweep-gamma", help="comma-separated gamma grid")
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
