"""Run one workload: inputs, timed set-ups, timed rounds, checks and metrics.

Rounds repeat the workload's whole list of operations until the run time is
spent, so every run attempts whole rounds and the share of failed
operations is the same in every run. Checks run between operations,
outside every timer. With tracing on, each operation runs once untraced and
once traced; the per-layer numbers come from the traced runs and the
difference between the two is the tracing overhead.
"""

from __future__ import annotations

import resource
import statistics
import sys
import tracemalloc
from collections import Counter, defaultdict
from time import perf_counter

from gainhmm import inference

import checks
import tracing

UPPER_CASE_FAULT = "not in model alphabet"


class Run:
    def __init__(self, workload, seconds, tracer=None, log=sys.stdout):
        self.wl = workload
        self.seconds = seconds
        self.tracer = tracer
        self.log = log
        self.checker = checks.Checker()
        self.times = defaultdict(list)
        self.bases = 0
        self.attempted = 0
        self.failed = 0
        self.faults = Counter()
        self.untraced_rounds = []
        self.traced_rounds = []
        self.scores = defaultdict(list)
        self.scored = set()
        self.model_file = None

    # -- phases ------------------------------------------------------

    def execute(self):
        wl, tracer = self.wl, self.tracer
        self._trace("inputs", True)
        wl.make_inputs()
        self._trace("setup", True)
        self.setup_times = []
        self.set_up(1 if tracer else wl.setup_repeats)
        self._trace("inputs", True)
        wl.make_queries(self.hmm)
        self._trace("inputs", False)
        self.measure()

    def set_up(self, times):
        for _ in range(times):
            t0 = perf_counter()
            self.hmm, self.graph = self.wl.set_up()
            self.setup_times.append(perf_counter() - t0)

    def _trace(self, phase, enabled):
        if self.tracer is not None:
            self.tracer.phase = phase
            self.tracer.enabled = enabled

    def measure(self):
        start = perf_counter()
        rounds = 0
        while True:
            if self.tracer is not None:
                self.tracer.start_round(rounds)
            else:
                # set-up samples spread over the run, not taken in one burst
                self.set_up(self.wl.setup_per_round)
            # With tracing, every operation runs untraced and traced back to
            # back (order alternating by round), so the overhead is paired.
            passes = (False,) if self.tracer is None else ((False, True), (True, False))[rounds % 2]
            busy = {False: 0.0, True: 0.0}
            for index, (kind, query) in enumerate(self.wl.operations(rounds)):
                for traced in passes:
                    busy[traced] += self.operation(rounds, index, kind, query, traced)
            self.untraced_rounds.append(busy[False])
            if self.tracer is not None:
                self.traced_rounds.append(busy[True])
            rounds += 1
            if perf_counter() - start >= self.seconds:
                break

    def operation(self, round_index, index, kind, query, traced):
        """Run and check one operation; return its time when it succeeded, else 0."""
        tracer = self.tracer
        if tracer is not None:
            tracer.start_op(f"r{round_index}.{index}.{kind}")
            tracer.enabled = traced
        self.attempted += 1
        error = None
        t0 = perf_counter()
        try:
            out = self.wl.run(kind, query, self.hmm, self.graph)
        except Exception as e:  # a failed operation is counted, not fatal
            error = f"{type(e).__name__}: {e}"
        elapsed = perf_counter() - t0
        if tracer is not None:
            tracer.enabled = False
        if error is None and kind != "pipeline" and out[0] != 0:
            error = out[1].strip().splitlines()[-1] if out[1].strip() else f"exit {out[0]}"
        if error is not None:
            self.failed += 1
            self.faults[(kind, error)] += 1
            return 0.0
        if not traced:
            self.times[kind].append(elapsed)
            if kind == "pipeline":
                self.bases += len(query.seq)
        self.check(kind, query, out)
        return elapsed

    def check(self, kind, query, out):
        wl, c = self.wl, self.checker
        if kind == "pipeline":
            label = f"{wl.name} {query.id}"
            c.posteriors(label, out.post)
            c.viterbi_bound(label, out.viterbi_logp, out.post.log_likelihood)
            if self.model_file is None:  # the reference forward pass runs once per run
                self.model_file = checks.read_model_file(wl.model_path)
                c.log_likelihood(label, out.post.log_likelihood, self.model_file, query.seq)
            rivals = {"viterbi": out.viterbi, "posterior": out.posterior}
            for annotation, value, windows, params in out.herd.values():
                c.herd(label, out.post, windows, params, annotation, value, self.graph, rivals)
            if query.id not in self.scored:  # reference accuracy once per query
                self.scored.add(query.id)
                w, g = wl.decode_point
                for decoder in ("viterbi", "posterior", f"herd W={w} gamma={g:g}"):
                    self.scores[decoder].append(out.scores[decoder])
        elif kind == "cli_decode_upper":
            c.same_bytes(f"{wl.name} upper-case decode", wl.upper_tsv, wl.decode_tsv)
        elif kind == "cli_bench":
            c.same_bytes(f"{wl.name} decode vs bench herd", wl.decode_tsv, wl.bench_herd_tsv)
            c.bench_csv(f"{wl.name} bench", wl.bench_csv, wl.truth_tsv, 3 * wl.grid_points)

    # -- results -----------------------------------------------------

    def end_to_end(self):
        pipeline = self.times["pipeline"]
        return {
            "setup_s": (statistics.median(self.setup_times), "s"),
            "decode_bases_per_s": (self.bases / sum(pipeline) if pipeline else None, "residues/s"),
            "query_p50_s": (median_or_none(pipeline), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6, "MB"),
            "cli_decode_s": (median_or_none(self.times["cli_decode"]), "s"),
            "cli_bench_s": (median_or_none(self.times["cli_bench"]), "s"),
        }

    def memory_probe(self):
        """tracemalloc peak (MB) of forward_backward and viterbi_decode on one query."""
        seq = self.wl.queries[0].seq
        peaks = {}
        for name, fn in (("forward_backward", inference.forward_backward),
                         ("viterbi", inference.viterbi_decode)):
            tracemalloc.start()
            try:
                fn(self.hmm, seq)
                peaks[name] = tracemalloc.get_traced_memory()[1] / 1e6
            finally:
                tracemalloc.stop()
        return peaks

    def per_layer(self):
        tr = self.tracer
        n_rounds = len(self.traced_rounds)
        incl, counts = tr.per_unit(n_rounds)

        def s(name):
            return incl.get(name, 0.0)

        def n(key):
            value = counts.get(key, 0)
            return int(value) if float(value).is_integer() else value

        def ratio(num, den, scale=1.0):
            return scale * num / den if den else 0.0

        fb, vit, dec = (s("inference.forward_backward"), s("inference.viterbi_decode"),
                        s("gain.decode_from_posteriors"))
        peaks = self.memory_probe()
        over_s, over_pct = tracing.overhead(self.untraced_rounds, self.traced_rounds)
        m = {
            "jumping.build_profiles_s": (s("jumping.build_profiles"), "s"),
            "jumping.assemble_s": (s("jumping.assemble_jumping_hmm"), "s"),
            "model.build_hmm_s": (s("model.build_hmm"), "s"),
            "model.save_s": (s("model.save_model"), "s"),
            "model.load_s": (s("model.load_model"), "s"),
            "model.color_graph_s": (s("model.color_graph"), "s"),
            "model.encode_s": (s("model.encode"), "s"),
            "model.states": (self.hmm.n_states, "count"),
            "model.transition_nnz": (tracing.positive_transitions(self.hmm), "count"),
            "inference.positions": (n("inference.positions"), "count"),
            "inference.forward_backward_s": (fb, "s"),
            "inference.forward_backward_calls": (n("inference.forward_backward.calls"), "count"),
            "inference.forward_backward_ns_per_nnz_step": (
                ratio(fb, counts.get("inference.forward_backward.nnz_steps", 0), 1e9), "ns"),
            "inference.forward_backward_peak_mb": (peaks["forward_backward"], "MB"),
            "inference.viterbi_s": (vit, "s"),
            "inference.viterbi_calls": (n("inference.viterbi_decode.calls"), "count"),
            "inference.viterbi_ns_per_nnz_step": (
                ratio(vit, counts.get("inference.viterbi.nnz_steps", 0), 1e9), "ns"),
            "inference.viterbi_peak_mb": (peaks["viterbi"], "MB"),
            "inference.posterior_decode_s": (s("inference.posterior_decode"), "s"),
            "gain.grid_points": (self.wl.grid_points, "count"),
            "gain.window_scores_s": (s("gain.window_scores"), "s"),
            "gain.decode_s": (dec, "s"),
            "gain.decode_calls": (n("gain.decode_from_posteriors.calls"), "count"),
            "gain.decode_ns_per_position": (
                ratio(dec, counts.get("gain.decode.positions", 0), 1e9), "ns"),
            "seqio.read_fasta_s": (s("seqio.read_fasta"), "s"),
            "seqio.read_segments_s": (s("seqio.read_segments"), "s"),
            "seqio.write_segments_s": (s("seqio.write_segments"), "s"),
            "seqio.write_segments_calls": (n("seqio.write_segments.calls"), "count"),
            "metrics.boundary_metrics_s": (s("metrics.boundary_metrics"), "s"),
            "metrics.boundary_metrics_calls": (n("metrics.boundary_metrics.calls"), "count"),
            "metrics.boundary_metrics_repeat_share": (
                ratio(counts.get("metrics.boundary_metrics.repeats", 0),
                      counts.get("metrics.boundary_metrics.calls", 0)), "ratio"),
            "metrics.base_accuracy_s": (s("metrics.base_accuracy"), "s"),
            "simulate.random_recombinants_s": (s("simulate.random_recombinants"), "s"),
            "simulate.sample_path_s": (s("simulate.sample_path"), "s"),
        }
        layer_self = defaultdict(float)
        for _kind, layer, _calls, _entering, self_s in tr.layer_table(n_rounds):
            layer_self[layer] += self_s
        for layer in tracing.LAYERS:
            m[f"{layer}.self_s"] = (layer_self[layer], "s")
        m["trace.overhead_s"] = (over_s, "s")
        m["trace.overhead_pct"] = (over_pct, "%")
        return m

    def report(self):
        """Human-readable lines: failures, reference accuracy, layer table."""
        out = self.log
        for (kind, error), k in sorted(self.faults.items()):
            known = " (known fault: Hmm.encode matches the alphabet case-sensitively)" \
                if kind == "cli_decode_upper" and UPPER_CASE_FAULT in error else ""
            print(f"failed {k}x {kind}: {error}{known}", file=out)
        for msg in self.checker.failures[:20]:
            print(f"CHECK FAILED: {msg}", file=out)
        print(f"{self.wl.name}: {self.checker.count} checks, "
              f"{len(self.checker.failures)} failed; {self.attempted} operations, "
              f"{self.failed} failed", file=out)
        for decoder, rows in self.scores.items():
            f1, exact, acc = (statistics.fmean(col) for col in zip(*rows))
            print(f"reference {decoder}: boundary_f1@{self.wl.tolerance}={f1:.4f} "
                  f"exact_f1={exact:.4f} base_accuracy={acc:.4f} (n={len(rows)})", file=out)
        if self.tracer is not None:
            print(f"{'phase':<6} {'layer':<10} {'calls':>9} {'incl_s':>10} {'self_s':>10}"
                  f"   (round rows: mean over {len(self.traced_rounds)} traced rounds)",
                  file=out)
            for kind, layer, calls, incl, self_s in self.tracer.layer_table(
                    len(self.traced_rounds)):
                print(f"{kind:<6} {layer:<10} {calls:>9.0f} {incl:>10.4f} {self_s:>10.4f}",
                      file=out)


def median_or_none(values):
    return statistics.median(values) if values else None


def run_instance(workload, seconds, trace, log=sys.stdout):
    """Execute one workload; return (Run, metrics dict name -> (value, unit))."""
    tracer = tracing.Tracer() if trace else None
    if tracer is not None:
        tracer.install()
    try:
        run = Run(workload, seconds, tracer, log)
        run.execute()
        metrics = run.per_layer() if tracer is not None else run.end_to_end()
    finally:
        if tracer is not None:
            tracer.enabled = False
            tracer.uninstall()
    run.report()
    return run, metrics
