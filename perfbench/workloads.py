"""The three workloads: their inputs, their model set-up and their operations.

Every call into gainhmm goes through a module attribute
(``inference.forward_backward``, ``gainhmm.cli.main``) so that the traced
run can wrap it from outside the package. Input files are written and read
back with the small writers and readers here, not with ``gainhmm.seqio``,
except where a workload runs the ``simulate`` command as a user would.
"""

from __future__ import annotations

import contextlib
import io
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import gainhmm.cli
from gainhmm import gain, inference, jumping, metrics, model, simulate

DNA = "acgt"


def subseed(seed, k):
    """Independent 63-bit seed number k derived from the workload seed."""
    return int(np.random.SeedSequence([seed, k]).generate_state(2, np.uint64)[0] >> 1)


@dataclass(frozen=True)
class Query:
    id: str
    seq: str
    truth: object  # gainhmm.model.Annotation


@dataclass
class PipelineResult:
    """Everything one query's pipeline produced, kept for the checks."""

    post: object
    viterbi: object
    viterbi_logp: float
    posterior: object
    herd: dict = field(default_factory=dict)    # (W, gamma) -> (annotation, value, windows, params)
    scores: dict = field(default_factory=dict)  # decoder -> (F1 at tolerance, exact F1, base accuracy)


def pipeline(hmm, graph, query, widths, gammas, tolerance):
    """Viterbi, posterior and herd decoding of one query, scored against its truth."""
    vit, vit_logp = inference.viterbi_decode(hmm, query.seq)
    post = inference.forward_backward(hmm, query.seq)
    out = PipelineResult(post, vit, vit_logp, inference.posterior_decode(post))
    preds = {"viterbi": out.viterbi, "posterior": out.posterior}
    for w in widths:
        windows = gain.window_scores(post, w)
        for g in gammas:
            params = gain.GainParams(window=w, gamma=g)
            annotation, value = gain.decode_from_posteriors(post, windows, params, graph)
            out.herd[(w, g)] = (annotation, value, windows, params)
            preds[f"herd W={w} gamma={g:g}"] = annotation
    for name, pred in preds.items():
        out.scores[name] = (
            metrics.boundary_metrics(pred, query.truth, tolerance).f1,
            metrics.boundary_metrics(pred, query.truth, 0).f1,
            metrics.base_accuracy(pred, query.truth),
        )
    return out


def run_cli(argv):
    """gainhmm.cli.main on argv with its console output captured: (exit code, stderr)."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = gainhmm.cli.main([str(a) for a in argv])
    return code, err.getvalue()


def write_fasta(path, records):
    with open(path, "w") as fh:
        for rid, seq in records:
            fh.write(f">{rid}\n")
            for i in range(0, len(seq), 60):
                fh.write(seq[i:i + 60] + "\n")


def read_fasta(path):
    records, rid, chunks = [], None, []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if line.startswith(">"):
                if rid is not None:
                    records.append((rid, "".join(chunks)))
                rid, chunks = line[1:].split()[0], []
            elif line:
                chunks.append(line)
    if rid is not None:
        records.append((rid, "".join(chunks)))
    return records


def write_truth(path, queries, color_names):
    with open(path, "w") as fh:
        fh.write("seq_id\tstart\tend\tcolor_id\tcolor_name\n")
        for q in queries:
            c = q.truth.colors
            cuts = np.flatnonzero(c[1:] != c[:-1]) + 1
            starts = np.concatenate(([0], cuts))
            ends = np.concatenate((cuts, [c.size]))
            for s, e in zip(starts, ends):
                fh.write(f"{q.id}\t{s + 1}\t{e}\t{c[s]}\t{color_names[c[s]]}\n")


class Workload:
    """Inputs, set-up and the operations of one round of a workload.

    A round runs the library pipeline on the queries in ``queries`` (all of
    them, or the next ``queries_per_round`` in turn), then the ``decode``
    and ``bench`` commands on the files of ``cli_queries``.
    """

    name = ""
    widths = ()
    gammas = ()
    decode_point = (10, 0.2)  # (W, gamma) of the decode command; on the bench grid
    tolerance = 10
    setup_repeats = 3    # set-ups before the first round
    setup_per_round = 1  # more set-ups at the start of every untraced round
    queries_per_round = None  # None: every query in every round
    upper_case_decode = False

    def __init__(self, seed, workdir):
        self.seed = seed
        d = Path(workdir)
        self.model_path = d / "model.json"
        self.queries_fa = d / "queries.fa"
        self.upper_fa = d / "queries_upper.fa"
        self.truth_tsv = d / "truth.tsv"
        self.decode_tsv = d / "decode.tsv"
        self.upper_tsv = d / "decode_upper.tsv"
        self.bench_csv = d / "bench.csv"
        self.queries = []
        self.cli_queries = []

    def make_inputs(self):
        """Make what set-up reads: an alignment or a model description."""
        raise NotImplementedError

    def write_model(self):
        raise NotImplementedError

    def make_queries(self, hmm):
        raise NotImplementedError

    def set_up(self):
        """Build and write the model, then re-read it as decode would."""
        self.write_model()
        hmm = model.load_model(str(self.model_path))
        return hmm, model.color_graph(hmm)

    def write_cli_inputs(self, color_names):
        write_fasta(self.queries_fa, [(q.id, q.seq) for q in self.cli_queries])
        write_truth(self.truth_tsv, self.cli_queries, color_names)

    def operations(self, round_index=0):
        k = self.queries_per_round or len(self.queries)
        picked = [self.queries[(round_index * k + i) % len(self.queries)] for i in range(k)]
        ops = [("pipeline", q) for q in picked] + [("cli_decode", None)]
        if self.upper_case_decode:
            ops.append(("cli_decode_upper", None))
        return ops + [("cli_bench", None)]

    def run(self, kind, query, hmm, graph):
        if kind == "pipeline":
            return pipeline(hmm, graph, query, self.widths, self.gammas, self.tolerance)
        if kind == "cli_decode":
            return run_cli(self.decode_argv(self.queries_fa, self.decode_tsv))
        if kind == "cli_decode_upper":
            return run_cli(self.decode_argv(self.upper_fa, self.upper_tsv))
        if kind == "cli_bench":
            return run_cli([
                "bench", "--model", self.model_path, "--in", self.queries_fa,
                "--truth", self.truth_tsv, "--out", self.bench_csv,
                "--sweep-W", ",".join(str(w) for w in self.widths),
                "--sweep-gamma", ",".join(f"{g:g}" for g in self.gammas),
                "--tolerance", self.tolerance])
        raise ValueError(f"unknown operation {kind!r}")

    def decode_argv(self, src, out):
        w, g = self.decode_point
        return ["decode", "--model", self.model_path, "--in", src, "--out", out,
                "--decoder", "herd", "--W", w, "--gamma", f"{g:g}"]

    @property
    def bench_herd_tsv(self):
        w, g = self.decode_point
        return Path(f"{self.bench_csv}.preds") / f"herd_W{w}_g{g:g}.tsv"

    @property
    def grid_points(self):
        return len(self.widths) * len(self.gammas)


class Recombination(Workload):
    """The paper's experiment at the test-6 shape: 3 subtypes x 1000 columns."""

    name = "recomb_3x1000"
    widths = (10,)
    gammas = (0.1, 0.2, 0.5, 1.0)
    decode_point = (10, 0.2)
    queries_per_round = 2

    def __init__(self, seed, workdir, tiny=False):
        super().__init__(seed, workdir)
        self.columns = 120 if tiny else 1000
        self.min_segment = 20 if tiny else 100
        self.n_queries = 2 if tiny else 4
        self.setup_repeats = 1 if tiny else 2
        self.setup_per_round = 1

    def make_inputs(self):
        self.msa = simulate.synthetic_subtypes(3, self.columns, 0.15, seed=subseed(self.seed, 0))

    def write_model(self):
        spec = jumping.JumpingHmmSpec(jump_prob=0.01, pseudocount=0.1)
        model.save_model(jumping.build_jumping_hmm(self.msa, spec), str(self.model_path))

    def make_queries(self, hmm):
        records = simulate.random_recombinants(
            self.msa, self.n_queries, seed=subseed(self.seed, 1), breakpoint_range=(1, 3),
            min_segment=self.min_segment, mutation_rate=0.05)
        self.queries = [Query(f"q{i:04d}", r.seq, r.truth) for i, r in enumerate(records)]
        self.cli_queries = self.queries[:1]
        self.write_cli_inputs(hmm.color_names)


def segmenter_description(seed, n_colors, per_color, switch):
    """Model-file dict: n_colors blocks of per_color fully connected states.

    Each state leaves its color with total probability `switch`, spread
    evenly over the other colors' states; each color favours one symbol.
    """
    rng = np.random.default_rng(seed)
    ids = [[f"k{c}s{i}" for i in range(per_color)] for c in range(n_colors)]
    cross = switch / (per_color * (n_colors - 1))
    states, transitions = [], {}
    for c in range(n_colors):
        for i in range(per_color):
            e = 0.6 * rng.dirichlet(np.full(len(DNA), 4.0))
            e[c % len(DNA)] += 0.4
            states.append({"id": ids[c][i], "color": c,
                           "emission": {a: float(p) for a, p in zip(DNA, e)}})
            stay = rng.dirichlet(np.ones(per_color)) * (1.0 - switch)
            row = {}
            for c2 in range(n_colors):
                for j in range(per_color):
                    row[ids[c2][j]] = float(stay[j]) if c2 == c else cross
            transitions[ids[c][i]] = row
    n = n_colors * per_color
    return {
        "alphabet": list(DNA),
        "colors": [{"id": c, "name": f"k{c}"} for c in range(n_colors)],
        "states": states,
        "initial": {sid: 1.0 / n for row in ids for sid in row},
        "transitions": transitions,
    }


class Segmenter(Workload):
    """A generic dense labeled HMM (4 colors x 12 states) on 20 kb sequences."""

    name = "segmenter_long"
    widths = (10, 25)
    gammas = (0.5, 4.0)
    decode_point = (10, 4.0)
    queries_per_round = 1

    def __init__(self, seed, workdir, tiny=False):
        super().__init__(seed, workdir)
        self.per_color = 3 if tiny else 12
        self.length = 400 if tiny else 20_000
        self.n_queries = 2
        self.setup_repeats = 1 if tiny else 10
        self.setup_per_round = 1 if tiny else 10

    def make_inputs(self):
        self.description = segmenter_description(subseed(self.seed, 0), 4, self.per_color, 1e-3)

    def write_model(self):
        model.save_model(model.build_hmm(self.description), str(self.model_path))

    def make_queries(self, hmm):
        self.queries = []
        for i in range(self.n_queries):
            states, seq = simulate.sample_path(hmm, self.length, seed=subseed(self.seed, i + 1))
            self.queries.append(Query(f"s{i}", seq, model.Annotation(hmm.state_colors[states])))
        self.cli_queries = self.queries[:1]
        self.write_cli_inputs(hmm.color_names)


class CliSweep(Workload):
    """File-to-file runs of build-model, decode and bench on 4 x 200 columns."""

    name = "cli_sweep"
    widths = (0, 5, 10, 20)
    gammas = (0.1, 0.2, 0.5, 1.0, 2.0)
    decode_point = (10, 0.2)
    upper_case_decode = True

    def __init__(self, seed, workdir, tiny=False):
        super().__init__(seed, workdir)
        self.msa_fa = Path(workdir) / "msa.fa"
        self.subtypes = 3 if tiny else 4
        self.columns = 60 if tiny else 200
        self.count = 5 if tiny else 60
        self.min_segment = 12 if tiny else 40
        self.n_pipeline = 2 if tiny else 6
        self.setup_repeats = 1 if tiny else 3
        self.setup_per_round = 1 if tiny else 2

    def make_inputs(self):
        msa = simulate.synthetic_subtypes(
            self.subtypes, self.columns, 0.15, seed=subseed(self.seed, 0))
        with open(self.msa_fa, "w") as fh:
            for name in msa.names:
                for i, seq in enumerate(msa.groups[name]):
                    fh.write(f">{name}{i} subtype={name}\n{seq}\n")

    def write_model(self):
        code, err = run_cli(["build-model", "--in", self.msa_fa, "--out", self.model_path,
                             "--pj", "0.01", "--pseudocount", "0.1"])
        if code:
            raise RuntimeError(f"build-model failed: {err.strip()}")

    def make_queries(self, hmm):
        code, err = run_cli([
            "simulate", "--in", self.msa_fa, "--out", self.queries_fa,
            "--truth", self.truth_tsv, "--count", self.count,
            "--seed", subseed(self.seed, 1), "--min-segment", self.min_segment])
        if code:
            raise RuntimeError(f"simulate failed: {err.strip()}")
        records = read_fasta(self.queries_fa)
        write_fasta(self.upper_fa, [(rid, seq.upper()) for rid, seq in records])
        truth = {}
        with open(self.truth_tsv) as fh:
            fh.readline()
            for line in fh:
                sid, start, end, color = line.split("\t")[:4]
                truth.setdefault(sid, []).append((int(start), int(end), int(color)))
        self.cli_queries = [Query(rid, seq, model.Annotation.from_segments(truth[rid]))
                            for rid, seq in records]
        self.queries = self.cli_queries[:self.n_pipeline]


WORKLOADS = {cls.name: cls for cls in (Recombination, Segmenter, CliSweep)}
