"""Spans and counts recorded around gainhmm's public functions, from outside.

The tracer replaces each traced function in every gainhmm module namespace
that holds it (the defining module, the package, and modules such as
``gainhmm.cli`` that imported the name), so internal calls across module
boundaries are seen as well. Spans stay in memory and are written out once,
when the run ends. Nothing inside the package is changed on disk.
"""

from __future__ import annotations

import functools
import importlib
import json
from collections import defaultdict, namedtuple
from time import perf_counter

LAYERS = ("jumping", "model", "inference", "gain", "seqio", "metrics", "simulate", "cli")

# Public functions traced per layer (module of the same name).
FUNCTIONS = {
    "jumping": ("build_profile", "build_profiles", "assemble_jumping_hmm",
                "build_jumping_hmm", "make_alignment"),
    "model": ("build_hmm", "color_graph", "hmm_to_dict", "load_model", "save_model"),
    "inference": ("forward_backward", "posterior_decode", "viterbi_decode"),
    "gain": ("window_scores", "decode_from_posteriors", "expected_gain", "gain_decode"),
    "seqio": ("read_fasta", "write_fasta", "read_subtype_alignment",
              "read_segments", "write_segments"),
    "metrics": ("match_boundaries", "boundary_report", "boundary_metrics",
                "base_accuracy", "aggregate"),
    "simulate": ("sample_path", "simulate_recombinant", "synthetic_subtypes",
                 "random_recombinants"),
    "cli": ("main", "cmd_build_model", "cmd_simulate", "cmd_decode", "cmd_bench"),
}
METHODS = {"model": (("Hmm", "encode"),)}

Span = namedtuple("Span", "name start end parent phase op")


def positive_transitions(hmm):
    """Number of positive transition entries, whatever the storage format."""
    t = hmm.transitions
    data = t.data if hasattr(t, "nnz") else t
    return int((data > 0).sum())


class Tracer:
    """Span recorder; a span's parent is the index of the enclosing span, or -1."""

    def __init__(self):
        self.spans = []
        self.counts = defaultdict(int)
        self.enabled = False
        self.phase = "inputs"
        self.op = None
        self._stack = []
        self._restore = []
        self._nnz = {}
        self._seen_metric_args = set()

    # -- installation -------------------------------------------------

    def install(self):
        import gainhmm  # noqa: F401  (loads every submodule)

        modules = [importlib.import_module("gainhmm")]
        modules += [importlib.import_module(f"gainhmm.{layer}") for layer in LAYERS]
        replacements = {}
        for layer, names in FUNCTIONS.items():
            mod = importlib.import_module(f"gainhmm.{layer}")
            for name in names:
                orig = getattr(mod, name)
                replacements[id(orig)] = (orig, self._wrap(f"{layer}.{name}", orig))
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                hit = replacements.get(id(value))
                if hit is not None and hit[0] is value:
                    self._restore.append((mod, attr, value))
                    setattr(mod, attr, hit[1])
        for layer, pairs in METHODS.items():
            mod = importlib.import_module(f"gainhmm.{layer}")
            for cls_name, meth in pairs:
                cls = getattr(mod, cls_name)
                orig = vars(cls)[meth]
                self._restore.append((cls, meth, orig))
                setattr(cls, meth, self._wrap(f"{layer}.{meth}", orig))

    def uninstall(self):
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore.clear()

    def _wrap(self, name, fn):
        tracer = self
        hook = getattr(self, "_after_" + name.replace(".", "_"), None)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            stack = tracer._stack
            parent = stack[-1] if stack else -1
            index = len(tracer.spans)
            tracer.spans.append(None)
            stack.append(index)
            start = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                tracer.spans[index] = Span(name, start, end, parent, tracer.phase, tracer.op)
                tracer.counts[(tracer.phase_kind, name + ".calls")] += 1
            if hook is not None:
                hook(args, out)
            return out

        return traced

    # -- counters kept at the same boundaries ------------------------

    @property
    def phase_kind(self):
        return "round" if self.phase.startswith("round") else "fixed"

    def add(self, key, value):
        self.counts[(self.phase_kind, key)] += value

    def _transitions_of(self, hmm):
        key = id(hmm)
        if key not in self._nnz:
            self._nnz[key] = (hmm, positive_transitions(hmm))
        return self._nnz[key][1]

    def _after_inference_forward_backward(self, args, post):
        self.add("inference.positions", post.length)
        self.add("inference.forward_backward.nnz_steps",
                 post.length * self._transitions_of(args[0]))

    def _after_inference_viterbi_decode(self, args, out):
        n = len(out[0])
        self.add("inference.viterbi.nnz_steps", n * self._transitions_of(args[0]))

    def _after_gain_decode_from_posteriors(self, args, out):
        self.add("gain.decode.positions", args[0].length)

    def _after_metrics_boundary_metrics(self, args, out):
        pred, truth, tolerance = args[:3]
        key = (pred.colors.tobytes(), truth.colors.tobytes(), int(tolerance))
        digest = hash(key)
        if digest in self._seen_metric_args:
            self.add("metrics.boundary_metrics.repeats", 1)
        else:
            self._seen_metric_args.add(digest)

    def start_round(self, index):
        self.phase = f"round{index}"

    def start_op(self, label):
        """Repeated work is judged within one operation, not across them."""
        self.op = label
        self._seen_metric_args.clear()

    # -- summaries ---------------------------------------------------

    @staticmethod
    def _weight(span, n_rounds):
        return 1.0 / n_rounds if span.phase.startswith("round") else 1.0

    def per_unit(self, n_rounds):
        """Totals over the fixed phases plus the mean over traced rounds.

        Returns (inclusive seconds per span name, counts), where a count key
        is a span name + ".calls" or a counter.
        """
        incl = defaultdict(float)
        for span in self.spans:
            incl[span.name] += (span.end - span.start) * self._weight(span, n_rounds)
        counts = defaultdict(float)
        for (kind, key), value in self.counts.items():
            counts[key] += value / n_rounds if kind == "round" else value
        return incl, counts

    def layer_table(self, n_rounds):
        """Rows (phase kind, layer, calls, seconds entering the layer, self seconds).

        Self time is a span's duration minus its children's; round rows are
        means over the traced rounds.
        """
        selfs = [span.end - span.start for span in self.spans]
        for span in self.spans:
            if span.parent >= 0:
                selfs[span.parent] -= span.end - span.start
        table = defaultdict(lambda: [0.0, 0.0, 0.0])
        for span, self_s in zip(self.spans, selfs):
            layer = span.name.split(".")[0]
            kind = "round" if span.phase.startswith("round") else "fixed"
            w = self._weight(span, n_rounds)
            row = table[(kind, layer)]
            row[0] += w
            row[2] += self_s * w
            if span.parent < 0 or self.spans[span.parent].name.split(".")[0] != layer:
                row[1] += (span.end - span.start) * w
        return [(kind, layer, *table[(kind, layer)])
                for kind in ("fixed", "round") for layer in LAYERS]

    def write(self, path, extra):
        spans = [{"id": i, **span._asdict()} for i, span in enumerate(self.spans)]
        counts = [{"phase": kind, "key": key, "value": value}
                  for (kind, key), value in sorted(self.counts.items())]
        with open(path, "w") as fh:
            json.dump({"spans": spans, "counts": counts, **extra}, fh)
            fh.write("\n")


def overhead(untraced, traced):
    """Tracing overhead per round (s, %): traced minus untraced operation time."""
    base = sum(untraced) / len(untraced)
    diff = sum(traced) / len(traced) - base
    return diff, 100.0 * diff / base
