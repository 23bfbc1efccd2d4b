import json
import time

import numpy as np
import pytest

from gainhmm import (cli, load_model, save_model, build_hmm, forward_backward,
                     posterior_decode, synthetic_subtypes)
from gainhmm.cli import main
from gainhmm.metrics import base_accuracy, boundary_metrics
from gainhmm.model import SIDECAR_SUFFIX
from gainhmm.seqio import FastaRecord, format_segments, read_fasta, read_segments, write_fasta
from conftest import BAD_TRUTH, MALFORMED, bad_truth, malformed_spec, t1_spec

# A file that is not UTF-8 text, and how reading it fails.
NOT_UTF8 = b">q1\nx\x93y\n"
NOT_UTF8_ERROR = "'utf-8' codec can't decode byte 0x93 in position 5: invalid start byte"


@pytest.fixture
def msa_path(tmp_path):
    msa = synthetic_subtypes(3, 300, divergence=0.15, seed=10)
    path = tmp_path / "msa.fasta"
    write_fasta(path, [FastaRecord(f"{n}_ref", msa.groups[n][0], {"subtype": n})
                       for n in msa.names])
    return str(path)


@pytest.fixture
def t1_model_path(tmp_path):
    path = tmp_path / "t1.json"
    save_model(build_hmm(t1_spec()), path)
    return str(path)


def run(*argv):
    return main([str(a) for a in argv])


def file_bytes(directory):
    """Every file under `directory`, mapped to its contents."""
    return {p: p.read_bytes() for p in directory.rglob("*") if p.is_file()}


class TestBuildModel:
    def test_builds_valid_model(self, tmp_path, msa_path):
        out = tmp_path / "model.json"
        assert run("build-model", "--in", msa_path, "--out", out,
                   "--pj", "0.01", "--pseudocount", "0.5") == 0
        hmm = load_model(out)
        assert hmm.n_colors == 3
        assert hmm.n_states == 3 * (2 * 300 + 1)

    def test_rejects_bad_jump_prob(self, tmp_path, msa_path, capsys):
        out = tmp_path / "model.json"
        assert run("build-model", "--in", msa_path, "--out", out, "--pj", "1.5") == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert err.count("\n") == 1

    def test_missing_input_names_path(self, tmp_path, capsys):
        missing = tmp_path / "nope.fasta"
        assert run("build-model", "--in", missing, "--out", tmp_path / "m.json") == 1
        assert str(missing) in capsys.readouterr().err

    def test_same_in_and_out_rejected(self, msa_path, capsys):
        assert run("build-model", "--in", msa_path, "--out", msa_path) == 1
        assert "same path" in capsys.readouterr().err

    def test_out_sidecar_over_input_rejected(self, tmp_path, msa_path, capsys):
        # build-model writes <out> and its sidecar <out>.arrays.
        aln = tmp_path / f"x{SIDECAR_SUFFIX}"
        aln.write_bytes((tmp_path / "msa.fasta").read_bytes())
        before = file_bytes(tmp_path)
        assert run("build-model", "--in", aln, "--out", tmp_path / "x") == 1
        assert capsys.readouterr().err == \
            f"error: --out's sidecar and --in point at the same path {aln}\n"
        assert file_bytes(tmp_path) == before

    def test_out_linked_to_input_rejected(self, tmp_path, msa_path, capsys):
        # An output that is a symbolic link is written through, not replaced.
        link = tmp_path / "model.json"
        link.symlink_to(msa_path)
        before = file_bytes(tmp_path)
        assert run("build-model", "--in", msa_path, "--out", link) == 1
        assert capsys.readouterr().err == \
            f"error: --out and --in point at the same path {link}\n"
        assert file_bytes(tmp_path) == before

    def test_bad_alignment_character_names_column(self, tmp_path, capsys):
        msa = tmp_path / "msa.fasta"
        write_fasta(msa, [FastaRecord("a1", "acgt", {"subtype": "A"}),
                          FastaRecord("b1", "acxt", {"subtype": "B"})])
        assert run("build-model", "--in", msa, "--out", tmp_path / "m.json") == 1
        err = capsys.readouterr().err
        assert "illegal character 'x' in subtype 'B' sequence 1 at column 3" in err

    def test_upper_case_alignment_error_names_character_as_written(self, tmp_path, capsys):
        msa = tmp_path / "msa.fasta"
        write_fasta(msa, [FastaRecord("a1", "ACGT", {"subtype": "A"}),
                          FastaRecord("b1", "ACNT", {"subtype": "B"})])
        assert run("build-model", "--in", msa, "--out", tmp_path / "m.json") == 1
        err = capsys.readouterr().err
        assert "illegal character 'N' in subtype 'B' sequence 1 at column 3" in err

    @pytest.mark.parametrize("records, message", [
        ([("a1", "acgt", "A"), ("b1", "acxt", "B")],
         "record 'b1': illegal character 'x' in subtype 'B' sequence 1 at column 3"),
        ([("a1", "acgt", "A"), ("b1", "acgt", "B"), ("b2", "acg", "B")],
         "record 'b2': sequence 2 in subtype 'B' has length 3, alignment has 4 columns"),
        ([("a1", "acgt", "A"), ("a2", "acga", "A")],
         "need at least two subtypes, found only 'A'"),
        ([("a", "", "A"), ("b", "", "B")], "alignment has no columns"),
    ], ids=["character", "length", "one-subtype", "no-columns"])
    def test_bad_alignment_names_file_and_record(self, tmp_path, capsys, records, message):
        msa = tmp_path / "msa.fasta"
        write_fasta(msa, [FastaRecord(rid, seq, {"subtype": sub}) for rid, seq, sub in records])
        assert run("build-model", "--in", msa, "--out", tmp_path / "m.json") == 1
        assert capsys.readouterr().err == f"error: {msa}: {message}\n"
        assert not (tmp_path / "m.json").exists()

    def test_non_utf8_alignment_names_file(self, tmp_path, capsys):
        msa = tmp_path / "msa.fasta"
        msa.write_bytes(NOT_UTF8)
        assert run("build-model", "--in", msa, "--out", tmp_path / "m.json") == 1
        assert capsys.readouterr().err == f"error: {msa}: {NOT_UTF8_ERROR}\n"
        assert not (tmp_path / "m.json").exists()

    @pytest.mark.parametrize("flag, value, message", [
        ("--pj", "1", "--pj must be in [0, 1), not 1.0"),
        ("--pj", "-0.1", "--pj must be in [0, 1), not -0.1"),
        ("--pj", "nan", "--pj must be in [0, 1), not nan"),
        ("--pseudocount", "0", "--pseudocount must be a finite number > 0, not 0.0"),
        ("--pseudocount", "inf", "--pseudocount must be a finite number > 0, not inf"),
        ("--pseudocount", "nan", "--pseudocount must be a finite number > 0, not nan"),
    ], ids=["pj-1", "pj-negative", "pj-nan", "pseudocount-0", "pseudocount-inf",
            "pseudocount-nan"])
    def test_bad_flag_named(self, tmp_path, capsys, flag, value, message):
        # The alignment does not exist: the flag is checked before anything is read.
        assert run("build-model", "--in", tmp_path / "msa.fasta", "--out", tmp_path / "m.json",
                   flag, value) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert list(tmp_path.iterdir()) == []

    def test_upper_case_alignment_builds_the_same_model(self, tmp_path, msa_path):
        upper = tmp_path / "upper.fasta"
        write_fasta(upper, [FastaRecord(r.id, r.seq.upper(), r.attrs)
                            for r in read_fasta(msa_path)])
        lower_model, upper_model = tmp_path / "lower.json", tmp_path / "upper.json"
        assert run("build-model", "--in", msa_path, "--out", lower_model) == 0
        assert run("build-model", "--in", upper, "--out", upper_model) == 0
        assert upper_model.read_bytes() == lower_model.read_bytes()
        assert (tmp_path / f"upper.json{SIDECAR_SUFFIX}").read_bytes() == \
            (tmp_path / f"lower.json{SIDECAR_SUFFIX}").read_bytes()


class TestDecode:
    def test_herd_segments(self, tmp_path, t1_model_path):
        fasta = tmp_path / "q.fasta"
        write_fasta(fasta, [("q1", "xy")])
        out = tmp_path / "pred.tsv"
        assert run("decode", "--model", t1_model_path, "--in", fasta, "--out", out,
                   "--decoder", "herd", "--W", 0, "--gamma", 0.2) == 0
        lines = out.read_text().splitlines()
        assert lines[1] == "q1\t1\t1\t0\tA"
        assert lines[2] == "q1\t2\t2\t1\tB"

    def test_window_beyond_the_record(self, tmp_path, t1_model_path):
        # W = 9 already spans the 10-nt record; past 2**63, W overflows an int64.
        fasta = tmp_path / "q.fasta"
        write_fasta(fasta, [("q1", "xyxyyxxyxy"), ("q2", "yyxyxxy")])
        for w in (9, 2**63 - 8, 10**20):
            assert run("decode", "--model", t1_model_path, "--in", fasta,
                       "--out", tmp_path / f"W{w}.tsv", "--decoder", "herd", "--W", w) == 0
        assert (tmp_path / "W9.tsv").read_bytes() == (tmp_path / f"W{10**20}.tsv").read_bytes()

    def test_viterbi_segments(self, tmp_path, t1_model_path):
        fasta = tmp_path / "q.fasta"
        write_fasta(fasta, [("q1", "xy")])
        out = tmp_path / "pred.tsv"
        assert run("decode", "--model", t1_model_path, "--in", fasta, "--out", out,
                   "--decoder", "viterbi") == 0
        lines = out.read_text().splitlines()
        assert lines[1:] == ["q1\t1\t2\t1\tB"]

    def test_posterior_segments(self, tmp_path, t1_model_path):
        queries = [("q1", "xy"), ("q2", "xxyyxyxxxy"), ("q3", "y")]
        fasta = tmp_path / "q.fasta"
        write_fasta(fasta, queries)
        out = tmp_path / "pred.tsv"
        assert run("decode", "--model", t1_model_path, "--in", fasta, "--out", out,
                   "--decoder", "posterior") == 0
        hmm = load_model(t1_model_path)
        expected = [(rid, posterior_decode(forward_backward(hmm, seq))) for rid, seq in queries]
        assert out.read_text() == format_segments(expected, hmm.color_names)

    def test_empty_fasta_writes_header_only(self, tmp_path, t1_model_path):
        fasta = tmp_path / "q.fasta"
        fasta.write_text("")
        out = tmp_path / "pred.tsv"
        assert run("decode", "--model", t1_model_path, "--in", fasta, "--out", out,
                   "--decoder", "posterior") == 0
        assert out.read_text() == "seq_id\tstart\tend\tcolor_id\tcolor_name\n"

    def test_alphabet_mismatch_names_record(self, tmp_path, t1_model_path, capsys):
        fasta = tmp_path / "q.fasta"
        write_fasta(fasta, [("good", "xy"), ("bad_one", "xz")])
        out = tmp_path / "pred.tsv"
        assert run("decode", "--model", t1_model_path, "--in", fasta, "--out", out,
                   "--decoder", "viterbi") == 1
        assert "bad_one" in capsys.readouterr().err

    def test_out_over_model_sidecar_rejected(self, tmp_path, t1_model_path, capsys):
        fasta = tmp_path / "q.fasta"
        write_fasta(fasta, [("q1", "xy")])
        before = file_bytes(tmp_path)
        sidecar = t1_model_path + SIDECAR_SUFFIX
        assert run("decode", "--model", t1_model_path, "--in", fasta, "--out", sidecar,
                   "--decoder", "herd") == 1
        assert capsys.readouterr().err == \
            f"error: --out and --model's sidecar point at the same path {sidecar}\n"
        assert file_bytes(tmp_path) == before

    def test_upper_case_query_same_tsv(self, tmp_path, msa_path):
        model = tmp_path / "model.json"
        assert run("build-model", "--in", msa_path, "--out", model) == 0
        msa = read_fasta(msa_path)
        seq = msa[0].seq[:40] + msa[1].seq[40:80]
        for name, query in (("lower", seq), ("upper", seq.upper())):
            write_fasta(tmp_path / f"{name}.fasta", [("q1", query)])
            assert run("decode", "--model", model, "--in", tmp_path / f"{name}.fasta",
                       "--out", tmp_path / f"{name}.tsv", "--decoder", "herd") == 0
        assert (tmp_path / "upper.tsv").read_bytes() == (tmp_path / "lower.tsv").read_bytes()

    def test_same_tsv_without_sidecar(self, tmp_path, msa_path):
        model = tmp_path / "model.json"
        assert run("build-model", "--in", msa_path, "--out", model) == 0
        msa = read_fasta(msa_path)
        write_fasta(tmp_path / "q.fasta", [("q1", msa[0].seq[:60] + msa[2].seq[60:150])])
        argv = ["decode", "--model", model, "--in", tmp_path / "q.fasta", "--decoder", "herd"]
        assert run(*argv, "--out", tmp_path / "with.tsv") == 0
        (tmp_path / f"model.json{SIDECAR_SUFFIX}").unlink()
        assert run(*argv, "--out", tmp_path / "without.tsv") == 0
        assert (tmp_path / "with.tsv").read_bytes() == (tmp_path / "without.tsv").read_bytes()

    @pytest.mark.parametrize("flag, value, shown", [
        ("--W", -1, "-1"), ("--gamma", -1, "-1.0"), ("--alpha", -1, "-1.0"),
        ("--gamma", "nan", "nan"), ("--alpha", "inf", "inf")])
    def test_bad_gain_value_names_flag(self, tmp_path, capsys, flag, value, shown):
        # Neither file exists: the flag is checked before anything is read.
        assert run("decode", "--model", tmp_path / "m.json", "--in", tmp_path / "q.fasta",
                   "--out", tmp_path / "o.tsv", "--decoder", "herd", flag, value) == 1
        assert capsys.readouterr().err == \
            f"error: {flag} must be a finite number >= 0, not {shown}\n"

    @pytest.mark.parametrize("case", sorted(MALFORMED))
    def test_malformed_model_is_one_error_line(self, tmp_path, capsys, case):
        model = tmp_path / "model.json"
        model.write_text(json.dumps(malformed_spec(case)))
        fasta = tmp_path / "q.fasta"
        write_fasta(fasta, [("q1", "xx")])
        assert run("decode", "--model", model, "--in", fasta, "--out", tmp_path / "o.tsv",
                   "--decoder", "viterbi") == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {model}: ") and err.count("\n") == 1

    def test_binary_model_is_one_error_line_naming_it(self, tmp_path, t1_model_path, capsys):
        model = t1_model_path + SIDECAR_SUFFIX
        fasta = tmp_path / "q.fasta"
        write_fasta(fasta, [("q1", "xx")])
        assert run("decode", "--model", model, "--in", fasta, "--out", tmp_path / "o.tsv",
                   "--decoder", "viterbi") == 1
        assert capsys.readouterr().err == (
            f"error: {model}: 'utf-8' codec can't decode byte 0x93 in position 0: "
            "invalid start byte\n")
        assert not (tmp_path / "o.tsv").exists()

    def test_non_utf8_query_names_file(self, tmp_path, t1_model_path, capsys):
        fasta = tmp_path / "q.fasta"
        fasta.write_bytes(NOT_UTF8)
        assert run("decode", "--model", t1_model_path, "--in", fasta,
                   "--out", tmp_path / "o.tsv", "--decoder", "viterbi") == 1
        assert capsys.readouterr().err == f"error: {fasta}: {NOT_UTF8_ERROR}\n"
        assert not (tmp_path / "o.tsv").exists()

    def test_repeated_record_id_rejected(self, tmp_path, t1_model_path, capsys, monkeypatch):
        fasta = tmp_path / "q.fasta"
        write_fasta(fasta, [("q1", "xy"), ("q2", "yy"), ("q1", "xx")])
        TestBench.forbid_decoding(monkeypatch)
        assert run("decode", "--model", t1_model_path, "--in", fasta,
                   "--out", tmp_path / "o.tsv", "--decoder", "viterbi") == 1
        assert capsys.readouterr().err == \
            f"error: {fasta}: record id 'q1' appears more than once\n"
        assert not (tmp_path / "o.tsv").exists()

    def test_unknown_decoder_rejected(self, tmp_path, t1_model_path):
        fasta = tmp_path / "q.fasta"
        write_fasta(fasta, [("q1", "xy")])
        with pytest.raises(SystemExit) as exc:
            run("decode", "--model", t1_model_path, "--in", fasta,
                "--out", tmp_path / "o.tsv", "--decoder", "magic")
        assert exc.value.code == 2


class TestSimulate:
    def test_writes_queries_and_truth(self, tmp_path, msa_path):
        fasta, truth = tmp_path / "q.fasta", tmp_path / "t.tsv"
        assert run("simulate", "--in", msa_path, "--out", fasta, "--truth", truth,
                   "--count", 5, "--seed", 11, "--min-segment", 60) == 0
        records = read_fasta(fasta)
        assert len(records) == 5
        annotations = read_segments(truth)
        assert set(annotations) == {r.id for r in records}
        for rec in records:
            assert len(annotations[rec.id]) == len(rec.seq)

    def test_deterministic(self, tmp_path, msa_path):
        a, b = tmp_path / "a.fasta", tmp_path / "b.fasta"
        run("simulate", "--in", msa_path, "--out", a, "--truth", tmp_path / "at.tsv",
            "--count", 3, "--seed", 5, "--min-segment", 60)
        run("simulate", "--in", msa_path, "--out", b, "--truth", tmp_path / "bt.tsv",
            "--count", 3, "--seed", 5, "--min-segment", 60)
        assert a.read_bytes() == b.read_bytes()
        assert (tmp_path / "at.tsv").read_bytes() == (tmp_path / "bt.tsv").read_bytes()


    @pytest.mark.parametrize("flag, value, message", [
        ("--count", -1, "--count must be an integer >= 0, not -1"),
        ("--rate", 1.5, "--rate must be in [0, 1], not 1.5"),
        ("--rate", "nan", "--rate must be in [0, 1], not nan"),
        ("--min-segment", 0, "--min-segment must be an integer >= 1, not 0"),
        ("--max-breakpoints", 0, "--max-breakpoints must be an integer >= 1, not 0"),
        ("--seed", -1, "--seed must be an integer >= 0, not -1"),
    ], ids=["count", "rate", "rate-nan", "min-segment", "max-breakpoints", "seed"])
    def test_bad_flag_named(self, tmp_path, capsys, flag, value, message):
        # The alignment does not exist: the flag is checked before anything is read.
        assert run("simulate", "--in", tmp_path / "msa.fasta", "--out", tmp_path / "q.fasta",
                   "--truth", tmp_path / "t.tsv", flag, value) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert list(tmp_path.iterdir()) == []


    def test_alignment_too_short_names_columns(self, tmp_path, msa_path, capsys):
        assert run("simulate", "--in", msa_path, "--out", tmp_path / "q.fasta",
                   "--truth", tmp_path / "t.tsv", "--min-segment", 200) == 1
        assert capsys.readouterr().err == ("error: alignment has 300 columns; 3 breakpoints "
                                           "with spans of at least 200 columns need 800\n")
        assert not (tmp_path / "q.fasta").exists() and not (tmp_path / "t.tsv").exists()


class TestBench:
    def setup_run(self, tmp_path, msa_path, count=2):
        model = tmp_path / "model.json"
        run("build-model", "--in", msa_path, "--out", model, "--pj", "0.01",
            "--pseudocount", "0.5")
        fasta, truth = tmp_path / "q.fasta", tmp_path / "t.tsv"
        run("simulate", "--in", msa_path, "--out", fasta, "--truth", truth,
            "--count", count, "--seed", 4, "--min-segment", 60)
        return model, fasta, truth

    def test_single_grid_point_three_rows(self, tmp_path, msa_path):
        model, fasta, truth = self.setup_run(tmp_path, msa_path, count=1)
        out = tmp_path / "bench.csv"
        assert run("bench", "--model", model, "--in", fasta, "--truth", truth,
                   "--out", out, "--W", 10, "--gamma", 0.5, "--tolerance", 10) == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 4
        assert [l.split(",")[0] for l in lines[1:]] == ["viterbi", "posterior", "herd"]

    def test_two_grid_points_six_rows(self, tmp_path, msa_path):
        model, fasta, truth = self.setup_run(tmp_path, msa_path)
        out = tmp_path / "bench.csv"
        assert run("bench", "--model", model, "--in", fasta, "--truth", truth,
                   "--out", out, "--W", 10, "--sweep-gamma", "0.2,1", "--tolerance", 10) == 0
        assert len(out.read_text().splitlines()) == 7

    def test_sweep_w_times_gamma_grid(self, tmp_path, msa_path):
        model, fasta, truth = self.setup_run(tmp_path, msa_path, count=1)
        out = tmp_path / "bench.csv"
        assert run("bench", "--model", model, "--in", fasta, "--truth", truth,
                   "--out", out, "--sweep-W", "5,10", "--sweep-gamma", "0.2,1",
                   "--tolerance", 10) == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 13
        grid = {tuple(l.split(",")[1:3]) for l in lines[1:]}
        assert grid == {("5", "0.2"), ("5", "1"), ("10", "0.2"), ("10", "1")}
        for w, g in grid:
            assert (tmp_path / "bench.csv.preds" / f"herd_W{w}_g{g}.tsv").exists()

    def test_perfect_predictions_score_one(self, tmp_path, msa_path):
        # single-subtype queries at mutation rate 0: every decoder should
        # reproduce the truth exactly
        model = tmp_path / "model.json"
        run("build-model", "--in", msa_path, "--out", model, "--pj", "0.01",
            "--pseudocount", "0.5")
        msa = read_fasta(msa_path)
        fasta, truth = tmp_path / "q.fasta", tmp_path / "t.tsv"
        write_fasta(fasta, [("q0", msa[0].seq)])
        truth.write_text("seq_id\tstart\tend\tcolor_id\tcolor_name\n"
                         f"q0\t1\t{len(msa[0].seq)}\t0\tA\n")
        out = tmp_path / "bench.csv"
        assert run("bench", "--model", model, "--in", fasta, "--truth", truth,
                   "--out", out, "--W", 10, "--gamma", 0.5, "--tolerance", 10) == 0
        for line in out.read_text().splitlines()[1:]:
            cells = line.split(",")
            assert cells[6:] == ["1.000000"] * 5

    def test_rows_recomputable_from_pred_tsvs(self, tmp_path, msa_path):
        model, fasta, truth_path = self.setup_run(tmp_path, msa_path, count=3)
        out = tmp_path / "bench.csv"
        run("bench", "--model", model, "--in", fasta, "--truth", truth_path,
            "--out", out, "--W", 5, "--gamma", 0.2, "--tolerance", 10)
        truth = read_segments(truth_path)
        header, *rows = out.read_text().splitlines()
        cols = header.split(",")
        for row in rows:
            vals = dict(zip(cols, row.split(",")))
            preds = read_segments(
                tmp_path / "bench.csv.preds" /
                f"{vals['decoder']}_W{vals['W']}_g{vals['gamma']}.tsv")
            f1 = np.mean([boundary_metrics(preds[q], truth[q], 10).f1 for q in preds])
            acc = np.mean([base_accuracy(preds[q], truth[q]) for q in preds])
            assert f1 == pytest.approx(float(vals["boundary_f1"]), abs=5e-7)
            assert acc == pytest.approx(float(vals["base_accuracy"]), abs=5e-7)

    def test_json_report_mirrors_csv(self, tmp_path, msa_path):
        model, fasta, truth = self.setup_run(tmp_path, msa_path, count=1)
        out = tmp_path / "bench.csv"
        run("bench", "--model", model, "--in", fasta, "--truth", truth,
            "--out", out, "--W", 10, "--gamma", 0.5, "--tolerance", 10)
        report = json.loads((tmp_path / "bench.csv.json").read_text())
        assert len(report["rows"]) == 3
        csv_rows = out.read_text().splitlines()[1:]
        for row, line in zip(report["rows"], csv_rows):
            assert line.startswith(row["decoder"])
            assert f"{row['boundary_f1']:.6f}" in line
        timing = (tmp_path / "bench.csv.timing.csv").read_text().splitlines()
        assert timing[0] == "decoder,W,gamma,wall_ms"
        assert len(timing) == 4

    def test_window_sums_timed_in_herd_rows(self, tmp_path, msa_path, monkeypatch):
        # each window_scores call sleeps 0.1 s: one call for the query's two
        # widths, 0.05 s of it in each herd row
        model, fasta, truth = self.setup_run(tmp_path, msa_path, count=1)

        def slowed(post, w, _real=cli.window_scores):
            time.sleep(0.1)
            return _real(post, w)

        monkeypatch.setattr(cli, "window_scores", slowed)
        out = tmp_path / "bench.csv"
        assert run("bench", "--model", model, "--in", fasta, "--truth", truth,
                   "--out", out, "--sweep-W", "5,10", "--gamma", 0.5) == 0
        _, *rows = (tmp_path / "bench.csv.timing.csv").read_text().splitlines()
        herd = [float(r.split(",")[3]) for r in rows if r.startswith("herd,")]
        assert len(herd) == 2
        assert min(herd) >= 50.0

    def test_one_prefix_table_per_query(self, tmp_path, msa_path, monkeypatch):
        # Two queries, three widths: two window_scores calls, and every grid
        # point of a query reads its own width from that query's table.
        model, fasta, truth = self.setup_run(tmp_path, msa_path)
        tables, grids = [], []

        def counted(post, w, _real=cli.window_scores):
            tables.append(_real(post, w))
            return tables[-1]

        def recorded(post, points, graph, _real=cli.decode_grid):
            grids.append(points)
            return _real(post, points, graph)

        monkeypatch.setattr(cli, "window_scores", counted)
        monkeypatch.setattr(cli, "decode_grid", recorded)
        out = tmp_path / "bench.csv"
        assert run("bench", "--model", model, "--in", fasta, "--truth", truth,
                   "--out", out, "--sweep-W", "0,5,10", "--sweep-gamma", "0.5,1") == 0
        assert len(tables) == len(grids) == 2
        for table, points in zip(tables, grids):
            assert [ws.window for ws, _ in points] == [0, 0, 5, 5, 10, 10]
            assert all(ws.window == params.window for ws, params in points)
            assert all(ws.cum is table.cum for ws, _ in points)

    def test_byte_identical_reruns(self, tmp_path, msa_path):
        model, fasta, truth = self.setup_run(tmp_path, msa_path)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["--model", model, "--in", fasta, "--truth", truth,
                "--W", 8, "--sweep-gamma", "0.1,0.5", "--tolerance", 10, "--seed", 1]
        assert run("bench", *args, "--out", a) == 0
        assert run("bench", *args, "--out", b) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_window_beyond_the_records(self, tmp_path, msa_path):
        model, fasta, truth = self.setup_run(tmp_path, msa_path)
        whole = max(len(r.seq) for r in read_fasta(fasta)) - 1
        out = tmp_path / "o.csv"
        assert run("bench", "--model", model, "--in", fasta, "--truth", truth, "--out", out,
                   "--sweep-W", f"5,{whole},{10**20}", "--gamma", 0.5) == 0
        preds = tmp_path / "o.csv.preds"
        assert (preds / f"herd_W{whole}_g0.5.tsv").read_bytes() == \
            (preds / f"herd_W{10**20}_g0.5.tsv").read_bytes()

    def test_grid_option_spellings_agree(self, tmp_path, msa_path):
        model, fasta, truth = self.setup_run(tmp_path, msa_path, count=1)
        args = ["--model", model, "--in", fasta, "--truth", truth, "--tolerance", 10]
        a, b = tmp_path / "a" / "bench.csv", tmp_path / "b" / "bench.csv"
        a.parent.mkdir()
        b.parent.mkdir()
        assert run("bench", *args, "--out", a, "--W", "5,10", "--gamma", "0.2,1") == 0
        assert run("bench", *args, "--out", b,
                   "--sweep-W", "5,10", "--sweep-gamma", "0.2,1") == 0
        files = ["bench.csv", "bench.csv.json"] + [
            f"bench.csv.preds/{p.name}" for p in (a.parent / "bench.csv.preds").iterdir()]
        assert len(files) == 14
        for name in files:
            assert (a.parent / name).read_bytes() == (b.parent / name).read_bytes()

    def test_missing_truth_record(self, tmp_path, msa_path, capsys):
        model, fasta, _ = self.setup_run(tmp_path, msa_path)
        truth = tmp_path / "short.tsv"
        truth.write_text("seq_id\tstart\tend\tcolor_id\tcolor_name\n")
        assert run("bench", "--model", model, "--in", fasta, "--truth", truth,
                   "--out", tmp_path / "o.csv") == 1
        assert "no truth" in capsys.readouterr().err

    def test_short_truth_names_record_and_lengths(self, tmp_path, msa_path, capsys):
        model, fasta, truth = self.setup_run(tmp_path, msa_path)
        lines = truth.read_text().splitlines(keepends=True)
        last = max(i for i, line in enumerate(lines) if line.startswith("q0000\t"))
        cells = lines[last].split("\t")
        cells[2] = str(int(cells[2]) - 5)
        lines[last] = "\t".join(cells)
        truth.write_text("".join(lines))
        length = len(read_fasta(fasta)[0].seq)
        assert run("bench", "--model", model, "--in", fasta, "--truth", truth,
                   "--out", tmp_path / "o.csv") == 1
        err = capsys.readouterr().err
        assert f"record 'q0000': truth covers {length - 5} positions, " \
               f"the sequence has {length}" in err
        assert not (tmp_path / "o.csv").exists()

    @pytest.mark.parametrize("case", sorted(BAD_TRUTH))
    def test_bad_truth_names_file_and_line_or_record(self, tmp_path, t1_model_path,
                                                      capsys, case):
        truth, message = bad_truth(tmp_path, case)
        fasta = tmp_path / "q.fasta"
        write_fasta(fasta, [("q1", "xy" * 5)])
        assert run("bench", "--model", t1_model_path, "--in", fasta, "--truth", truth,
                   "--out", tmp_path / "o.csv") == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "o.csv").exists()

    def test_non_utf8_truth_names_file(self, tmp_path, t1_model_path, capsys):
        fasta, truth = tmp_path / "q.fasta", tmp_path / "t.tsv"
        write_fasta(fasta, [("q1", "xy" * 5)])
        truth.write_bytes(NOT_UTF8)
        assert run("bench", "--model", t1_model_path, "--in", fasta, "--truth", truth,
                   "--out", tmp_path / "o.csv") == 1
        assert capsys.readouterr().err == f"error: {truth}: {NOT_UTF8_ERROR}\n"
        assert not (tmp_path / "o.csv").exists()

    def test_alphabet_mismatch_names_record(self, tmp_path, t1_model_path, capsys):
        fasta, truth = tmp_path / "q.fasta", tmp_path / "t.tsv"
        write_fasta(fasta, [("good", "xy"), ("bad_one", "xz")])
        truth.write_text("seq_id\tstart\tend\tcolor_id\tcolor_name\n"
                         "good\t1\t2\t0\tA\nbad_one\t1\t2\t0\tA\n")
        assert run("bench", "--model", t1_model_path, "--in", fasta, "--truth", truth,
                   "--out", tmp_path / "o.csv") == 1
        assert capsys.readouterr().err == (
            "error: record 'bad_one': symbol 'z' at position 2 not in model alphabet\n")
        assert not (tmp_path / "o.csv").exists()

    def test_truth_color_outside_model(self, tmp_path, msa_path, capsys):
        model, fasta, truth = self.setup_run(tmp_path, msa_path)
        head, first, *rest = truth.read_text().splitlines(keepends=True)
        cells = first.split("\t")
        cells[3] = "7"
        truth.write_text("".join([head, "\t".join(cells)] + rest))
        assert run("bench", "--model", model, "--in", fasta, "--truth", truth,
                   "--out", tmp_path / "o.csv") == 1
        assert "record 'q0000': truth color id 7 is not in the model (3 colors)" \
            in capsys.readouterr().err

    @pytest.mark.parametrize("flag, values, message", [
        ("--W", "5,5", "--W/--sweep-W lists the value 5 twice"),
        ("--sweep-W", "10,5,010", "--W/--sweep-W lists the value 10 twice"),
        ("--gamma", "0.2,0.2", "--gamma/--sweep-gamma lists the value 0.2 twice"),
        ("--sweep-gamma", "0.2,1,0.20", "--gamma/--sweep-gamma lists the value 0.2 twice"),
        ("--W", "5,x", "--W/--sweep-W lists 'x', not a valid int"),
        ("--sweep-W", "5, 2.5", "--W/--sweep-W lists '2.5', not a valid int"),
        ("--gamma", "0.2,high", "--gamma/--sweep-gamma lists 'high', not a valid float"),
    ])
    def test_repeated_grid_value_rejected(self, tmp_path, msa_path, capsys,
                                          flag, values, message):
        model, fasta, truth = self.setup_run(tmp_path, msa_path, count=1)
        assert run("bench", "--model", model, "--in", fasta, "--truth", truth,
                   "--out", tmp_path / "o.csv", flag, values) == 1
        assert message in capsys.readouterr().err

    def test_herd_predictions_equal_decode(self, tmp_path, msa_path):
        model, fasta, truth = self.setup_run(tmp_path, msa_path)
        out = tmp_path / "bench.csv"
        assert run("bench", "--model", model, "--in", fasta, "--truth", truth,
                   "--out", out, "--W", "0,10", "--gamma", "0.2,1", "--alpha", 0.5) == 0
        for w in (0, 10):
            for g in ("0.2", "1"):
                decoded = tmp_path / f"herd_W{w}_g{g}.tsv"
                assert run("decode", "--model", model, "--in", fasta, "--out", decoded,
                           "--decoder", "herd", "--W", w, "--gamma", g,
                           "--alpha", 0.5) == 0
                assert (tmp_path / "bench.csv.preds" / decoded.name).read_bytes() == \
                    decoded.read_bytes()

    @staticmethod
    def forbid_decoding(monkeypatch):
        def decoded(*args):
            raise AssertionError("a query was decoded")
        for name in ("viterbi_decode", "forward_backward"):
            monkeypatch.setattr(cli, name, decoded)

    @pytest.mark.parametrize("flag, name, out, labels, clash", [
        ("--model", "mm.json", "mm", "--out's report and --model", "mm.json"),
        ("--truth", "o.csv.timing.csv", "o.csv", "--out's timing and --truth",
         "o.csv.timing.csv"),
        ("--truth", "o.csv.preds/viterbi_W10_g0.2.tsv", "o.csv",
         "--out's predictions and --truth", "o.csv.preds/viterbi_W10_g0.2.tsv"),
        ("--in", "o.csv.preds/herd_W5_g1.tsv", "o.csv", "--out's predictions and --in",
         "o.csv.preds/herd_W5_g1.tsv"),
        ("--model", "m.json", "m.json.arrays", "--out and --model's sidecar", "m.json.arrays"),
    ], ids=["report", "timing", "viterbi-tsv", "herd-tsv", "sidecar"])
    def test_output_over_input_rejected(self, tmp_path, msa_path, capsys, monkeypatch,
                                        flag, name, out, labels, clash):
        # One input sits where bench would write one of its outputs.
        model, fasta, truth = self.setup_run(tmp_path, msa_path, count=1)
        inputs = {"--model": model, "--in": fasta, "--truth": truth}
        moved = tmp_path / name
        moved.parent.mkdir(exist_ok=True)
        if flag == "--model":
            save_model(load_model(model), moved)
        else:
            moved.write_bytes(inputs[flag].read_bytes())
        inputs[flag] = moved
        before = file_bytes(tmp_path)
        self.forbid_decoding(monkeypatch)
        assert run("bench", *(a for pair in inputs.items() for a in pair),
                   "--out", tmp_path / out, "--W", "5,10", "--gamma", "0.2,1") == 1
        assert capsys.readouterr().err == \
            f"error: {labels} point at the same path {tmp_path / clash}\n"
        assert file_bytes(tmp_path) == before

    def test_negative_tolerance_rejected_before_decoding(self, tmp_path, msa_path, capsys,
                                                         monkeypatch):
        model, fasta, truth = self.setup_run(tmp_path, msa_path, count=1)
        self.forbid_decoding(monkeypatch)
        assert run("bench", "--model", model, "--in", fasta, "--truth", truth,
                   "--out", tmp_path / "o.csv", "--tolerance", -1) == 1
        assert capsys.readouterr().err == "error: --tolerance must be >= 0\n"
        assert not (tmp_path / "o.csv").exists()

    def test_predictions_path_taken_by_file_rejected_before_decoding(
            self, tmp_path, msa_path, capsys, monkeypatch):
        model, fasta, truth = self.setup_run(tmp_path, msa_path, count=1)
        preds = tmp_path / "o.csv.preds"
        preds.write_text("not a directory\n")
        before = file_bytes(tmp_path)
        self.forbid_decoding(monkeypatch)
        assert run("bench", "--model", model, "--in", fasta, "--truth", truth,
                   "--out", tmp_path / "o.csv") == 1
        assert capsys.readouterr().err == \
            f"error: --out's predictions directory {preds} is not a directory\n"
        assert file_bytes(tmp_path) == before
        assert not (tmp_path / "o.csv").exists()

    def test_query_file_without_records_rejected(self, tmp_path, msa_path, capsys,
                                                 monkeypatch):
        model, _, truth = self.setup_run(tmp_path, msa_path, count=1)
        empty = tmp_path / "empty.fasta"
        empty.write_text("")
        self.forbid_decoding(monkeypatch)
        assert run("bench", "--model", model, "--in", empty, "--truth", truth,
                   "--out", tmp_path / "o.csv") == 1
        assert capsys.readouterr().err == f"error: {empty}: no FASTA records to benchmark\n"
        assert not (tmp_path / "o.csv").exists()

    def test_repeated_record_id_rejected(self, tmp_path, msa_path, capsys, monkeypatch):
        model, fasta, truth = self.setup_run(tmp_path, msa_path, count=2)
        records = read_fasta(fasta)
        write_fasta(fasta, records + records[:1])
        self.forbid_decoding(monkeypatch)
        assert run("bench", "--model", model, "--in", fasta, "--truth", truth,
                   "--out", tmp_path / "o.csv") == 1
        assert capsys.readouterr().err == \
            f"error: {fasta}: record id {records[0].id!r} appears more than once\n"
        assert not (tmp_path / "o.csv").exists()

    @pytest.mark.parametrize("flag, value, message", [
        ("--alpha", "nan", "--alpha must be a finite number >= 0, not nan"),
        ("--sweep-W", "5,-1", "--W/--sweep-W must be a finite number >= 0, not -1"),
        ("--gamma", "0.2,inf", "--gamma/--sweep-gamma must be a finite number >= 0, not inf"),
        ("--sweep-gamma", "nan", "--gamma/--sweep-gamma must be a finite number >= 0, not nan"),
    ])
    def test_bad_gain_value_names_flag(self, tmp_path, capsys, flag, value, message):
        # No file exists: the values are checked before anything is read.
        assert run("bench", "--model", tmp_path / "m.json", "--in", tmp_path / "q.fasta",
                   "--truth", tmp_path / "t.tsv", "--out", tmp_path / "o.csv",
                   flag, value) == 1
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize("flag, values, shown", [
        ("--sweep-gamma", "0.1,0.1000001", "0.1 and 0.1000001, which both print as 0.1"),
        ("--gamma", "1,2.5,1.0000001e-7,1e-7", "1.0000001e-07 and 1e-07, which both print as 1e-07"),
    ])
    def test_grid_values_printing_alike_rejected(self, tmp_path, capsys, flag, values, shown):
        # Both grid points would write one CSV gamma and one .preds file name.
        # No file exists: the values are checked before anything is read.
        assert run("bench", "--model", tmp_path / "m.json", "--in", tmp_path / "q.fasta",
                   "--truth", tmp_path / "t.tsv", "--out", tmp_path / "o.csv",
                   flag, values) == 1
        assert capsys.readouterr().err == f"error: --gamma/--sweep-gamma lists {shown}\n"
        assert not (tmp_path / "o.csv").exists()

    def test_empty_sweep_rejected(self, tmp_path, msa_path, capsys):
        model, fasta, truth = self.setup_run(tmp_path, msa_path, count=1)
        assert run("bench", "--model", model, "--in", fasta, "--truth", truth,
                   "--out", tmp_path / "o.csv", "--sweep-gamma", ",") == 1
        assert "nonempty" in capsys.readouterr().err

    def test_decoder_option_rejected(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            run("bench", "--model", tmp_path / "m.json", "--in", tmp_path / "q.fasta",
                "--truth", tmp_path / "t.tsv", "--out", tmp_path / "o.csv",
                "--decoder", "herd")
        assert exc.value.code == 2
