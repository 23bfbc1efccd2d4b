import json

import numpy as np
import pytest

from gainhmm import load_model, save_model, build_hmm, synthetic_subtypes
from gainhmm.cli import main
from gainhmm.metrics import base_accuracy, boundary_metrics
from gainhmm.seqio import FastaRecord, read_fasta, read_segments, write_fasta
from conftest import t1_spec


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

    def test_viterbi_segments(self, tmp_path, t1_model_path):
        fasta = tmp_path / "q.fasta"
        write_fasta(fasta, [("q1", "xy")])
        out = tmp_path / "pred.tsv"
        assert run("decode", "--model", t1_model_path, "--in", fasta, "--out", out,
                   "--decoder", "viterbi") == 0
        lines = out.read_text().splitlines()
        assert lines[1:] == ["q1\t1\t2\t1\tB"]

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

    def test_byte_identical_reruns(self, tmp_path, msa_path):
        model, fasta, truth = self.setup_run(tmp_path, msa_path)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["--model", model, "--in", fasta, "--truth", truth,
                "--W", 8, "--sweep-gamma", "0.1,0.5", "--tolerance", 10, "--seed", 1]
        assert run("bench", *args, "--out", a) == 0
        assert run("bench", *args, "--out", b) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_missing_truth_record(self, tmp_path, msa_path, capsys):
        model, fasta, _ = self.setup_run(tmp_path, msa_path)
        truth = tmp_path / "short.tsv"
        truth.write_text("seq_id\tstart\tend\tcolor_id\tcolor_name\n")
        assert run("bench", "--model", model, "--in", fasta, "--truth", truth,
                   "--out", tmp_path / "o.csv") == 1
        assert "no truth" in capsys.readouterr().err

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
