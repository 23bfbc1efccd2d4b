import os
import re

import pytest

from gainhmm import Annotation
from gainhmm._files import create
from gainhmm.seqio import (
    FastaRecord,
    read_fasta,
    read_segments,
    read_subtype_alignment,
    write_fasta,
    write_segments,
)
from conftest import BAD_TRUTH, bad_truth


class TestFasta:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "x.fasta"
        write_fasta(path, [("a", "acgt" * 30), ("b", "tt")])
        records = read_fasta(path)
        assert [(r.id, r.seq) for r in records] == [("a", "acgt" * 30), ("b", "tt")]

    def test_attrs_round_trip(self, tmp_path):
        path = tmp_path / "x.fasta"
        write_fasta(path, [FastaRecord("a", "acgt", {"subtype": "B"})])
        rec = read_fasta(path)[0]
        assert rec.attrs == {"subtype": "B"}

    def test_sequence_before_header(self, tmp_path):
        path = tmp_path / "bad.fasta"
        path.write_text("acgt\n>late\nacgt\n")
        with pytest.raises(ValueError, match=rf"{path}:1"):
            read_fasta(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.fasta"
        path.write_text("")
        assert read_fasta(path) == []

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "x.fasta"
        path.write_text("\n>a\nac\n\n  \ngt\n\n>b\ntt\n")
        assert [(r.id, r.seq) for r in read_fasta(path)] == [("a", "acgt"), ("b", "tt")]

    def test_header_without_id(self, tmp_path):
        path = tmp_path / "bad.fasta"
        path.write_text(">a\nacgt\n>  \nacgt\n")
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}:3: header with no id$"):
            read_fasta(path)


class TestSubtypeAlignment:
    def test_order_of_first_appearance(self, tmp_path):
        path = tmp_path / "msa.fasta"
        path.write_text(
            ">s1 subtype=Z\nacgt\n>s2 subtype=A\naccc\n>s3 subtype=Z\nacga\n")
        msa = read_subtype_alignment(path)
        assert msa.names == ("Z", "A")
        assert len(msa.groups["Z"]) == 2

    def test_empty_file(self, tmp_path):
        path = tmp_path / "msa.fasta"
        path.write_text("")
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: no sequences$"):
            read_subtype_alignment(path)

    def test_missing_subtype_attr(self, tmp_path):
        path = tmp_path / "msa.fasta"
        path.write_text(">s1\nacgt\n")
        with pytest.raises(ValueError, match="subtype"):
            read_subtype_alignment(path)


class TestSegments:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "seg.tsv"
        entries = [("q1", Annotation([0, 0, 1])), ("q2", Annotation([1, 1]))]
        write_segments(path, entries, ["A", "B"])
        got = read_segments(path)
        assert got["q1"] == entries[0][1]
        assert got["q2"] == entries[1][1]

    def test_header_written(self, tmp_path):
        path = tmp_path / "seg.tsv"
        write_segments(path, [], ["A"])
        assert path.read_text() == "seq_id\tstart\tend\tcolor_id\tcolor_name\n"

    def test_rejects_foreign_header(self, tmp_path):
        path = tmp_path / "seg.tsv"
        path.write_text("who\twhat\n")
        with pytest.raises(ValueError, match="header"):
            read_segments(path)

    def test_rejects_short_row(self, tmp_path):
        path = tmp_path / "seg.tsv"
        path.write_text("seq_id\tstart\tend\tcolor_id\tcolor_name\nq1\t1\t2\n")
        with pytest.raises(ValueError, match=":2"):
            read_segments(path)

    @pytest.mark.parametrize("case", sorted(BAD_TRUTH))
    def test_bad_field_names_file_and_line_or_record(self, tmp_path, case):
        path, message = bad_truth(tmp_path, case)
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            read_segments(path)


class TestOutputFiles:
    def test_rewrite_replaces_the_file(self, tmp_path):
        path = tmp_path / "seg.tsv"
        write_segments(path, [("q1", Annotation([0, 0, 1]))], ["A", "B"])
        old_inode = os.stat(path).st_ino
        with open(path) as held:  # a reader of the old file keeps its contents
            write_segments(path, [], ["A"])
            assert held.read().count("\n") == 3
        assert os.stat(path).st_ino != old_inode
        assert read_segments(path) == {}

    def test_symlink_is_written_through(self, tmp_path):
        target, link = tmp_path / "target.fasta", tmp_path / "link.fasta"
        target.write_text(">old\nacgt\n")
        link.symlink_to(target)
        write_fasta(link, [("new", "tt")])
        assert link.is_symlink()
        assert [r.id for r in read_fasta(target)] == ["new"]

    def test_missing_directory_still_fails(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            create(tmp_path / "no" / "such.tsv")
