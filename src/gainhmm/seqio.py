"""FASTA and segment-table file handling.

FASTA headers may carry key=value attributes after the record id; subtype
alignments use `subtype=<name>`. Segment tables are TSV with 1-based
inclusive coordinates, one line per maximal same-color segment.
"""

from __future__ import annotations

from ._files import create, text_lines
from .jumping import SubtypeAlignment, check_sequence
from .model import Annotation

SEGMENT_HEADER = ("seq_id", "start", "end", "color_id", "color_name")


class FastaRecord:
    def __init__(self, rid, seq, attrs=None):
        self.id = rid
        self.seq = seq
        self.attrs = attrs or {}

    def __iter__(self):
        return iter((self.id, self.seq))


def read_fasta(path):
    """Parse FASTA into FastaRecords; errors carry file and line number."""
    heads = []  # (id, attrs, sequence lines) of each record
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(text_lines(fh), start=1):
            line = raw.strip()
            if not line:
                continue
            if line.startswith(">"):
                fields = line[1:].split()
                if not fields:
                    raise ValueError(f"{path}:{lineno}: header with no id")
                attrs = dict(tok.split("=", 1) for tok in fields[1:] if "=" in tok)
                heads.append((fields[0], attrs, []))
            elif not heads:
                raise ValueError(f"{path}:{lineno}: sequence before first header")
            else:
                heads[-1][2].append(line)
    return [FastaRecord(rid, "".join(chunks), attrs) for rid, attrs, chunks in heads]


def write_fasta(path, records, width=70):
    """Write (id, seq) pairs or FastaRecords as FASTA."""
    with create(path) as fh:
        for rec in records:
            rid, seq = rec
            attrs = rec.attrs if isinstance(rec, FastaRecord) else {}
            extra = "".join(f" {k}={v}" for k, v in attrs.items())
            fh.write(f">{rid}{extra}\n")
            for i in range(0, len(seq), width):
                fh.write(seq[i:i + width] + "\n")


def read_subtype_alignment(path):
    """Subtype alignment from FASTA with subtype=<name> header attributes.

    Subtype order follows first appearance in the file. Sequences keep
    their case, so errors quote them as written; the alignment and the
    model builders fold it. Errors name the file, and the record at fault.
    """
    records = read_fasta(path)
    if not records:
        raise ValueError(f"{path}: no sequences")
    groups = {}
    length = len(records[0].seq)
    for rec in records:
        subtype = rec.attrs.get("subtype")
        if subtype is None:
            raise ValueError(f"{path}: record {rec.id!r} lacks a subtype=<name> attribute")
        group = groups.setdefault(subtype, [])
        group.append(rec.seq)
        check_sequence(rec.seq, length, subtype, len(group), f"{path}: record {rec.id!r}")
    if not length:
        raise ValueError(f"{path}: alignment has no columns")
    if len(groups) < 2:
        raise ValueError(f"{path}: need at least two subtypes, found only {subtype!r}")
    return SubtypeAlignment(names=tuple(groups), groups=groups, length=length)


def segment_rows(seq_id, annotation, color_names):
    """Segment TSV lines of one annotated record, without the header."""
    return "".join(f"{seq_id}\t{start}\t{end}\t{color}\t{color_names[color]}\n"
                   for start, end, color in annotation.segments)


def format_segments(entries, color_names):
    """Text of the segment TSV for (seq_id, Annotation) pairs."""
    return "\t".join(SEGMENT_HEADER) + "\n" + "".join(
        segment_rows(seq_id, annotation, color_names) for seq_id, annotation in entries)


def write_segments(path, entries, color_names):
    """Write (seq_id, Annotation) pairs as a segment TSV."""
    text = format_segments(entries, color_names)
    with create(path) as fh:
        fh.write(text)


def read_segments(path):
    """Read a segment TSV into {seq_id: Annotation}; errors name the file and line, or record."""
    per_seq = {}
    with open(path, encoding="utf-8") as fh:
        lines = text_lines(fh)
        header = next(lines, "").rstrip("\n")
        if header.split("\t") != list(SEGMENT_HEADER):
            raise ValueError(f"{path}:1: unexpected segment table header")
        for lineno, raw in enumerate(lines, start=2):
            line = raw.rstrip("\n")
            if not line:
                continue
            parts = line.split("\t")
            if len(parts) != len(SEGMENT_HEADER):
                raise ValueError(f"{path}:{lineno}: expected {len(SEGMENT_HEADER)} columns")
            seq_id, *fields, _name = parts
            for column, text in zip(SEGMENT_HEADER[1:], fields):
                if not text.isdecimal():
                    raise ValueError(f"{path}:{lineno}: {column} is {text!r}, not an integer >= 0")
            per_seq.setdefault(seq_id, []).append(tuple(map(int, fields)))
    for sid, segs in per_seq.items():
        try:
            per_seq[sid] = Annotation.from_segments(segs)
        except ValueError as e:
            raise ValueError(f"{path}: record {sid!r}: {e}") from None
    return per_seq
