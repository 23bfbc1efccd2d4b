#!/usr/bin/env bash
# Runs the installed `gainhmm` console script end to end in a new temporary
# directory: builds a model, simulates queries, decodes them with the
# model's sidecar and again after deleting it, and fails unless the two
# segment tables are byte-identical.
set -euo pipefail
cd "$(mktemp -d)"
python -c "from gainhmm import synthetic_subtypes; from gainhmm.seqio import FastaRecord, write_fasta; msa = synthetic_subtypes(3, 300, 0.15, seed=1); write_fasta('msa.fa', [FastaRecord(f'{n}_{i}', s, {'subtype': n}) for n in msa.names for i, s in enumerate(msa.groups[n])])"
gainhmm build-model --in msa.fa --out model.json
gainhmm simulate --in msa.fa --out queries.fa --truth truth.tsv --count 3 --seed 2 --min-segment 60
gainhmm decode --model model.json --in queries.fa --out with.tsv --decoder herd
rm model.json.arrays
gainhmm decode --model model.json --in queries.fa --out without.tsv --decoder herd
cmp with.tsv without.tsv
