#!/usr/bin/env bash
# Runs the installed `gainhmm` console script end to end in a new temporary
# directory, on two models: 3 subtypes x 300 columns (1,803 states, sparse
# kernels) and 2 subtypes x 60 columns (242 states, dense kernels). For
# each it builds the model, simulates queries, decodes them with herd,
# posterior and viterbi using the model's sidecar and again after deleting
# it, and fails unless each pair of segment tables is byte-identical. The small
# model's records are joined into one 300-nt query, longer than the 135
# gaps of one dense backward chunk at 242 states.
set -euo pipefail
cd "$(mktemp -d)"

# check NAME SUBTYPES COLUMNS COUNT MIN_SEGMENT JOIN
check() {
  local name=$1
  python -c "import sys; from gainhmm import synthetic_subtypes; from gainhmm.seqio import FastaRecord, write_fasta; msa = synthetic_subtypes($2, $3, 0.15, seed=1); write_fasta(sys.argv[1], [FastaRecord(f'{n}_{i}', s, {'subtype': n}) for n in msa.names for i, s in enumerate(msa.groups[n])])" "$name.msa.fa"
  gainhmm build-model --in "$name.msa.fa" --out "$name.json"
  gainhmm simulate --in "$name.msa.fa" --out "$name.sim.fa" --truth "$name.truth.tsv" \
    --count "$4" --seed 2 --min-segment "$5"
  if [ "$6" = join ]; then
    python -c "import sys; from gainhmm.seqio import read_fasta, write_fasta; write_fasta(sys.argv[2], [('joined', ''.join(r.seq for r in read_fasta(sys.argv[1])))])" "$name.sim.fa" "$name.queries.fa"
  else
    cp "$name.sim.fa" "$name.queries.fa"
  fi
  cp "$name.json.arrays" "$name.arrays.kept"
  for decoder in herd posterior viterbi; do
    cp "$name.arrays.kept" "$name.json.arrays"
    gainhmm decode --model "$name.json" --in "$name.queries.fa" --out "$name.$decoder.with.tsv" --decoder "$decoder"
    rm "$name.json.arrays"
    gainhmm decode --model "$name.json" --in "$name.queries.fa" --out "$name.$decoder.without.tsv" --decoder "$decoder"
    cmp "$name.$decoder.with.tsv" "$name.$decoder.without.tsv"
  done
}

check sparse 3 300 3 60 keep
check dense 2 60 5 15 join
