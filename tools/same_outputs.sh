#!/usr/bin/env bash
# Run the freqfuse CLI from two source trees on one small synthetic set and
# compare every output byte for byte.
#
#   tools/same_outputs.sh PARENT_DIR CHANGE_DIR
#
# Each DIR is a checkout whose src/ holds the freqfuse package. In each tree
# the script runs synth, train (freq_plus_knowledge), ablate --fold 0 with
# --workers 1, with the default worker count (one per usable core) and with
# --workers 2, eval, retrieve, spectrum and gradcheck, then retrieve
# at --k 1 and 3, fidelity and cosine, on a 20,000-entry KB built from the
# synthetic one. It keeps every file a command writes, its stdout and its exit
# code; stderr is kept aside (warnings name source lines) and not compared.
# Commands run inside the output directory with relative paths, so printed
# paths match. The script names each file that differs or exists on one side
# only, and exits 1 if any does, 0 if none.
set -euo pipefail

if [ $# -ne 2 ]; then
    echo "usage: $0 PARENT_DIR CHANGE_DIR" >&2
    exit 2
fi
parent_src=$(cd "$1/src" && pwd)
change_src=$(cd "$2/src" && pwd)
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT

SMALL=(--seed 3 --folds 2 --max-epochs 2 --hidden1 16 --hidden2 8 --batch-size 8)

# step NAME ARGS...: run the CLI, keep stdout as NAME.out and the exit code as NAME.code
step() {
    local name=$1
    shift
    local code=0
    PYTHONPATH="$src" python3 -m freqfuse.cli "$@" >"$name.out" 2>"$name.stderr" || code=$?
    echo "$code" >"$name.code"
}

run_tree() {
    src=$1
    mkdir -p "$2"
    cd "$2"
    step synth synth --out-dir data --classes 3 --per-class 8 --d-model 16 --sigma 0.2 --seed 3
    step train train --dataset data/dataset.jsonl --kb data/kb.jsonl --out-dir train \
        --fusion-mode freq_plus_knowledge "${SMALL[@]}"
    step ablate ablate --dataset data/dataset.jsonl --kb data/kb.jsonl --out-dir ablate \
        --fold 0 --workers 1 "${SMALL[@]}"
    step ablate_default ablate --dataset data/dataset.jsonl --kb data/kb.jsonl \
        --out-dir ablate_default --fold 0 "${SMALL[@]}"
    step ablate_workers ablate --dataset data/dataset.jsonl --kb data/kb.jsonl \
        --out-dir ablate_workers --fold 0 --workers 2 "${SMALL[@]}"
    step eval eval --dataset data/dataset.jsonl --kb data/kb.jsonl \
        --checkpoint train/fold0.ckpt.json
    python3 -c 'import json, sys
for line in open("data/kb.jsonl"):
    print(json.dumps(json.loads(line)["embedding"]))' >queries.jsonl
    step retrieve retrieve --kb data/kb.jsonl --queries queries.jsonl --k 2
    # a KB large enough for block-max top-k to prune: the synthetic entries,
    # 20,000 seeded distractors, and copies of each prototype scaled by 2, 4
    # and 8 (each ties its prototype exactly) spread through the file; the
    # queries are the prototypes, perturbed prototypes and distractor-like rows
    PYTHONPATH="$src" python3 -c 'import json
import numpy as np
from freqfuse import data
entries = list(data.load_knowledge_base("data/kb.jsonl"))
rng = np.random.default_rng(20011)
d = len(entries[0].embedding)
entries += [data.KnowledgeEntry(f"distractor-{i}", "distractor", v)
            for i, v in enumerate(rng.standard_normal((20000, d)) / np.sqrt(d))]
protos = [e.embedding for e in entries[:3]]
for c, scale in enumerate([2.0, 4.0, 8.0] * 3):
    entries.insert((c + 1) * len(entries) // 10, data.KnowledgeEntry(
        f"proto{c // 3}-x{scale:g}", "copy", scale * protos[c // 3]))
data.save_knowledge_base("data/large_kb.jsonl", entries)
queries = protos + [p + 0.05 * rng.standard_normal(d) for p in protos]
queries += list(rng.standard_normal((6, d)))
with open("large_queries.jsonl", "w") as fh:
    fh.writelines(json.dumps([float(v) for v in q]) + "\n" for q in queries)'
    for similarity in fidelity cosine; do
        for k in 1 3; do
            step "retrieve_large_${similarity}_k$k" retrieve --kb data/large_kb.jsonl \
                --queries large_queries.jsonl --k "$k" --similarity "$similarity"
        done
    done
    step spectrum spectrum --dataset data/dataset.jsonl --out-dir spectrum --limit 5
    step gradcheck gradcheck --seed 0
}

(run_tree "$parent_src" "$work/parent")
(run_tree "$change_src" "$work/change")

differ=0
files=$(cd "$work" && { find parent change -type f ! -name '*.stderr' | cut -d/ -f2- | sort -u; })
for rel in $files; do
    if ! cmp -s "$work/parent/$rel" "$work/change/$rel"; then
        echo "differs: $rel"
        differ=1
    fi
done
for f in "$work"/change/*.code; do
    [ "$(cat "$f")" = 0 ] || echo "note: $(basename "$f" .code) exited $(cat "$f") in CHANGE_DIR"
done
count=$(echo "$files" | wc -l)
if [ "$differ" -eq 0 ]; then
    echo "same: all $count files"
fi
exit "$differ"
