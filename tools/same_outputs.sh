#!/usr/bin/env bash
# Run the freqfuse CLI from two source trees on one small synthetic set and
# compare every output byte for byte.
#
#   tools/same_outputs.sh PARENT_DIR CHANGE_DIR
#
# Each DIR is a checkout whose src/ holds the freqfuse package. In each tree
# the script runs synth, train (freq_plus_knowledge), a train at --lr 1e300
# that diverges, ablate --fold 0 with --workers 1, with the default worker
# count (one per usable core) and with --workers 2, eval, retrieve, spectrum
# and gradcheck, then retrieve at --k 1 and 3, fidelity and cosine, on a
# 20,000-entry KB built from the synthetic one, and on that KB once more with
# 70 queries, which `retrieve` scores as three tiles (32, 32 and 6 rows).
# Then each tree's eval reads the checkpoint, dataset and KB
# that the PARENT tree wrote, so a change that evaluates an older checkpoint
# differently shows up as a differing eval_parent_ckpt.out. It keeps every
# file a command writes, its stdout and its exit code; stderr is kept aside
# (warnings name source lines) and not compared, except the diverging train's:
# its one line, the numeric-error message, holds no source path and is kept
# as train_diverges.err.
# Commands run inside the output directory with relative paths, so printed
# paths match. The script names each file that differs or exists on one side
# only, and exits 1 if any does, 0 if none. For a .json file on both sides it
# also names the dotted key paths found on one side only and those whose
# values differ (list items by index), e.g.
#   differs: train/summary.json: only in PARENT: config.retrieval
# or says that keys and values match and only the bytes differ. A checkpoint
# (*.ckpt.json) is loaded instead by each tree's own load_checkpoint, so a
# change of file format alone reads "same parameters and meta"; otherwise the
# script names each tensor whose loaded bytes, dtype or shape differ, e.g.
#   differs: train/fold0.ckpt.json: tensors differ: cls.b3
# Likewise a dataset or knowledge base (data/*.jsonl) is loaded by each tree's
# own load_dataset or load_knowledge_base, so a change of vector encoding
# alone reads "same loaded arrays"; otherwise the script names the header or
# the sample and entry columns whose loaded values differ, e.g.
#   differs: data/kb.jsonl: loaded values differ: embeddings
# The retrieve queries are each KB's loaded embeddings, written as JSON
# number lists by the same code in both trees. For any other .out, .csv,
# .jsonl or .err file on both sides it prints the first 20 lines of
# `diff -u PARENT CHANGE` below the name.
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
    step train_diverges train --dataset data/dataset.jsonl --out-dir train_diverges \
        --lr 1e300 --workers 1 "${SMALL[@]}"
    cp train_diverges.stderr train_diverges.err
    step ablate ablate --dataset data/dataset.jsonl --kb data/kb.jsonl --out-dir ablate \
        --fold 0 --workers 1 "${SMALL[@]}"
    step ablate_default ablate --dataset data/dataset.jsonl --kb data/kb.jsonl \
        --out-dir ablate_default --fold 0 "${SMALL[@]}"
    step ablate_workers ablate --dataset data/dataset.jsonl --kb data/kb.jsonl \
        --out-dir ablate_workers --fold 0 --workers 2 "${SMALL[@]}"
    step eval eval --dataset data/dataset.jsonl --kb data/kb.jsonl \
        --checkpoint train/fold0.ckpt.json
    PYTHONPATH="$src" python3 -c 'import json
from freqfuse import data
for entry in data.load_knowledge_base("data/kb.jsonl"):
    print(json.dumps([float(v) for v in entry.embedding]))' >queries.jsonl
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
    fh.writelines(json.dumps([float(v) for v in q]) + "\n" for q in queries)
with open("tiled_queries.jsonl", "w") as fh:
    fh.writelines(json.dumps([float(v) for v in q]) + "\n"
                  for q in queries + list(rng.standard_normal((58, d))))'
    for similarity in fidelity cosine; do
        for k in 1 3; do
            step "retrieve_large_${similarity}_k$k" retrieve --kb data/large_kb.jsonl \
                --queries large_queries.jsonl --k "$k" --similarity "$similarity"
        done
    done
    step retrieve_large_tiles retrieve --kb data/large_kb.jsonl --queries tiled_queries.jsonl --k 3
    step spectrum spectrum --dataset data/dataset.jsonl --out-dir spectrum --limit 5
    step gradcheck gradcheck --seed 0
}

# eval_parent_ckpt SRC DIR: eval from SRC, in DIR, of what the PARENT tree wrote
eval_parent_ckpt() {
    src=$1
    cd "$2"
    step eval_parent_ckpt eval --dataset ../parent/data/dataset.jsonl \
        --kb ../parent/data/kb.jsonl --checkpoint ../parent/train/fold0.ckpt.json
}

(run_tree "$parent_src" "$work/parent")
(run_tree "$change_src" "$work/change")
(eval_parent_ckpt "$parent_src" "$work/parent")
(eval_parent_ckpt "$change_src" "$work/change")

differ=0
files=$(cd "$work" && { find parent change -type f ! -name '*.stderr' | cut -d/ -f2- | sort -u; })
# json_diff PARENT_FILE CHANGE_FILE: the key paths that tell two JSON files apart
json_diff() {
    python3 - "$1" "$2" <<'PY'
import json
import sys

def flat(node, path=""):
    if isinstance(node, (dict, list)) and node:  # an empty one is a value
        items = node.items() if isinstance(node, dict) else enumerate(node)
        for key, value in items:
            yield from flat(value, f"{path}.{key}" if path else str(key))
    else:
        yield path, node

def names(paths, shown=12):
    more = len(paths) - shown
    return ", ".join(paths[:shown]) + (f" and {more} more" if more > 0 else "")

def load(name):
    with open(name, encoding="utf-8") as fh:
        return dict(flat(json.load(fh)))

try:
    parent, change = (load(name) for name in sys.argv[1:])
except ValueError:  # not JSON on one side: the file name says enough
    sys.exit()
parts = []
for label, paths in (
    ("only in PARENT", [p for p in parent if p not in change]),
    ("only in CHANGE", [p for p in change if p not in parent]),
    ("values differ", [p for p in parent if p in change and parent[p] != change[p]]),
):
    if paths:
        parts.append(f"{label}: {names(paths)}")
print(": " + "; ".join(parts or ["same keys and values, bytes differ"]), end="")
PY
}

# ckpt_tensors SRC FILE: the checkpoint as SRC's load_checkpoint reads it, one
# "name dtype shape sha256" line per tensor, then its meta as sorted JSON
ckpt_tensors() {
    PYTHONPATH="$1" python3 - "$2" <<'PY'
import hashlib
import json
import sys

from freqfuse.model import load_checkpoint

for name, tensor in load_checkpoint(sys.argv[1]).named().items():
    data = tensor.data
    print(name, data.dtype, data.shape, hashlib.sha256(data.tobytes()).hexdigest())
with open(sys.argv[1], encoding="utf-8") as fh:
    print("meta", json.dumps(json.load(fh)["meta"], sort_keys=True))
PY
}

# loaded_inputs SRC FILE: a dataset (its first line holds "meta") or a KB as
# SRC's loader reads it, one "name sha256" line per header or column
loaded_inputs() {
    PYTHONPATH="$1" python3 - "$2" <<'PY'
import hashlib
import json
import sys

import numpy as np

from freqfuse import data

def digest(value):
    raw = value.tobytes() if isinstance(value, np.ndarray) else json.dumps(value).encode()
    return hashlib.sha256(raw).hexdigest()

path = sys.argv[1]
with open(path, encoding="utf-8") as fh:
    is_dataset = "meta" in json.loads(fh.readline())
if is_dataset:
    manifest, samples = data.load_dataset(path)
    columns = {"header": [manifest.n_classes, manifest.d_model, manifest.feature_layout],
               "ids": [[s.sample_id, s.image_id, s.answer_class] for s in samples],
               "image_features": data.image_matrix(samples),
               "question_features": data.question_matrix(samples),
               "question_tokens": [s.question_tokens for s in samples]}
else:
    kb = data.load_knowledge_base(path)
    columns = {"ids": list(kb.ids), "texts": list(kb.texts), "embeddings": kb.embeddings}
for name, value in columns.items():
    print(name, digest(value))
PY
}

# loaded_diff KIND PARENT_FILE CHANGE_FILE: the tensors or meta (KIND ckpt),
# or the loaded columns (KIND inputs), that tell two files apart, each loaded
# by its own tree
loaded_diff() {
    local reader=ckpt_tensors same="same parameters and meta" parent change
    if [ "$1" = inputs ]; then
        reader=loaded_inputs same="same loaded arrays"
    fi
    parent=$("$reader" "$parent_src" "$2" 2>/dev/null) || parent="error PARENT cannot load it"
    change=$("$reader" "$change_src" "$3" 2>/dev/null) || change="error CHANGE cannot load it"
    python3 - "$1" "$same" "$parent" "$change" <<'PY'
import sys

kind, same = sys.argv[1:3]
sides = [dict(line.split(" ", 1) for line in text.splitlines()) for text in sys.argv[3:]]
errors = [side["error"] for side in sides if "error" in side]
if errors:
    print(": " + "; ".join(errors), end="")
    sys.exit()
parent, change = sides
differ = [name for name in {**parent, **change} if parent.get(name) != change.get(name)]
if kind == "inputs":
    parts = [f"loaded values differ: {', '.join(differ)}"] if differ else []
else:
    tensors = [name for name in differ if name != "meta"]
    parts = [f"tensors differ: {', '.join(tensors)}"] if tensors else []
    if "meta" in differ:
        parts.append("meta differs")
print(": " + "; ".join(parts or [same]), end="")
PY
}

for rel in $files; do
    if ! cmp -s "$work/parent/$rel" "$work/change/$rel"; then
        if [ ! -f "$work/change/$rel" ]; then
            detail=": file only in PARENT"
        elif [ ! -f "$work/parent/$rel" ]; then
            detail=": file only in CHANGE"
        elif [[ $rel == *.ckpt.json ]]; then
            detail=$(loaded_diff ckpt "$work/parent/$rel" "$work/change/$rel")
        elif [[ $rel == data/*.jsonl ]]; then
            detail=$(loaded_diff inputs "$work/parent/$rel" "$work/change/$rel")
        elif [[ $rel == *.json ]]; then
            detail=$(json_diff "$work/parent/$rel" "$work/change/$rel")
        else
            detail=""
        fi
        echo "differs: $rel$detail"
        if [[ -f $work/parent/$rel && -f $work/change/$rel && $rel =~ \.(out|csv|jsonl|err)$
              && $rel != data/*.jsonl ]]; then
            # diff exits 1 on a difference, and head may cut its output short
            diff -u --label "PARENT/$rel" --label "CHANGE/$rel" \
                "$work/parent/$rel" "$work/change/$rel" | head -n 20 || true
        fi
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
