import base64
import errno
import json
import os

import numpy as np
import pytest

from freqfuse import data as data_mod
from freqfuse.data import (
    MAX_TOKENS,
    TEXT_DIM,
    DatasetManifest,
    KnowledgeEntry,
    Sample,
    class_frequencies,
    embed_text_stub,
    generate_synthetic,
    image_matrix,
    labels_array,
    load_dataset,
    load_knowledge_base,
    question_matrix,
    save_dataset,
    save_knowledge_base,
)
from freqfuse.errors import ConfigError, DataError
from freqfuse.kernel.fft import dft_magnitude_raw
from freqfuse.rng import named_stream


def write_lines(path, lines):
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


HEADER = json.dumps({"meta": {"C": 2, "d_model": 4, "feature_layout": "precomputed"}})


def sample_line(i=0, cls=0, **overrides):
    obj = {
        "id": f"s{i}",
        "image_id": f"img{i}",
        "answer_class": cls,
        "image_features": [0.1, 0.2, 0.3, 0.4],
        "question_tokens": [5, 9],
    }
    obj.update(overrides)
    return json.dumps(obj)


def b64(values):
    """Base64 text of `values` as little-endian float64 bytes, as written."""
    return base64.b64encode(np.asarray(values, dtype="<f8").tobytes()).decode("ascii")


def from_b64(text):
    return np.frombuffer(base64.b64decode(text), "<f8").astype(np.float64)


def test_two_line_fixture_loads(tmp_path):
    p = tmp_path / "d.jsonl"
    write_lines(p, [HEADER, sample_line()])
    manifest, samples = load_dataset(str(p))
    assert manifest.n_classes == 2
    assert manifest.d_model == 4
    assert manifest.image_dim == 4
    assert len(samples) == 1
    assert samples[0].sample_id == "s0"
    assert len(samples[0].question_tokens) == MAX_TOKENS


def test_empty_file_rejected_header_only_ok(tmp_path):
    p = tmp_path / "d.jsonl"
    p.write_text("", encoding="utf-8")
    with pytest.raises(DataError):
        load_dataset(str(p))
    write_lines(p, [HEADER])
    manifest, samples = load_dataset(str(p))
    assert samples == []


def test_header_errors_cite_line_one(tmp_path):
    p = tmp_path / "d.jsonl"
    write_lines(p, ["{}", sample_line()])
    with pytest.raises(DataError, match="line 1"):
        load_dataset(str(p))
    write_lines(p, [json.dumps({"meta": {"C": 2, "d_model": 4}})])
    with pytest.raises(DataError, match="feature_layout"):
        load_dataset(str(p))
    write_lines(p, [json.dumps({"meta": {"C": 1, "d_model": 4, "feature_layout": "precomputed"}})])
    with pytest.raises(DataError, match="C must be"):
        load_dataset(str(p))


def test_sample_errors_cite_their_line(tmp_path):
    p = tmp_path / "d.jsonl"
    write_lines(p, [HEADER, sample_line(0), "not json"])
    with pytest.raises(DataError, match="line 3"):
        load_dataset(str(p))
    write_lines(p, [HEADER, sample_line(0, answer_class=2)])
    with pytest.raises(DataError, match=r"line 2.*answer_class"):
        load_dataset(str(p))
    write_lines(p, [HEADER, sample_line(0, image_features=[1.0, 2.0])])
    with pytest.raises(DataError, match="line 2"):
        load_dataset(str(p))


def test_duplicate_sample_id(tmp_path):
    p = tmp_path / "d.jsonl"
    write_lines(p, [HEADER, sample_line(0), sample_line(0)])
    with pytest.raises(DataError, match="duplicate"):
        load_dataset(str(p))


def test_question_channel_is_exactly_one(tmp_path):
    p = tmp_path / "d.jsonl"
    both = sample_line(0, question_features=[0.0] * TEXT_DIM)
    write_lines(p, [HEADER, both])
    with pytest.raises(DataError, match="exactly one"):
        load_dataset(str(p))
    obj = json.loads(sample_line(0))
    del obj["question_tokens"]
    write_lines(p, [HEADER, json.dumps(obj)])
    with pytest.raises(DataError, match="exactly one"):
        load_dataset(str(p))


def test_tokens_truncate_and_pad(tmp_path):
    p = tmp_path / "d.jsonl"
    write_lines(p, [HEADER, sample_line(0, question_tokens=list(range(1, 80)))])
    _, samples = load_dataset(str(p))
    assert samples[0].question_tokens == list(range(1, MAX_TOKENS + 1))
    write_lines(p, [HEADER, sample_line(0, question_tokens=[7])])
    _, samples = load_dataset(str(p))
    assert samples[0].question_tokens == [7] + [0] * (MAX_TOKENS - 1)


def test_vit_layout_enforces_image_width(tmp_path):
    header = json.dumps({"meta": {"C": 2, "d_model": 64, "feature_layout": "vit"}})
    p = tmp_path / "d.jsonl"
    write_lines(p, [header, sample_line(0)])  # 4 floats, needs 768
    with pytest.raises(DataError, match="768"):
        load_dataset(str(p))


def test_dataset_round_trip_bit_exact(tmp_path):
    manifest, samples, _ = generate_synthetic(2, 3, 8, 0.1, seed=5, samples_per_image=2)
    p1 = tmp_path / "a.jsonl"
    p2 = tmp_path / "b.jsonl"
    save_dataset(str(p1), manifest, samples)
    m2, s2 = load_dataset(str(p1))
    save_dataset(str(p2), m2, s2)
    assert p1.read_bytes() == p2.read_bytes()
    assert np.array_equal(image_matrix(samples), image_matrix(s2))
    assert np.array_equal(question_matrix(samples), question_matrix(s2))
    assert np.array_equal(labels_array(samples), labels_array(s2))


SPECIALS = [-0.0, 5e-324, -2.2250738585072014e-308, 1.7976931348623157e308, 0.1, 1.0 / 3.0]


def as_lists(path):
    """Rewrite a written dataset or KB file with every vector as a JSON list."""
    objs = [json.loads(line) for line in path.read_text().splitlines()]
    for obj in objs:
        for key in ("image_features", "question_features", "embedding"):
            if key in obj:
                obj[key] = from_b64(obj[key]).tolist()
    write_lines(path, [json.dumps(obj) for obj in objs])


def assert_exact(arrays, want):
    for got, expected in zip(arrays, want, strict=True):
        assert got.dtype == np.float64 and got.dtype.isnative and got.flags.writeable
        assert got.tobytes() == np.asarray(expected, dtype=np.float64).tobytes()


def test_vectors_round_trip_bit_for_bit(tmp_path):
    """Subnormals, -0.0, the extremes, 0.1 and 1/3 load bit for bit from base64
    text and from the list twin of the same file. A KB row whose norm
    overflows is rejected, so the KB holds every value but the largest."""
    manifest = DatasetManifest(n_classes=2, d_model=6, feature_layout="precomputed")
    question = np.resize(np.array(SPECIALS), TEXT_DIM)[::-1].copy()
    samples = [Sample("s0", "i0", 1, np.array(SPECIALS), question_features=question)]
    kb_rows = [np.array(SPECIALS[:3] + SPECIALS[4:] + [1.0]), -np.array(SPECIALS[4:] + [0.0] * 4)]
    entries = [KnowledgeEntry(f"k{i}", "t", row) for i, row in enumerate(kb_rows)]
    ds, kb = tmp_path / "d.jsonl", tmp_path / "kb.jsonl"
    save_dataset(str(ds), manifest, samples)
    save_knowledge_base(str(kb), entries)

    def check():
        loaded = load_dataset(str(ds))[1][0]
        assert_exact([loaded.image_features, loaded.question_features], [SPECIALS, question])
        assert_exact(list(load_knowledge_base(str(kb)).embeddings), kb_rows)

    assert isinstance(json.loads(kb.read_text().splitlines()[0])["embedding"], str)
    check()
    as_lists(ds)
    as_lists(kb)
    assert isinstance(json.loads(kb.read_text().splitlines()[0])["embedding"], list)
    check()


def test_writers_reject_non_finite_vectors(tmp_path):
    manifest = DatasetManifest(n_classes=2, d_model=2, feature_layout="precomputed")
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="not JSON compliant"):
            save_dataset(str(tmp_path / "d.jsonl"), manifest,
                         [Sample("s", "i", 0, np.array([bad, 1.0]), question_tokens=[1])])
        with pytest.raises(ValueError, match="not JSON compliant"):
            save_knowledge_base(str(tmp_path / "kb.jsonl"),
                                [KnowledgeEntry("k", "t", np.array([1.0, bad]))])
    assert not os.listdir(tmp_path)


def test_kb_round_trip_and_errors(tmp_path):
    entries = [
        KnowledgeEntry("a", "first", np.array([1.0, 0.0])),
        KnowledgeEntry("b", "second", np.array([0.5, -0.5])),
    ]
    p = tmp_path / "kb.jsonl"
    save_knowledge_base(str(p), entries)
    loaded = load_knowledge_base(str(p))
    assert [e.entry_id for e in loaded] == ["a", "b"]
    assert np.array_equal(loaded[1].embedding, [0.5, -0.5])

    write_lines(p, [json.dumps({"id": "z", "text": "t", "embedding": [0.0, 0.0]})])
    with pytest.raises(DataError, match="zero norm"):
        load_knowledge_base(str(p))
    write_lines(
        p,
        [
            json.dumps({"id": "a", "text": "t", "embedding": [1.0, 0.0]}),
            json.dumps({"id": "b", "text": "t", "embedding": [1.0, 0.0, 0.0]}),
        ],
    )
    with pytest.raises(DataError, match="line 2"):
        load_knowledge_base(str(p))
    p.write_text("", encoding="utf-8")
    with pytest.raises(DataError, match="empty"):
        load_knowledge_base(str(p))


def test_embed_stub_properties():
    a = embed_text_stub([3, 8, 11])
    b = embed_text_stub([3, 8, 11])
    assert np.array_equal(a, b)
    assert a.shape == (TEXT_DIM,)
    # mean of per-token vectors: repeating the whole set changes nothing
    rep = embed_text_stub([3, 8, 11, 3, 8, 11])
    assert np.allclose(a, rep, atol=1e-15)
    other = embed_text_stub([4, 9, 12])
    assert np.linalg.norm(a - other) > 1e-3
    with pytest.warns(UserWarning):
        z = embed_text_stub([0, 0, 0])
    assert np.array_equal(z, np.zeros(TEXT_DIM))


def test_named_stream_determinism():
    a = named_stream(7, "x").standard_normal(5)
    b = named_stream(7, "x").standard_normal(5)
    c = named_stream(7, "y").standard_normal(5)
    d = named_stream(8, "x").standard_normal(5)
    e = named_stream(7, "x", 3).standard_normal(5)
    assert np.array_equal(a, b)
    assert not np.allclose(a, c)
    assert not np.allclose(a, d)
    assert not np.allclose(a, e)


def test_class_frequencies_distinct_and_bounded():
    for c, d in ((2, 8), (4, 64), (7, 16), (8, 16), (3, 300)):
        freqs = class_frequencies(c, d)
        assert len(set(freqs.tolist())) == c
        assert np.all(freqs >= 1)
        assert np.all(freqs <= d // 2)
    # the top band d/2 appears only when every lower band is needed
    assert class_frequencies(8, 16).max() == 8
    assert class_frequencies(7, 16).max() == 7


def test_class_frequencies_rejects_overfull():
    with pytest.raises(ConfigError):
        class_frequencies(9, 16)
    with pytest.raises(ConfigError):
        class_frequencies(33, 64)


def test_generate_synthetic_shape_balance_determinism(tmp_path):
    manifest, samples, kb = generate_synthetic(3, 4, 16, 0.2, seed=9, samples_per_image=2)
    assert manifest.feature_layout == "precomputed"
    assert len(samples) == 3 * 4 * 2
    labels = labels_array(samples)
    assert all(int((labels == c).sum()) == 8 for c in range(3))
    assert len(kb) == 6  # one prototype and one distractor per class
    images = {s.image_id for s in samples}
    assert len(images) == 12
    for s in samples:
        assert s.question_features is not None
        assert s.image_features.shape == (16,)

    again = generate_synthetic(3, 4, 16, 0.2, seed=9, samples_per_image=2)
    p1, p2 = tmp_path / "x.jsonl", tmp_path / "y.jsonl"
    save_dataset(str(p1), manifest, samples)
    save_dataset(str(p2), again[0], again[1])
    assert p1.read_bytes() == p2.read_bytes()


def test_generate_synthetic_validation():
    with pytest.raises(ConfigError):
        generate_synthetic(4, 1, 4, 0.1, seed=0)  # 4 classes cannot fit in d=4
    with pytest.raises(ConfigError):
        generate_synthetic(2, 0, 8, 0.1, seed=0)
    with pytest.raises(ConfigError):
        generate_synthetic(2, 1, 8, -0.5, seed=0)


def test_noiseless_images_match_band_prototype():
    # sigma = 0: the magnitude spectrum concentrates at the class band, so a
    # nearest-prototype rule over spectra classifies perfectly
    manifest, samples, kb = generate_synthetic(4, 10, 32, 0.0, seed=2)
    protos = np.stack([dft_magnitude_raw(e.embedding)[0] for e in kb[:4]])
    correct = 0
    for s in samples:
        spectrum = dft_magnitude_raw(s.image_features)[0]
        pred = int(np.argmin(np.linalg.norm(protos - spectrum, axis=1)))
        correct += pred == s.answer_class
    assert correct == len(samples)


def ridge_probe_accuracy(train_x, train_y, test_x, test_y, n_classes):
    """Closed-form linear probe: ridge regression onto one-hot targets."""
    ones = np.ones((len(train_x), 1))
    x = np.hstack([train_x, ones])
    targets = np.eye(n_classes)[train_y]
    lam = 1e-3
    w = np.linalg.solve(x.T @ x + lam * np.eye(x.shape[1]), x.T @ targets)
    scores = np.hstack([test_x, np.ones((len(test_x), 1))]) @ w
    return float(np.mean(np.argmax(scores, axis=1) == test_y))


def test_spectral_probe_beats_raw_probe():
    # random phase makes raw coordinates carry almost no linear signal, while
    # the magnitude spectrum spikes at the class band
    manifest, samples, _ = generate_synthetic(4, 125, 64, 0.3, seed=11)
    raw = image_matrix(samples)
    spectra = np.stack([dft_magnitude_raw(row)[0] for row in raw])
    labels = labels_array(samples)
    order = named_stream(11, "probe-split").permutation(len(samples))
    train, test = order[:400], order[400:]
    acc_raw = ridge_probe_accuracy(raw[train], labels[train], raw[test], labels[test], 4)
    acc_spectral = ridge_probe_accuracy(spectra[train], labels[train], spectra[test], labels[test], 4)
    assert acc_spectral > acc_raw
    assert acc_spectral > 0.95
    assert acc_raw < 0.6


def test_atomic_write_leaves_no_temp_files(tmp_path):
    manifest, samples, _ = generate_synthetic(2, 2, 8, 0.1, seed=1)
    target = tmp_path / "out" / "d.jsonl"
    save_dataset(str(target), manifest, samples)
    assert target.exists()
    assert os.listdir(target.parent) == ["d.jsonl"]


def test_atomic_write_failure_names_the_file_and_leaves_no_temp(tmp_path, monkeypatch):
    def disk_full(src, dst):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    monkeypatch.setattr(data_mod.os, "replace", disk_full)
    target = tmp_path / "summary.json"
    with pytest.raises(OSError) as info:
        data_mod.atomic_write_text(str(target), "{}\n")
    assert info.value.errno == errno.ENOSPC and info.value.filename == str(target)
    assert os.listdir(tmp_path) == []


def kb_line(i, embedding, text=None):
    return json.dumps({"id": f"k{i}", "text": text or f"entry {i}", "embedding": embedding})


def kb_vectors(n, d=4, seed=0):
    rng = named_stream(seed, "kb-test")
    return [[float(v) for v in rng.standard_normal(d)] for _ in range(n)]


@pytest.fixture
def block_rows(monkeypatch):
    """Set the rows the KB loader decodes and checks together."""

    def force(rows):
        monkeypatch.setattr(data_mod, "_KB_BLOCK_ROWS", rows)

    return force


def reference_columns(path):
    """The loader's expected output, parsed one line at a time."""
    rows = [json.loads(line) for line in path.read_text(encoding="utf-8").split("\n")
            if line.strip()]
    return ([r["id"] for r in rows], [r["text"] for r in rows],
            np.stack([from_b64(e) if isinstance(e, str) else np.asarray(e, dtype=np.float64)
                      for e in (r["embedding"] for r in rows)]))


def assert_same_columns(cols, ids, texts, embeddings):
    assert cols.ids == ids
    assert cols.texts == texts
    assert cols.embeddings.dtype == np.float64
    assert cols.embeddings.shape == embeddings.shape
    assert cols.embeddings.tobytes() == embeddings.tobytes()


def test_kb_load_bit_identical_to_line_parse(tmp_path, block_rows):
    # lists and base64 text mixed, blank lines, "\r\n" endings, no trailing
    # newline, and blocks that end mid-file
    vecs = kb_vectors(40)
    lines = [kb_line(i, b64(v) if i % 3 else v) for i, v in enumerate(vecs)]
    lines[5:5] = ["", "   "]
    body = "\n".join(lines[:20]) + "\n" + "\r\n".join(lines[20:])
    p = tmp_path / "kb.jsonl"
    p.write_bytes(body.encode())
    expected = reference_columns(p)
    for rows in (1024, 7, 1):
        block_rows(rows)
        assert_same_columns(load_knowledge_base(str(p)), *expected)
        assert_same_columns(load_knowledge_base(str(p), d_model=4), *expected)


def test_kb_columns_index_to_entry_copies(tmp_path):
    p = tmp_path / "kb.jsonl"
    write_lines(p, [kb_line(i, v) for i, v in enumerate(kb_vectors(3))])
    cols = load_knowledge_base(str(p))
    entry = cols[1]
    assert isinstance(entry, KnowledgeEntry)
    assert entry.entry_id == "k1" and entry.text == "entry 1"
    entry.embedding[0] = 99.0
    assert cols.embeddings[1, 0] != 99.0
    assert [e.entry_id for e in cols] == ["k0", "k1", "k2"]


def nan_first_value(line):
    start = line.index("[") + 1
    end = line.index(",", start)
    return line[:start] + "NaN".ljust(end - start) + line[end:]


def nan_bits(line):
    obj = json.loads(line)
    obj["embedding"] = b64([np.nan] + obj["embedding"][1:])
    return json.dumps(obj)


KB_FAULTS = {
    "missing-key": (lambda line: line.replace('"embedding"', '"embeddinX"'),
                    "missing required key 'embedding'"),
    "nan": (nan_first_value, "expected 4 finite numbers"),
    "nan-bits": (nan_bits, "expected 4 finite numbers"),
}


@pytest.mark.parametrize("fault", sorted(KB_FAULTS))
@pytest.mark.parametrize("side", ["before", "after"])
def test_kb_fault_at_a_cut_names_its_file_line(tmp_path, block_rows, fault, side):
    # the cut between the loader's first two blocks of 8 rows; line 3 is blank
    lines = [kb_line(i, v) for i, v in enumerate(kb_vectors(30))]
    lines[2:2] = [""]
    block_rows(8)
    # the line of the first block's last row, or of the second block's first
    lineno = 9 if side == "before" else 10
    corrupt, message = KB_FAULTS[fault]
    lines[lineno - 1] = corrupt(lines[lineno - 1])
    p = tmp_path / "kb.jsonl"
    write_lines(p, lines)
    with pytest.raises(DataError, match=rf"line {lineno}: .*{message}"):
        load_knowledge_base(str(p))


@pytest.mark.parametrize("rows", [1, 2])
def test_kb_earliest_fault_wins(tmp_path, block_rows, rows):
    # line 3 has zero norm and line 4 is not JSON. In blocks of 1 row, line 3
    # is checked before line 4 is read; in blocks of 2 it is still pending
    # when line 4 fails, and is checked then
    lines = [kb_line(i, v) for i, v in enumerate(kb_vectors(10))]
    lines[2] = kb_line(2, b64([0.0, 0.0, 0.0, 0.0]))
    lines[3] = "{not json"
    p = tmp_path / "kb.jsonl"
    write_lines(p, lines)
    block_rows(rows)
    with pytest.raises(DataError, match="line 3: embedding has zero norm"):
        load_knowledge_base(str(p))


@pytest.mark.parametrize("blank", [1, 2])
def test_kb_width_fixed_by_first_non_blank_line(tmp_path, blank):
    # leading lines blank to str.strip (U+0085), then rows of 4 values, then
    # from line 6 on rows one value narrower
    lines = ["\x85 "] * blank + [kb_line(i, v) for i, v in enumerate(kb_vectors(9))]
    for i in range(5, len(lines)):
        lines[i] = kb_line(i, [1.0, 2.0, 3.0])
    p = tmp_path / "kb.jsonl"
    write_lines(p, lines)
    with pytest.raises(DataError, match="line 6: embedding: expected a list of 4 numbers"):
        load_knowledge_base(str(p))
    lines[5] = kb_line(5, b64([1.0, 2.0, 3.0]))
    write_lines(p, lines)
    with pytest.raises(DataError, match="line 6: embedding: expected 4 numbers, got 3"):
        load_knowledge_base(str(p))


def test_kb_width_from_a_base64_first_line(tmp_path):
    vecs = kb_vectors(3, d=5)
    p = tmp_path / "kb.jsonl"
    write_lines(p, [kb_line(0, b64(vecs[0]))] + [kb_line(i, v) for i, v in enumerate(vecs)][1:])
    cols = load_knowledge_base(str(p))
    assert cols.embeddings.shape == (3, 5)
    assert cols.embeddings.tobytes() == np.array(vecs).tobytes()
    # a first line whose text is not whole float64 values fixes no width; its
    # own parse names it
    for text, message in ((base64.b64encode(bytes(7)).decode(), "got 7 bytes"),
                          ("AAAA*AAA", "base64 text"),
                          ("", "must be base64 text or a non-empty list")):
        write_lines(p, [kb_line(0, text), kb_line(1, vecs[1])])
        assert data_mod._first_width(str(p)) is None
        with pytest.raises(DataError, match=f"line 1: embedding.*{message}"):
            load_knowledge_base(str(p))


def test_knowledge_base_from_list_equals_from_loaded_columns(tmp_path):
    from freqfuse.retrieval import KnowledgeBase

    _, _, entries = generate_synthetic(3, 2, 16, 0.1, seed=4)
    p = tmp_path / "kb.jsonl"
    save_knowledge_base(str(p), entries)
    from_list = KnowledgeBase(entries)
    loaded = KnowledgeBase(load_knowledge_base(str(p)))
    assert from_list.columns.ids == loaded.columns.ids
    assert from_list.columns.texts == loaded.columns.texts
    assert from_list.embeddings.tobytes() == loaded.embeddings.tobytes()
    assert from_list.unit.tobytes() == loaded.unit.tobytes()
    assert len(from_list) == len(loaded) == 6
    assert from_list.d_model == loaded.d_model == 16


def test_knowledge_base_from_loaded_columns_rejects_repeated_id(tmp_path):
    from freqfuse.retrieval import KnowledgeBase

    p = tmp_path / "kb.jsonl"
    vectors = kb_vectors(3)
    write_lines(p, [kb_line(0, vectors[0]), kb_line(0, vectors[1]), kb_line(2, vectors[2])])
    columns = load_knowledge_base(str(p))
    with pytest.raises(DataError, match="knowledge entry id 'k0' appears more than once"):
        KnowledgeBase(columns)


@pytest.mark.parametrize("value", [["x", 1.0, 1.0, 1.0], [[1.0], 1.0, 1.0, 1.0],
                                   [True, 1.0, 1.0, 1.0], ["1.5", 1.0, 1.0, 1.0]])
def test_non_numeric_vector_elements_rejected(tmp_path, value):
    p = tmp_path / "kb.jsonl"
    write_lines(p, [kb_line(0, [1.0, 0.0, 0.0, 0.0]), kb_line(1, value)])
    with pytest.raises(DataError, match="line 2: embedding: expected 4 finite numbers"):
        load_knowledge_base(str(p))
    write_lines(p, [HEADER, sample_line(0), sample_line(1, image_features=value)])
    with pytest.raises(DataError, match="line 3: image_features: expected 4 finite numbers"):
        load_dataset(str(p))
    obj = json.loads(sample_line(1))
    del obj["question_tokens"]
    obj["question_features"] = value[:1] + [0.5] * (TEXT_DIM - 1)
    write_lines(p, [HEADER, json.dumps(obj)])
    with pytest.raises(DataError, match=f"line 2: question_features: expected {TEXT_DIM} finite"):
        load_dataset(str(p))


def test_huge_integer_element_is_not_finite(tmp_path):
    p = tmp_path / "kb.jsonl"
    p.write_text('{"id": "a", "text": "t", "embedding": [1' + "0" * 400 + ', 1.0]}\n')
    with pytest.raises(DataError, match="line 1: embedding: expected 2 finite numbers"):
        load_knowledge_base(str(p))


def test_lines_split_on_newline_only(tmp_path):
    # U+2028 and U+0085 are line breaks to str.splitlines but not to JSON Lines
    p = tmp_path / "kb.jsonl"
    lines = [json.dumps({"id": "a", "text": "one\u2028two\x85", "embedding": [1.0, 0.0]},
                        ensure_ascii=False),
             json.dumps({"id": "b", "text": "t", "embedding": [0.0, 1.0]})]
    write_lines(p, lines)
    cols = load_knowledge_base(str(p))
    assert cols.texts == ["one\u2028two\x85", "t"]


def test_non_utf8_line_is_named(tmp_path):
    p = tmp_path / "kb.jsonl"
    lines = [kb_line(i, v).encode() for i, v in enumerate(kb_vectors(3))]
    lines[1] = lines[1].replace(b"entry 1", b"entry \xff")
    p.write_bytes(b"\n".join(lines) + b"\n")
    with pytest.raises(DataError, match="line 2: not UTF-8 text"):
        load_knowledge_base(str(p))
    p.write_bytes(HEADER.encode() + b"\n" + sample_line(0).encode() + b"\n\xfe\n")
    with pytest.raises(DataError, match="line 3: not UTF-8 text"):
        load_dataset(str(p))
