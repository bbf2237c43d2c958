"""Dataset and knowledge-base IO plus the synthetic benchmark generator.

Datasets are JSON Lines. The first line is a header:

    {"meta": {"C": 4, "d_model": 64, "feature_layout": "precomputed"}}

and every following line is one sample:

    {"id": "...", "image_id": "...", "answer_class": 0,
     "image_features": [...],                # 768 floats ("vit") or d_model floats ("precomputed")
     "question_features": [...]}             # 300 floats, OR "question_tokens": [int, ...]

Knowledge bases are JSON Lines with no header; each line is
{"id": "...", "text": "...", "embedding": [d_model floats]}. Its embeddings
are parsed into one preallocated matrix. A large one is parsed in byte ranges,
one per available core: the loading process parses the first, and a spawned
process each of the others.

Lines split on "\n" only, as JSON Lines specifies; a "\r\n" ending parses.
"""

import json
import os
import sys
import tempfile
import warnings
import zlib
from dataclasses import dataclass
from multiprocessing import current_process, get_context

import numpy as np

from .errors import ConfigError, DataError
from .rng import named_stream

TEXT_DIM = 300
VIT_DIM = 768
FEATURE_LAYOUTS = ("vit", "precomputed")
PAD_TOKEN = 0
MAX_TOKENS = 50
# A KB file gets one byte range per this many bytes, up to one per usable
# core. On 2 cores, two ranges first beat one at about 32 MB of file: starting
# a worker process costs about 0.4 s, and a range parses at about 26 MB/s.
_KB_CHUNK_BYTES = 16 << 20
# KB rows converted and checked together; bounds the Python floats held at once
_KB_BLOCK_ROWS = 1024
# Bytes read at once to count a KB file's newlines. Kept small: freeing such
# a buffer makes glibc's malloc raise its mmap threshold to the buffer's size,
# and later buffers then come from the heap, which keeps up to twice that
# resident once they are freed (13 MB on the 1e5-entry benchmark KB at 16 MB).
_READ_BYTES = 1 << 20
_NUMBER_TYPES = {float, int}


@dataclass(frozen=True)
class DatasetManifest:
    n_classes: int
    d_model: int
    feature_layout: str

    def validate(self) -> None:
        if not isinstance(self.n_classes, int) or self.n_classes < 2:
            raise DataError(f"meta.C must be an integer >= 2, got {self.n_classes!r}")
        if not isinstance(self.d_model, int) or self.d_model < 2:
            raise DataError(f"meta.d_model must be an integer >= 2, got {self.d_model!r}")
        if self.feature_layout not in FEATURE_LAYOUTS:
            raise DataError(
                f"meta.feature_layout must be one of {FEATURE_LAYOUTS}, got {self.feature_layout!r}"
            )

    @property
    def image_dim(self) -> int:
        return VIT_DIM if self.feature_layout == "vit" else self.d_model


@dataclass
class Sample:
    sample_id: str
    image_id: str
    answer_class: int
    image_features: np.ndarray
    question_features: np.ndarray | None = None
    question_tokens: list[int] | None = None


@dataclass
class KnowledgeEntry:
    entry_id: str
    text: str
    embedding: np.ndarray


@dataclass(frozen=True, eq=False)
class KnowledgeColumns:
    """A knowledge base as columns: ids, texts and one (N, d) embedding matrix."""

    ids: list[str]
    texts: list[str]
    embeddings: np.ndarray

    def __len__(self) -> int:
        return len(self.ids)

    def __getitem__(self, i: int) -> KnowledgeEntry:
        return KnowledgeEntry(self.ids[i], self.texts[i], self.embeddings[i].copy())


def atomic_write_text(path: str, text: str) -> None:
    """Write via a temp file in the same directory so readers never see a torn
    file. An OSError (a full disk, say) is raised again naming `path`."""
    directory = os.path.dirname(os.path.abspath(path))
    tmp = None
    try:
        os.makedirs(directory, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix=".part")
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException as exc:
        if tmp is not None and os.path.exists(tmp):
            os.unlink(tmp)
        if isinstance(exc, OSError):
            raise OSError(exc.errno, exc.strerror or str(exc), path) from exc
        raise


def _text_lines(fh, path: str, lineno: int = 1, size: int | None = None):
    """Yield (line number, text) for each line read from the binary file `fh`,
    up to `size` bytes or the end; a line that is not UTF-8 is a DataError."""
    for raw in fh:
        if size is not None:
            if size <= 0:
                return
            size -= len(raw)
        try:
            text = raw.decode("utf-8")
        except UnicodeDecodeError:
            raise DataError(f"{path} line {lineno}: not UTF-8 text") from None
        yield lineno, text
        lineno += 1


def text_lines(path: str, what: str):
    """Yield (line number, text) for each line of a UTF-8 text file, split on
    "\n" only. An unreadable file or a line that is not UTF-8 is a DataError."""
    try:
        with open(path, "rb") as fh:
            yield from _text_lines(fh, path)
    except OSError as exc:
        raise DataError(f"cannot read {what} {path}: {exc}") from exc


def _json_object(line: str, where: str) -> dict:
    try:
        obj = json.loads(line)
    except json.JSONDecodeError as exc:
        raise DataError(f"{where}: invalid JSON ({exc.msg})") from exc
    if not isinstance(obj, dict):
        raise DataError(f"{where}: expected a JSON object")
    return obj


def _check_vector(value, length: int, where: str) -> None:
    """A list of `length` JSON numbers that convert to float64; true, false,
    strings, null, nested lists and integers beyond float64's range do not."""
    if not isinstance(value, list) or len(value) != length:
        raise DataError(f"{where}: expected a list of {length} numbers")
    types = set(map(type, value))
    if not types <= _NUMBER_TYPES or (
        int in types and not all(abs(v) <= sys.float_info.max for v in value)
    ):
        raise DataError(f"{where}: expected {length} finite numbers")


def _float_list(value, length: int, where: str) -> np.ndarray:
    _check_vector(value, length, where)
    arr = np.array(value, dtype=np.float64)
    if not np.all(np.isfinite(arr)):
        raise DataError(f"{where}: expected {length} finite numbers")
    return arr


def _parse_sample(obj: dict, manifest: DatasetManifest, where: str) -> Sample:
    for key in ("id", "image_id", "answer_class", "image_features"):
        if key not in obj:
            raise DataError(f"{where}: missing required key {key!r}")
    sample_id = obj["id"]
    image_id = obj["image_id"]
    if not isinstance(sample_id, str) or not isinstance(image_id, str):
        raise DataError(f"{where}: id and image_id must be strings")
    answer = obj["answer_class"]
    if type(answer) is not int or not (0 <= answer < manifest.n_classes):
        raise DataError(f"{where}: answer_class must be an integer in [0, {manifest.n_classes})")
    image = _float_list(obj["image_features"], manifest.image_dim, f"{where}: image_features")

    has_tokens = "question_tokens" in obj
    has_features = "question_features" in obj
    if has_tokens == has_features:
        raise DataError(f"{where}: exactly one of question_tokens / question_features is required")
    tokens = None
    features = None
    if has_tokens:
        tokens = obj["question_tokens"]
        if (
            not isinstance(tokens, list)
            or not tokens
            or not all(type(t) is int and t >= 0 for t in tokens)
        ):
            raise DataError(f"{where}: question_tokens must be a non-empty list of ints >= 0")
        # canonical length 50: truncate long questions, pad short ones with 0
        tokens = (tokens[:MAX_TOKENS] + [PAD_TOKEN] * MAX_TOKENS)[:MAX_TOKENS]
    else:
        features = _float_list(obj["question_features"], TEXT_DIM, f"{where}: question_features")
    return Sample(
        sample_id=sample_id,
        image_id=image_id,
        answer_class=answer,
        image_features=image,
        question_features=features,
        question_tokens=tokens,
    )


def load_dataset(path: str) -> tuple[DatasetManifest, list[Sample]]:
    lines = text_lines(path, "dataset")
    first = next(lines, None)
    if first is None:
        raise DataError(f"{path}: empty file, expected a header line")
    header = _json_object(first[1], f"{path} line 1")
    meta = header.get("meta")
    if not isinstance(meta, dict):
        raise DataError(f"{path} line 1: header must be an object with a 'meta' key")
    for key in ("C", "d_model", "feature_layout"):
        if key not in meta:
            raise DataError(f"{path} line 1: meta missing key {key!r}")
    manifest = DatasetManifest(
        n_classes=meta["C"], d_model=meta["d_model"], feature_layout=meta["feature_layout"]
    )
    try:
        manifest.validate()
    except DataError as exc:
        raise DataError(f"{path} line 1: {exc}") from exc

    samples = []
    seen_ids = set()
    for lineno, line in lines:
        if not line.strip():
            continue
        where = f"{path} line {lineno}"
        sample = _parse_sample(_json_object(line, where), manifest, where)
        if sample.sample_id in seen_ids:
            raise DataError(f"{where}: duplicate sample id {sample.sample_id!r}")
        seen_ids.add(sample.sample_id)
        samples.append(sample)
    # a header with no samples is a valid (empty) dataset
    return manifest, samples


def save_dataset(path: str, manifest: DatasetManifest, samples: list[Sample]) -> None:
    manifest.validate()
    rows = [
        json.dumps(
            {
                "meta": {
                    "C": manifest.n_classes,
                    "d_model": manifest.d_model,
                    "feature_layout": manifest.feature_layout,
                }
            }
        )
    ]
    for sample in samples:
        obj = {
            "id": sample.sample_id,
            "image_id": sample.image_id,
            "answer_class": int(sample.answer_class),
            "image_features": [float(v) for v in sample.image_features],
        }
        if sample.question_tokens is not None:
            obj["question_tokens"] = [int(t) for t in sample.question_tokens]
        else:
            obj["question_features"] = [float(v) for v in sample.question_features]
        rows.append(json.dumps(obj, allow_nan=False))
    atomic_write_text(path, "\n".join(rows) + "\n")


def usable_cores() -> int:
    """The cores this process may run on; 1 in a daemonic process, which
    cannot start worker processes."""
    if current_process().daemon:
        return 1
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _kb_ranges(path: str) -> list[tuple[int, int]]:
    """Byte ranges of a KB file, cut at line starts: one per usable core and
    per _KB_CHUNK_BYTES of file, at least one."""
    size = os.path.getsize(path)
    count = max(1, min(usable_cores(), size // _KB_CHUNK_BYTES))
    bounds = [0]
    with open(path, "rb") as fh:
        for i in range(1, count):
            fh.seek(size * i // count)
            fh.readline()
            bounds.append(fh.tell())
    bounds.append(size)
    return list(zip(bounds, bounds[1:]))


def _first_width(path: str) -> int | None:
    """Embedding width on the first non-blank line of a KB file; None when that
    line has no usable embedding, whose own parse then reports the fault."""
    with open(path, "rb") as fh:
        for raw in fh:
            try:
                line = raw.decode("utf-8")
                if not line.strip():
                    continue
                embedding = json.loads(line).get("embedding")
            except (ValueError, AttributeError):
                return None
            return len(embedding) if isinstance(embedding, list) and embedding else None
    return None


def _kb_newlines(path: str, start: int, end: int) -> int:
    """The newlines in bytes [start, end) of a KB file."""
    try:
        with open(path, "rb") as fh:
            fh.seek(start)
            return sum(
                fh.read(min(_READ_BYTES, end - offset)).count(b"\n")
                for offset in range(start, end, _READ_BYTES)
            )
    except OSError as exc:
        raise DataError(f"cannot read knowledge base {path}: {exc}") from exc


def _check_block(block: np.ndarray, linenos: list[int], path: str) -> None:
    """The first row of `block` that is not finite, whose norm overflows
    float64 or that has zero norm is a DataError naming its line."""
    with np.errstate(over="ignore"):
        norms = np.linalg.norm(block, axis=1)
    bad = ~np.isfinite(norms) | (norms <= 1e-12)  # a NaN or Inf element makes the norm so too
    if bad.any():
        i = int(np.argmax(bad))
        where = f"{path} line {linenos[i]}"
        if not np.isfinite(block[i]).all():
            raise DataError(f"{where}: embedding: expected {block.shape[1]} finite numbers")
        if not np.isfinite(norms[i]):
            raise DataError(f"{where}: embedding norm overflows float64")
        raise DataError(f"{where}: embedding has zero norm")


def _parse_kb_range(path: str, start: int, end: int, out: np.ndarray):
    """Ids and texts of the KB lines in bytes [start, end) of `path`. Their
    embeddings, each out.shape[1] wide, fill the leading rows of `out` and are
    checked there; errors name the line's number in the whole file."""
    ids, texts, rows, linenos = [], [], [], []

    def flush():
        if rows:
            block = out[len(ids) - len(rows) : len(ids)]
            block[...] = rows
            _check_block(block, linenos, path)
            rows.clear()
            linenos.clear()

    first = 1 + _kb_newlines(path, 0, start)
    try:
        with open(path, "rb") as fh:
            fh.seek(start)
            for lineno, line in _text_lines(fh, path, first, end - start):
                if not line.strip():
                    continue
                where = f"{path} line {lineno}"
                obj = _json_object(line, where)
                for key in ("id", "text", "embedding"):
                    if key not in obj:
                        raise DataError(f"{where}: missing required key {key!r}")
                if not isinstance(obj["id"], str) or not isinstance(obj["text"], str):
                    raise DataError(f"{where}: id and text must be strings")
                raw = obj["embedding"]
                if not isinstance(raw, list) or not raw:
                    raise DataError(f"{where}: embedding must be a non-empty list of numbers")
                _check_vector(raw, out.shape[1], f"{where}: embedding")
                ids.append(obj["id"])
                texts.append(obj["text"])
                rows.append(raw)
                linenos.append(lineno)
                if len(rows) == _KB_BLOCK_ROWS:
                    flush()
    except OSError as exc:
        raise DataError(f"cannot read knowledge base {path}: {exc}") from exc
    except DataError:
        flush()  # a fault on an earlier line of the range is reported first
        raise
    flush()
    return ids, texts


def _bytes_of(rows: np.ndarray) -> memoryview:
    """The bytes of C-contiguous `rows`, as a flat view that shares their memory."""
    return memoryview(rows.reshape(-1).view(np.uint8))


def _kb_range_worker(conn, path: str, start: int, end: int, dim: int) -> None:
    """Parse one byte range of a KB file in a spawned process. Sends the ids
    and texts, or the error, then writes the rows' raw bytes to the pipe,
    unframed: the receiver knows their count from the ids. Module-level so the
    process can find it by name, and private because a wrapped function cannot
    be sent (perfbench's tracer wraps public ones)."""
    try:
        out = np.empty((1 + _kb_newlines(path, start, end), dim))
        part = _parse_kb_range(path, start, end, out)
    except Exception as exc:
        conn.send(exc)
        return
    conn.send(part)
    view = _bytes_of(out[: len(part[0])])
    while view:
        view = view[os.write(conn.fileno(), view) :]


def _worker_ended(process, path: str) -> DataError:
    process.join()
    return DataError(
        f"cannot read knowledge base {path}: a parsing process ended "
        f"with exit code {process.exitcode}"
    )


def _read_rows(receiver, process, rows: np.ndarray, path: str) -> None:
    """Fill `rows` from a worker's pipe, reading its file descriptor straight
    into them: no message buffer the size of the rows is ever made."""
    view = _bytes_of(rows)
    while view:
        got = os.readv(receiver.fileno(), [view])
        if not got:  # the worker ended before sending every row
            raise _worker_ended(process, path)
        view = view[got:]


def load_knowledge_base(path: str, d_model: int | None = None) -> KnowledgeColumns:
    """The KB file as columns. The embeddings are parsed into one matrix, sized
    by the file's line count. A large file is parsed in byte ranges: this
    process parses the first, and one spawned process each of the others,
    whose rows are read straight into their place. The earliest range's error
    wins, so whatever faults the file holds the error names the first faulty
    line."""
    try:
        dim = _first_width(path) if d_model is None else d_model
        # with no width the first non-blank line is faulty, or the file is blank
        ranges = _kb_ranges(path) if dim is not None else [(0, os.path.getsize(path))]
    except OSError as exc:
        raise DataError(f"cannot read knowledge base {path}: {exc}") from exc
    context = get_context("spawn")
    workers = []
    try:
        for start, end in ranges[1:]:
            receiver, sender = context.Pipe(duplex=False)
            process = context.Process(
                target=_kb_range_worker, args=(sender, path, start, end, dim), daemon=True
            )
            process.start()
            sender.close()
            workers.append((process, receiver))
        matrix = np.empty((1 + _kb_newlines(path, 0, ranges[-1][1]), dim or 0))
        ids, texts = _parse_kb_range(path, *ranges[0], matrix)
        for process, receiver in workers:
            try:
                part = receiver.recv()
            except EOFError:
                raise _worker_ended(process, path) from None
            if isinstance(part, Exception):
                raise part
            n = len(ids)
            _read_rows(receiver, process, matrix[n : n + len(part[0])], path)
            ids += part[0]
            texts += part[1]
    finally:
        for process, receiver in workers:
            process.terminate()  # a no-op once it has ended
            process.join()
            receiver.close()
    if not ids:
        raise DataError(f"{path}: knowledge base is empty")
    return KnowledgeColumns(ids=ids, texts=texts, embeddings=matrix[: len(ids)])


def save_knowledge_base(path: str, entries: list[KnowledgeEntry]) -> None:
    rows = [
        json.dumps(
            {
                "id": entry.entry_id,
                "text": entry.text,
                "embedding": [float(v) for v in entry.embedding],
            },
            allow_nan=False,
        )
        for entry in entries
    ]
    atomic_write_text(path, "\n".join(rows) + "\n")


_TOKEN_VECTORS: dict[tuple[int, int], np.ndarray] = {}


def _token_vector(token: int, dim: int) -> np.ndarray:
    key = (token, dim)
    cached = _TOKEN_VECTORS.get(key)
    if cached is None:
        tag = zlib.crc32(f"token-{token}".encode())
        rng = np.random.default_rng([tag, dim])
        cached = rng.standard_normal(dim) / np.sqrt(dim)
        _TOKEN_VECTORS[key] = cached
    return cached


def embed_text_stub(tokens: list[int], dim: int = TEXT_DIM) -> np.ndarray:
    """Deterministic bag-of-tokens embedding: mean of fixed per-token vectors.

    Padding (token 0) is skipped; an all-padding question embeds to zero.
    """
    live = [t for t in tokens if t != PAD_TOKEN]
    if not live:
        warnings.warn("question contains only padding tokens; embedding is zero", stacklevel=2)
        return np.zeros(dim)
    return np.mean([_token_vector(t, dim) for t in live], axis=0)


def question_matrix(samples: list[Sample]) -> np.ndarray:
    rows = []
    for sample in samples:
        if sample.question_features is not None:
            rows.append(sample.question_features)
        else:
            rows.append(embed_text_stub(sample.question_tokens))
    return np.stack(rows)


def image_matrix(samples: list[Sample]) -> np.ndarray:
    return np.stack([s.image_features for s in samples])


def labels_array(samples: list[Sample]) -> np.ndarray:
    return np.asarray([s.answer_class for s in samples], dtype=np.int64)


def class_frequencies(n_classes: int, d_model: int) -> np.ndarray:
    """Distinct spectral bands, one per class, inside (0, d_model/2].

    The Nyquist band d_model/2 is used only when every lower band is taken,
    since a random-phase sinusoid there can have near-zero amplitude.
    """
    if n_classes > d_model // 2 or d_model // 2 < 1:
        raise ConfigError(
            f"cannot place {n_classes} distinct bands in dimension {d_model}; "
            f"need C <= d_model / 2"
        )
    top = d_model // 2 - 1 if n_classes <= d_model // 2 - 1 else d_model // 2
    if n_classes == 1:
        freqs = np.array([1])
    else:
        freqs = np.rint(np.linspace(1, top, n_classes)).astype(int)
    if len(set(freqs.tolist())) != n_classes:
        raise ConfigError(f"class bands collide for C={n_classes}, d_model={d_model}")
    return freqs


SYNTH_AMPLITUDE = 0.25


def generate_synthetic(
    n_classes: int,
    n_per_class: int,
    d_model: int,
    sigma: float,
    seed: int,
    samples_per_image: int = 1,
    amplitude: float = SYNTH_AMPLITUDE,
) -> tuple[DatasetManifest, list[Sample], list[KnowledgeEntry]]:
    """Class-banded sinusoid benchmark.

    Each class owns one spectral band. An image is a sinusoid at its class
    band with a random phase, plus Gaussian noise; the paired question is a
    sinusoid at the same band on a 300-point grid. Random phase keeps raw
    coordinates uninformative for a linear probe while the magnitude spectrum
    stays cleanly separable; the amplitude is kept below the noise scale so
    that recovering the band from raw coordinates is slow for any learner
    while the spectral spike at the band stays prominent. The knowledge base
    holds the clean phase-zero class sinusoid as one prototype per class,
    plus one random distractor per class.
    """
    if n_per_class < 1 or samples_per_image < 1:
        raise ConfigError("n_per_class and samples_per_image must be >= 1")
    if not 0 <= sigma < np.inf:
        raise ConfigError(f"sigma must be >= 0 and finite, got {sigma}")
    if not 0 < amplitude < np.inf:
        raise ConfigError(f"amplitude must be positive and finite, got {amplitude}")
    freqs = class_frequencies(n_classes, d_model)
    manifest = DatasetManifest(n_classes=n_classes, d_model=d_model, feature_layout="precomputed")

    rng = named_stream(seed, "synthetic")
    grid = np.arange(d_model)
    text_grid = np.arange(TEXT_DIM)
    samples: list[Sample] = []
    n_images = n_per_class  # per class; each image yields samples_per_image samples
    order = 0
    for img_index in range(n_images):
        for cls in range(n_classes):
            freq = freqs[cls]
            image_id = f"img-{cls}-{img_index:05d}"
            phase = rng.uniform(0.0, 2.0 * np.pi)
            image = amplitude * np.cos(2.0 * np.pi * freq * grid / d_model + phase)
            image = image + sigma * rng.standard_normal(d_model)
            for rep in range(samples_per_image):
                text_phase = rng.uniform(0.0, 2.0 * np.pi)
                question = amplitude * np.cos(2.0 * np.pi * freq * text_grid / TEXT_DIM + text_phase)
                question = question + sigma * rng.standard_normal(TEXT_DIM)
                samples.append(
                    Sample(
                        sample_id=f"s-{order:06d}",
                        image_id=image_id,
                        answer_class=cls,
                        image_features=image,
                        question_features=question,
                    )
                )
                order += 1

    kb_rng = named_stream(seed, "synthetic-kb")
    entries: list[KnowledgeEntry] = []
    for cls in range(n_classes):
        freq = freqs[cls]
        angle = 2.0 * np.pi * freq * grid / d_model
        entries.append(
            KnowledgeEntry(
                entry_id=f"kb-proto-{cls}",
                text=f"band {freq} prototype",
                embedding=np.cos(angle),
            )
        )
    for j in range(n_classes):
        entries.append(
            KnowledgeEntry(
                entry_id=f"kb-noise-{j}",
                text=f"distractor {j}",
                embedding=kb_rng.standard_normal(d_model) / np.sqrt(d_model),
            )
        )
    return manifest, samples, entries
