import base64
import json
import tracemalloc

import numpy as np
import pytest

from freqfuse import model
from freqfuse.data import DatasetManifest, KnowledgeEntry
from freqfuse.errors import ConfigError, ContractError, DataError
from freqfuse.kernel import Tensor
from freqfuse.model import (
    CHECKPOINT_VERSION,
    ForwardOptions,
    _param_shapes,
    classify,
    forward_batch,
    fusion_in_dim,
    init_classifier_params,
    init_model_params,
    load_checkpoint,
    read_checkpoint,
    save_checkpoint,
)
from freqfuse.retrieval import KnowledgeBase
from freqfuse.rng import named_stream
from freqfuse.training import TrainConfig

PRE = DatasetManifest(n_classes=3, d_model=8, feature_layout="precomputed")
VIT = DatasetManifest(n_classes=3, d_model=8, feature_layout="vit")


def tiny_params(manifest=PRE, mode="freq_only", seed=0):
    return init_model_params(manifest, fusion_mode=mode, hidden1=16, hidden2=8, dropout=0.1,
                             seed=seed)


def tiny_kb(d=8, n=6, seed=0):
    rng = named_stream(seed, "test-model-kb")
    return KnowledgeBase(
        [KnowledgeEntry(f"e{i}", f"entry {i}", rng.standard_normal(d)) for i in range(n)]
    )


def _forward_with_classifier_input(monkeypatch, params, kb=None):
    """forward_batch on a fixed batch, and the z it hands to the classifier head."""
    seen = []
    head = model.classify

    def spy(z, *args, **kwargs):
        seen.append(z)
        return head(z, *args, **kwargs)

    monkeypatch.setattr(model, "classify", spy)
    rng = named_stream(0, "test-width")
    out = forward_batch(params, rng.standard_normal((2, 300)), rng.standard_normal((2, 8)), kb=kb)
    return out, seen[0]


def test_fused_width_per_mode(monkeypatch):
    assert fusion_in_dim(256, "freq_only") == 512
    assert fusion_in_dim(256, "freq_plus_knowledge") == 768
    with pytest.raises(ConfigError):
        fusion_in_dim(256, "spatial")
    with pytest.raises(ConfigError, match="unknown fusion_mode 'spatial'"):
        init_model_params(PRE, fusion_mode="spatial", hidden1=16, hidden2=8, dropout=0.1)
    _, z = _forward_with_classifier_input(monkeypatch, tiny_params())
    assert z.shape == (2, 16)
    _, z = _forward_with_classifier_input(monkeypatch, tiny_params(mode="freq_plus_knowledge"),
                                          tiny_kb())
    assert z.shape == (2, 24)


def test_fuse_keeps_segment_order(monkeypatch):
    params = tiny_params(mode="freq_plus_knowledge")
    out, z = _forward_with_classifier_input(monkeypatch, params, tiny_kb())
    t, v = out.features.t_enhanced.data, out.features.v_enhanced.data
    assert np.array_equal(z.data, np.concatenate([t, v, out.k_agg], axis=1))


def test_zeroed_classifier_outputs_final_bias():
    rng = named_stream(1, "test-zero-cls")
    params = init_classifier_params(10, 4, hidden1=6, hidden2=5, dropout=0.1, rng=rng)
    for name, tensor in params.named().items():
        if name.endswith(("gain",)):
            continue
        tensor.data[:] = 0.0
    params.b3.data[:] = [1.0, 2.0, 3.0, 4.0]
    z = Tensor(rng.standard_normal((3, 10)))
    logits = classify(z, params)
    assert np.allclose(logits.data, np.tile([1.0, 2.0, 3.0, 4.0], (3, 1)), atol=1e-12)


def test_eval_forward_is_deterministic():
    params = tiny_params()
    rng = named_stream(2, "test-eval-det")
    q = rng.standard_normal((4, 300))
    img = rng.standard_normal((4, 8))
    a = forward_batch(params, q, img).logits.data
    b = forward_batch(params, q, img).logits.data
    assert np.array_equal(a, b)


def test_train_dropout_changes_logits_but_seeded_repeat_matches():
    params = tiny_params()
    rng = named_stream(3, "test-drop-det")
    q = rng.standard_normal((4, 300))
    img = rng.standard_normal((4, 8))
    a = forward_batch(params, q, img, train=True, rng=named_stream(0, "dropout", 1)).logits.data
    b = forward_batch(params, q, img, train=True, rng=named_stream(0, "dropout", 1)).logits.data
    c = forward_batch(params, q, img, train=True, rng=named_stream(0, "dropout", 2)).logits.data
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_dropout_seed_average_converges():
    # two disjoint 10^4-seed Monte-Carlo averages of the train-mode logits
    # agree to ~1e-2, i.e. the seed average is a stable vector
    rng = named_stream(4, "test-mc")
    params = init_classifier_params(6, 3, hidden1=8, hidden2=6, dropout=0.3, rng=rng)
    z = Tensor(rng.standard_normal((1, 6)))
    sums = np.zeros((2, 3))
    n = 10_000
    for half in range(2):
        for i in range(n):
            out = classify(z, params, train=True, rng=named_stream(half, "mc-seed", i))
            sums[half] += out.data[0]
    means = sums / n
    assert np.max(np.abs(means[0] - means[1])) <= 1e-2


def test_permuting_output_head_permutes_logits():
    params = tiny_params()
    rng = named_stream(5, "test-perm")
    q = rng.standard_normal((3, 300))
    img = rng.standard_normal((3, 8))
    base = forward_batch(params, q, img).logits.data
    perm = np.array([2, 0, 1])
    params.cls.w3.data = params.cls.w3.data[perm]
    params.cls.b3.data = params.cls.b3.data[perm]
    swapped = forward_batch(params, q, img).logits.data
    assert np.allclose(swapped, base[:, perm], atol=1e-12)


def test_precomputed_layout_has_no_image_projection():
    params = tiny_params(PRE)
    assert params.w_v is None
    assert "proj.w_v" not in params.named()
    vit_params = tiny_params(VIT)
    assert vit_params.w_v is not None
    assert vit_params.w_v.shape == (8, 768)


def test_precomputed_image_width_checked():
    params = tiny_params(PRE)
    rng = named_stream(6, "test-width-check")
    with pytest.raises(ContractError):
        forward_batch(params, rng.standard_normal((2, 300)), rng.standard_normal((2, 9)))


def test_vit_layout_projects_images():
    params = tiny_params(VIT)
    rng = named_stream(7, "test-vit")
    q = rng.standard_normal((2, 300))
    img = rng.standard_normal((2, 768))
    out = forward_batch(params, q, img)
    assert out.v.shape == (2, 8)
    assert out.logits.shape == (2, 3)


def test_knowledge_mode_requires_kb_and_retrieval():
    params = tiny_params(mode="freq_plus_knowledge")
    rng = named_stream(8, "test-kb-req")
    q = rng.standard_normal((2, 300))
    img = rng.standard_normal((2, 8))
    with pytest.raises(ConfigError):
        forward_batch(params, q, img, kb=None)
    config = TrainConfig(fusion_mode="freq_plus_knowledge")
    config.validate()
    out = forward_batch(params, q, img, kb=tiny_kb(), options=config.forward_options())
    assert out.k_agg.shape == (2, 8)
    assert out.logits.shape == (2, 3)


def test_frequency_off_feeds_projected_features():
    params = tiny_params()
    rng = named_stream(9, "test-freq-off-fwd")
    q = rng.standard_normal((2, 300))
    img = rng.standard_normal((2, 8))
    out = forward_batch(params, q, img, options=ForwardOptions(frequency=False))
    assert out.features.t_freq is None
    assert out.features.t_enhanced is out.t
    assert out.features.v_enhanced is out.v


def test_checkpoint_round_trip(tmp_path):
    params = tiny_params(mode="freq_plus_knowledge", seed=3)
    rng = named_stream(10, "test-ckpt")
    for tensor in params.named().values():
        tensor.data += 0.01 * rng.standard_normal(tensor.shape)
    path = tmp_path / "model.ckpt.json"
    save_checkpoint(str(path), params, extra_meta={"note": "round trip"})
    loaded, meta = read_checkpoint(str(path))
    assert meta["note"] == "round trip"
    for name, tensor in params.named().items():
        assert np.array_equal(loaded.named()[name].data, tensor.data), name
    q = rng.standard_normal((2, 300))
    img = rng.standard_normal((2, 8))
    kb = tiny_kb()
    a = forward_batch(params, q, img, kb=kb).logits.data
    b = forward_batch(loaded, q, img, kb=kb).logits.data
    assert np.array_equal(a, b)


def test_checkpoint_rejects_bad_blobs(tmp_path):
    params = tiny_params()
    path = tmp_path / "model.ckpt.json"
    save_checkpoint(str(path), params)

    import json

    blob = json.loads(path.read_text())
    blob["format_version"] = 99
    path.write_text(json.dumps(blob))
    with pytest.raises(DataError, match="format"):
        load_checkpoint(str(path))

    blob["format_version"] = CHECKPOINT_VERSION
    blob["params"]["cls.w1"]["shape"] = [2, 2]
    path.write_text(json.dumps(blob))
    with pytest.raises(DataError, match="shape"):
        load_checkpoint(str(path))

    save_checkpoint(str(path), params)
    blob = json.loads(path.read_text())
    del blob["params"]["cls.b3"]
    path.write_text(json.dumps(blob))
    with pytest.raises(DataError, match="missing"):
        load_checkpoint(str(path))

    path.write_text("not json")
    with pytest.raises(DataError, match="JSON"):
        load_checkpoint(str(path))

    save_checkpoint(str(path), params)
    good = json.loads(path.read_text())
    for corrupt in (
        lambda b: b["meta"].update(hidden1="wide"),
        lambda b: b["params"]["cls.b3"].pop("data"),
        lambda b: b["params"]["cls.b3"].update(data=[0.0]),
    ):
        blob = json.loads(json.dumps(good))
        corrupt(blob)
        path.write_text(json.dumps(blob))
        with pytest.raises(DataError):
            load_checkpoint(str(path))


@pytest.mark.parametrize("manifest", [PRE, VIT], ids=["precomputed", "vit"])
@pytest.mark.parametrize("mode", ["freq_only", "freq_plus_knowledge"])
def test_param_shapes_match_the_built_model(manifest, mode):
    params = init_model_params(manifest, fusion_mode=mode, k_filters=3, hidden1=12, hidden2=5,
                               dropout=0.1)
    meta = {"d_model": manifest.d_model, "n_classes": manifest.n_classes, "k_filters": 3,
            "feature_layout": manifest.feature_layout, "fusion_mode": mode, "hidden1": 12,
            "hidden2": 5}
    assert list(_param_shapes(meta).items()) == [
        (name, t.shape) for name, t in params.named().items()
    ]


def test_checkpoint_bytes_are_exact(tmp_path):
    """Subnormals, -0.0, the extremes and values at 10^+-300 load bit for bit."""
    params = init_model_params(VIT, fusion_mode="freq_plus_knowledge", hidden1=16, hidden2=8,
                               dropout=0.1, seed=4)
    rng = named_stream(4, "test-ckpt-bits")
    specials = np.array([0.0, -0.0, 5e-324, -2.2250738585072014e-308, 1.7976931348623157e308,
                         0.1, 1.0 / 3.0])
    for tensor in params.named().values():
        tensor.data = rng.standard_normal(tensor.shape) * 10.0 ** rng.integers(-300, 300,
                                                                              tensor.shape)
        tensor.data.reshape(-1)[: len(specials)] = specials[: tensor.size]
    path = tmp_path / "model.ckpt.json"
    save_checkpoint(str(path), params)
    assert json.loads(path.read_text())["format_version"] == 2
    for name, tensor in load_checkpoint(str(path)).named().items():
        assert tensor.data.tobytes() == params.named()[name].data.tobytes(), name
        assert tensor.data.flags.writeable, name


_SEVEN = ", 0.0" * 7


@pytest.mark.parametrize(
    "data",
    [
        "[true" + _SEVEN + "]",
        '["1.5"' + _SEVEN + "]",
        "[null" + _SEVEN + "]",
        "[[0.0]" + _SEVEN + "]",
        "[1" + _SEVEN + "]",  # an integer keeps it a list, which is valid
        "[1" + "0" * 400 + _SEVEN + "]",
        "[NaN" + _SEVEN + "]",
        "[-Infinity" + _SEVEN + "]",
        "[1e999" + _SEVEN + "]",
        "[0.0" + _SEVEN[5:] + "]",
        "[0.0, 0.0" + _SEVEN + "]",
        "[]",
        '"eight floats"',
        "{}",
    ],
)
def test_hook_parsed_checkpoint_keeps_data_errors(tmp_path, data):
    """Tensor data (cls.b2 holds 8 numbers) that is not base64 text, such as
    the lists of JSON numbers that version 1 stored, passes the parse-time
    hook untouched and fails as one DataError naming the parameter."""
    path = tmp_path / "model.ckpt.json"
    save_checkpoint(str(path), tiny_params())
    blob = json.loads(path.read_text())
    blob["params"]["cls.b2"]["data"] = "DATA"
    path.write_text(json.dumps(blob).replace('"DATA"', data))
    with pytest.raises(DataError, match=f"checkpoint {path} param cls.b2: expected base64 text"):
        load_checkpoint(str(path))


def _b64(values) -> str:
    return base64.b64encode(np.asarray(values, dtype="<f8").tobytes()).decode("ascii")


_EIGHT = _b64(np.arange(8.0))


@pytest.mark.parametrize(
    "data, message",
    [
        (_EIGHT, None),
        (_EIGHT[:10] + "*" + _EIGHT[11:], "expected base64 text"),  # outside the alphabet
        (_EIGHT[:-2] + " " + _EIGHT[-2:], "expected base64 text"),  # space
        ("é" + _EIGHT[1:], "expected base64 text"),  # not ASCII
        (_EIGHT.rstrip("="), "expected base64 text"),  # padding cut off
        (_EIGHT + "=", "expected base64 text"),  # one "=" too many
        (base64.b64encode(bytes(61)).decode("ascii"), "expected base64 text"),  # 61 bytes
        (_b64(np.zeros(7)), "expected 8 numbers, got 7"),
        (_b64(np.zeros(9)), "expected 8 numbers, got 9"),
        ("", "expected 8 numbers, got 0"),
        (_b64([np.nan] + [0.0] * 7), "expected 8 finite numbers"),
        (_b64([0.0] * 7 + [np.inf]), "expected 8 finite numbers"),
        (_b64([-np.inf] + [0.0] * 7), "expected 8 finite numbers"),
        ([0.0] * 8, "expected base64 text"),  # a list, as version 1 stored
        (True, "expected base64 text"),
        (None, "expected base64 text"),
        ({"shape": [8], "data": _EIGHT}, "expected base64 text"),
    ],
    ids=["valid", "star", "space", "non-ascii", "no-padding", "extra-padding", "61-bytes",
         "7-values", "9-values", "empty", "nan", "inf", "minus-inf", "list", "true", "null",
         "object"],
)
def test_version_2_data_errors_name_the_parameter(tmp_path, data, message):
    """cls.b2 (8 values) as base64 of little-endian float64 bytes loads;
    anything else is one DataError naming the parameter."""
    path = tmp_path / "model.ckpt.json"
    save_checkpoint(str(path), tiny_params())
    blob = json.loads(path.read_text())
    blob["params"]["cls.b2"]["data"] = data
    path.write_text(json.dumps(blob))
    if message is None:
        assert np.array_equal(load_checkpoint(str(path)).cls.b2.data, np.arange(8.0))
        return
    with pytest.raises(DataError, match=f"param cls.b2: {message}"):
        load_checkpoint(str(path))


def test_version_1_file_with_base64_data_is_rejected(tmp_path):
    path = tmp_path / "model.ckpt.json"
    save_checkpoint(str(path), tiny_params())
    blob = json.loads(path.read_text())
    blob["format_version"] = 1
    path.write_text(json.dumps(blob))
    with pytest.raises(DataError, match=r"^checkpoint format 1 unsupported \(expected 2\)$"):
        load_checkpoint(str(path))


def test_checkpoint_load_memory_stays_near_the_parameters(tmp_path):
    """One load of a 483,660-parameter (3.7 MiB) checkpoint, the size perfbench's
    eval_large_kb loads, peaks under 16 MiB of traced allocations: the 4.9 MiB
    of file text, the 3.7 MiB of arrays kept, and one tensor's base64 text,
    bytes and array (2 MiB of float64 for cls.w2). Measured at 13.9 MiB;
    parsing a list of JSON numbers per tensor peaked at 22.0 MiB."""
    manifest = DatasetManifest(n_classes=4, d_model=64, feature_layout="precomputed")
    params = init_model_params(manifest, fusion_mode="freq_plus_knowledge", hidden1=1024,
                               hidden2=256, dropout=0.1, seed=0)
    assert sum(t.size for t in params.named().values()) == 483_660
    path = tmp_path / "model.ckpt.json"
    save_checkpoint(str(path), params)
    del params
    tracemalloc.start()
    try:
        load_checkpoint(str(path))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20, f"load_checkpoint peaked at {peak / 2**20:.1f} MiB"


def test_checkpoint_dimensions_beyond_memory_fail_before_allocating(tmp_path, monkeypatch):
    import freqfuse.model as model

    path = tmp_path / "model.ckpt.json"
    save_checkpoint(str(path), tiny_params())
    blob = json.loads(path.read_text())
    blob["meta"]["hidden1"] = 100_000_000_000
    path.write_text(json.dumps(blob))

    def refuse(*args, **kwargs):
        raise AssertionError("init_model_params ran before the shapes were checked")

    monkeypatch.setattr(model, "init_model_params", refuse)
    with pytest.raises(DataError, match=r"param cls\.w1 does not hold shape \(100000000000, 16\)"):
        load_checkpoint(str(path))
