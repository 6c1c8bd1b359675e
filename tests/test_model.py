import dataclasses
import hashlib
import json
import math
import struct
import tracemalloc
import zlib
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scandilid.core import Dataset, LabeledSentence, LabelSet, Language
from scandilid.features import FeaturizerConfig, featurize
from scandilid.model import (
    MODEL_MAGIC,
    OUTPUT_ORDER,
    FastModel,
    ModelFormatError,
    TrainConfig,
    TrainingError,
    forward,
    gradient_check,
    head_parameter_count,
    load_model,
    loss_and_grads,
    predict,
    predict_top1,
    save_model,
    targets_for,
    train,
)
from scandilid.model import (
    _decode,
    _init_params,
    _layers,
    _pool_all,
    _shapes,
    _sigmoid,
    _validation_metric,
)
from scandilid.synthetic import ambiguous_indices, generate_corpus


def small_config(**overrides):
    defaults = dict(min_n=1, max_n=2, bucket_count=64, embed_dim=8)
    defaults.update(overrides)
    return FeaturizerConfig(**defaults)


def random_model(cfg=None, seed=0, threshold=0.5):
    cfg = cfg or small_config()
    rng = np.random.default_rng(seed)
    return FastModel(
        featurizer=cfg,
        embeddings=rng.normal(0, 0.5, (cfg.bucket_count, cfg.embed_dim)).astype(np.float32),
        w1=rng.normal(0, 0.5, (64, cfg.embed_dim)).astype(np.float32),
        b1=rng.normal(0, 0.5, 64).astype(np.float32),
        w2=rng.normal(0, 0.5, (4, 64)).astype(np.float32),
        b2=rng.normal(0, 0.5, 4).astype(np.float32),
        threshold=threshold,
    )


def logits_model(probabilities, threshold=0.5):
    """A model that outputs fixed probabilities regardless of input."""
    cfg = small_config()
    b2 = np.array([math.log(p / (1 - p)) for p in probabilities], dtype=np.float32)
    return FastModel(
        featurizer=cfg,
        embeddings=np.zeros((cfg.bucket_count, cfg.embed_dim), dtype=np.float32),
        w1=np.zeros((64, cfg.embed_dim), dtype=np.float32),
        b1=np.zeros(64, dtype=np.float32),
        w2=np.zeros((4, 64), dtype=np.float32),
        b2=b2,
        threshold=threshold,
    )


def oracle_forward(model, text):
    """Straightforward loop-based re-implementation of the forward pass."""
    ids = featurize(text, model.featurizer)
    dim = model.featurizer.embed_dim
    e = [0.0] * dim
    for i in ids:
        for k in range(dim):
            e[k] += float(model.embeddings[i, k])
    if len(ids):
        e = [v / len(ids) for v in e]
    h = []
    for j in range(64):
        z = float(model.b1[j]) + sum(float(model.w1[j, k]) * e[k] for k in range(dim))
        h.append(max(z, 0.0))
    out = []
    for o in range(4):
        z = float(model.b2[o]) + sum(float(model.w2[o, j]) * h[j] for j in range(64))
        out.append(1.0 / (1.0 + math.exp(-z)))
    return out


def test_forward_matches_independent_oracle():
    model = random_model(seed=3)
    rng = np.random.default_rng(1)
    alphabet = "abcdefghij æøå"
    for _ in range(10):
        text = "".join(rng.choice(list(alphabet)) for _ in range(rng.integers(0, 30)))
        got = forward(model, text)
        want = oracle_forward(model, text)
        assert np.allclose(got, want, atol=1e-6), text


def test_all_zero_weights_give_half():
    model = logits_model([0.5, 0.5, 0.5, 0.5])
    assert np.allclose(forward(model, "hvilken som helst tekst"), 0.5, atol=0)


def test_empty_text_uses_zero_embedding():
    model = random_model(seed=9)
    p = forward(model, "")
    h = np.maximum(model.b1.astype(np.float64), 0.0)
    z = model.w2.astype(np.float64) @ h + model.b2
    assert np.allclose(p, 1.0 / (1.0 + np.exp(-z)), atol=1e-12)


def test_forward_in_open_interval():
    model = random_model(seed=2)
    p = forward(model, "setning")
    assert np.all(p > 0.0) and np.all(p < 1.0)


def test_predict_thresholding():
    model = logits_model([0.2, 0.7, 0.6, 0.1])
    assert predict(model, "x") == LabelSet.of("nb", "nn")


def test_predict_other_fallback():
    model = logits_model([0.2, 0.3, 0.1, 0.4])
    assert predict(model, "x") == LabelSet.of("other")


def test_predict_threshold_is_inclusive():
    model = logits_model([0.5, 0.4, 0.4, 0.4])
    assert predict(model, "x") == LabelSet.of("da")


def test_predict_top1():
    assert predict_top1(logits_model([0.2, 0.7, 0.6, 0.1]), "x") == Language.NB
    assert predict_top1(logits_model([0.2, 0.3, 0.1, 0.4]), "x") == Language.OTHER


@settings(max_examples=60)
@given(st.lists(st.floats(min_value=0.01, max_value=0.99), min_size=4, max_size=4))
def test_predict_never_empty_never_mixes_other(probabilities):
    labels = predict(logits_model(probabilities), "x")
    assert len(labels) >= 1
    if Language.OTHER in labels:
        assert len(labels) == 1


def test_targets_for():
    assert targets_for(LabelSet.of("da", "nn")).tolist() == [1.0, 0.0, 1.0, 0.0]
    assert targets_for(LabelSet.of("other")).tolist() == [0.0, 0.0, 0.0, 0.0]


def test_output_order_is_fixed():
    assert [l.value for l in OUTPUT_ORDER] == ["da", "nb", "nn", "sv"]


def test_head_parameter_counts():
    assert head_parameter_count(FeaturizerConfig()) == 64 * 32 + 64 + 4 * 64 + 4
    assert head_parameter_count(FeaturizerConfig.reference_head()) == 20_932
    model = random_model()
    assert model.head_parameter_count() == 64 * 8 + 64 + 4 * 64 + 4


def batch(*pairs):
    return [LabeledSentence(text, LabelSet.of(*tags)) for text, tags in pairs]


GRADCHECK_BATCH = batch(
    ("ab ba", ("da",)),
    ("cd dc cd", ("nb", "nn")),
    ("ee", ("other",)),
    ("abc cba bac", ("sv", "da")),
)


def test_gradient_check_small():
    for seed in range(3):
        err = gradient_check(small_config(), GRADCHECK_BATCH, seed=seed)
        assert err < 1e-4, (seed, err)


def test_gradient_check_rejects_large_models():
    with pytest.raises(ValueError, match="small model"):
        gradient_check(FeaturizerConfig(), GRADCHECK_BATCH)


def test_untouched_embedding_rows_have_zero_gradient():
    cfg = small_config()
    feats = [featurize(item.text, cfg) for item in GRADCHECK_BATCH]
    y = np.stack([targets_for(item.labels) for item in GRADCHECK_BATCH])
    params = _init_params(cfg, np.random.default_rng(5))
    _, grads = loss_and_grads(params, feats, y)
    touched = set(np.concatenate(feats).tolist())
    for row in range(cfg.bucket_count):
        if row not in touched:
            assert np.all(grads[0][row] == 0.0)


def test_duplicated_sample_gradient_linearity():
    cfg = small_config()
    item = GRADCHECK_BATCH[1]
    feats1 = [featurize(item.text, cfg)]
    feats2 = feats1 * 2
    y1 = np.stack([targets_for(item.labels)])
    y2 = np.stack([targets_for(item.labels)] * 2)
    params = _init_params(cfg, np.random.default_rng(8))
    loss1, g1 = loss_and_grads(params, feats1, y1)
    loss2, g2 = loss_and_grads(params, feats2, y2)
    assert loss1 == loss2
    # Mean-scaled gradients coincide and the sum form doubles; only the
    # BLAS summation path differs between batch shapes, so compare at a
    # few-ulp tolerance rather than bitwise.
    for a, b in zip(g1, g2):
        np.testing.assert_allclose(b, a, rtol=1e-10, atol=1e-16)
        np.testing.assert_allclose(b * y2.size, 2.0 * (a * y1.size), rtol=1e-10, atol=1e-16)


def test_exact_match_counts_what_decoded_label_sets_count():
    # Random logits, `other` rows, and outputs exactly at the threshold:
    # comparing accept rows with target rows must agree with _decode.
    cfg = small_config()
    rng = np.random.default_rng(3)
    params = [rng.normal(0, 1, size=shape) for shape in _shapes(cfg)]
    params[3][1] = 0.0  # nb's logit is 0, its probability exactly 0.5
    params[4][1] = 0.0
    feats = [rng.integers(0, cfg.bucket_count, size=rng.integers(0, 6)) for _ in range(1000)]
    p = _sigmoid(_layers(params, _pool_all(params[0], feats))[2])
    choices = [LabelSet.of(*tags) for tags in [("other",), ("da",), ("nb",), ("nn", "sv"), ("da", "nb", "nn", "sv")]]
    saw_other = False
    for threshold in [0.5, float(p[7, 2]), float(np.quantile(p, 0.8))]:
        decoded = [_decode(row) for row in p >= threshold]
        gold = [d if rng.random() < 0.5 else choices[rng.integers(len(choices))] for d in decoded]
        hits = sum(d == g for d, g in zip(decoded, gold))
        y = np.stack([targets_for(g) for g in gold])
        assert _validation_metric(params, feats, y, "exact_match", threshold) == hits / len(gold)
        assert 0 < hits < len(gold)
        saw_other |= any(d.is_other for d in decoded)
    assert saw_other


def two_branch_sigmoid(z):
    """Reference sigmoid: one branch per sign, so exp never overflows."""
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def test_sigmoid_matches_two_branch_form_bit_for_bit():
    edges = [0.0, -0.0, 745.0, -745.0, 1e4, -1e4, 709.8, -709.8, 36.8, -36.8, 5e-324, -5e-324]
    z = np.concatenate([edges, np.linspace(-60.0, 60.0, 2400), np.random.default_rng(0).normal(0, 40, 2000)])
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        got = _sigmoid(z)
        batch_got = _sigmoid(z.reshape(-1, 4))
    assert got.tobytes() == two_branch_sigmoid(z).tobytes()
    assert batch_got.tobytes() == got.tobytes()


@pytest.fixture(scope="module")
def tiny_corpus():
    train_set, test_set = generate_corpus(1500, 300, ambiguous_fraction=0.1, seed=5)
    valid = train_set.with_items(train_set.items[-200:])
    fit = train_set.with_items(train_set.items[:-200])
    return fit, valid, test_set


def tiny_train_config(**overrides):
    defaults = dict(
        epochs=12, batch_size=32, learning_rate=0.5, momentum=0.9,
        seed=42, eval_interval=50, patience=60,
    )
    defaults.update(overrides)
    return TrainConfig(**defaults)


def test_training_learns_separable_corpus(tiny_corpus):
    fit, valid, test_set = tiny_corpus
    cfg = FeaturizerConfig(bucket_count=1 << 12, embed_dim=16)
    result = train(fit, valid, cfg, tiny_train_config())
    hits = sum(1 for item in test_set if predict(result.model, item.text) == item.labels)
    assert hits / len(test_set) >= 0.9
    assert result.epoch_losses[0] < result.initial_loss
    assert result.history, "validation evaluations must be recorded"


GOLDEN = json.loads((Path(__file__).parent / "fixtures" / "model_golden.json").read_text(encoding="utf-8"))


def tags(labels):
    return sorted(lang.value for lang in labels)


def golden_model():
    spec = GOLDEN["model"]
    return FastModel(
        FeaturizerConfig(**spec["featurizer"]),
        *(np.array(spec[name], dtype=np.float32) for name in ("embeddings", "w1", "b1", "w2", "b2")),
        threshold=spec["threshold"],
    )


def test_forward_and_predict_match_golden_fixture():
    # Pins forward and predict on a fixed model. The texts include the
    # empty text and 14 texts with an output within 2e-3 of the threshold
    # (but farther than 1e-9, so a last-bit change in summation order
    # cannot flip a decision).
    model = golden_model()
    assert len(GOLDEN["texts"]) == 50
    for text, probabilities, labels in zip(GOLDEN["texts"], GOLDEN["probabilities"], GOLDEN["labels"]):
        np.testing.assert_allclose(forward(model, text), probabilities, rtol=0, atol=1e-12)
        assert tags(predict(model, text)) == labels, text


def test_training_matches_golden_fixture(tiny_corpus):
    # Pins one fixed-seed training run: losses, metrics, the selected
    # step and the trained model's test-set label sets, all exactly.
    spec = GOLDEN["train"]
    fit, valid, test_set = tiny_corpus
    result = train(fit, valid, FeaturizerConfig(**spec["featurizer"]), TrainConfig(**spec["train_config"]))
    assert result.best_step == spec["best_step"]
    assert result.best_metric == spec["best_metric"]
    assert result.initial_loss == spec["initial_loss"]
    assert result.epoch_losses == spec["epoch_losses"]
    assert [[p.step, p.epoch, p.train_loss, p.metric] for p in result.history] == spec["history"]
    assert [tags(predict(result.model, item.text)) for item in test_set] == spec["test_labels"]


def test_training_is_deterministic(tiny_corpus):
    fit, valid, _ = tiny_corpus
    cfg = FeaturizerConfig(bucket_count=1 << 12, embed_dim=16)
    a = train(fit, valid, cfg, tiny_train_config(epochs=2))
    b = train(fit, valid, cfg, tiny_train_config(epochs=2))
    for name in ("embeddings", "w1", "b1", "w2", "b2"):
        assert np.array_equal(getattr(a.model, name), getattr(b.model, name))
    assert a.best_step == b.best_step


def test_zero_learning_rate_freezes_weights(tiny_corpus):
    fit, valid, _ = tiny_corpus
    cfg = FeaturizerConfig(bucket_count=1 << 12, embed_dim=16)
    one = train(fit, valid, cfg, tiny_train_config(epochs=1, learning_rate=0.0))
    three = train(fit, valid, cfg, tiny_train_config(epochs=3, learning_rate=0.0))
    for name in ("embeddings", "w1", "b1", "w2", "b2"):
        assert np.array_equal(getattr(one.model, name), getattr(three.model, name))


def test_training_rejects_empty_set():
    cfg = FeaturizerConfig(bucket_count=1 << 12, embed_dim=16)
    with pytest.raises(TrainingError, match="empty"):
        train(Dataset("train", ()), Dataset("validation", ()), cfg, tiny_train_config())


def test_training_aborts_on_divergence(tiny_corpus):
    fit, valid, _ = tiny_corpus
    cfg = FeaturizerConfig(bucket_count=1 << 12, embed_dim=16)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(TrainingError, match="non-finite"):
            train(fit, valid, cfg, tiny_train_config(learning_rate=1e12))


def test_train_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(epochs=0)
    with pytest.raises(ValueError):
        TrainConfig(learning_rate=-1.0)
    with pytest.raises(ValueError):
        TrainConfig(momentum=1.0)
    with pytest.raises(ValueError):
        TrainConfig(selection_metric="f2")


def probe_sentences(n=200, seed=17):
    rng = np.random.default_rng(seed)
    alphabet = list("abcdefghijklmnopqrstuvwxyzæøåäö ")
    return ["".join(rng.choice(alphabet) for _ in range(rng.integers(1, 80))).strip() or "x" for _ in range(n)]


def test_save_load_round_trip(tmp_path):
    model = random_model(seed=11, threshold=0.4)
    path = tmp_path / "m.slfx"
    save_model(model, path)
    loaded = load_model(path)
    assert loaded.featurizer == model.featurizer
    assert loaded.threshold == model.threshold
    for text in probe_sentences():
        assert np.array_equal(forward(model, text), forward(loaded, text)), text


def test_saved_golden_model_bytes_are_pinned(tmp_path):
    path = tmp_path / "m.slfx"
    save_model(golden_model(), path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == (
        "cc641a747825da1889079b92d98136de65ae667c55b9609d15002c8647bfc628"
    )


def test_load_model_holds_one_copy_of_the_weights(tmp_path):
    cfg = FeaturizerConfig()
    path = tmp_path / "m.slfx"
    save_model(FastModel(cfg, *(np.zeros(shape, dtype=np.float32) for shape in _shapes(cfg))), path)
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        model = load_model(path)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert model.embeddings.shape == (cfg.bucket_count, cfg.embed_dim)
    assert peak < 1.5 * path.stat().st_size


def test_load_rejects_truncated_file(tmp_path):
    model = random_model()
    path = tmp_path / "m.slfx"
    save_model(model, path)
    data = path.read_bytes()
    path.write_bytes(data[: len(data) - 257])
    with pytest.raises(ModelFormatError, match="checksum"):
        load_model(path)


def test_load_rejects_corrupt_byte(tmp_path):
    model = random_model()
    path = tmp_path / "m.slfx"
    save_model(model, path)
    data = bytearray(path.read_bytes())
    data[len(data) // 2] ^= 0xFF
    path.write_bytes(bytes(data))
    with pytest.raises(ModelFormatError, match="checksum"):
        load_model(path)


def test_load_rejects_wrong_magic(tmp_path):
    model = random_model()
    path = tmp_path / "m.slfx"
    save_model(model, path)
    data = bytearray(path.read_bytes())
    data[:4] = b"XXXX"
    path.write_bytes(bytes(data))
    with pytest.raises(ModelFormatError, match=r"expected b'SLFX', found b'XXXX'"):
        load_model(path)


def test_load_rejects_wrong_version(tmp_path):
    model = random_model()
    path = tmp_path / "m.slfx"
    save_model(model, path)
    data = bytearray(path.read_bytes())
    data[4:6] = (99).to_bytes(2, "little")
    path.write_bytes(bytes(data))
    with pytest.raises(ModelFormatError, match="expected 1, found 99"):
        load_model(path)


def test_load_rejects_tiny_file(tmp_path):
    path = tmp_path / "m.slfx"
    path.write_bytes(MODEL_MAGIC)
    with pytest.raises(ModelFormatError, match="too short"):
        load_model(path)


def rewrite_model_file(path, edit):
    """Let ``edit(header, arrays)`` change a saved model, then re-frame it with a valid CRC."""
    data = path.read_bytes()
    (header_len,) = struct.unpack_from("<I", data, 6)
    header = json.loads(data[10 : 10 + header_len])
    arrays = bytearray(data[10 + header_len : -4])
    edit(header, arrays)
    header_bytes = json.dumps(header).encode("utf-8")
    body = data[:6] + struct.pack("<I", len(header_bytes)) + header_bytes + bytes(arrays)
    path.write_bytes(body + struct.pack("<I", zlib.crc32(body) & 0xFFFFFFFF))


def nan_last_weight(header, arrays):
    arrays[-4:] = struct.pack("<f", math.nan)


@pytest.mark.parametrize(
    "edit",
    [
        lambda header, arrays: header.update(threshold="0.5"),
        # The same width as a float, so the array section still has the right size.
        lambda header, arrays: header["featurizer"].update(embed_dim=8.0),
        lambda header, arrays: header.update(threshold=True),
        nan_last_weight,
    ],
    ids=["threshold-string", "embed-dim-float", "threshold-bool", "nan-weight"],
)
def test_load_rejects_malformed_model_with_valid_crc(tmp_path, edit):
    path = tmp_path / "m.slfx"
    save_model(random_model(), path)
    rewrite_model_file(path, edit)
    with pytest.raises(ModelFormatError):
        load_model(path)


def test_model_validation():
    cfg = small_config()
    with pytest.raises(ValueError, match="shape"):
        FastModel(
            featurizer=cfg,
            embeddings=np.zeros((3, 3), dtype=np.float32),
            w1=np.zeros((64, 8), dtype=np.float32),
            b1=np.zeros(64, dtype=np.float32),
            w2=np.zeros((4, 64), dtype=np.float32),
            b2=np.zeros(4, dtype=np.float32),
        )
    with pytest.raises(ValueError, match="threshold"):
        logits_model([0.5, 0.5, 0.5, 0.5], threshold=1.0)
    bad = np.zeros((64, 8), dtype=np.float32)
    bad[0, 0] = np.nan
    with pytest.raises(ValueError, match="non-finite"):
        FastModel(
            featurizer=cfg,
            embeddings=np.zeros((cfg.bucket_count, 8), dtype=np.float32),
            w1=bad,
            b1=np.zeros(64, dtype=np.float32),
            w2=np.zeros((4, 64), dtype=np.float32),
            b2=np.zeros(4, dtype=np.float32),
        )
    # Finite in float64 but beyond the float32 range: inf once stored.
    too_big = np.zeros(4)
    too_big[0] = 1e39
    with pytest.raises(ValueError, match="b2 contains non-finite"):
        FastModel(
            featurizer=cfg,
            embeddings=np.zeros((cfg.bucket_count, 8)),
            w1=np.zeros((64, 8)),
            b1=np.zeros(64),
            w2=np.zeros((4, 64)),
            b2=too_big,
        )


def test_model_is_frozen():
    model = random_model(threshold=0.4)
    with pytest.raises(dataclasses.FrozenInstanceError):
        model.threshold = 2.0
    assert model.threshold == 0.4


def test_model_equality_is_identity_and_hashable():
    model, twin = random_model(), random_model()
    assert model == model
    assert model != twin
    assert len({model, twin, model}) == 2
