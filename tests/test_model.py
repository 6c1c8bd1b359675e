import dataclasses
import hashlib
import itertools
import json
import logging
import math
import pickle
import struct
import tracemalloc
import zlib
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scandilid import features
from scandilid import model as model_module
from scandilid.core import Dataset, LabeledSentence, LabelSet, Language
from scandilid.features import FeaturizerConfig, featurize, featurize_many
from scandilid.ingest import write_dataset
from scandilid.model import (
    MODEL_MAGIC,
    OUTPUT_ORDER,
    FastModel,
    ModelFormatError,
    TrainConfig,
    TrainingError,
    forward,
    head_parameter_count,
    load_model,
    predict,
    predict_top1,
    save_model,
    train,
)
from scandilid.model import (
    _ARRAY_NAMES,
    _backprop,
    _decode,
    _init_params,
    _layers,
    _loss,
    _pool,
    _pool_all,
    _scatter_add,
    _shapes,
    _sigmoid,
    _targets,
    _validation_metric,
)
from scandilid.synthetic import SHARED_ALPHABET, generate_shared_alphabet_corpus, generate_shared_vocabulary_corpus


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


def unaligned_copy(arr):
    """A read-only copy of `arr` whose data starts one byte past the
    start of a bytes object, so not on an itemsize boundary."""
    view = np.frombuffer(b"\0" + arr.tobytes(), arr.dtype, offset=1).reshape(arr.shape)
    assert not view.flags.aligned
    return view


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


@pytest.mark.parametrize("dim", [1, 8, 32, 322])
def test_forward_is_the_float32_head_bit_for_bit(dim):
    # The float64 head FastModel builds must give the bits of the mixed
    # float32/float64 matmuls on the stored arrays; a C-order cast does not.
    model = random_model(small_config(bucket_count=1024, embed_dim=dim), seed=dim)
    _, w1, b1, w2, b2 = (getattr(model, name) for name in _ARRAY_NAMES)
    for text in ["", *probe_sentences()]:
        e = _pool(model.embeddings, featurize(text, model.featurizer))
        want = np.clip(_sigmoid(np.maximum(e @ w1.T + b1, 0.0) @ w2.T + b2), 1e-15, 1 - 1e-15)
        assert forward(model, text).tobytes() == want.tobytes(), text


@pytest.mark.parametrize("dim", [1, 8, 32, 322])
def test_layers_and_backprop_are_the_matmul_formulas_bit_for_bit(dim):
    # `_layers` and `_backprop` multiply with np.dot, in place where they
    # can; on float64 parameters each product is the BLAS call of the `@`
    # formula, so the bytes must be its bytes, for one pooled vector and
    # for a batch. Empty sentences and zero biases put pre-activations at 0.
    cfg = small_config(bucket_count=256, embed_dim=dim)
    rng = np.random.default_rng(dim)
    params = [rng.uniform(-1, 1, size=shape) for shape in _shapes(cfg)]
    emb, w1, b1, w2, b2 = params
    b1[:8] = 0.0
    feats = [rng.integers(0, cfg.bucket_count, size=n) for n in [0, *rng.integers(0, 12, size=32)]]
    y = rng.integers(0, 2, size=(len(feats), 4)).astype(np.float64)
    e = _pool_all(emb, feats)
    for x in (e[0], e[1], e[:1], e):
        h = np.maximum(x @ w1.T + b1, 0.0)
        assert [a.tobytes() for a in _layers(params, x)] == [h.tobytes(), (h @ w2.T + b2).tobytes()]
    z1 = e @ w1.T + b1
    h = np.maximum(z1, 0.0)
    z2 = h @ w2.T + b2
    dz2 = (_sigmoid(z2) - y) / z2.size
    dz1 = (dz2 @ w2) * (z1 > 0)
    lengths = np.maximum([ids.size for ids in feats], 1)[:, None]
    want = [(dz1 @ w1) / lengths, dz1.T @ e, dz1.sum(axis=0), dz2.T @ h, dz2.sum(axis=0)]
    loss, ((_, _, rows), *head_grads) = _backprop(params, feats, y)
    assert loss == _loss(params, feats, y)
    assert [a.tobytes() for a in [rows, *head_grads]] == [a.tobytes() for a in want]


def test_decode_matches_the_list_decoder_on_every_accept_row():
    for bits in itertools.product((False, True), repeat=4):
        row = np.array(bits)
        chosen = [lang for lang, accepted in zip(OUTPUT_ORDER, row.tolist()) if accepted]
        assert _decode(row) == (LabelSet(frozenset(chosen)) if chosen else LabelSet.of(Language.OTHER))


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


def threshold_grid():
    """Thresholds across (0, 1), next to the clip's bounds and next to
    where t·(1 ± margin) crosses them."""
    edges = [1e-15, 1 - 1e-15]
    edges += [b * f for b in (1e-15, 1 - 1e-15) for f in (1 + 1e-9, 1 - 1e-9, 1 / (1 + 1e-9), 1 / (1 - 1e-9))]
    near = [float(x) for e in edges for x in (np.nextafter(e, 0.0), e, np.nextafter(e, 1.0))]
    grid = [1e-300, 1e-100, 1e-16, 1e-9, 0.01, 0.3, 0.5, 0.7, 0.99, 1 - 1e-9, *near, 1 - 2**-53]
    return [t for t in grid if 0.0 < t < 1.0]


def logits_near(centre):
    """Logits k ulps from `centre`, 1e-12 to 10 from it, and ±1e117."""
    ulps = [float(x) for x in centre + np.arange(-8, 9) * np.spacing(abs(centre) or 1e-300)]
    offsets = [sign * 10.0**k for k in range(-12, 2) for sign in (1, -1)]
    return ulps + [centre + d for d in offsets] + [1e117, -1e117]


def test_predict_decides_on_logits_as_on_clipped_probabilities(monkeypatch):
    # predict compares logits with bounds and computes probabilities only
    # near the threshold; its label sets must be those of the clipped
    # probabilities at every threshold, next to the clip's bounds too.
    logits = []
    monkeypatch.setattr(model_module, "_layers", lambda params, e: (None, np.array(logits)))
    clip_logit = math.log(1e-15) - math.log1p(-1e-15)
    for threshold in threshold_grid():
        model = logits_model([0.5] * 4, threshold=threshold)
        grid = logits_near(math.log(threshold) - math.log1p(-threshold))
        grid += logits_near(clip_logit) + logits_near(-clip_logit)
        # The bounds themselves, where predict's two comparisons part.
        bounds = [b for b in (model._sure, model._unsure) if math.isfinite(b)]
        grid += [float(x) for b in bounds for x in (np.nextafter(b, -math.inf), b, np.nextafter(b, math.inf))]
        grid += grid[: -len(grid) % 4]  # whole rows of four
        for row in np.reshape(grid, (-1, 4)):
            logits[:] = row.tolist()
            want = _decode(np.clip(_sigmoid(row), 1e-15, 1 - 1e-15) >= threshold)
            assert predict(model, "x") == want, (threshold, logits)


def test_predict_computes_probabilities_only_near_the_threshold(monkeypatch):
    calls = []
    probabilities = model_module._probabilities
    monkeypatch.setattr(model_module, "_probabilities", lambda z: calls.append(z) or probabilities(z))
    near = logits_model([0.5, 0.5, 0.2, 0.8], threshold=0.5)
    assert near._unsure < 0.0 < near._sure  # the logit of 0.5 is 0, inside the band
    assert predict(near, "x") == _decode(forward(near, "x") >= 0.5) == LabelSet.of("da", "nb", "sv")
    assert len(calls) == 2  # predict's near-threshold path, then forward
    calls.clear()
    assert predict(logits_model([0.2, 0.7, 0.6, 0.1]), "x") == LabelSet.of("nb", "nn")
    assert calls == []


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
    items = [LabeledSentence("x", LabelSet.of("da", "nn")), LabeledSentence("x", LabelSet.of("other"))]
    assert _targets(items).tolist() == [[1.0, 0.0, 1.0, 0.0], [0.0, 0.0, 0.0, 0.0]]


def test_targets_stacks_targets_for_rows():
    choices = [LabelSet.of("other")] + [
        LabelSet(frozenset(c)) for r in range(1, 5) for c in itertools.combinations(OUTPUT_ORDER, r)
    ]
    rng = np.random.default_rng(4)
    items = [LabeledSentence("x", choices[i]) for i in rng.integers(len(choices), size=300)]
    assert {item.labels for item in items} == set(choices)
    expected = np.array([[lang in item.labels for lang in OUTPUT_ORDER] for item in items], dtype=np.float64)
    assert _targets(items).dtype == expected.dtype
    assert _targets(items).tobytes() == expected.tobytes()
    assert _targets([]).shape == (0, 4)


def test_output_order_is_fixed():
    assert [l.value for l in OUTPUT_ORDER] == ["da", "nb", "nn", "sv"]


def test_head_parameter_counts():
    assert head_parameter_count(FeaturizerConfig()) == 64 * 32 + 64 + 4 * 64 + 4
    assert head_parameter_count(FeaturizerConfig.reference_head()) == 20_932
    model = random_model()
    assert head_parameter_count(model.featurizer) == 64 * 8 + 64 + 4 * 64 + 4


def batch(*pairs):
    return [LabeledSentence(text, LabelSet.of(*tags)) for text, tags in pairs]


GRADCHECK_BATCH = batch(
    ("ab ba", ("da",)),
    ("cd dc cd", ("nb", "nn")),
    ("ee", ("other",)),
    ("abc cba bac", ("sv", "da")),
)


def loss_and_grads(params, feats, y):
    """Mean BCE and dense gradients for every parameter array, in parameter order."""
    loss, (emb_grad, *head_grads) = _backprop(params, feats, y)
    gemb = np.zeros_like(params[0])
    _scatter_add(gemb, *emb_grad)
    return loss, [gemb, *head_grads]


def gradient_check(fcfg, batch, seed=0, step=1e-4):
    """Max relative error between analytic and central-difference gradients.

    Only small models are accepted (bucket_count <= 64, embed_dim <= 8)
    so the sweep stays exact and fast. Parameters are redrawn until no
    hidden pre-activation sits within 8*step of the ReLU kink, which
    keeps the finite differences valid. The relative error is measured
    per parameter block, normalized by the block's largest gradient
    magnitude.
    """
    if fcfg.bucket_count > 64 or fcfg.embed_dim > 8:
        raise ValueError("gradient_check needs a small model (bucket_count <= 64, embed_dim <= 8)")
    feats = featurize_many([item.text for item in batch], fcfg)
    y = _targets(batch)

    rng = np.random.default_rng(seed)
    margin = 8.0 * step
    for _ in range(1000):
        params = [rng.uniform(-1, 1, size=shape) for shape in _shapes(fcfg)]
        z1 = _pool_all(params[0], feats) @ params[1].T + params[2]  # the hidden pre-activation
        if np.abs(z1).min() > margin:
            break
    else:  # pragma: no cover - would need absurdly unlucky sampling
        raise RuntimeError("could not sample parameters clear of the ReLU kink")

    _, analytic = loss_and_grads(params, feats, y)

    worst = 0.0
    for arr, ana in zip(params, analytic):
        num = np.zeros(arr.shape)
        for idx in np.ndindex(arr.shape):
            original = arr[idx]
            arr[idx] = original + step
            up = _loss(params, feats, y)
            arr[idx] = original - step
            down = _loss(params, feats, y)
            arr[idx] = original
            num[idx] = (up - down) / (2.0 * step)
        denom = max(np.abs(ana).max(), np.abs(num).max(), 1e-8)
        worst = max(worst, float(np.abs(ana - num).max() / denom))
    return worst


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
    y = _targets(GRADCHECK_BATCH)
    params, _ = _init_params(cfg, np.random.default_rng(5), np.arange(cfg.bucket_count))
    _, grads = loss_and_grads(params, feats, y)
    touched = set(np.concatenate(feats).tolist())
    for row in range(cfg.bucket_count):
        if row not in touched:
            assert np.all(grads[0][row] == 0.0)


@pytest.mark.parametrize("dim", [1, 8, 32])
def test_scatter_add_matches_two_dimensional_add_at_bit_for_bit(dim):
    # Ids repeated hundreds of times in one batch (1,430-1,971 here; a
    # batch of the golden training run reaches 233), over ragged sentence
    # lengths, 0 among them:
    # every table element must take its additions in the order the 2-D
    # np.add.at of one row per gram gives them.
    rng = np.random.default_rng(dim)
    lengths = rng.integers(1, 400, size=40)
    lengths[::7] = 0
    lengths[-1] = 0
    ids = rng.zipf(1.3, size=lengths.sum()) % 512
    rows = rng.normal(0, 1, size=(lengths.size, dim))
    table = rng.uniform(-1, 1, size=(512, dim))
    expected = table.copy()
    np.add.at(expected, ids, np.repeat(rows, lengths, axis=0))
    _scatter_add(table, ids, lengths, rows)
    assert np.bincount(ids).max() > 100
    assert table.tobytes() == expected.tobytes()


def sum_bound(rows):
    """How far two float64 means of `rows`' columns, each summed in any
    order and then divided, may lie apart: each sum is within
    gamma_(n-1) * sum|x| of the exact one (Higham, Accuracy and Stability
    of Numerical Algorithms, 2nd ed., (4.4)), and each division adds u."""
    n, u = len(rows), 2.0**-53
    return 2.0 * (n * u / (1.0 - n * u)) * np.abs(rows).sum(axis=0) / n


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("dim", [1, 8, 32, 322])
def test_pool_is_mean_bit_for_bit(dtype, dim):
    rng = np.random.default_rng(dim)
    emb = rng.normal(0, 1, size=(1024, dim)).astype(dtype)
    # An unaligned table takes `take`'s slow path, with the same bits.
    for table in (emb, unaligned_copy(emb)):
        for length in range(1, 58):
            ids = rng.integers(0, 1024, size=length)
            got = _pool(table, ids)
            if dtype is np.float32:
                assert got.tobytes() == emb[ids].mean(axis=0, dtype=np.float64).tobytes()
            else:
                # The BLAS kernel sums float64 rows in an order of its own:
                # `_pool` is its ones @ rows, and `mean` within rounding.
                assert got.tobytes() == (np.ones(length) @ emb[ids] / length).tobytes()
                assert np.all(np.abs(got - emb[ids].mean(axis=0)) <= sum_bound(emb[ids]))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("dim", [1, 8, 32, 322])
def test_pool_handles_every_length(dtype, dim):
    # No grams, one gram, and sentences either side of the length of
    # the ones vector that `_pool` slices.
    rng = np.random.default_rng(dim)
    emb = rng.normal(0, 1, size=(8192, dim)).astype(dtype)
    size = model_module._ONES.size
    for length in (0, 1, size - 1, size, size + 1):
        ids = rng.integers(0, 8192, size=length)
        rows = emb[ids].astype(np.float64)
        out = _pool(emb, ids)
        assert out.dtype == np.float64 and out.shape == (dim,)
        # Serving passes the cached int32 ids as they are; `take` gives the same rows.
        assert _pool(emb, ids.astype(np.int32)).tobytes() == out.tobytes()
        if length == 0:
            assert out.tobytes() == np.zeros(dim).tobytes()
        elif length == 1:
            assert out.tobytes() == rows[0].tobytes()
        else:
            assert out.tobytes() == (np.ones(length) @ rows / length).tobytes()
            assert np.all(np.abs(out - rows.mean(axis=0)) <= sum_bound(rows))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("dim", [1, 8, 32, 322])
def test_pool_all_rows_are_pool_rows_bit_for_bit(dtype, dim):
    # `_pool_all` sums each sentence in one loop and divides the batch
    # once; every row keeps the bits of that sentence's `_pool`: with no
    # grams, more grams than the ones vector holds, and in a batch of one.
    rng = np.random.default_rng(dim)
    emb = rng.normal(0, 1, size=(8192, dim)).astype(dtype)
    lengths = [0, 1, 7, model_module._ONES.size + 1, 57, 0, 300]
    feats = [rng.integers(0, 8192, size=n) for n in lengths]
    for batch in (feats, feats[:1], feats[1:2], feats[3:4]):
        got = _pool_all(emb, batch)
        assert got.dtype == np.float64 and got.shape == (len(batch), dim)
        assert got.tobytes() == b"".join(_pool(emb, ids).tobytes() for ids in batch)


def test_pool_repeats_its_bits():
    # The same sentence pooled again, and from four threads at once,
    # from one row of width 1 to past n * dim = 9216, where OpenBLAS
    # starts to split a gemv over threads.
    rng = np.random.default_rng(3)
    for dim in (1, 8, 32, 322):
        emb = rng.normal(0, 1, size=(8192, dim))
        for length in (1, 57, 300, 5000):
            ids = rng.integers(0, 8192, size=length)
            first = _pool(emb, ids).tobytes()
            assert _pool(emb, ids).tobytes() == first
            with ThreadPoolExecutor(4) as pool:
                assert set(pool.map(lambda _: _pool(emb, ids).tobytes(), range(8))) == {first}


def reference_forward(model, text):
    """Clipped probabilities from exactly rounded float64 sums (`math.fsum`)."""
    ids = featurize(text, model.featurizer)
    rows = model.embeddings[ids].astype(np.float64)
    e = [math.fsum(col) / max(len(ids), 1) for col in rows.T]
    w1, b1, w2, b2 = (a.astype(np.float64).tolist() for a in (model.w1, model.b1, model.w2, model.b2))
    h = [max(math.fsum(w * v for w, v in zip(row, e)) + b, 0.0) for row, b in zip(w1, b1)]
    z = [math.fsum(w * v for w, v in zip(row, h)) + b for row, b in zip(w2, b2)]
    p = [1.0 / (1.0 + math.exp(-v)) if v >= 0 else math.exp(v) / (1.0 + math.exp(v)) for v in z]
    return np.clip(p, 1e-15, 1.0 - 1e-15)


@pytest.mark.parametrize("dim", [1, 8, 32, 322])
def test_forward_matches_a_float64_reference_on_wide_magnitudes(dim):
    # Embedding values spread over nine decades, so that float32 rows do
    # not always sum exactly in float64 and the order of the sum shows.
    cfg = FeaturizerConfig(bucket_count=1024, embed_dim=dim)
    rng = np.random.default_rng(dim)
    scale = 10.0 ** rng.uniform(-7, 2, size=(cfg.bucket_count, dim))
    model = FastModel(
        cfg,
        (rng.normal(0, 1, size=scale.shape) * scale).astype(np.float32),
        rng.normal(0, 0.1 / math.sqrt(dim), (64, dim)).astype(np.float32),
        rng.normal(0, 0.1, 64).astype(np.float32),
        rng.normal(0, 0.2, (4, 64)).astype(np.float32),
        rng.normal(0, 0.5, 4).astype(np.float32),
    )
    words = ["".join(rng.choice(list("abcdefghij"), size=rng.integers(1, 8))) for _ in range(300)]
    texts = [""] + [" ".join(rng.choice(words, size=rng.integers(1, 30))) for _ in range(40)]
    for text in texts:
        np.testing.assert_allclose(forward(model, text), reference_forward(model, text), rtol=0, atol=1e-12)


def test_duplicated_sample_gradient_linearity():
    cfg = small_config()
    item = GRADCHECK_BATCH[1]
    feats1 = [featurize(item.text, cfg)]
    feats2 = feats1 * 2
    y1 = _targets([item])
    y2 = _targets([item] * 2)
    params, _ = _init_params(cfg, np.random.default_rng(8), np.arange(cfg.bucket_count))
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
    p = _sigmoid(_layers(params, _pool_all(params[0], feats))[1])
    choices = [LabelSet.of(*tags) for tags in [("other",), ("da",), ("nb",), ("nn", "sv"), ("da", "nb", "nn", "sv")]]
    saw_other = False
    for threshold in [0.5, float(p[7, 2]), float(np.quantile(p, 0.8))]:
        decoded = [_decode(row) for row in p >= threshold]
        gold = [d if rng.random() < 0.5 else choices[rng.integers(len(choices))] for d in decoded]
        hits = sum(d == g for d, g in zip(decoded, gold))
        y = _targets([LabeledSentence("x", g) for g in gold])
        assert _validation_metric(params, feats, y, threshold)[0] == hits / len(gold)
        assert 0 < hits < len(gold)
        saw_other |= any(d.is_other for d in decoded)
    assert saw_other


@pytest.mark.parametrize(
    "threshold, logit, served",
    [
        (1e-16, -40.0, LabelSet.of("da", "nb", "nn", "sv")),  # 4.2e-18 is clipped up to 1e-15
        (1 - 2**-53, 40.0, LabelSet.of("other")),  # 1.0 in float64 is clipped down to 1 - 1e-15
    ],
)
def test_validation_decides_as_predict_does_where_the_clip_decides(threshold, logit, served):
    cfg = small_config()
    params = [np.zeros(shape) for shape in _shapes(cfg)]
    params[4][:] = logit
    assert predict(FastModel(cfg, *params, threshold=threshold), "x") == served
    y = _targets([LabeledSentence("x", served)])
    assert _validation_metric(params, [featurize("x", cfg)], y, threshold) == (1.0, 0)  # zero weights: no unit alive


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
    train_set, test_set = generate_shared_alphabet_corpus(1500, 300, seed=5)
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


def test_shared_alphabet_corpus_differs_only_in_words():
    train_set, test_set = generate_shared_alphabet_corpus(2000, 200, seed=4)
    assert generate_shared_alphabet_corpus(2000, 200, seed=4) == (train_set, test_set)
    assert set("".join(item.text for item in train_set)) == set(SHARED_ALPHABET + " ")
    label_sets = {item.labels for item in train_set}
    assert {LabelSet.of(lang) for lang in Language} <= label_sets
    mixed = {labels for labels in label_sets if len(labels) > 1}
    assert mixed == {LabelSet.of(a, b) for a, b in itertools.combinations(OUTPUT_ORDER, 2)}
    # No word is in two labels' vocabularies.
    words = {}
    for item in train_set:
        if len(item.labels) == 1:
            for word in item.text.split():
                words.setdefault(word, set()).add(item.labels)
    assert max(map(len, words.values())) == 1


@pytest.mark.parametrize(
    "generate, sizes, seed, digests",
    [
        (generate_shared_alphabet_corpus, (3000, 600), 1, (
            "6974b5720ced0e845034349312d0b0e915b63ce84e26fa62ece13e6edc06d0df",
            "c1e76b1bec7e2c2b41281915ba91d37e4f317075ac94af9adfd6c5bd042f410b",
        )),
        (generate_shared_alphabet_corpus, (2000, 200), 4, (
            "86e7829c91ca50b5a9d97b2f866443cbbe4c33f7329ea4ca478755b5e8b7d263",
            "40bd5f19136a9e9edb16b6884dcb7c0ae2e2ba0da82a68550fa1abcc8fbb5a6c",
        )),
        (generate_shared_alphabet_corpus, (1500, 300), 5, (
            "c99ce1d1cbdb17d829c8d105c3f20593bd523fd21dfc8484be105eef4e1365f1",
            "a22c8e0246d1a91341ccf2375bb39901fa11502f918127d123a3149bd45b6b67",
        )),
        (generate_shared_alphabet_corpus, (360, 10), 3, (
            "3f6ce3d4d868154fbbab013ac7f198ed1c1037ce8a02f19e2b8ee03b2c44176d",
            "dec278b2e3e9cd789430ce90f934d0ebe8b2cc64e22143fc09e6fd2ebea578de",
        )),
    ],
)
def test_synthetic_corpora_are_pinned_byte_for_byte(tmp_path, generate, sizes, seed, digests):
    # The SHA-256 of each split as `write_dataset` writes it, for the
    # corpora the training tests use: a sampler change that moves one
    # draw moves these.
    got = []
    for dataset in generate(*sizes, seed=seed):
        path = tmp_path / f"{dataset.split}.jsonl"
        write_dataset(dataset, path)
        got.append(hashlib.sha256(path.read_bytes()).hexdigest())
    assert tuple(got) == digests


def test_training_learns_languages_that_share_one_alphabet():
    # Letters separate nothing here; a model that learns only letters
    # stays at the base rate of five equally likely labels, about 0.2.
    train_set, test_set = generate_shared_alphabet_corpus(3000, 600, seed=1)
    fit, valid = train_set.with_items(train_set.items[:-400]), train_set.with_items(train_set.items[-400:])
    cfg = FeaturizerConfig(bucket_count=1 << 14, embed_dim=16)
    result = train(fit, valid, cfg, TrainConfig(epochs=8, eval_interval=20))
    assert result.epoch_losses[0] < result.initial_loss
    assert result.history, "validation evaluations must be recorded"
    hits = {}
    for item in test_set:
        group = "mixed" if len(item.labels) > 1 else next(iter(item.labels)).value
        hits.setdefault(group, []).append(predict(result.model, item.text) == item.labels)
    assert sum(sum(h) for h in hits.values()) / len(test_set) >= 0.85
    # Every label alone, `sv` and `other` among them, and the sentences
    # that mix two languages' words and carry both labels.
    rates = {group: sum(h) / len(h) for group, h in hits.items()}
    assert len(rates) == 6
    assert all(rate >= 0.9 for group, rate in rates.items() if group != "mixed"), rates
    assert rates["mixed"] >= 0.15, rates


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


def kernel_rtol(texts, fcfg, tcfg):
    """How far, relative, the float64 training losses of two BLAS kernels
    may lie apart. A kernel picks the order of each BLAS sum, and a sum of
    K terms in any order lies within gamma_K = K u / (1 - K u) of the sum
    of their magnitudes from the exact one (Higham, (4.4), as `sum_bound`),
    so two orders within 2 gamma_K. K is the longest sum of a step: one
    sentence's pool, or an inner dimension of `_layers`' and `_backprop`'s
    products. A loss is a mean of positive terms, so the bound is taken
    relative to it. It bounds one step's reordering; a run carries each
    step's rounding on in its weights, which this test checks stays small."""
    longest = max(ids.size for ids in featurize_many(texts, fcfg))
    k, u = max(longest, model_module.HIDDEN_SIZE, fcfg.embed_dim, tcfg.batch_size), 2.0**-53
    return 2.0 * k * u / (1.0 - k * u)


def test_training_matches_golden_fixture(tiny_corpus):
    # Pins one fixed-seed training run. Exactly: the selected step and
    # metric, the initial loss, each evaluation's step, epoch and metric,
    # and the trained model's test-set label sets. The training losses
    # within `kernel_rtol`: their last bits follow the BLAS kernel's
    # summation order, which OpenBLAS picks from the CPU.
    spec = GOLDEN["train"]
    fit, valid, test_set = tiny_corpus
    fcfg, tcfg = FeaturizerConfig(**spec["featurizer"]), TrainConfig(**spec["train_config"])
    result = train(fit, valid, fcfg, tcfg)
    assert result.best_step == spec["best_step"]
    assert result.best_metric == spec["best_metric"]
    assert result.initial_loss == spec["initial_loss"]
    history = [[p.step, p.epoch, p.train_loss, p.metric] for p in result.history]
    assert [[s, e, m] for s, e, _, m in history] == [[s, e, m] for s, e, _, m in spec["history"]]
    rtol = kernel_rtol([item.text for item in fit], fcfg, tcfg)
    np.testing.assert_allclose(result.epoch_losses, spec["epoch_losses"], rtol=rtol, atol=0)
    np.testing.assert_allclose([h[2] for h in history], [h[2] for h in spec["history"]], rtol=rtol, atol=0)
    assert [tags(predict(result.model, item.text)) for item in test_set] == spec["test_labels"]


def test_training_hashes_once_per_chunk_of_texts(monkeypatch):
    # A hashing pass has a fixed cost however few tokens it hashes, so
    # train featurizes its texts 256 at a time: with every token new, N
    # train and M validation texts take ceil(N/256) + ceil(M/256) passes.
    monkeypatch.setattr(features, "_caches", {})
    calls = []
    hash_tokens = features._hash_tokens

    def counting(tokens, cfg):
        calls.append(len(tokens))
        return hash_tokens(tokens, cfg)

    monkeypatch.setattr(features, "_hash_tokens", counting)

    def new_words(split, count):
        items = [LabeledSentence(f"{split}{i}a {split}{i}b", LabelSet.of("da")) for i in range(count)]
        return Dataset(split, tuple(items))

    n, m = 600, 300
    train(new_words("train", n), new_words("validation", m), small_config(), tiny_train_config(epochs=1))
    assert len(calls) == math.ceil(n / 256) + math.ceil(m / 256)
    assert sum(calls) == 2 * (n + m)


def test_training_is_deterministic(tiny_corpus):
    fit, valid, _ = tiny_corpus
    cfg = FeaturizerConfig(bucket_count=1 << 12, embed_dim=16)
    a = train(fit, valid, cfg, tiny_train_config(epochs=2))
    b = train(fit, valid, cfg, tiny_train_config(epochs=2))
    for name in ("embeddings", "w1", "b1", "w2", "b2"):
        assert np.array_equal(getattr(a.model, name), getattr(b.model, name))
    assert a.best_step == b.best_step


def test_training_repeats_its_bits_where_blas_may_thread(tiny_corpus):
    # Long sentences reach n * dim >= 9216 at this width, where OpenBLAS
    # may split `_pool`'s gemv over threads.
    fit, valid, _ = tiny_corpus
    cfg = FeaturizerConfig(bucket_count=1 << 12, embed_dim=128)
    assert max(ids.size for ids in featurize_many([item.text for item in fit], cfg)) * 128 >= 9216
    a = train(fit, valid, cfg, tiny_train_config(epochs=2))
    b = train(fit, valid, cfg, tiny_train_config(epochs=2))
    for name in ("embeddings", "w1", "b1", "w2", "b2"):
        assert getattr(a.model, name).tobytes() == getattr(b.model, name).tobytes()
    assert (a.epoch_losses, a.history) == (b.epoch_losses, b.history)


def test_zero_learning_rate_freezes_weights(tiny_corpus):
    fit, valid, _ = tiny_corpus
    cfg = FeaturizerConfig(bucket_count=1 << 12, embed_dim=16)
    one = train(fit, valid, cfg, tiny_train_config(epochs=1, learning_rate=0.0))
    three = train(fit, valid, cfg, tiny_train_config(epochs=3, learning_rate=0.0))
    for name in ("embeddings", "w1", "b1", "w2", "b2"):
        assert np.array_equal(getattr(one.model, name), getattr(three.model, name))


def zero_rate_step_losses(fit, cfg, tcfg):
    """Every step's batch loss for weights that never move, with the
    initial weights and batch orders drawn as `train` draws them."""
    rng = np.random.default_rng(tcfg.seed)
    params, _ = _init_params(cfg, rng, np.arange(cfg.bucket_count))
    feats = featurize_many([item.text for item in fit], cfg)
    y = _targets(fit)
    losses = []
    for _ in range(tcfg.epochs):
        order = rng.permutation(len(fit))
        for start in range(0, len(fit), tcfg.batch_size):
            batch = order[start : start + tcfg.batch_size]
            losses.append(_loss(params, [feats[i] for i in batch], y[batch]))
    return losses


def test_training_stops_after_patience_evaluations_without_improvement(tiny_corpus, caplog):
    # A zero learning rate never improves the metric: the evaluation at
    # step 50 stays best and the run stops two evaluations later, at
    # step 150, 27 steps into the fourth epoch (41 steps an epoch).
    fit, valid, _ = tiny_corpus
    cfg = FeaturizerConfig(bucket_count=1 << 12, embed_dim=16)
    tcfg = tiny_train_config(learning_rate=0.0, patience=2)
    with caplog.at_level(logging.INFO, logger="scandilid.model"):
        result = train(fit, valid, cfg, tcfg)
    assert result.stopped_early
    assert "early stop at step 150" in caplog.text
    assert not [r for r in caplog.records if r.levelno >= logging.WARNING]  # the best is not the last
    assert [(p.step, p.epoch) for p in result.history] == [(50, 1), (100, 2), (150, 3)]
    assert result.best_step == 50
    assert result.best_metric == result.history[0].metric
    assert len({p.metric for p in result.history}) == 1
    losses = zero_rate_step_losses(fit, cfg, tcfg)
    eval_spans = [(0, 50), (50, 100), (100, 150)]
    epoch_spans = [(0, 41), (41, 82), (82, 123), (123, 150)]
    assert [p.train_loss for p in result.history] == [float(np.mean(losses[a:b])) for a, b in eval_spans]
    assert result.epoch_losses == [float(np.mean(losses[a:b])) for a, b in epoch_spans]


def test_training_warns_when_the_best_checkpoint_is_the_last_evaluation(tiny_corpus, caplog):
    # One evaluation, after the last of 41 steps: the best checkpoint is
    # the final one, so nothing says the run converged.
    fit, valid, _ = tiny_corpus
    cfg = FeaturizerConfig(bucket_count=1 << 12, embed_dim=16)
    with caplog.at_level(logging.WARNING, logger="scandilid.model"):
        result = train(fit, valid, cfg, tiny_train_config(epochs=1, eval_interval=1000))
    assert [p.step for p in result.history] == [41] and result.best_step == 41
    assert not result.stopped_early
    [record] = caplog.records
    assert record.levelno == logging.WARNING
    assert record.getMessage() == "best checkpoint is the last evaluation, step 41: the run may not have converged"


@pytest.mark.parametrize("embed_dim, epochs, alive", [(32, 4, 0), (8, 16, 22)])
def test_training_warns_when_every_hidden_unit_is_dead(embed_dim, epochs, alive, caplog):
    # The claim corpus on source labels: at width 32 every ReLU unit dies
    # and the model answers every validation text alike; at width 8 units
    # survive. Both counts hold under the default, Haswell and Prescott
    # kernels.
    corpus = generate_shared_vocabulary_corpus(1800, 1000, seed=1)
    fit = corpus.train.with_items(corpus.train.items[:1500])
    valid = corpus.train.with_items(corpus.train.items[1500:])
    fcfg = FeaturizerConfig(bucket_count=1 << 16, embed_dim=embed_dim)
    with caplog.at_level(logging.WARNING, logger="scandilid.model"):
        result = train(fit, valid, fcfg, TrainConfig(epochs=epochs))
    [best] = [p for p in result.history if p.step == result.best_step]
    assert best.alive_units == alive
    assert all(0 <= p.alive_units <= model_module.HIDDEN_SIZE for p in result.history)
    dead = [r.getMessage() for r in caplog.records if "every hidden unit is dead" in r.getMessage()]
    assert dead == ([f"every hidden unit is dead at the best checkpoint, step {best.step}: "
                     "it answers every validation text alike"] if alive == 0 else [])


@pytest.mark.parametrize(
    "bucket_count, dim, chunk_bytes",
    [
        (1 << 15, 3, None),  # 32,768 rows, below one chunk of 43,690
        (1 << 14, 8, None),  # one chunk of 16,384 rows exactly
        (1 << 16, 3, None),  # 65,536 rows: one chunk and a part of one
        (64, 3, 24 * 24),  # chunks of 24 rows: 24, 24, 16
        (64, 3, 1),  # less than a row: one row at a time
    ],
)
def test_init_params_draws_the_table_as_one_draw(monkeypatch, bucket_count, dim, chunk_bytes):
    # The table drawn in chunks takes the values of one rng.uniform draw
    # of the whole table, and the head's draws and the generator's next
    # draw follow unchanged: the stream training initializes from.
    if chunk_bytes is not None:
        monkeypatch.setattr(model_module, "_INIT_CHUNK_BYTES", chunk_bytes)
    cfg = FeaturizerConfig(bucket_count=bucket_count, embed_dim=dim)
    rng = np.random.default_rng(7)
    whole = rng.uniform(-1.0 / dim, 1.0 / dim, size=(bucket_count, dim))
    w1 = rng.uniform(-1.0, 1.0, size=(64, dim)) / np.sqrt(dim)
    w2 = rng.uniform(-1.0, 1.0, size=(4, 64)) / np.sqrt(64)
    after = rng.random()
    subset = np.unique(np.random.default_rng(bucket_count).integers(0, bucket_count, size=40))
    for touched in (np.arange(bucket_count), np.array([], np.int64), np.r_[0, subset, bucket_count - 1]):
        rng = np.random.default_rng(7)
        params, table = _init_params(cfg, rng, touched)
        assert rng.random() == after
        assert table.dtype == np.float32 and table.tobytes() == whole.astype(np.float32).tobytes()
        assert params[0].dtype == np.float64 and params[0].tobytes() == whole[touched].tobytes()
        for got, want in zip(params[1:], [w1, np.zeros(64), w2, np.zeros(4)], strict=True):
            assert got.tobytes() == want.tobytes()


def test_trained_model_keeps_the_initial_cast_of_every_untrained_row(tiny_corpus):
    # Rows that no training gram addresses, untouched rows and rows only
    # validation grams address alike, never move: the model holds the
    # float32 cast of their initial draw. Every other row moved.
    fit, valid, _ = tiny_corpus
    cfg = FeaturizerConfig(embed_dim=8)
    tcfg = tiny_train_config(epochs=1)
    model = train(fit, valid, cfg, tcfg).model
    trained, validated = np.zeros(cfg.bucket_count, bool), np.zeros(cfg.bucket_count, bool)
    for mask, split in ((trained, fit), (validated, valid)):
        for ids in featurize_many([item.text for item in split], cfg):
            mask[ids] = True
    assert (validated & ~trained).any() and not (trained | validated).all()
    draw = np.random.default_rng(tcfg.seed).uniform(-1.0 / 8, 1.0 / 8, size=(cfg.bucket_count, 8))
    initial = draw.astype(np.float32)
    assert model.embeddings[~trained].tobytes() == initial[~trained].tobytes()
    assert np.array_equal(np.any(model.embeddings != initial, axis=1), trained)


def test_training_without_validation_returns_final_weights(tiny_corpus, tmp_path):
    fit, valid, _ = tiny_corpus
    cfg = FeaturizerConfig(bucket_count=1 << 12, embed_dim=16)
    result = train(fit, valid.with_items(()), cfg, tiny_train_config(epochs=3))
    assert result.history == []
    assert math.isnan(result.best_metric)
    assert result.best_step == 3 * 41
    assert len(result.epoch_losses) == 3
    path = tmp_path / "m.slfx"
    save_model(result.model, path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == (
        "d20db278c6e5a0202c63cbbbc10b82f5da3034e6e0617cb0d1fb8590928980fe"
    )


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


def overflow_corpus():
    items = generate_shared_alphabet_corpus(360, 10, seed=3)[0].items
    return Dataset("train", items[:300]), Dataset("validation", items[300:])


def test_training_reports_float32_overflow_at_a_checkpoint():
    # At the first checkpoint (step 5) the float64 weights are finite, so
    # the loss is too, but some exceed the float32 range of the model.
    fit, valid = overflow_corpus()
    cfg = FeaturizerConfig(bucket_count=1024, embed_dim=8)
    tcfg = TrainConfig(learning_rate=1e6, batch_size=7, eval_interval=5)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(TrainingError, match="float32 range at step 5"):
            train(fit, valid, cfg, tcfg)


def test_divergence_message_counts_steps_from_one():
    # The loss first turns non-finite on the fifth step; steps count from
    # 1, as in EvalPoint.step.
    fit, valid = overflow_corpus()
    cfg = FeaturizerConfig(bucket_count=1024, embed_dim=8)
    tcfg = TrainConfig(learning_rate=1e12, batch_size=7, eval_interval=5)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(TrainingError, match=r"^non-finite loss at step 5 \(epoch 0\); "):
            train(fit, valid, cfg, tcfg)


def test_training_rejects_bad_threshold_before_featurizing(tiny_corpus, monkeypatch):
    fit, valid, _ = tiny_corpus

    def must_not_run(texts, cfg):
        raise AssertionError("featurized before the threshold was checked")

    monkeypatch.setattr(model_module, "featurize_many", must_not_run)
    for threshold in (1.5, 0.0, 1.0, float("nan")):
        with pytest.raises(ValueError, match="threshold must be in"):
            train(fit, valid, small_config(), tiny_train_config(), threshold=threshold)


def test_train_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(epochs=0)
    # Counts are exact ints, as in FeaturizerConfig: a bool is not an int.
    cases = [("eval_interval", 2.5), ("epochs", True), ("batch_size", 32.0), ("patience", "3")]
    cases += [("seed", True), ("seed", 1.0), ("seed", 1.5)]
    # Real-valued fields are real numbers, and a bool is not one.
    cases += [("learning_rate", True), ("momentum", False), ("learning_rate", "0.5")]
    for name, value in cases:
        with pytest.raises(TypeError, match=name):
            TrainConfig(**{name: value})
    with pytest.raises(ValueError, match="seed"):
        TrainConfig(seed=-1)
    with pytest.raises(ValueError, match="learning_rate"):
        TrainConfig(learning_rate=float("nan"))
    with pytest.raises(ValueError):
        TrainConfig(learning_rate=-1.0)
    with pytest.raises(ValueError):
        TrainConfig(momentum=1.0)


def probe_sentences(n=200, seed=17):
    rng = np.random.default_rng(seed)
    alphabet = list("abcdefghijklmnopqrstuvwxyzæøåäö ")
    return ["".join(rng.choice(alphabet) for _ in range(rng.integers(1, 80))).strip() or "x" for _ in range(n)]


def test_save_load_round_trip(tmp_path):
    # A numpy scalar threshold is held as a Python float, which the JSON
    # header can hold.
    for threshold in (0.4, np.float32(0.4)):
        model = random_model(seed=11, threshold=threshold)
        path = tmp_path / "m.slfx"
        save_model(model, path)
        loaded = load_model(path)
        assert loaded.featurizer == model.featurizer
        assert loaded.threshold == model.threshold == threshold
        assert type(model.threshold) is float
        for text in probe_sentences():
            assert np.array_equal(forward(model, text), forward(loaded, text)), text
            assert predict(model, text) == predict(loaded, text), text


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
    assert peak < 1.1 * path.stat().st_size


def saved_header(path):
    data = path.read_bytes()
    (header_len,) = struct.unpack_from("<I", data, 6)
    return data[10 : 10 + header_len]


def test_load_model_aligns_the_weights_whatever_the_header_length(tmp_path):
    cfg = FeaturizerConfig(bucket_count=1024, embed_dim=8)
    unpadded_offsets = []
    for threshold in (0.5, 0.25, 0.125, 0.1234):
        model = random_model(cfg, threshold=threshold)
        path = tmp_path / f"{threshold}.slfx"
        save_model(model, path)
        header = saved_header(path)
        # save_model pads the JSON header with up to 3 spaces, so the arrays start at 0 mod 4.
        assert (10 + len(header)) % 4 == 0, threshold
        assert len(header) - len(header.rstrip(b" ")) <= 3, threshold
        assert json.loads(header) == {
            "featurizer": dataclasses.asdict(cfg),
            "hidden_size": 64,
            "threshold": threshold,
            "label_order": ["da", "nb", "nn", "sv"],
        }
        # Re-framed with an unpadded header, as v1 files were written before the padding.
        unpadded = tmp_path / f"{threshold}-unpadded.slfx"
        unpadded.write_bytes(path.read_bytes())
        rewrite_model_file(unpadded, lambda header, arrays: None)
        unpadded_offsets.append((10 + len(saved_header(unpadded))) % 4)
        for loaded in (load_model(path), load_model(unpadded)):
            for name in _ARRAY_NAMES:
                arr = getattr(loaded, name)
                assert arr.flags.aligned and not arr.flags.writeable, (threshold, name)
                assert arr.tobytes() == getattr(model, name).tobytes(), (threshold, name)
    # Unpadded, the arrays start at every offset modulo 4 in the file.
    assert unpadded_offsets == [1, 2, 3, 0]


def test_loaded_weights_are_views_of_immutable_bytes(tmp_path):
    path = tmp_path / "m.slfx"
    save_model(random_model(seed=7), path)
    loaded = load_model(path)
    bases = []
    for name in _ARRAY_NAMES:
        arr = base = getattr(loaded, name)
        while isinstance(base, np.ndarray):
            base = base.base
        assert type(base) is bytes, name
        bases.append(base)
        with pytest.raises(ValueError, match="WRITEABLE"):
            arr.flags.writeable = True
    # One read: every array is a view of the same bytes, the whole file.
    assert all(base is bases[0] for base in bases)
    assert bases[0] == path.read_bytes()


def test_weights_of_a_model_built_from_arrays_refuse_writeable(tiny_corpus):
    # As load_model's views of bytes do: a weight flagged writeable again
    # and written would leave `forward` serving the head cast from the old values.
    fit, valid, _ = tiny_corpus
    cfg = FeaturizerConfig(bucket_count=1 << 12, embed_dim=16)
    trained = train(fit, valid, cfg, tiny_train_config(epochs=1)).model
    for kind, model in (("arrays", random_model(seed=8)), ("trained", trained)):
        for i, arr in enumerate([getattr(model, name) for name in _ARRAY_NAMES] + list(model._head)):
            with pytest.raises(ValueError, match="WRITEABLE"):
                arr.flags.writeable = True
            assert not arr.flags.writeable, (kind, i)


def test_training_casts_every_checkpoint_into_one_set_of_float32_arrays(tiny_corpus, monkeypatch):
    # The float32 arrays are made before the first evaluation and reused
    # at every better one; the model adopts them after the loop, as views
    # that cannot be made writeable. This test's spy is the only other
    # holder of the arrays themselves.
    fit, valid, _ = tiny_corpus
    cfg = FeaturizerConfig(bucket_count=1 << 12, embed_dim=16)
    checkpoint, returned = model_module._checkpoint, []

    def recording(params, best, touched, step):
        checkpoint(params, best, touched, step)
        returned.append(list(best))

    monkeypatch.setattr(model_module, "_checkpoint", recording)
    result = train(fit, valid, cfg, tiny_train_config())
    assert len(returned) >= 2
    first = returned[0]
    assert all(a is b for arrays in returned for a, b in zip(arrays, first, strict=True))
    for name, arr in zip(_ARRAY_NAMES, first):
        weight = getattr(result.model, name)
        assert arr.dtype == np.float32 and weight.tobytes() == arr.tobytes()
        assert np.shares_memory(weight, arr)
        with pytest.raises(ValueError, match="WRITEABLE"):
            weight.flags.writeable = True


@pytest.fixture(scope="module")
def train_peak_in_tables(tiny_corpus):
    """tracemalloc's peak over a one-epoch `train` at 2^18 buckets and
    width 32, as a multiple of the float32 table's bytes."""
    fit, valid, _ = tiny_corpus
    cfg = FeaturizerConfig(embed_dim=32)
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        train(fit, valid, cfg, tiny_train_config(epochs=1))
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    return peak / (cfg.bucket_count * cfg.embed_dim * 4)


def test_training_holds_no_float64_copy_of_the_table(train_peak_in_tables):
    # Training holds the float32 table and float64 rows for the touched
    # buckets only (12,756 of 262,144 here). A float64 copy of the whole
    # table would add twice the table's bytes.
    assert train_peak_in_tables < 2.5


def test_trained_model_adopts_the_table_training_built(train_peak_in_tables):
    # `train` hands its float32 arrays to the model, which copies none of
    # them, so the table is held once. A copy would add the table's bytes
    # again: 2.06 times them when the model copied the table.
    assert train_peak_in_tables < 1.5


def test_model_casts_float64_weights_with_one_copy():
    # As `train`'s checkpoints do: the float32 weights are the only copy made.
    cfg = FeaturizerConfig(bucket_count=1 << 16, embed_dim=32)
    arrays = [np.full(shape, 0.25) for shape in _shapes(cfg)]
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        model = FastModel(cfg, *arrays)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert model.embeddings.dtype == np.float32 and np.all(model.embeddings == 0.25)
    assert peak < 1.1 * sum(arr.size for arr in arrays) * 4


def test_model_copies_unaligned_weights_to_aligned_arrays():
    model = random_model()
    views = [unaligned_copy(getattr(model, name)) for name in _ARRAY_NAMES]
    copied = FastModel(model.featurizer, *views, threshold=model.threshold)
    for name, view in zip(_ARRAY_NAMES, views):
        arr = getattr(copied, name)
        assert arr.flags.aligned and arr.flags.c_contiguous and not arr.flags.writeable, name
        assert arr.tobytes() == view.tobytes(), name
    for text in probe_sentences():
        assert np.array_equal(forward(copied, text), forward(model, text)), text


def test_model_neither_freezes_nor_shares_the_callers_arrays(tmp_path):
    model = random_model(seed=5)
    texts = probe_sentences(20)
    arrays = [getattr(model, name).copy() for name in _ARRAY_NAMES]
    own = FastModel(model.featurizer, *arrays, threshold=model.threshold)
    before = [forward(own, text) for text in texts]
    for name, arr in zip(_ARRAY_NAMES, arrays):
        assert arr.flags.writeable and not np.shares_memory(getattr(own, name), arr), name
        arr += 1.0
    for text, p in zip(texts, before):
        assert forward(own, text).tobytes() == p.tobytes(), text
    # A loaded model's arrays, views of bytes no one can write, are copied
    # when passed back in: only load_model's own construction holds them.
    path = tmp_path / "m.slfx"
    save_model(model, path)
    loaded = load_model(path)
    held = FastModel(model.featurizer, *(getattr(loaded, name) for name in _ARRAY_NAMES))
    for name in _ARRAY_NAMES:
        arr, view = getattr(held, name), getattr(loaded, name)
        assert not np.shares_memory(arr, view) and arr.tobytes() == view.tobytes(), name


def test_model_copies_a_read_only_view_of_memory_the_caller_can_write():
    model = random_model(seed=6)
    texts = probe_sentences(20)
    before = [forward(model, text) for text in texts]
    # A read-only view of a writeable array, and an owner array flagged
    # read-only: numpy lets the owner flag it writeable again. An array
    # unpickled with protocols 0-4 is a writeable view of `bytes`; passed
    # as it is or as a view, the caller can still write it.
    for kind in ("view", "owner", "pickled", "pickled view"):
        arrays = [getattr(model, name).copy() for name in _ARRAY_NAMES]
        pickled = kind.startswith("pickled")
        if pickled:
            arrays = [pickle.loads(pickle.dumps(arr, protocol=4)) for arr in arrays]
            assert type(arrays[0].base) is bytes and arrays[0].flags.writeable
        inputs = [arr[...] if kind.endswith("view") else arr for arr in arrays]
        if not pickled:
            for arr in inputs:
                arr.flags.writeable = False
        held = FastModel(model.featurizer, *inputs, threshold=model.threshold)
        for name, arr in zip(_ARRAY_NAMES, arrays):
            if pickled:
                assert arr.flags.writeable, (kind, name)  # not frozen by the model
            else:
                arr.flags.writeable = True
            arr += 1.0
            assert not np.shares_memory(getattr(held, name), arr), (kind, name)
        for text, p in zip(texts, before):
            assert forward(held, text).tobytes() == p.tobytes(), (kind, text)
    # A view of bytes is copied too: by its flags and base it is not told
    # apart from an unpickled array that a caller's earlier view can write.
    frozen = np.frombuffer(model.embeddings.tobytes(), np.float32).reshape(model.embeddings.shape)
    assert frozen.flags.aligned
    arrays[0] = frozen
    held = FastModel(model.featurizer, *arrays).embeddings
    assert not np.shares_memory(held, frozen) and held.tobytes() == frozen.tobytes()


def test_model_copies_an_unpickled_array_a_view_can_still_write():
    # An unpickled array is a writeable view of `bytes`. A view taken of it
    # before it is flagged read-only still writes it, so the model must
    # copy it, or `w1` would change under a head cast from its old values.
    model = random_model(seed=4)
    texts = probe_sentences(20)
    before = [forward(model, text) for text in texts]
    w1 = pickle.loads(pickle.dumps(model.w1, protocol=4))
    view = w1[...]
    w1.flags.writeable = False
    held = FastModel(model.featurizer, model.embeddings, w1, model.b1, model.w2, model.b2, threshold=model.threshold)
    view += 1.0
    assert held.w1.tobytes() == model.w1.tobytes()
    for text, p in zip(texts, before):
        assert forward(held, text).tobytes() == p.tobytes(), text


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


def overflowing_embed_dim(header, arrays):
    # (64 + 64) * 2**58 table and w1 floats wrap to 0 in int64, so only
    # the other arrays' 324 floats are left for the file to hold.
    header["featurizer"]["embed_dim"] = 2**58
    del arrays[4 * 324 :]


@pytest.mark.parametrize(
    "edit, match",
    [
        (lambda header, arrays: header.update(threshold="0.5"), "threshold must be a real number"),
        # The same width as a float, so the array section still has the right size.
        (lambda header, arrays: header["featurizer"].update(embed_dim=8.0), "embed_dim must be int"),
        (lambda header, arrays: header.update(threshold=True), "threshold must be a real number"),
        (nan_last_weight, "b2 contains non-finite"),
        (lambda header, arrays: header.update(hidden_size=32), "unsupported hidden size 32"),
        (lambda header, arrays: header["label_order"].reverse(), "unexpected label order"),
        (lambda header, arrays: arrays.extend(bytes(4)), "array section is"),
        (overflowing_embed_dim, "array section is 1296 bytes"),
    ],
    ids=[
        "threshold-string",
        "embed-dim-float",
        "threshold-bool",
        "nan-weight",
        "hidden-size",
        "label-order",
        "array-length",
        "embed-dim-overflow",
    ],
)
def test_load_rejects_malformed_model_with_valid_crc(tmp_path, edit, match):
    path = tmp_path / "m.slfx"
    save_model(random_model(), path)
    rewrite_model_file(path, edit)
    with pytest.raises(ModelFormatError, match=match):
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
    for value in (np.nan, np.inf, -np.inf):
        bad = np.zeros((64, 8), dtype=np.float32)
        bad[0, 0] = value
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
