"""The fast classifier: hashed n-gram embeddings feeding a tiny MLP.

A sentence embeds as the mean of the embedding-table rows addressed by
its gram buckets; one hidden layer of 64 with ReLU feeds four sigmoid
outputs, one per language in the fixed order (da, nb, nn, sv). A
language is predicted when its probability reaches the decision
threshold; when every output stays below it, the sentence falls back
to `other`.

Training is plain minibatch gradient descent (momentum on the dense
head only) on the mean binary cross-entropy of the four outputs.
Weights are stored as float32; training and loss accumulation run in
float64 so the analytic gradients verify against finite differences.

Serving, the training loss, backprop, validation and the gradient
check share one forward path: `_pool` averages a sentence's embedding
rows and `_layers` applies the head to one pooled vector or a batch of
them. The parameter arrays have one layout, `_ARRAY_NAMES` in the
shapes of `_shapes`, used by `FastModel`, training and the model file.

Validation by exact match compares each row of accepted outputs with
its 0/1 target row; `other` is the all-zero row on both sides, so this
equals comparing decoded label sets.
"""

from __future__ import annotations

import dataclasses
import json
import logging
import struct
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .core import SCANDINAVIAN, Dataset, LabeledSentence, LabelSet, Language
from .features import HIDDEN_SIZE, N_OUTPUTS, FeaturizerConfig, featurize

logger = logging.getLogger(__name__)

OUTPUT_ORDER: tuple[Language, ...] = SCANDINAVIAN

MODEL_MAGIC = b"SLFX"
MODEL_VERSION = 1
# Magic, version and the JSON header's length; the header follows.
_FILE_START = struct.Struct("<4sHI")


class ModelFormatError(RuntimeError):
    """A model file is malformed, truncated, or from another version."""


class TrainingError(RuntimeError):
    """Training hit a non-recoverable numeric condition."""


_ARRAY_NAMES = ("embeddings", "w1", "b1", "w2", "b2")


def _shapes(cfg: FeaturizerConfig) -> list[tuple[int, ...]]:
    """Shapes of the parameter arrays, in `_ARRAY_NAMES` order."""
    dim = cfg.embed_dim
    return [
        (cfg.bucket_count, dim),
        (HIDDEN_SIZE, dim),
        (HIDDEN_SIZE,),
        (N_OUTPUTS, HIDDEN_SIZE),
        (N_OUTPUTS,),
    ]


@dataclass(frozen=True, eq=False)
class FastModel:
    """Immutable trained classifier; safe to share across threads.

    Equality and hashing are by identity: comparing weight arrays
    field by field has no single truth value.
    """

    featurizer: FeaturizerConfig
    embeddings: np.ndarray  # (bucket_count, embed_dim) float32
    w1: np.ndarray  # (64, embed_dim)
    b1: np.ndarray  # (64,)
    w2: np.ndarray  # (4, 64)
    b2: np.ndarray  # (4,)
    threshold: float = 0.5

    def __post_init__(self) -> None:
        for name, shape in zip(_ARRAY_NAMES, _shapes(self.featurizer)):
            # Cast before the finiteness check: a finite float64 beyond
            # the float32 range becomes inf here, and must be rejected.
            with np.errstate(over="ignore"):
                arr = np.ascontiguousarray(getattr(self, name), dtype=np.float32)
            if arr.shape != shape:
                raise ValueError(f"{name} must have shape {shape}, got {arr.shape}")
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"{name} contains non-finite values")
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)
        if not 0.0 < self.threshold < 1.0:
            raise ValueError(f"threshold must be in (0,1), got {self.threshold}")

    def head_parameter_count(self) -> int:
        """Dense-head parameters; the embedding table is not counted."""
        return head_parameter_count(self.featurizer)


def head_parameter_count(cfg: FeaturizerConfig) -> int:
    """Head size implied by a featurizer config, without building a model."""
    return sum(int(np.prod(shape)) for shape in _shapes(cfg)[1:])


def _sigmoid(z: np.ndarray) -> np.ndarray:
    # exp of a non-positive number never overflows; both branches of the
    # stable form share ez = exp(-|z|).
    ez = np.exp(-np.abs(z))
    return np.where(z >= 0, 1.0, ez) / (1.0 + ez)


def _pool(emb: np.ndarray, ids: np.ndarray) -> np.ndarray:
    """Mean of the embedding rows of one sentence's grams, in float64."""
    if ids.size == 0:
        return np.zeros(emb.shape[1], dtype=np.float64)
    return emb[ids].mean(axis=0, dtype=np.float64)


def _pool_all(emb: np.ndarray, feats: Sequence[np.ndarray]) -> np.ndarray:
    """One pooled row per sentence, in order."""
    return np.stack([_pool(emb, ids) for ids in feats])


def _layers(params: Sequence[np.ndarray], e: np.ndarray):
    """Hidden pre-activation z1, hidden activation h and output logits z2
    for one pooled vector (1-D) or a batch of them (2-D, one per row)."""
    _, w1, b1, w2, b2 = params
    z1 = e @ w1.T + b1
    h = np.maximum(z1, 0.0)
    return z1, h, h @ w2.T + b2


def _decode(accept_row: np.ndarray) -> LabelSet:
    """The languages whose output reached the threshold; `other` if none did."""
    chosen = [lang for lang, accepted in zip(OUTPUT_ORDER, accept_row.tolist()) if accepted]
    return LabelSet(frozenset(chosen)) if chosen else LabelSet.of(Language.OTHER)


def forward(model: FastModel, text: str) -> np.ndarray:
    """Probabilities for (da, nb, nn, sv); empty text uses the zero embedding."""
    e = _pool(model.embeddings, featurize(text, model.featurizer))
    _, _, z2 = _layers((model.embeddings, model.w1, model.b1, model.w2, model.b2), e)
    # Keep the contract of strictly open (0,1) even where float64
    # sigmoid saturates.
    return np.clip(_sigmoid(z2), 1e-15, 1.0 - 1e-15)


def predict(model: FastModel, text: str) -> LabelSet:
    """Languages whose probability reaches the threshold; `other` if none do."""
    return _decode(forward(model, text) >= model.threshold)


def predict_top1(model: FastModel, text: str) -> Language:
    """Single-label reduction: the most probable language, or `other`
    when everything is below the threshold."""
    p = forward(model, text)
    if float(p.max()) >= model.threshold:
        return OUTPUT_ORDER[int(p.argmax())]
    return Language.OTHER


def targets_for(labels: LabelSet) -> np.ndarray:
    """0/1 target vector; `other` maps to all zeros."""
    return np.array([lang in labels for lang in OUTPUT_ORDER], dtype=np.float64)


def _targets(items: Sequence[LabeledSentence]) -> np.ndarray:
    """One target row per item; shape (0, 4) when there are none."""
    return np.array([targets_for(item.labels) for item in items]).reshape(-1, N_OUTPUTS)


# ----------------------------------------------------------------------
# Training internals (float64 throughout; parameters are a list of
# arrays in `_ARRAY_NAMES` order)


def _init_params(fcfg: FeaturizerConfig, rng: np.random.Generator) -> list[np.ndarray]:
    emb_shape, w1_shape, b1_shape, w2_shape, b2_shape = _shapes(fcfg)
    dim = fcfg.embed_dim
    return [
        rng.uniform(-1.0 / dim, 1.0 / dim, size=emb_shape),
        rng.uniform(-1.0, 1.0, size=w1_shape) / np.sqrt(dim),
        np.zeros(b1_shape),
        rng.uniform(-1.0, 1.0, size=w2_shape) / np.sqrt(HIDDEN_SIZE),
        np.zeros(b2_shape),
    ]


def _bce_from_logits(z: np.ndarray, y: np.ndarray) -> float:
    # Stable elementwise form of -[y log p + (1-y) log(1-p)].
    losses = np.maximum(z, 0.0) - z * y + np.log1p(np.exp(-np.abs(z)))
    return float(losses.mean())


def _loss(params: Sequence[np.ndarray], feats: Sequence[np.ndarray], y: np.ndarray) -> float:
    e = _pool_all(params[0], feats)
    return _bce_from_logits(_layers(params, e)[2], y)


def _backprop(params: Sequence[np.ndarray], feats: Sequence[np.ndarray], y: np.ndarray):
    """Loss plus gradients in parameter order. The embedding gradient is
    sparse, ``(ids, rows)`` with one row per gram occurrence: scatter-add
    the rows into the table to apply it."""
    emb, w1, _, w2, _ = params
    e = _pool_all(emb, feats)
    z1, h, z2 = _layers(params, e)
    loss = _bce_from_logits(z2, y)

    dz2 = (_sigmoid(z2) - y) / z2.size
    dz1 = (dz2 @ w2) * (z1 > 0)
    de = dz1 @ w1
    lengths = [ids.size for ids in feats]
    rows = np.repeat(de / np.maximum(np.array(lengths), 1)[:, None], lengths, axis=0)
    emb_grad = (np.concatenate(feats), rows)
    return loss, [emb_grad, dz1.T @ e, dz1.sum(axis=0), dz2.T @ h, dz2.sum(axis=0)]


def loss_and_grads(params: Sequence[np.ndarray], feats: Sequence[np.ndarray], y: np.ndarray):
    """Mean BCE and dense gradients for every parameter array, in parameter order."""
    loss, (emb_grad, *head_grads) = _backprop(params, feats, y)
    gemb = np.zeros_like(params[0])
    np.add.at(gemb, *emb_grad)
    return loss, [gemb, *head_grads]


SELECTION_METRICS = ("exact_match", "loss")


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 5
    batch_size: int = 32
    learning_rate: float = 0.5
    momentum: float = 0.9
    seed: int = 42
    eval_interval: int = 200
    patience: int = 20
    selection_metric: str = "exact_match"

    def __post_init__(self) -> None:
        if self.epochs < 1 or self.batch_size < 1 or self.eval_interval < 1 or self.patience < 1:
            raise ValueError("epochs, batch_size, eval_interval and patience must be positive")
        if self.learning_rate < 0:
            raise ValueError("learning_rate must be >= 0")
        if not 0.0 <= self.momentum < 1.0:
            raise ValueError("momentum must be in [0, 1)")
        if self.selection_metric not in SELECTION_METRICS:
            raise ValueError(f"selection_metric must be one of {SELECTION_METRICS}")


@dataclass
class EvalPoint:
    step: int
    epoch: int
    train_loss: float
    metric: float


@dataclass
class TrainResult:
    model: FastModel
    history: list[EvalPoint]
    initial_loss: float
    epoch_losses: list[float]
    best_step: int
    best_metric: float


def _validation_metric(
    params: Sequence[np.ndarray],
    feats: Sequence[np.ndarray],
    y: np.ndarray,
    which: str,
    threshold: float,
) -> float:
    if which == "loss":
        return -_loss(params, feats, y)
    e = _pool_all(params[0], feats)
    accept = _sigmoid(_layers(params, e)[2]) >= threshold
    return float(np.all(accept == (y == 1.0), axis=1).mean())


def train(
    train_set: Dataset,
    valid_set: Dataset,
    fcfg: FeaturizerConfig,
    tcfg: TrainConfig,
    threshold: float = 0.5,
) -> TrainResult:
    """Train a FastModel; deterministic given the config seed.

    Every ``eval_interval`` optimizer steps the selection metric is
    computed on ``valid_set`` and the best-scoring checkpoint is kept;
    training stops early after ``patience`` evaluations without
    improvement. Texts are featurized as-is: normalize beforehand if
    the pipeline calls for it.
    """
    if len(train_set) == 0:
        raise TrainingError("training set is empty")

    feats = [featurize(item.text, fcfg) for item in train_set]
    y = _targets(train_set)
    vfeats = [featurize(item.text, fcfg) for item in valid_set]
    vy = _targets(valid_set)

    rng = np.random.default_rng(tcfg.seed)
    params = _init_params(fcfg, rng)
    emb, *head = params
    velocity = [np.zeros_like(a) for a in head]

    n = len(train_set)
    initial_loss = _loss(params, feats, y)
    logger.info("training on %d items (%d validation), initial loss %.4f", n, len(valid_set), initial_loss)

    history: list[EvalPoint] = []
    best_model: FastModel | None = None
    best_metric = -np.inf
    best_step = 0
    evals_without_improvement = 0
    step = 0
    loss_since_eval: list[float] = []
    epoch_losses: list[float] = []

    def run_eval(epoch: int) -> None:
        nonlocal best_metric, best_step, best_model, evals_without_improvement
        if not len(valid_set):
            return
        metric = _validation_metric(params, vfeats, vy, tcfg.selection_metric, threshold)
        train_loss = float(np.mean(loss_since_eval))
        loss_since_eval.clear()
        history.append(EvalPoint(step=step, epoch=epoch, train_loss=train_loss, metric=metric))
        if best_model is None or metric > best_metric:
            best_metric = metric
            best_step = step
            # The checkpoint is a float32 model; drop the old one first so
            # at most one checkpoint is alive beside the live parameters.
            best_model = None
            best_model = FastModel(fcfg, *params, threshold=threshold)
            evals_without_improvement = 0
        else:
            evals_without_improvement += 1

    for epoch in range(tcfg.epochs):
        order = rng.permutation(n)
        epoch_loss: list[float] = []
        for start in range(0, n, tcfg.batch_size):
            batch = order[start : start + tcfg.batch_size]
            loss, ((ids, rows), *head_grads) = _backprop(params, [feats[i] for i in batch], y[batch])
            if not np.isfinite(loss):
                raise TrainingError(
                    f"non-finite loss at step {step} (epoch {epoch}); "
                    "lower the learning rate or check the data"
                )
            epoch_loss.append(loss)
            loss_since_eval.append(loss)

            lr = tcfg.learning_rate
            for v, g, a in zip(velocity, head_grads, head):
                v *= tcfg.momentum
                v -= lr * g
                a += v
            # Sparse embedding update: only touched rows move (plain SGD,
            # no momentum, which keeps the update cost proportional to
            # the batch's gram count).
            np.add.at(emb, ids, -lr * rows)

            step += 1
            if step % tcfg.eval_interval == 0:
                run_eval(epoch)
                if evals_without_improvement >= tcfg.patience:
                    logger.info("early stop at step %d (no improvement in %d evals)", step, tcfg.patience)
                    break
        epoch_losses.append(float(np.mean(epoch_loss)))
        if evals_without_improvement >= tcfg.patience:
            break

    if loss_since_eval:
        run_eval(epoch)
    if not len(valid_set):
        best_model = FastModel(fcfg, *params, threshold=threshold)
        best_metric, best_step = float("nan"), step

    return TrainResult(
        model=best_model,
        history=history,
        initial_loss=initial_loss,
        epoch_losses=epoch_losses,
        best_step=best_step,
        best_metric=best_metric,
    )


# ----------------------------------------------------------------------
# Gradient verification


def gradient_check(
    fcfg: FeaturizerConfig,
    batch: Sequence,
    seed: int = 0,
    step: float = 1e-4,
) -> float:
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
    feats = [featurize(item.text, fcfg) for item in batch]
    y = _targets(batch)

    rng = np.random.default_rng(seed)
    margin = 8.0 * step
    for _ in range(1000):
        params = [rng.uniform(-1, 1, size=shape) for shape in _shapes(fcfg)]
        z1, _, _ = _layers(params, _pool_all(params[0], feats))
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


# ----------------------------------------------------------------------
# Persistence


def save_model(model: FastModel, path: Path | str) -> None:
    """Write the binary model format (magic, version, JSON header,
    float32 arrays, trailing CRC32)."""
    header = {
        "featurizer": dataclasses.asdict(model.featurizer),
        "hidden_size": HIDDEN_SIZE,
        "threshold": model.threshold,
        "label_order": [lang.value for lang in OUTPUT_ORDER],
    }
    header_bytes = json.dumps(header, ensure_ascii=False).encode("utf-8")
    buf = bytearray(_FILE_START.pack(MODEL_MAGIC, MODEL_VERSION, len(header_bytes)))
    buf += header_bytes
    for name in _ARRAY_NAMES:
        buf += memoryview(np.ascontiguousarray(getattr(model, name), dtype="<f4")).cast("B")
    buf += struct.pack("<I", zlib.crc32(buf) & 0xFFFFFFFF)
    Path(path).write_bytes(buf)


def load_model(path: Path | str) -> FastModel:
    """Read a model file; forward outputs are bit-identical to the saved
    model. Its arrays are read-only views of the file's bytes."""
    data = Path(path).read_bytes()
    if len(data) < _FILE_START.size + 4:
        raise ModelFormatError(f"{path}: file too short to be a model ({len(data)} bytes)")

    magic, version, header_len = _FILE_START.unpack_from(data)
    if magic != MODEL_MAGIC:
        raise ModelFormatError(f"{path}: bad magic: expected {MODEL_MAGIC!r}, found {magic!r}")
    if version != MODEL_VERSION:
        raise ModelFormatError(
            f"{path}: unsupported version: expected {MODEL_VERSION}, found {version}"
        )

    (stored_crc,) = struct.unpack_from("<I", data, len(data) - 4)
    actual_crc = zlib.crc32(memoryview(data)[:-4]) & 0xFFFFFFFF
    if stored_crc != actual_crc:
        raise ModelFormatError(
            f"{path}: checksum mismatch: file says {stored_crc:#010x}, "
            f"content hashes to {actual_crc:#010x}"
        )

    header_end = _FILE_START.size + header_len
    try:
        header = json.loads(data[_FILE_START.size : header_end].decode("utf-8"))
        featurizer = header["featurizer"]
        threshold = header["threshold"]
        label_order = header["label_order"]
        hidden = header["hidden_size"]
        # Exact type checks, because bool is a subclass of int; a float or
        # string field would otherwise fail later, outside this error path.
        for name, value in featurizer.items():
            kind = bool if name == "include_word_unigrams" else int
            if type(value) is not kind:
                raise TypeError(f"featurizer {name} must be {kind.__name__}, got {value!r}")
        if type(threshold) not in (int, float):
            raise TypeError(f"threshold must be a number, got {threshold!r}")
        fcfg = FeaturizerConfig(**featurizer)
    except (AttributeError, KeyError, TypeError, ValueError, UnicodeDecodeError) as e:
        raise ModelFormatError(f"{path}: bad header: {e}") from None
    if hidden != HIDDEN_SIZE:
        raise ModelFormatError(f"{path}: unsupported hidden size {hidden} (expected {HIDDEN_SIZE})")
    if label_order != [lang.value for lang in OUTPUT_ORDER]:
        raise ModelFormatError(f"{path}: unexpected label order {label_order}")

    shapes = _shapes(fcfg)
    counts = [int(np.prod(s)) for s in shapes]
    array_bytes = len(data) - 4 - header_end
    if array_bytes != 4 * sum(counts):
        raise ModelFormatError(
            f"{path}: array section is {array_bytes} bytes, expected {4 * sum(counts)}"
        )
    flat = np.frombuffer(data, dtype="<f4", count=sum(counts), offset=header_end)
    arrays = [part.reshape(s) for part, s in zip(np.split(flat, np.cumsum(counts)[:-1]), shapes)]
    try:
        return FastModel(fcfg, *arrays, threshold=threshold)
    except ValueError as e:
        raise ModelFormatError(f"{path}: bad model: {e}") from None
