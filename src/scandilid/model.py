"""The fast classifier: hashed n-gram embeddings feeding a tiny MLP.

A sentence embeds as the mean of the embedding-table rows addressed by
its gram buckets; one hidden layer of 64 with ReLU feeds four sigmoid
outputs, one per language in the fixed order (da, nb, nn, sv). A
language is predicted when its probability reaches the decision
threshold; when every output stays below it, the sentence falls back
to `other`.

Training minimizes the mean binary cross-entropy of the four outputs
over minibatches. The dense head takes the batch-mean gradient step with
momentum. The embedding table takes a per-example step, as fastText's SGD
does (Joulin et al. 2017, arXiv:1607.01759): each sentence's grams move
by the learning rate times the gradient of that sentence's own loss, the
batch-mean gradient times the batch size, without momentum. A row is
touched by few sentences of a batch, so a batch-mean step would shrink
its update about batch-size-fold, and languages that share one alphabet
and differ only in their words would not separate.
Weights are stored as float32; training and loss accumulation run in
float64, and `gradient_check` in `tests/test_model.py` verifies the
analytic gradients against central differences. Only the buckets that
training and validation grams touch get float64 rows: `train` maps each
featurized id in place to its bucket's rank among them, and `_init_params`
draws the table in chunks (one draw's stream) into a float32 table. Each
better evaluation casts the weights into that table's touched rows, the
others never moving, and float32 head arrays, which the `FastModel` adopts.
The embedding gradient is sparse: each gram of a sentence gets the
sentence's pooled gradient divided by its length, so `_backprop` returns
one such row per sentence, with the batch's gram ids and sentence lengths,
and `train` scales the rows by the learning rate before they are repeated.
`_scatter_add` repeats them column-major, (dim, grams), and adds them with
one flat 1-D `np.add.at`, which numpy runs on a fast path in index order.
Within a column the grams keep their batch order, so each table element
takes its additions in the order of a 2-D `np.add.at` of one row per
gram, and every bit is the same.

Serving, the training loss, backprop, validation and the gradient check
share one forward path: `_pool` averages a sentence's embedding rows,
`_pool_all` a batch's, and `_layers` applies the head to one pooled vector
or a batch of them. Every product is an `np.dot`, the BLAS call of its
``@`` formula without `matmul`'s gufunc dispatch: the same bits on float64
operands, not on a mixed float32/float64 pair, which `np.dot` casts
otherwise, so `_layers` takes only float64 heads (`FastModel`'s and
training's). The pools sum the rows `take` gathers in float64 as
``np.dot(ones, rows)``, one `dgemv` that streams every row, where a
reduction along axis 0 runs an inner loop of `embed_dim` elements per row;
`_pool` takes the cached int32 ids (`features._ids`), with no int64 copy,
and `_pool_all` sums a batch in one loop and divides it by its lengths
once: `_pool`'s bits. The kernel picks its summation order, so trained
bits depend on the BLAS build. A served float32 table's rows sum exactly
in float64, in any order, while every partial sum stays below 2^29 times
the smallest nonzero magnitude among them. `take` has a slow path for float32
rows off a 4-byte boundary, so `FastModel` holds only aligned arrays, and
`save_model` pads the file's header so that its arrays start on one.
`FastModel` holds a float64 copy of the head for serving, cast once and
not on every call, each matrix in the layout numpy casts a float32 one to
inside a mixed matmul (a contiguous transpose), so the bits are the same;
a C-order copy changes the last bits of most outputs.
The parameter arrays have one layout, `_ARRAY_NAMES` in the shapes of
`_shapes`, used by `FastModel`, training and the model file.
`FastModel` shares memory with no input but the aligned read-only views
that `load_model` (of a file's `bytes`) and `train` (of the `bytearray`s it
checkpoints into) hand over, keeping no other reference (`_HandedOver`).
Every other input, whatever its flags or base, and the float64 head, is
cast into a `bytearray` seen only through a read-only `memoryview`, so no
weight of a model can be set writeable again or changed through a view.

`predict` decides on logits, the sigmoid being monotone: for threshold t and
m = 1e-9 it accepts logits at or above that of t·(1 + m), rejects those at
or below that of t·(1 − m), and computes `forward`'s output only between.
Exact: rounding moves σ by ~1e-15 relative, and finite weights keep logits finite.

Validation by exact match compares each row of clipped outputs accepted
as `predict` accepts them with its 0/1 target row; `other` is the all-zero
row on both sides, so this equals comparing decoded label sets.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import logging
import math
import struct
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple, Sequence

import numpy as np

from .core import SCANDINAVIAN, Dataset, LabeledSentence, LabelSet, Language, _check_int, _check_real
from .features import FeaturizerConfig, _ids, featurize_many

logger = logging.getLogger(__name__)

OUTPUT_ORDER: tuple[Language, ...] = SCANDINAVIAN
HIDDEN_SIZE = 64
N_OUTPUTS = len(OUTPUT_ORDER)

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


def _check_threshold(threshold: float) -> float:
    """`threshold` as a Python float, if it is a real number, not a bool, in (0,1)."""
    threshold = _check_real("threshold", threshold)
    if not 0.0 < threshold < 1.0:
        raise ValueError(f"threshold must be in (0,1), got {threshold}")
    return threshold


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
    # The parameters in `_ARRAY_NAMES` order with a float64 head; see the module docstring.
    _head: tuple[np.ndarray, ...] = dataclasses.field(init=False, repr=False)
    _sure: float = dataclasses.field(init=False, repr=False)  # `predict` accepts logits >= _sure
    _unsure: float = dataclasses.field(init=False, repr=False)  # and rejects logits <= _unsure

    def __post_init__(self) -> None:
        for name, shape in zip(_ARRAY_NAMES, _shapes(self.featurizer)):
            # Cast before the finiteness check: a finite float64 beyond
            # the float32 range becomes inf here, and must be rejected.
            arr = _frozen(getattr(self, name), np.float32)
            if arr.shape != shape:
                raise ValueError(f"{name} must have shape {shape}, got {arr.shape}")
            if not _finite(arr):
                raise ValueError(f"{name} contains non-finite values")
            object.__setattr__(self, name, arr)
        object.__setattr__(self, "threshold", _check_threshold(self.threshold))
        w1, w2 = (_frozen(w.T, np.float64).T for w in (self.w1, self.w2))
        head = (self.embeddings, w1, _frozen(self.b1, np.float64), w2, _frozen(self.b2, np.float64))
        object.__setattr__(self, "_head", head)
        for name, q in (("_sure", 1.0 + _MARGIN), ("_unsure", 1.0 - _MARGIN)):
            q *= self.threshold  # the bound is q's logit, infinite where the clip decides
            bound = -math.inf if q <= _CLIP[0] else math.inf if q >= _CLIP[1] else math.log(q) - math.log1p(-q)
            object.__setattr__(self, name, bound)


def _finite(arr: np.ndarray) -> bool:
    # min and max propagate NaN, and allocate no array as large as arr.
    return bool(np.isfinite(arr.min()) and np.isfinite(arr.max()))


class _HandedOver(NamedTuple):  # a read-only view from `load_model` or `train`: the one input held as it is
    array: np.ndarray


def _frozen(value: np.ndarray | _HandedOver, dtype: type) -> np.ndarray:
    """`value` as an aligned C-order `dtype` array no one can write: an aligned
    `_HandedOver`'s own array, else a cast copy; see the module docstring."""
    arr = np.asarray(value.array if isinstance(value, _HandedOver) else value)
    if isinstance(value, _HandedOver) and arr.dtype == dtype and arr.flags.aligned:
        return arr
    buf = _on_bytearray(arr.shape, dtype)
    with np.errstate(over="ignore"):
        np.copyto(buf, arr, casting="unsafe")
    return _read_only(buf)


def _on_bytearray(shape: tuple[int, ...], dtype: type = np.float32) -> np.ndarray:  # zeros, writeable
    return np.frombuffer(bytearray(math.prod(shape) * np.dtype(dtype).itemsize), dtype).reshape(shape)


def _read_only(arr: np.ndarray) -> np.ndarray:  # a view of C-contiguous `arr` no one can make writeable
    return np.frombuffer(memoryview(arr).toreadonly(), arr.dtype).reshape(arr.shape)


def head_parameter_count(cfg: FeaturizerConfig) -> int:
    """Head size implied by a featurizer config, without building a model."""
    return sum(int(np.prod(shape)) for shape in _shapes(cfg)[1:])


def _sigmoid(z: np.ndarray) -> np.ndarray:
    # exp of a non-positive number never overflows; both branches of the
    # stable form share ez = exp(-|z|).
    ez = np.exp(-np.abs(z))
    return np.where(z >= 0, 1.0, ez) / (1.0 + ez)


_CLIP = (1e-15, 1.0 - 1e-15)  # outputs stay in the open (0,1) where the sigmoid saturates
_MARGIN = 1e-9  # `predict`'s relative margin around the threshold; see the module docstring


def _probabilities(z: np.ndarray) -> np.ndarray:
    """Clipped sigmoid of the logits: np.clip's values, without its wrapper."""
    p = _sigmoid(z)
    return np.minimum(np.maximum(p, _CLIP[0], out=p), _CLIP[1], out=p)


_ONES = np.ones(4096)  # `_pool`'s summing vector, sliced; a longer sentence gets its own
_ONES.flags.writeable = False


def _pool(emb: np.ndarray, ids: np.ndarray) -> np.ndarray:
    """Mean of the embedding rows of one sentence's grams, in float64; zeros
    for no grams. The rows are summed as ``np.dot(ones, rows)``, one `dgemv`."""
    n = ids.size
    ones = _ONES[:n] if n <= _ONES.size else np.ones(n)
    total = np.dot(ones, emb.take(ids, axis=0).astype(np.float64, copy=False))
    total /= max(n, 1)
    return total


def _pool_all(emb: np.ndarray, feats: Sequence[np.ndarray]) -> np.ndarray:
    """`_pool` of each sentence, one row each, bit for bit; see the module docstring."""
    out = np.empty((len(feats), emb.shape[1]), dtype=np.float64)
    lengths = [ids.size for ids in feats]
    for ids, n, row in zip(feats, lengths, out):
        np.dot(_ONES[:n] if n <= _ONES.size else np.ones(n), emb.take(ids, axis=0), out=row)
    out /= np.maximum(lengths, 1)[:, None]
    return out


def _layers(params: Sequence[np.ndarray], e: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Hidden activation h and output logits z for one pooled vector (1-D) or a
    batch of them (2-D, one per row); a float64 head only, see the module docstring."""
    _, w1, b1, w2, b2 = params
    h = np.dot(e, w1.T)
    h += b1
    z = np.dot(np.maximum(h, 0.0, out=h), w2.T)
    z += b2
    return h, z


# The label set of every accept row, keyed by its four bits in `OUTPUT_ORDER`.
_LABEL_SETS = {
    bits: LabelSet(frozenset(itertools.compress(OUTPUT_ORDER, bits)) or frozenset({Language.OTHER}))
    for bits in itertools.product((False, True), repeat=N_OUTPUTS)
}


def _decode(accept_row: np.ndarray) -> LabelSet:
    """The languages whose output reached the threshold; `other` if none did."""
    return _LABEL_SETS[tuple(accept_row.tolist())]


def forward(model: FastModel, text: str) -> np.ndarray:
    """Probabilities for (da, nb, nn, sv); empty text uses the zero embedding."""
    e = _pool(model.embeddings, _ids(text, model.featurizer))
    return _probabilities(_layers(model._head, e)[1])


def predict(model: FastModel, text: str) -> LabelSet:
    """Languages whose probability reaches the threshold; `other` if none do."""
    z = _layers(model._head, _pool(model.embeddings, _ids(text, model.featurizer)))[1]
    logits = z.tolist()
    accept = tuple(map(model._sure.__le__, logits))
    if accept == tuple(map(model._unsure.__lt__, logits)):  # no logit strictly between the bounds
        return _LABEL_SETS[accept]
    return _decode(_probabilities(z) >= model.threshold)


def predict_top1(model: FastModel, text: str) -> Language:
    """Single-label reduction: the most probable language, or `other`
    when everything is below the threshold."""
    p = forward(model, text)
    if float(p.max()) >= model.threshold:
        return OUTPUT_ORDER[int(p.argmax())]
    return Language.OTHER


def _targets(items: Sequence[LabeledSentence]) -> np.ndarray:
    """Each item's 0/1 row in `OUTPUT_ORDER` (`other` all zeros), in one pass; shape (0, 4) for none."""
    bits = (lang in item.labels for item in items for lang in OUTPUT_ORDER)
    return np.fromiter(bits, np.float64, count=len(items) * N_OUTPUTS).reshape(-1, N_OUTPUTS)


# ----------------------------------------------------------------------
# Training internals (float64 throughout; parameters are a list of
# arrays in `_ARRAY_NAMES` order)


_INIT_CHUNK_BYTES = 1 << 20  # `_init_params` draws the table this many float64 bytes at a time, or one row


def _init_params(fcfg: FeaturizerConfig, rng: np.random.Generator, touched: np.ndarray) -> tuple[list, np.ndarray]:
    """The float64 parameters, with only the (sorted) embedding rows ``touched``, and the
    whole table in float32, drawn in chunks of rows that take one draw's values from `rng`."""
    emb_shape, w1_shape, b1_shape, w2_shape, b2_shape = _shapes(fcfg)
    dim = fcfg.embed_dim
    table, rows = _on_bytearray(emb_shape), np.empty((touched.size, dim))
    chunk = max(1, _INIT_CHUNK_BYTES // (8 * dim))
    for start in range(0, len(table), chunk):
        drawn = rng.uniform(-1.0 / dim, 1.0 / dim, size=table[start : start + chunk].shape)
        table[start : start + chunk] = drawn
        lo, hi = np.searchsorted(touched, (start, start + chunk))
        rows[lo:hi] = drawn[touched[lo:hi] - start]
    return [
        rows,
        rng.uniform(-1.0, 1.0, size=w1_shape) / np.sqrt(dim),
        np.zeros(b1_shape),
        rng.uniform(-1.0, 1.0, size=w2_shape) / np.sqrt(HIDDEN_SIZE),
        np.zeros(b2_shape),
    ], table


def _bce_from_logits(z: np.ndarray, y: np.ndarray) -> float:
    # Stable elementwise form of -[y log p + (1-y) log(1-p)].
    losses = np.maximum(z, 0.0) - z * y + np.log1p(np.exp(-np.abs(z)))
    return float(losses.mean())


def _loss(params: Sequence[np.ndarray], feats: Sequence[np.ndarray], y: np.ndarray) -> float:
    return _bce_from_logits(_layers(params, _pool_all(params[0], feats))[1], y)


def _backprop(params: Sequence[np.ndarray], feats: Sequence[np.ndarray], y: np.ndarray):
    """Loss plus gradients in parameter order. The embedding gradient is
    sparse, ``(ids, lengths, rows)``: the gram ids of the whole batch, each
    sentence's gram count, and one row per sentence, its pooled gradient
    divided by its length, which is the gradient of each of its grams.
    `_scatter_add` applies it."""
    emb, w1, _, w2, _ = params
    e = _pool_all(emb, feats)
    h, z2 = _layers(params, e)
    loss = _bce_from_logits(z2, y)

    dz2 = (_sigmoid(z2) - y) / z2.size
    dz1 = np.dot(dz2, w2) * (h > 0)  # exactly where the pre-activation is > 0, NaN and -0 included
    de = np.dot(dz1, w1)
    lengths = np.array([ids.size for ids in feats])
    emb_grad = (np.concatenate(feats), lengths, de / np.maximum(lengths, 1)[:, None])
    return loss, [emb_grad, np.dot(dz1.T, e), dz1.sum(axis=0), np.dot(dz2.T, h), dz2.sum(axis=0)]


def _scatter_add(table: np.ndarray, ids: np.ndarray, lengths: np.ndarray, rows: np.ndarray) -> None:
    """``table[ids[k]] += rows[j]`` in place, for every gram k in order,
    where sentence j holds ``lengths[j]`` consecutive grams. `table` must
    be C-contiguous, so that its flat reshape is a view.

    Values and flat indices are laid out column-major, (dim, grams): each
    index loop then runs over every gram rather than over dim elements.
    `np.add.at` adds in index order, and within a column the grams keep
    their order, so each element's additions keep theirs."""
    dim = table.shape[1]
    index = ids * dim + np.arange(dim)[:, None]
    np.add.at(table.reshape(-1), index.ravel(), np.repeat(rows.T, lengths, axis=1).ravel())


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 5
    batch_size: int = 32
    learning_rate: float = 0.5
    momentum: float = 0.9
    seed: int = 42
    eval_interval: int = 200
    patience: int = 20

    def __post_init__(self) -> None:
        for name in ("epochs", "batch_size", "seed", "eval_interval", "patience"):
            _check_int(name, getattr(self, name))
        if self.epochs < 1 or self.batch_size < 1 or self.eval_interval < 1 or self.patience < 1:
            raise ValueError("epochs, batch_size, eval_interval and patience must be positive")
        if self.seed < 0:  # np.random.default_rng refuses a negative seed
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        for name in ("learning_rate", "momentum"):
            _check_real(name, getattr(self, name))
        if not self.learning_rate >= 0:  # NaN fails this test too
            raise ValueError("learning_rate must be >= 0")
        if not 0.0 <= self.momentum < 1.0:
            raise ValueError("momentum must be in [0, 1)")


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
    stopped_early: bool  # on patience, before the epochs ran out


def _validation_metric(params: Sequence[np.ndarray], feats: Sequence[np.ndarray], y: np.ndarray,
                       threshold: float) -> float:
    e = _pool_all(params[0], feats)
    accept = _probabilities(_layers(params, e)[1]) >= threshold
    return float(np.all(accept == (y == 1.0), axis=1).mean())


@np.errstate(over="ignore")
def _checkpoint(params: list[np.ndarray], best: list[np.ndarray], touched: np.ndarray, step: int) -> None:
    """Cast ``params`` into the float32 arrays ``best``, the embedding into the table's rows ``touched``.
    A weight finite in float64 but beyond the float32 range fails FastModel's check: a divergence."""
    for name, a, b, rows in zip(_ARRAY_NAMES, params, best, [touched] + [...] * 4):
        cast = a.astype(np.float32)
        if not _finite(cast):
            raise TrainingError(f"weights beyond the float32 range at step {step} ({name}); lower the learning rate")
        b[rows] = cast


def train(
    train_set: Dataset,
    valid_set: Dataset,
    fcfg: FeaturizerConfig,
    tcfg: TrainConfig,
    threshold: float = 0.5,
) -> TrainResult:
    """Train a FastModel; deterministic given the config seed.

    Every ``eval_interval`` optimizer steps, and after the last step
    when it falls between intervals, exact match is computed on
    ``valid_set`` and the best-scoring checkpoint is kept; training
    stops early after ``patience`` evaluations without improvement
    (``stopped_early``), and a best checkpoint at the last evaluation
    logs a warning: the run may not have converged. With an empty
    ``valid_set`` the final weights are returned, with ``best_metric``
    NaN. Only embedding rows that some gram addresses are held in
    float64; the others keep their initial values. Texts are featurized
    as-is: normalize beforehand if the pipeline calls for it.
    """
    threshold = _check_threshold(threshold)
    if len(train_set) == 0:
        raise TrainingError("training set is empty")

    feats = featurize_many([item.text for item in train_set], fcfg)
    y = _targets(train_set)
    vfeats = featurize_many([item.text for item in valid_set], fcfg)
    vy = _targets(valid_set)
    index = np.zeros(fcfg.bucket_count, np.int64)  # marks the touched buckets, then maps each to its rank
    for ids in itertools.chain(feats, vfeats):
        index[ids] = 1
    touched = np.flatnonzero(index)
    index[touched] = np.arange(touched.size)
    for ids in itertools.chain(feats, vfeats):
        index.take(ids, out=ids)
    del index

    rng = np.random.default_rng(tcfg.seed)
    params, table = _init_params(fcfg, rng, touched)
    emb, *head = params
    velocity = [np.zeros_like(a) for a in head]
    best = [table, *(_on_bytearray(a.shape) for a in head)]  # written at each checkpoint, then handed over

    n = len(train_set)
    initial_loss = _loss(params, feats, y)
    logger.info("training on %d items (%d validation), initial loss %.4f", n, len(valid_set), initial_loss)

    starts = range(0, n, tcfg.batch_size)
    last_step = tcfg.epochs * len(starts)
    history: list[EvalPoint] = []
    best_metric, best_step = float("nan"), last_step  # kept if nothing is evaluated
    evals_without_improvement = 0
    losses: list[float] = []  # one per step

    for step, (epoch, start) in enumerate(itertools.product(range(tcfg.epochs), starts), start=1):
        if start == 0:
            order = rng.permutation(n)
        batch = order[start : start + tcfg.batch_size]
        loss, ((ids, lengths, rows), *head_grads) = _backprop(params, [feats[i] for i in batch], y[batch])
        if not np.isfinite(loss):
            raise TrainingError(
                f"non-finite loss at step {step} (epoch {epoch}); "
                "lower the learning rate or check the data"
            )
        losses.append(loss)

        lr = tcfg.learning_rate
        for v, g, a in zip(velocity, head_grads, head):
            v *= tcfg.momentum
            v -= lr * g
            a += v
        # Sparse per-example embedding step (see the module docstring):
        # only touched rows move, without momentum, so the update costs
        # the batch's gram count. Scaled per sentence, before the rows
        # are repeated per gram.
        _scatter_add(emb, ids, lengths, -lr * len(batch) * rows)

        if len(valid_set) and (step % tcfg.eval_interval == 0 or step == last_step):
            metric = _validation_metric(params, vfeats, vy, threshold)
            train_loss = float(np.mean(losses[history[-1].step if history else 0 :]))
            history.append(EvalPoint(step=step, epoch=epoch, train_loss=train_loss, metric=metric))
            if len(history) == 1 or metric > best_metric:
                best_metric = metric
                best_step = step
                _checkpoint(params, best, touched, step)
                evals_without_improvement = 0
            else:
                evals_without_improvement += 1
                if evals_without_improvement >= tcfg.patience:
                    logger.info("early stop at step %d (no improvement in %d evals)", step, tcfg.patience)
                    break

    # An epoch cut short by an early stop counts with the steps it ran.
    epoch_losses = [float(np.mean(losses[i : i + len(starts)])) for i in range(0, len(losses), len(starts))]
    if not history:  # no validation set
        _checkpoint(params, best, touched, len(losses))
    elif best_step == history[-1].step:
        logger.warning("best checkpoint is the last evaluation, step %d: the run may not have converged", best_step)
    return TrainResult(
        model=FastModel(fcfg, *(_HandedOver(_read_only(a)) for a in best), threshold=threshold),
        history=history,
        initial_loss=initial_loss,
        epoch_losses=epoch_losses,
        best_step=best_step,
        best_metric=best_metric,
        stopped_early=len(losses) < last_step,
    )


# ----------------------------------------------------------------------
# Persistence


def save_model(model: FastModel, path: Path | str) -> None:
    """Write the binary model format (magic, version, JSON header padded
    with up to 3 spaces to start the arrays at a multiple of 4 bytes,
    float32 arrays, trailing CRC32)."""
    header = {
        "featurizer": dataclasses.asdict(model.featurizer),
        "hidden_size": HIDDEN_SIZE,
        "threshold": model.threshold,
        "label_order": [lang.value for lang in OUTPUT_ORDER],
    }
    header_bytes = json.dumps(header, ensure_ascii=False).encode("utf-8")
    header_bytes += b" " * (-(_FILE_START.size + len(header_bytes)) % 4)
    arrays = (memoryview(np.ascontiguousarray(getattr(model, name), dtype="<f4")).cast("B") for name in _ARRAY_NAMES)
    crc = 0  # of every part written, the arrays read where they lie
    with Path(path).open("wb") as f:
        for part in (_FILE_START.pack(MODEL_MAGIC, MODEL_VERSION, len(header_bytes)), header_bytes, *arrays):
            f.write(part)
            crc = zlib.crc32(part, crc)
        f.write(struct.pack("<I", crc))


def load_model(path: Path | str) -> FastModel:
    """Read a model file; forward outputs are bit-identical to the saved
    model. The file is read once, into `bytes`, and the arrays are views
    of them, which `FastModel` holds as they are, passed as `_HandedOver`s.
    `save_model` starts them on a 4-byte boundary, where `take` in `_pool`
    is many times faster; `FastModel` copies those of an unpadded file."""
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
        threshold = _check_threshold(header["threshold"])
        label_order = header["label_order"]
        hidden = header["hidden_size"]
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
        return FastModel(fcfg, *map(_HandedOver, arrays), threshold=threshold)
    except ValueError as e:
        raise ModelFormatError(f"{path}: bad model: {e}") from None
