"""Multiclass logistic regression over disjoint prediction windows.

The classifier has one output per disjoint window plus an explicit no-event
class. Training minimizes mean softmax cross-entropy with an L1 penalty on
the weights (bias unpenalized) by mini-batch gradient descent; the penalty is
applied as a proximal soft-threshold after each step so irrelevant weights
reach exactly zero. The learning rate decays continuously:

    lr(step) = initial_learning_rate * decay_rate ** (step / decay_steps)

At inference the disjoint softmax scores are cumulatively summed to recover
overlapping-horizon probabilities, which are therefore monotone by
construction.

Model files are binary: the header that ``artifacts`` writes and reads (the
8-byte magic ``RNRKLM01``, a little-endian uint32 length and a UTF-8 JSON
object of task, n_classes, n_features, vocab_hash, hyperparameters and
lineage), then the weight matrix and bias as little-endian float64, C order.
"""

from __future__ import annotations

from dataclasses import asdict, astuple, dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .artifacts import MODEL_MAGIC, _read_header, read_model_header  # noqa: F401  (re-exports)
from .artifacts import write_model_header
from .config import N_CLASSES, HyperParams
from .errors import ConfigError, DataError, NumericError
from .features import FeatureMatrix

# Rows per predict batch; it sets the slab composition and so the prediction bytes.
PREDICT_BATCH_ROWS = 4096


@dataclass
class ModelParams:
    weights: np.ndarray  # (n_classes, n_features)
    bias: np.ndarray  # (n_classes,)
    vocab_hash: str | None = None

    @property
    def n_classes(self) -> int:
        return self.weights.shape[0]

    @property
    def n_features(self) -> int:
        return self.weights.shape[1]


def _gather(
    indices: np.ndarray, indptr: np.ndarray, rows: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The nonzeros of the given CSR rows as one flat slab, and each row's bounds in it.

    Row k owns flat[bounds[k]:bounds[k + 1]], its nonzeros in stored order.
    """
    starts = indptr[rows]
    sizes = indptr[rows + 1] - starts
    bounds = np.zeros(rows.size + 1, dtype=np.int64)
    np.cumsum(sizes, out=bounds[1:])
    # slab position p of row k reads indices[starts[k] + p - bounds[k]]
    offsets = np.repeat(starts - bounds[:-1], sizes)
    return indices[offsets + np.arange(bounds[-1])], bounds


def _batch_logits(
    weights: np.ndarray, bias: np.ndarray, flat: np.ndarray, bounds: np.ndarray
) -> np.ndarray:
    """Logits for a gathered batch of sparse binary rows, shape (n_classes, n_rows).

    Byte contract: each class's weights are gathered into one slab in stored
    order and prefix-summed sequentially over the whole slab (``np.cumsum``,
    in place); row k's sum is the prefix at its last nonzero minus the prefix
    before its first, with 0.0 for the empty prefix of the rows at the head of
    the slab. The model bytes depend on this order: ``np.add.reduceat`` would
    sum each row on its own and move the logits by ulps. The logits of a
    batch with nonzeros are column-major, so that ``grad_b = g.sum(axis=1)``
    in ``loss_and_grad`` adds the rows one after another rather than
    pairwise; that order is part of the model bytes too. The slab is the
    only array the size of the batch's nonzeros.
    """
    if flat.size == 0:
        return np.broadcast_to(bias[:, None], (bias.size, bounds.size - 1)).copy()
    csum = np.take(weights, flat, axis=1)
    np.cumsum(csum, axis=1, out=csum)
    # prefix[:, k] sums slab[:, :bounds[k]]; bounds[k] - 1 == -1 would wrap to the total
    prefix = np.take(csum, bounds - 1, axis=1)
    prefix[:, : np.searchsorted(bounds, 0, side="right")] = 0.0
    logits = np.subtract(prefix[:, 1:], prefix[:, :-1], order="F")
    logits += bias[:, None]
    return logits


def _softmax_columns(logits: np.ndarray) -> np.ndarray:
    z = np.exp(logits - logits.max(axis=0, keepdims=True))
    return z / z.sum(axis=0, keepdims=True)


def _log_softmax_true(logits: np.ndarray, y: np.ndarray) -> np.ndarray:
    m = logits.max(axis=0)
    lse = m + np.log(np.exp(logits - m).sum(axis=0))
    return logits[y, np.arange(y.size)] - lse


def loss(
    params: ModelParams,
    matrix: FeatureMatrix,
    y: np.ndarray,
    l1_coefficient: float = 0.0,
    rows: np.ndarray | None = None,
) -> float:
    """Mean cross-entropy over the batch plus the L1 weight penalty."""
    if rows is None:
        rows = np.arange(len(matrix), dtype=np.int64)
    flat, bounds = _gather(matrix.indices, matrix.indptr, rows)
    logits = _batch_logits(params.weights, params.bias, flat, bounds)
    ce = -float(np.mean(_log_softmax_true(logits, y[rows])))
    if l1_coefficient:
        ce += l1_coefficient * float(np.abs(params.weights).sum())
    return ce


def loss_and_grad(
    weights: np.ndarray,
    bias: np.ndarray,
    matrix: FeatureMatrix,
    y: np.ndarray,
    rows: np.ndarray,
) -> tuple[float, np.ndarray, np.ndarray]:
    """Unpenalized batch cross-entropy and its analytic gradient."""
    flat, bounds = _gather(matrix.indices, matrix.indptr, rows)
    logits = _batch_logits(weights, bias, flat, bounds)
    yb = y[rows]
    ce = -float(np.mean(_log_softmax_true(logits, yb)))
    g = _softmax_columns(logits)
    g[yb, np.arange(rows.size)] -= 1.0
    g /= rows.size
    grad_b = g.sum(axis=1)
    grad_w = np.zeros_like(weights)
    if flat.size:
        sizes = np.diff(bounds)
        for c in range(weights.shape[0]):
            grad_w[c] = np.bincount(
                flat, weights=np.repeat(g[c], sizes), minlength=weights.shape[1]
            )
    return ce, grad_w, grad_b


def _apply_prox(weights: np.ndarray, amount: float) -> np.ndarray:
    return np.sign(weights) * np.maximum(np.abs(weights) - amount, 0.0)


@dataclass
class EpochStats:
    epoch: int
    steps: int
    learning_rate: float
    train_loss: float
    valid_loss: float


@dataclass
class TrainResult:
    params: ModelParams
    log: list[EpochStats]
    best_epoch: int
    best_valid_loss: float


def validation_loss(params: ModelParams, matrix: FeatureMatrix, y: np.ndarray) -> float:
    """Unpenalized cross-entropy used for model selection and early stopping."""
    if len(matrix) == 0:
        raise DataError("validation set is empty")
    return loss(params, matrix, y)


def train(
    train_matrix: FeatureMatrix,
    y_train: np.ndarray,
    valid_matrix: FeatureMatrix,
    y_valid: np.ndarray,
    hp: HyperParams,
) -> TrainResult:
    """Mini-batch gradient descent with proximal L1 and early stopping.

    Returns the parameters from the epoch with the best validation
    cross-entropy. Deterministic for a fixed seed: shuffling uses a dedicated
    PCG64 stream and all reductions run in a fixed order. The parameters carry
    the vocabulary hash of train_matrix.
    """
    hp.validate()
    if len(train_matrix) == 0:
        raise DataError("training set is empty")
    n_features, vocab_hash = train_matrix.n_features, train_matrix.vocab_hash
    weights = np.zeros((N_CLASSES, n_features))
    bias = np.zeros(N_CLASSES)
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(hp.seed)))
    n = len(train_matrix)
    step = 0
    best_valid = np.inf
    best_weights, best_bias, best_epoch = weights.copy(), bias.copy(), -1
    stale = 0
    log: list[EpochStats] = []
    for epoch in range(hp.max_epochs):
        order = rng.permutation(n).astype(np.int64)
        epoch_ce = 0.0
        last_lr = hp.initial_learning_rate
        for lo in range(0, n, hp.batch_size):
            rows = order[lo : lo + hp.batch_size]
            lr = hp.initial_learning_rate * hp.decay_rate ** (step / hp.decay_steps)
            last_lr = lr
            ce, grad_w, grad_b = loss_and_grad(weights, bias, train_matrix, y_train, rows)
            if not np.isfinite(ce):
                raise NumericError(
                    f"non-finite training loss at epoch {epoch} step {step} (lr={lr:g})"
                )
            epoch_ce += ce * rows.size
            weights -= lr * grad_w
            bias -= lr * grad_b
            if hp.l1_coefficient > 0.0:
                weights = _apply_prox(weights, lr * hp.l1_coefficient)
            step += 1
        params = ModelParams(weights, bias, vocab_hash)
        valid_ce = validation_loss(params, valid_matrix, y_valid)
        if not np.isfinite(valid_ce):
            raise NumericError(f"non-finite validation loss at epoch {epoch}")
        log.append(EpochStats(epoch, step, last_lr, epoch_ce / n, valid_ce))
        if valid_ce < best_valid:
            best_valid = valid_ce
            best_weights, best_bias, best_epoch = weights.copy(), bias.copy(), epoch
            stale = 0
        else:
            stale += 1
            if stale >= hp.patience:
                break
    return TrainResult(
        ModelParams(best_weights, best_bias, vocab_hash), log, best_epoch, float(best_valid)
    )


def tune(
    grid: Sequence[HyperParams],
    train_matrix: FeatureMatrix,
    y_train: np.ndarray,
    valid_matrix: FeatureMatrix,
    y_valid: np.ndarray,
) -> tuple[HyperParams, TrainResult, list[tuple[HyperParams, float]]]:
    """Exhaustive grid search minimizing validation cross-entropy.

    Duplicate grid points are evaluated once; ties go to the smaller
    l1_coefficient, then lexicographic order of the remaining fields.
    """
    if not grid:
        raise ConfigError("hyperparameter grid is empty")
    unique = sorted(set(grid), key=astuple)  # l1_coefficient is the first field
    best: tuple[HyperParams, TrainResult] | None = None
    evaluated = []
    for hp in unique:
        result = train(train_matrix, y_train, valid_matrix, y_valid, hp)
        evaluated.append((hp, result.best_valid_loss))
        if best is None or result.best_valid_loss < best[1].best_valid_loss:
            best = (hp, result)
    assert best is not None
    return best[0], best[1], evaluated


def predict_matrix(params: ModelParams, matrix: FeatureMatrix):
    """Window and horizon probabilities for every row; shapes (n, C) and (n, C-1)."""
    if matrix.vocab_hash and params.vocab_hash and matrix.vocab_hash != params.vocab_hash:
        raise DataError("feature matrix was built with a different vocabulary than the model")
    if matrix.n_features != params.n_features:
        raise DataError("feature matrix width does not match the model")
    n = len(matrix)
    s_out = np.empty((n, params.n_classes))
    for lo in range(0, n, PREDICT_BATCH_ROWS):
        rows = np.arange(lo, min(lo + PREDICT_BATCH_ROWS, n), dtype=np.int64)
        flat, bounds = _gather(matrix.indices, matrix.indptr, rows)
        logits = _batch_logits(params.weights, params.bias, flat, bounds)
        s_out[lo : lo + rows.size] = _softmax_columns(logits).T
    p_out = np.minimum(np.cumsum(s_out[:, :-1], axis=1), 1.0)
    return s_out, p_out


def save_model(
    path: str | Path,
    params: ModelParams,
    hp: HyperParams,
    task: str,
    lineage: dict | None = None,
) -> None:
    header = {
        "format_version": 1,
        "task": task,
        "n_classes": params.n_classes,
        "n_features": params.n_features,
        "vocab_hash": params.vocab_hash,
        "hyperparams": asdict(hp),
        "lineage": lineage or {},
    }
    with open(path, "wb") as handle:
        write_model_header(handle, header)
        handle.write(params.weights.astype("<f8").tobytes(order="C"))
        handle.write(params.bias.astype("<f8").tobytes(order="C"))


def load_model(
    path: str | Path, expected_vocab_hash: str | None = None
) -> tuple[ModelParams, HyperParams, dict]:
    """Read a model file; refuse a bad magic, header or payload size, or another vocabulary."""
    with open(path, "rb") as handle:
        header = _read_header(handle, path)
        n_classes = header["n_classes"]
        n_features = header["n_features"]
        size = 8 * n_classes * (n_features + 1)
        payload = handle.read(size)
        trailing = handle.read(1)
    if len(payload) != size:
        raise DataError(f"{path}: truncated model payload")
    if trailing:
        raise DataError(f"{path}: trailing bytes after the model payload")
    w = np.frombuffer(payload, dtype="<f8", count=n_classes * n_features)
    b = np.frombuffer(payload, dtype="<f8", offset=8 * n_classes * n_features)
    if expected_vocab_hash is not None and header["vocab_hash"] != expected_vocab_hash:
        raise DataError(
            f"{path}: model was trained against a different vocabulary "
            f"(expected {expected_vocab_hash[:12]}..., found "
            f"{str(header['vocab_hash'])[:12]}...)"
        )
    params = ModelParams(
        w.reshape(n_classes, n_features).copy(), b.copy(), header["vocab_hash"]
    )
    try:
        hp = HyperParams(**header["hyperparams"])
    except TypeError:
        raise DataError(f"{path}: model header has bad hyperparams")
    return params, hp, header
