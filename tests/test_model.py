import dataclasses
import json
import struct

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from renalrisk.config import TASKS
from renalrisk.errors import DataError, NumericError
from renalrisk.features import FeatureMatrix
from renalrisk.model import (
    HyperParams,
    ModelParams,
    _batch_logits,
    _gather,
    _log_softmax_true,
    load_model,
    loss,
    loss_and_grad,
    predict_matrix,
    read_model_header,
    save_model,
    train,
    tune,
    validation_loss,
)

from reference import reference_batch_logits, reference_loss_and_grad

C = 6


def make_matrix(rows, labels, n_features, task_label="rrt"):
    """rows: list of index lists; labels: list of class ints 0..5."""
    indices = np.asarray([i for row in rows for i in row], dtype=np.int32)
    indptr = np.cumsum([0] + [len(row) for row in rows], dtype=np.int64)
    y = np.asarray(labels, dtype=np.int64)
    ids = [("b", "2014-01-01")] * len(rows)
    return FeatureMatrix(n_features, ids, {task: y for task in TASKS}, indptr, indices)


def rand_problem(rng, n_rows, n_features):
    max_active = min(6, n_features + 1)
    rows = [
        sorted(rng.choice(n_features, size=rng.integers(0, max_active), replace=False).tolist())
        for _ in range(n_rows)
    ]
    labels = rng.integers(0, C, size=n_rows).tolist()
    return make_matrix(rows, labels, n_features)


def predict_row(params, indices, n_features):
    """Window scores and horizon probabilities of one sparse row, via predict_matrix."""
    s, p = predict_matrix(params, make_matrix([indices], [0], n_features))
    return s[0], p[0]


# -- forward pass --------------------------------------------------------------


def test_forward_uniform_when_zero_params():
    params = ModelParams(np.zeros((C, 4)), np.zeros(C))
    s, p = predict_row(params, [0, 2], 4)
    assert np.allclose(s, [1 / 6] * 6)
    assert np.allclose(p, [1 / 6, 2 / 6, 3 / 6, 4 / 6, 5 / 6])


def test_cumulative_sums_from_window_scores():
    scores = np.array([0.1, 0.2, 0.05, 0.05, 0.1, 0.5])
    params = ModelParams(np.zeros((C, 1)), np.log(scores))
    s, p = predict_row(params, [], 1)
    assert np.allclose(s, scores, atol=1e-12)
    assert np.allclose(p, [0.1, 0.3, 0.35, 0.4, 0.5], atol=1e-12)


def test_logit_shift_invariance():
    rng = np.random.default_rng(0)
    w = rng.normal(size=(C, 5))
    b = rng.normal(size=C)
    base = predict_row(ModelParams(w, b), [1, 3], 5)
    shifted = predict_row(ModelParams(w, b + 137.0), [1, 3], 5)
    assert np.allclose(base[0], shifted[0], atol=1e-12)
    assert np.allclose(base[1], shifted[1], atol=1e-12)


def test_forward_dimension_mismatch_rejected():
    params = ModelParams(np.zeros((C, 4)), np.zeros(C))
    with pytest.raises(DataError, match="width does not match"):
        predict_row(params, [0], 5)


def test_forward_vocab_hash_mismatch_rejected():
    params = ModelParams(np.zeros((C, 4)), np.zeros(C), vocab_hash="aaa")
    matrix = make_matrix([[0]], [0], 4)
    matrix.vocab_hash = "bbb"
    with pytest.raises(DataError, match="different vocabulary"):
        predict_matrix(params, matrix)


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_horizon_probs_always_monotone_and_scores_normalized(data):
    rng = np.random.default_rng(data.draw(st.integers(0, 2**31)))
    n_features = data.draw(st.integers(1, 30))
    w = rng.normal(scale=data.draw(st.floats(0.1, 20.0)), size=(C, n_features))
    b = rng.normal(scale=5.0, size=C)
    k = data.draw(st.integers(0, min(8, n_features)))
    idx = sorted(rng.choice(n_features, size=k, replace=False).tolist())
    s, p = predict_row(ModelParams(w, b), idx, n_features)
    assert abs(s.sum() - 1.0) <= 1e-9
    assert np.all(np.diff(p) >= 0) and p[-1] <= 1.0


# -- sparse gather -------------------------------------------------------------


def reference_gather(indices, indptr, rows):
    """Row-by-row copy of each row's nonzeros into one slab, with its bounds."""
    flat, bounds = [], [0]
    for r in rows:
        flat.extend(indices[indptr[r] : indptr[r + 1]].tolist())
        bounds.append(len(flat))
    return flat, bounds


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_gather_matches_row_by_row_copy(data):
    rng = np.random.default_rng(data.draw(st.integers(0, 2**31)))
    matrix = rand_problem(rng, data.draw(st.integers(0, 40)), data.draw(st.integers(1, 30)))
    n = len(matrix)
    rows = rng.permutation(n)[: data.draw(st.integers(0, n))].astype(np.int64)
    flat, bounds = _gather(matrix.indices, matrix.indptr, rows)
    want_flat, want_bounds = reference_gather(matrix.indices, matrix.indptr, rows)
    assert flat.tolist() == want_flat and bounds.tolist() == want_bounds


# -- kernel against its oracle ---------------------------------------------------


@st.composite
def sparse_batches(draw):
    """(n_features, nonzeros per matrix row, batch row ids, seed); rows may be empty."""
    n_features = draw(st.integers(1, 12))
    sizes = draw(st.lists(st.integers(0, min(5, n_features)), min_size=1, max_size=10))
    rows = draw(st.lists(st.integers(0, len(sizes) - 1), min_size=1, max_size=40))
    return n_features, sizes, rows, draw(st.integers(0, 2**32 - 1))


@given(sparse_batches())
@example((6, [0, 3, 2], [0, 1, 2], 1))  # empty row at the head of the slab
@example((6, [0, 0, 0, 4], [0, 1, 2, 3], 2))  # a run of empty rows at the head
@example((6, [2, 0, 3], [0, 1, 2], 3))  # empty row in the middle
@example((6, [2, 3, 0], [0, 1, 2], 4))  # empty row at the tail
@example((6, [0, 0, 3], [1, 0], 5))  # all-empty batch
@example((6, [4], [0], 6))  # one-row batch
@example((6, [2, 0, 3], [2, 2, 1, 0, 2, 1], 7))  # repeated row ids
@settings(max_examples=300, deadline=None)
def test_kernel_is_bitwise_equal_to_the_oracle(batch):
    n_features, sizes, row_ids, seed = batch
    rng = np.random.default_rng(seed)
    m = make_matrix(
        [sorted(rng.choice(n_features, size=k, replace=False).tolist()) for k in sizes],
        rng.integers(0, C, size=len(sizes)).tolist(),
        n_features,
    )
    y = m.y["rrt"]
    w = rng.normal(scale=rng.choice([1e-3, 1.0, 30.0]), size=(C, n_features))
    w[rng.random(w.shape) < 0.3] = 0.0  # the L1 prox leaves exact zeros of either sign
    w[rng.random(w.shape) < 0.2] = -0.0
    b = rng.normal(size=C)
    rows = np.asarray(row_ids, dtype=np.int64)

    flat, bounds = _gather(m.indices, m.indptr, rows)
    logits = _batch_logits(w, b, flat, bounds)
    assert np.array_equal(logits, reference_batch_logits(w, b, flat, bounds))
    ce, grad_w, grad_b = loss_and_grad(w, b, m, y, rows)
    want_ce, want_w, want_b = reference_loss_and_grad(w, b, m, y, rows)
    assert ce == want_ce
    assert np.array_equal(grad_w, want_w)
    assert np.array_equal(grad_b, want_b)
    assert loss(ModelParams(w, b), m, y, rows=rows) == want_ce
    whole = reference_batch_logits(w, b, *_gather(m.indices, m.indptr, np.arange(len(m))))
    assert validation_loss(ModelParams(w, b), m, y) == -float(
        np.mean(_log_softmax_true(whole, y))
    )


# -- loss ----------------------------------------------------------------------


def test_perfect_prediction_zero_loss():
    # huge margin toward the true class
    w = np.zeros((C, 2))
    w[3, 0] = 200.0
    m = make_matrix([[0]], [3], 2)
    value = loss(ModelParams(w, np.zeros(C)), m, m.y["rrt"], l1_coefficient=0.0)
    assert value == pytest.approx(0.0, abs=1e-12)


def test_uniform_prediction_loss_is_ln6():
    m = make_matrix([[0], [1]], [2, 5], 2)
    value = loss(ModelParams(np.zeros((C, 2)), np.zeros(C)), m, m.y["rrt"])
    assert value == pytest.approx(np.log(6.0), rel=1e-12)


def test_l1_penalty_excludes_bias():
    w = np.full((C, 2), 0.5)
    b = np.full(C, 100.0)
    m = make_matrix([[0]], [0], 2)
    with_pen = loss(ModelParams(w, b), m, m.y["rrt"], l1_coefficient=0.1)
    without = loss(ModelParams(w, b), m, m.y["rrt"], l1_coefficient=0.0)
    assert with_pen - without == pytest.approx(0.1 * np.abs(w).sum(), rel=1e-12)


def test_loss_matches_arbitrary_precision_oracle():
    # single example, hand-set small weights; oracle in 50-digit arithmetic
    mpmath.mp.dps = 50
    w = np.array(
        [
            [0.01, -0.02, 0.03],
            [0.04, 0.00, -0.01],
            [-0.03, 0.02, 0.01],
            [0.02, 0.02, -0.02],
            [0.00, -0.04, 0.03],
            [0.01, 0.03, 0.00],
        ]
    )
    b = np.array([0.1, -0.1, 0.05, 0.0, -0.05, 0.02])
    active = [0, 2]
    y = 4
    l1 = 0.007
    logits = [mpmath.mpf(b[c]) + sum(mpmath.mpf(w[c, j]) for j in active) for c in range(C)]
    z = [mpmath.e**v for v in logits]
    total = sum(z)
    expected = -mpmath.log(z[y] / total) + mpmath.mpf(l1) * sum(
        abs(mpmath.mpf(v)) for v in w.flatten()
    )
    m = make_matrix([active], [y], 3)
    got = loss(ModelParams(w, b), m, m.y["rrt"], l1_coefficient=l1)
    assert abs(got - float(expected)) < 1e-10


# -- gradient ------------------------------------------------------------------


def numeric_gradient(w, b, matrix, y, rows, h=1e-6):
    def f(wv, bv):
        logits_w = ModelParams(wv, bv)
        return loss(logits_w, matrix, y, 0.0, rows)

    gw = np.zeros_like(w)
    for i in range(w.shape[0]):
        for j in range(w.shape[1]):
            wp, wm = w.copy(), w.copy()
            wp[i, j] += h
            wm[i, j] -= h
            gw[i, j] = (f(wp, b) - f(wm, b)) / (2 * h)
    gb = np.zeros_like(b)
    for i in range(b.size):
        bp, bm = b.copy(), b.copy()
        bp[i] += h
        bm[i] -= h
        gb[i] = (f(w, bp) - f(w, bm)) / (2 * h)
    return gw, gb


def test_analytic_gradient_matches_finite_differences():
    rng = np.random.default_rng(42)
    for _ in range(10):
        n_features = int(rng.integers(2, 20))
        n_rows = int(rng.integers(1, 12))
        m = rand_problem(rng, n_rows, n_features)
        w = rng.normal(scale=0.5, size=(C, n_features))
        b = rng.normal(scale=0.5, size=C)
        rows = np.arange(n_rows, dtype=np.int64)
        _, gw, gb = loss_and_grad(w, b, m, m.y["rrt"], rows)
        nw, nb = numeric_gradient(w, b, m, m.y["rrt"], rows)
        denom_w = np.maximum(np.maximum(np.abs(gw), np.abs(nw)), 1e-8)
        denom_b = np.maximum(np.maximum(np.abs(gb), np.abs(nb)), 1e-8)
        assert np.max(np.abs(gw - nw) / denom_w) < 1e-4
        assert np.max(np.abs(gb - nb) / denom_b) < 1e-4


# -- training -------------------------------------------------------------------


def separable_problem():
    # 20 examples, 4 features; class k is identified by feature k
    rows, labels = [], []
    for k in range(4):
        for _ in range(5):
            rows.append([k])
            labels.append(k)
    return make_matrix(rows, labels, 4)


def test_training_drives_separable_loss_below_005():
    m = separable_problem()
    hp = HyperParams(
        l1_coefficient=0.0,
        initial_learning_rate=2.0,
        decay_rate=1.0,
        decay_steps=1000,
        batch_size=20,
        max_epochs=500,
        patience=500,
        seed=1,
    )
    result = train(m, m.y["rrt"], m, m.y["rrt"], hp)
    final = loss(result.params, m, m.y["rrt"])
    assert final < 0.05


def test_huge_l1_zeroes_all_weights_and_uniformizes():
    m = separable_problem()
    hp = HyperParams(
        l1_coefficient=1e3,
        initial_learning_rate=0.5,
        decay_rate=1.0,
        decay_steps=1000,
        batch_size=20,
        max_epochs=20,
        patience=20,
        seed=1,
    )
    result = train(m, m.y["rrt"], m, m.y["rrt"], hp)
    assert np.all(result.params.weights == 0.0)
    s, p = predict_matrix(result.params, m)
    # with zero weights only the bias differentiates classes; probabilities are
    # identical across rows
    assert np.allclose(s, s[0])


def test_training_log_bit_identical_across_runs():
    m = separable_problem()
    hp = HyperParams(initial_learning_rate=0.5, batch_size=4, max_epochs=8, seed=77)
    a = train(m, m.y["rrt"], m, m.y["rrt"], hp)
    b = train(m, m.y["rrt"], m, m.y["rrt"], hp)
    assert [dataclasses.astuple(e) for e in a.log] == [
        dataclasses.astuple(e) for e in b.log
    ]
    assert np.array_equal(a.params.weights, b.params.weights)
    assert np.array_equal(a.params.bias, b.params.bias)


def test_full_batch_descent_never_increases_loss_without_l1():
    rng = np.random.default_rng(3)
    m = rand_problem(rng, 30, 10)
    y = m.y["rrt"]
    w = np.zeros((C, 10))
    b = np.zeros(C)
    rows = np.arange(30, dtype=np.int64)
    prev = loss(ModelParams(w, b), m, y)
    for _ in range(60):
        _, gw, gb = loss_and_grad(w, b, m, y, rows)
        w -= 0.1 * gw
        b -= 0.1 * gb
        cur = loss(ModelParams(w, b), m, y)
        assert cur <= prev + 1e-12
        prev = cur


def test_early_stopping_returns_best_validation_params():
    m = separable_problem()
    hp = HyperParams(initial_learning_rate=1.0, batch_size=20, max_epochs=50, patience=3, seed=5)
    result = train(m, m.y["rrt"], m, m.y["rrt"], hp)
    assert result.best_valid_loss == min(e.valid_loss for e in result.log)
    assert result.best_valid_loss == pytest.approx(
        validation_loss(result.params, m, m.y["rrt"])
    )


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_train_rejects_nonfinite_loss():
    # rows with several active features so one absurd step overflows the logits
    m = make_matrix([[0, 1, 2, 3]] * 6, [0, 1, 2, 3, 4, 5], 4)
    hp = HyperParams(initial_learning_rate=1e308, batch_size=6, max_epochs=10, seed=1)
    with pytest.raises(NumericError):
        train(m, m.y["rrt"], m, m.y["rrt"], hp)


# -- tune ------------------------------------------------------------------------


def _hp(l1=0.0, lr=0.5, epochs=6, seed=9):
    return HyperParams(
        l1_coefficient=l1,
        initial_learning_rate=lr,
        decay_rate=1.0,
        decay_steps=1000,
        batch_size=20,
        max_epochs=epochs,
        patience=epochs,
        seed=seed,
    )


def test_tune_singleton_grid_returns_it():
    m = separable_problem()
    hp = _hp()
    best, result, evaluated = tune([hp], m, m.y["rrt"], m, m.y["rrt"])
    assert best == hp and len(evaluated) == 1


def test_tune_picks_strictly_better_config():
    m = separable_problem()
    grid = [_hp(l1=50.0), _hp(l1=0.0)]
    best, _, _ = tune(grid, m, m.y["rrt"], m, m.y["rrt"])
    assert best.l1_coefficient == 0.0


def test_tune_deduplicates_grid():
    m = separable_problem()
    hp = _hp()
    _, _, evaluated = tune([hp, hp, hp], m, m.y["rrt"], m, m.y["rrt"])
    assert len(evaluated) == 1


def test_tune_tie_break_prefers_smaller_l1():
    # penalties so large every weight is clipped to zero on every step: the two
    # configs follow identical bias-only trajectories, so losses tie exactly
    m = separable_problem()
    a = _hp(l1=2e3, epochs=3)
    b = _hp(l1=1e3, epochs=3)
    best, _, evaluated = tune([a, b], m, m.y["rrt"], m, m.y["rrt"])
    assert len({v for _, v in evaluated}) == 1
    assert best.l1_coefficient == 1e3


# -- persistence ------------------------------------------------------------------


def test_model_file_round_trip(tmp_path):
    rng = np.random.default_rng(8)
    params = ModelParams(rng.normal(size=(C, 7)), rng.normal(size=C), vocab_hash="cafe")
    hp = HyperParams(seed=4)
    path = tmp_path / "model.bin"
    save_model(path, params, hp, task="rrt", lineage={"stage": "train"})
    loaded, hp2, header = load_model(path, expected_vocab_hash="cafe")
    assert np.array_equal(loaded.weights, params.weights)
    assert np.array_equal(loaded.bias, params.bias)
    assert hp2 == hp
    assert header["task"] == "rrt"
    assert header["lineage"] == {"stage": "train"}


def test_model_load_rejects_wrong_vocab_hash(tmp_path):
    params = ModelParams(np.zeros((C, 3)), np.zeros(C), vocab_hash="cafe")
    path = tmp_path / "model.bin"
    save_model(path, params, HyperParams(), task="rrt")
    with pytest.raises(DataError, match="vocabulary"):
        load_model(path, expected_vocab_hash="beef")


def test_model_load_rejects_bad_magic(tmp_path):
    path = tmp_path / "model.bin"
    path.write_bytes(b"NOTAMODEL")
    with pytest.raises(DataError, match="magic"):
        load_model(path)


def _saved_model(tmp_path):
    params = ModelParams(np.zeros((C, 3)), np.zeros(C), vocab_hash="cafe")
    path = tmp_path / "model.bin"
    save_model(path, params, HyperParams(), task="rrt", lineage={"stage": "train"})
    return path


def _with_header(path, header: bytes) -> None:
    data = path.read_bytes()
    (length,) = struct.unpack("<I", data[8:12])
    path.write_bytes(data[:8] + struct.pack("<I", len(header)) + header + data[12 + length :])


def test_model_with_corrupted_header_bytes_is_a_data_error(tmp_path):
    path = _saved_model(tmp_path)
    data = bytearray(path.read_bytes())
    data[20] ^= 0xFF  # inside the JSON header
    path.write_bytes(bytes(data))
    for read in (read_model_header, load_model):
        with pytest.raises(DataError, match="not UTF-8 JSON"):
            read(path)


@pytest.mark.parametrize(
    "header, message",
    [
        (b'{"task": "rrt"', "not UTF-8 JSON"),
        (b"[1, 2]", "not a JSON object"),
        (b'{"task": "rrt"}', "lacks format_version"),
    ],
)
def test_model_header_must_be_a_complete_json_object(tmp_path, header, message):
    path = _saved_model(tmp_path)
    _with_header(path, header)
    for read in (read_model_header, load_model):
        with pytest.raises(DataError, match=message):
            read(path)


def test_model_header_with_bad_shape_or_hyperparams_is_a_data_error(tmp_path):
    path = _saved_model(tmp_path)
    header = json.loads(_header_bytes(path))
    for key, value, message in (
        ("n_features", "3", "bad n_features"),
        ("n_classes", -1, "bad n_classes"),
        ("hyperparams", {"nope": 1}, "bad hyperparams"),
    ):
        _with_header(path, json.dumps({**header, key: value}).encode("utf-8"))
        with pytest.raises(DataError, match=message):
            load_model(path)
        _with_header(path, json.dumps(header).encode("utf-8"))
    load_model(path)


def _header_bytes(path) -> bytes:
    data = path.read_bytes()
    (length,) = struct.unpack("<I", data[8:12])
    return data[12 : 12 + length]


def test_model_load_refuses_truncated_or_trailing_bytes(tmp_path):
    path = _saved_model(tmp_path)
    data = path.read_bytes()
    path.write_bytes(data + b"\0")
    with pytest.raises(DataError, match="trailing bytes"):
        load_model(path)
    path.write_bytes(data[:-1])
    with pytest.raises(DataError, match="truncated model payload"):
        load_model(path)
    for cut in (10, 40):
        path.write_bytes(data[:cut])
        with pytest.raises(DataError, match="truncated model header"):
            read_model_header(path)
