"""Encoder forward/backward tests, anchored by a finite-difference oracle."""

import json
from collections import Counter
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fdcheck import (
    FD_STEP,
    batch_objective,
    central_diff_grad,
    dense,
    dense_grads,
    max_rel_error,
    mean_pool_model,
    sample_ragged_case,
    sample_smooth_case,
    scalar_objective,
    toy_vocab,
)
from weakpairs.encoder import (
    EncoderModel,
    RowGrad,
    backprop,
    embed_text,
    encode,
    encode_with_trace,
    flat_ids,
    init_model,
    load_checkpoint,
    save_checkpoint,
)
from weakpairs import encoder as encoder_mod
from weakpairs.corpus import PairExample
from weakpairs.errors import DataError
from weakpairs.evaluate import cosine_similarity
from weakpairs.optim import (
    MULTIPLE_NEGATIVES,
    TRIPLET,
    TrainConfig,
    adamw_step,
    init_optimizer,
    lr_at,
    mn_loss,
    train,
    triplet_loss,
)
from weakpairs.textproc import PAD_ID, UNK_ID, build_vocab, clean, encode_ids


class TestInit:
    def test_same_seed_bitwise_identical(self):
        vocab = toy_vocab(10)
        m1 = init_model(vocab, dim=8, seed=42)
        m2 = init_model(vocab, dim=8, seed=42)
        for name in m1.params:
            assert np.array_equal(m1.params[name], m2.params[name])

    def test_pad_row_zeroed(self):
        model = init_model(toy_vocab(5), dim=4, seed=0)
        assert np.all(model.params["embedding"][PAD_ID] == 0.0)

    def test_parameters_within_init_range(self):
        model = init_model(toy_vocab(5), dim=4, seed=1)
        for arr in model.params.values():
            assert np.all(np.abs(arr) <= 0.05)

    @pytest.mark.parametrize("key, value", [("dim", 1), ("dim", 4.0), ("max_len", 0), ("max_len", True)])
    def test_bad_setting_rejected(self, key, value):
        with pytest.raises(ValueError, match=key):
            init_model(toy_vocab(5), seed=0, **{key: value})

    def test_unknown_setting_is_type_error(self):
        with pytest.raises(TypeError, match="version"):
            init_model(toy_vocab(5), seed=0, version=3)

    # the encoder always runs its block: the old setting is no keyword, even at its old default
    @pytest.mark.parametrize("key, value", [("use_block", True), ("normalize_output", False)])
    def test_retired_setting_is_type_error(self, key, value):
        with pytest.raises(TypeError, match=key):
            init_model(toy_vocab(5), seed=0, **{key: value})

    def test_block_shapes(self):
        model = init_model(toy_vocab(5), dim=6, seed=0)
        assert list(model.params) == ["embedding", "w_q", "w_k", "w_v", "w_1", "w_2"]
        assert model.params["w_1"].shape == (6, 12)
        assert model.params["w_2"].shape == (12, 6)


class TestEncode:
    def test_mean_pool_arithmetic(self):
        model = mean_pool_model(toy_vocab(4), dim=2)
        model.params["embedding"][2] = [1.0, 2.0]
        model.params["embedding"][3] = [3.0, 4.0]
        np.testing.assert_allclose(encode(model, [2, 3]), [2.0, 3.0])

    def test_single_token_is_its_embedding(self):
        model = mean_pool_model(toy_vocab(4), dim=3, seed=1)
        np.testing.assert_array_equal(encode(model, [2]), model.params["embedding"][2])

    def test_empty_ids_rejected(self):
        model = init_model(toy_vocab(4), dim=3, seed=0)
        with pytest.raises(ValueError):
            encode(model, [])

    def test_over_max_len_rejected(self):
        model = init_model(toy_vocab(4), dim=3, seed=0, max_len=4)
        with pytest.raises(ValueError):
            encode(model, [2] * 5)

    def test_permutation_invariance(self):
        # no positional signal anywhere: attention + mean pooling commute with
        # token permutations
        rng = np.random.default_rng(7)
        model = init_model(toy_vocab(30), dim=6, seed=3)
        for _ in range(20):
            ids = list(rng.integers(1, len(model.vocab), size=6))
            permuted = list(rng.permutation(ids))
            np.testing.assert_allclose(
                encode(model, ids), encode(model, permuted), rtol=0, atol=1e-12
            )

    def test_output_dimension(self):
        for dim in (2, 5, 16):
            model = init_model(toy_vocab(8), dim=dim, seed=0)
            assert encode(model, [2, 3, 4]).shape == (dim,)

    def test_no_nan_for_finite_parameters(self):
        rng = np.random.default_rng(0)
        for trial in range(30):
            model = init_model(toy_vocab(12), dim=4, seed=trial)
            ids = list(rng.integers(1, 14, size=rng.integers(1, 8)))
            assert np.all(np.isfinite(encode(model, ids)))


class TestTrace:
    def test_trace_path_matches_plain_encode(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            model = init_model(toy_vocab(15), dim=4, seed=int(rng.integers(1e6)))
            ids = list(rng.integers(1, 17, size=5))
            plain = encode(model, ids)
            traced, trace = encode_with_trace(model, *flat_ids(model, [ids]))
            np.testing.assert_array_equal(plain, traced[0])
            relu = np.maximum(trace.h1 @ model.params["w_1"], 0.0)
            assert trace.relu_on.dtype == bool
            assert trace.relu_on.tobytes() == (relu > 0.0).tobytes()
            h2 = trace.h1 + relu @ model.params["w_2"]
            np.testing.assert_allclose(h2.mean(axis=1), trace.pooled)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_trace_pool_is_the_real_mask_over_its_sum_in_the_model_dtype(self, dtype):
        model = init_model(toy_vocab(20), dim=4, seed=14, max_len=16)
        model.params = {name: arr.astype(dtype) for name, arr in model.params.items()}
        id_lists = [[2, 3, 3], [5], [7, 8, 9, 10, 11, 2, 2], [4, 4], [6, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21]]
        _, trace = encode_with_trace(model, *flat_ids(model, id_lists))
        _, real = _padded(id_lists)
        assert trace.pool.dtype == dtype
        assert trace.pool.tobytes() == (real / real.sum(axis=1, keepdims=True)).astype(dtype).tobytes()

    def test_stale_trace_rejected(self):
        model = init_model(toy_vocab(5), dim=3, seed=0)
        _, trace = encode_with_trace(model, *flat_ids(model, [[2, 3]]))
        model.version += 1  # simulate a parameter update
        with pytest.raises(ValueError, match="stale trace"):
            backprop(model, trace, np.ones((1, 3)))


class TestBackprop:
    def test_zero_grad_out_gives_zero_gradients(self):
        model = init_model(toy_vocab(8), dim=4, seed=5)
        _, trace = encode_with_trace(model, *flat_ids(model, [[2, 3, 4]]))
        grads = dense_grads(model, backprop(model, trace, np.zeros((1, 4))))
        for arr in grads.values():
            assert np.all(arr == 0.0)

    def test_mean_gradient_by_hand(self):
        # with the block zeroed, d<g, mean>/d row_t = g / n_tokens per occurrence
        model = mean_pool_model(toy_vocab(6), dim=3)
        g = np.array([1.0, -2.0, 0.5])
        _, trace = encode_with_trace(model, *flat_ids(model, [[4, 4, 5]]))
        grads = dense_grads(model, backprop(model, trace, [g]))
        np.testing.assert_allclose(grads["embedding"][4], 2.0 * g / 3.0)
        np.testing.assert_allclose(grads["embedding"][5], g / 3.0)

    def test_untouched_rows_zero_and_pad_forced_zero(self):
        model = init_model(toy_vocab(8), dim=3, seed=1)
        _, trace = encode_with_trace(model, *flat_ids(model, [[3]]))
        grads = dense_grads(model, backprop(model, trace, np.ones((1, 3))))
        assert np.all(grads["embedding"][PAD_ID] == 0.0)
        touched = np.any(grads["embedding"] != 0.0, axis=1)
        assert list(np.nonzero(touched)[0]) == [3]

    def test_grad_out_shape_checked(self):
        model = init_model(toy_vocab(5), dim=3, seed=0)
        _, trace = encode_with_trace(model, *flat_ids(model, [[2]]))
        with pytest.raises(ValueError):
            backprop(model, trace, np.ones((1, 4)))

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(31)
        for _ in range(8):
            model, ids, grad_out = sample_smooth_case(rng, vocab_tokens=12)
            _, trace = encode_with_trace(model, *flat_ids(model, [ids]))
            analytic = dense_grads(model, backprop(model, trace, [grad_out]))
            for name, param in model.params.items():
                numeric = central_diff_grad(
                    lambda: scalar_objective(model, ids, grad_out), param, FD_STEP
                )
                assert max_rel_error(analytic[name], numeric) < 1e-4, name

    def test_repeated_token_gradient_accumulates(self):
        model = mean_pool_model(toy_vocab(6), dim=2)
        g = np.array([1.0, 1.0])
        _, trace = encode_with_trace(model, *flat_ids(model, [[2, 2, 2, 2]]))
        grads = dense_grads(model, backprop(model, trace, [g]))
        np.testing.assert_allclose(grads["embedding"][2], g)  # 4 occurrences of g/4


class TestFloat32Training:
    """A float32 model trains in float32 and stays its float64 twin to float32 rounding.

    The CLI trains float32 models; the oracles above check the float64
    arithmetic they share, so each float32 gradient is checked against its
    twin's.
    """

    @staticmethod
    def twins(dim=32, seed=23):
        model64 = init_model(toy_vocab(60), dim=dim, seed=seed)
        model64.params = {name: arr.astype(np.float32).astype(np.float64) for name, arr in model64.params.items()}
        model32 = EncoderModel(vocab=model64.vocab, params={name: arr.astype(np.float32)
                                                            for name, arr in model64.params.items()}, dim=dim)
        return model32, model64

    @staticmethod
    def loss_grads(loss, vecs):
        """The gradient of ``loss`` on the (anchors, positives) stacked in ``vecs``, one row per sentence."""
        anchors, positives = np.split(vecs, 2)
        if loss == MULTIPLE_NEGATIVES:
            _, grad_a, grad_p = mn_loss(anchors, positives)
            return np.concatenate([grad_a, grad_p])
        negatives = np.roll(np.arange(len(anchors)), 1)
        _, (grad_a, grad_p, grad_n) = triplet_loss(anchors, positives, positives[negatives])
        np.add.at(grad_p, negatives, grad_n)
        return np.concatenate([grad_a, grad_p])

    @pytest.mark.parametrize("loss", [MULTIPLE_NEGATIVES, TRIPLET])
    def test_gradients_are_float32_and_the_float64_twins_to_rounding(self, loss):
        model32, model64 = self.twins()
        rng = np.random.default_rng(4)
        lengths = [1, 9, 3, 16, 2, 7, 12, 5]  # a padded batch of four pairs
        id_lists = [[int(t) for t in rng.integers(1, len(model64.vocab), size=n)] for n in lengths]
        grads = {}
        for model in (model32, model64):
            vecs, trace = encode_with_trace(model, *flat_ids(model, id_lists))
            assert vecs.dtype == model.params["embedding"].dtype
            grads[model.params["embedding"].dtype] = backprop(model, trace, self.loss_grads(loss, vecs))
        grads32, grads64 = grads[np.dtype(np.float32)], grads[np.dtype(np.float64)]
        assert grads32.keys() == grads64.keys() == model32.params.keys()
        for name, grad in grads32.items():
            twin = grads64[name]
            if name == "embedding":
                assert grad.ids.tolist() == twin.ids.tolist()
                grad, twin = grad.rows, twin.rows
            assert grad.dtype == np.float32, name
            assert np.linalg.norm(grad - twin) <= 1e-5 * np.linalg.norm(twin), name

    def test_adamw_keeps_parameters_and_moments_float32(self):
        model32, _ = self.twins(dim=8)
        state = init_optimizer(model32.params)
        id_lists = [[3, 4, 5], [6], [7, 8], [9, 10, 11, 12]]
        for step in range(2):
            vecs, trace = encode_with_trace(model32, *flat_ids(model32, id_lists))
            grads = backprop(model32, trace, self.loss_grads(MULTIPLE_NEGATIVES, vecs))
            adamw_step(model32.params, grads, state, lr=lr_at(step + 1, 10, 1e-3))
            model32.version += 1
        for arrays in (model32.params, state.m, state.v):
            assert {name: arr.dtype for name, arr in arrays.items()} == dict.fromkeys(model32.params, np.float32)


def _single_sentence_grads(model, id_lists, grad_out):
    """The reference: one trace and one backprop per sentence, summed."""
    total = {name: np.zeros_like(param) for name, param in model.params.items()}
    for ids, g in zip(id_lists, grad_out):
        _, trace = encode_with_trace(model, *flat_ids(model, [ids]))
        for name, grad in dense_grads(model, backprop(model, trace, [g])).items():
            total[name] += grad
    return total


@st.composite
def ragged_batches(draw):
    """A random model, 1-7 sentences of 1-16 ids, a (B, dim) grad_out and a row permutation."""
    dim = draw(st.integers(2, 6))
    model = init_model(
        toy_vocab(20),
        dim=dim,
        seed=draw(st.integers(0, 2**31 - 1)),
        max_len=16,
    )
    id_lists = draw(st.lists(st.lists(st.integers(1, 21), min_size=1, max_size=16), min_size=1, max_size=7))
    grad_out = np.random.default_rng(draw(st.integers(0, 2**31 - 1))).standard_normal((len(id_lists), dim))
    return model, id_lists, grad_out, draw(st.permutations(range(len(id_lists))))


def _reference_forward(model, ids):
    """One sentence, no padding: h2 = relu @ w_2 + h1 at every position, then the mean over positions."""
    p = model.params
    x = p["embedding"][ids]
    scores = (x @ p["w_q"]) @ (x @ p["w_k"]).T / np.sqrt(model.dim)
    attn = np.exp(scores - scores.max(axis=1, keepdims=True))
    attn /= attn.sum(axis=1, keepdims=True)
    h1 = attn @ (x @ p["w_v"]) + x
    h2 = np.maximum(h1 @ p["w_1"], 0.0) @ p["w_2"] + h1
    return h2.mean(axis=0)


def _padded(id_lists):
    """The reference padding, row by row: ids right-padded with PAD_ID to the longest list, and the real-token mask."""
    lengths = np.array([len(ids) for ids in id_lists])
    ids = np.full((len(id_lists), lengths.max()), PAD_ID, dtype=np.intp)
    for row, sequence in zip(ids, id_lists):
        row[: len(sequence)] = sequence
    return ids, np.arange(lengths.max()) < lengths[:, None]


def _masked_encode(model, id_lists):
    """The reference: ``_encode`` of the reference padding, with the pool weights and key bias of its real-token
    mask.

    Returns the embeddings and the activations by ``ForwardTrace`` field name.
    """
    ids, real = _padded(id_lists)
    with np.errstate(divide="ignore"):
        key_bias = np.log(real, dtype=np.float64)
    return encoder_mod._encode(model.params, real / real.sum(axis=1, keepdims=True), key_bias,
                               encoder_mod._token_rows(model.params, ids))


def _bag_counts(pool, key_bias):
    """The (B, L) counts a chunk's float32 pool weights and key bias stand for, 0 at padding.

    Each key bias is float32's log(count), so its exp rounds back to the count; the pool weights must then be
    count / length, to float32.
    """
    counts = np.rint(np.exp(key_bias.astype(np.float64))).astype(np.intp)
    with np.errstate(divide="ignore"):
        assert np.log(counts, dtype=np.float32).tobytes() == key_bias.tobytes()
    assert (counts / counts.sum(axis=1, keepdims=True)).astype(np.float32).tobytes() == pool.tobytes()
    return counts


def _per_text_forward(model, texts):
    """The reference: the float64 per-position forward of each text alone."""
    return np.array([encode(model, encode_ids(model.vocab, clean(text), model.max_len)) for text in texts])


# eval's float32 forward keeps each row within ROW_RTOL of that row's length and each cosine within COSINE_ATOL
ROW_RTOL, COSINE_ATOL = 1e-5, 1e-6


def _assert_within_float32_rounding(vecs, reference):
    """Row by row, and in every cosine between two rows, ``vecs`` is ``reference`` to float32 rounding."""
    row_error = np.linalg.norm(vecs - reference, axis=1) / np.linalg.norm(reference, axis=1)
    assert row_error.max() <= ROW_RTOL
    np.testing.assert_allclose(cosine_similarity(vecs[:, None], vecs[None]),
                               cosine_similarity(reference[:, None], reference[None]), rtol=0, atol=COSINE_ATOL)


# 2,002 tokens, of which the texts below use at most 40 and UNK
TABLE_VOCAB = build_vocab(["w%d" % i for i in range(2000)], max_size=2002)


def _table_texts(seed, one_token_texts):
    """40 ragged texts and two chunks' worth of equal-length ones, sharing some ids, plus an all-UNK, an
    empty and an over-long text and one-token texts."""
    rng = np.random.default_rng(seed)
    texts = [" ".join(f"w{t}" for t in rng.integers(0, 40, size=rng.integers(2, 30))) for _ in range(40)]
    texts += [" ".join(f"w{t}" for t in rng.integers(0, 40, size=31)) for _ in range(2 * encoder_mod._EMBED_CHUNK)]
    texts += ["zz qq zz", "", " ".join(f"w{t}" for t in rng.integers(0, 40, size=70))]
    texts += [f"w{t}" for t in range(one_token_texts)]
    return [texts[i] for i in rng.permutation(len(texts))]


def _softmax_reference(scores):
    """The reference: each row less its max over the last axis, exp, then over its sum."""
    shifted = np.exp(scores - scores.max(axis=-1, keepdims=True))
    return shifted / shifted.sum(axis=-1, keepdims=True)


class TestSoftmaxRows:
    @staticmethod
    def _scores(rng, width, dtype):
        """(4, 6, width) scores: plain rows; rows padded with -inf keys; rows of values <= 0 whose max is
        +0.0 or -0.0, or both; and rows spread so far that most of their exps underflow, with -inf keys."""
        scores = rng.standard_normal((4, 6, width))
        scores[1, :, rng.integers(1, width + 1):] = -np.inf  # padding never takes a whole row
        signed_zero = -np.abs(scores[2])
        signed_zero[:, 0] = -0.0
        signed_zero[:, rng.integers(0, width, size=6) * (rng.random(6) < 0.7)] = 0.0
        signed_zero[rng.random((6, width)) < 0.2] = -np.inf
        signed_zero[:, 0] = np.where(rng.random(6) < 0.5, -0.0, 0.0)
        scores[2] = signed_zero
        scores[3] *= 200.0
        scores[3, :, 1:][rng.random((6, width - 1)) < 0.3] = -np.inf
        return scores.astype(dtype)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_is_the_last_axis_reference_bit_for_bit(self, dtype):
        rng = np.random.default_rng(31)
        for width in range(1, 71):
            scores = self._scores(rng, width, dtype)
            expected = _softmax_reference(scores)
            out = encoder_mod._softmax_rows(scores)
            assert out is scores  # in place
            assert out.dtype == dtype
            assert out.tobytes() == expected.tobytes(), width

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_a_row_holding_nan_stays_nan(self, dtype):
        rng = np.random.default_rng(32)
        for width in range(1, 71):
            scores = self._scores(rng, width, dtype)
            scores[0, 2, rng.integers(width)] = np.nan
            scores[1, 4, 0] = np.nan
            nan_rows = np.isnan(scores).any(axis=-1)
            expected = _softmax_reference(scores)
            out = encoder_mod._softmax_rows(scores)
            assert np.isnan(out[nan_rows]).all() and np.isnan(expected[nan_rows]).all()
            assert out[~nan_rows].tobytes() == expected[~nan_rows].tobytes(), width


class TestBatch:
    def test_forward_matches_per_position_reference(self):
        rng = np.random.default_rng(72)
        for _ in range(20):
            model = init_model(toy_vocab(20), dim=int(rng.integers(2, 9)), seed=int(rng.integers(2**31)), max_len=16)
            lengths = [1, *rng.integers(1, 17, size=rng.integers(0, 7))]
            id_lists = [list(rng.integers(1, 22, size=n)) for n in rng.permutation(lengths)]
            vecs, _ = encode_with_trace(model, *flat_ids(model, id_lists))
            reference = np.array([_reference_forward(model, ids) for ids in id_lists])
            assert np.max(np.abs(vecs - reference)) <= 1e-12 * np.max(np.abs(reference))

    @settings(max_examples=100)
    @given(ragged_batches())
    def test_padding_changes_no_row_and_no_gradient(self, case):
        model, id_lists, grad_out, perm = case
        vecs, trace = encode_with_trace(model, *flat_ids(model, id_lists))
        assert trace.ids.tobytes() == _padded(id_lists)[0].tobytes()
        for row, ids in zip(vecs, id_lists):
            np.testing.assert_allclose(row, encode(model, ids), rtol=0, atol=1e-12)
        permuted, _ = encode_with_trace(model, *flat_ids(model, [id_lists[i] for i in perm]))
        np.testing.assert_allclose(permuted, vecs[perm], rtol=0, atol=1e-12)
        batched = dense_grads(model, backprop(model, trace, grad_out))
        for name, reference in _single_sentence_grads(model, id_lists, grad_out).items():
            assert np.max(np.abs(batched[name] - reference)) <= 1e-12 * max(np.max(np.abs(reference)), 1e-300), name

    @settings(max_examples=100)
    @given(ragged_batches())
    def test_embedding_gradient_is_compact_and_bitwise_the_dense_sum(self, case):
        model, id_lists, grad_out, _ = case
        _, trace = encode_with_trace(model, *flat_ids(model, id_lists))
        seen = []

        def recording(ids, values):
            seen.append((ids.copy(), values.copy()))
            return real_sum(ids, values)

        real_sum = encoder_mod._sum_rows_by_id
        with mock.patch.object(encoder_mod, "_sum_rows_by_id", recording):
            grad = backprop(model, trace, grad_out)["embedding"]
        ((ids, values),) = seen
        np.testing.assert_array_equal(ids, trace.ids.ravel())  # padded positions included
        assert isinstance(grad, RowGrad)
        assert np.all(np.diff(grad.ids) > 0)  # sorted and unique
        assert PAD_ID not in grad.ids
        assert set(grad.ids.tolist()) == {i for sentence in id_lists for i in sentence}
        # the dense buffer backprop used to fill: padded positions add only zeros to the PAD row
        reference = np.zeros_like(model.params["embedding"])
        np.add.at(reference, ids, values)
        assert dense(grad, len(model.vocab)).tobytes() == reference.tobytes()

    @settings(max_examples=200)
    @given(st.data())
    def test_row_sums_are_bitwise_np_add_at_into_zeros(self, data):
        # repeated ids, PAD (possibly every id), -0.0, and terms whose sum depends on their order
        width = data.draw(st.integers(1, 5))
        ids = np.array(data.draw(st.lists(st.integers(0, 9), min_size=1, max_size=40)), dtype=np.intp)
        if data.draw(st.booleans()):
            ids[:] = PAD_ID
        floats = st.sampled_from([0.0, -0.0, 0.1, 0.2, 0.3, 1.0, 1e16, -1e16]) | st.floats(-1e6, 1e6)
        values = np.array(data.draw(st.lists(floats, min_size=len(ids) * width, max_size=len(ids) * width)))
        values = values.reshape(len(ids), width)
        grad = encoder_mod._sum_rows_by_id(ids, values)
        real = ids != PAD_ID
        reference = np.zeros((10, width))
        np.add.at(reference, ids[real], values[real])
        assert grad.ids.tolist() == sorted(set(ids[real].tolist()))
        assert grad.rows.tobytes() == reference[grad.ids].tobytes()

    def test_ragged_gradients_match_finite_differences(self):
        rng = np.random.default_rng(1002)
        for _ in range(4):
            model, id_lists, grad_out = sample_ragged_case(rng, vocab_tokens=12)
            _, trace = encode_with_trace(model, *flat_ids(model, id_lists))
            analytic = dense_grads(model, backprop(model, trace, grad_out))
            for name, param in model.params.items():
                numeric = central_diff_grad(lambda: batch_objective(model, id_lists, grad_out), param)
                assert max_rel_error(analytic[name], numeric) < 1e-4, name

    def test_embed_text_is_the_per_position_forward_to_float32_rounding(self):
        # the default width; a chunk's worth of one-token texts, and the empty and all-UNK texts, fill a chunk
        # whose widest text has one distinct id
        model = init_model(TABLE_VOCAB, seed=8)
        chunks = []

        def recording(params, pool, key_bias, rows):
            chunks.append(_bag_counts(pool, key_bias))
            assert {arr.dtype for arr in (pool, key_bias, *rows, *params.values())} == {np.dtype(np.float32)}
            return real_encode(params, pool, key_bias, rows)

        real_encode = encoder_mod._encode
        widths = []
        for one_token_texts in (2, encoder_mod._EMBED_CHUNK):
            texts = _table_texts(one_token_texts, one_token_texts)
            chunks.clear()
            with mock.patch.object(encoder_mod, "_encode", recording):
                vecs = embed_text(model, texts)
            assert vecs.dtype == np.float32
            _assert_within_float32_rounding(vecs, _per_text_forward(model, texts))
            # each text is one position per distinct id, holding the id's count in the text as cut at max_len
            bags = {text: sorted(Counter(encode_ids(model.vocab, clean(text), model.max_len)).values())
                    for text in texts}
            assert sorted(sorted(row[row > 0].tolist()) for counts in chunks for row in counts) == sorted(bags.values())
            # a chunk is as wide as the largest distinct count among its texts
            assert all(counts.shape[1] == (counts > 0).sum(axis=1).max() for counts in chunks)
            # the over-long text, cut, has the most distinct ids
            longest = max(texts, key=lambda text: len(text.split()))
            assert max(counts.shape[1] for counts in chunks) == len(bags[longest])
            widths += [(counts.shape[1], bool(counts.all())) for counts in chunks]
        # unpadded chunks of one distinct id, and padded ones
        assert (1, True) in widths
        assert any(not unpadded for _, unpadded in widths)

    @pytest.mark.parametrize("dim", [2, 17, 33, 64, 65])
    def test_embed_text_is_the_per_position_forward_to_float32_rounding_at_any_width(self, dim):
        model = init_model(TABLE_VOCAB, dim=dim, seed=dim)
        texts = _table_texts(dim, encoder_mod._EMBED_CHUNK)
        _assert_within_float32_rounding(embed_text(model, texts), _per_text_forward(model, texts))

    def test_embed_text_returns_the_same_bytes_on_every_call(self):
        model = init_model(TABLE_VOCAB, seed=10)
        texts = _table_texts(10, encoder_mod._EMBED_CHUNK)
        assert embed_text(model, texts).tobytes() == embed_text(model, texts).tobytes()

    def test_unpadded_batch_traces_the_same_bits_as_with_the_key_mask(self):
        model = init_model(TABLE_VOCAB, dim=8, seed=11)
        model.params["embedding"][5] = 0.0  # token 5 scores exactly zero against every key
        rng = np.random.default_rng(3)
        id_lists = [[5, *rng.integers(2, 42, size=5)] for _ in range(4)]
        vecs, trace = encode_with_trace(model, *flat_ids(model, id_lists))
        masked, acts = _masked_encode(model, id_lists)
        assert vecs.tobytes() == masked.tobytes()
        # the trace keeps only where the relu is positive; rebuild the relu from its h1
        relu = np.maximum(trace.h1 @ model.params["w_1"], 0.0)
        assert acts.pop("relu").tobytes() == relu.tobytes()
        assert trace.relu_on.tobytes() == (relu > 0.0).tobytes()
        assert sorted(acts) == sorted(name for name in vars(trace) if name not in ("ids", "model_version", "relu_on"))
        for name, arr in acts.items():
            assert getattr(trace, name).tobytes() == arr.tobytes(), name

    def test_token_layer_runs_once_per_call_in_eval_and_per_position_in_training(self):
        model = init_model(TABLE_VOCAB, dim=8, seed=9)
        calls = []

        def recording(params, ids):
            calls.append((params, ids))
            return real_token_rows(params, ids)

        real_token_rows = encoder_mod._token_rows
        texts = _table_texts(1, 2)
        with mock.patch.object(encoder_mod, "_token_rows", recording):
            embed_text(model, texts)
            ((table_params, table_ids),) = calls
            distinct = {i for text in texts for i in encode_ids(model.vocab, clean(text), model.max_len)}
            distinct = sorted(distinct | {PAD_ID})
            assert len(distinct) <= 42  # 40 words, UNK and PAD, of 2,002 tokens
            # one float32 cast per call, projected whole: the embedding rows of the call's distinct ids, and the
            # block matrices
            assert table_ids == slice(None)
            expected = dict(model.params, embedding=model.params["embedding"][distinct])
            assert table_params.keys() == expected.keys()
            for name, param in expected.items():
                assert table_params[name].tobytes() == param.astype(np.float32).tobytes(), name

            calls.clear()
            embed_text(model, texts + [f"w{t}" for t in range(encoder_mod._EMBED_CHUNK)])  # a one-token chunk
            assert len(calls) == 1

            calls.clear()
            pairs = [PairExample(texts[i], texts[i + 1], "qt", f"a{i}", f"p{i}") for i in range(4)]
            train(model, pairs, TrainConfig(batch_size=4, epochs=1))
            ((step_params, step_ids),) = calls
            assert step_params is model.params
            lengths = [len(encode_ids(model.vocab, text, model.max_len)) for text in texts[:5]]
            assert step_ids.shape == (8, max(lengths))

    def test_training_forward_is_float64_and_keeps_its_bits(self):
        model = init_model(TABLE_VOCAB, dim=8, seed=13)
        id_lists = [[5, 9, 17, 3], [8, 2], [40, 41, 7]]
        vecs, trace = encode_with_trace(model, *flat_ids(model, id_lists))
        arrays = {name: value for name, value in vars(trace).items() if isinstance(value, np.ndarray)}
        assert {name for name, arr in arrays.items() if arr.dtype != np.float64} == {"ids", "relu_on"}
        # the body written out in float64, in the order of its operations
        p = model.params
        ids, real = _padded(id_lists)
        x = p["embedding"][ids]
        pool = real / real.sum(axis=1, keepdims=True)
        scores = (x @ p["w_q"]) @ (x @ p["w_k"]).transpose(0, 2, 1) / np.sqrt(model.dim)
        scores += np.where(real, 0.0, -np.inf)[:, None, :]
        attn = np.exp(scores - scores.max(axis=-1, keepdims=True))
        attn /= attn.sum(axis=-1, keepdims=True)
        h1 = attn @ (x @ p["w_v"]) + x
        pooled_relu = (pool[:, None, :] @ np.maximum(h1 @ p["w_1"], 0.0))[:, 0]
        pooled = (pool[:, None, :] @ h1)[:, 0] + pooled_relu @ p["w_2"]
        for name, reference in dict(pool=pool, attn=attn, h1=h1, pooled_relu=pooled_relu, pooled=pooled).items():
            assert arrays[name].tobytes() == reference.tobytes(), name
        assert vecs.tobytes() == pooled.tobytes()

    def test_embed_text_keeps_row_order_across_chunks(self):
        vocab = build_vocab(["w%d" % i for i in range(40)], max_size=50)
        model = init_model(vocab, dim=5, seed=6)
        rng = np.random.default_rng(2)
        count = 2 * encoder_mod._EMBED_CHUNK + 4  # three chunks
        distinct = [" ".join(f"w{t}" for t in rng.integers(0, 40, size=rng.integers(1, 20))) for _ in range(count)]
        texts = [distinct[i] for i in rng.integers(0, count, size=2 * count - 3)]  # some repeat
        vecs = embed_text(model, texts)
        assert vecs.shape == (len(texts), 5)
        for text, row in zip(texts, vecs):
            np.testing.assert_array_equal(row, vecs[texts.index(text)])  # a repeat copies its first row
        _assert_within_float32_rounding(vecs, np.array([embed_text(model, [text])[0] for text in texts]))


def _words(ids):
    """A text of the TABLE_VOCAB words ``w<i>``, one per i in ``ids``."""
    return " ".join(f"w{t}" for t in ids)


def _per_chunk_embed_text(model, texts):
    """The reference: ``embed_text`` with its per-chunk bookkeeping, the forward written out.

    Each chunk computes its pool weights and log(counts) from its own (B, L) counts, indexes the bags once per
    table array, and takes each row's max over the last axis of its scores.
    """
    slot = {text: i for i, text in enumerate(dict.fromkeys(texts))}
    flat, _, lengths = flat_ids(model, (encode_ids(model.vocab, clean(text), model.max_len) for text in slot))
    seen = np.bincount(flat, minlength=len(model.vocab)) > 0
    params = {name: (arr[seen] if name == "embedding" else arr).astype(np.float32)
              for name, arr in model.params.items()}
    size = len(params["embedding"])
    table = encoder_mod._token_rows(params, slice(None))
    slots = (np.cumsum(seen) - 1)[flat]
    keys = np.repeat(np.arange(len(slot)) * size, lengths)
    keys += slots[:-1]
    keys, counts = np.unique(keys, return_counts=True)
    widths = np.bincount(keys // size, minlength=len(slot))
    bag_slots, counts = np.append(keys % size, slots[-1]), np.append(counts, 0)
    bag_starts = np.cumsum(widths) - widths
    order = np.argsort(widths, kind="stable")
    distinct = np.empty((len(slot), model.dim), dtype=np.float32)
    for start in range(0, len(order), encoder_mod._EMBED_CHUNK):
        rows = order[start : start + encoder_mod._EMBED_CHUNK]
        index, _ = encoder_mod._batch_index(bag_starts[rows], widths[rows])
        chunk = counts[index]
        x, q, k, v = (arr.take(bag_slots[index], axis=0) for arr in table)
        pool = (chunk / chunk.sum(axis=1, keepdims=True)).astype(np.float32)
        scores = q @ k.transpose(0, 2, 1)
        scores /= np.sqrt(model.dim, dtype=np.float32)
        with np.errstate(divide="ignore"):
            scores += np.log(chunk, dtype=np.float32)[:, None, :]
        scores -= scores.max(axis=-1, keepdims=True)
        np.exp(scores, out=scores)
        scores /= scores.sum(axis=-1, keepdims=True)
        h1 = scores @ v
        h1 += x
        pooled_relu = (pool[:, None, :] @ np.maximum(h1 @ params["w_1"], 0.0))[:, 0]
        distinct[rows] = (pool[:, None, :] @ h1)[:, 0] + pooled_relu @ params["w_2"]
    return distinct[[slot[text] for text in texts]]


class TestBags:
    """Eval encodes each text as its bag of distinct ids, one position per id, weighted by its count."""

    def test_one_token_repeated_to_max_len(self):
        model = init_model(TABLE_VOCAB, seed=21)
        texts = [_words([3] * model.max_len), "w3", _words([7] * 5 + [9])]
        vecs = embed_text(model, texts)
        _assert_within_float32_rounding(vecs, _per_text_forward(model, texts))
        # one key, whatever its count, takes all the attention and all the pool weight
        assert vecs[0].tobytes() == vecs[1].tobytes()

    def test_multi_token_all_unk_text(self):
        # most of the large-vocabulary workload's benchmark tokens are UNK
        model = init_model(TABLE_VOCAB, seed=22)
        texts = ["zz qq yy xx zz vv", "zz", "zz w1 qq w2 yy w1", "w5 zz"]
        assert set(encode_ids(model.vocab, texts[0], model.max_len)) == {UNK_ID}
        vecs = embed_text(model, texts)
        _assert_within_float32_rounding(vecs, _per_text_forward(model, texts))
        assert vecs[0].tobytes() == vecs[1].tobytes()

    def test_text_cut_at_max_len_whose_cut_changes_its_bag(self):
        model = init_model(TABLE_VOCAB, seed=23, max_len=16)
        kept = [1, 2, 2, 3] * 4
        # the cut drops two ids and one more of w1
        texts = [_words(kept + [1, 30, 31]), _words([4, 5, 5])]
        cut, whole = (Counter(encode_ids(model.vocab, texts[0], max_len)) for max_len in (model.max_len, 64))
        assert cut.keys() < whole.keys() and cut != whole
        vecs = embed_text(model, texts)
        _assert_within_float32_rounding(vecs, _per_text_forward(model, texts))
        assert vecs.tobytes() == embed_text(model, [_words(kept), texts[1]]).tobytes()

    def test_chunk_mixing_count_one_bags_and_repeated_bags(self):
        model = init_model(TABLE_VOCAB, seed=24)
        texts = [_words([1, 2, 3, 4]), _words([5, 5, 6, 7, 8]), _words([9, 9, 9, 10, 10, 11, 12]),
                 _words([13, 14, 15]), _words([16, 16, 17, 18]), "zz w19 w20 zz"]
        assert len(texts) <= encoder_mod._EMBED_CHUNK
        with mock.patch.object(encoder_mod, "_encode", wraps=encoder_mod._encode) as spy:
            vecs = embed_text(model, texts)
        _assert_within_float32_rounding(vecs, _per_text_forward(model, texts))
        # one chunk: bags of count 1, bags with repeats, and padding
        ((_, pool, key_bias, _),) = [call.args for call in spy.call_args_list]
        counts = _bag_counts(pool, key_bias)
        assert counts.shape == (len(texts), 4)
        assert any(set(row.tolist()) == {1} for row in counts)
        assert any(set(row.tolist()) == {0, 1} for row in counts)
        assert any(row.max() > 1 and row.min() == 0 for row in counts)
        assert any(row.max() > 1 and row.min() > 0 for row in counts)

    @settings(max_examples=60)
    @given(st.lists(st.sampled_from(["w1", "w2", "w3", "w17", "zz", "qq"]), min_size=1, max_size=64)
           .flatmap(lambda tokens: st.tuples(st.just(tokens), st.permutations(tokens))))
    def test_any_reordering_of_a_text_embeds_to_the_same_bytes(self, case):
        tokens, reordered = case
        model = init_model(TABLE_VOCAB, dim=16, seed=25)
        beside = ["w1 w2 w2", "w40 zz w5 w40", "w3"]
        vecs = embed_text(model, [*beside, " ".join(tokens)])
        assert vecs.tobytes() == embed_text(model, [*beside, " ".join(reordered)]).tobytes()

    @pytest.mark.parametrize("dim, one_token_texts", [(2, 2), (17, encoder_mod._EMBED_CHUNK), (64, 2),
                                                      (64, encoder_mod._EMBED_CHUNK)])
    def test_pool_weights_and_key_bias_built_once_per_call_give_the_per_chunk_bits(self, dim, one_token_texts):
        # ragged texts, one cut at max_len, an empty and an all-UNK one, repeats and one-token texts; with
        # _EMBED_CHUNK of those, one chunk is one id wide
        model = init_model(TABLE_VOCAB, dim=dim, seed=27 + dim)
        texts = _table_texts(dim + one_token_texts, one_token_texts)
        texts += texts[::7]
        expected = _per_chunk_embed_text(model, texts)
        assert embed_text(model, texts).tobytes() == expected.tobytes()
        model.params = {name: arr.astype(np.float32) for name, arr in model.params.items()}
        assert embed_text(model, texts).tobytes() == _per_chunk_embed_text(model, texts).tobytes()

    def test_empty_call_returns_no_rows(self):
        model = init_model(TABLE_VOCAB, dim=12, seed=26)
        vecs = embed_text(model, [])
        assert vecs.shape == (0, 12)
        assert vecs.dtype == np.float32


class TestCheckpoint:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_roundtrip_bitwise(self, tmp_path, dtype):
        vocab = build_vocab(["alpha beta gamma delta"], max_size=20)
        model = init_model(vocab, dim=6, seed=9, max_len=32)
        model.params = {name: arr.astype(dtype) for name, arr in model.params.items()}
        model.version = 17
        path = tmp_path / "model.ckpt"
        save_checkpoint(model, path)
        loaded = load_checkpoint(path)
        assert loaded.dim == 6
        assert loaded.max_len == 32
        assert loaded.version == 17
        assert loaded.vocab.tokens == vocab.tokens
        assert list(loaded.params) == list(model.params)
        for name in model.params:
            assert loaded.params[name].dtype == dtype
            assert loaded.params[name].tobytes() == model.params[name].tobytes()
        # the header line, then itemsize bytes per parameter value and nothing else
        header_line = path.read_bytes().split(b"\n", 1)[0]
        assert json.loads(header_line)["dtype"] == np.dtype(dtype).name
        count = sum(arr.size for arr in model.params.values())
        assert path.stat().st_size == len(header_line) + 1 + np.dtype(dtype).itemsize * count

    @pytest.mark.parametrize("dtypes", [(np.float16,), (np.int64,), (np.float32, np.float64)],
                             ids=["float16", "int64", "mixed"])
    def test_parameters_not_all_float32_or_all_float64_are_not_saved(self, tmp_path, dtypes):
        model = init_model(build_vocab(["alpha beta"], max_size=10), dim=4, seed=0)
        model.params = {name: arr.astype(dtypes[i % len(dtypes)]) for i, (name, arr) in enumerate(model.params.items())}
        with pytest.raises(ValueError, match="all float32 or all float64"):
            save_checkpoint(model, tmp_path / "model.ckpt")
        assert list(tmp_path.iterdir()) == []

    def test_loaded_model_encodes_identically(self, tmp_path):
        vocab = build_vocab(["alpha beta gamma delta epsilon"], max_size=20)
        model = init_model(vocab, dim=4, seed=3)
        path = tmp_path / "model.ckpt"
        save_checkpoint(model, path)
        loaded = load_checkpoint(path)
        np.testing.assert_array_equal(
            embed_text(model, ["alpha gamma"]), embed_text(loaded, ["alpha gamma"])
        )

    def test_corrupt_file_reports_format_version(self, tmp_path):
        path = tmp_path / "junk.ckpt"
        path.write_bytes(b"\x00\x01\x02 binary garbage not a header\n\xff\xfe")
        with pytest.raises(DataError, match="format version"):
            load_checkpoint(path)

    def test_wrong_format_version_rejected(self, tmp_path):
        path = tmp_path / "old.ckpt"
        path.write_bytes(b'{"format_version": 99, "params": []}\n')
        with pytest.raises(DataError, match="99"):
            load_checkpoint(path)

    # the payload's length is read from the file, not counted while reading it, and checked against the header's
    # dtype: 4 x 4 embedding and 112 block parameters are 128 values
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("values", [127, 129], ids=["short", "long"])
    def test_payload_one_value_short_or_long_rejected(self, tmp_path, dtype, values):
        model = init_model(build_vocab(["alpha beta"], max_size=10), dim=4, seed=0)
        model.params = {name: arr.astype(dtype) for name, arr in model.params.items()}
        path = tmp_path / "model.ckpt"
        save_checkpoint(model, path)
        header_line, payload = path.read_bytes().split(b"\n", 1)
        size = np.dtype(dtype).itemsize
        path.write_bytes(header_line + b"\n" + (payload + payload[:size])[: values * size])
        message = f"parameter payload is {values * size} bytes, header declares {128 * size}$"
        with pytest.raises(DataError, match=message):
            load_checkpoint(path)

    # a missing dtype is a missing key like any other; a present one names one of the two payloads
    @pytest.mark.parametrize("value", [None, "float16", "<f8", "Float32", 32, ["float32"], {"name": "float32"}])
    def test_dtype_other_than_float32_or_float64_rejected(self, tmp_path, value):
        model = init_model(build_vocab(["alpha beta"], max_size=10), dim=4, seed=0)
        path = tmp_path / "model.ckpt"
        self._write_with_header(path, model, dtype=value)
        with pytest.raises(DataError, match='checkpoint header: dtype must be "float32" or "float64"; got '):
            load_checkpoint(path)

    def test_missing_dtype_rejected(self, tmp_path):
        model = init_model(build_vocab(["alpha beta"], max_size=10), dim=4, seed=0)
        path = tmp_path / "model.ckpt"
        save_checkpoint(model, path)
        header_line, payload = path.read_bytes().split(b"\n", 1)
        header = json.loads(header_line)
        del header["dtype"]
        path.write_bytes(json.dumps(header).encode() + b"\n" + payload)
        with pytest.raises(DataError, match="malformed checkpoint header: KeyError\\('dtype'\\)"):
            load_checkpoint(path)

    def test_float64_dtype_over_a_float32_payload_rejected(self, tmp_path):
        # the payload's length, not its bytes, tells the two apart
        model = init_model(build_vocab(["alpha beta"], max_size=10), dim=4, seed=0)
        model.params = {name: arr.astype(np.float32) for name, arr in model.params.items()}
        path = tmp_path / "model.ckpt"
        self._write_with_header(path, model, dtype="float64")
        with pytest.raises(DataError, match="parameter payload is 512 bytes, header declares 1024$"):
            load_checkpoint(path)

    def _write_with_header(self, path, model, **changes):
        """Save ``model``, then rewrite header fields so they no longer match the payload."""
        save_checkpoint(model, path)
        header_line, payload = path.read_bytes().split(b"\n", 1)
        header = json.loads(header_line)
        header.update(changes)
        path.write_bytes(json.dumps(header).encode() + b"\n" + payload)

    def test_vocab_longer_than_embedding_rejected(self, tmp_path):
        vocab = build_vocab(["alpha beta"], max_size=10)
        model = init_model(vocab, dim=4, seed=0)
        path = tmp_path / "model.ckpt"
        self._write_with_header(path, model, vocab={"tokens": vocab.tokens + ["extra"]})
        with pytest.raises(DataError, match="vocab of 5 tokens"):
            load_checkpoint(path)

    def test_block_checkpoint_without_w_q_rejected(self, tmp_path):
        model = init_model(build_vocab(["alpha beta"], max_size=10), dim=4, seed=0)
        del model.params["w_q"]
        path = tmp_path / "model.ckpt"
        save_checkpoint(model, path)
        with pytest.raises(DataError, match="tokens and dim 4 need"):
            load_checkpoint(path)

    @pytest.mark.parametrize(
        "change", [{"name": None}, {"name": 3}, {"shape": None}, {"shape": "ab"}, {"shape": [4.5, 4]}]
    )
    def test_param_entry_without_string_name_or_int_shape_rejected(self, tmp_path, change):
        model = init_model(build_vocab(["alpha beta"], max_size=10), dim=4, seed=0)
        path = tmp_path / "model.ckpt"
        save_checkpoint(model, path)
        params = json.loads(path.read_bytes().split(b"\n", 1)[0])["params"]
        self._write_with_header(path, model, params=[{**params[0], **change}, *params[1:]])
        with pytest.raises(DataError, match="model.ckpt: each checkpoint parameter needs a string name"):
            load_checkpoint(path)

    @pytest.mark.parametrize(
        "text", ['"dim": Infinity', '"dim": 1e999', '"model_version": -Infinity', '"max_len": 0']
    )
    def test_header_number_out_of_range_rejected(self, tmp_path, text):
        model = init_model(build_vocab(["alpha beta"], max_size=10), dim=4, seed=0)
        path = tmp_path / "model.ckpt"
        save_checkpoint(model, path)
        header_line, payload = path.read_bytes().split(b"\n", 1)
        key = text.split(":")[0]
        start = header_line.index(key.encode())
        end = header_line.index(b",", start)
        path.write_bytes(header_line[:start] + text.encode() + header_line[end:] + b"\n" + payload)
        with pytest.raises(DataError, match="model.ckpt"):
            load_checkpoint(path)

    def test_dim_below_two_rejected(self, tmp_path):
        model = init_model(build_vocab(["alpha beta"], max_size=10), dim=4, seed=0)
        model.dim, model.params["embedding"] = 1, model.params["embedding"][:, :1]
        path = tmp_path / "model.ckpt"
        save_checkpoint(model, path)
        with pytest.raises(DataError, match="dim must be an integer >= 2"):
            load_checkpoint(path)

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_parameter_rejected(self, tmp_path, value):
        # an all-NaN model ties every candidate, and ties rank positives first: nDCG would read 1.0
        model = init_model(build_vocab(["alpha beta"], max_size=10), dim=4, seed=0)
        model.params["w_2"][1, 2] = value
        path = tmp_path / "model.ckpt"
        save_checkpoint(model, path)
        with pytest.raises(DataError, match="parameter w_2 holds a NaN or infinite value"):
            load_checkpoint(path)

    @pytest.mark.parametrize("name", ["embedding", "w_q", "w_k", "w_v", "w_1", "w_2"])
    def test_shape_not_matching_dim_rejected(self, tmp_path, name):
        model = init_model(build_vocab(["alpha beta"], max_size=10), dim=4, seed=0)
        rows, cols = model.params[name].shape
        model.params[name] = np.zeros((rows, cols + 1))
        path = tmp_path / "model.ckpt"
        save_checkpoint(model, path)
        with pytest.raises(DataError, match="dim 4"):
            load_checkpoint(path)
