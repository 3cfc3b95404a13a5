"""Loss, optimizer, scheduler and training-loop tests."""

import math

import numpy as np
import pytest

from fdcheck import dense, dense_grads, max_rel_error, toy_vocab
from weakpairs.corpus import PairExample
from weakpairs.encoder import RowGrad, backprop, encode_with_trace, flat_ids, init_model
from weakpairs.errors import DataError, NumericError
from weakpairs.optim import (
    ADAMW_BETA1,
    ADAMW_BETA2,
    ADAMW_BLOCK_ROWS,
    ADAMW_EPS,
    MN_SCALE,
    MULTIPLE_NEGATIVES,
    TRIPLET,
    TRIPLET_MARGIN,
    WARMUP_FRACTION,
    WEIGHT_DECAY,
    OptimizerState,
    TrainConfig,
    adamw_step,
    init_optimizer,
    lr_at,
    mn_loss,
    train,
    triplet_loss,
)
from weakpairs.textproc import PAD_ID


def brute_force_mn_loss(anchors, positives, scale):
    """Independent oracle: materialize all n^2 cosine scores, take the
    log-likelihood directly from the definition with plain Python floats."""
    n = len(anchors)
    scores = [[0.0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            a, p = anchors[i], positives[j]
            dot = sum(x * y for x, y in zip(a, p))
            na = math.sqrt(sum(x * x for x in a))
            np_ = math.sqrt(sum(x * x for x in p))
            scores[i][j] = scale * dot / (na * np_)
    total = 0.0
    for i in range(n):
        denom = sum(math.exp(s) for s in scores[i])
        total += -math.log(math.exp(scores[i][i]) / denom)
    return total / n


class TestTripletLoss:
    def test_inactive_hinge_is_zero(self):
        # distances 5 and 10, margin 1: 5 - 10 + 1 < 0
        loss, grads = triplet_loss(np.zeros(2), np.array([3.0, 4.0]), np.array([6.0, 8.0]), 1.0)
        assert loss == 0.0
        for g in grads:
            assert np.all(g == 0.0)

    def test_active_hinge_value(self):
        # distances 1 and 2, margin 2: 1 - 2 + 2 = 1
        loss, _ = triplet_loss(np.zeros(2), np.array([1.0, 0.0]), np.array([0.0, 2.0]), 2.0)
        assert loss == pytest.approx(1.0)

    def test_equal_positive_negative_gives_margin(self):
        v = np.array([0.3, -0.7, 2.0])
        loss, _ = triplet_loss(np.array([1.0, 1.0, 1.0]), v, v.copy(), 1.5)
        assert loss == pytest.approx(1.5)

    def test_exact_hinge_point_uses_zero_subgradient(self):
        # distances 1 and 2 with margin 1: hinge argument exactly 0
        loss, grads = triplet_loss(np.zeros(2), np.array([1.0, 0.0]), np.array([2.0, 0.0]), 1.0)
        assert loss == 0.0
        for g in grads:
            assert np.all(g == 0.0)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            triplet_loss(np.zeros(2), np.zeros(3), np.zeros(2), 1.0)

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(0)
        step = 1e-5
        checked = 0
        while checked < 25:
            a, p, n = rng.standard_normal((3, 4))
            margin = float(rng.uniform(0.0, 2.0))
            hinge = np.linalg.norm(a - p) - np.linalg.norm(a - n) + margin
            if abs(hinge) < 1e-3:  # finite differences are invalid at the kink
                continue
            checked += 1
            loss, (ga, gp, gn) = triplet_loss(a, p, n, margin)
            for vec, analytic in ((a, ga), (p, gp), (n, gn)):
                numeric = np.zeros_like(vec)
                for i in range(vec.size):
                    orig = vec[i]
                    vec[i] = orig + step
                    up = triplet_loss(a, p, n, margin)[0]
                    vec[i] = orig - step
                    down = triplet_loss(a, p, n, margin)[0]
                    vec[i] = orig
                    numeric[i] = (up - down) / (2 * step)
                assert max_rel_error(analytic, numeric) < 1e-4

    def test_batched_rows_match_one_row_calls(self):
        rng = np.random.default_rng(4)
        a, p, n = rng.standard_normal((3, 40, 5))
        p[:5] = a[:5]  # zero-length positive difference
        n[5:10] = a[5:10]  # zero-length negative difference
        a[10], p[10], n[10] = np.zeros(5), np.eye(5)[0], 2.0 * np.eye(5)[0]  # exactly at the hinge
        losses, grads = triplet_loss(a, p, n, 1.0)
        assert losses.shape == (40,) and 0.0 < np.count_nonzero(losses) < 40
        for i in range(40):
            loss_i, grads_i = triplet_loss(a[i], p[i], n[i], 1.0)
            assert abs(losses[i] - loss_i) <= 1e-15
            for batched, single in zip(grads, grads_i):
                np.testing.assert_allclose(batched[i], single, rtol=0.0, atol=1e-15)
        losses_3d, grads_3d = triplet_loss(a.reshape(4, 10, 5), p.reshape(4, 10, 5), n.reshape(4, 10, 5), 1.0)
        np.testing.assert_array_equal(losses_3d.reshape(40), losses)
        for batched, flat in zip(grads_3d, grads):
            np.testing.assert_array_equal(batched.reshape(40, 5), flat)

    def test_loss_nonnegative_property(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            a, p, n = rng.standard_normal((3, 5))
            loss, _ = triplet_loss(a, p, n, float(rng.uniform(0, 3)))
            assert loss >= 0.0


class TestMnLoss:
    def test_single_pair_loss_zero(self):
        a = np.array([[1.0, 2.0]])
        p = np.array([[0.5, -1.0]])
        loss, ga, gp = mn_loss(a, p, scale=20.0)
        assert loss == pytest.approx(0.0)
        np.testing.assert_allclose(ga, 0.0, atol=1e-15)
        np.testing.assert_allclose(gp, 0.0, atol=1e-15)

    def test_identity_score_matrix_hand_value(self):
        # orthogonal unit vectors with scale 1 make S the identity matrix;
        # loss = ln(1 + e^-1)
        a = np.array([[1.0, 0.0], [0.0, 1.0]])
        loss, _, _ = mn_loss(a, a.copy(), scale=1.0)
        assert loss == pytest.approx(math.log(1 + math.exp(-1.0)), abs=1e-12)

    def test_matches_brute_force_oracle(self):
        rng = np.random.default_rng(12)
        for _ in range(50):
            n = int(rng.integers(1, 9))
            dim = int(rng.integers(2, 6))
            anchors = rng.standard_normal((n, dim))
            positives = rng.standard_normal((n, dim))
            scale = float(rng.uniform(0.5, 25.0))
            loss, _, _ = mn_loss(anchors, positives, scale=scale)
            oracle = brute_force_mn_loss(anchors.tolist(), positives.tolist(), scale)
            assert abs(loss - oracle) < 1e-10

    def test_diagonal_dominance_limit(self):
        # matched orthogonal pairs: as scale grows the loss vanishes
        a = np.eye(4)
        loss, _, _ = mn_loss(a, a.copy(), scale=60.0)
        assert loss < 1e-10

    def test_zero_norm_vector_rejected(self):
        a = np.array([[1.0, 0.0], [0.0, 0.0]])
        with pytest.raises(NumericError):
            mn_loss(a, np.ones((2, 2)), scale=1.0)

    def test_rescaling_invariance(self):
        rng = np.random.default_rng(5)
        anchors = rng.standard_normal((5, 3))
        positives = rng.standard_normal((5, 3))
        loss1, _, _ = mn_loss(anchors, positives)
        scales_a = rng.uniform(0.1, 10.0, size=(5, 1))
        scales_p = rng.uniform(0.1, 10.0, size=(5, 1))
        loss2, _, _ = mn_loss(anchors * scales_a, positives * scales_p)
        assert loss1 == pytest.approx(loss2, abs=1e-12)

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(8)
        step = 1e-5
        for _ in range(10):
            n = int(rng.integers(2, 6))
            anchors = rng.standard_normal((n, 3))
            positives = rng.standard_normal((n, 3))
            _, ga, gp = mn_loss(anchors, positives, scale=5.0)
            for mat, analytic in ((anchors, ga), (positives, gp)):
                numeric = np.zeros_like(mat)
                flat = mat.reshape(-1)
                for i in range(flat.size):
                    orig = flat[i]
                    flat[i] = orig + step
                    up = mn_loss(anchors, positives, scale=5.0)[0]
                    flat[i] = orig - step
                    down = mn_loss(anchors, positives, scale=5.0)[0]
                    flat[i] = orig
                    numeric.reshape(-1)[i] = (up - down) / (2 * step)
                assert max_rel_error(analytic, numeric) < 1e-4

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            mn_loss(np.ones((2, 3)), np.ones((3, 3)))


def unblocked_adamw_step(params, grads, state, lr, weight_decay):
    """Reference AdamW: whole-array expressions, no blocks, no scratch buffers."""
    state.step += 1
    bias1 = 1.0 - ADAMW_BETA1**state.step
    bias2 = 1.0 - ADAMW_BETA2**state.step
    for name, param in params.items():
        grad, m, v = grads[name], state.m[name], state.v[name]
        m *= ADAMW_BETA1
        m += (1.0 - ADAMW_BETA1) * grad
        v *= ADAMW_BETA2
        v += (1.0 - ADAMW_BETA2) * np.square(grad)
        update = lr * (m / bias1) / (np.sqrt(v / bias2) + ADAMW_EPS)
        update += lr * weight_decay * param
        param -= update


class TestAdamW:
    def test_zero_grads_no_decay_keeps_params(self):
        params = {"w": np.array([1.0, -2.0])}
        state = init_optimizer(params)
        adamw_step(params, {"w": np.zeros(2)}, state, lr=0.1, weight_decay=0.0)
        np.testing.assert_array_equal(params["w"], [1.0, -2.0])

    def test_zero_grads_with_decay_shrinks(self):
        params = {"w": np.array([1.0, -2.0])}
        state = init_optimizer(params)
        adamw_step(params, {"w": np.zeros(2)}, state, lr=0.1, weight_decay=0.5)
        np.testing.assert_allclose(params["w"], np.array([1.0, -2.0]) * (1 - 0.1 * 0.5))

    def test_single_step_moves_by_about_lr(self):
        params = {"w": np.array([0.0])}
        state = init_optimizer(params)
        adamw_step(params, {"w": np.array([1.0])}, state, lr=0.01, weight_decay=0.0)
        # bias-corrected m_hat / sqrt(v_hat) = 1 at step 1, up to eps
        assert params["w"][0] == pytest.approx(-0.01, rel=1e-6)

    def test_nan_gradient_fails_fast(self):
        params = {"w": np.ones(2)}
        state = init_optimizer(params)
        with pytest.raises(NumericError):
            adamw_step(params, {"w": np.array([1.0, np.nan])}, state, lr=0.1)

    def test_nan_gradient_changes_nothing(self):
        params = {"a": np.ones(3), "b": np.ones(2)}
        state = init_optimizer(params)
        with pytest.raises(NumericError, match="'b'"):
            adamw_step(params, {"a": np.ones(3), "b": np.array([1.0, np.inf])}, state, lr=0.1)
        assert state.step == 0
        for name in params:
            np.testing.assert_array_equal(params[name], 1.0)
            np.testing.assert_array_equal(state.m[name], 0.0)
        # a NaN among a compact gradient's rows is caught the same way, before anything moves
        compact = RowGrad(np.array([0, 2]), np.array([1.0, np.nan]))
        with pytest.raises(NumericError, match="'a'"):
            adamw_step(params, {"a": compact, "b": np.ones(2)}, state, lr=0.1)
        assert state.step == 0
        for name in params:
            np.testing.assert_array_equal(params[name], 1.0)
            np.testing.assert_array_equal(state.m[name], 0.0)

    def test_mask_freezes_entries(self):
        # a row is frozen by passing views without it, as train does for PAD
        emb = np.ones((3, 2))
        trainable = {"emb": emb[1:]}
        state = init_optimizer(trainable)
        adamw_step(trainable, {"emb": np.ones((3, 2))[1:]}, state, lr=0.1, weight_decay=0.3)
        np.testing.assert_array_equal(emb[0], [1.0, 1.0])
        assert np.all(emb[1:] != 1.0)

    @pytest.mark.parametrize("rows", [1, ADAMW_BLOCK_ROWS - 1, ADAMW_BLOCK_ROWS, 2 * ADAMW_BLOCK_ROWS + 37])
    def test_blocked_update_bitwise_equals_unblocked(self, rows):
        rng = np.random.default_rng(rows)
        params = {"emb": rng.normal(size=(rows, 5)), "w": rng.normal(size=(5, 7)), "b": rng.normal(size=rows)}
        reference = {name: arr.copy() for name, arr in params.items()}
        state, ref_state = init_optimizer(params), init_optimizer(reference)
        for step in range(5):
            grads = {name: rng.normal(size=arr.shape) * 10.0**step for name, arr in params.items()}
            adamw_step(params, grads, state, lr=0.01, weight_decay=0.1)
            unblocked_adamw_step(reference, grads, ref_state, lr=0.01, weight_decay=0.1)
            for name in params:
                assert np.array_equal(params[name], reference[name]), name
                assert np.array_equal(state.m[name], ref_state.m[name]), name
                assert np.array_equal(state.v[name], ref_state.v[name]), name

    @pytest.mark.parametrize(
        "touched",
        [
            # block edges, a row inside the second block, the last row, and two empty blocks between them
            [0, 3, ADAMW_BLOCK_ROWS - 1, ADAMW_BLOCK_ROWS, ADAMW_BLOCK_ROWS + 1, 2 * ADAMW_BLOCK_ROWS - 24,
             4 * ADAMW_BLOCK_ROWS + 36],
            "all",
            [],
            "random",
        ],
        ids=["edges", "all", "none", "random"],
    )
    def test_compact_update_bitwise_equals_unblocked(self, touched):
        rows = 4 * ADAMW_BLOCK_ROWS + 37
        rng = np.random.default_rng(17)
        params = {"emb": rng.normal(size=(rows, 5)), "b": rng.normal(size=rows), "w": rng.normal(size=(5, 7))}
        reference = {name: arr.copy() for name, arr in params.items()}
        state, ref_state = init_optimizer(params), init_optimizer(reference)
        for step in range(5):
            if touched == "all":
                ids = np.arange(rows)
            elif touched == "random":
                ids = np.unique(rng.integers(0, rows, size=300))
            else:  # a row touched at one step and not the next keeps a nonzero moment to decay
                ids = np.array(touched[step % 2 :], dtype=np.intp)
            emb_rows = rng.normal(size=(len(ids), 5)) * 10.0**step
            emb_rows[::3, 1] = 0.0  # exact zeros of both signs inside touched rows
            emb_rows[1::3, 2] = -0.0
            grads = {
                "emb": RowGrad(ids, emb_rows),
                "b": RowGrad(ids, rng.normal(size=len(ids))),
                "w": rng.normal(size=(5, 7)),
            }
            adamw_step(params, grads, state, lr=0.01, weight_decay=0.1)
            full = {name: dense(g, rows) if isinstance(g, RowGrad) else g for name, g in grads.items()}
            unblocked_adamw_step(reference, full, ref_state, lr=0.01, weight_decay=0.1)
            for name in params:
                assert params[name].tobytes() == reference[name].tobytes(), name
                assert state.m[name].tobytes() == ref_state.m[name].tobytes(), name
                assert state.v[name].tobytes() == ref_state.v[name].tobytes(), name

    @pytest.mark.parametrize("weight_decay", [0.0, 0.1])
    def test_negative_zero_moment_is_the_one_sign_difference(self, weight_decay):
        # a first moment at -0.0 on an untouched row stays -0.0, where a full zero
        # gradient would turn it +0.0; the parameter differs only where it is itself -0.0
        params = {"emb": np.array([[-0.0, 0.0, 1.0, -1.0], [2.0, 3.0, 4.0, 5.0]])}
        reference = {"emb": params["emb"].copy()}
        state, ref_state = init_optimizer(params), init_optimizer(reference)
        for s in (state, ref_state):
            s.m["emb"][0] = -0.0
            s.v["emb"][0] = 1e-6
        grad = RowGrad(np.array([1]), np.ones((1, 4)))
        adamw_step(params, {"emb": grad}, state, lr=0.01, weight_decay=weight_decay)
        unblocked_adamw_step(reference, {"emb": dense(grad, 2)}, ref_state, lr=0.01, weight_decay=weight_decay)
        assert np.array_equal(params["emb"], reference["emb"])  # equal as numbers everywhere
        assert np.signbit(state.m["emb"][0]).all() and not np.signbit(ref_state.m["emb"][0]).any()
        sign_differs = np.signbit(params["emb"]) != np.signbit(reference["emb"])
        np.testing.assert_array_equal(sign_differs, [[True, False, False, False], [False] * 4])

    def test_step_counter_increases(self):
        params = {"w": np.zeros(1)}
        state = init_optimizer(params)
        for expected in (1, 2, 3):
            adamw_step(params, {"w": np.ones(1)}, state, lr=0.01)
            assert state.step == expected

    def test_moment_shapes_match(self):
        params = {"a": np.zeros((2, 3)), "b": np.zeros(4)}
        state = init_optimizer(params)
        for name in params:
            assert state.m[name].shape == params[name].shape
            assert state.v[name].shape == params[name].shape


class TestSchedule:
    def test_hand_computed_schedule_points(self):
        assert lr_at(5, 100, 1.0, 0.1) == pytest.approx(0.5)
        assert lr_at(10, 100, 1.0, 0.1) == pytest.approx(1.0)
        assert lr_at(55, 100, 1.0, 0.1) == pytest.approx(0.5)

    def test_endpoints(self):
        assert lr_at(0, 100, 1.0, 0.1) == 0.0
        assert lr_at(100, 100, 1.0, 0.1) == 0.0

    def test_no_warmup_starts_at_base(self):
        assert lr_at(0, 50, 2.0, 0.0) == pytest.approx(2.0)

    def test_continuous_at_warmup_boundary(self):
        for total in (10, 37, 100):
            for frac in (0.05, 0.1, 0.33):
                w = math.ceil(frac * total)
                left = lr_at(w - 1, total, 1.0, frac)
                right = lr_at(w, total, 1.0, frac)
                # one step apart on either side of the boundary stays close
                assert abs(right - left) <= 1.0 / max(1, w) + 1.0 / max(1, total - w)

    def test_nonnegative_and_bounded(self):
        for step in range(0, 101):
            lr = lr_at(step, 100, 3.0, 0.1)
            assert 0.0 <= lr <= 3.0

    def test_out_of_range_step_rejected(self):
        with pytest.raises(ValueError):
            lr_at(11, 10, 1.0, 0.1)


def topic_pairs(num_pairs, num_topics=5, seed=0):
    """Learnable synthetic pairs: anchor and positive share a topic word."""
    rng = np.random.default_rng(seed)
    pairs = []
    for i in range(num_pairs):
        topic = i % num_topics
        extra_a = rng.integers(0, 1000)
        extra_p = rng.integers(0, 1000)
        pairs.append(
            PairExample(
                anchor_text=f"topicword{topic} anchor filler number {extra_a} text",
                positive_text=f"topicword{topic} positive filler number {extra_p} text",
                dataset="qt",
                anchor_id=f"a{i}",
                positive_id=f"p{i}",
            )
        )
    return pairs


def tiny_trainable_model(pairs, dim=8, seed=0):
    from weakpairs.textproc import build_vocab

    texts = [p.anchor_text for p in pairs] + [p.positive_text for p in pairs]
    vocab = build_vocab(texts, max_size=200)
    return init_model(vocab, dim=dim, seed=seed)


def per_row_triplet_step(anchor_vecs, pos_vecs, rng, margin):
    """Reference triplet step: one scalar negative draw and one 1-d triplet_loss call per row."""
    n = len(anchor_vecs)
    grad_a = np.zeros_like(anchor_vecs)
    grad_p = np.zeros_like(pos_vecs)
    loss = 0.0
    for i in range(n):
        j = int((i + 1 + rng.integers(0, n - 1)) % n)
        li, (ga, gp, gn) = triplet_loss(anchor_vecs[i], pos_vecs[i], pos_vecs[j], margin=margin)
        loss += li / n
        grad_a[i] += ga / n
        grad_p[i] += gp / n
        grad_p[j] += gn / n
    return loss, np.concatenate([grad_a, grad_p])


def max_norm_rel_error(actual, reference):
    return float(np.max(np.abs(actual - reference)) / max(np.max(np.abs(reference)), 1e-300))


class TestTrainEpoch:
    def test_too_few_pairs_for_one_batch(self):
        pairs = topic_pairs(5)
        model = tiny_trainable_model(pairs)
        with pytest.raises(DataError):
            train(model, pairs, TrainConfig(batch_size=10))

    def test_partial_batch_dropped(self):
        pairs = topic_pairs(25)
        model = tiny_trainable_model(pairs)
        _, log = train(model, pairs, TrainConfig(batch_size=10, seed=1))
        assert len(log) == 2  # 25 // 10 batches

    def test_determinism_bitwise(self):
        pairs = topic_pairs(30)
        config = TrainConfig(batch_size=10, seed=7)
        m1, log1 = train(tiny_trainable_model(pairs, seed=2), pairs, config)
        m2, log2 = train(tiny_trainable_model(pairs, seed=2), pairs, config)
        assert log1 == log2
        for name in m1.params:
            assert np.array_equal(m1.params[name], m2.params[name])

    def test_loss_decreases_on_learnable_data(self):
        pairs = topic_pairs(200, num_topics=4)
        model = tiny_trainable_model(pairs)
        config = TrainConfig(batch_size=20, learning_rate=5e-3, seed=3, epochs=2)
        _, log = train(model, pairs, config)
        first_epoch = [e["loss"] for e in log[:3]]
        last_epoch = [e["loss"] for e in log[-3:]]
        assert np.mean(last_epoch) < np.mean(first_epoch)

    def test_triplet_mode_runs_and_logs_schedule(self):
        pairs = topic_pairs(40)
        model = tiny_trainable_model(pairs)
        config = TrainConfig(loss=TRIPLET, batch_size=10, seed=0)
        _, log = train(model, pairs, config)
        assert len(log) == 4
        assert log[0]["lr"] == 0.0  # warm-up starts at zero
        assert all(entry["loss"] >= 0.0 for entry in log)

    def test_triplet_steps_match_per_row_reference(self, monkeypatch):
        import weakpairs.optim as optim_mod

        pairs = topic_pairs(30)
        config = TrainConfig(loss=TRIPLET, batch_size=10, seed=5)
        margin = 0.005  # small enough that some hinges are inactive; the wrapper below trains with it
        ref_rng = np.random.default_rng(config.seed)
        ref_rng.permutation(len(pairs))  # the epoch's shuffle comes first in the stream
        real_encode, real_backprop, real_triplet = (
            optim_mod.encode_with_trace, optim_mod.backprop, optim_mod.triplet_loss
        )
        steps, triplet_calls = [], []

        def recording_encode(model, *layout):
            vecs, trace = real_encode(model, *layout)
            steps.append({"layout": layout, "vecs": vecs.copy()})
            return vecs, trace

        def recording_backprop(model, trace, grad_out):
            step = steps[-1]
            n = config.batch_size
            step["ref_loss"], step["ref_grad_out"] = per_row_triplet_step(
                step["vecs"][:n], step["vecs"][n:], ref_rng, margin
            )
            _, ref_trace = real_encode(model, *step["layout"])
            step["ref_grads"] = dense_grads(model, real_backprop(model, ref_trace, step["ref_grad_out"]))
            step["grad_out"] = grad_out.copy()
            grads = real_backprop(model, trace, grad_out)
            step["grads"] = dense_grads(model, grads)
            return grads

        def counting_triplet(s_a, s_p, s_n):
            triplet_calls.append(s_a.shape)
            return real_triplet(s_a, s_p, s_n, margin=margin)

        monkeypatch.setattr(optim_mod, "encode_with_trace", recording_encode)
        monkeypatch.setattr(optim_mod, "backprop", recording_backprop)
        monkeypatch.setattr(optim_mod, "triplet_loss", counting_triplet)
        _, log = train(tiny_trainable_model(pairs), pairs, config)

        assert len(log) == len(steps) == 3
        assert triplet_calls == [(config.batch_size, 8)] * 3
        hinged = 0
        for entry, step in zip(log, steps):
            assert abs(entry["loss"] - step["ref_loss"]) <= 1e-12 * step["ref_loss"]
            assert max_norm_rel_error(step["grad_out"], step["ref_grad_out"]) <= 1e-12
            for name, ref in step["ref_grads"].items():
                assert max_norm_rel_error(step["grads"][name], ref) <= 1e-12, name
            hinged += np.count_nonzero(np.abs(step["ref_grad_out"][: config.batch_size]).sum(axis=1))
        assert 0 < hinged < 3 * config.batch_size  # active and inactive hinges both occur

    def test_pad_row_never_updated(self):
        pairs = topic_pairs(20)
        model = tiny_trainable_model(pairs)
        before = model.params["embedding"][PAD_ID].copy()
        assert WEIGHT_DECAY > 0.0  # every row decays, and the PAD row still stays put
        train(model, pairs, TrainConfig(batch_size=10))
        np.testing.assert_array_equal(model.params["embedding"][PAD_ID], before)

    def test_pad_gradient_exactly_zero_on_ragged_batches(self, monkeypatch):
        # anchors of 2-5 tokens and positives of 7 pad every batch; nothing zeroes the
        # PAD row on the way: backprop's gradient and the full parameters reach AdamW,
        # and the compact embedding gradient never names the PAD row
        from weakpairs import optim as optim_mod
        from weakpairs.textproc import build_vocab

        pairs = [
            PairExample(" ".join(f"a{(i + k) % 9}" for k in range(2 + i % 4)),
                        " ".join(f"p{(i + k) % 9}" for k in range(7)), "qt", f"a{i}", f"p{i}")
            for i in range(20)
        ]
        vocab = build_vocab([p.anchor_text for p in pairs] + [p.positive_text for p in pairs], max_size=50)
        model = init_model(vocab, dim=6, seed=3)
        real_adamw = optim_mod.adamw_step
        touched_ids = []

        def recording_adamw(params, grads, state, lr):
            assert params is model.params
            assert isinstance(grads["embedding"], RowGrad)
            assert np.any(grads["embedding"].rows != 0.0)
            touched_ids.append(grads["embedding"].ids.copy())
            return real_adamw(params, grads, state, lr)

        monkeypatch.setattr(optim_mod, "adamw_step", recording_adamw)
        train(model, pairs, TrainConfig(batch_size=5, epochs=2))
        assert len(touched_ids) == 8
        for ids in touched_ids:
            assert PAD_ID not in ids
        np.testing.assert_array_equal(model.params["embedding"][PAD_ID], np.zeros(6))

    @pytest.mark.parametrize("loss", [MULTIPLE_NEGATIVES, TRIPLET])
    def test_raw_pair_texts_train_as_their_cleaned_twins(self, loss):
        # embed_text cleans every text it embeds; train cleans its pair texts the same way before tokenizing
        import dataclasses

        from weakpairs.textproc import clean

        raw = [PairExample(f"@fan{i} TopicWord{i % 3} Anchor https://t.co/x{i} FILLER {i}",
                           f"TOPICWORD{i % 3}   Positive @bot{i} filler {i}", "qt", f"a{i}", f"p{i}")
               for i in range(20)]
        cleaned = [dataclasses.replace(p, anchor_text=clean(p.anchor_text), positive_text=clean(p.positive_text))
                   for p in raw]
        assert all(r.anchor_text != c.anchor_text and r.positive_text != c.positive_text
                   for r, c in zip(raw, cleaned))
        config = TrainConfig(loss=loss, batch_size=5, epochs=2, seed=4)
        from_raw, raw_log = train(tiny_trainable_model(cleaned), raw, config)
        from_cleaned, cleaned_log = train(tiny_trainable_model(cleaned), cleaned, config)
        assert raw_log == cleaned_log
        for name, param in from_cleaned.params.items():
            assert from_raw.params[name].tobytes() == param.tobytes(), name

    def test_train_matches_dense_reference_loop_bitwise(self, monkeypatch):
        # a vocabulary of three AdamW blocks; each batch touches a few rows of each
        import weakpairs.optim as optim_mod
        from weakpairs.textproc import build_vocab, encode_ids

        rng = np.random.default_rng(4)
        words = [f"w{i:04d}" for i in range(3 * ADAMW_BLOCK_ROWS)]

        def sentence():
            return " ".join(rng.choice(words, size=rng.integers(2, 12)))

        pairs = [PairExample(sentence(), sentence(), "qt", f"a{i}", f"p{i}") for i in range(40)]
        vocab = build_vocab([" ".join(words)], max_size=len(words) + 2)
        config = TrainConfig(batch_size=10, epochs=2, learning_rate=0.01, seed=3)
        real_adamw = optim_mod.adamw_step
        snapshots = []

        def recording_adamw(params, grads, state, lr):
            real_adamw(params, grads, state, lr)
            snapshots.append({name: arr.tobytes() for name, arr in params.items()})
            return state

        monkeypatch.setattr(optim_mod, "adamw_step", recording_adamw)
        train(init_model(vocab, dim=8, seed=5), pairs, config)

        # the reference: the same loop with full gradients and the unblocked AdamW
        model = init_model(vocab, dim=8, seed=5)
        state = init_optimizer(model.params)
        order_rng = np.random.default_rng(config.seed)
        n, per_epoch = config.batch_size, len(pairs) // config.batch_size
        total = per_epoch * config.epochs
        for step in range(total):
            if step % per_epoch == 0:
                order = order_rng.permutation(len(pairs))
            batch = [pairs[i] for i in order[step % per_epoch * n : (step % per_epoch + 1) * n]]
            texts = [p.anchor_text for p in batch] + [p.positive_text for p in batch]
            layout = flat_ids(model, [encode_ids(vocab, t, model.max_len) for t in texts])
            vecs, trace = encode_with_trace(model, *layout)
            _, grad_a, grad_p = mn_loss(vecs[:n], vecs[n:], scale=MN_SCALE)
            grads = dense_grads(model, backprop(model, trace, np.concatenate([grad_a, grad_p])))
            lr = lr_at(step, total, config.learning_rate, WARMUP_FRACTION)
            unblocked_adamw_step(model.params, grads, state, lr, WEIGHT_DECAY)
            model.version += 1
            assert {name: arr.tobytes() for name, arr in model.params.items()} == snapshots[step], step
        assert len(snapshots) == total == 8

    def test_parameters_finite_after_every_update(self):
        pairs = topic_pairs(60)
        model = tiny_trainable_model(pairs)
        config = TrainConfig(batch_size=10, learning_rate=0.5, seed=2)  # aggressive lr
        model, _ = train(model, pairs, config)
        for name, arr in model.params.items():
            assert np.all(np.isfinite(arr)), name

    def test_model_version_advances_per_step(self):
        pairs = topic_pairs(30)
        model = tiny_trainable_model(pairs)
        assert model.version == 0
        train(model, pairs, TrainConfig(batch_size=10))
        assert model.version == 3

    @pytest.mark.parametrize("loss", [MULTIPLE_NEGATIVES, TRIPLET])
    def test_no_step_data_outlives_its_step(self, monkeypatch, loss):
        # when a step's forward starts, no earlier step's trace or embedding gradient is alive
        import weakref

        import weakpairs.optim as optim_mod

        real_forward, real_backprop = optim_mod.encode_with_trace, optim_mod.backprop
        step_data, alive = [], []

        def probed_forward(model, *layout):
            alive.append([ref() is not None for ref in step_data])
            vecs, trace = real_forward(model, *layout)
            step_data.append(weakref.ref(trace))
            return vecs, trace

        def probed_backprop(model, trace, grad_out):
            grads = real_backprop(model, trace, grad_out)
            step_data.append(weakref.ref(grads["embedding"].rows))
            return grads

        monkeypatch.setattr(optim_mod, "encode_with_trace", probed_forward)
        monkeypatch.setattr(optim_mod, "backprop", probed_backprop)
        pairs = topic_pairs(20)
        _, log = train(tiny_trainable_model(pairs), pairs, TrainConfig(loss=loss, batch_size=5))
        assert len(log) == len(alive) == 4
        assert alive == [[False] * (2 * step) for step in range(4)]

    def test_every_step_reads_rows_of_one_layout(self, monkeypatch):
        # the pair texts are laid out once per call: every forward gets the same flat array,
        # holding all anchors, then all positives, and its batch's rows of it
        import weakpairs.optim as optim_mod
        from weakpairs.textproc import encode_ids

        real_forward = optim_mod.encode_with_trace
        layouts = []

        def probed_forward(model, flat, starts, lengths):
            layouts.append((flat, starts, lengths))
            return real_forward(model, flat, starts, lengths)

        monkeypatch.setattr(optim_mod, "encode_with_trace", probed_forward)
        pairs = topic_pairs(20)
        model = tiny_trainable_model(pairs)
        _, log = train(model, pairs, TrainConfig(batch_size=5, epochs=2))
        texts = [p.anchor_text for p in pairs] + [p.positive_text for p in pairs]
        expected = [encode_ids(model.vocab, text, model.max_len) for text in texts]
        flat = layouts[0][0]
        assert len(layouts) == len(log) == 8
        assert all(layout[0] is flat for layout in layouts)
        assert flat.dtype == np.intp and flat.tolist() == [i for ids in expected for i in ids] + [PAD_ID]
        text_starts = np.cumsum([0] + [len(ids) for ids in expected])[:-1]
        for _, starts, lengths in layouts:
            text_rows = np.searchsorted(text_starts, starts)
            assert text_starts[text_rows].tolist() == starts.tolist()
            assert lengths.tolist() == [len(expected[i]) for i in text_rows]
            assert text_rows[5:].tolist() == (text_rows[:5] + len(pairs)).tolist()  # each anchor's own positive

    def test_multi_epoch_schedule_spans_all_steps(self):
        pairs = topic_pairs(20)
        model = tiny_trainable_model(pairs)
        config = TrainConfig(batch_size=5, epochs=12, seed=1)
        _, log = train(model, pairs, config)
        assert len(log) == 48
        lrs = [entry["lr"] for entry in log]
        peak = max(lrs)
        # warm-up covers its share of all 48 steps, 5 of them, which runs past the first epoch's 4
        assert lrs.index(peak) == math.ceil(WARMUP_FRACTION * 48) == 5

    def test_invalid_config_reported(self):
        pairs = topic_pairs(20)
        model = tiny_trainable_model(pairs)
        with pytest.raises(ValueError, match="loss"):
            train(model, pairs, TrainConfig(loss="nope", batch_size=10))


class TestConfigValidation:
    def test_collects_all_problems(self):
        config = TrainConfig(loss="bad", batch_size=0, learning_rate=-1.0, epochs=0)
        problems = config.validate()
        assert len(problems) >= 4

    @pytest.mark.parametrize("field", ["learning_rate"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
    def test_non_finite_number_rejected(self, field, value):
        problems = TrainConfig(**{field: value}).validate()
        assert f"{field} must be finite; got {value}" in problems

    def test_default_config_valid(self):
        assert TrainConfig().validate() == []
        assert TrainConfig().batch_size == 50
        assert (MN_SCALE, TRIPLET_MARGIN, WARMUP_FRACTION, WEIGHT_DECAY) == (20.0, 1.0, 0.10, 0.01)

    def test_mn_needs_batch_of_two(self):
        problems = TrainConfig(loss=MULTIPLE_NEGATIVES, batch_size=1).validate()
        assert any("batch_size" in p for p in problems)
