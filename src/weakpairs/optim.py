"""Training objectives, AdamW, the warm-up/decay schedule and the training loop.

Two losses are provided.  The triplet loss hinges on Euclidean distances:
``max(||s_a - s_p|| - ||s_a - s_n|| + margin, 0)``.  The multiple-negatives
loss treats every in-batch pairing (a_i, p_j) with i != j as a negative and
minimizes the negative log-likelihood of the matching pair under a row-wise
softmax over scaled cosine scores, the comparison eval makes too.  Pair texts
are cleaned before they are tokenized, as ``embed_text`` cleans eval text, so
a pair file of raw text trains the model its cleaned twin trains.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain
from typing import Sequence

import numpy as np

from .corpus import PairExample
from .encoder import EncoderModel, RowGrad, backprop, encode_with_trace, flat_ids
from .errors import DataError, NumericError
from .textproc import clean, encode_ids

TRIPLET = "triplet"
MULTIPLE_NEGATIVES = "multiple_negatives"
LOSS_NAMES = (TRIPLET, MULTIPLE_NEGATIVES)

ADAMW_BLOCK_ROWS = 1024  # rows per AdamW block; see CHANGES.md for the measurement
ADAMW_BETA1 = 0.9  # first-moment decay
ADAMW_BETA2 = 0.999  # second-moment decay
ADAMW_EPS = 1e-8  # added to the root of the second moment
MN_SCALE = 20.0  # multiple-negatives scores are this times the cosine
TRIPLET_MARGIN = 1.0  # triplet hinge margin
WARMUP_FRACTION = 0.10  # share of all steps spent warming up
WEIGHT_DECAY = 0.01  # decoupled decay, applied as lr * WEIGHT_DECAY * param


@dataclass
class TrainConfig:
    loss: str = MULTIPLE_NEGATIVES
    batch_size: int = 50
    learning_rate: float = 1e-3
    epochs: int = 1
    seed: int = 0

    def validate(self) -> list[str]:
        """Collect every config problem instead of stopping at the first."""
        problems = []
        if self.loss not in LOSS_NAMES:
            problems.append(f"loss must be one of {', '.join(LOSS_NAMES)}; got {self.loss!r}")
        if not math.isfinite(self.learning_rate):
            problems.append(f"learning_rate must be finite; got {self.learning_rate}")
        if self.batch_size < 2:
            problems.append(f"batch_size must be >= 2 for in-batch negatives; got {self.batch_size}")
        if self.learning_rate <= 0:
            problems.append(f"learning_rate must be > 0; got {self.learning_rate}")
        if self.epochs < 1:
            problems.append(f"epochs must be >= 1; got {self.epochs}")
        return problems


@dataclass
class OptimizerState:
    """AdamW accumulators: first/second moments per parameter plus the step count."""

    m: dict[str, np.ndarray]
    v: dict[str, np.ndarray]
    step: int = 0


def init_optimizer(params: dict[str, np.ndarray]) -> OptimizerState:
    return OptimizerState(
        m={name: np.zeros_like(arr) for name, arr in params.items()},
        v={name: np.zeros_like(arr) for name, arr in params.items()},
    )


def triplet_loss(
    s_a: np.ndarray, s_p: np.ndarray, s_n: np.ndarray, margin: float = TRIPLET_MARGIN
) -> tuple[float | np.ndarray, tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Euclidean triplet loss and its gradients w.r.t. the three embeddings.

    Works row-wise over ``(..., dim)`` arrays: the loss has one entry per row
    (a float for 1-d input, which is one row) and each gradient has the
    input's shape.  The subgradient is zero exactly at the hinge point, and
    the direction of a zero-length difference vector is taken as zero.
    """
    s_a = np.asarray(s_a, dtype=np.float64)
    s_p = np.asarray(s_p, dtype=np.float64)
    s_n = np.asarray(s_n, dtype=np.float64)
    if not (s_a.shape == s_p.shape == s_n.shape):
        raise ValueError(
            f"embedding dimensions differ: {s_a.shape}, {s_p.shape}, {s_n.shape}"
        )
    diff_p = s_a - s_p
    diff_n = s_a - s_n
    dist_p = np.linalg.norm(diff_p, axis=-1, keepdims=True)
    dist_n = np.linalg.norm(diff_n, axis=-1, keepdims=True)
    hinge = dist_p - dist_n + margin
    active = hinge > 0.0
    unit_p = np.divide(diff_p, dist_p, out=np.zeros_like(diff_p), where=active & (dist_p > 0.0))
    unit_n = np.divide(diff_n, dist_n, out=np.zeros_like(diff_n), where=active & (dist_n > 0.0))
    return np.maximum(hinge[..., 0], 0.0), (unit_p - unit_n, -unit_p, unit_n)


def mn_loss(
    anchors: np.ndarray, positives: np.ndarray, scale: float = MN_SCALE
) -> tuple[float, np.ndarray, np.ndarray]:
    """Multiple-negatives loss over a batch of n (anchor, positive) pairs.

    Scores are ``scale * cos(a_i, p_j)``; the loss is the mean over rows of
    the negative log-likelihood of the diagonal entry under a row softmax.
    Returns (loss, grads w.r.t. anchors, grads w.r.t. positives).  A
    zero-norm row has no cosine and is a ``NumericError``.
    """
    anchors = np.asarray(anchors, dtype=np.float64)
    positives = np.asarray(positives, dtype=np.float64)
    if anchors.ndim != 2 or anchors.shape != positives.shape:
        raise ValueError(
            f"anchors and positives must be matching (n, dim) arrays, "
            f"got {anchors.shape} and {positives.shape}"
        )
    n = anchors.shape[0]
    if n < 1:
        raise ValueError("need at least one pair")

    a_norms = np.linalg.norm(anchors, axis=1, keepdims=True)
    p_norms = np.linalg.norm(positives, axis=1, keepdims=True)
    if np.any(a_norms == 0.0) or np.any(p_norms == 0.0):
        raise NumericError("cosine similarity undefined for zero-norm embeddings")
    a_hat = anchors / a_norms
    p_hat = positives / p_norms
    scores = scale * (a_hat @ p_hat.T)

    shifted = scores - scores.max(axis=1, keepdims=True)
    log_probs = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    loss = float(-np.trace(log_probs) / n)

    probs = np.exp(log_probs)
    d_scores = (probs - np.eye(n)) / n
    d_a_hat = scale * (d_scores @ p_hat)
    d_p_hat = scale * (d_scores.T @ a_hat)
    # back through the row normalizations
    grad_a = (d_a_hat - (d_a_hat * a_hat).sum(axis=1, keepdims=True) * a_hat) / a_norms
    grad_p = (d_p_hat - (d_p_hat * p_hat).sum(axis=1, keepdims=True) * p_hat) / p_norms
    return loss, grad_a, grad_p


def adamw_step(
    params: dict[str, np.ndarray],
    grads: dict[str, np.ndarray | RowGrad],
    state: OptimizerState,
    lr: float,
    weight_decay: float = WEIGHT_DECAY,
) -> OptimizerState:
    """One AdamW update in place: bias-corrected moments plus decoupled decay.

    A gradient is either a full array or a ``RowGrad``, which is zero outside
    its rows; a full array is the case where every row is touched.  This is
    still AdamW, not LazyAdam: every row's moments decay and every row gets
    the update and the weight decay each step, touched or not.  Only the
    gradient terms, which are exact zeros elsewhere, are added to the
    touched rows alone.  The update runs over blocks of ``ADAMW_BLOCK_ROWS``
    leading-axis rows with two block-sized scratch buffers, so no full-size
    temporary is made.

    Each entry sees the same operations in the same order as an unblocked
    update on the full gradient, so results are bitwise equal to it, with
    one exception in the sign of zero: adding a zero gradient term turns a
    first moment of ``-0.0`` into ``+0.0``, and skipping it does not.  So a
    moment that has decayed to ``-0.0`` on an untouched row stays ``-0.0``,
    and a parameter differs from the full-gradient update only where such a
    moment meets a parameter that is itself ``-0.0`` (it ends ``+0.0``
    instead of ``-0.0``).  A row that is zero with a zero gradient, such as
    the PAD embedding row, stays zero.
    """
    grads = {
        name: grad if isinstance(grad, RowGrad) else RowGrad(np.arange(len(grad)), grad)
        for name, grad in grads.items()
    }
    for name, grad in grads.items():
        if not np.all(np.isfinite(grad.rows)):
            raise NumericError(f"non-finite gradient for parameter {name!r}")
    state.step += 1
    t = state.step
    bias1 = 1.0 - ADAMW_BETA1**t
    bias2 = 1.0 - ADAMW_BETA2**t
    decay = lr * weight_decay
    for name, param in params.items():
        (ids, rows), m, v = grads[name], state.m[name], state.v[name]
        scratch_a = np.empty_like(param[:ADAMW_BLOCK_ROWS])
        scratch_b = np.empty_like(scratch_a)
        for start in range(0, len(param), ADAMW_BLOCK_ROWS):
            block = slice(start, start + ADAMW_BLOCK_ROWS)
            p, mb, vb = param[block], m[block], v[block]
            a, b = scratch_a[: len(p)], scratch_b[: len(p)]
            lo, hi = np.searchsorted(ids, (start, start + len(p)))
            # the block's touched rows, as a slice when that is all of them
            touched = slice(None) if hi - lo == len(p) else ids[lo:hi] - start
            g, ga = rows[lo:hi], a[: hi - lo]
            mb *= ADAMW_BETA1
            np.multiply(g, 1.0 - ADAMW_BETA1, out=ga)
            mb[touched] += ga
            vb *= ADAMW_BETA2
            np.square(g, out=ga)
            ga *= 1.0 - ADAMW_BETA2
            vb[touched] += ga
            # lr * (m / bias1) / (sqrt(v / bias2) + eps) + lr * weight_decay * param
            np.divide(mb, bias1, out=a)
            a *= lr
            np.divide(vb, bias2, out=b)
            np.sqrt(b, out=b)
            b += ADAMW_EPS
            a /= b
            np.multiply(p, decay, out=b)
            a += b
            p -= a
    return state


def lr_at(step: int, total_steps: int, base_lr: float, warmup_fraction: float = WARMUP_FRACTION) -> float:
    """Linear warm-up to base_lr, then linear decay to zero at total_steps."""
    if total_steps < 1:
        raise ValueError(f"total_steps must be >= 1, got {total_steps}")
    if not 0 <= step <= total_steps:
        raise ValueError(f"step {step} outside [0, {total_steps}]")
    warmup_steps = math.ceil(warmup_fraction * total_steps)
    if step >= total_steps:
        return 0.0
    if step < warmup_steps:
        return base_lr * step / warmup_steps
    return base_lr * (total_steps - step) / (total_steps - warmup_steps)


def train(
    model: EncoderModel, pairs: Sequence[PairExample], config: TrainConfig
) -> tuple[EncoderModel, list[dict]]:
    """``config.epochs`` passes over the pairs with one optimizer and one lr schedule.

    Each pair text is cleaned and tokenized once into one ``flat_ids``
    layout, all anchors then all positives.  Each epoch shuffles the pairs
    and cuts them into batches; each step encodes the batch's anchors and
    positives, its rows of the layout, and backpropagates them in one call
    each and takes an AdamW step.  A step's trace and embeddings are freed
    once backprop returns and its gradients once AdamW returns, so no step
    runs beside another's activations.  The final partial batch of each
    epoch is dropped so the in-batch negative distribution stays fixed.
    Forward, backward, the parameters and AdamW's moments stay in the
    model's dtype (float32 as the CLI trains, float64 as ``init_model``
    draws); the loss and its gradient are computed in float64.  Fully
    deterministic in (model, pairs, config).
    """
    problems = config.validate()
    if problems:
        raise ValueError("invalid training config: " + "; ".join(problems))
    n = config.batch_size
    batches_per_epoch = len(pairs) // n
    if batches_per_epoch < 1:
        raise DataError(f"need at least one full batch of {n} pairs, got only {len(pairs)}")
    total_steps = batches_per_epoch * config.epochs
    rng = np.random.default_rng(config.seed)
    state = init_optimizer(model.params)
    log: list[dict] = []

    texts = chain((p.anchor_text for p in pairs), (p.positive_text for p in pairs))
    ids = (encode_ids(model.vocab, clean(text), model.max_len) for text in texts)
    flat, starts, lengths = flat_ids(model, ids)
    for step in range(total_steps):
        b = step % batches_per_epoch
        if b == 0:
            order = rng.permutation(len(pairs))
        rows = order[b * n : (b + 1) * n]
        lr = lr_at(step, total_steps, config.learning_rate)

        batch = np.concatenate([rows, rows + len(pairs)])
        vecs, trace = encode_with_trace(model, flat, starts[batch], lengths[batch])
        anchor_vecs, pos_vecs = vecs[:n], vecs[n:]

        if config.loss == MULTIPLE_NEGATIVES:
            loss, grad_a, grad_p = mn_loss(anchor_vecs, pos_vecs)
        else:
            # each row's negative is the positive text of another row of the batch
            negatives = (np.arange(n) + 1 + rng.integers(0, n - 1, size=n)) % n
            losses, (grad_a, grad_p, grad_n) = triplet_loss(anchor_vecs, pos_vecs, pos_vecs[negatives])
            loss = losses.sum() / n
            grad_a /= n
            grad_p /= n
            np.add.at(grad_p, negatives, grad_n / n)

        grads = backprop(model, trace, np.concatenate([grad_a, grad_p]))
        del vecs, trace, anchor_vecs, pos_vecs
        adamw_step(model.params, grads, state, lr=lr)
        del grads
        model.version += 1
        log.append({"step": step, "lr": lr, "loss": float(loss)})
    return model, log
