"""Finite-difference utilities shared by the gradient tests.

Central differences are only trustworthy away from non-smooth points (relu
and hinge kinks, zero-norm vectors), so the random-config samplers here
resample until every pre-activation clears a safety margin well above the
perturbation step.
"""

from __future__ import annotations

import numpy as np

from weakpairs.encoder import EncoderModel, RowGrad, encode, encode_with_trace, flat_ids, init_model
from weakpairs.textproc import PAD_TOKEN, UNK_TOKEN, Vocabulary

FD_STEP = 1e-5
# |a - n| / max(|a|, |n|, FLOOR): the floor keeps sub-1e-6 gradients, where
# central differences are pure roundoff noise (~1e-12), from dominating.
REL_FLOOR = 1e-6
KINK_MARGIN = 1e-3  # min |pre-activation| so no +-1e-5 perturbation can cross a kink
RAGGED_PARAM_SCALE = 1.0 / 0.05  # init parameters U(-0.05, 0.05) -> U(-1, 1)


def max_rel_error(analytic: np.ndarray, numeric: np.ndarray, floor: float = REL_FLOOR) -> float:
    analytic = np.asarray(analytic, dtype=np.float64)
    numeric = np.asarray(numeric, dtype=np.float64)
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), floor)
    return float(np.max(np.abs(analytic - numeric) / denom))


def dense(grad: RowGrad, num_rows: int) -> np.ndarray:
    """The full gradient of a parameter with ``num_rows`` rows, zero at every row ``grad`` does not hold."""
    full = np.zeros((num_rows, *grad.rows.shape[1:]), dtype=grad.rows.dtype)
    full[grad.ids] = grad.rows
    return full


def dense_grads(model: EncoderModel, grads: dict) -> dict[str, np.ndarray]:
    """Every gradient as a full array of its parameter's shape, densifying compact ones."""
    return {
        name: dense(grad, len(model.params[name])) if isinstance(grad, RowGrad) else grad
        for name, grad in grads.items()
    }


def central_diff_grad(func, array: np.ndarray, step: float = FD_STEP) -> np.ndarray:
    """d func / d array by central differences, perturbing one entry at a time."""
    grad = np.zeros_like(array, dtype=np.float64)
    flat = array.reshape(-1)
    for i in range(flat.size):
        original = flat[i]
        flat[i] = original + step
        up = func()
        flat[i] = original - step
        down = func()
        flat[i] = original
        grad.reshape(-1)[i] = (up - down) / (2.0 * step)
    return grad


def toy_vocab(num_tokens: int) -> Vocabulary:
    tokens = [PAD_TOKEN, UNK_TOKEN] + [f"tok{i:03d}" for i in range(num_tokens)]
    return Vocabulary(tokens=tokens)


def mean_pool_model(vocab: Vocabulary, seed: int = 0, **settings) -> EncoderModel:
    """An encoder whose five block matrices are zero, so each sentence embeds as the mean of its token rows.

    With ``w_v`` zero the attention adds nothing and ``h1`` is the token
    rows; with ``w_1`` and ``w_2`` zero the feed-forward adds nothing.  The
    closed-form tests set embedding rows by hand and read the mean back.
    """
    model = init_model(vocab, seed=seed, **settings)
    for name, param in model.params.items():
        if name != "embedding":
            param[:] = 0.0
    return model


def random_model(rng: np.random.Generator, vocab_tokens: int = 20, dim: int | None = None) -> EncoderModel:
    if dim is None:
        dim = int(rng.integers(2, 9))
    return init_model(toy_vocab(vocab_tokens), dim=dim, seed=int(rng.integers(0, 2**31)), max_len=16)


def _min_preactivation(model: EncoderModel, ids) -> float:
    """Smallest |relu pre-activation| on this input."""
    p = model.params
    x = p["embedding"][list(ids), :]
    q = x @ p["w_q"]
    k = x @ p["w_k"]
    v = x @ p["w_v"]
    scores = (q @ k.T) / np.sqrt(model.dim)
    shifted = scores - scores.max(axis=1, keepdims=True)
    attn = np.exp(shifted) / np.exp(shifted).sum(axis=1, keepdims=True)
    h1 = x + attn @ v
    return float(np.min(np.abs(h1 @ p["w_1"])))


def sample_smooth_case(rng: np.random.Generator, **model_kwargs):
    """A (model, ids, grad_out) triple whose forward pass sits clear of every kink."""
    while True:
        model = random_model(rng, **model_kwargs)
        n_tokens = int(rng.integers(1, 7))
        ids = [int(t) for t in rng.integers(1, len(model.vocab), size=n_tokens)]
        if _min_preactivation(model, ids) > KINK_MARGIN:
            grad_out = rng.standard_normal(model.dim)
            return model, ids, grad_out


def scalar_objective(model: EncoderModel, ids, grad_out: np.ndarray) -> float:
    return float(np.dot(grad_out, encode(model, ids)))


def sample_ragged_case(rng: np.random.Generator, max_batch: int = 5, **model_kwargs):
    """A (model, id_lists, grad_out) case: 1 to ``max_batch`` sentences of 1 to max_len tokens.

    Parameters are scaled up to U(-1, 1): at the init scale the relu
    pre-activations sit near 1e-3, so a long sentence almost never clears the
    kink margin at every position.  Cases are resampled until every row
    does; grad_out has one row per sentence.
    """
    while True:
        model = random_model(rng, **model_kwargs)
        for arr in model.params.values():
            arr *= RAGGED_PARAM_SCALE
        batch = int(rng.integers(1, max_batch + 1))
        lengths = rng.integers(1, model.max_len + 1, size=batch)
        id_lists = [[int(t) for t in rng.integers(1, len(model.vocab), size=n)] for n in lengths]
        if min(_min_preactivation(model, ids) for ids in id_lists) > KINK_MARGIN:
            return model, id_lists, rng.standard_normal((batch, model.dim))


def batch_objective(model: EncoderModel, id_lists, grad_out: np.ndarray) -> float:
    return float(np.sum(grad_out * encode_with_trace(model, *flat_ids(model, id_lists))[0]))
