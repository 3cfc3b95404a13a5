"""A small trainable sentence encoder with analytic gradients.

The forward pass is: token-embedding lookup, one self-attention +
feed-forward block (single head, residual connections, no positional
encodings), then a MEAN pool over token positions.  The pooled vector is the
embedding, with no normalization: training's multiple-negatives loss and
every benchmark compare embeddings by cosine, which does not see their
length, and the triplet loss is defined on the raw vectors.  Training is
plain numpy with gradients derived by hand.  Its forward, backward and AdamW
run in the model's own dtype: ``init_model`` draws float64, where the
gradients are checked against central finite differences, and the CLI rounds
that draw to float32 and trains in float32, which halves the bytes each step
moves; the losses always run in float64.  Eval (``embed_text``) runs the same
forward in float32 whatever the model's dtype, which halves the bytes each
chunk moves.

The block's output at each position is ``relu @ w_2 + h1``.  Mean pooling is
linear and ``w_2`` acts on each position alone, so the pooled embedding is
computed as ``pool(h1) + pool(relu) @ w_2``: ``w_2`` multiplies one pooled
row per sentence instead of every position, forward and backward.

With no positional encodings, a token's embedding row and its q, k and v
rows depend on its id alone.  ``embed_text`` runs this token layer
(``_token_rows``) once per call, over the call's distinct ids, and each
chunk gathers its rows from that table, so eval projects each distinct
token once instead of once per position.  For the same reason a sentence's
embedding is a function of its bag of tokens: positions that hold one id
get the same attention row, ``h1`` and relu.  So eval runs the block over
one position per distinct id of a text, weighted by the id's count: its
pool weight is count / length, and as a key it adds log(count) to its
score, which is the softmax over the positions it stands for.  Both are
computed once per call, over the call's bags, and each chunk indexes them
as it indexes its rows.  On the benchmark's archive workload the graded
texts average 35.5 tokens but 20.7 distinct ids; on its large-vocabulary
workload the benchmark texts average 29.0 tokens and 7.9 distinct ids, as
most of their tokens are UNK.

Training runs per padded position, token layer and all, because a training
batch repeats few ids.  On the benchmark's large-vocabulary workload a
batch of 3,200 padded positions held 2,251 distinct ids, and a table of
them made a forward plus backward step slower, 30.6 to 32.2 ms, while on
its archive workload (261 ids in 1,200 positions) it saved only 9.04 to
8.91 ms (median of 15 rounds, one BLAS thread, 2-vCPU x86-64 VM).  Bags
would save less there: a training text averages 9.1 tokens and 7.0
distinct ids on archive, 28.9 and 26.9 on the large-vocabulary workload,
and its sums would run in another order, so every checkpoint bit would
move.  Tokenized text reaches the encoder in one form only: both paths lay
out their texts once per call in one flat id array (``flat_ids``), each
chunk or batch indexes its rows of a flat layout (``_batch_index``), and
both share one attention, feed-forward and pool body (``_encode``), whose
pool weights and key bias come from training's 0/1 real-token mask or from
eval's bag counts.

A training step holds one batch's activations, and of those only what
backprop reads.  The relu reaches backward only through where it is
positive, so ``encode_with_trace`` keeps that (B, L, 2 * dim) bool mask in
the trace instead of the float relu, an eighth of its bytes; eval, which
keeps no trace, never builds it.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from itertools import chain
from pathlib import Path
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .atomic import atomic_write, json_object
from .errors import DataError
from .textproc import PAD_ID, Vocabulary, clean, encode_ids

CHECKPOINT_FORMAT_VERSION = 2
# a checkpoint header's dtype -> its payload's element type
_PAYLOAD_DTYPES = {"float32": np.dtype("<f4"), "float64": np.dtype("<f8")}
INIT_SCALE = 0.05
_EMBED_CHUNK = 16  # texts per encode in embed_text; see CHANGES.md for the measurement


@dataclass
class EncoderModel:
    vocab: Vocabulary
    params: dict[str, np.ndarray]
    dim: int = 64
    max_len: int = 64
    version: int = field(default=0, init=False)  # parameter updates so far, not a setting


# EncoderModel's setting fields, in checkpoint header order; also init_model's keywords and the CLI's keys
ENCODER_SETTINGS = ("dim", "max_len")


def setting_problems(settings: dict) -> list[str]:
    """A message for each encoder setting in ``settings`` that breaks its rule; a bool is not an integer."""
    problems = []
    for key, low in (("dim", 2), ("max_len", 1)):
        if type(settings[key]) is not int or settings[key] < low:
            problems.append(f"{key} must be an integer >= {low}; got {settings[key]!r}")
    return problems


class RowGrad(NamedTuple):
    """A gradient that is zero outside a few leading-axis rows.

    ``rows[i]`` is the gradient of row ``ids[i]``; ``ids`` is sorted and
    holds no row twice.
    """

    ids: np.ndarray  # (U,) row indices
    rows: np.ndarray  # (U, ...) their gradients


@dataclass
class ForwardTrace:
    """Activations of one batched encode, sufficient to backpropagate exactly.

    Rows are right-padded with PAD_ID to the longest sentence of the batch.
    """

    ids: np.ndarray  # (B, L) token ids
    pool: np.ndarray  # (B, L) mean-pool weights: 1 / length at real tokens, 0 at padding
    pooled: np.ndarray  # (B, dim)
    model_version: int
    x: np.ndarray
    attn: np.ndarray
    q: np.ndarray
    k: np.ndarray
    v: np.ndarray
    h1: np.ndarray
    relu_on: np.ndarray  # (B, L, 2 * dim) bool: where the feed-forward pre-activation is > 0
    pooled_relu: np.ndarray  # (B, 2 * dim) relu mean-pooled, the input w_2 sees


def _param_shapes(vocab_size: int, dim: int) -> list[tuple[str, tuple[int, int]]]:
    """(name, shape) of every parameter, in init order."""
    shapes = [("embedding", (vocab_size, dim))]
    shapes += [(name, (dim, dim)) for name in ("w_q", "w_k", "w_v")]
    shapes += [("w_1", (dim, 2 * dim)), ("w_2", (2 * dim, dim))]
    return shapes


def init_model(vocab: Vocabulary, seed: int = 0, **settings) -> EncoderModel:
    """Fresh encoder with parameters drawn i.i.d. uniform in [-0.05, 0.05].

    ``settings`` are ENCODER_SETTINGS keywords, each defaulting as its field
    does; any other is a TypeError.  The PAD embedding row is zeroed and
    stays frozen for the model's life.
    """
    model = EncoderModel(vocab=vocab, params={}, **settings)
    problems = setting_problems(vars(model))
    if problems:
        raise ValueError("; ".join(problems))
    rng = np.random.default_rng(seed)
    model.params = {
        name: rng.uniform(-INIT_SCALE, INIT_SCALE, size=shape)
        for name, shape in _param_shapes(len(vocab), model.dim)
    }
    model.params["embedding"][PAD_ID, :] = 0.0
    return model


def _softmax_rows(scores: np.ndarray) -> np.ndarray:
    """Softmax over the last axis, in place.

    Each row's max is taken over the middle axis of a key-major copy: NumPy
    runs a max over a short contiguous last axis row by row, and one over a
    middle axis as whole-vector maxima, faster at eval's and training's
    row widths.  The max is exact either way; where it picks -0.0 instead
    of +0.0, ``s - m`` has the same exp.
    """
    scores -= np.ascontiguousarray(scores.swapaxes(-1, -2)).max(axis=-2)[..., None]
    np.exp(scores, out=scores)
    scores /= scores.sum(axis=-1, keepdims=True)
    return scores


def _rows(arr: np.ndarray) -> np.ndarray:
    """A (B, L, n) array as (B * L, n), so weight gradients sum over every position in one matmul."""
    return arr.reshape(-1, arr.shape[-1])


def _pool(pool: np.ndarray, arr: np.ndarray) -> np.ndarray:
    """Mean pool a (B, L, n) array with (B, L) weights into (B, n)."""
    return (pool[:, None, :] @ arr)[:, 0]


def _token_rows(p: dict[str, np.ndarray], ids: np.ndarray | slice) -> tuple[np.ndarray, ...]:
    """The per-token layer of parameters ``p``: ``(x, x @ w_q, x @ w_k, x @ w_v)``.

    ``x`` holds the embedding rows of ``ids``, an index array of any shape
    or a slice.  Every row depends on its id alone (see the module
    docstring).
    """
    x = p["embedding"][ids]
    return x, x @ p["w_q"], x @ p["w_k"], x @ p["w_v"]


def flat_ids(model: EncoderModel, id_seqs: Iterable[Sequence[int]]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(flat, starts, lengths)``, intp: sequence i is ``flat[starts[i] : starts[i] + lengths[i]]``, and the
    final PAD_ID of ``flat`` is what padded positions index.  ``id_seqs`` is read once and kept nowhere."""
    lengths = []

    def counted(ids: Sequence[int]) -> Sequence[int]:
        lengths.append(len(ids))
        return ids
    flat = np.fromiter(chain(chain.from_iterable(map(counted, id_seqs)), [PAD_ID]), dtype=np.intp)
    lengths = np.array(lengths, dtype=np.intp)
    if not lengths.all():
        raise ValueError("cannot encode an empty id sequence")
    if lengths.max(initial=0) > model.max_len:
        raise ValueError(f"id sequence of length {lengths.max()} exceeds max_len {model.max_len}")
    return flat, np.cumsum(lengths) - lengths, lengths


def _batch_index(starts: np.ndarray, lengths: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The (B, L) index of a right-padded batch into a flat layout whose row i is ``starts[i] : starts[i] +
    lengths[i]``, -1 at padding, and the batch's real-token mask."""
    positions = np.arange(lengths.max())
    real = positions < lengths[:, None]
    return np.where(real, starts[:, None] + positions, -1), real


def _encode(
    p: dict[str, np.ndarray], pool: np.ndarray, key_bias: np.ndarray, rows: tuple[np.ndarray, ...]
) -> tuple[np.ndarray, dict[str, np.ndarray]]:
    """Attention, feed-forward and pool, under parameters ``p``, over padded positions whose token rows are given.

    ``pool`` and ``key_bias`` are (B, L) arrays in the rows' dtype, built by
    the caller from the number of a text's tokens each position stands for,
    its count, 0 at padding: training's 0/1 real-token mask, or eval's count
    of each distinct id in its text (see the module docstring).  ``pool`` is
    the mean-pool weight count / length, and ``key_bias`` is log(count),
    added to each key's score: +0.0 at count 1, which can flip the sign of a
    zero score but not its exp, and -inf at padding, which no query attends
    to.  ``rows`` is ``_token_rows`` of the padded ids, with (B, L, dim)
    arrays computed per position or gathered from a table of distinct ids.
    Returns the embeddings and the activations backprop needs, as
    ``ForwardTrace`` fields by name, save that the float ``relu`` stands for
    the trace's ``relu_on`` mask.  The arithmetic runs in the rows' dtype,
    the model's own in training and float32 in eval.
    """
    x, q, k, v = rows
    scores = q @ k.transpose(0, 2, 1)
    scores /= np.sqrt(x.shape[-1], dtype=scores.dtype)
    scores += key_bias[:, None, :]
    attn = _softmax_rows(scores)
    h1 = attn @ v
    h1 += x
    relu = h1 @ p["w_1"]
    np.maximum(relu, 0.0, out=relu)
    # pool(relu @ w_2 + h1), with w_2 applied after the pool (see the module docstring)
    pooled_relu = _pool(pool, relu)
    pooled = _pool(pool, h1)
    pooled += pooled_relu @ p["w_2"]
    return pooled, dict(pool=pool, x=x, attn=attn, q=q, k=k, v=v, h1=h1, relu=relu, pooled_relu=pooled_relu,
                        pooled=pooled)


def encode_with_trace(
    model: EncoderModel, flat: np.ndarray, starts: np.ndarray, lengths: np.ndarray
) -> tuple[np.ndarray, ForwardTrace]:
    """Embed a batch of id sequences, one (dim,) row each, keeping what backprop needs.

    ``starts`` and ``lengths`` pick the batch's rows of the ``flat_ids`` layout
    ``flat``: a layout of the batch alone (``*flat_ids(model, id_lists)``) or
    of many.  Rows are right-padded to the longest; padded positions are
    masked out of the attention keys and the mean, so each row is the
    embedding of its sentence alone.  The token layer runs once per padded
    position (see the module docstring).
    """
    index, real = _batch_index(starts, lengths)
    ids = flat[index]
    rows = _token_rows(model.params, ids)
    dtype = rows[0].dtype
    with np.errstate(divide="ignore"):
        key_bias = np.log(real, dtype=dtype)
    out, acts = _encode(model.params, (real / lengths[:, None]).astype(dtype, copy=False), key_bias, rows)
    acts["relu_on"] = acts.pop("relu") > 0.0
    return out, ForwardTrace(ids=ids, model_version=model.version, **acts)


def encode(model: EncoderModel, ids) -> np.ndarray:
    """Sentence embedding: mean over token positions of the last layer."""
    return encode_with_trace(model, *flat_ids(model, [ids]))[0][0]


def embed_text(model: EncoderModel, texts: Sequence[str]) -> np.ndarray:
    """Texts in, one float32 sentence vector per text out: clean, map to ids under the model's vocab, encode.

    Cleaning is idempotent, so already-cleaned pipeline text passes through
    unchanged while raw external text (e.g. graded pair files) gets the same
    normalization the training corpus had.  Each distinct text is encoded
    once and its row copied to every repeat.

    The call's ids are kept in one flat array, text after text.  The
    forward runs in float32: once per call, the embedding rows of the
    call's distinct ids, PAD included, and the block matrices are cast,
    and the token layer runs once over those rows; the table is freed when
    the call returns.  Each text is encoded as its bag of tokens (see the
    module docstring): its distinct rows of the table, each with its count,
    found for the whole call by one ``np.unique`` over (text, row) keys.
    Texts are encoded in chunks of similar distinct count, so little of
    each chunk is padding, and each chunk gathers its rows through its
    (B, L) index into the bags.  The output holds the same bits from call
    to call and run to run (``cli.main`` runs OpenBLAS on one thread, so an
    eval report does not depend on ``OPENBLAS_NUM_THREADS``), and it is the
    float64 per-position forward to float32 rounding: each row differs from
    it by at most 1e-5 of the row's length, and each cosine between two
    rows by at most 1e-6.  A text's row does not depend on the order of
    its tokens.  It can differ in its last bits with the texts it is
    embedded beside, which set its chunk's padded width and the table's row
    count.
    """
    slot = {text: i for i, text in enumerate(dict.fromkeys(texts))}
    flat, _, lengths = flat_ids(model, (encode_ids(model.vocab, clean(text), model.max_len) for text in slot))
    seen = np.bincount(flat, minlength=len(model.vocab)) > 0
    # the table's row i is the embedding row of the call's i-th smallest id
    params = {name: (arr[seen] if name == "embedding" else arr).astype(np.float32)
              for name, arr in model.params.items()}
    size = len(params["embedding"])
    table = _token_rows(params, slice(None))
    slots = (np.cumsum(seen) - 1)[flat]  # each flat position's row of the table; the last is PAD's
    # the bags, text after text: each text's distinct rows in ascending order and their counts, then one PAD
    # row of count 0 that padded positions index
    keys = np.repeat(np.arange(len(slot)) * size, lengths)
    keys += slots[:-1]
    keys, counts = np.unique(keys, return_counts=True)
    widths = np.bincount(keys // size, minlength=len(slot))  # each text's number of distinct ids
    bag_slots = np.append(keys % size, slots[-1])
    # each bag entry's pool weight and key bias, count / length and log(count), computed once per call; PAD's
    # are 0 and -inf
    pool = np.append(counts / np.repeat(lengths, widths), 0.0).astype(np.float32)
    with np.errstate(divide="ignore"):
        key_bias = np.log(np.append(counts, 0), dtype=np.float32)
    bag_starts = np.cumsum(widths) - widths
    order = np.argsort(widths, kind="stable")
    distinct = np.empty((len(slot), model.dim), dtype=np.float32)
    for start in range(0, len(order), _EMBED_CHUNK):
        rows = order[start : start + _EMBED_CHUNK]
        index, _ = _batch_index(bag_starts[rows], widths[rows])
        chunk_slots = bag_slots[index]
        distinct[rows] = _encode(params, pool[index], key_bias[index],
                                 tuple(arr.take(chunk_slots, axis=0) for arr in table))[0]
    return distinct[[slot[text] for text in texts]]


def backprop(
    model: EncoderModel, trace: ForwardTrace, grad_out: np.ndarray
) -> dict[str, np.ndarray | RowGrad]:
    """Exact gradients of sum_i <grad_out[i], embedding i> with respect to every parameter.

    ``grad_out`` holds one (dim,) row per sentence of the traced batch.  The
    embedding gradient is a ``RowGrad`` over the batch's distinct non-PAD
    ids, each row summed over its positions in position order, so it holds
    the same bits as a dense V x dim buffer would at those rows; every other
    row's gradient is zero.  The PAD row is never among the ids: padded keys
    are masked and padded positions have pool weight 0, so nothing flows
    back to it.  The other parameters get dense gradients.  Every gradient
    is in the trace's dtype, the model's: a float64 ``grad_out``, which the
    losses return, is cast to it once here.  The trace must come from the
    current parameter version.
    """
    if trace.model_version != model.version:
        raise ValueError(
            f"stale trace: captured at model version {trace.model_version}, "
            f"parameters now at version {model.version}"
        )
    grad_out = np.asarray(grad_out, dtype=trace.pooled.dtype)
    if grad_out.shape != trace.pooled.shape:
        raise ValueError(f"grad_out must have shape {trace.pooled.shape}, got {grad_out.shape}")

    grads = {}
    p = model.params

    # mean pool spreads each row's gradient evenly over its real tokens
    d_tokens = trace.pool[:, :, None] * grad_out[:, None, :]

    grads["w_2"] = trace.pooled_relu.T @ grad_out
    d_z = trace.pool[:, :, None] * (grad_out @ p["w_2"].T)[:, None, :]
    d_z *= trace.relu_on
    grads["w_1"] = _rows(trace.h1).T @ _rows(d_z)
    # a (B, L, k) batch times a transposed 2-D view is 1.5-3.7x slower than times a contiguous copy of it
    d_h1 = d_z @ np.ascontiguousarray(p["w_1"].T)
    d_h1 += d_tokens  # the residual path around the feed-forward
    del d_z, d_tokens

    d_v = trace.attn.transpose(0, 2, 1) @ d_h1
    # softmax and score-scaling backward, row-wise, in place: d_attn becomes d_scores
    d_attn = d_h1 @ trace.v.transpose(0, 2, 1)
    d_attn -= (d_attn * trace.attn).sum(axis=-1, keepdims=True)
    d_attn *= trace.attn
    d_attn /= np.sqrt(model.dim, dtype=d_attn.dtype)
    # d_x = d_h1 + d_q w_q' + d_k w_k' + d_v w_v', added in that order (it fixes the bits); d_q and d_k
    # live only for their own term
    x = _rows(trace.x)
    d_x = d_h1
    d_q = d_attn @ trace.k
    grads["w_q"] = x.T @ _rows(d_q)
    d_x += d_q @ np.ascontiguousarray(p["w_q"].T)
    del d_q
    d_k = d_attn.transpose(0, 2, 1) @ trace.q
    del d_attn
    grads["w_k"] = x.T @ _rows(d_k)
    d_x += d_k @ np.ascontiguousarray(p["w_k"].T)
    del d_k
    grads["w_v"] = x.T @ _rows(d_v)
    d_x += d_v @ np.ascontiguousarray(p["w_v"].T)

    return {"embedding": _sum_rows_by_id(trace.ids.ravel(), _rows(d_x)), **grads}


def _sum_rows_by_id(ids: np.ndarray, values: np.ndarray) -> RowGrad:
    """``values[i]`` summed per distinct ``ids[i]``, PAD left out.

    One weighted ``np.bincount`` over (row slot, column) bins adds each
    id's terms in position order starting from +0.0, as an ``np.add.at``
    into a zeroed dense buffer would add them, so on float64 values the
    sums hold its bits.  ``np.bincount`` sums in float64, so float32 values
    get sums rounded once to float32.  PAD's terms go to one spare row past
    the last, which is dropped.
    """
    seen = np.bincount(ids, minlength=PAD_ID + 1) > 0
    seen[PAD_ID] = False
    unique = np.flatnonzero(seen)
    slots = np.cumsum(seen) - 1
    slots[PAD_ID] = len(unique)
    width = values.shape[1]
    bins = (slots[ids] * width)[:, None] + np.arange(width)
    sums = np.bincount(bins.ravel(), weights=values.ravel(), minlength=(len(unique) + 1) * width)
    return RowGrad(unique, sums[: len(unique) * width].reshape(-1, width).astype(values.dtype, copy=False))


# --- checkpoint format --------------------------------------------------------


def save_checkpoint(model: EncoderModel, path: str | Path) -> None:
    """Write a checkpoint: one JSON header line, then each parameter's own little-endian bytes, in declared order.

    The header's ``dtype`` is the parameters' one dtype: ``"float32"`` as
    the CLI trains, or ``"float64"`` as ``init_model`` draws.  So each value
    is written as the model holds it and loads back bit for bit.
    Parameters of any other dtype, or of two dtypes, are a ValueError.
    """
    dtypes = sorted({arr.dtype.name for arr in model.params.values()})
    if len(dtypes) != 1 or dtypes[0] not in _PAYLOAD_DTYPES:
        raise ValueError(f"checkpoint parameters must be all float32 or all float64; got {dtypes}")
    [dtype] = dtypes
    header = {
        "format_version": CHECKPOINT_FORMAT_VERSION,
        "dtype": dtype,
        **{key: getattr(model, key) for key in ENCODER_SETTINGS},
        "model_version": model.version,
        "vocab": {"tokens": model.vocab.tokens},
        "params": [{"name": name, "shape": list(arr.shape)} for name, arr in model.params.items()],
    }
    with atomic_write(path, "wb") as handle:
        handle.write(json.dumps(header, ensure_ascii=False).encode("utf-8"))
        handle.write(b"\n")
        for arr in model.params.values():
            handle.write(np.ascontiguousarray(arr, dtype=_PAYLOAD_DTYPES[dtype]))


def load_checkpoint(path: str | Path) -> EncoderModel:
    """Read a checkpoint into a model of its header's dtype, checking its parameter list against its vocab and dim.

    The payload's length is checked against the header's sizes and dtype
    before anything is allocated; then it is read straight into one array
    of that dtype, of which each parameter is a view.
    """
    path = Path(path)
    with open(path, "rb") as handle:
        model, declared, dtype = _model_from_header(path, handle.readline())
        sizes = [int(np.prod(shape)) for _, shape in declared]
        payload_bytes = os.fstat(handle.fileno()).st_size - handle.tell()
        expected = dtype.itemsize * sum(sizes)
        if payload_bytes != expected:
            raise DataError(f"{path}: parameter payload is {payload_bytes} bytes, header declares {expected}")
        values = np.empty(sum(sizes), dtype=dtype)
        if handle.readinto(values) != values.nbytes:
            raise DataError(f"{path}: parameter payload shrank while it was read")
    values = values.astype(dtype.newbyteorder("="), copy=False)  # a copy only where the machine is not little-endian
    for (name, shape), chunk in zip(declared, np.split(values, np.cumsum(sizes)[:-1])):
        if not np.isfinite(chunk).all():
            raise DataError(f"{path}: parameter {name} holds a NaN or infinite value")
        model.params[name] = chunk.reshape(shape)
    return model


def _model_from_header(
    path: Path, header_line: bytes
) -> tuple[EncoderModel, list[tuple[str, tuple[int, ...]]], np.dtype]:
    """The model a checkpoint header describes, without parameters, its declared (name, shape) list and its
    payload's element type."""
    try:
        header = json_object(header_line.decode("utf-8"))
        version = header["format_version"]
    except (ValueError, KeyError) as exc:  # not UTF-8 or not one JSON object (both ValueErrors), or no version
        raise DataError(f"{path}: not a recognizable checkpoint (no format version header)") from exc
    if version != CHECKPOINT_FORMAT_VERSION:
        raise DataError(
            f"{path}: unsupported checkpoint format version {version!r}, "
            f"expected {CHECKPOINT_FORMAT_VERSION}"
        )
    try:
        declared = [(entry["name"], entry["shape"]) for entry in header["params"]]
        settings = {key: header[key] for key in ENCODER_SETTINGS}
        dtype, model_version = header["dtype"], header["model_version"]
        vocab = Vocabulary(tokens=header["vocab"]["tokens"])
    except (KeyError, TypeError, ValueError) as exc:
        raise DataError(f"{path}: malformed checkpoint header: {exc!r}") from exc
    problems = setting_problems(settings)
    if type(dtype) is not str or dtype not in _PAYLOAD_DTYPES:
        problems.append(f'dtype must be "float32" or "float64"; got {dtype!r}')
    if type(model_version) is not int:
        problems.append(f"model_version must be an integer; got {model_version!r}")
    problems += [f"vocab.tokens[{i}] must be a string; got {token!r}"
                 for i, token in enumerate(vocab.tokens) if type(token) is not str][:1]
    if problems:
        raise DataError(f"{path}: checkpoint header: " + "; ".join(problems))
    model = EncoderModel(vocab=vocab, params={}, **settings)
    model.version = model_version
    if not all(
        isinstance(name, str) and isinstance(shape, list) and all(type(d) is int for d in shape)
        for name, shape in declared
    ):
        raise DataError(f"{path}: each checkpoint parameter needs a string name and a list of int shape")
    declared = [(name, tuple(shape)) for name, shape in declared]
    expected = _param_shapes(len(model.vocab), model.dim)
    if sorted(declared) != sorted(expected):
        raise DataError(
            f"{path}: header declares parameters {declared}, but a vocab of {len(model.vocab)} "
            f"tokens and dim {model.dim} need {expected}"
        )
    return model, declared, _PAYLOAD_DTYPES[dtype]
