"""weakpairs: weakly-supervised sentence embeddings from quote/reply text pairs.

The package covers the full desk-scale loop: parse archived tweet streams,
mine (target, response) relations into training pair corpora and held-out
ranking benchmarks, train a small mean-pooling encoder with triplet or
multiple-negatives objectives, and score embeddings with nDCG and Pearson
protocols.

The names below are loaded from their submodule on first use, so importing
a NumPy-free submodule (``synth``, ``ingest``, ``corpus``, ``textproc``,
``atomic``) does not load NumPy through this package.
"""

import importlib

# submodule -> the names this package exports from it
_EXPORTS = {
    "corpus": (
        "PairExample",
        "RankingBenchmark",
        "build_benchmark",
        "build_co_pairs",
        "build_pairs",
        "exclude_ids",
        "index_responses",
        "sample_corpus",
    ),
    "encoder": (
        "EncoderModel",
        "ForwardTrace",
        "RowGrad",
        "backprop",
        "embed_text",
        "encode",
        "encode_with_trace",
        "flat_ids",
        "init_model",
        "load_checkpoint",
        "save_checkpoint",
    ),
    "errors": ("DataError", "NumericError", "UsageError"),
    "evaluate": (
        "EvalReport",
        "GradedPairDataset",
        "cosine_similarity",
        "eval_graded",
        "eval_ranking",
        "ndcg",
        "pearson",
        "permutation_ndcg_baseline",
    ),
    "ingest": (
        "ParseStats",
        "RelationEdge",
        "TweetRecord",
        "extract_relations",
        "join_reply_targets",
        "parse_stream_file",
    ),
    "optim": (
        "OptimizerState",
        "TrainConfig",
        "adamw_step",
        "lr_at",
        "mn_loss",
        "train",
        "triplet_loss",
    ),
    "textproc": ("Vocabulary", "build_vocab", "clean", "encode_ids", "tokenize"),
}
_SUBMODULE = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = [*_SUBMODULE]
__version__ = "0.1.0"


def __getattr__(name: str):
    module = _SUBMODULE.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value  # later lookups skip this function
    return value
