"""weakpairs: weakly-supervised sentence embeddings from quote/reply text pairs.

The package covers the full desk-scale loop: parse archived tweet streams,
mine (target, response) relations into training pair corpora and held-out
ranking benchmarks, train a small mean-pooling encoder with triplet or
multiple-negatives objectives, and score embeddings with nDCG and Pearson
protocols.
"""

from .corpus import (
    PairExample,
    RankingBenchmark,
    build_benchmark,
    build_co_pairs,
    build_pairs,
    exclude_ids,
    index_responses,
    sample_corpus,
)
from .encoder import (
    EncoderModel,
    ForwardTrace,
    backprop,
    embed_text,
    encode,
    encode_with_trace,
    init_model,
    load_checkpoint,
    save_checkpoint,
)
from .errors import DataError, NumericError, UsageError
from .evaluate import (
    EvalReport,
    GradedPairDataset,
    cosine_similarity,
    eval_graded,
    eval_ranking,
    ndcg,
    pearson,
    permutation_ndcg_baseline,
)
from .ingest import (
    ParseStats,
    RelationEdge,
    TweetRecord,
    extract_relations,
    join_reply_targets,
    parse_stream_file,
)
from .optim import (
    OptimizerState,
    TrainConfig,
    adamw_step,
    lr_at,
    mn_loss,
    train,
    triplet_loss,
)
from .textproc import Vocabulary, build_vocab, clean, encode_ids, tokenize

__version__ = "0.1.0"
