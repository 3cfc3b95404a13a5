"""Command-line pipeline: synth, ingest, build, train, eval, sweep.

Every subcommand is deterministic under ``--seed``: stage-level seeds are
derived from the master seed by stable hashing of stage names, and the
OpenBLAS NumPy loaded runs on one thread, so no sum depends on
``OPENBLAS_NUM_THREADS``.  Each run writes a manifest (resolved settings,
inputs, output hashes) next to its outputs.  Each output, the manifest
included, must name a file of its own that is none of the stage's inputs.
Exit codes: 0 success, 1 usage, 2 data error, 3 numeric failure.
"""

from __future__ import annotations

import argparse
import csv
import ctypes
import dataclasses
import glob
import hashlib
import inspect
import json
import random
import sys
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import corpus as corpus_mod
from . import encoder as encoder_mod
from . import evaluate as eval_mod
from . import ingest as ingest_mod
from . import optim as optim_mod
from . import synth as synth_mod
from .atomic import atomic_write, write_jsonl
from .errors import DataError, NumericError, UsageError
from .textproc import build_vocab, clean

# Every setting is a flag and a manifest entry.  Training settings
# are the TrainConfig fields (its seed is derived per stage, never set); encoder
# settings are the encoder's ENCODER_SETTINGS, plus the vocabulary size cap.
_TRAIN_DEFAULTS = {f.name: f.default for f in dataclasses.fields(optim_mod.TrainConfig) if f.name != "seed"}
CONFIG_DEFAULTS: dict[str, object] = {
    **_TRAIN_DEFAULTS,
    **{key: getattr(encoder_mod.EncoderModel, key) for key in encoder_mod.ENCODER_SETTINGS},
    "vocab_size": 2000,
}


def derive_seed(master_seed: int, stage: str) -> int:
    """Stable per-stage seed: one master seed controls the whole experiment."""
    digest = hashlib.sha256(f"{master_seed}:{stage}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little")


def _sha256_file(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _write_json(obj, path: Path) -> None:
    with atomic_write(path, encoding="utf-8") as handle:
        handle.write(json.dumps(obj, indent=2) + "\n")


def write_manifest(
    directory: Path,
    subcommand: str,
    settings: dict,
    inputs: list[str],
    outputs: list[Path],
    seed: int,
) -> Path:
    manifest = {
        "subcommand": subcommand,
        "seed": seed,
        "settings": settings,
        "inputs": sorted(str(p) for p in inputs),
        "outputs": [
            {"path": str(p), "sha256": _sha256_file(Path(p))} for p in sorted(outputs, key=str)
        ],
        "created": datetime.now(timezone.utc).isoformat(),
    }
    path = directory / f"manifest_{subcommand}.json"
    _write_json(manifest, path)
    return path


def _check_outputs(subcommand: str, directory: Path, inputs: list[str], outputs: list[tuple[Path, str]]) -> None:
    """The output-path rule, checked before a stage reads any input.

    ``outputs`` holds a (path, what it holds) entry per output.  Each output,
    and the manifest in ``directory``, must resolve to a file of its own that
    is none of the inputs, at a path that can hold a file: not a directory,
    and under no existing file.  Otherwise nothing is written.
    """
    uses = {Path(p).resolve(): f"reads {p}" for p in inputs}
    for path, what in [*outputs, (directory / f"manifest_{subcommand}.json", "its manifest")]:
        use = f"writes {what} to {path}"
        key = path.resolve()
        if key in uses:
            raise UsageError(f"{subcommand} {use}, but it also {uses[key]}; give each output its own path")
        if path.is_dir():
            raise UsageError(f"{subcommand} {use}, but {path} is a directory")
        ancestor = next(parent for parent in path.parents if parent.exists())
        if not ancestor.is_dir():
            raise UsageError(f"{subcommand} {use}, but {ancestor} is not a directory")
        uses[key] = use


def _publish(subcommand: str, directory: Path, files: list, settings: dict, inputs: list[str], seed: int) -> list:
    """Write each (path, write, contents) entry as ``write(contents, path)``, then the manifest over them.

    Returns what each ``write`` returned, in entry order.
    """
    written = []
    for path, write, contents in files:
        path.parent.mkdir(parents=True, exist_ok=True)
        written.append(write(contents, path))
    outputs = [path for path, _, _ in files]
    write_manifest(directory, subcommand, settings, inputs=inputs, outputs=outputs, seed=seed)
    return written


# --- settings -------------------------------------------------------------------


def resolve_settings(settings: dict[str, object], seed: int) -> optim_mod.TrainConfig:
    """Validate the settings, reporting every problem at once; the training config, seeded for ``train``."""
    train_config = optim_mod.TrainConfig(
        **{k: settings[k] for k in _TRAIN_DEFAULTS}, seed=derive_seed(seed, "train")
    )
    problems = [*train_config.validate(), *encoder_mod.setting_problems(settings)]
    if settings["vocab_size"] < 2:
        problems.append(f"vocab_size must be >= 2; got {settings['vocab_size']}")
    if problems:
        raise UsageError("invalid configuration: " + "; ".join(problems))
    return train_config


def _flag_settings(args) -> dict[str, object]:
    return {key: getattr(args, key) for key in CONFIG_DEFAULTS}


def _init_encoder(pairs: list[corpus_mod.PairExample], settings: dict, seed: int) -> encoder_mod.EncoderModel:
    """Fresh float32 encoder over a vocabulary built from the pairs' cleaned texts, the texts training tokenizes.

    ``init_model``'s float64 draw is rounded to float32 once here, so the
    model trains in float32, and its checkpoint stores float32 and loads
    back as float32.
    """
    # each text is cleaned as build_vocab counts it, so no list of all of them is built
    texts = (clean(text) for p in pairs for text in (p.anchor_text, p.positive_text))
    vocab = build_vocab(texts, max_size=settings["vocab_size"])
    model = encoder_mod.init_model(vocab, seed=seed, **{key: settings[key] for key in encoder_mod.ENCODER_SETTINGS})
    model.params = {name: arr.astype(np.float32) for name, arr in model.params.items()}
    return model


# --- subcommands ---------------------------------------------------------------


def cmd_synth(args) -> int:
    out = Path(args.out)
    _check_outputs("synth", out.parent, [], [(out, "the synthetic stream")])
    # every stream_records parameter but the seed is a flag of the same name
    params = inspect.signature(synth_mod.stream_records).parameters
    settings = {key: getattr(args, key) for key in params if key != "seed"}
    # checks the settings now; the records are made one at a time as the store is written
    records = synth_mod.stream_records(**settings, seed=derive_seed(args.seed, "synth"))
    [count] = _publish("synth", out.parent, [(out, synth_mod.write_store, records)], settings, [], args.seed)
    print(f"synth: wrote {count} records to {out}")
    return 0


def cmd_ingest(args) -> int:
    # an entry that names an existing file is that file, even one that reads as a pattern ('day[1].jsonl')
    matches = {entry: [entry] if Path(entry).is_file() else sorted(glob.glob(entry)) for entry in args.inputs}
    for entry, found in matches.items():
        directories = [p for p in found if Path(p).is_dir()]
        if directories:
            raise UsageError(f"--inputs entry {entry!r} matches the directory {directories[0]!r}; name stream files")
    paths = sorted({p for found in matches.values() for p in found})
    if not paths:
        raise UsageError(f"no input files match {args.inputs}")
    out = Path(args.out)
    stats_path = out.with_suffix(out.suffix + ".stats.json")
    _check_outputs("ingest", out.parent, paths, [(out, "the record store"), (stats_path, "the parse stats")])
    parses = [ingest_mod.parse_stream_file(p, args.lang) for p in paths]
    records, totals = ingest_mod.merge_runs(parses)

    stats = {
        "per_file": {path: parse[1].as_dict() for path, parse in zip(paths, parses)},
        "totals": totals.as_dict(),
        "records_kept": len(records),
    }
    files = [(out, ingest_mod.write_records, records), (stats_path, _write_json, stats)]
    _publish("ingest", out.parent, files, {"lang": args.lang}, paths, args.seed)
    print(
        f"ingest: {len(records)} records from {len(paths)} files "
        f"(malformed {totals.malformed}, filtered {totals.filtered_lang}, "
        f"duplicates {totals.duplicate_ids})"
    )
    return 0


def _response_index(records_path: str) -> tuple[corpus_mod.ResponseIndex, dict[str, int]]:
    """The response index of a record store, and its drop counts; neither records nor edges outlive it."""
    records = ingest_mod.read_records(records_path)
    edges = ingest_mod.extract_relations(records)
    texts_by_id = ingest_mod.index_records(records)
    del records
    edges, dropped_replies = ingest_mod.join_reply_targets(edges, texts_by_id)
    del texts_by_id
    index, dropped_short = corpus_mod.index_responses(edges)
    return index, {"dropped_unresolved_replies": dropped_replies, "dropped_short_text": dropped_short}


def cmd_build(args) -> int:
    datasets = list(corpus_mod.PAIR_DATASETS) if args.dataset == "all" else [args.dataset]
    out_dir = Path(args.out_dir)
    benches = [corpus_mod.BENCH_FOR_DATASET[d] for d in datasets] if args.bench_queries > 0 else []
    bench_paths = {name: out_dir / f"bench_{name}.jsonl" for name in benches}
    corpora = datasets + (["all"] if args.dataset == "all" else [])
    pairs_paths = {name: out_dir / f"pairs_{name}.tsv" for name in corpora}
    counts_path = out_dir / "build_counts.json"
    outputs = [(path, f"benchmark {name}") for name, path in bench_paths.items()]
    outputs += [(path, f"pair corpus {name}") for name, path in pairs_paths.items()]
    _check_outputs("build", out_dir, [args.records], [*outputs, (counts_path, "the build counts")])

    # every builder reads this one index, so each text is cleaned and each relation grouped once per build
    index, counts = _response_index(args.records)
    files = []  # (path, writer, contents): nothing is written until every benchmark and corpus is built

    banned: set[str] = set()
    for name, path in bench_paths.items():
        bench = corpus_mod.build_benchmark(
            index,
            name,
            num_queries=args.bench_queries,
            seed=derive_seed(args.seed, f"bench:{name}"),
            banned=banned,
        )
        banned |= bench.involved_ids()
        files.append((path, corpus_mod.write_benchmark, bench))
        counts[f"bench_{name}_queries"] = len(bench.queries)

    all_pairs: list[corpus_mod.PairExample] = []
    for dataset in datasets:
        build = corpus_mod.build_co_pairs if dataset in corpus_mod.CO_DATASETS else corpus_mod.build_pairs
        pairs = build(index, dataset, seed=derive_seed(args.seed, f"pairs:{dataset}"))
        pairs = corpus_mod.exclude_ids(pairs, banned)
        counts[f"{dataset}_available"] = len(pairs)
        if args.pairs_per_dataset is not None:
            try:
                pairs = corpus_mod.sample_corpus(
                    pairs, args.pairs_per_dataset, seed=derive_seed(args.seed, f"sample:{dataset}")
                )
            except DataError as exc:
                raise DataError(f"corpus {dataset}: {exc}") from exc
        files.append((pairs_paths[dataset], corpus_mod.write_pairs, pairs))
        counts[f"{dataset}_written"] = len(pairs)
        all_pairs.extend(pairs)

    if args.dataset == "all":
        files.append((pairs_paths["all"], corpus_mod.write_pairs, all_pairs))
        counts["all_written"] = len(all_pairs)

    files.append((counts_path, _write_json, counts))
    settings = {
        "dataset": args.dataset,
        "pairs_per_dataset": args.pairs_per_dataset,
        "bench_queries": args.bench_queries,
    }
    _publish("build", out_dir, files, settings, [args.records], args.seed)
    print(f"build: {json.dumps(counts)}")
    return 0


def cmd_train(args) -> int:
    out = Path(args.out)
    log_path = out.with_suffix(out.suffix + ".log.jsonl")
    inputs = [args.pairs]
    _check_outputs("train", out.parent, inputs, [(out, "the checkpoint"), (log_path, "the training log")])
    settings = _flag_settings(args)
    train_config = resolve_settings(settings, args.seed)
    pairs = corpus_mod.read_pairs(args.pairs)
    model = _init_encoder(pairs, settings, seed=derive_seed(args.seed, "encoder-init"))
    model, log = optim_mod.train(model, pairs, train_config)

    files = [
        (out, encoder_mod.save_checkpoint, model),
        (log_path, lambda entries, path: write_jsonl(path, entries), log),
    ]
    _publish("train", out.parent, files, settings, inputs, args.seed)
    losses = [entry["loss"] for entry in log]
    print(
        f"train: {len(log)} steps on {len(pairs)} pairs; "
        f"first-batch loss {losses[0]:.4f}, last-batch loss {losses[-1]:.4f}; checkpoint {out}"
    )
    return 0


def cmd_eval(args) -> int:
    # built per call, so a module function replaced after import (a tracing wrapper) is the one that runs
    kinds = {
        ".jsonl": (corpus_mod.read_benchmark, eval_mod.eval_ranking),
        ".tsv": (eval_mod.load_graded_tsv, eval_mod.eval_graded),
    }
    handlers = [kinds.get(Path(p).suffix) for p in args.inputs]  # (loader, evaluator) per input
    if None in handlers:
        hint = "use .jsonl for ranking benchmarks or .tsv for graded pairs"
        raise UsageError(f"{args.inputs[handlers.index(None)]}: cannot infer input type; {hint}")
    out_dir = Path(args.out_dir)
    report_paths = [out_dir / f"report_{Path(p).stem}.json" for p in args.inputs]
    inputs = [str(args.checkpoint)] + list(args.inputs)
    outputs = [(path, f"the report on {p}") for path, p in zip(report_paths, args.inputs)]
    _check_outputs("eval", out_dir, inputs, outputs)
    model = encoder_mod.load_checkpoint(args.checkpoint)
    checkpoint_id = _sha256_file(Path(args.checkpoint))[:12]
    # every input loads before any is evaluated, and every report is made before any is written
    loaded = [load(p) for p, (load, _) in zip(args.inputs, handlers)]
    reports = [evaluate(model, data) for (_, evaluate), data in zip(handlers, loaded)]
    for report in reports:
        report.meta["checkpoint"] = checkpoint_id
    files = [(path, eval_mod.EvalReport.write, report) for path, report in zip(report_paths, reports)]
    _publish("eval", out_dir, files, {"checkpoint": str(args.checkpoint)}, inputs, args.seed)

    # table convention: scores reported x100
    width = max(len("benchmark"), *(len(report.benchmark) for report in reports))
    print(f"{'benchmark'.ljust(width)}  metric   value x100")
    for report in reports:
        print(f"{report.benchmark.ljust(width)}  {report.metric:<8} {100.0 * report.value:10.1f}")
    return 0


def cmd_sweep(args) -> int:
    values = args.values
    if any(a >= b for a, b in zip(values, values[1:])):
        raise UsageError(f"sweep values must be strictly ascending: {values}")

    settings = _flag_settings(args)
    if args.axis == "batch_size":
        # every point replaces the base batch size; values ascend, so checking the smallest checks every point
        settings["batch_size"] = values[0]
    train_config = resolve_settings(settings, args.seed)
    out_dir = Path(args.out_dir)
    report_paths = {value: out_dir / f"report_{args.axis}_{value}.json" for value in values}
    summary_path = out_dir / "sweep_summary.csv"
    inputs = [args.pairs, args.benchmark]
    outputs = [(path, f"the report at {args.axis} {value}") for value, path in report_paths.items()]
    _check_outputs("sweep", out_dir, inputs, [*outputs, (summary_path, "the summary")])
    # values ascend, so the smallest trained corpus size checks every trained point
    trained = [value for value in values if value > 0]
    if args.axis == "corpus_size" and trained and trained[0] < train_config.batch_size:
        raise UsageError(
            f"corpus_size {trained[0]} is below batch_size {train_config.batch_size}; "
            "each trained point needs one full batch"
        )

    pool = corpus_mod.read_pairs(args.pairs)
    if values[-1] > len(pool):
        raise DataError(f"sweep value {values[-1]} exceeds pair pool of {len(pool)}")
    bench = corpus_mod.read_benchmark(args.benchmark)

    # one shuffle, points take prefixes: corpus size stays the only variable
    order = random.Random(derive_seed(args.seed, "sweep-corpus-order")).sample(pool, len(pool))

    def run_point(value: int) -> tuple[eval_mod.EvalReport, float | None]:
        subset = order[:value] if args.axis == "corpus_size" else pool
        # corpus size 0 is the untrained encoder, the floor; it keeps the
        # full-pool vocab so its embeddings are not degenerate
        init_seed = derive_seed(args.seed, f"sweep:{args.axis}:{value}:init")
        model = _init_encoder(subset if value > 0 else pool, settings, seed=init_seed)
        final_loss = None
        if value > 0:
            config = dataclasses.replace(
                train_config,
                batch_size=value if args.axis == "batch_size" else train_config.batch_size,
                seed=derive_seed(args.seed, f"sweep:{args.axis}:{value}:train"),
            )
            model, log = optim_mod.train(model, subset, config)
            final_loss = log[-1]["loss"]
        report = eval_mod.eval_ranking(model, bench)
        report.meta["sweep"] = {"axis": args.axis, "value": value}
        return report, final_loss

    # every point runs before any report is written
    runs = {value: run_point(value) for value in values}
    files = [(report_paths[value], eval_mod.EvalReport.write, report) for value, (report, _) in runs.items()]
    results = [
        {"axis": args.axis, "value": value, "ndcg": report.value, "final_loss": final_loss}
        for value, (report, final_loss) in runs.items()
    ]
    files.append((summary_path, _write_summary, results))
    recorded = {"axis": args.axis, "values": values, **settings}
    _publish("sweep", out_dir, files, recorded, inputs, args.seed)

    print(f"{'value':>8}  ndcg x100")
    for row in results:
        print(f"{row['value']:>8}  {100.0 * row['ndcg']:9.1f}")
    return 0


def _write_summary(rows: list[dict], path: Path) -> None:
    with atomic_write(path, newline="", encoding="utf-8") as handle:
        writer = csv.DictWriter(handle, fieldnames=["axis", "value", "ndcg", "final_loss"])
        writer.writeheader()
        writer.writerows(rows)


# --- argument parsing -----------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        # a flag is its exact name: '--ep 2' is no '--epochs 2'
        super().__init__(*args, allow_abbrev=False, **kwargs)

    def error(self, message):  # argparse would exit 2; usage problems are exit 1 here
        raise UsageError(message)


def _add_settings_flags(sub) -> None:
    """One flag per setting, spelled as the key with dashes, defaulting to the setting's default."""
    for key, default in CONFIG_DEFAULTS.items():
        flag = "--" + key.replace("_", "-")
        sub.add_argument(flag, dest=key, type=type(default), default=default, help=f"default {default}")


def _at_least(low: int):
    def integer(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}; got {value}")
        return value

    return integer


def build_parser() -> _Parser:
    parser = _Parser(prog="weakpairs", description=__doc__)
    parser.add_argument("--seed", type=int, default=0, help="master seed for every stage")
    commands = parser.add_subparsers(dest="command", required=True)

    p = commands.add_parser("synth", help="generate a synthetic tweet store")
    p.add_argument("--topics", type=int, required=True)
    p.add_argument("--pairs-per-topic", dest="pairs_per_topic", type=int, required=True)
    p.add_argument("--vocab-size", dest="vocab_size", type=int, default=600)
    p.add_argument("--noise", type=float, default=0.3)
    p.add_argument(
        "--responses-per-target",
        dest="responses_per_target",
        type=int,
        default=1,
        help="responses per target tweet; all four benchmarks need >= 6, but that is not enough "
        "on its own: each benchmark query bans 31 tweet ids, so there must also be enough targets",
    )
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_synth)

    p = commands.add_parser("ingest", help="parse stream files into a record store")
    p.add_argument("--inputs", nargs="+", required=True, help="file paths, each read as named, or globs")
    p.add_argument("--lang", default="en")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_ingest)

    p = commands.add_parser("build", help="build pair corpora and ranking benchmarks")
    p.add_argument("--records", required=True)
    p.add_argument("--dataset", default="all", choices=list(corpus_mod.PAIR_DATASETS) + ["all"])
    p.add_argument(
        "--pairs-per-dataset",
        dest="pairs_per_dataset",
        type=_at_least(0),
        default=None,
        help="sample size per dataset; omit to keep every available pair",
    )
    p.add_argument("--bench-queries", dest="bench_queries", type=_at_least(0), default=0)
    p.add_argument("--out-dir", dest="out_dir", required=True)
    p.set_defaults(func=cmd_build)

    p = commands.add_parser("train", help="train an encoder on a pair file")
    p.add_argument("--pairs", required=True)
    p.add_argument("--out", required=True)
    _add_settings_flags(p)
    p.set_defaults(func=cmd_train)

    p = commands.add_parser("eval", help="evaluate a checkpoint on benchmarks/graded files")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--inputs", nargs="+", required=True)
    p.add_argument("--out-dir", dest="out_dir", required=True)
    p.set_defaults(func=cmd_eval)

    p = commands.add_parser("sweep", help="ablate corpus size or batch size")
    p.add_argument("--axis", required=True, choices=["corpus_size", "batch_size"])
    p.add_argument(
        "--values",
        type=_at_least(0),
        nargs="+",
        required=True,
        help="strictly ascending; on the corpus_size axis 0 is the untrained encoder",
    )
    p.add_argument("--pairs", required=True)
    p.add_argument("--benchmark", required=True)
    p.add_argument("--out-dir", dest="out_dir", required=True)
    _add_settings_flags(p)
    p.set_defaults(func=cmd_sweep)
    return parser


def _one_blas_thread() -> None:
    """Set every OpenBLAS this process loaded to one thread; with none found, do nothing.

    OpenBLAS splits a large product over its threads, and the split changes
    how its sums round, so a checkpoint trained at two threads differs in
    its last bits from one trained at one.  At this model's widths a second
    thread buys no speed.
    """
    try:
        with open("/proc/self/maps", encoding="utf-8") as handle:
            libraries = {line.split()[-1] for line in handle if "openblas" in line and ".so" in line}
        for path in sorted(libraries):
            library = ctypes.CDLL(path)
            for symbol in ("openblas_set_num_threads", "scipy_openblas_set_num_threads64_"):
                setter = getattr(library, symbol, None)
                if setter is not None:
                    setter(1)
    except OSError:  # no /proc (not Linux), or a library that cannot be opened again
        pass


def main(argv: list[str] | None = None) -> int:
    _one_blas_thread()
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (DataError, OSError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
