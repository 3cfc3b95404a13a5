"""Command-line pipeline: synth, ingest, build, train, eval, sweep.

Every subcommand is deterministic under ``--seed``: stage-level seeds are
derived from the master seed by stable hashing of stage names, and each run
writes a manifest (resolved settings, inputs, output hashes) next to its
outputs.  Exit codes: 0 success, 1 usage, 2 data error, 3 numeric failure.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import glob
import hashlib
import inspect
import json
import random
import sys
from datetime import datetime, timezone
from pathlib import Path

from . import corpus as corpus_mod
from . import encoder as encoder_mod
from . import evaluate as eval_mod
from . import ingest as ingest_mod
from . import optim as optim_mod
from . import synth as synth_mod
from .atomic import atomic_write, write_jsonl
from .errors import DataError, NumericError, UsageError
from .textproc import build_vocab

# Every setting is a config key, a flag and a manifest entry.  Training settings
# are the TrainConfig fields (its seed is derived per stage, never set); encoder
# settings take their defaults from init_model, plus the vocabulary size cap.
_TRAIN_DEFAULTS = {f.name: f.default for f in dataclasses.fields(optim_mod.TrainConfig) if f.name != "seed"}
_ENCODER_KEYS = ("dim", "use_block", "normalize_output", "max_len")
_INIT_PARAMS = inspect.signature(encoder_mod.init_model).parameters
CONFIG_DEFAULTS: dict[str, object] = {
    **_TRAIN_DEFAULTS,
    **{key: _INIT_PARAMS[key].default for key in _ENCODER_KEYS},
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


def _write_json(path: Path, obj) -> None:
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
    _write_json(path, manifest)
    return path


# --- config handling ----------------------------------------------------------


def parse_config_file(path: str | Path) -> dict[str, str]:
    """Flat ``key = value`` config; '#' starts a comment, blank lines ignored."""
    values: dict[str, str] = {}
    problems: list[str] = []
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise UsageError(f"{path}: config file is not UTF-8 text ({exc.reason} at byte {exc.start})") from exc
    except OSError as exc:
        raise UsageError(f"{path}: cannot read config file ({exc.strerror or exc})") from exc
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            problems.append(f"line {lineno}: expected 'key = value', got {stripped!r}")
            continue
        key, _, value = stripped.partition("=")
        values[key.strip()] = value.strip()
    if problems:
        raise UsageError(f"{path}: " + "; ".join(problems))
    return values


def _coerce(key: str, raw: object, problems: list[str]):
    default = CONFIG_DEFAULTS[key]
    if isinstance(raw, str):
        try:
            if isinstance(default, bool):
                lowered = raw.lower()
                if lowered in ("true", "1", "yes", "on"):
                    return True
                if lowered in ("false", "0", "no", "off"):
                    return False
                raise ValueError(f"not a boolean: {raw!r}")
            if isinstance(default, int):
                return int(raw)
            if isinstance(default, float):
                return float(raw)
        except ValueError as exc:
            problems.append(f"{key}: {exc}")
            return default
        return raw
    return raw


def resolve_settings(
    config_path: str | Path | None, overrides: dict[str, object], seed: int
) -> tuple[dict[str, object], optim_mod.TrainConfig]:
    """Merge defaults, config file, and CLI overrides; report every problem at once.

    Returns the settings (as written to manifests) and the validated training
    config, seeded for the ``train`` stage.
    """
    problems: list[str] = []
    settings = dict(CONFIG_DEFAULTS)
    if config_path is not None:
        for key, raw in parse_config_file(config_path).items():
            if key not in CONFIG_DEFAULTS:
                problems.append(f"unknown config key {key!r} (valid: {', '.join(sorted(CONFIG_DEFAULTS))})")
                continue
            settings[key] = _coerce(key, raw, problems)
    for key, value in overrides.items():
        if value is None:
            continue
        if key not in CONFIG_DEFAULTS:
            problems.append(f"unknown override {key!r}")
            continue
        settings[key] = _coerce(key, value, problems)

    train_config = optim_mod.TrainConfig(
        **{k: settings[k] for k in _TRAIN_DEFAULTS}, seed=derive_seed(seed, "train")
    )
    problems.extend(train_config.validate())
    if settings["dim"] < 2:
        problems.append(f"dim must be >= 2; got {settings['dim']}")
    if settings["max_len"] < 1:
        problems.append(f"max_len must be >= 1; got {settings['max_len']}")
    if settings["vocab_size"] < 2:
        problems.append(f"vocab_size must be >= 2; got {settings['vocab_size']}")
    if problems:
        raise UsageError("invalid configuration: " + "; ".join(problems))
    return settings, train_config


def _flag_overrides(args) -> dict[str, object]:
    return {key: getattr(args, key) for key in CONFIG_DEFAULTS}


def _init_encoder(pairs: list[corpus_mod.PairExample], settings: dict, seed: int) -> encoder_mod.EncoderModel:
    """Fresh encoder over a vocabulary built from the pairs' texts."""
    texts = [p.anchor_text for p in pairs] + [p.positive_text for p in pairs]
    vocab = build_vocab(texts, max_size=settings["vocab_size"])
    return encoder_mod.init_model(vocab, seed=seed, **{key: settings[key] for key in _ENCODER_KEYS})


# --- subcommands ---------------------------------------------------------------


def cmd_synth(args) -> int:
    records = synth_mod.generate_records(
        topics=args.topics,
        pairs_per_topic=args.pairs_per_topic,
        vocab_size=args.vocab_size,
        noise=args.noise,
        seed=derive_seed(args.seed, "synth"),
        responses_per_target=args.responses_per_target,
    )
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    count = synth_mod.write_store(records, out)
    write_manifest(
        out.parent,
        "synth",
        {
            "topics": args.topics,
            "pairs_per_topic": args.pairs_per_topic,
            "vocab_size": args.vocab_size,
            "noise": args.noise,
            "responses_per_target": args.responses_per_target,
        },
        inputs=[],
        outputs=[out],
        seed=args.seed,
    )
    print(f"synth: wrote {count} records to {out}")
    return 0


def cmd_ingest(args) -> int:
    paths = sorted({p for pattern in args.inputs for p in glob.glob(pattern)})
    if not paths:
        raise UsageError(f"no input files match {args.inputs}")
    parses = [ingest_mod.parse_stream_file(p, args.lang) for p in paths]
    records, totals = ingest_mod.merge_runs(parses)

    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    ingest_mod.write_records(records, out)
    stats = {
        "per_file": {path: parse[1].as_dict() for path, parse in zip(paths, parses)},
        "totals": totals.as_dict(),
        "records_kept": len(records),
    }
    stats_path = out.with_suffix(out.suffix + ".stats.json")
    _write_json(stats_path, stats)
    write_manifest(
        out.parent,
        "ingest",
        {"lang": args.lang},
        inputs=paths,
        outputs=[out, stats_path],
        seed=args.seed,
    )
    print(
        f"ingest: {len(records)} records from {len(paths)} files "
        f"(malformed {totals.malformed}, filtered {totals.filtered_lang}, "
        f"duplicates {totals.duplicate_ids})"
    )
    return 0


def _joined_edges(records_path: str) -> tuple[list[ingest_mod.RelationEdge], int]:
    """Relation edges of a record store, reply targets joined; the records are not kept."""
    records = ingest_mod.read_records(records_path)
    edges = ingest_mod.extract_relations(records)
    return ingest_mod.join_reply_targets(edges, ingest_mod.index_records(records))


def cmd_build(args) -> int:
    datasets = list(corpus_mod.PAIR_DATASETS) if args.dataset == "all" else [args.dataset]
    out_dir = Path(args.out_dir)
    benches = [corpus_mod.BENCH_FOR_DATASET[d] for d in datasets] if args.bench_queries > 0 else []
    bench_paths = {name: out_dir / f"bench_{name}.jsonl" for name in benches}
    corpora = datasets + (["all"] if args.dataset == "all" else [])
    pairs_paths = {name: out_dir / f"pairs_{name}.tsv" for name in corpora}
    counts_path = out_dir / "build_counts.json"
    if args.edges_out:
        written = [*bench_paths.values(), *pairs_paths.values(), counts_path, out_dir / "manifest_build.json"]
        for path in written:
            if Path(args.edges_out).resolve() == path.resolve():
                raise UsageError(f"--edges-out {args.edges_out} is {path}, which build also writes")

    edges, dropped_replies = _joined_edges(args.records)
    counts: dict[str, object] = {"dropped_unresolved_replies": dropped_replies}
    files = []  # (path, writer, contents): nothing is written until every benchmark and corpus is built
    if args.edges_out:
        files.append((Path(args.edges_out), ingest_mod.write_edges, edges))
        counts["edges_written"] = len(edges)
    # every builder reads this one index, so each text is cleaned and each relation grouped once per build
    index, counts["dropped_short_text"] = corpus_mod.index_responses(edges)

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

    for path, write, contents in files:
        path.parent.mkdir(parents=True, exist_ok=True)
        write(contents, path)
    _write_json(counts_path, counts)
    outputs = [path for path, _, _ in files] + [counts_path]
    write_manifest(
        out_dir,
        "build",
        {
            "dataset": args.dataset,
            "pairs_per_dataset": args.pairs_per_dataset,
            "bench_queries": args.bench_queries,
        },
        inputs=[args.records],
        outputs=outputs,
        seed=args.seed,
    )
    print(f"build: {json.dumps(counts)}")
    return 0


def cmd_train(args) -> int:
    settings, train_config = resolve_settings(args.config, _flag_overrides(args), args.seed)
    pairs = corpus_mod.read_pairs(args.pairs)
    model = _init_encoder(pairs, settings, seed=derive_seed(args.seed, "encoder-init"))
    model, log = optim_mod.train(model, pairs, train_config)

    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    encoder_mod.save_checkpoint(model, out)
    log_path = out.with_suffix(out.suffix + ".log.jsonl")
    write_jsonl(log_path, log)
    write_manifest(
        out.parent,
        "train",
        settings,
        inputs=[args.pairs] + ([args.config] if args.config else []),
        outputs=[out, log_path],
        seed=args.seed,
    )
    losses = [entry["loss"] for entry in log]
    print(
        f"train: {len(log)} steps on {len(pairs)} pairs; "
        f"first-batch loss {losses[0]:.4f}, last-batch loss {losses[-1]:.4f}; checkpoint {out}"
    )
    return 0


def _config_hash(model: encoder_mod.EncoderModel) -> str:
    encoder_settings = {key: getattr(model, key) for key in _ENCODER_KEYS}
    blob = json.dumps({**encoder_settings, "vocab": len(model.vocab)}, sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()[:12]


def cmd_eval(args) -> int:
    unknown = [p for p in args.inputs if Path(p).suffix not in (".jsonl", ".tsv")]
    if unknown:
        raise UsageError(
            f"{unknown[0]}: cannot infer input type; use .jsonl for ranking benchmarks "
            f"or .tsv for graded pairs"
        )
    first_with_stem: dict[str, str] = {}
    for path in args.inputs:
        stem = Path(path).stem
        if stem in first_with_stem:
            raise UsageError(
                f"{first_with_stem[stem]} and {path} would both write report_{stem}.json; "
                f"give each input a different file name"
            )
        first_with_stem[stem] = path
    model = encoder_mod.load_checkpoint(args.checkpoint)
    checkpoint_id = _sha256_file(Path(args.checkpoint))[:12]
    # every input loads before any is evaluated, and every report is made before any is written
    loaded = [
        corpus_mod.read_benchmark(p) if Path(p).suffix == ".jsonl" else eval_mod.load_graded_tsv(p)
        for p in args.inputs
    ]
    reports = [
        eval_mod.eval_ranking(model, data, at_k=args.at_k)
        if isinstance(data, corpus_mod.RankingBenchmark)
        else eval_mod.eval_graded(model, data)
        for data in loaded
    ]
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    outputs = []
    for report in reports:
        report.meta.update(
            {
                "checkpoint": checkpoint_id,
                "config_hash": _config_hash(model),
                "timestamp": datetime.now(timezone.utc).isoformat(),
            }
        )
        outputs.append(out_dir / f"report_{report.benchmark}.json")
        report.write(outputs[-1])

    # table convention: scores reported x100
    width = max(len("benchmark"), *(len(report.benchmark) for report in reports))
    print(f"{'benchmark'.ljust(width)}  metric   value x100")
    for report in reports:
        print(f"{report.benchmark.ljust(width)}  {report.metric:<8} {100.0 * report.value:10.1f}")
    write_manifest(
        out_dir,
        "eval",
        {"at_k": args.at_k, "checkpoint": str(args.checkpoint)},
        inputs=[str(args.checkpoint)] + list(args.inputs),
        outputs=outputs,
        seed=args.seed,
    )
    return 0


def cmd_sweep(args) -> int:
    if args.include_baseline and args.axis != "corpus_size":
        raise UsageError("--include-baseline applies to the corpus_size axis only")
    values = args.values
    if len(values) != len(set(values)):
        raise UsageError(f"duplicate sweep values: {values}")
    if values != sorted(values):
        raise UsageError(f"sweep values must be ascending: {values}")

    overrides = _flag_overrides(args)
    if args.axis == "batch_size":
        # every point replaces the base batch size, so none but the points' sizes is checked
        overrides["batch_size"] = values[0]
    settings, train_config = resolve_settings(args.config, overrides, args.seed)
    point_configs = {
        value: dataclasses.replace(
            train_config,
            batch_size=value if args.axis == "batch_size" else train_config.batch_size,
            seed=derive_seed(args.seed, f"sweep:{args.axis}:{value}:train"),
        )
        for value in values
    }
    problems = [f"value {v}: {p}" for v, config in point_configs.items() for p in config.validate()]
    if problems:
        raise UsageError("invalid sweep point: " + "; ".join(problems))

    pool = corpus_mod.read_pairs(args.pairs)
    if args.axis == "corpus_size" and values[-1] > len(pool):
        raise DataError(f"sweep value {values[-1]} exceeds pair pool of {len(pool)}")
    bench = corpus_mod.read_benchmark(args.benchmark)

    # one shuffle, points take prefixes: corpus size stays the only variable
    order = random.Random(derive_seed(args.seed, "sweep-corpus-order")).sample(pool, len(pool))

    def run_point(value: int) -> tuple[eval_mod.EvalReport, float | None]:
        subset = order[:value] if args.axis == "corpus_size" else pool
        # the untrained baseline row keeps the full-pool vocab so its
        # embeddings are not degenerate
        init_seed = derive_seed(args.seed, f"sweep:{args.axis}:{value}:init")
        model = _init_encoder(subset if value > 0 else pool, settings, seed=init_seed)
        final_loss = None
        if value > 0:
            model, log = optim_mod.train(model, subset, point_configs[value])
            final_loss = log[-1]["loss"]
        report = eval_mod.eval_ranking(model, bench)
        report.meta["sweep"] = {"axis": args.axis, "value": value}
        return report, final_loss

    points = list(values)
    if args.include_baseline:
        points = [0] + points  # untrained encoder as the floor of the curve

    # every point runs before any report is written
    runs = {value: run_point(value) for value in points}
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    results = []
    for value, (report, final_loss) in runs.items():
        report.write(out_dir / f"report_{args.axis}_{value}.json")
        results.append({"axis": args.axis, "value": value, "ndcg": report.value, "final_loss": final_loss})

    summary_path = out_dir / "sweep_summary.csv"
    with atomic_write(summary_path, newline="", encoding="utf-8") as handle:
        writer = csv.DictWriter(handle, fieldnames=["axis", "value", "ndcg", "final_loss"])
        writer.writeheader()
        writer.writerows(results)

    print(f"{'value':>8}  ndcg x100")
    for row in results:
        print(f"{row['value']:>8}  {100.0 * row['ndcg']:9.1f}")
    write_manifest(
        out_dir,
        "sweep",
        {
            "axis": args.axis,
            "values": values,
            "include_baseline": args.include_baseline,
            **settings,
        },
        inputs=[args.pairs, args.benchmark] + ([args.config] if args.config else []),
        outputs=[summary_path],
        seed=args.seed,
    )
    return 0


# --- argument parsing -----------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit 2; usage problems are exit 1 here
        raise UsageError(message)


def _add_settings_flags(sub) -> None:
    """One flag per config key, spelled as the key with dashes; unset flags stay None."""
    sub.add_argument("--config", default=None, help="flat key = value config file")
    for key, default in CONFIG_DEFAULTS.items():
        flag = "--" + key.replace("_", "-")
        if isinstance(default, bool):
            sub.add_argument(flag, dest=key, action="store_true", default=None)
        else:
            sub.add_argument(flag, dest=key, type=type(default), default=None, help=f"default {default}")
    sub.add_argument("--no-block", dest="use_block", action="store_false", default=None)


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
    p.add_argument("--inputs", nargs="+", required=True, help="file paths or globs")
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
    p.add_argument(
        "--edges-out",
        dest="edges_out",
        default=None,
        help="also dump the joined relation edges as a TSV",
    )
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
    p.add_argument("--at-k", dest="at_k", type=_at_least(1), default=None)
    p.add_argument("--out-dir", dest="out_dir", required=True)
    p.set_defaults(func=cmd_eval)

    p = commands.add_parser("sweep", help="ablate corpus size or batch size")
    p.add_argument("--axis", required=True, choices=["corpus_size", "batch_size"])
    p.add_argument("--values", type=_at_least(1), nargs="+", required=True)
    p.add_argument("--pairs", required=True)
    p.add_argument("--benchmark", required=True)
    p.add_argument(
        "--include-baseline",
        dest="include_baseline",
        action="store_true",
        help="also evaluate the untrained encoder (corpus_size axis only)",
    )
    p.add_argument("--out-dir", dest="out_dir", required=True)
    _add_settings_flags(p)
    p.set_defaults(func=cmd_sweep)
    return parser


def main(argv: list[str] | None = None) -> int:
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
