"""The weakpairs benchmark: one workload, generated from a seed, through the real CLI.

Run from the repository root:

    python3 perfbench/run.py --workload archive --seed 1 --seconds 20 --trace 0

Set-up generates the workload's inputs (``perfbench/gen.py``) in a fresh
process, several times, and reports the median as ``setup_s``.  Then whole
passes of ``weakpairs.cli.main`` (ingest -> build -> train -> eval) run in this
process until ``--seconds`` have passed, at least two.  Stage times are means
over the passes and rates are work over time summed over the passes, not
medians of passes: on a shared machine the speed drifts by up to a third for
seconds to minutes at a time, and a median of passes jumps with it.  For the
same reason every time is scaled to one machine speed by a fixed kernel timed
around each stage and each set-up (``perfbench/calibrate.py``); the raw wall
times are printed beside them and kept in the results file.
BLAS is pinned to one thread and ingest keeps its default of one thread.
Every output is checked; a failed stage or check counts in ``failed``.

``--trace 1`` alternates untraced and traced passes instead; the traced ones
wrap each layer's public functions (``perfbench/spans.py``) and give the
per-layer figures, and the difference in pass time is the tracing overhead.
After the first pass it times a few training steps at vocabularies of 2k, 20k
and 100k; that probe counts against ``--seconds``.

The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``.  A fuller results file, stamped with
the Python, NumPy and BLAS versions, BLAS threads, CPU count, git commit and
seed, goes to ``.perfbench/results/``; spans of traced passes go beside it.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import glob
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import calibrate  # noqa: E402
import gen  # noqa: E402
from spans import MissingSpan, Tracer, percentile, tail_percentile  # noqa: E402

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
STAGES = ("ingest", "build", "train", "eval")
BENCH_NAMES = ("dq", "dr", "cq", "cr")
POSITIVES, NEGATIVES = 5, 25
SETUP_REPEATS = 3
MIN_PASSES = 2  # the rerun-determinism check compares two passes
SENTENCES_PER_QUERY = 1 + POSITIVES + NEGATIVES
PROBE_VOCABS = {"v2k": 2_000, "v20k": 20_000, "v100k": 100_000}
PROBE_STEPS = 3


class StageFailed(RuntimeError):
    def __init__(self, message: str, attempted: int):
        super().__init__(message)
        self.attempted = attempted  # stage invocations made, the failed one included


# --- one pass of the pipeline ---------------------------------------------------


def stage_argv(spec: gen.Workload, seed: int, inputs: Path, work: Path) -> dict[str, list[str]]:
    benches = [str(work / "built" / f"bench_{name}.jsonl") for name in BENCH_NAMES]
    checkpoint = str(work / "model" / "model.ckpt")
    head = ["--seed", str(seed)]
    return {
        "ingest": head + ["ingest", "--inputs", glob.escape(str(inputs / "stream")) + "/*",
                          "--out", str(work / "records.jsonl")],
        "build": head + ["build", "--records", str(work / "records.jsonl"), "--dataset", "all",
                         "--bench-queries", str(spec.bench_queries),
                         "--pairs-per-dataset", str(spec.pairs_per_dataset),
                         "--out-dir", str(work / "built")],
        "train": head + ["train", "--pairs", str(work / "built" / "pairs_all.tsv"),
                         "--out", checkpoint, *spec.train_args],
        "eval": head + ["eval", "--checkpoint", checkpoint,
                        "--inputs", *benches, str(inputs / "graded.tsv"),
                        "--out-dir", str(work / "reports")],
    }


def run_pass(cli, argvs: dict[str, list[str]], tracer: Tracer | None) -> tuple[dict[str, float], dict[str, float]]:
    """Run the four stages; return seconds per stage and the kernel seconds around
    each stage (the mean of the kernel runs just before and just after it), or
    raise StageFailed."""
    seconds, kernels = {}, {}
    before = calibrate.kernel_s()
    for stage in STAGES:
        sink = io.StringIO()
        gc.collect()  # the previous stage's garbage is not this stage's cost
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                with tracer.span(f"cli.{stage}") if tracer else contextlib.nullcontext():
                    code = cli.main(argvs[stage])
        except Exception:  # a crash is a failed stage, reported with its traceback
            raise StageFailed(f"{stage} raised:\n{sink.getvalue()}{traceback.format_exc()}", len(seconds) + 1)
        if code != 0:
            raise StageFailed(f"{stage} exited {code}:\n{sink.getvalue()}", len(seconds) + 1)
        seconds[stage] = time.perf_counter() - start
        after = calibrate.kernel_s()
        kernels[stage] = (before + after) / 2.0
        before = after
    return seconds, kernels


def read_json(path: Path):
    return json.loads(path.read_text(encoding="utf-8"))


def pass_facts(work: Path, seconds: dict[str, float], kernels: dict[str, float]) -> dict:
    """What one pass produced, read back from its output files."""
    stats = read_json(work / "records.jsonl.stats.json")
    log = [json.loads(line) for line in (work / "model" / "model.ckpt.log.jsonl").read_text().splitlines()]
    train_manifest = read_json(work / "model" / "manifest_train.json")
    reports = {p.stem[len("report_"):]: read_json(p) for p in sorted((work / "reports").glob("report_*.json"))}
    sentences = sum(
        SENTENCES_PER_QUERY * r["meta"]["queries"] if r["metric"] == "ndcg" else 2 * r["meta"]["pairs"]
        for r in reports.values()
    )
    return {
        "seconds": seconds,
        "kernel_s": kernels,
        "stats": stats,
        "losses": [entry["loss"] for entry in log],
        "batch_size": train_manifest["settings"]["batch_size"],
        "checkpoint_sha256": next(o["sha256"] for o in train_manifest["outputs"] if o["path"].endswith(".ckpt")),
        "ndcg": {name: r["value"] for name, r in reports.items() if r["metric"] == "ndcg"},
        "pearson": next(r["value"] for r in reports.values() if r["metric"] == "pearson"),
        "sentences": sentences,
    }


# --- output checks ---------------------------------------------------------------


def check_ingest(manifest: dict, facts: dict) -> list[str]:
    """The ingest totals equal what the generator wrote and injected."""
    totals = facts["stats"]["totals"]
    expected = dict(manifest["injected"], lines=manifest["lines"], parsed=manifest["records"], duplicate_ids=0)
    return [f"ingest {key} = {totals.get(key)}, expected {value}"
            for key, value in expected.items() if totals.get(key) != value]


def _pair_rows(path: Path) -> list[list[str]]:
    return [line.split("\t") for line in path.read_text(encoding="utf-8").splitlines() if line]


def check_benchmarks(wanted: int, work: Path) -> list[str]:
    """Each benchmark has the requested queries, 5/25 each, no id shared with training pairs."""
    train_ids = {i for row in _pair_rows(work / "built" / "pairs_all.tsv") for i in row[:2]}
    problems = []
    for path in (work / "built" / f"bench_{name}.jsonl" for name in BENCH_NAMES):
        queries = [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines() if line]
        if len(queries) != wanted:
            problems.append(f"{path.name}: {len(queries)} queries, expected {wanted}")
        shapes = {(len(q["positives"]), len(q["negatives"])) for q in queries}
        if shapes != {(POSITIVES, NEGATIVES)}:
            problems.append(f"{path.name}: positive/negative counts {sorted(shapes)}")
        shared = train_ids.intersection(i for q in queries for i in q["ids"])
        if shared:
            problems.append(f"{path.name}: {len(shared)} ids also in training pairs")
    return problems


def check_one_pair_per_target(work: Path) -> list[str]:
    """Each corpus has at most one pair per target tweet."""
    target_of = {}
    with open(work / "records.jsonl", encoding="utf-8") as handle:
        for line in handle:
            record = json.loads(line)
            target_of[record["id"]] = record["quoted_id"] or record["reply_to"]
    problems = []
    for dataset in ("qt", "rp", "coqt", "corp"):
        rows = _pair_rows(work / "built" / f"pairs_{dataset}.tsv")
        # direct pairs are anchored on the target itself; co-pairs on one of its responses
        targets = [row[0] if dataset in ("qt", "rp") else target_of.get(row[0]) for row in rows]
        if None in targets:
            problems.append(f"pairs_{dataset}: an anchor with no target in the record store")
        if len(set(targets)) != len(targets):
            problems.append(f"pairs_{dataset}: {len(targets) - len(set(targets))} repeated targets")
    return problems


def check_train_log(facts: dict, work: Path) -> list[str]:
    """The log has one entry per full batch of the one epoch, every loss finite."""
    expected = len(_pair_rows(work / "built" / "pairs_all.tsv")) // facts["batch_size"]
    problems = []
    if len(facts["losses"]) != expected:
        problems.append(f"train log has {len(facts['losses'])} steps, expected {expected}")
    if not all(math.isfinite(loss) for loss in facts["losses"]):
        problems.append("train log has a non-finite loss")
    return problems


def check_quality(facts: dict, baseline: float) -> list[str]:
    problems = []
    ndcg_mean = statistics.fmean(facts["ndcg"].values())
    if len(facts["ndcg"]) != len(BENCH_NAMES) or not ndcg_mean > baseline:
        problems.append(f"ndcg_mean {ndcg_mean:.4f} over {len(facts['ndcg'])} benchmarks, random baseline {baseline:.4f}")
    if not facts["pearson"] > 0.0:
        problems.append(f"pearson {facts['pearson']:.4f} is not above 0")
    return problems


def check_rerun(all_facts: list[dict]) -> list[str]:
    """Every pass of the same seed gives the same checkpoint and the same scores."""
    first = all_facts[0]
    problems = []
    if len(all_facts) < MIN_PASSES:
        problems.append(f"only {len(all_facts)} pass ran, so the rerun could not be compared")
    for k, facts in enumerate(all_facts[1:], start=2):
        for key in ("checkpoint_sha256", "ndcg", "pearson"):
            if facts[key] != first[key]:
                problems.append(f"pass {k} {key} differs from pass 1")
    return problems


# --- per-layer figures (traced passes) ---------------------------------------------


def layer_metrics(tr: Tracer, facts: dict, manifest: dict, work: Path) -> tuple[dict[str, float], set[str], list[float]]:
    """Per-layer figures of one traced pass, the names whose spans are missing, and step times."""
    metrics: dict[str, float] = {}
    missing: set[str] = set()

    def put(name, compute):
        try:
            metrics[name] = compute()
        except MissingSpan:
            missing.add(name)

    stage = {s: tr.find(f"cli.{s}")[0] for s in STAGES}
    totals = facts["stats"]["totals"]
    raw_mb = sum(f["raw_bytes"] for f in manifest["files"]) / 1e6
    build_counts = read_json(work / "built" / "build_counts.json")
    vocab = read_json_header(work / "model" / "model.ckpt")["vocab"]["tokens"]
    try:
        steps = tr.step_times()
    except MissingSpan:
        steps = []

    put("ingest.parse_s", lambda: tr.total("ingest.parse"))
    put("ingest.mb_per_s", lambda: raw_mb / tr.total("ingest.parse"))
    put("ingest.store_io_s", lambda: tr.total("ingest.store_io"))
    put("ingest.relations_s", lambda: tr.total("ingest.relations"))
    for key in ("lines", "malformed", "no_text", "filtered_lang"):
        metrics[f"ingest.{key}"] = totals[key]
    put("ingest.edges", lambda: tr.counter("ingest.edges", "ingest.relations"))

    put("textproc.clean_calls", lambda: tr.calls("textproc.clean", under=stage["build"]))
    put("textproc.clean_s", lambda: tr.total("textproc.clean", under=stage["build"]))
    put("textproc.clean_calls_per_record",
        lambda: tr.calls("textproc.clean", under=stage["build"]) / facts["stats"]["records_kept"])
    put("textproc.build_vocab_s", lambda: tr.total("textproc.build_vocab"))
    put("textproc.encode_ids_s", lambda: tr.total("textproc.encode_ids"))
    metrics["textproc.vocab_size"] = len(vocab)

    put("corpus.benchmark_s", lambda: tr.total("corpus.benchmark"))
    put("corpus.pairs_s", lambda: tr.total("corpus.pairs"))
    put("corpus.io_s", lambda: tr.total("corpus.io"))
    metrics["corpus.bench_queries"] = sum(v for k, v in build_counts.items() if k.startswith("bench_"))
    metrics["corpus.pairs_written"] = build_counts["all_written"]

    for short, name in (("forward", "encoder.forward"), ("backward", "encoder.backward"), ("encode", "encoder.encode")):
        put(f"encoder.{short}_calls", lambda name=name: tr.calls(name))
        put(f"encoder.{short}_s", lambda name=name: tr.total(name))
    put("encoder.checkpoint_io_s", lambda: tr.total("encoder.checkpoint_io"))

    metrics["optim.steps"] = len(steps)
    put("optim.loss_s", lambda: tr.total("optim.loss"))
    put("optim.adamw_s", lambda: tr.total("optim.adamw"))
    put("optim.accumulate_s", lambda: sum(tr.self_time(i) for i in tr.find("optim.train")))

    put("evaluate.eval_ranking_s", lambda: tr.total("evaluate.eval_ranking"))
    put("evaluate.eval_graded_s", lambda: tr.total("evaluate.eval_graded"))
    put("evaluate.io_s", lambda: tr.total("evaluate.io"))
    put("evaluate.score_s", lambda: sum(
        tr.self_time(i) for name in ("evaluate.eval_ranking", "evaluate.eval_graded") for i in tr.find(name)))

    put("cli.manifest_s", lambda: tr.total("cli.manifest"))
    for s in STAGES:
        metrics[f"cli.{s}_s"] = tr.nodes[stage[s]]["total"]
        metrics[f"cli.{s}_self_s"] = tr.self_time(stage[s])
    return metrics, missing, steps


def vocab_probe(work: Path, seed: int) -> dict[str, float]:
    """Milliseconds per training step with the vocabulary padded to fixed sizes."""
    from weakpairs import corpus, encoder, optim, textproc

    config = optim.TrainConfig(seed=seed)
    pairs = corpus.read_pairs(work / "built" / "pairs_all.tsv")[: config.batch_size * PROBE_STEPS]
    texts = [p.anchor_text for p in pairs] + [p.positive_text for p in pairs]
    results = {}
    for key, size in PROBE_VOCABS.items():
        filler = " ".join(f"unused{i:06d}" for i in range(size))  # never seen in training text
        model = encoder.init_model(textproc.build_vocab(texts + [filler], max_size=size), seed=seed)
        start = time.perf_counter()
        optim.train(model, pairs, config)
        results[f"optim.step_ms_{key}"] = 1000.0 * (time.perf_counter() - start) / PROBE_STEPS
    return results


# --- environment stamp -------------------------------------------------------------


def blas_threads() -> int | None:
    """Threads OpenBLAS reports, asked through the library NumPy loaded."""
    import ctypes

    with open("/proc/self/maps", encoding="utf-8") as handle:
        libraries = {line.split()[-1] for line in handle if "openblas" in line and ".so" in line}
    for path in sorted(libraries):
        library = ctypes.CDLL(path)
        for symbol in ("openblas_get_num_threads", "scipy_openblas_get_num_threads64_"):
            function = getattr(library, symbol, None)
            if function is not None:
                function.restype = ctypes.c_int
                return int(function())
    return None


def git_commit(root: Path) -> str | None:
    if not (root / ".git").exists():  # not a clone: git would look in the directories above
        return None
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def stamp(root: Path, seed: int) -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "blas_thread_env": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)),
        "git_commit": git_commit(root),
        "seed": seed,
    }


# --- the run ----------------------------------------------------------------------


def end_to_end(setup_s: float, all_facts: list[dict], scaled: bool = True) -> dict[str, float]:
    """Whole-run figures: seconds per pass are means, rates are work over time summed
    over passes; times are scaled to the reference machine speed unless ``scaled``
    is false (see ``calibrate.py``)."""

    def total(stage: str) -> float:
        seconds = [f["seconds"][stage] for f in all_facts]
        return calibrate.scale(seconds, [f["kernel_s"][stage] for f in all_facts]) if scaled else sum(seconds)

    last = all_facts[-1]
    return {
        "setup_s": setup_s,
        "pipeline_s": sum(total(stage) for stage in STAGES) / len(all_facts),
        "ingest_lines_per_s": sum(f["stats"]["totals"]["lines"] for f in all_facts) / total("ingest"),
        "build_s": total("build") / len(all_facts),
        "train_pairs_per_s": sum(len(f["losses"]) * f["batch_size"] for f in all_facts) / total("train"),
        "eval_sentences_per_s": sum(f["sentences"] for f in all_facts) / total("eval"),
        "ndcg_mean": 100.0 * statistics.fmean(last["ndcg"].values()),
        "pearson": 100.0 * last["pearson"],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def units(trace: bool) -> dict[str, str]:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="weakpairs benchmark (see the module docstring)")
    parser.add_argument("--workload", required=True, choices=sorted(gen.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    src = root / "src"
    if not (src / "weakpairs" / "cli.py").is_file():
        print(f"perfbench: no weakpairs source at {src}; run from the repository root", file=sys.stderr)
        return 2
    for var in BLAS_THREAD_VARS:  # before NumPy is first imported, here and in set-up
        os.environ[var] = "1"
    os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
    sys.path.insert(0, str(src))

    spec = gen.WORKLOADS[args.workload]
    out_root = root / ".perfbench"
    work = out_root / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    inputs = work / "inputs"
    try:
        setup_times, setup_kernels = [], []
        for _ in range(1 if args.trace else SETUP_REPEATS):
            before = calibrate.kernel_s()
            start = time.perf_counter()
            done = subprocess.run(
                [sys.executable, str(HERE / "gen.py"), "--workload", args.workload,
                 "--seed", str(args.seed), "--out", str(inputs)],
                capture_output=True, text=True,
            )
            setup_times.append(time.perf_counter() - start)
            setup_kernels.append((before + calibrate.kernel_s()) / 2.0)
            if done.returncode != 0:
                print(f"perfbench: set-up failed:\n{done.stderr}", file=sys.stderr)
                return 1
        manifest = read_json(inputs / "manifest.json")
        return measure(args, spec, root, work, inputs, manifest, setup_times, setup_kernels)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def measure(args, spec, root, work, inputs, manifest, setup_times, setup_kernels) -> int:
    from weakpairs import cli
    from weakpairs.evaluate import permutation_ndcg_baseline

    argvs = stage_argv(spec, args.seed, inputs, work)
    attempted = failed = 0
    all_facts: list[dict] = []
    traced: list[tuple[Tracer, dict, tuple]] = []
    untraced_seconds: list[float] = []
    probe: dict[str, float] = {}
    started = time.perf_counter()
    while len(all_facts) < MIN_PASSES or time.perf_counter() - started < args.seconds:
        tracer = Tracer() if args.trace and len(all_facts) % 2 == 1 else None
        if tracer:
            tracer.install()
        try:
            seconds, kernels = run_pass(cli, argvs, tracer)
        except StageFailed as exc:
            attempted += exc.attempted
            failed += 1
            print(f"perfbench: {exc}", file=sys.stderr)
            break
        finally:
            if tracer:
                tracer.uninstall()
        attempted += len(STAGES)
        facts = pass_facts(work, seconds, kernels)
        all_facts.append(facts)
        if tracer:
            traced.append((tracer, facts, layer_metrics(tracer, facts, manifest, work)))
        else:
            untraced_seconds.append(sum(seconds.values()))
        if args.trace and not probe:  # inside the time budget, once the pair file exists
            probe = vocab_probe(work, args.seed)
    if not all_facts or (args.trace and not traced):
        print("perfbench: no complete pass, nothing to report", file=sys.stderr)
        return 1

    last = all_facts[-1]
    checks = {
        "ingest counts equal injected counts": check_ingest(manifest, last),
        "benchmarks have 5/25 queries disjoint from training": check_benchmarks(spec.bench_queries, work),
        "at most one pair per target": check_one_pair_per_target(work),
        "train log steps and finite losses": check_train_log(last, work),
        "ndcg above random and pearson above 0": check_quality(last, permutation_ndcg_baseline()),
        "rerun gives the same checkpoint and scores": check_rerun(all_facts),
    }
    for name, problems in checks.items():
        attempted += 1
        failed += bool(problems)
        for problem in problems:
            print(f"perfbench: check failed: {name}: {problem}", file=sys.stderr)

    missing: set[str] = set()
    wall: dict[str, float] = {}
    if args.trace:
        per_pass, step_samples = [], []
        for _, _, (metrics, lost, steps) in traced:
            per_pass.append(metrics)
            step_samples += steps
            missing |= lost
        metrics = {key: statistics.median(m[key] for m in per_pass) for key in per_pass[0]}
        if step_samples:
            pct, tail = tail_percentile(step_samples)
            metrics["optim.step_ms_p50"] = 1000.0 * percentile(step_samples, 50.0)
            metrics["optim.step_ms_tail"] = 1000.0 * tail
            metrics["optim.step_tail_pct"] = pct
        metrics["tracing_overhead_s"] = (
            statistics.median(sum(f["seconds"].values()) for _, f, _ in traced) - statistics.median(untraced_seconds)
        )
        metrics.update(probe)
    else:
        setup_s = statistics.median(calibrate.scale([t], [k]) for t, k in zip(setup_times, setup_kernels))
        metrics = end_to_end(setup_s, all_facts)
        wall = end_to_end(statistics.median(setup_times), all_facts, scaled=False)

    unit_of = units(bool(args.trace))
    missing |= set(unit_of) - set(metrics)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in unit_of.items() if name in metrics},
    }
    write_results(root, args, result, wall, all_facts, setup_times, setup_kernels, traced, missing, failed / attempted)

    for name, entry in result["metrics"].items():
        raw = f"  (wall {wall[name]:.4f})" if name in wall and wall[name] != entry["value"] else ""
        print(f"{args.workload:9s} {name:32s} {entry['value']:14.4f} {entry['unit']}{raw}")
    print(f"{args.workload:9s} {'failed_frac':32s} {failed / attempted:14.4f} ratio ({failed}/{attempted})")
    for name in sorted(missing):
        print(f"perfbench: {name} missing: its span was not found", file=sys.stderr)
    print(json.dumps(result))
    return 0


def read_json_header(path: Path) -> dict:
    with open(path, "rb") as handle:
        return json.loads(handle.readline())


def write_results(root, args, result, wall, all_facts, setup_times, setup_kernels, traced, missing, failed_frac) -> None:
    results = root / ".perfbench" / "results"
    results.mkdir(parents=True, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {
        "stamp": stamp(root, args.seed),
        "workload": args.workload,
        "seconds": args.seconds,
        "failed_frac": failed_frac,
        "reference_kernel_s": calibrate.REFERENCE_S,
        "wall_metrics": wall,
        "setup_s": setup_times,
        "setup_kernel_s": setup_kernels,
        "passes": [{"seconds": f["seconds"], "kernel_s": f["kernel_s"], "sentences": f["sentences"], "ndcg": f["ndcg"],
                    "pearson": f["pearson"], "traced": any(f is t for _, t, _ in traced)} for f in all_facts],
        "missing": sorted(missing),
        "result": result,
    }
    (results / f"{name}.json").write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    if traced:
        spans = [{"pass": k, "nodes": tracer.nodes, "counts": tracer.counts} for k, (tracer, _, _) in enumerate(traced)]
        (results / f"{name}-spans.json").write_text(json.dumps(spans) + "\n", encoding="utf-8")


if __name__ == "__main__":
    sys.exit(main())
