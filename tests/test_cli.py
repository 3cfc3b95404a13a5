"""CLI subcommand tests: exit codes, manifests, determinism, pipeline composition."""

import bz2
import csv
import dataclasses
import gzip
import hashlib
import io
import json
import os
import random
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from weakpairs.atomic import write_jsonl
from weakpairs.cli import CONFIG_DEFAULTS, build_parser, derive_seed, main
from weakpairs.corpus import PairExample, write_pairs
from weakpairs.encoder import ENCODER_SETTINGS, load_checkpoint
from weakpairs.optim import TrainConfig
from weakpairs.synth import generate_records
from weakpairs.textproc import clean

SRC = Path(__file__).resolve().parents[1] / "src"

# one non-default value per setting; a setting missing here fails the flag tests
NON_DEFAULT_SETTINGS = {
    "loss": "triplet",
    "batch_size": 4,
    "learning_rate": 0.005,
    "epochs": 2,
    "dim": 8,
    "max_len": 6,
    "vocab_size": 30,
}
SETTING_KEYS = [f.name for f in dataclasses.fields(TrainConfig) if f.name != "seed"] + [
    *ENCODER_SETTINGS, "vocab_size",
]


def run(*argv):
    return main([str(a) for a in argv])


@pytest.fixture
def store(tmp_cwd):
    assert run("--seed", 11, "synth", "--topics", 10, "--pairs-per-topic", 32,
               "--vocab-size", 260, "--noise", 0.2, "--responses-per-target", 8,
               "--out", "store.jsonl") == 0
    assert run("--seed", 11, "ingest", "--inputs", "store.jsonl", "--out", "records.jsonl") == 0
    return tmp_cwd


class TestSeedDerivation:
    def test_stable_across_calls(self):
        assert derive_seed(3, "train") == derive_seed(3, "train")

    def test_stage_names_decorrelate(self):
        assert derive_seed(3, "train") != derive_seed(3, "encoder-init")
        assert derive_seed(3, "train") != derive_seed(4, "train")


class TestSettingFlags:
    def test_unset_flags_record_the_defaults(self, tmp_cwd):
        write_small_pairs("pairs.tsv")
        assert run("train", "--pairs", "pairs.tsv", "--out", "m.ckpt") == 0
        settings = json.loads(Path("manifest_train.json").read_text())["settings"]
        assert list(settings.items()) == list(CONFIG_DEFAULTS.items())

    @pytest.mark.parametrize("key", SETTING_KEYS)
    def test_flag_reaches_the_manifest(self, tmp_cwd, key):
        value = NON_DEFAULT_SETTINGS[key]
        assert value != CONFIG_DEFAULTS[key]
        write_small_pairs("pairs.tsv")
        assert run("train", "--pairs", "pairs.tsv", "--out", "m.ckpt", "--" + key.replace("_", "-"), value) == 0
        settings = json.loads(Path("manifest_train.json").read_text())["settings"]
        assert settings.keys() == CONFIG_DEFAULTS.keys()
        assert settings[key] == value and type(settings[key]) is type(value)

    def test_all_problems_listed_at_once(self, tmp_cwd, capsys):
        # the pair file does not exist: reading it would be a data error (exit 2)
        assert run("train", "--pairs", "pairs.tsv", "--out", "m.ckpt",
                   "--loss", "nope", "--batch-size", 0, "--dim", 1) == 1
        err = capsys.readouterr().err
        assert err.startswith("usage error: invalid configuration: ") and err.count("\n") == 1
        assert "loss" in err and "batch_size" in err and "dim" in err
        assert list(tmp_cwd.iterdir()) == []

    @pytest.mark.parametrize("command", ["train", "sweep"])
    def test_config_is_unknown_argument(self, tmp_cwd, capsys, command):
        # settings come from flags alone; a config file is neither read nor checked
        Path("c.conf").write_text("dim = 8\n")
        argv = {"train": ["train", "--pairs", "pairs.tsv", "--out", "m.ckpt"],
                "sweep": ["sweep", "--axis", "corpus_size", "--values", 8, "--pairs", "pairs.tsv",
                          "--benchmark", "bench.jsonl", "--out-dir", "sweep"]}[command]
        assert run(*argv, "--config", "c.conf") == 1
        assert capsys.readouterr().err == "usage error: unrecognized arguments: --config c.conf\n"
        assert [p.name for p in tmp_cwd.iterdir()] == ["c.conf"]

    @pytest.mark.parametrize("key", SETTING_KEYS)
    def test_prefix_of_a_setting_flag_is_usage_error(self, tmp_cwd, capsys, key):
        # a flag is its exact name, so '--ep 2' never sets epochs; the pair file does not exist
        prefix = "--" + key.replace("_", "-")[:-1]
        assert run("train", "--pairs", "pairs.tsv", "--out", "m.ckpt", prefix, NON_DEFAULT_SETTINGS[key]) == 1
        err = capsys.readouterr().err
        assert err.startswith("usage error: unrecognized arguments: ") and prefix in err
        assert list(tmp_cwd.iterdir()) == []


class TestSynthIngest:
    def test_ingest_stats_totals_equal_per_file_sums(self, tmp_cwd):
        for i, seed in enumerate((1, 2, 3)):
            assert run("--seed", seed, "synth", "--topics", 3, "--pairs-per-topic", 4,
                       "--vocab-size", 120, "--noise", 0.2, "--out", f"part{i}.jsonl") == 0
        # a fourth file repeats three records of part0 and one of part2: four cross-file duplicates
        lines = Path("part0.jsonl").read_text().splitlines()[:3] + Path("part2.jsonl").read_text().splitlines()[:1]
        Path("part3.jsonl").write_text("\n".join(lines) + "\n")
        assert run("ingest", "--inputs", "part0.jsonl", "part1.jsonl", "part2.jsonl", "part3.jsonl",
                   "--out", "records.jsonl") == 0
        stats = json.loads(Path("records.jsonl.stats.json").read_text())
        assert [f["duplicate_ids"] for f in stats["per_file"].values()] == [0, 0, 0, 4]
        for key in ("lines", "parsed", "malformed", "filtered_lang", "no_text", "duplicate_ids"):
            assert stats["totals"][key] == sum(f[key] for f in stats["per_file"].values())

    def test_ingest_glob_inputs(self, tmp_cwd):
        run("synth", "--topics", 2, "--pairs-per-topic", 3, "--vocab-size", 110,
            "--out", "a.jsonl")
        assert run("ingest", "--inputs", "*.jsonl", "--out", "records.out") == 0

    def test_empty_glob_is_usage_error(self, tmp_cwd):
        assert run("ingest", "--inputs", "missing*.jsonl", "--out", "records.jsonl") == 1

    @pytest.mark.parametrize("entry", ["sub", "su*"])
    def test_entry_matching_a_directory_is_usage_error(self, tmp_cwd, capsys, entry):
        Path("sub").mkdir()
        write_stream("stream.jsonl")
        assert run("ingest", "--inputs", "stream.jsonl", entry, "--out", "records.jsonl") == 1
        assert capsys.readouterr().err == (
            f"usage error: --inputs entry {entry!r} matches the directory 'sub'; name stream files\n"
        )
        assert sorted(path.name for path in tmp_cwd.iterdir()) == ["stream.jsonl", "sub"]

    def test_existing_file_is_read_as_named(self, tmp_cwd):
        # as a glob, 'day[1].jsonl' matches day1.jsonl and not itself
        for seed, out in ((1, "day[1].jsonl"), (2, "day1.jsonl")):
            assert run("--seed", seed, "synth", "--topics", 2, "--pairs-per-topic", 3, "--vocab-size", 110,
                       "--out", out) == 0
        assert run("ingest", "--inputs", "day[1].jsonl", "--out", "records.jsonl") == 0
        stats = json.loads(Path("records.jsonl.stats.json").read_text())
        assert list(stats["per_file"]) == ["day[1].jsonl"]
        assert stats["records_kept"] == len(Path("day[1].jsonl").read_text().splitlines())

    @pytest.mark.parametrize("suffix, opener", [("", open), (".gz", gzip.open), (".bz2", bz2.open)],
                             ids=["plain", "gz", "bz2"])
    def test_leading_byte_order_mark_is_dropped(self, tmp_cwd, suffix, opener):
        assert run("synth", "--topics", 3, "--pairs-per-topic", 4, "--vocab-size", 120, "--out", "s.jsonl") == 0
        with opener(f"bom.jsonl{suffix}", "wb") as handle:
            handle.write(b"\xef\xbb\xbf" + Path("s.jsonl").read_bytes())
        assert run("ingest", "--inputs", "s.jsonl", "--out", "plain.jsonl") == 0
        assert run("ingest", "--inputs", f"bom.jsonl{suffix}", "--out", "bom_records.jsonl") == 0
        stats = json.loads(Path("bom_records.jsonl.stats.json").read_text())
        assert stats["totals"]["malformed"] == 0
        assert Path("bom_records.jsonl").read_bytes() == Path("plain.jsonl").read_bytes()

    def test_rerun_produces_identical_store(self, tmp_cwd):
        run("--seed", 5, "synth", "--topics", 3, "--pairs-per-topic", 4,
            "--vocab-size", 120, "--out", "s.jsonl")
        run("ingest", "--inputs", "s.jsonl", "--out", "r1.jsonl")
        run("ingest", "--inputs", "s.jsonl", "--out", "r2.jsonl")
        assert Path("r1.jsonl").read_bytes() == Path("r2.jsonl").read_bytes()

    def test_synth_store_is_the_generated_records_and_prints_their_count(self, tmp_cwd, capsys):
        assert run("--seed", 5, "synth", "--topics", 3, "--pairs-per-topic", 7, "--vocab-size", 120,
                   "--responses-per-target", 3, "--out", "s.jsonl") == 0
        records = generate_records(topics=3, pairs_per_topic=7, vocab_size=120, noise=0.3,
                                   seed=derive_seed(5, "synth"), responses_per_target=3)
        write_jsonl("expected.jsonl", records)
        assert Path("s.jsonl").read_bytes() == Path("expected.jsonl").read_bytes()
        assert capsys.readouterr().out == f"synth: wrote {len(records)} records to s.jsonl\n"

    @pytest.mark.parametrize("flags", [["--noise", 1.5], ["--topics", 90, "--vocab-size", 100]],
                             ids=["noise", "vocab-too-small"])
    def test_synth_bad_setting_writes_nothing(self, tmp_cwd, capsys, flags):
        assert run("synth", "--topics", 3, "--pairs-per-topic", 4, *flags, "--out", "out/s.jsonl") == 1
        assert capsys.readouterr().err.startswith("usage error: ")
        assert list(tmp_cwd.iterdir()) == []

    def test_manifest_written_next_to_outputs(self, tmp_cwd):
        run("--seed", 2, "synth", "--topics", 2, "--pairs-per-topic", 3,
            "--vocab-size", 110, "--out", "s.jsonl")
        manifest = json.loads(Path("manifest_synth.json").read_text())
        assert manifest["subcommand"] == "synth"
        assert manifest["seed"] == 2
        assert any(o["path"].endswith("s.jsonl") for o in manifest["outputs"])
        assert all("sha256" in o for o in manifest["outputs"])


class TestBuild:
    def test_all_builds_four_corpora_and_benchmarks(self, store):
        # the sample size is what the smallest corpus holds after the benchmark ban
        assert run("--seed", 11, "build", "--records", "records.jsonl", "--dataset", "all",
                   "--bench-queries", 2, "--out-dir", "full") == 0
        full = json.loads(Path("full/build_counts.json").read_text())
        size = min(full[f"{name}_available"] for name in ("qt", "rp", "coqt", "corp"))
        assert size >= 1
        assert run("--seed", 11, "build", "--records", "records.jsonl", "--dataset", "all",
                   "--bench-queries", 2, "--pairs-per-dataset", size, "--out-dir", "built") == 0
        for name in ("qt", "rp", "coqt", "corp"):
            assert Path(f"built/pairs_{name}.tsv").exists()
        for name in ("dq", "dr", "cq", "cr"):
            assert Path(f"built/bench_{name}.jsonl").exists()
        counts = json.loads(Path("built/build_counts.json").read_text())
        assert counts["all_written"] == 4 * size  # concatenation after per-dataset sampling

    def test_counts_short_text_drops(self, tmp_cwd):
        def record(tweet_id, text, reply_to=None, quoted_id=None, quoted_text=None):
            return {"id": tweet_id, "text": text, "lang": "en", "reply_to": reply_to,
                    "quoted_id": quoted_id, "quoted_text": quoted_text}

        records = [record(f"t{i}", f"target tweet number {i} with words") for i in range(3)]
        records += [record(f"r{i}", f"a long enough reply number {i}", reply_to=f"t{i % 3}")
                    for i in range(4)]
        records += [record("s1", "ok", reply_to="t0"),
                    record("s2", "@someone https://t.co/x hi", reply_to="t1")]
        records += [record("q1", "lol", quoted_id="x1", quoted_text="a quoted tweet long enough")]
        records += [record("q2", "a quote long enough to keep", quoted_id="x2", quoted_text="tiny")]
        Path("records.jsonl").write_text("".join(json.dumps(r) + "\n" for r in records))
        assert run("build", "--records", "records.jsonl", "--out-dir", "built") == 0
        counts = json.loads(Path("built/build_counts.json").read_text())
        assert counts["dropped_short_text"] == 3  # s1, s2 and q1; q2 only loses its target text
        assert counts["rp_available"] == 3
        assert counts["qt_available"] == 0

    def test_benchmark_ids_disjoint_from_training_ids(self, store):
        run("--seed", 11, "build", "--records", "records.jsonl", "--dataset", "all",
            "--bench-queries", 2, "--out-dir", "built")
        from weakpairs.corpus import read_benchmark, read_pairs

        bench_ids = set()
        for name in ("dq", "dr", "cq", "cr"):
            bench_ids |= read_benchmark(f"built/bench_{name}.jsonl").involved_ids()
        train_ids = set()
        for name in ("qt", "rp", "coqt", "corp"):
            for pair in read_pairs(f"built/pairs_{name}.tsv"):
                train_ids.add(pair.anchor_id)
                train_ids.add(pair.positive_id)
        assert not (bench_ids & train_ids)

    def test_same_seed_identical_files(self, store):
        run("--seed", 11, "build", "--records", "records.jsonl", "--dataset", "qt",
            "--bench-queries", 1, "--out-dir", "b1")
        run("--seed", 11, "build", "--records", "records.jsonl", "--dataset", "qt",
            "--bench-queries", 1, "--out-dir", "b2")
        assert Path("b1/pairs_qt.tsv").read_bytes() == Path("b2/pairs_qt.tsv").read_bytes()
        assert Path("b1/bench_dq.jsonl").read_bytes() == Path("b2/bench_dq.jsonl").read_bytes()

    def test_insufficient_data_is_exit_2(self, store):
        assert run("--seed", 11, "build", "--records", "records.jsonl", "--dataset", "qt",
                   "--pairs-per-dataset", 10_000, "--out-dir", "built") == 2

    def test_store_with_the_older_lang_key_builds_the_same_bytes(self, store):
        # records once held their language, after "text"; build reads a store written that way alike
        records = map(json.loads, Path("records.jsonl").read_text(encoding="utf-8").splitlines())
        write_jsonl("older.jsonl", ({"id": r["id"], "text": r["text"], "lang": "en", **r} for r in records))
        outputs = {}
        for stem in ("records", "older"):
            assert run("--seed", 11, "build", "--records", f"{stem}.jsonl", "--dataset", "all",
                       "--bench-queries", 2, "--out-dir", f"{stem}_built") == 0
            outputs[stem] = {path.name: path.read_bytes() for path in Path(f"{stem}_built").iterdir()
                             if path.name != "manifest_build.json"}
        assert len(outputs["records"]) == 10
        assert outputs["older"] == outputs["records"]

    def test_non_record_store_line_is_exit_2(self, tmp_cwd, capsys):
        Path("records.jsonl").write_text('{"id": "1", "text": "x", "lang": "en"}\n[1, 2]\n')
        assert run("build", "--records", "records.jsonl", "--out-dir", "built") == 2
        assert "line 2" in capsys.readouterr().err

    def test_failed_build_writes_nothing(self, store, capsys):
        # the benchmark builds, then sampling asks for more pairs than there are
        assert run("--seed", 11, "build", "--records", "records.jsonl", "--dataset", "all",
                   "--bench-queries", 2, "--pairs-per-dataset", 10_000, "--out-dir", "built") == 2
        assert "requested 10000 pairs" in capsys.readouterr().err
        assert not Path("built").exists()

    def test_lone_surrogate_is_counted_by_ingest_and_rejected_by_build(self, tmp_cwd, capsys):
        Path("stream.jsonl").write_text(
            '{"id_str":"8","text":"hello there friend","lang":"en"}\n'
            '{"id_str":"9","text":"hi there friend \\ud83d","lang":"en"}\n'
        )
        assert run("ingest", "--inputs", "stream.jsonl", "--out", "records.jsonl") == 0
        assert json.loads(Path("records.jsonl.stats.json").read_text())["totals"]["malformed"] == 1
        Path("store.jsonl").write_text(
            '{"id": "8", "text": "x", "lang": "en"}\n{"id": "9", "text": "\\udc00", "lang": "en"}\n'
        )
        assert run("build", "--records", "store.jsonl", "--out-dir", "built") == 2
        assert "store.jsonl: record store line 2" in capsys.readouterr().err
        assert not Path("built").exists()

    @pytest.mark.parametrize("shuffle_seed", [0, 1, 2])
    def test_outputs_invariant_to_stream_order(self, store, shuffle_seed):
        lines = Path("store.jsonl").read_bytes().splitlines(keepends=True)
        random.Random(shuffle_seed).shuffle(lines)
        Path("shuffled.jsonl").write_bytes(b"".join(lines))
        outputs = {}
        for stream in ("store.jsonl", "shuffled.jsonl"):
            stem = Path(stream).stem
            assert run("--seed", 11, "ingest", "--inputs", stream, "--out", f"{stem}/records.jsonl") == 0
            assert run("--seed", 11, "build", "--records", f"{stem}/records.jsonl", "--dataset", "all",
                       "--bench-queries", 2, "--out-dir", f"{stem}/built") == 0
            outputs[stem] = {path.name: path.read_bytes() for path in Path(stem, "built").iterdir()
                             if path.name != "manifest_build.json"}
        assert len(outputs["store"]) == 10
        assert outputs["shuffled"] == outputs["store"]

    def test_output_bytes_pinned(self, store):
        # sha256 prefixes computed before the builders shared one response index; build_counts.json's
        # is that of a build without the edge dump, so it has no edges_written count
        assert run("--seed", 11, "build", "--records", "records.jsonl", "--dataset", "all",
                   "--bench-queries", 2, "--out-dir", "built") == 0
        digests = {path.name: hashlib.sha256(path.read_bytes()).hexdigest()[:16]
                   for path in Path("built").iterdir() if path.name != "manifest_build.json"}
        assert digests == {
            "bench_cq.jsonl": "d9ad7a131202d124",
            "bench_cr.jsonl": "c8365c6d1587a249",
            "bench_dq.jsonl": "c5eae40f8e0ccbae",
            "bench_dr.jsonl": "c9f12bc8e5015d26",
            "build_counts.json": "15977d3becf9302a",
            "pairs_all.tsv": "8e275d28e740881b",
            "pairs_coqt.tsv": "609aec409f25cb32",
            "pairs_corp.tsv": "23766445818fd6d0",
            "pairs_qt.tsv": "a1e027be165ae307",
            "pairs_rp.tsv": "9033a8eeab08b797",
        }

    def test_short_corpus_is_named(self, store, capsys):
        # after the benchmark ban qt and rp keep 8 pairs each, coqt and corp 2
        assert run("--seed", 11, "build", "--records", "records.jsonl", "--dataset", "all",
                   "--bench-queries", 2, "--pairs-per-dataset", 3, "--out-dir", "built") == 2
        err = capsys.readouterr().err
        assert "coqt" in err and "requested 3 pairs but only 2 are available" in err
        assert not Path("built").exists()


class TestTrainEval:
    def prepare(self, store):
        run("--seed", 11, "build", "--records", "records.jsonl", "--dataset", "qt",
            "--bench-queries", 2, "--out-dir", "built")

    def test_train_writes_checkpoint_log_manifest(self, store):
        self.prepare(store)
        assert run("--seed", 11, "train", "--pairs", "built/pairs_qt.tsv", "--batch-size", 8,
                   "--dim", 16, "--vocab-size", 500, "--out", "model.ckpt") == 0
        assert Path("model.ckpt").exists()
        log_lines = Path("model.ckpt.log.jsonl").read_text().splitlines()
        entries = [json.loads(line) for line in log_lines]
        assert all({"step", "lr", "loss"} == set(e) for e in entries)
        manifest = json.loads(Path("manifest_train.json").read_text())
        assert manifest["settings"]["batch_size"] == 8

    def test_training_runs_in_float32(self, store):
        # the checkpoint stores the model's own dtype
        self.prepare(store)
        assert run("--seed", 11, "train", "--pairs", "built/pairs_qt.tsv", "--batch-size", 8,
                   "--dim", 16, "--vocab-size", 500, "--out", "model.ckpt") == 0
        model = load_checkpoint("model.ckpt")
        assert model.version > 0
        assert json.loads(Path("model.ckpt").read_bytes().split(b"\n", 1)[0])["dtype"] == "float32"
        for name, arr in model.params.items():
            assert arr.dtype == np.float32, name

    def test_invalid_loss_name_lists_valid_values(self, store, capsys):
        self.prepare(store)
        code = run("train", "--pairs", "built/pairs_qt.tsv", "--loss", "hinge",
                   "--out", "model.ckpt")
        assert code == 1
        err = capsys.readouterr().err
        assert "triplet" in err and "multiple_negatives" in err

    def test_eval_prints_x100_table_and_reports(self, store, capsys):
        self.prepare(store)
        run("--seed", 11, "train", "--pairs", "built/pairs_qt.tsv", "--batch-size", 8,
            "--dim", 16, "--vocab-size", 500, "--out", "model.ckpt")
        assert run("eval", "--checkpoint", "model.ckpt", "--inputs", "built/bench_dq.jsonl",
                   "--out-dir", "reports") == 0
        out = capsys.readouterr().out
        assert "x100" in out
        report = json.loads(Path("reports/report_bench_dq.json").read_text())
        assert report["metric"] == "ndcg"
        assert 0.0 <= report["value"] <= 1.0
        assert len(report["per_query"]) == 2

    def test_two_evals_of_one_checkpoint_write_identical_reports(self, store):
        self.prepare(store)
        run("--seed", 11, "train", "--pairs", "built/pairs_qt.tsv", "--batch-size", 8,
            "--dim", 16, "--vocab-size", 500, "--out", "model.ckpt")
        for out_dir in ("first", "second"):
            assert run("eval", "--checkpoint", "model.ckpt", "--inputs", "built/bench_dq.jsonl",
                       "--out-dir", out_dir) == 0
        report = Path("first/report_bench_dq.json").read_bytes()
        assert report == Path("second/report_bench_dq.json").read_bytes()

    def test_eval_graded_tsv_input(self, store, capsys):
        self.prepare(store)
        run("--seed", 11, "train", "--pairs", "built/pairs_qt.tsv", "--batch-size", 8,
            "--dim", 16, "--vocab-size", 500, "--out", "model.ckpt")
        from weakpairs.corpus import read_pairs

        pairs = read_pairs("built/pairs_qt.tsv")
        rows = []
        for i, pair in enumerate(pairs[:6]):
            rows.append(f"{pair.anchor_text}\t{pair.positive_text}\t{(i % 5) + 0.5}")
        Path("graded.tsv").write_text("\n".join(rows) + "\n")
        assert run("eval", "--checkpoint", "model.ckpt", "--inputs", "graded.tsv",
                   "--out-dir", "reports") == 0
        report = json.loads(Path("reports/report_graded.json").read_text())
        assert report["metric"] == "pearson"

    def test_perfect_ranking_prints_100(self, tmp_cwd, capsys):
        # positives identical to the query text embed identically under any
        # encoder, so a perfect 100.0 must be printed
        import json as _json

        from weakpairs.encoder import init_model, save_checkpoint
        from weakpairs.textproc import build_vocab

        vocab = build_vocab(["alpha beta gamma delta epsilon zeta"], max_size=50)
        save_checkpoint(init_model(vocab, dim=8, seed=0), "oracle.ckpt")
        query = {
            "query": "alpha beta",
            "positives": ["alpha beta"] * 5,
            "negatives": [f"gamma delta {i}" for i in range(25)],
            "ids": [],
        }
        Path("tiny.jsonl").write_text(_json.dumps(query) + "\n")
        assert run("eval", "--checkpoint", "oracle.ckpt", "--inputs", "tiny.jsonl",
                   "--out-dir", "reports") == 0
        assert "100.0" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "name, line, located",
        [
            ("tiny.jsonl", json.dumps({"query": "alpha beta", "positives": ["gamma"] * 5,
                                       "negatives": ["delta"] * 25, "ids": []}),
             "benchmark tiny, query 0: cosine similarity undefined"),
            ("graded.tsv", "alpha beta\tgamma\t4\ndelta\tepsilon\t1",
             "graded pairs graded, pair 0: cosine similarity undefined"),
        ],
    )
    def test_zero_norm_embedding_is_located_data_error(self, tmp_cwd, capsys, name, line, located):
        from weakpairs.encoder import init_model, save_checkpoint
        from weakpairs.textproc import build_vocab

        model = init_model(build_vocab(["alpha beta gamma delta epsilon"], max_size=50), dim=8, seed=0)
        for param in model.params.values():
            param[:] = 0.0
        save_checkpoint(model, "zero.ckpt")
        Path(name).write_text(line + "\n")
        assert run("eval", "--checkpoint", "zero.ckpt", "--inputs", name, "--out-dir", "reports") == 2
        assert located in capsys.readouterr().err
        assert not Path("reports").exists()

    def test_corrupt_checkpoint_is_exit_2_with_format_error(self, store, capsys):
        Path("bad.ckpt").write_bytes(b"\x00\xffgarbage")
        code = run("eval", "--checkpoint", "bad.ckpt", "--inputs", "x.jsonl",
                   "--out-dir", "reports")
        assert code == 2
        assert "format version" in capsys.readouterr().err

    def test_bad_second_input_leaves_no_report(self, store, capsys):
        self.prepare(store)
        run("--seed", 11, "train", "--pairs", "built/pairs_qt.tsv", "--batch-size", 8,
            "--dim", 16, "--vocab-size", 500, "--out", "model.ckpt")
        Path("bad.jsonl").write_text("{}\n")
        assert run("eval", "--checkpoint", "model.ckpt", "--inputs", "built/bench_dq.jsonl", "bad.jsonl",
                   "--out-dir", "reports") == 2
        assert "bad.jsonl: benchmark line 1" in capsys.readouterr().err
        assert not Path("reports").exists()

    def test_inputs_with_one_stem_are_usage_error_before_checkpoint_loads(self, tmp_cwd, capsys):
        # neither the checkpoint nor the inputs exist: loading any of them would be exit 2
        code = run("eval", "--checkpoint", "model.ckpt", "--inputs", "x/bench.jsonl", "y/bench.jsonl",
                   "--out-dir", "reports")
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("usage error: ") and "x/bench.jsonl" in err and "y/bench.jsonl" in err
        assert list(tmp_cwd.iterdir()) == []

    PINNED_TRAIN = ("--seed", 3, "train", "--pairs", "pairs.tsv", "--batch-size", 8, "--dim", 4, "--max-len", 12,
                    "--vocab-size", 40, "--out", "m.ckpt")

    def test_checkpoint_header_pinned(self, tmp_cwd):
        # the header holds no float, so its bytes do not depend on the BLAS; its key order is part of the format
        write_small_pairs("pairs.tsv")
        assert run(*self.PINNED_TRAIN) == 0
        header = Path("m.ckpt").read_bytes().split(b"\n", 1)[0]
        assert list(json.loads(header)) == ["format_version", "dtype", "dim", "max_len", "model_version", "vocab",
                                            "params"]
        digest = hashlib.sha256(header).hexdigest()
        assert digest == "a1b5855949efd1440f249225fea41d26f344cb1ced7dc8832e980b641f6a757f"

    def test_checkpoint_of_format_1_is_exit_2_naming_the_version(self, tmp_cwd, capsys):
        # format 1 had no dtype and widened every value to a <f8 payload; the header rebuilt here is the one
        # pinned while format 1 was written
        write_small_pairs("pairs.tsv")
        assert run(*self.PINNED_TRAIN) == 0
        header, payload = Path("m.ckpt").read_bytes().split(b"\n", 1)
        old = header.replace(b'{"format_version": 2, "dtype": "float32", ', b'{"format_version": 1, ')
        assert hashlib.sha256(old).hexdigest() == "6ec9b4e3787a84f3be58f326f5e2b336b1e03f0cc10ceea081e7eaac1b366285"
        Path("old.ckpt").write_bytes(old + b"\n" + np.frombuffer(payload, dtype="<f4").astype("<f8").tobytes())
        write_small_bench("bench.jsonl")
        assert run("eval", "--checkpoint", "old.ckpt", "--inputs", "bench.jsonl", "--out-dir", "reports") == 2
        assert "old.ckpt: unsupported checkpoint format version 1, expected 2" in capsys.readouterr().err
        assert not Path("reports").exists()

    def test_report_meta_holds_its_count_and_the_checkpoint(self, tmp_cwd):
        write_small_pairs("pairs.tsv")
        assert run(*self.PINNED_TRAIN) == 0
        write_small_bench("bench.jsonl")
        write_small_graded("graded.tsv")
        assert run("eval", "--checkpoint", "m.ckpt", "--inputs", "bench.jsonl", "graded.tsv",
                   "--out-dir", "reports") == 0
        checkpoint = hashlib.sha256(Path("m.ckpt").read_bytes()).hexdigest()[:12]
        ranking, graded = (json.loads(Path("reports", f"report_{name}.json").read_text())
                           for name in ("bench", "graded"))
        assert ranking["meta"] == {"queries": 1, "checkpoint": checkpoint}
        assert graded["meta"] == {"pairs": 6, "checkpoint": checkpoint}
        assert json.loads(Path("reports/manifest_eval.json").read_text())["settings"] == {"checkpoint": "m.ckpt"}

    def test_graded_file_with_byte_order_mark_reports_as_its_twin(self, tmp_cwd):
        # the mark would otherwise stay in the first text and embed as one more unknown token
        write_small_pairs("pairs.tsv")
        assert run(*self.PINNED_TRAIN) == 0
        for name in ("plain", "bom"):
            Path(name).mkdir()
            write_small_graded(Path(name, "graded.tsv"), encoding="utf-8" if name == "plain" else "utf-8-sig")
            assert run("eval", "--checkpoint", "m.ckpt", "--inputs", f"{name}/graded.tsv",
                       "--out-dir", f"{name}/reports") == 0
        assert Path("bom/graded.tsv").read_bytes() == b"\xef\xbb\xbf" + Path("plain/graded.tsv").read_bytes()
        report = Path("plain/reports/report_graded.json").read_bytes()
        assert Path("bom/reports/report_graded.json").read_bytes() == report

    def test_raw_pair_file_trains_the_checkpoint_of_its_cleaned_twin(self, tmp_cwd):
        # eval cleans every text it embeds; training cleans its pair texts too, before the vocabulary and the ids
        words = "Granite LANTERN copper Stream meadow harbor".split()
        raw = [PairExample(f"@fan{i} {w} {i} Alpha https://t.co/x{i}  BETA", f"{w.upper()}\t{i} gamma @bot Delta",
                           "qt", f"a{i}{w}", f"p{i}{w}") for i in range(8) for w in words]
        cleaned = [dataclasses.replace(p, anchor_text=clean(p.anchor_text), positive_text=clean(p.positive_text))
                   for p in raw]
        write_pairs(raw, "raw.tsv")
        write_pairs(cleaned, "cleaned.tsv")
        assert Path("raw.tsv").read_bytes() != Path("cleaned.tsv").read_bytes()
        for name in ("raw", "cleaned"):
            assert run("--seed", 5, "train", "--pairs", f"{name}.tsv", "--batch-size", 8, "--dim", 8,
                       "--vocab-size", 40, "--out", f"{name}.ckpt") == 0
        assert Path("raw.ckpt").read_bytes() == Path("cleaned.ckpt").read_bytes()
        assert Path("raw.ckpt.log.jsonl").read_bytes() == Path("cleaned.ckpt.log.jsonl").read_bytes()

    def test_checkpoint_is_the_same_at_one_and_two_blas_threads(self, tmp_cwd):
        # 400 pairs at the default width: at two threads OpenBLAS would split products whose sums then round
        # differently, so each train runs in a process of its own with OPENBLAS_NUM_THREADS set
        assert run("--seed", 7, "synth", "--topics", 20, "--pairs-per-topic", 60, "--noise", 0.3,
                   "--responses-per-target", 6, "--out", "store.jsonl") == 0
        assert run("--seed", 7, "ingest", "--inputs", "store.jsonl", "--out", "records.jsonl") == 0
        assert run("--seed", 7, "build", "--records", "records.jsonl", "--out-dir", "built") == 0
        digests = set()
        for threads in ("1", "2"):
            env = dict(os.environ, PYTHONPATH=str(SRC), OPENBLAS_NUM_THREADS=threads)
            done = subprocess.run(
                [sys.executable, "-m", "weakpairs", "--seed", "7", "train", "--pairs", "built/pairs_all.tsv",
                 "--out", f"m{threads}.ckpt"], env=env, capture_output=True, text=True, timeout=120,
            )
            assert done.returncode == 0, done.stderr
            digests.add(hashlib.sha256(Path(f"m{threads}.ckpt").read_bytes()).hexdigest())
        assert len(digests) == 1

    def test_eval_reports_are_the_same_at_one_and_two_blas_threads(self, tmp_cwd):
        # eval's float32 forward at the default width, each eval in a process of its own as each train above
        assert run("--seed", 7, "synth", "--topics", 20, "--pairs-per-topic", 30, "--noise", 0.3,
                   "--responses-per-target", 8, "--out", "store.jsonl") == 0
        assert run("--seed", 7, "ingest", "--inputs", "store.jsonl", "--out", "records.jsonl") == 0
        assert run("--seed", 7, "build", "--records", "records.jsonl", "--dataset", "qt", "--bench-queries", 8,
                   "--out-dir", "built") == 0
        assert run("--seed", 7, "train", "--pairs", "built/pairs_qt.tsv", "--batch-size", 8, "--out", "m.ckpt") == 0
        # each query with each of its candidates: a positive scored 5, a negative 0
        queries = [json.loads(line) for line in Path("built/bench_dq.jsonl").read_text().splitlines()]
        Path("graded.tsv").write_text("".join(f"{q['query']}\t{text}\t{score}\n" for q in queries
                                              for key, score in (("positives", 5), ("negatives", 0))
                                              for text in q[key]))
        reports = set()
        for threads in ("1", "2"):
            env = dict(os.environ, PYTHONPATH=str(SRC), OPENBLAS_NUM_THREADS=threads)
            done = subprocess.run(
                [sys.executable, "-m", "weakpairs", "eval", "--checkpoint", "m.ckpt",
                 "--inputs", "built/bench_dq.jsonl", "graded.tsv", "--out-dir", f"reports{threads}"],
                env=env, capture_output=True, text=True, timeout=120,
            )
            assert done.returncode == 0, done.stderr
            reports.add(tuple(Path(f"reports{threads}", name).read_bytes()
                              for name in ("report_bench_dq.json", "report_graded.json")))
        assert len(reports) == 1

    def test_outputs_are_the_same_under_two_hash_seeds(self, tmp_cwd):
        # PYTHONHASHSEED salts str hashes per process: no set or dict order over strings may reach an output
        Path("graded.tsv").write_text("topic001src000 filler0001\ttopic001rsp020 filler0002\t5\n"
                                      "topic002src001\ttopic007rsp021 topic007rsp022\t0\n")
        benches = [f"built/bench_{name}.jsonl" for name in ("dq", "dr", "cq", "cr")]
        stages = [
            ["--seed", "7", "synth", "--topics", "10", "--pairs-per-topic", "32", "--vocab-size", "260",
             "--noise", "0.2", "--responses-per-target", "8", "--out", "store.jsonl"],
            ["--seed", "7", "ingest", "--inputs", "store.jsonl", "--out", "records.jsonl"],
            ["--seed", "7", "build", "--records", "records.jsonl", "--dataset", "all", "--bench-queries", "2",
             "--out-dir", "built"],
            ["--seed", "7", "train", "--pairs", "built/pairs_all.tsv", "--batch-size", "8", "--dim", "16",
             "--vocab-size", "500", "--out", "m.ckpt"],
            ["eval", "--checkpoint", "m.ckpt", "--inputs", *benches, "../graded.tsv", "--out-dir", "reports"],
        ]
        script = ("import json, sys\nfrom weakpairs.cli import main\n"
                  "for argv in json.loads(sys.argv[1]):\n    if main(argv):\n        sys.exit(f'failed: {argv}')\n")
        outputs = []
        for hash_seed in ("1", "2"):
            Path(hash_seed).mkdir()
            env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED=hash_seed)
            done = subprocess.run([sys.executable, "-c", script, json.dumps(stages)], cwd=hash_seed, env=env,
                                  capture_output=True, text=True, timeout=120)
            assert done.returncode == 0, done.stderr
            outputs.append({str(p.relative_to(hash_seed)): p.read_bytes() for p in sorted(Path(hash_seed).rglob("*"))
                            if p.is_file() and not p.name.startswith("manifest_")})
        assert {"m.ckpt", "reports/report_graded.json", *(f"reports/report_{Path(b).stem}.json" for b in benches)} \
            <= outputs[0].keys()
        assert outputs[0] == outputs[1]

    def test_rerun_same_seed_bitwise_checkpoint(self, store):
        self.prepare(store)
        for out in ("m1.ckpt", "m2.ckpt"):
            run("--seed", 11, "train", "--pairs", "built/pairs_qt.tsv", "--batch-size", 8,
                "--dim", 16, "--vocab-size", 500, "--out", out)
        assert Path("m1.ckpt").read_bytes() == Path("m2.ckpt").read_bytes()


class TestSweep:
    def prepare(self, store):
        run("--seed", 11, "build", "--records", "records.jsonl", "--dataset", "qt",
            "--bench-queries", 2, "--out-dir", "built")

    def test_corpus_size_sweep_emits_reports_and_csv(self, store):
        self.prepare(store)
        assert run("--seed", 11, "sweep", "--axis", "corpus_size", "--values", 0, 8, 14,
                   "--pairs", "built/pairs_qt.tsv", "--benchmark", "built/bench_dq.jsonl",
                   "--batch-size", 4, "--dim", 16, "--vocab-size", 500, "--out-dir", "sweep") == 0
        with open("sweep/sweep_summary.csv") as handle:
            rows = list(csv.DictReader(handle))
        assert [int(r["value"]) for r in rows] == [0, 8, 14]
        # corpus size 0 is the untrained encoder: a report, and no training loss
        assert [r["final_loss"] == "" for r in rows] == [True, False, False]
        for value in (0, 8, 14):
            assert Path(f"sweep/report_corpus_size_{value}.json").exists()
        settings = json.loads(Path("sweep/manifest_sweep.json").read_text())["settings"]
        assert settings["values"] == [0, 8, 14] and "include_baseline" not in settings

    @pytest.mark.parametrize("axis", ["corpus_size", "batch_size"])
    def test_value_beyond_the_pool_fails_before_any_point_trains(self, tmp_cwd, capsys, axis):
        # the benchmark does not exist: reading it would fail with another message
        words = "granite lantern copper stream meadow harbor".split()
        write_pairs([PairExample(f"{w} alpha", f"{w} gamma", "qt", f"a{w}", f"p{w}") for w in words], "pairs.tsv")
        assert run("sweep", "--axis", axis, "--values", 2, 4, 8, "--batch-size", 2, "--pairs", "pairs.tsv",
                   "--benchmark", "bench.jsonl", "--out-dir", "sweep") == 2
        assert capsys.readouterr().err == "data error: sweep value 8 exceeds pair pool of 6\n"
        assert not Path("sweep").exists()

    @pytest.mark.parametrize("values, flags, smallest, batch", [([0, 20, 40], [], 20, 50),
                                                               ([8, 14], ["--batch-size", 10], 8, 10)],
                             ids=["default-batch", "batch-flag"])
    def test_corpus_size_below_the_batch_size_is_usage_error(self, tmp_cwd, capsys, values, flags, smallest, batch):
        # the inputs do not exist: reading either would be a data error (exit 2), and point 0 needs no batch
        assert run("sweep", "--axis", "corpus_size", "--values", *values, *flags, "--pairs", "pairs.tsv",
                   "--benchmark", "bench.jsonl", "--out-dir", "sweep") == 1
        assert capsys.readouterr().err == (
            f"usage error: corpus_size {smallest} is below batch_size {batch}; each trained point needs one full batch\n"
        )
        assert list(tmp_cwd.iterdir()) == []

    def test_duplicate_values_usage_error(self, store):
        self.prepare(store)
        assert run("sweep", "--axis", "corpus_size", "--values", 8, 8,
                   "--pairs", "built/pairs_qt.tsv", "--benchmark", "built/bench_dq.jsonl",
                   "--out-dir", "sweep") == 1

    def test_unsorted_values_usage_error(self, store):
        self.prepare(store)
        assert run("sweep", "--axis", "batch_size", "--values", 16, 4,
                   "--pairs", "built/pairs_qt.tsv", "--benchmark", "built/bench_dq.jsonl",
                   "--out-dir", "sweep") == 1

    def test_batch_size_sweep(self, store):
        self.prepare(store)
        assert run("--seed", 11, "sweep", "--axis", "batch_size", "--values", 4, 8,
                   "--pairs", "built/pairs_qt.tsv", "--benchmark", "built/bench_dq.jsonl",
                   "--dim", 16, "--vocab-size", 500, "--out-dir", "sweep") == 0
        with open("sweep/sweep_summary.csv") as handle:
            rows = list(csv.DictReader(handle))
        assert [int(r["value"]) for r in rows] == [4, 8]


    def test_base_batch_size_is_not_checked(self, store):
        # every point replaces --batch-size 1, so it is never used and never refused
        self.prepare(store)
        assert run("--seed", 11, "sweep", "--axis", "batch_size", "--values", 4, 8, "--batch-size", 1,
                   "--pairs", "built/pairs_qt.tsv", "--benchmark", "built/bench_dq.jsonl",
                   "--dim", 16, "--vocab-size", 500, "--out-dir", "sweep") == 0

    def test_point_batch_size_one_is_usage_error(self, store, capsys):
        self.prepare(store)
        assert run("sweep", "--axis", "batch_size", "--values", 1, 4,
                   "--pairs", "built/pairs_qt.tsv", "--benchmark", "built/bench_dq.jsonl",
                   "--out-dir", "sweep") == 1
        assert "batch_size must be >= 2" in capsys.readouterr().err


    def test_batch_size_zero_is_usage_error(self, tmp_cwd, capsys):
        # the inputs do not exist: reading any of them would be a data error (exit 2)
        assert run("sweep", "--axis", "batch_size", "--values", 0, 4,
                   "--pairs", "pairs.tsv", "--benchmark", "bench.jsonl", "--out-dir", "sweep") == 1
        err = capsys.readouterr().err
        assert err.startswith("usage error: ") and "batch_size must be >= 2" in err
        assert list(tmp_cwd.iterdir()) == []

    def test_include_baseline_is_unknown_argument(self, tmp_cwd, capsys):
        # corpus size 0 is asked for as a value
        assert run("sweep", "--axis", "corpus_size", "--values", 8, "--include-baseline",
                   "--pairs", "pairs.tsv", "--benchmark", "bench.jsonl", "--out-dir", "sweep") == 1
        assert "unrecognized arguments: --include-baseline" in capsys.readouterr().err
        assert list(tmp_cwd.iterdir()) == []


class TestUsageErrors:
    @pytest.mark.parametrize(
        "argv",
        [
            ["sweep", "--axis", "batch_size", "--values", 1, 4, "--pairs", "pairs.tsv",
             "--benchmark", "bench.jsonl"],
            ["sweep", "--axis", "corpus_size", "--values", -3, 8, "--pairs", "pairs.tsv",
             "--benchmark", "bench.jsonl"],
            ["build", "--records", "records.jsonl", "--pairs-per-dataset", -1],
        ],
        ids=["sweep-batch-1", "sweep-corpus-negative", "build-negative-sample"],
    )
    def test_rejected_before_any_stage_work(self, tmp_cwd, capsys, argv):
        # the inputs do not exist: reading any of them would be a data error (exit 2)
        assert run(*argv, "--out-dir", "out") == 1
        assert capsys.readouterr().err.startswith("usage error: ")
        assert list(tmp_cwd.iterdir()) == []

    def test_eval_input_of_unknown_kind_is_named(self, tmp_cwd, capsys):
        assert run("eval", "--checkpoint", "model.ckpt", "--inputs", "bench.jsonl", "graded.txt",
                   "--out-dir", "out") == 1
        assert capsys.readouterr().err == (
            "usage error: graded.txt: cannot infer input type; "
            "use .jsonl for ranking benchmarks or .tsv for graded pairs\n"
        )
        assert list(tmp_cwd.iterdir()) == []

    def test_eval_at_k_is_usage_error(self, tmp_cwd, capsys):
        # nDCG is over each query's whole candidate list; there is no cutoff to ask for
        assert run("eval", "--checkpoint", "model.ckpt", "--inputs", "bench.jsonl", "--at-k", 3,
                   "--out-dir", "out") == 1
        err = capsys.readouterr().err
        assert err.startswith("usage error: ") and "--at-k" in err
        assert list(tmp_cwd.iterdir()) == []

    @pytest.mark.parametrize(
        "flags", [["--learning-rate", "nan"], ["--learning-rate", "inf"]], ids=["learning-rate-nan", "learning-rate-inf"]
    )
    def test_non_finite_setting_rejected_before_any_stage_work(self, tmp_cwd, capsys, flags):
        # the pair file does not exist: reading it would be a data error (exit 2)
        assert run("train", "--pairs", "pairs.tsv", "--out", "model.ckpt", *flags) == 1
        err = capsys.readouterr().err
        assert err.startswith("usage error: ") and "must be finite" in err
        assert "Traceback" not in err
        assert list(tmp_cwd.iterdir()) == []

    # cosine is the one comparison, the block always runs, and the mn scale, triplet margin, warm-up share and
    # weight decay are constants: a command line that asked for another one stops here instead of training a model
    # it did not ask for, and so does one that names a removed setting at its old default
    @pytest.mark.parametrize(
        "flags",
        [["--normalize-output"], ["--similarity", "dot"], ["--no-block"], ["--use-block"], ["--scale", "20.0"],
         ["--margin", "1.0"], ["--warmup-fraction", "0.1"], ["--weight-decay", "0.01"]],
        ids=["normalize_output", "similarity", "no-block", "use-block", "scale", "margin", "warmup_fraction",
             "weight_decay"],
    )
    def test_removed_setting_flag_rejected_before_any_stage_work(self, tmp_cwd, capsys, flags):
        assert run("train", "--pairs", "pairs.tsv", "--out", "model.ckpt", *flags) == 1
        err = capsys.readouterr().err
        assert err.startswith("usage error: ") and flags[0] in err
        assert list(tmp_cwd.iterdir()) == []


class TestOneBlasThread:
    MAPS = (
        "7f00-7f01 r-xp 00000000 08:01 11 /usr/lib/libopenblas.so.0\n"
        "7f02-7f03 r-xp 00000000 08:01 12 /site/numpy.libs/libscipy_openblas64_-ff651d7f.so\n"
        "7f03-7f04 r--p 00001000 08:01 12 /site/numpy.libs/libscipy_openblas64_-ff651d7f.so\n"
        "7f05-7f06 r-xp 00000000 08:01 13 /usr/lib/libm.so.6\n"
        "7f07-7f08 rw-p 00000000 00:00 0 \n"
    )

    @staticmethod
    def fake_maps(monkeypatch, text):
        from weakpairs import cli as cli_mod

        def fake_open(path, encoding=None):
            assert path == "/proc/self/maps"
            return io.StringIO(text)

        monkeypatch.setattr(cli_mod, "open", fake_open, raising=False)

    def test_each_loaded_openblas_set_to_one_thread_once(self, monkeypatch):
        # the reference build exports openblas_*, NumPy's wheels the scipy_openblas*64_ spelling
        from weakpairs import cli as cli_mod

        calls = []

        class FakeLibrary:
            def __init__(self, path):
                self.path = path
                self.symbol = "scipy_openblas_set_num_threads64_" if "scipy" in path else "openblas_set_num_threads"

            def __getattr__(self, symbol):
                if symbol != self.symbol:
                    raise AttributeError(symbol)
                return lambda n: calls.append((self.path, symbol, n))

        self.fake_maps(monkeypatch, self.MAPS)
        monkeypatch.setattr(cli_mod.ctypes, "CDLL", FakeLibrary)
        cli_mod._one_blas_thread()
        assert calls == [
            ("/site/numpy.libs/libscipy_openblas64_-ff651d7f.so", "scipy_openblas_set_num_threads64_", 1),
            ("/usr/lib/libopenblas.so.0", "openblas_set_num_threads", 1),
        ]

    @pytest.mark.parametrize("case", ["no-proc", "no-openblas", "unopenable"])
    def test_nothing_to_set_is_no_error(self, monkeypatch, case):
        from weakpairs import cli as cli_mod

        opened = []

        def cdll(path):
            opened.append(path)
            raise OSError(f"{path}: cannot open shared object file")

        if case == "no-proc":
            def no_proc(path, encoding=None):
                raise FileNotFoundError(path)

            monkeypatch.setattr(cli_mod, "open", no_proc, raising=False)
        elif case == "no-openblas":
            self.fake_maps(monkeypatch, "7f05-7f06 r-xp 00000000 08:01 13 /usr/lib/libm.so.6\n")
        else:
            self.fake_maps(monkeypatch, "7f00-7f01 r-xp 00000000 08:01 11 /usr/lib/libopenblas.so.0\n")
        monkeypatch.setattr(cli_mod.ctypes, "CDLL", cdll)
        assert cli_mod._one_blas_thread() is None
        assert opened == (["/usr/lib/libopenblas.so.0"] if case == "unopenable" else [])


def write_small_pairs(path):
    words = "granite lantern copper stream meadow harbor thunder silver ember quartz".split()
    write_pairs(
        [PairExample(f"{w} {i} alpha beta", f"{w} {i} gamma delta", "qt", f"a{i}{w}", f"p{i}{w}")
         for i in range(6) for w in words],
        path,
    )


def write_small_bench(path):
    """One ranking query over the ``write_small_pairs`` words."""
    words = "granite lantern copper stream meadow harbor".split()
    query = {"query": "granite 0 alpha beta", "positives": [f"granite {i} gamma delta" for i in range(5)],
             "negatives": [f"{w} {i} gamma delta" for w in words[1:] for i in range(5)], "ids": []}
    Path(path).write_text(json.dumps(query) + "\n")


def write_small_graded(path, encoding="utf-8"):
    """Six graded pairs over the ``write_small_pairs`` words."""
    words = "granite lantern copper stream meadow harbor".split()
    Path(path).write_text("".join(f"{w} {i} alpha beta\t{w} 1 gamma delta\t{i}\n" for i, w in enumerate(words)),
                          encoding=encoding)


def snapshot(root):
    """Every file under ``root``, by its path relative to ``root``, with its bytes."""
    return {path.relative_to(root): path.read_bytes() for path in Path(root).rglob("*") if path.is_file()}


def write_stream(path):
    Path(path).write_text(
        '{"id_str": "1", "text": "hello there friend", "lang": "en"}\n'
        '{"id_str": "2", "text": "a reply to hello", "lang": "en", "in_reply_to_status_id_str": "1"}\n'
    )


class TestOutputPaths:
    SETUPS = {
        "pairs": lambda: write_small_pairs("pairs.tsv"),
        "stream": lambda: write_stream("stream.jsonl"),
        "stream, stats directory": lambda: (write_stream("stream.jsonl"), Path("r.jsonl.stats.json").mkdir()),
        "corpus directory": lambda: Path("built/pairs_all.tsv").mkdir(parents=True),
        "pairs, out directory": lambda: (write_small_pairs("pairs.tsv"), Path("model").mkdir()),
        "manifest directory": lambda: Path("manifest_synth.json").mkdir(),
        "reports file": lambda: Path("reports").write_text("not a directory\n"),
    }

    @pytest.mark.parametrize(
        "setup, argv, named",
        [
            ("pairs", ["train", "--pairs", "pairs.tsv", "--out", "manifest_train.json"], "manifest_train.json"),
            ("stream", ["ingest", "--inputs", "stream.jsonl", "--out", "manifest_ingest.json"],
             "manifest_ingest.json"),
            (None, ["synth", "--topics", 2, "--pairs-per-topic", 3, "--vocab-size", 110,
                    "--out", "manifest_synth.json"], "manifest_synth.json"),
            # the inputs below do not exist: reading any of them would be a data error (exit 2)
            (None, ["train", "--pairs", "pairs.tsv", "--out", "pairs.tsv"], "pairs.tsv"),
            (None, ["eval", "--checkpoint", "reports/report_bench_dq.json", "--inputs", "bench_dq.jsonl",
                    "--out-dir", "reports"], "reports/report_bench_dq.json"),
            (None, ["build", "--records", "built/../built/build_counts.json", "--out-dir", "built"],
             "built/../built/build_counts.json"),
            (None, ["sweep", "--axis", "corpus_size", "--values", 4, "--pairs", "pairs.tsv",
                    "--benchmark", "sweep/report_corpus_size_4.json", "--out-dir", "sweep"],
             "sweep/report_corpus_size_4.json"),
            (None, ["sweep", "--axis", "corpus_size", "--values", 0, 4, "--pairs", "pairs.tsv",
                    "--benchmark", "sweep/report_corpus_size_0.json", "--out-dir", "sweep"],
             "sweep/report_corpus_size_0.json"),
            # a glob that matches the store an earlier run wrote
            ("stream", ["ingest", "--inputs", "*.jsonl", "--out", "stream.jsonl"], "stream.jsonl"),
            # a path that cannot hold a file: an existing directory, or one under an existing file
            ("stream, stats directory", ["ingest", "--inputs", "stream.jsonl", "--out", "r.jsonl"],
             "r.jsonl.stats.json"),
            ("corpus directory", ["build", "--records", "records.jsonl", "--out-dir", "built"],
             "built/pairs_all.tsv"),
            ("pairs, out directory", ["train", "--pairs", "pairs.tsv", "--out", "model"], "model"),
            ("manifest directory", ["synth", "--topics", 2, "--pairs-per-topic", 3, "--vocab-size", 110,
                                    "--out", "store.jsonl"], "manifest_synth.json"),
            ("reports file", ["eval", "--checkpoint", "model.ckpt", "--inputs", "bench.jsonl",
                              "--out-dir", "reports"], "reports/report_bench.json"),
            ("pairs", ["train", "--pairs", "pairs.tsv", "--out", "pairs.tsv/model.ckpt"], "pairs.tsv/model.ckpt"),
        ],
        ids=["train-manifest", "ingest-manifest", "synth-manifest", "train-out-is-pairs",
             "eval-checkpoint-is-report", "build-records-is-counts", "sweep-benchmark-is-report",
             "sweep-benchmark-is-baseline-report", "ingest-glob-matches-out", "ingest-stats-is-directory",
             "build-corpus-is-directory", "train-out-is-directory", "synth-manifest-is-directory",
             "eval-out-dir-is-file", "train-out-under-pairs-file"],
    )
    def test_output_naming_another_file_of_the_stage_is_usage_error(self, tmp_cwd, capsys, setup, argv, named):
        if setup:
            self.SETUPS[setup]()
        before = snapshot(tmp_cwd)
        assert run(*argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("usage error: ") and named in err
        assert snapshot(tmp_cwd) == before


class TestManifestContract:
    STAGES = {
        "synth": (".", ["synth", "--topics", 10, "--pairs-per-topic", 32, "--vocab-size", 260,
                        "--noise", 0.2, "--responses-per-target", 8, "--out", "store.jsonl"]),
        "ingest": (".", ["ingest", "--inputs", "store.jsonl", "--out", "records.jsonl"]),
        "build": ("built", ["build", "--records", "records.jsonl", "--dataset", "all",
                            "--bench-queries", 2, "--out-dir", "built"]),
        "train": ("model", ["train", "--pairs", "built/pairs_qt.tsv", "--batch-size", 8, "--dim", 16,
                            "--vocab-size", 500, "--out", "model/model.ckpt"]),
        "eval": ("reports", ["eval", "--checkpoint", "model/model.ckpt", "--inputs", "built/bench_dq.jsonl",
                             "built/bench_cr.jsonl", "--out-dir", "reports"]),
        "sweep": ("sweep", ["sweep", "--axis", "corpus_size", "--values", 0, 8, "--pairs", "built/pairs_qt.tsv",
                            "--benchmark", "built/bench_dq.jsonl", "--batch-size", 4, "--dim", 16,
                            "--vocab-size", 500, "--out-dir", "sweep"]),
    }

    @pytest.fixture(scope="class")
    def published(self, tmp_path_factory):
        """Run the stages in order in one directory; per stage, its manifest and the files it created."""
        root = tmp_path_factory.mktemp("pipeline")
        published = {}
        with pytest.MonkeyPatch.context() as patch:
            patch.chdir(root)
            for stage, (directory, argv) in self.STAGES.items():
                before = snapshot(root)
                assert run("--seed", 11, *argv) == 0, stage
                manifest_path = Path(directory, f"manifest_{stage}.json")
                created = {path: hashlib.sha256(data).hexdigest()
                           for path, data in snapshot(root).items() if path not in before}
                assert created.pop(manifest_path, None) is not None, stage
                published[stage] = json.loads((root / manifest_path).read_text()), created
        return published

    @pytest.mark.parametrize("stage", list(STAGES))
    def test_manifest_lists_exactly_the_files_its_stage_wrote(self, published, stage):
        manifest, created = published[stage]
        assert set(manifest) == {"subcommand", "seed", "settings", "inputs", "outputs", "created"}
        assert {Path(o["path"]): o["sha256"] for o in manifest["outputs"]} == created


class TestPipelineComposition:
    def test_synth_to_eval_smoke(self, tmp_cwd):
        # the whole chain runs hands-off on one synthetic store
        assert run("--seed", 3, "synth", "--topics", 12, "--pairs-per-topic", 32,
                   "--vocab-size", 300, "--noise", 0.25, "--responses-per-target", 8,
                   "--out", "store.jsonl") == 0
        assert run("--seed", 3, "ingest", "--inputs", "store.jsonl", "--out", "records.jsonl") == 0
        assert run("--seed", 3, "build", "--records", "records.jsonl", "--dataset", "all",
                   "--bench-queries", 2, "--out-dir", "built") == 0
        assert run("--seed", 3, "train", "--pairs", "built/pairs_all.tsv", "--batch-size", 10,
                   "--dim", 16, "--vocab-size", 400, "--out", "model.ckpt") == 0
        assert run("--seed", 3, "eval", "--checkpoint", "model.ckpt",
                   "--inputs", "built/bench_dq.jsonl", "built/bench_cr.jsonl",
                   "--out-dir", "reports") == 0
        assert Path("reports/report_bench_dq.json").exists()
        assert Path("reports/report_bench_cr.json").exists()

    def test_readme_walkthrough_runs_as_written(self, tmp_cwd):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        section = readme.split("## Command line", 1)[1]
        block = section.split("```bash\n", 1)[1].split("```", 1)[0].replace("\\\n", " ")
        commands = [shlex.split(line)[1:] for line in block.splitlines() if line.startswith("weakpairs ")]
        assert [argv[2] for argv in commands] == ["synth", "ingest", "build", "train", "eval", "sweep"]
        for argv in commands:
            assert main(argv) == 0, argv

    def test_readme_command_lines_parse(self):
        # a flag README still shows after the parser dropped it is a usage error here, before anything runs
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        blocks = [part.split("```", 1)[0].replace("\\\n", " ") for part in readme.split("```bash\n")[1:]]
        commands = [shlex.split(line)[1:] for block in blocks for line in block.splitlines()
                    if line.startswith("weakpairs ")]
        assert commands
        parser = build_parser()
        for argv in commands:
            parser.parse_args(argv)
