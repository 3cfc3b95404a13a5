"""Bad input through the CLI: every file it reads fails as a located error, never a traceback.

Each run is in process: ``main`` must return an exit code (an exception escaping
it fails the test), stderr must hold no traceback, and a failed run must leave
no output file behind.
"""

import bz2
import contextlib
import gzip
import io
import json
import shutil
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weakpairs.cli import main
from weakpairs.encoder import RETIRED_SETTINGS

TINY_TRAIN = ["--dim", 4, "--epochs", 1, "--batch-size", 8, "--vocab-size", 60]


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """One valid file of every format the CLI reads, built by the pipeline itself."""
    root = tmp_path_factory.mktemp("inputs")

    def run(*argv):
        assert main([str(a) for a in argv]) == 0

    run("--seed", 5, "synth", "--topics", 10, "--pairs-per-topic", 32, "--vocab-size", 260,
        "--noise", 0.2, "--responses-per-target", 8, "--out", root / "stream.jsonl")
    run("ingest", "--inputs", root / "stream.jsonl", "--out", root / "records.jsonl")
    run("--seed", 5, "build", "--records", root / "records.jsonl", "--dataset", "qt",
        "--bench-queries", 2, "--out-dir", root / "built")
    shutil.copy(root / "built" / "pairs_qt.tsv", root / "pairs.tsv")
    shutil.copy(root / "built" / "bench_dq.jsonl", root / "bench.jsonl")
    run("train", "--pairs", root / "pairs.tsv", "--out", root / "model.ckpt", *TINY_TRAIN)
    rows = [line.split("\t") for line in (root / "pairs.tsv").read_text(encoding="utf-8").splitlines()]
    graded = "".join(f"{row[3]}\t{row[4]}\t{i % 6}\n" for i, row in enumerate(rows[:8]))
    (root / "graded.tsv").write_text(graded, encoding="utf-8")
    (root / "train.conf").write_text("# small run\ndim = 4\nepochs = 1\nbatch_size = 8\nvocab_size = 60\n")
    names = ("stream.jsonl", "records.jsonl", "pairs.tsv", "bench.jsonl", "graded.tsv", "model.ckpt", "train.conf")
    return {name: (root / name).read_bytes() for name in names}


# format -> (file it corrupts, argv reading it; "out" is the only place the run may write)
COMMANDS = {
    # 12 is every pair the clean store yields, so losing one fails the build after its benchmark is made
    "record-store-build": ("records.jsonl", ["--seed", 5, "build", "--records", "records.jsonl", "--dataset", "qt",
                                             "--bench-queries", 2, "--pairs-per-dataset", 12, "--out-dir", "out"]),
    "pairs-train": ("pairs.tsv", ["train", "--pairs", "pairs.tsv", "--out", "out/m.ckpt", *TINY_TRAIN]),
    "pairs-sweep": ("pairs.tsv", ["sweep", "--axis", "corpus_size", "--values", 8, "--pairs", "pairs.tsv",
                                  "--benchmark", "bench.jsonl", "--out-dir", "out", *TINY_TRAIN]),
    "benchmark-eval": ("bench.jsonl", ["eval", "--checkpoint", "model.ckpt", "--inputs", "bench.jsonl",
                                       "graded.tsv", "--out-dir", "out"]),
    "benchmark-sweep": ("bench.jsonl", ["sweep", "--axis", "corpus_size", "--values", 8, "--pairs", "pairs.tsv",
                                        "--benchmark", "bench.jsonl", "--out-dir", "out", *TINY_TRAIN]),
    "graded-eval": ("graded.tsv", ["eval", "--checkpoint", "model.ckpt", "--inputs", "bench.jsonl",
                                   "graded.tsv", "--out-dir", "out"]),
    "checkpoint-eval": ("model.ckpt", ["eval", "--checkpoint", "model.ckpt", "--inputs", "graded.tsv",
                                       "bench.jsonl", "--out-dir", "out"]),
    "config-train": ("train.conf", ["train", "--pairs", "pairs.tsv", "--out", "out/m.ckpt",
                                    "--config", "train.conf"]),
}


def run_on(inputs, fmt, content: bytes):
    """Run the command of ``fmt`` with its input replaced by ``content``: (exit code, stderr, files written)."""
    target, argv = COMMANDS[fmt]
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        for name, data in inputs.items():
            (work / name).write_bytes(data)
        (work / target).write_bytes(content)
        # input names and "out" paths in argv are taken inside the work directory
        argv = [str(work / a) if a in inputs or str(a).startswith("out") else str(a) for a in argv]
        stderr = io.StringIO()
        with contextlib.redirect_stderr(stderr), contextlib.redirect_stdout(io.StringIO()):
            code = main(argv)
        written = sorted(str(p.relative_to(work)) for p in (work / "out").rglob("*") if p.is_file())
    return code, stderr.getvalue(), written


@pytest.mark.parametrize("fmt", ["record-store-build", "pairs-train", "pairs-sweep", "benchmark-eval",
                                 "benchmark-sweep", "graded-eval"])
def test_non_utf8_byte_on_line_3_is_located_data_error(inputs, fmt):
    target = COMMANDS[fmt][0]
    lines = inputs[target].split(b"\n")
    lines[2] = lines[2][:5] + b"\xff" + lines[2][5:]
    code, err, written = run_on(inputs, fmt, b"\n".join(lines))
    assert code == 2
    assert target in err and "line 3" in err and "UTF-8" in err
    assert "Traceback" not in err
    assert written == []


def test_every_command_succeeds_on_the_clean_inputs(inputs):
    for fmt, (target, _) in COMMANDS.items():
        code, err, written = run_on(inputs, fmt, inputs[target])
        assert code == 0, (fmt, err)
        assert written


def _with_byte(data: bytes, at: int, value: int) -> bytes:
    return data[:at] + bytes([value]) + data[at + 1:]


# damaged stream file name -> the damage done to the compressed stream
DAMAGED_STREAMS = {
    "truncated.jsonl.gz": lambda packed: packed[: len(packed) // 2],
    "truncated.jsonl.bz2": lambda packed: packed[: len(packed) // 2],
    # gzip.compress writes a 10-byte header; setting both type bits makes the first deflate block reserved
    "bad-deflate-block.jsonl.gz": lambda packed: _with_byte(packed, 10, packed[10] | 0b110),
    # the gzip trailer is CRC-32, then the length, 4 bytes each
    "bad-crc.jsonl.gz": lambda packed: _with_byte(packed, len(packed) - 8, packed[-8] ^ 0xFF),
    "bad-block.jsonl.bz2": lambda packed: _with_byte(packed, 20, packed[20] ^ 0x55),
}


@pytest.mark.parametrize("name", sorted(DAMAGED_STREAMS))
def test_damaged_compressed_stream_is_located_data_error(inputs, name):
    plain = inputs["stream.jsonl"]
    packed = gzip.compress(plain, mtime=0) if name.endswith(".gz") else bz2.compress(plain)
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        (work / name).write_bytes(DAMAGED_STREAMS[name](packed))
        stderr = io.StringIO()
        with contextlib.redirect_stderr(stderr), contextlib.redirect_stdout(io.StringIO()):
            code = main(["ingest", "--inputs", str(work / name), "--out", str(work / "out" / "records.jsonl")])
        assert not (work / "out").exists()
    err = stderr.getvalue()
    assert code == 2
    assert name in err and "after line" in err
    assert "Traceback" not in err


# --- fuzzing: truncate, flip a byte, or retype a field --------------------------

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-(10**20), 10**20) | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)
SCORES = st.sampled_from(["", "nan", "inf", "-1", "1e999", "2.5", "five", "0x1"]) | st.floats().map(repr)


def retype_jsonl(data, content: bytes) -> bytes:
    lines = content.split(b"\n")
    index = data.draw(st.integers(0, len(lines) - 2))
    obj = json.loads(lines[index])
    obj[data.draw(st.sampled_from(sorted(obj)))] = data.draw(JSON_VALUES)
    lines[index] = json.dumps(obj, ensure_ascii=False).encode("utf-8")
    return b"\n".join(lines)


def retype_tsv(data, content: bytes) -> bytes:
    lines = content.split(b"\n")
    index = data.draw(st.integers(0, len(lines) - 2))
    fields = lines[index].split(b"\t")
    column = data.draw(st.integers(0, len(fields) - 1))
    fields[column] = data.draw(SCORES | st.text(max_size=12)).encode("utf-8")
    lines[index] = b"\t".join(fields)
    return b"\n".join(lines)


def retype_checkpoint(data, content: bytes) -> bytes:
    header_line, payload = content.split(b"\n", 1)
    header = json.loads(header_line)
    # the retired keys too: an older checkpoint may carry them
    key = data.draw(st.sampled_from(sorted({*header, *RETIRED_SETTINGS}) + ["vocab.tokens", "params.name",
                                                                            "params.shape"]))
    value = data.draw(JSON_VALUES | st.integers(-3, 3))
    if "." in key:
        outer, inner = key.split(".")
        entry = header[outer] if outer == "vocab" else header[outer][data.draw(st.integers(0, 5))]
        entry[inner] = value
    else:
        header[key] = value
    return json.dumps(header).encode("utf-8") + b"\n" + payload


def retype_config(data, content: bytes) -> bytes:
    lines = content.split(b"\n")
    index = data.draw(st.integers(1, len(lines) - 2))
    key = lines[index].split(b"=")[0].strip().decode()
    lines[index] = f"{key} = {data.draw(SCORES | st.text(max_size=8))}".encode("utf-8")
    return b"\n".join(lines)


RETYPE = {"records.jsonl": retype_jsonl, "bench.jsonl": retype_jsonl, "pairs.tsv": retype_tsv,
          "graded.tsv": retype_tsv, "model.ckpt": retype_checkpoint, "train.conf": retype_config}


@pytest.mark.parametrize("fmt", ["record-store-build", "pairs-train", "benchmark-eval", "graded-eval",
                                 "checkpoint-eval", "config-train"])
@settings(max_examples=100)
@given(data=st.data())
def test_fuzzed_input_fails_cleanly(inputs, fmt, data):
    target = COMMANDS[fmt][0]
    content = inputs[target]
    mutation = data.draw(st.sampled_from(["truncate", "flip", "retype"]))
    if mutation == "truncate":
        content = content[: data.draw(st.integers(0, len(content) - 1))]
    elif mutation == "flip":
        # in a checkpoint only the header is text; any payload bytes are valid floats
        end = content.index(b"\n") if target == "model.ckpt" else len(content)
        at = data.draw(st.integers(0, end - 1))
        content = content[:at] + bytes([content[at] ^ data.draw(st.integers(1, 255))]) + content[at + 1:]
    else:
        content = RETYPE[target](data, content)
    code, err, written = run_on(inputs, fmt, content)
    assert "Traceback" not in err
    # a mutation can leave the file valid (a cut at a line end, a flip inside a text): then the run succeeds
    if code == 0:
        assert written
    else:
        assert code in (1, 2, 3)
        assert written == [], err


# int() or bool() would turn each value into a valid one; TINY_TRAIN's dim is 4.  An older checkpoint's
# normalize_output: true or use_block: false has the right type but names a model this encoder does not run
@pytest.mark.parametrize("key, value", [("max_len", True), ("max_len", 3.9), ("dim", 4.5), ("use_block", "false"),
                                        ("use_block", False), ("normalize_output", "false"),
                                        ("normalize_output", True), ("model_version", True)])
def test_retyped_checkpoint_header_is_data_error(inputs, key, value):
    header_line, payload = inputs["model.ckpt"].split(b"\n", 1)
    header = json.loads(header_line)
    header[key] = value
    code, err, written = run_on(inputs, "checkpoint-eval", json.dumps(header).encode("utf-8") + b"\n" + payload)
    assert code == 2
    assert err.startswith("data error: ") and "model.ckpt" in err and f"{key} must be" in err, err
    assert written == []


def _eval_with_vocab(inputs, change):
    """Run eval on the checkpoint with ``change`` applied to its header's vocabulary."""
    header_line, payload = inputs["model.ckpt"].split(b"\n", 1)
    header = json.loads(header_line)
    change(header["vocab"])
    return run_on(inputs, "checkpoint-eval", json.dumps(header).encode("utf-8") + b"\n" + payload)


@pytest.mark.parametrize("token", [7, None])
def test_checkpoint_vocab_token_that_is_not_a_string_is_data_error(inputs, token):
    code, err, written = _eval_with_vocab(inputs, lambda vocab: vocab["tokens"].__setitem__(5, token))
    assert code == 2
    assert err.startswith("data error: ") and "model.ckpt" in err, err
    assert f"vocab.tokens[5] must be a string; got {token!r}" in err, err
    assert written == []


@settings(max_examples=50)
@given(data=st.data())
def test_fuzzed_stream_lines_are_counted_not_fatal(inputs, data):
    content = inputs["stream.jsonl"]
    at = data.draw(st.integers(0, len(content) - 1))
    content = content[:at] + bytes([content[at] ^ data.draw(st.integers(1, 255))]) + content[at + 1:]
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        (work / "stream.jsonl").write_bytes(content[: data.draw(st.integers(at, len(content)))])
        with contextlib.redirect_stdout(io.StringIO()):
            code = main(["ingest", "--inputs", str(work / "stream.jsonl"), "--out", str(work / "r.jsonl")])
        assert code == 0
        stats = json.loads((work / "r.jsonl.stats.json").read_text())["totals"]
    assert stats["lines"] == stats["parsed"] + stats["malformed"] + stats["no_text"] + stats["filtered_lang"]
