"""Spans around the public functions of each weakpairs layer, plus timing statistics.

Each function is wrapped at the name its caller looks up (``weakpairs.corpus.clean``
for the cleaning that corpus does, ``weakpairs.evaluate.embed_text`` for the
encoding that eval does), so the program itself is not changed.  Calls to hot
leaf functions are merged into one node per (parent, name), holding a count
and a total; every other call is a node of its own.  Nodes stay in memory until
the run writes them out.  The tracer assumes one thread, which ingest uses by
default.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import math
import time

# layer -> (module, attribute looked up by the caller, span name)
WRAP_TABLE: dict[str, list[tuple[str, str, str]]] = {
    "ingest": [
        ("weakpairs.ingest", "parse_stream_file", "ingest.parse"),
        ("weakpairs.ingest", "write_records", "ingest.store_io"),
        ("weakpairs.ingest", "read_records", "ingest.store_io"),
        ("weakpairs.ingest", "extract_relations", "ingest.relations"),
        ("weakpairs.ingest", "index_records", "ingest.relations"),
        ("weakpairs.ingest", "join_reply_targets", "ingest.relations"),
    ],
    "textproc": [
        ("weakpairs.corpus", "clean", "textproc.clean"),
        ("weakpairs.encoder", "clean", "textproc.clean"),
        ("weakpairs.optim", "encode_ids", "textproc.encode_ids"),
        ("weakpairs.encoder", "encode_ids", "textproc.encode_ids"),
        ("weakpairs.cli", "build_vocab", "textproc.build_vocab"),
    ],
    "corpus": [
        ("weakpairs.corpus", "build_benchmark", "corpus.benchmark"),
        ("weakpairs.corpus", "build_pairs", "corpus.pairs"),
        ("weakpairs.corpus", "build_co_pairs", "corpus.pairs"),
        ("weakpairs.corpus", "exclude_ids", "corpus.pairs"),
        ("weakpairs.corpus", "sample_corpus", "corpus.pairs"),
        ("weakpairs.corpus", "write_pairs", "corpus.io"),
        ("weakpairs.corpus", "read_pairs", "corpus.io"),
        ("weakpairs.corpus", "write_benchmark", "corpus.io"),
        ("weakpairs.corpus", "read_benchmark", "corpus.io"),
    ],
    "encoder": [
        ("weakpairs.optim", "encode_with_trace", "encoder.forward"),
        ("weakpairs.optim", "backprop", "encoder.backward"),
        ("weakpairs.evaluate", "embed_text", "encoder.encode"),
        ("weakpairs.encoder", "save_checkpoint", "encoder.checkpoint_io"),
        ("weakpairs.encoder", "load_checkpoint", "encoder.checkpoint_io"),
    ],
    "optim": [
        ("weakpairs.optim", "train", "optim.train"),
        ("weakpairs.optim", "mn_loss", "optim.loss"),
        ("weakpairs.optim", "triplet_loss", "optim.loss"),
        ("weakpairs.optim", "adamw_step", "optim.adamw"),
    ],
    "evaluate": [
        ("weakpairs.evaluate", "eval_ranking", "evaluate.eval_ranking"),
        ("weakpairs.evaluate", "eval_graded", "evaluate.eval_graded"),
        ("weakpairs.evaluate", "load_graded_tsv", "evaluate.io"),
    ],
    "cli": [
        ("weakpairs.cli", "write_manifest", "cli.manifest"),
    ],
}

HOT = frozenset({"textproc.clean", "textproc.encode_ids", "encoder.forward", "encoder.backward", "encoder.encode"})

# span name -> (counter, function of the wrapped call's result)
RESULT_COUNTERS = {"ingest.relations": ("ingest.edges", lambda result: len(result) if isinstance(result, list) else 0)}

PERCENTILE_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


class MissingSpan(LookupError):
    """A span whose function the wrap table could not find, so it has no value."""


class Tracer:
    """A tree of span nodes; each node is a dict with name, parent, count, total, start, end."""

    def __init__(self, table=WRAP_TABLE, hot=HOT, clock=time.perf_counter):
        self.table = table
        self.hot = hot
        self.clock = clock
        self.nodes: list[dict] = []
        self.counts: dict[str, int] = {}
        self.missing: set[str] = set()
        self._stack: list[int] = []
        self._merged: dict[tuple[int | None, str], int] = {}
        self._restore: list[tuple[object, str, object]] = []

    # --- recording ---

    def enter(self, name: str) -> tuple[int, float]:
        parent = self._stack[-1] if self._stack else None
        index = self._merged.get((parent, name)) if name in self.hot else None
        if index is None:
            index = len(self.nodes)
            self.nodes.append({"name": name, "parent": parent, "count": 0, "total": 0.0, "start": None, "end": None})
            if name in self.hot:
                self._merged[(parent, name)] = index
        self._stack.append(index)
        start = self.clock()
        node = self.nodes[index]
        node["count"] += 1
        if node["start"] is None:
            node["start"] = start
        return index, start

    def exit(self, index: int, start: float) -> None:
        end = self.clock()
        node = self.nodes[index]
        node["total"] += end - start
        node["end"] = end
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself, such as a whole stage."""
        token = self.enter(name)
        try:
            yield
        finally:
            self.exit(*token)

    def _wrap(self, function, name: str):
        counter = RESULT_COUNTERS.get(name)

        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            token = self.enter(name)
            try:
                result = function(*args, **kwargs)
            finally:
                self.exit(*token)
            if counter is not None:
                self.counts[counter[0]] = self.counts.get(counter[0], 0) + counter[1](result)
            return result

        return wrapper

    def install(self) -> None:
        for entries in self.table.values():
            for module_name, attribute, name in entries:
                module = importlib.import_module(module_name)
                original = getattr(module, attribute, None)
                if original is None:
                    self.missing.add(name)
                    continue
                setattr(module, attribute, self._wrap(original, name))
                self._restore.append((module, attribute, original))

    def uninstall(self) -> None:
        while self._restore:
            module, attribute, original = self._restore.pop()
            setattr(module, attribute, original)

    # --- reading ---

    def _check(self, name: str) -> None:
        if name in self.missing:
            raise MissingSpan(name)

    def find(self, name: str, under: int | None = None) -> list[int]:
        """Indices of nodes called ``name``, optionally only inside node ``under``."""
        self._check(name)
        found = []
        for index, node in enumerate(self.nodes):
            if node["name"] == name and (under is None or self.is_inside(index, under)):
                found.append(index)
        return found

    def is_inside(self, index: int, ancestor: int) -> bool:
        parent = self.nodes[index]["parent"]
        while parent is not None:
            if parent == ancestor:
                return True
            parent = self.nodes[parent]["parent"]
        return False

    def total(self, name: str, under: int | None = None) -> float:
        return sum(self.nodes[i]["total"] for i in self.find(name, under))

    def counter(self, counter: str, name: str) -> int:
        """A count taken from the results of the calls in span ``name``."""
        self._check(name)
        return self.counts.get(counter, 0)

    def calls(self, name: str, under: int | None = None) -> int:
        return sum(self.nodes[i]["count"] for i in self.find(name, under))

    def self_time(self, index: int) -> float:
        """A node's total minus what its direct children cover (calls never overlap)."""
        children = sum(node["total"] for node in self.nodes if node["parent"] == index)
        return self.nodes[index]["total"] - children

    def step_times(self, train: str = "optim.train", step_end: str = "optim.adamw") -> list[float]:
        """Seconds per optimizer step: boundaries are the train start and each step's return."""
        steps = []
        for index in self.find(train):
            boundary = self.nodes[index]["start"]
            for child in self.find(step_end, under=index):
                steps.append(self.nodes[child]["end"] - boundary)
                boundary = self.nodes[child]["end"]
        return steps


def percentile(samples: list[float], pct: float) -> float:
    """Nearest-rank percentile: the smallest sample with at least ``pct`` percent at or below it."""
    ordered = sorted(samples)
    if not ordered:
        raise ValueError("no samples")
    rank = math.ceil(round(pct * len(ordered) / 100.0, 6))  # rounded so 99.9% of 10000 is 9990
    return ordered[max(0, rank - 1)]


def tail_percentile(samples: list[float], min_beyond: int = 10) -> tuple[float, float]:
    """The highest ladder percentile with at least ``min_beyond`` samples above it, and its value.

    With too few samples for any rung, the median (50).
    """
    for pct in PERCENTILE_LADDER:
        value = percentile(samples, pct)
        if sum(1 for x in samples if x > value) >= min_beyond:
            return pct, value
    return 50.0, percentile(samples, 50.0)
