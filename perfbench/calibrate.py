"""A fixed kernel timed around every stage, to put stage times on one machine speed.

On a shared virtual machine the same code runs up to about a third slower for
seconds to minutes at a time, and a whole run can fall in a slow stretch; the
spread of raw wall times between runs of the same code was then wider than
the benchmark's bounds.  The benchmark therefore times this kernel before and
after every stage and reports stage times scaled to a machine on which the
kernel takes ``REFERENCE_S``:

    scaled stage seconds = stage seconds * REFERENCE_S / kernel seconds around it

summed over the run as a ratio of sums.  The raw wall times are kept next to
them in the results file.  The kernel does the kinds of work the pipeline does
(JSON parsing and regex cleaning of text, interpreter loops over dicts, NumPy
arithmetic over a few MB) and imports nothing from ``weakpairs``, so a change
to the program does not change it.  It allocates nothing that grows and runs
with the garbage collector off, so the size of the program's heap does not
change its time either.
"""

from __future__ import annotations

import functools
import gc
import json
import random
import re
import time
import zlib

REFERENCE_S = 0.025  # the kernel's median on the 2-vCPU VM the bounds were set on

_rng = random.Random(0)
_WORDS = ["signal", "Harvest", "#topic", "@someone", "https://t.co/abc", "meadow", "copper", "RT"]
_BLOB = zlib.compress("\n".join(
    json.dumps({"id": i, "text": " ".join(_rng.choice(_WORDS) for _ in range(24)),
                "user": {"screen_name": f"user{i}", "followers_count": i * 7}})
    for i in range(300)
).encode("utf-8"))
_CLEAN = re.compile(r"https?://\S+|@\w+|#")
_TABLE = {f"token{i}": i for i in range(4096)}
_KEYS = list(_TABLE)


@functools.cache
def _arrays():
    import numpy as np  # on first use, after the caller has pinned BLAS threads

    a = np.linspace(0.0, 1.0, 1 << 19)  # 4 MB
    m = np.random.default_rng(0).standard_normal((64, 64))
    arrays = (np, a, np.empty_like(a), m, np.empty_like(m))
    _work(*arrays)  # first-call costs are not machine speed
    return arrays


def _work(np, a, b, m, p) -> None:
    for _ in range(4):
        for line in zlib.decompress(_BLOB).decode("utf-8").split("\n"):
            _CLEAN.sub(" ", json.loads(line)["text"]).lower().split()
    total = 0
    for _ in range(20):
        for key in _KEYS:
            total += _TABLE[key] & 7
    for _ in range(11):
        np.multiply(a, 1.0001, out=b)
        np.add(b, a, out=b)
    for _ in range(300):
        np.matmul(m, m, out=p)


def kernel_s() -> float:
    """Seconds one run of the kernel takes now."""
    arrays = _arrays()
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        _work(*arrays)
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def scale(seconds: list[float], kernels: list[float]) -> float:
    """Summed seconds scaled to the reference speed by the kernel times measured around them."""
    return sum(seconds) * REFERENCE_S * len(kernels) / sum(kernels)

