"""The package's exports, loaded from their submodules on first use."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import weakpairs

SRC = Path(__file__).resolve().parents[1] / "src"


def test_numpy_free_submodules_do_not_load_numpy():
    # a fresh process: this one has NumPy loaded already
    code = ("import sys, weakpairs.synth, weakpairs.ingest, weakpairs.corpus, weakpairs.textproc, weakpairs.atomic\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'numpy'))")
    done = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=str(SRC)),
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\n"


@pytest.mark.parametrize("name", weakpairs.__all__)
def test_export_is_the_object_its_module_defines(name):
    value = getattr(weakpairs, name)
    assert getattr(sys.modules[value.__module__], name) is value


def test_unknown_name_is_attribute_error():
    with pytest.raises(AttributeError, match="module 'weakpairs' has no attribute 'nope'"):
        weakpairs.nope
    with pytest.raises(ImportError):
        from weakpairs import nope  # noqa: F401
