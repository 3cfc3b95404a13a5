"""Shared fixtures for the weakpairs test suite."""

import pytest
from hypothesis import settings

from weakpairs.ingest import RelationEdge

# every property test draws its examples from a fixed seed, keeps no example database and has no deadline;
# a test's own @settings sets only how many examples it draws
settings.register_profile("weakpairs", deadline=None, derandomize=True, database=None)
settings.load_profile("weakpairs")

WORDS = (
    "signal harvest window orbital number granite velvet copper stream "
    "meadow lantern crystal harbor thunder silver marble beacon hollow "
    "ember drift quartz saffron timber violet breeze cinder"
).split()


def long_text(*words: str) -> str:
    """A cleaned-style text comfortably past the 20-character minimum."""
    return " ".join(words) if words else "granite lantern copper stream"


def make_edge(kind, target, response, target_words=None, response_words=None) -> RelationEdge:
    t_text = long_text(*(target_words or (f"target text {target} granite lantern",))).strip()
    r_text = long_text(*(response_words or (f"response text {response} copper stream",))).strip()
    return RelationEdge(
        kind=kind,
        target_id=str(target),
        response_id=str(response),
        target_text=t_text,
        response_text=r_text,
    )


@pytest.fixture
def tmp_cwd(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    return tmp_path
