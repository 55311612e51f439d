"""The benchmark's traced pass (`bench/run.py --trace 1`) replaces layer entry
points by module and name. These tests fail when a rename in src/ would
break it."""

import importlib
import os

import pytest

from conftest import make_entity_corpus
from spanbridge import easyproject
from spanbridge.markers import MarkerScheme
from spanbridge.translate import LexiconBackend, LexiconBackendConfig

BENCH_DIR = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench")


@pytest.fixture
def spans(monkeypatch):
    monkeypatch.syspath_prepend(BENCH_DIR)
    return importlib.import_module("spans")


def test_instrument_enters_records_and_exits(spans):
    original = easyproject.project_corpus
    sentences, token_map = make_entity_corpus(5, seed=1)
    backend = LexiconBackend(LexiconBackendConfig(token_map, reorder="reverse"))
    rec = spans.SpanRecorder()
    with spans.instrument(rec):
        assert easyproject.project_corpus is not original
        _, report = easyproject.project_corpus(sentences, backend, MarkerScheme("brackets"))
    assert easyproject.project_corpus is original
    assert report.projected == 5
    names = {span[1] for span in rec.spans}
    assert {"easyproject.project_corpus", "markers.insert", "translate.call",
            "markers.extract", "easyproject.assign"} <= names
