"""The benchmark's traced pass (`bench/run.py --trace 1`) replaces layer entry
points by module and name. These tests fail when a rename in src/ would
break it."""

import importlib
import os

import pytest

from conftest import make_entity_corpus
from spanbridge import easyproject, ftdata, translate
from spanbridge.core import LabeledSpan, QaExample
from spanbridge.markers import MarkerScheme
from spanbridge.translate import LexiconBackend, LexiconBackendConfig, TranslateRequest

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


def test_instrument_counts_cache_hits_misses_and_appends(spans, tmp_path):
    sentences, token_map = make_entity_corpus(20, seed=3)
    backend = LexiconBackend(LexiconBackendConfig(token_map, reorder="reverse"))
    scheme = MarkerScheme("brackets")

    class Recording:  # translate() sends each distinct item once
        def __init__(self):
            self.items = []

        def translate(self, request):
            self.items += request.items
            return backend.translate(request)

    recording = Recording()
    easyproject.project_corpus(sentences, recording, scheme)
    path = str(tmp_path / "c.jsonl")
    prewarm = recording.items[::2]
    translate.warm_cache([TranslateRequest(tuple(prewarm), "src", "tgt")], backend, path)
    rec = spans.SpanRecorder()
    with spans.instrument(rec):
        cached = translate.CacheBackend(translate.TranslationCache(path), backend)
        _, report = easyproject.project_corpus(sentences, cached, scheme)
    assert report.projected == 20
    misses = len(recording.items) - len(prewarm)
    assert misses > 32  # appended over more than one batch
    assert rec.counts["translate.cache_hits"] == len(prewarm)
    assert rec.counts["translate.cache_misses"] == misses
    assert rec.counts["translate.cache_appends"] == misses
    assert len(translate.TranslationCache(path)) == len(recording.items)


@pytest.mark.parametrize("entry", ["project_sentence", "project_qa", "build_ft_pairs"])
def test_one_input_calls_translate_through_the_patched_name(spans, entry):
    sentences, token_map = make_entity_corpus(1, seed=4)
    sentence = sentences[0]
    backend = LexiconBackend(LexiconBackendConfig(token_map, reorder="reverse"))
    scheme = MarkerScheme("brackets")
    target = backend.translate(TranslateRequest((sentence.text,), "src", "tgt")).items[0].output
    rec = spans.SpanRecorder()
    with spans.instrument(rec):
        if entry == "project_sentence":
            outcome = easyproject.project_sentence(sentence, backend, scheme)
            assert outcome.status == easyproject.PROJECTED
        elif entry == "project_qa":
            span = sentence.spans[0]
            example = QaExample("q", "what ?", sentence.text,
                                LabeledSpan(0, span.start, span.end, "ANSWER"))
            projected, _ = easyproject.project_qa([example], backend, scheme)
            assert len(projected) == 1
        else:
            assert ftdata.build_ft_pairs([ftdata.ParallelPair(sentence, target)], backend)
    assert [span[1] for span in rec.spans].count("translate.call") == 1
    assert rec.counts["translate.calls"] == 1
