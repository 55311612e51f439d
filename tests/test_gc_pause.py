"""The corpus-level entry points hold off CPython's cyclic collector
(`core.gc_paused`): parse_jsonl, project_corpus, project_qa,
project_corpus_aligned and build_ft_pairs.

The premise: the records a batch builds are acyclic, so a collection during
the batch can only rescan them; with the collector off, a batch leaves no
cyclic garbage behind. The contract: on return, raise or nested call, the
collector is enabled exactly when it was on entry.
"""

import gc
import importlib
import json
import os
import sys
import threading
from http.server import BaseHTTPRequestHandler, HTTPServer

import pytest

from conftest import make_entity_corpus
from spanbridge import alignproject, core, easyproject, ftdata
from spanbridge.core import FormatError, emit_jsonl, parse_jsonl
from spanbridge.markers import MarkerScheme
from spanbridge.translate import (
    CacheBackend,
    HttpBackend,
    IdentityBackend,
    LexiconBackend,
    LexiconBackendConfig,
    TranslatedItem,
    TranslateResponse,
    TranslationCache,
)

BENCH_DIR = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench")
BACKENDS = ["identity", "lexicon", "cache", "http"]


@pytest.fixture(autouse=True)
def restore_gc():
    enabled = gc.isenabled()
    yield
    if enabled:
        gc.enable()
    else:
        gc.disable()


class _Handler(BaseHTTPRequestHandler):
    """POST /translate: upper-cases every text."""

    def do_POST(self):
        body = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
        out = json.dumps({"translations": [t.upper() for t in body["texts"]]}).encode()
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(out)))
        self.end_headers()
        self.wfile.write(out)

    def log_message(self, *args):
        pass


@pytest.fixture
def http_url():
    server = HTTPServer(("127.0.0.1", 0), _Handler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield f"http://127.0.0.1:{server.server_port}"
    server.shutdown()
    server.server_close()
    thread.join(timeout=10)


@pytest.fixture
def make_backend(tmp_path, http_url):
    def make(kind, token_map):
        if kind == "identity":
            return IdentityBackend()
        lexicon = LexiconBackend(LexiconBackendConfig(token_map, reorder="reverse"))
        if kind == "lexicon":
            return lexicon
        if kind == "cache":
            return CacheBackend(TranslationCache(str(tmp_path / "cache.jsonl")), lexicon)
        return HttpBackend(http_url, timeout_ms=5000)
    return make


@pytest.fixture
def parallel_corpus(monkeypatch):
    monkeypatch.syspath_prepend(BENCH_DIR)
    return importlib.import_module("corpora").make_parallel_corpus(200, 7)


def _aligned_pairs(sentences, translations, lines):
    pairs = []
    for sentence, translation, line in zip(sentences, translations, lines):
        src, tgt = tuple(sentence.text.split(" ")), tuple(translation.split())
        pairs.append(alignproject.AlignedPair(
            src, tgt, alignproject.parse_pharaoh(line, len(src), len(tgt))))
    return pairs


def _qa_examples(sentences):
    """One QA example per sentence with a span: its first span as the answer,
    the next sentence as the question."""
    return [core.QaExample(str(i), sentences[(i + 1) % len(sentences)].text, s.text,
                           core.LabeledSpan(0, s.spans[0].start, s.spans[0].end, "ANSWER"))
            for i, s in enumerate(sentences) if s.spans]


def _cyclic_garbage_left(call) -> int:
    """Objects in unreachable cycles that call() leaves, with the collector off."""
    gc.disable()
    gc.collect()
    call()
    return gc.collect()


# ---------------------------------------------------------------------------
# premise: nothing for the collector to find


def test_parse_jsonl_leaves_no_cycles():
    text = emit_jsonl(make_entity_corpus(300, seed=1)[0])
    assert _cyclic_garbage_left(lambda: parse_jsonl(text)) == 0


def test_project_corpus_aligned_leaves_no_cycles(parallel_corpus):
    sentences, translations, lines, _, _ = parallel_corpus
    pairs = _aligned_pairs(sentences, translations, lines)
    assert _cyclic_garbage_left(
        lambda: alignproject.project_corpus_aligned(sentences, pairs)) == 0


@pytest.mark.parametrize("kind", BACKENDS)
@pytest.mark.parametrize("scheme", ["brackets", "xml"])
def test_project_corpus_leaves_no_cycles(make_backend, kind, scheme):
    sentences, token_map = make_entity_corpus(300, seed=2)
    backend = make_backend(kind, token_map)
    assert _cyclic_garbage_left(lambda: easyproject.project_corpus(
        sentences, backend, MarkerScheme(scheme), jobs=2)) == 0


@pytest.mark.parametrize("kind", BACKENDS)
def test_project_qa_leaves_no_cycles(make_backend, kind):
    sentences, token_map = make_entity_corpus(300, seed=2)
    backend = make_backend(kind, token_map)
    assert _cyclic_garbage_left(lambda: easyproject.project_qa(
        _qa_examples(sentences), backend, MarkerScheme("brackets"))) == 0


@pytest.mark.parametrize("kind", BACKENDS)
def test_build_ft_pairs_leaves_no_cycles(make_backend, parallel_corpus, kind):
    sentences, translations, _, _, token_map = parallel_corpus
    backend = make_backend(kind, token_map)
    pairs = [ftdata.ParallelPair(s, t) for s, t in zip(sentences, translations)]
    assert _cyclic_garbage_left(lambda: ftdata.build_ft_pairs(pairs, backend)) == 0


def test_failed_http_batches_leave_no_cycles():
    # nothing listens on the port once the server is closed: every attempt is refused
    server = HTTPServer(("127.0.0.1", 0), _Handler)
    url = f"http://127.0.0.1:{server.server_port}"
    server.server_close()
    sentences, _ = make_entity_corpus(40, seed=3)
    backend = HttpBackend(url, timeout_ms=2000, retries=2, backoff_ms=1)
    outcome = []
    assert _cyclic_garbage_left(lambda: outcome.append(easyproject.project_corpus(
        sentences, backend, MarkerScheme("brackets"), jobs=1))) == 0
    assert outcome[0][1].failed == len(sentences)


# ---------------------------------------------------------------------------
# contract: the collector's state is restored


def _entry_point_calls(parallel_corpus):
    sentences, translations, lines, _, token_map = parallel_corpus
    pairs = _aligned_pairs(sentences, translations, lines)
    backend = LexiconBackend(LexiconBackendConfig(token_map))
    text = emit_jsonl(sentences)
    return {
        "parse_jsonl": lambda: parse_jsonl(text),
        "project_corpus": lambda: easyproject.project_corpus(
            sentences, backend, MarkerScheme("brackets"), jobs=2),
        "project_qa": lambda: easyproject.project_qa(
            _qa_examples(sentences), backend, MarkerScheme("brackets")),
        "project_corpus_aligned": lambda: alignproject.project_corpus_aligned(sentences, pairs),
        "build_ft_pairs": lambda: ftdata.build_ft_pairs(
            [ftdata.ParallelPair(s, t) for s, t in zip(sentences, translations)], backend),
    }


# a callee of each entry point, looked up by module global at call time
CALLEES = {
    "parse_jsonl": (core, "sentence_from_json"),
    "project_corpus": (easyproject, "translate"),
    "project_qa": (easyproject, "translate"),
    "project_corpus_aligned": (alignproject, "project_sentence_aligned"),
    "build_ft_pairs": (ftdata, "translate_each"),
}


@pytest.mark.parametrize("name", sorted(CALLEES))
def test_collector_is_off_inside_each_entry_point(monkeypatch, parallel_corpus, name):
    module, callee = CALLEES[name]
    inner = getattr(module, callee)
    seen = []

    def spy(*args, **kwargs):
        seen.append(gc.isenabled())
        return inner(*args, **kwargs)

    monkeypatch.setattr(module, callee, spy)
    gc.enable()
    _entry_point_calls(parallel_corpus)[name]()
    assert seen and not any(seen)
    assert gc.isenabled()


@pytest.mark.parametrize("enabled", [True, False])
def test_state_on_return_equals_state_on_entry(parallel_corpus, enabled):
    for name, call in _entry_point_calls(parallel_corpus).items():
        gc.enable() if enabled else gc.disable()
        call()
        assert gc.isenabled() is enabled, name


@pytest.mark.parametrize("enabled", [True, False])
def test_state_restored_when_parse_jsonl_raises(enabled):
    gc.enable() if enabled else gc.disable()
    with pytest.raises(FormatError, match="line 2"):
        parse_jsonl('{"text": "a"}\n{"text": 5}\n')
    assert gc.isenabled() is enabled


@pytest.mark.parametrize("enabled", [True, False])
def test_state_restored_when_project_corpus_aligned_raises(enabled):
    sentence = parse_jsonl('{"text": "a b"}')[0]
    pair = alignproject.AlignedPair(("a", "c"), ("x", "y"), {(0, 0)})
    gc.enable() if enabled else gc.disable()
    with pytest.raises(FormatError, match="does not match the aligned source tokens"):
        alignproject.project_corpus_aligned([sentence], [pair])
    assert gc.isenabled() is enabled


def test_nested_pause_leaves_the_outer_one_in_force():
    seen = []

    class NestingBackend:
        """Parses a corpus (a nested pause) from inside project_corpus."""

        def translate(self, request):
            parse_jsonl('{"text": "a"}')
            seen.append(gc.isenabled())
            return TranslateResponse(tuple(TranslatedItem(t) for t in request.items))

    sentences, _ = make_entity_corpus(5, seed=4)
    gc.enable()
    easyproject.project_corpus(sentences, NestingBackend(), MarkerScheme("xml"), jobs=1)
    assert seen == [False]
    assert gc.isenabled()
    with core.gc_paused():
        parse_jsonl('{"text": "a"}')
        assert not gc.isenabled()
    assert gc.isenabled()


def test_two_threads_at_once_leave_the_collector_enabled():
    barrier = threading.Barrier(2, timeout=10)

    class MeetingBackend:
        """Holds each thread in translate until the other one is there too."""

        def translate(self, request):
            barrier.wait()
            return TranslateResponse(tuple(TranslatedItem(t) for t in request.items))

    sentences, _ = make_entity_corpus(20, seed=5)
    results = []

    def run():
        results.append(easyproject.project_corpus(
            sentences, MeetingBackend(), MarkerScheme("xml"), jobs=1)[1].projected)

    gc.enable()
    threads = [threading.Thread(target=run) for _ in range(2)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=30)
    assert not any(t.is_alive() for t in threads)
    assert results == [len(sentences)] * 2
    assert gc.isenabled()


def test_a_pause_ending_while_another_starts_leaves_the_collector_on(monkeypatch):
    """Thread Z reads the collector as off inside thread W's pause, and W's
    pause ends before Z switches it off: a stale read that would keep the
    collector off for good unless reading-and-disabling and re-enabling
    exclude each other."""
    w_in, z_read, w_done = threading.Event(), threading.Event(), threading.Event()

    class SteppedGc:
        """The gc switch, with Z held between its read and its disable."""

        def __init__(self):
            self.on = True

        def isenabled(self):
            on = self.on
            if threading.current_thread() is z:
                z_read.set()
                w_done.wait(timeout=0.5)  # W's re-enable must wait for Z's disable
            return on

        def disable(self):
            self.on = False

        def enable(self):
            self.on = True

    def pause_w():
        with core.gc_paused():
            w_in.set()
            z_read.wait(timeout=10)
        w_done.set()

    def pause_z():
        w_in.wait(timeout=10)
        with core.gc_paused():
            pass

    switch = SteppedGc()
    monkeypatch.setattr(core, "gc", switch)
    w, z = threading.Thread(target=pause_w), threading.Thread(target=pause_z)
    w.start()
    z.start()
    for t in (w, z):
        t.join(timeout=30)
    assert not w.is_alive() and not z.is_alive()
    assert z_read.is_set() and w_done.is_set()
    assert switch.on


def test_many_threads_pausing_at_once_leave_the_collector_enabled():
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        done = []
        text = '{"text": "a b", "spans": [{"start": 0, "end": 1, "label": "X"}]}\n' * 3

        def work():
            for _ in range(200):
                parse_jsonl(text)
            done.append(True)

        gc.enable()
        threads = [threading.Thread(target=work) for _ in range(2 * (os.cpu_count() or 1) + 2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert len(done) == len(threads)
    assert gc.isenabled()
