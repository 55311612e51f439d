import json
import os
import re
import signal
import socket
import subprocess
import sys
import tempfile
import threading
import time
from collections import Counter
from http.server import BaseHTTPRequestHandler, HTTPServer, ThreadingHTTPServer
from unittest.mock import patch

import pytest
from hypothesis import given, settings, strategies as st

from conftest import make_entity_corpus
from spanbridge import translate as translate_module
from spanbridge.cli import EXIT_OK, EXIT_PARTIAL, run
from spanbridge.core import AnnotatedSentence, LabeledSpan, emit_jsonl, parse_jsonl
from spanbridge.easyproject import project_corpus
from spanbridge.ftdata import ParallelPair, build_ft_pairs
from spanbridge.markers import VALID, MarkerScheme, extract_markers, insert_markers
from spanbridge.translate import (
    BATCH_SIZE,
    DEFAULT_BACKOFF_MS,
    DEFAULT_RETRIES,
    MAX_BACKOFF_MS,
    MAX_TIMEOUT_MS,
    CacheBackend,
    CorruptCacheError,
    HttpBackend,
    IdentityBackend,
    LexiconBackend,
    LexiconBackendConfig,
    TranslatedItem,
    TranslateRequest,
    TranslateResponse,
    TranslationCache,
    backend_error,
    translate,
    warm_cache,
)


class TestIdentity:
    def test_passthrough(self):
        resp = IdentityBackend().translate(TranslateRequest(("a [ b ] c",), "en", "de"))
        assert resp.outputs() == ["a [ b ] c"]
        assert all(i.ok for i in resp.items)


_ROTATE = str.maketrans("abcd", "bcda")  # mapped words are often keys too, so a second mapping shows


def _words(text: str) -> list[str]:
    """Words of a marked text: what lies between whitespace and marker tokens."""
    return [w for w in re.split(r'\s|[\[\]"]|</?[a-z]+>', text) if w]


@st.composite
def _spanned_sentence(draw):
    """A sentence with spans cut at any character, so unpadded markers may be
    glued to the text beside them as well as to the span."""
    tokens = draw(st.lists(st.text(alphabet="abcd中文ж", min_size=1, max_size=4),
                           min_size=1, max_size=8))
    text = " ".join(tokens)
    cuts = sorted(draw(st.sets(st.integers(0, len(text)), max_size=8)))
    spans = []
    for start, end in zip(cuts[::2], cuts[1::2]):
        if text[start:end].strip() == text[start:end]:
            spans.append(LabeledSpan(len(spans), start, end, "X"))
    return AnnotatedSentence(text, tuple(spans))


class TestLexicon:
    def test_map_and_reverse(self):
        backend = LexiconBackend(LexiconBackendConfig({"b": "β"}, reorder="reverse"))
        resp = backend.translate(TranslateRequest(("a [ b ] c",), "en", "el"))
        assert resp.outputs() == ["c [ β ] a"]

    def test_unknown_tokens_pass_through(self):
        backend = LexiconBackend(LexiconBackendConfig({}))
        resp = backend.translate(TranslateRequest(("x y z",), "en", "de"))
        assert resp.outputs() == ["x y z"]

    def test_seeded_permutation_deterministic(self):
        cfg = LexiconBackendConfig({}, reorder="seed:42")
        a = LexiconBackend(cfg).translate(TranslateRequest(("a b c d e",), "en", "de"))
        b = LexiconBackend(cfg).translate(TranslateRequest(("a b c d e",), "en", "de"))
        assert a.outputs() == b.outputs()
        assert sorted(a.outputs()[0].split()) == ["a", "b", "c", "d", "e"]

    def test_marker_pairs_stay_wrapped(self):
        backend = LexiconBackend(
            LexiconBackendConfig({"x": "ξ", "y": "υ"}, reorder="reverse"))
        resp = backend.translate(
            TranslateRequest(("<a> x </a> m <b> y </b>",), "en", "el"))
        assert resp.outputs() == ["<b> υ </b> m <a> ξ </a>"]

    def test_marker_token_cannot_be_lexicon_key(self):
        with pytest.raises(ValueError, match="marker token"):
            LexiconBackendConfig({"[": "x"})

    @pytest.mark.parametrize("token_map", [
        {"a": 5}, {"a": None}, {5: "a"}, [("a", "b", "c")], ["ab"], [("a", 5)], "ab", 5, None])
    def test_lexicon_must_map_strings_to_strings(self, token_map):
        with pytest.raises(ValueError, match="lexicon"):
            LexiconBackendConfig(token_map)

    def test_lexicon_pairs_are_kept_in_order_and_a_mapping_is_sorted(self):
        assert LexiconBackendConfig([["b", "B"], ("a", "A")]).token_map == (("b", "B"), ("a", "A"))
        assert LexiconBackendConfig({"b": "B", "a": "A"}).token_map == (("a", "A"), ("b", "B"))

    def test_only_known_reorders_accepted(self):
        for reorder in ["revrse", "Reverse", "seed:x", "seed:", "seed:1.5", "seed", "shuffle:3",
                        " none", ""]:
            with pytest.raises(ValueError, match="reorder must be none, reverse or seed:<int>"):
                LexiconBackendConfig({}, reorder=reorder)
        for reorder in ["none", "reverse", "seed:0", "seed:-3", "seed:+12"]:
            text = LexiconBackend(LexiconBackendConfig({}, reorder=reorder))._translate_one("a b c")
            assert sorted(text.split()) == ["a", "b", "c"]

    def test_unclosed_marker_keeps_every_word(self):
        cfg = LexiconBackendConfig({"a": "A", "b": "B", "c": "C"})
        resp = LexiconBackend(cfg).translate(TranslateRequest(("[ a [ b ] c",), "en", "de"))
        assert resp.outputs() == ["[ A [ B ] C"]

    @given(_spanned_sentence(), st.sampled_from(["brackets", "xml", "quotes"]), st.booleans(),
           st.one_of(st.sampled_from(["none", "reverse"]),
                     st.integers(0, 99).map(lambda n: f"seed:{n}")), st.data())
    @settings(max_examples=300)
    def test_words_mapped_once_and_spans_stay_wrapped(self, sentence, kind, pad, reorder, data):
        scheme = MarkerScheme(kind, pad_with_space=pad)
        marked = insert_markers(sentence, scheme)
        words = _words(marked.text)
        keys = data.draw(st.sets(st.sampled_from(words))) if words else set()
        token_map = {w: w.translate(_ROTATE) for w in keys}
        out = LexiconBackend(LexiconBackendConfig(token_map, reorder=reorder))._translate_one(
            marked.text)

        def mapped(text):
            return re.sub(r"\S+", lambda m: token_map.get(m[0], m[0]), text)

        assert Counter(_words(out)) == Counter(token_map.get(w, w) for w in words)
        result = extract_markers(out, scheme, marked.marker_map)
        assert result.status == VALID
        found = [(i, result.clean_text[s:e]) for i, s, e in result.found_spans]
        expected = [(s.id if kind == "xml" else None, mapped(s.slice(sentence.text)))
                    for s in sentence.spans]
        assert sorted(found, key=str) == sorted(expected, key=str)


class _DropsFirst:
    """An upstream whose reply is one item short."""

    def translate(self, request):
        return TranslateResponse(tuple(TranslatedItem(t) for t in request.items[1:]))


class TestCache:
    def test_offline_miss_is_uncached_error(self, tmp_path):
        cache = TranslationCache(str(tmp_path / "c.jsonl"))
        backend = CacheBackend(cache)
        resp = backend.translate(TranslateRequest(("hello",), "en", "de"))
        assert not resp.items[0].ok
        assert "uncached" in resp.items[0].status

    def test_hit_after_warm(self, tmp_path):
        path = str(tmp_path / "c.jsonl")
        reqs = [TranslateRequest(("one", "two", "three"), "en", "de")]
        new, errors = warm_cache(reqs, IdentityBackend(), path)
        assert (new, errors) == (3, 0)
        backend = CacheBackend(TranslationCache(path))
        resp = backend.translate(TranslateRequest(("two", "three"), "en", "de"))
        assert resp.outputs() == ["two", "three"]

    def test_warm_idempotent(self, tmp_path):
        path = str(tmp_path / "c.jsonl")
        reqs = [TranslateRequest(("x", "y"), "en", "de")]
        assert warm_cache(reqs, IdentityBackend(), path) == (2, 0)
        assert warm_cache(reqs, IdentityBackend(), path) == (0, 0)

    def test_warm_counts_partial(self, tmp_path):
        path = str(tmp_path / "c.jsonl")
        warm_cache([TranslateRequest(("a", "b"), "en", "de")], IdentityBackend(), path)
        reqs = [TranslateRequest(("a", "b", "c", "d", "e"), "en", "de")]
        assert warm_cache(reqs, IdentityBackend(), path) == (3, 0)

    def test_keying_includes_languages(self, tmp_path):
        path = str(tmp_path / "c.jsonl")
        warm_cache([TranslateRequest(("hello",), "en", "de")], IdentityBackend(), path)
        backend = CacheBackend(TranslationCache(path))
        miss = backend.translate(TranslateRequest(("hello",), "en", "fr"))
        assert not miss.items[0].ok

    def test_records_are_expected_schema(self, tmp_path):
        path = str(tmp_path / "c.jsonl")
        warm_cache([TranslateRequest(("hi",), "en", "de")], IdentityBackend(), path)
        with open(path, encoding="utf-8") as f:
            rec = json.loads(f.read().strip())
        assert set(rec) == {"src_lang", "tgt_lang", "input", "output"}

    def test_torn_final_line_skipped_and_cut_before_append(self, tmp_path):
        path = tmp_path / "c.jsonl"
        warm_cache([TranslateRequest(("one", "two"), "en", "de")], IdentityBackend(), str(path))
        with open(path, "a", encoding="utf-8") as f:
            f.write('{"input": "thr')  # an append interrupted mid-record
        cache = TranslationCache(str(path))
        assert cache.get("en", "de", "two") == "two"
        assert cache.put("en", "de", [("three", "drei")]) == 1
        reloaded = TranslationCache(str(path))
        assert [reloaded.get("en", "de", t) for t in ("one", "two", "three")] == \
            ["one", "two", "drei"]
        assert path.read_text(encoding="utf-8").count("\n") == 3

    def test_batch_of_misses_opens_the_file_once(self, tmp_path, monkeypatch):
        opened = []

        def counting_open(*args, **kwargs):
            opened.append(args[0])
            return open(*args, **kwargs)

        path = str(tmp_path / "c.jsonl")
        backend = CacheBackend(TranslationCache(path), IdentityBackend())
        monkeypatch.setattr(translate_module, "open", counting_open, raising=False)
        texts = tuple(f"t{i}" for i in range(32))
        assert backend.translate(TranslateRequest(texts, "en", "de")).outputs() == list(texts)
        assert opened == [path]
        assert len(TranslationCache(path)) == 32

    def test_put_skips_cached_and_repeated_inputs(self, tmp_path):
        path = tmp_path / "c.jsonl"
        cache = TranslationCache(str(path))
        assert cache.put("en", "de", [("a", "A"), ("b", "B"), ("a", "A2")]) == 2
        assert cache.put("en", "de", [("b", "B2"), ("c", "C")]) == 1
        assert cache.put("en", "de", []) == 0
        assert [cache.get("en", "de", t) for t in "abc"] == ["A", "B", "C"]
        assert len(cache) == 3
        assert path.read_text(encoding="utf-8").count("\n") == 3

    def test_concurrent_puts_append_each_record_once(self, tmp_path):
        path = tmp_path / "c.jsonl"
        cache = TranslationCache(str(path))
        batches = [[(f"t{(w * 7 + i) % 60}", f"o{(w * 7 + i) % 60}") for i in range(20)]
                   for w in range(16)]
        added = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=lambda b=b: added.append(cache.put("en", "de", b)))
                       for b in batches]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=10)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        lines = path.read_text(encoding="utf-8").splitlines()
        inputs = [json.loads(line)["input"] for line in lines]
        assert sorted(inputs) == sorted({t for b in batches for t, _ in b})
        assert sum(added) == len(inputs) == len(cache) == len(TranslationCache(str(path)))

    def test_warm_cache_file_bytes(self, tmp_path):
        path = tmp_path / "c.jsonl"
        texts = ("Anna lebt", "丘吉尔 [ 出生 ]", "Zoë \"sagt\"")
        assert warm_cache([TranslateRequest(texts, "en", "de")], IdentityBackend(),
                          str(path)) == (3, 0)
        assert path.read_bytes() == (
            '{"input": "Anna lebt", "output": "Anna lebt", "src_lang": "en", "tgt_lang": "de"}\n'
            '{"input": "丘吉尔 [ 出生 ]", "output": "丘吉尔 [ 出生 ]", '
            '"src_lang": "en", "tgt_lang": "de"}\n'
            '{"input": "Zoë \\"sagt\\"", "output": "Zoë \\"sagt\\"", '
            '"src_lang": "en", "tgt_lang": "de"}\n'
        ).encode("utf-8")

    def test_torn_record_after_a_batch_loads_the_batch_and_is_cut(self, tmp_path):
        path = tmp_path / "c.jsonl"
        texts = tuple(f"t{i}" for i in range(5))
        warm_cache([TranslateRequest(texts, "en", "de")], IdentityBackend(), str(path))
        complete = path.read_bytes()
        path.write_bytes(complete + b'{"input": "t5", "output": "t5", "src_l')
        cache = TranslationCache(str(path))
        assert len(cache) == 5
        assert [cache.get("en", "de", t) for t in texts] == list(texts)
        assert cache.put("en", "de", [("t5", "five"), ("t6", "six")]) == 2
        lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
        assert "".join(lines[:5]).encode("utf-8") == complete
        assert [json.loads(line)["output"] for line in lines[5:]] == ["five", "six"]
        assert all(line.endswith("\n") for line in lines)

    def test_a_cut_at_any_byte_loses_no_complete_record_after_an_append(self, tmp_path):
        whole = tmp_path / "whole.jsonl"
        batches = [[("Anna", "Anna"), ("丘吉尔", "丘吉尔")], [("Zoë", "Zoë")]]
        cache = TranslationCache(str(whole))
        for batch in batches:
            cache.put("en", "de", batch)
        data = whole.read_bytes()
        ends = [i for i, b in enumerate(data) if b == ord("\n")]  # each record ends before one
        records = [json.loads(line) for line in data.splitlines()]
        path = tmp_path / "c.jsonl"
        for cut in range(len(data) + 1):
            path.write_bytes(data[:cut])
            cut_cache = TranslationCache(str(path))
            assert cut_cache.put("en", "de", [("new", "neu")]) == 1
            reloaded = TranslationCache(str(path))
            complete = {(r["input"], r["output"]) for r, end in zip(records, ends) if end <= cut}
            held = {(t, reloaded.get("en", "de", t)) for t in ("Anna", "丘吉尔", "Zoë", "new")}
            assert held - {(t, None) for t in ("Anna", "丘吉尔", "Zoë")} == \
                complete | {("new", "neu")}, f"cut at byte {cut}"
            assert len(reloaded) == len(complete) + 1

    def test_short_upstream_reply_fails_every_miss_and_writes_nothing(self, tmp_path):
        path = tmp_path / "c.jsonl"
        warm_cache([TranslateRequest(("one",), "en", "de")], IdentityBackend(), str(path))
        before = path.read_bytes()
        backend = CacheBackend(TranslationCache(str(path)), _DropsFirst())
        resp = backend.translate(TranslateRequest(("two", "one", "three"), "en", "de"))
        assert [i.status for i in resp.items] == [
            "BackendError: response length mismatch", "Ok",
            "BackendError: response length mismatch"]
        assert resp.items[1].output == "one"
        assert path.read_bytes() == before

    def test_short_upstream_reply_fails_sentences_without_raising(self, tmp_path):
        sentences, _ = make_entity_corpus(3, seed=4)
        path = tmp_path / "c.jsonl"
        path.write_text("", encoding="utf-8")
        backend = CacheBackend(TranslationCache(str(path)), _DropsFirst())
        projected, report = project_corpus(sentences, backend, MarkerScheme("brackets"))
        assert projected == []
        assert (report.failed, dict(report.reasons)) == (3, {"BackendError": 3})
        assert path.read_bytes() == b""

    def test_corrupt_line_before_the_last_raises_with_line_number(self, tmp_path):
        path = tmp_path / "c.jsonl"
        record = '{"src_lang": "en", "tgt_lang": "de", "input": "one", "output": "eins"}\n'
        path.write_text(record + '{"input": "thr\n' + record, encoding="utf-8")
        with pytest.raises(ValueError, match="line 2"):
            TranslationCache(str(path))

    @pytest.mark.parametrize("field, value", [("output", "5"), ("output", "null"),
                                              ("input", "5"), ("input", "null")])
    def test_non_string_field_before_the_last_line_is_corrupt(self, tmp_path, field, value):
        path = tmp_path / "c.jsonl"
        fields = {"src_lang": '"en"', "tgt_lang": '"de"', "input": '"two"', "output": '"zwei"'}
        bad = "{" + ", ".join(f'"{k}": {value if k == field else v}' for k, v in fields.items())
        record = '{"src_lang": "en", "tgt_lang": "de", "input": "one", "output": "eins"}\n'
        path.write_text(bad + "}\n" + record, encoding="utf-8")
        with pytest.raises(CorruptCacheError, match="line 1: corrupt record: input and output "
                                                     "must be strings"):
            TranslationCache(str(path))

    @pytest.mark.parametrize("output", ["5", "null"])
    def test_non_string_output_on_the_last_line_is_torn(self, tmp_path, output):
        path = tmp_path / "c.jsonl"
        record = '{"src_lang": "en", "tgt_lang": "de", "input": "one", "output": "eins"}\n'
        path.write_text(record + '{"src_lang": "en", "tgt_lang": "de", "input": "two", '
                        f'"output": {output}}}', encoding="utf-8")
        cache = TranslationCache(str(path))
        assert (cache.get("en", "de", "one"), cache.get("en", "de", "two")) == ("eins", None)
        assert cache.put("en", "de", [("two", "zwei")]) == 1
        reloaded = TranslationCache(str(path))
        assert [reloaded.get("en", "de", t) for t in ("one", "two")] == ["eins", "zwei"]
        assert path.read_text(encoding="utf-8").count("\n") == 2

    def test_warm_sends_distinct_uncached_items_once_in_batches(self, tmp_path):
        path = str(tmp_path / "c.jsonl")
        warm_cache([TranslateRequest(("t0", "t1"), "en", "de")], IdentityBackend(), path)
        backend = CountingBackend()
        texts = tuple(f"t{i % 50}" for i in range(200))
        assert warm_cache([TranslateRequest(texts, "en", "de")], backend, path) == (48, 0)
        # batches of up to 32 distinct misses, sent together; t0 and t1 are cache hits
        assert sorted(backend.requests, key=len, reverse=True) == [
            tuple(f"t{i}" for i in range(2, 34)), tuple(f"t{i}" for i in range(34, 50))]
        assert sorted(t for items in backend.requests for t in items) == \
            sorted(f"t{i}" for i in range(2, 50))

    def test_warm_skips_backend_errors(self, tmp_path):
        class FlakyBackend:
            def translate(self, request):
                from spanbridge.translate import TranslatedItem, TranslateResponse, backend_error
                items = [
                    backend_error("boom") if t == "bad" else TranslatedItem(t)
                    for t in request.items
                ]
                return TranslateResponse(tuple(items))

        path = str(tmp_path / "c.jsonl")
        reqs = [TranslateRequest(("a", "bad", "b"), "en", "de")]
        assert warm_cache(reqs, FlakyBackend(), path) == (2, 1)


class _Handler(BaseHTTPRequestHandler):
    fail_times = 0
    fail_status = 500
    calls = 0
    bad_body = None  # when set, failing calls answer 200 with this body instead of 500
    short_body = False  # when set, failing calls declare a longer body than they send
    raw_body = content_type = last_path = None  # of the last request
    redirect = None  # when set, a POST to /translate gets this status and Location `location`
    location = "/moved"

    def do_POST(self):
        cls = type(self)
        cls.calls += 1
        cls.raw_body = self.rfile.read(int(self.headers["Content-Length"]))
        cls.content_type = self.headers["Content-Type"]
        cls.last_path = self.path
        if cls.redirect is not None and self.path == "/translate":
            self.send_response(cls.redirect)
            self.send_header("Location", cls.location)
            self.send_header("Content-Length", "0")
            self.end_headers()
            return
        body = json.loads(cls.raw_body)
        if cls.calls <= cls.fail_times and cls.bad_body is None and not cls.short_body:
            self.send_response(cls.fail_status)
            self.end_headers()
            return
        out = json.dumps({"translations": [t.upper() for t in body["texts"]]}).encode()
        length = len(out)
        if cls.calls <= cls.fail_times and cls.short_body:
            length += 10
        elif cls.calls <= cls.fail_times:
            out = cls.bad_body
            length = len(out)
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(length))
        self.end_headers()
        self.wfile.write(out)  # HTTP/1.0: the connection closes after the reply

    def log_message(self, *args):
        pass


@pytest.fixture
def http_server():
    server = HTTPServer(("127.0.0.1", 0), _Handler)
    _Handler.calls = 0
    _Handler.fail_times = 0
    _Handler.fail_status = 500
    _Handler.bad_body = None
    _Handler.short_body = False
    _Handler.redirect = None
    _Handler.location = "/moved"
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield f"http://127.0.0.1:{server.server_port}"
    server.shutdown()
    server.server_close()


class TestProjectCommandOverHttp:
    """`spanbridge project` against the live local server, which upper-cases its input."""

    def _project(self, tmp_path, name, flags):
        """(exit code, --out bytes, --report bytes) of one brackets run."""
        out, report = tmp_path / f"{name}.jsonl", tmp_path / f"{name}.json"
        code = run(["project", "--in", str(tmp_path / "in.jsonl"), "--out", str(out),
                    "--report", str(report), "--scheme", "brackets"] + flags)
        return code, out.read_bytes(), report.read_bytes()

    @pytest.fixture
    def corpus(self, tmp_path, monkeypatch):
        monkeypatch.delenv("SPANBRIDGE_MT_URL", raising=False)
        sentences, _ = make_entity_corpus(20, seed=5)
        (tmp_path / "in.jsonl").write_text(emit_jsonl(sentences), encoding="utf-8")
        return sentences

    def test_mt_url_flag_and_variable_write_the_same_files(self, tmp_path, http_server,
                                                          monkeypatch, corpus):
        by_flag = self._project(tmp_path, "flag", ["--backend", "http", "--mt-url", http_server])
        monkeypatch.setenv("SPANBRIDGE_MT_URL", http_server)
        by_variable = self._project(tmp_path, "variable", ["--backend", "http"])
        assert by_flag[0] == EXIT_OK
        assert by_variable == by_flag
        projected = parse_jsonl(by_flag[1].decode("utf-8"))
        assert [(s.text, s.spans) for s in projected] == \
            [(s.text.upper(), s.spans) for s in corpus]

    def test_cache_filled_over_http_is_read_offline(self, tmp_path, http_server, corpus):
        cache = str(tmp_path / "cache.jsonl")
        online = self._project(tmp_path, "online",
                               ["--backend", "cache", "--cache", cache, "--mt-url", http_server])
        calls = _Handler.calls
        offline = self._project(tmp_path, "offline",
                                ["--backend", "cache", "--cache", cache, "--offline"])
        assert online[0] == EXIT_OK and calls > 0
        assert offline == online
        assert _Handler.calls == calls

    def test_cache_file_does_not_depend_on_jobs(self, tmp_path, http_server, monkeypatch):
        monkeypatch.delenv("SPANBRIDGE_MT_URL", raising=False)
        sentences, _ = make_entity_corpus(150, seed=5)
        (tmp_path / "in.jsonl").write_text(emit_jsonl(sentences), encoding="utf-8")
        runs = {}
        for jobs in (1, 4, 8):
            cache = tmp_path / f"cache{jobs}.jsonl"
            runs[jobs] = self._project(tmp_path, f"jobs{jobs}", [
                "--backend", "cache", "--cache", str(cache), "--mt-url", http_server,
                "--jobs", str(jobs)]) + (cache.read_bytes(),)
        assert runs[1][0] == EXIT_OK
        assert runs[4] == runs[1] and runs[8] == runs[1]
        # every item was a miss: the records hold them in first-seen order
        scheme = MarkerScheme("brackets")
        items = dict.fromkeys(t for s in sentences
                              for t in (insert_markers(s, scheme).text, *s.span_texts()))
        assert _inputs(tmp_path / "cache1.jsonl") == list(items)

    def test_a_client_error_fails_every_sentence_after_one_post_per_batch(
            self, tmp_path, http_server, corpus):
        _Handler.fail_times, _Handler.fail_status = 10 ** 6, 404
        code, _, report = self._project(tmp_path, "404",
                                        ["--backend", "http", "--mt-url", http_server])
        assert code == EXIT_PARTIAL
        assert json.loads(report) == {"total": 20, "projected": 0, "filtered": 0, "failed": 20,
                                      "reasons": {"BackendError": 20}}
        scheme = MarkerScheme("brackets")
        items = dict.fromkeys(t for s in corpus
                              for t in (insert_markers(s, scheme).text, *s.span_texts()))
        assert _Handler.calls == -(-len(items) // BATCH_SIZE)


class TestHttp:
    def test_basic(self, http_server):
        backend = HttpBackend(http_server, timeout_ms=5000)
        resp = backend.translate(TranslateRequest(("ab", "cd"), "en", "de"))
        assert resp.outputs() == ["AB", "CD"]

    def test_retry_then_succeed(self, http_server):
        _Handler.fail_times = 2
        backend = HttpBackend(http_server, timeout_ms=5000, retries=3, backoff_ms=10)
        resp = backend.translate(TranslateRequest(("ab",), "en", "de"))
        assert resp.outputs() == ["AB"]
        assert _Handler.calls == 3

    def test_exhausted_retries_error_per_item(self, http_server):
        _Handler.fail_times = 99
        backend = HttpBackend(http_server, timeout_ms=5000, retries=2, backoff_ms=10)
        resp = backend.translate(TranslateRequest(("a", "b"), "en", "de"))
        assert len(resp.items) == 2
        assert all(not i.ok and "HTTP 500" in i.status for i in resp.items)

    @pytest.mark.parametrize("status", [400, 404, 413])
    def test_a_client_error_ends_the_attempts_without_a_wait(self, http_server, monkeypatch,
                                                             status):
        _Handler.fail_times, _Handler.fail_status = 99, status
        sleeps = []
        monkeypatch.setattr(time, "sleep", sleeps.append)
        backend = HttpBackend(http_server, timeout_ms=5000)
        resp = backend.translate(TranslateRequest(("a", "b"), "en", "de"))
        assert [i.status for i in resp.items] == [f"BackendError: HTTP {status}"] * 2
        assert (_Handler.calls, sleeps) == (1, [])

    @pytest.mark.parametrize("status", [408, 429])
    def test_a_timeout_or_rate_limit_answer_is_retried(self, http_server, monkeypatch, status):
        _Handler.fail_times, _Handler.fail_status = 99, status
        monkeypatch.setattr(time, "sleep", lambda seconds: None)
        backend = HttpBackend(http_server, timeout_ms=5000, retries=3)
        resp = backend.translate(TranslateRequest(("a",), "en", "de"))
        assert [i.status for i in resp.items] == [f"BackendError: HTTP {status}"]
        assert _Handler.calls == 3

    @pytest.mark.parametrize("retries, backoff_ms, waits", [
        (12, 500, [0.5, 1, 2, 4, 8, 16] + [30] * 5),
        (DEFAULT_RETRIES, DEFAULT_BACKOFF_MS, [0.5, 1]),  # the default schedule
        (3, 40_000, [30, 30]),
        (1030, 500, [0.5, 1, 2, 4, 8, 16] + [30] * 1023),  # past where 2 ** 1024 overflows
    ])
    def test_backoff_doubles_up_to_a_ceiling(self, http_server, monkeypatch, retries,
                                             backoff_ms, waits):
        _Handler.fail_times = retries
        _Handler.fail_status = 503
        sleeps = []
        monkeypatch.setattr(time, "sleep", sleeps.append)
        backend = HttpBackend(http_server, timeout_ms=5000, retries=retries,
                              backoff_ms=backoff_ms)
        resp = backend.translate(TranslateRequest(("a",), "en", "de"))
        assert [i.status for i in resp.items] == ["BackendError: HTTP 503"]
        assert _Handler.calls == retries
        assert sleeps == waits
        assert MAX_BACKOFF_MS == 30_000

    @pytest.mark.parametrize("body", [
        b"not json",
        b'{"result": ["A", "B"]}',
        b'{"translations": [1, 2]}',
        b'{"translations": "AB"}',
        b'["A", "B"]',
        pytest.param(b"[" * 100_000 + b"]" * 100_000, id="nested-too-deep"),
        b'{"translations": ["A"]}',
    ])
    def test_malformed_2xx_retried_then_error_per_item(self, http_server, body):
        _Handler.fail_times = 99
        _Handler.bad_body = body
        backend = HttpBackend(http_server, timeout_ms=5000, retries=2, backoff_ms=10)
        resp = backend.translate(TranslateRequest(("a", "b"), "en", "de"))
        assert _Handler.calls == 2
        assert len(resp.items) == 2
        problem = ("response length mismatch" if body == b'{"translations": ["A"]}'
                   else "malformed response body")
        assert all(not i.ok and problem in i.status for i in resp.items)

    def test_malformed_2xx_then_succeed(self, http_server):
        _Handler.fail_times = 1
        _Handler.bad_body = b"not json"
        backend = HttpBackend(http_server, timeout_ms=5000, retries=3, backoff_ms=10)
        resp = backend.translate(TranslateRequest(("ab",), "en", "de"))
        assert resp.outputs() == ["AB"]
        assert _Handler.calls == 2


    def test_request_bytes(self, http_server):
        backend = HttpBackend(http_server, timeout_ms=5000)
        items = ("café «x»", 'say "hi"', "<a> tab\there \\ </a>", "丘吉尔")
        assert backend.translate(TranslateRequest(items, "en", "de")).outputs() == \
            [t.upper() for t in items]
        assert _Handler.content_type == "application/json"
        assert _Handler.raw_body == (
            b'{"texts": ["caf\\u00e9 \\u00abx\\u00bb", "say \\"hi\\"", '
            b'"<a> tab\\there \\\\ </a>", "\\u4e18\\u5409\\u5c14"], '
            b'"src_lang": "en", "tgt_lang": "de"}')
        assert _Handler.raw_body == json.dumps(
            {"texts": list(items), "src_lang": "en", "tgt_lang": "de"}).encode()

    def test_connection_refused_fails_every_item_after_all_attempts(self, monkeypatch):
        import urllib.request

        with socket.socket() as sock:
            sock.bind(("127.0.0.1", 0))
            port = sock.getsockname()[1]
        attempts = []
        open_url = urllib.request.OpenerDirector.open

        def counting_open(opener, request, *args, **kwargs):
            attempts.append(request.full_url)
            return open_url(opener, request, *args, **kwargs)

        monkeypatch.setattr(urllib.request.OpenerDirector, "open", counting_open)
        backend = HttpBackend(f"http://127.0.0.1:{port}", timeout_ms=5000,
                              retries=3, backoff_ms=1)
        resp = backend.translate(TranslateRequest(("a", "b"), "en", "de"))
        assert attempts == [f"http://127.0.0.1:{port}/translate"] * 3
        assert len(resp.items) == 2
        assert all(i.status.startswith("BackendError: ") and "refused" in i.status
                   for i in resp.items)

    def test_truncated_body_retried(self, http_server):
        _Handler.fail_times = 1
        _Handler.short_body = True
        backend = HttpBackend(http_server, timeout_ms=5000, retries=2, backoff_ms=10)
        resp = backend.translate(TranslateRequest(("ab",), "en", "de"))
        assert resp.outputs() == ["AB"]
        assert _Handler.calls == 2

    def test_needs_no_third_party_client(self, http_server, monkeypatch):
        monkeypatch.setitem(sys.modules, "requests", None)
        backend = HttpBackend(http_server, timeout_ms=5000)
        assert backend.translate(TranslateRequest(("ab",), "en", "de")).outputs() == ["AB"]

    @pytest.mark.parametrize("code", [307, 308])
    def test_redirect_keeping_the_method_reposts_the_body(self, http_server, code):
        _Handler.redirect = code
        backend = HttpBackend(http_server, timeout_ms=5000)
        items = ("ab", "café")
        assert backend.translate(TranslateRequest(items, "en", "de")).outputs() == ["AB", "CAFÉ"]
        assert (_Handler.calls, _Handler.last_path) == (2, "/moved")
        assert _Handler.content_type == "application/json"
        assert _Handler.raw_body == json.dumps(
            {"texts": list(items), "src_lang": "en", "tgt_lang": "de"}).encode()

    def test_302_is_followed_as_a_get_and_fails(self, http_server):
        _Handler.redirect = 302
        backend = HttpBackend(http_server, timeout_ms=5000, retries=2, backoff_ms=1)
        resp = backend.translate(TranslateRequest(("a", "b"), "en", "de"))
        # the test server answers no GET; each attempt posts once to /translate only
        assert [i.status for i in resp.items] == ["BackendError: HTTP 501"] * 2
        assert (_Handler.calls, _Handler.last_path) == (2, "/translate")

    @pytest.mark.parametrize("code", [301, 302, 303, 307, 308])
    def test_redirect_to_an_unparsable_location_names_the_redirect(self, http_server,
                                                                   monkeypatch, code):
        _Handler.redirect, _Handler.location = code, "http://[::1/x"
        sleeps = []
        monkeypatch.setattr(time, "sleep", sleeps.append)
        backend = HttpBackend(http_server, timeout_ms=5000, retries=2, backoff_ms=1)
        resp = backend.translate(TranslateRequest(("a", "b"), "en", "de"))
        assert [i.status for i in resp.items] == [
            f"BackendError: <urlopen error redirect ({code}) to a bad location: "
            f"Invalid IPv6 URL>"] * 2
        # every attempt would be redirected to the same bad location
        assert (_Handler.calls, _Handler.last_path, sleeps) == (1, "/translate", [])

    def test_a_certificate_failure_is_retried(self, monkeypatch):
        import ssl
        import urllib.error
        import urllib.request

        attempts, sleeps = [], []

        def failing_open(opener, request, *args, **kwargs):
            attempts.append(request.full_url)
            raise urllib.error.URLError(ssl.SSLCertVerificationError(1, "certificate expired"))

        monkeypatch.setattr(urllib.request.OpenerDirector, "open", failing_open)
        monkeypatch.setattr(time, "sleep", sleeps.append)
        backend = HttpBackend("https://127.0.0.1:9", timeout_ms=5000, retries=3)
        resp = backend.translate(TranslateRequest(("a", "b"), "en", "de"))
        # its reason is a ValueError, as a bad redirect's is, but only the redirect ends early
        assert [i.status for i in resp.items] == [
            "BackendError: <urlopen error certificate expired>"] * 2
        assert attempts == ["https://127.0.0.1:9/translate"] * 3
        assert sleeps == [0.5, 1]

    @pytest.mark.parametrize("setting, message", [
        ({"retries": 0}, "retries must be at least 1, got 0"),
        ({"retries": -2}, "retries must be at least 1, got -2"),
        ({"timeout_ms": 0}, "timeout_ms must be positive, got 0"),
        ({"timeout_ms": -5}, "timeout_ms must be positive, got -5"),
        ({"timeout_ms": 10**15}, "timeout_ms must be at most 86400000, got 1000000000000000"),
        ({"backoff_ms": -5}, "backoff_ms must not be negative, got -5"),
    ])
    def test_settings_that_never_succeed_rejected_when_built(self, setting, message):
        with pytest.raises(ValueError, match=message):
            HttpBackend("http://127.0.0.1:9", **setting)

    def test_settings_at_the_limits_accepted(self):
        assert MAX_TIMEOUT_MS == 86_400_000
        backend = HttpBackend("http://127.0.0.1:9", timeout_ms=MAX_TIMEOUT_MS, backoff_ms=0)
        assert (backend.timeout, backend.backoff) == (86_400.0, 0.0)

    @pytest.mark.parametrize("url", ["localhost:9", "127.0.0.1:8080/mt", "ftp://host"])
    def test_url_without_http_scheme_rejected_when_built(self, url):
        with pytest.raises(ValueError, match="must start with http:// or https://"):
            HttpBackend(url)

    @pytest.mark.parametrize("url", ["http://127.0.0.1:9/ü", "http://127.0.0.1:9?q=ü"])
    def test_url_not_ascii_after_its_host_rejected_when_built(self, url):
        # http.client sends the request target as ASCII and would fail every batch
        with pytest.raises(ValueError, match="must be ASCII after its host"):
            HttpBackend(url)

    def test_idn_host_accepted(self):
        assert HttpBackend("http://bücher.example/mt/").base_url == "http://bücher.example/mt"

    @pytest.mark.parametrize("suffix", ["?", "#", "/?", "?a=b#c"])
    def test_url_with_a_query_or_fragment_rejected_when_built(self, suffix):
        # "/translate" is appended to the base URL, which would land in the query or fragment
        url = f"http://127.0.0.1:9/mt{suffix}"
        with pytest.raises(ValueError) as e:
            HttpBackend(url)
        assert str(e.value) == f"MT URL {url!r} must have no query or fragment"

    @pytest.mark.parametrize("url", ["http://[::1", "http://[::1/mt", "http://127.0.0.1:abc",
                                     "http://127.0.0.1:99999/mt", "http://h:-1"])
    def test_url_with_a_bad_host_or_port_rejected_when_built(self, url):
        # every attempt would fail alike, and an unclosed IPv6 host would raise out of
        # translate() instead of failing its items
        with pytest.raises(ValueError, match=r"^MT URL .* has a bad host or port: "):
            HttpBackend(url)

    @pytest.mark.parametrize("url", ["http://[::1]:9/mt", "http://127.0.0.1:", "https://h:443"])
    def test_url_with_a_good_or_empty_port_accepted(self, url):
        assert HttpBackend(url).base_url == url

    def test_a_trailing_slash_posts_to_translate_under_the_path(self, http_server):
        backend = HttpBackend(f"{http_server}/mt/", timeout_ms=5000)
        assert backend.translate(TranslateRequest(("ab",), "en", "de")).outputs() == ["AB"]
        assert _Handler.last_path == "/mt/translate"

    def test_import_leaves_the_http_client_unloaded(self):
        run_fresh("import spanbridge, spanbridge.cli, sys; "
                  "assert 'urllib.request' not in sys.modules; "
                  "spanbridge.translate.HttpBackend('http://127.0.0.1:9'); "
                  "assert 'urllib.request' not in sys.modules")


def run_fresh(code: str) -> str:
    """Run `code` in a fresh interpreter that imports this package; return its stdout."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(translate_module.__file__)))
    return subprocess.run([sys.executable, "-c", code], check=True, capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": src}).stdout


class TestLazyPackage:
    @pytest.mark.parametrize("statement, loaded", [
        ("import spanbridge", []),
        ("import spanbridge.translate", ["spanbridge.core", "spanbridge.translate"]),
        ("from spanbridge import corpus_bleu", ["spanbridge.core", "spanbridge.metrics"]),
        ("import spanbridge.alignproject",
         ["spanbridge.alignproject", "spanbridge.core", "spanbridge.metrics"]),
    ], ids=["package", "translate", "corpus_bleu", "alignproject"])
    def test_import_loads_only_what_it_names(self, statement, loaded):
        new = json.loads(run_fresh(
            f"import json, sys; before = set(sys.modules); {statement}; "
            f"print(json.dumps(sorted(set(sys.modules) - before)))"))
        assert [m for m in new if m.startswith("spanbridge.")] == loaded
        assert "spanbridge" in new and "concurrent.futures" not in new

    def test_every_public_name_imports_on_first_use(self):
        out = run_fresh(
            "import spanbridge\n"
            "print(dir(spanbridge) == sorted(spanbridge.__all__))\n"
            "for name in spanbridge.__all__:\n"
            "    exec(f'from spanbridge import {name}')\n"
            "star = {}\n"
            "exec('from spanbridge import *', star)\n"
            "print(sorted(set(spanbridge.__all__) - set(star)))")
        assert out.split("\n") == ["True", "[]", ""]

    def test_unknown_name_raises_attribute_error(self):
        import spanbridge

        with pytest.raises(AttributeError, match="module 'spanbridge' has no attribute 'nope'"):
            spanbridge.nope
        with pytest.raises(ImportError):
            from spanbridge import nope  # noqa: F401


class TestBatching:
    def test_order_preserved_across_batches(self):
        texts = tuple(f"t{i}" for i in range(100))
        with patch.object(translate_module, "BATCH_SIZE", 7):
            resp = translate(TranslateRequest(texts, "en", "de"), IdentityBackend(),
                             max_in_flight=4)
        assert resp.outputs() == list(texts)

    def test_empty_request(self):
        resp = translate(TranslateRequest((), "en", "de"), IdentityBackend())
        assert resp.items == ()

    @pytest.mark.parametrize("in_flight", [0, -2])
    def test_no_batch_in_flight_rejected(self, in_flight):
        backend = CountingBackend()
        with pytest.raises(ValueError) as e:
            translate(TranslateRequest(("a",), "en", "de"), backend, max_in_flight=in_flight)
        assert str(e.value) == f"max_in_flight must be at least 1, got {in_flight}"
        assert backend.requests == []

    def test_list_and_tuple_items_accepted(self):
        for items in (["a", "b"], ("a", "b")):
            assert TranslateRequest(items, "en", "de").items == ("a", "b")

    @given(st.lists(st.integers(0, 80), max_size=200), st.integers(1, 9), st.integers(1, 40),
           st.sampled_from(["plain", "cached", "chained"]))
    @settings(max_examples=100, deadline=None)
    def test_batches_are_the_misses_cut_every_batch_size(self, numbers, in_flight, batch_size,
                                                         kind):
        texts = tuple(f"t{x}" for x in numbers)
        cached = [f"t{x}" for x in dict.fromkeys(numbers) if x % 2 == 0]
        upstream = CountingBackend()
        with tempfile.TemporaryDirectory() as tmp:
            backend = upstream
            for depth in range(("plain", "cached", "chained").index(kind)):
                # each cache of a chain holds the same even-numbered items
                cache = TranslationCache(os.path.join(tmp, f"c{depth}.jsonl"))
                cache.put("en", "de", [(t, t) for t in cached])
                backend = CacheBackend(cache, backend)
            with patch.object(translate_module, "BATCH_SIZE", batch_size):
                resp = translate(TranslateRequest(texts, "en", "de"), backend,
                                 max_in_flight=in_flight)
        assert resp.outputs() == list(texts)
        misses = [t for t in dict.fromkeys(texts) if kind == "plain" or t not in cached]
        batches = [tuple(misses[i:i + batch_size]) for i in range(0, len(misses), batch_size)]
        # batches in flight together may reach the upstream in any order; a chain sends in order
        assert sorted(upstream.requests) == sorted(batches)
        if in_flight == 1 or kind == "chained":
            assert upstream.requests == batches


class CountingBackend:
    """Identity backend recording every request it is sent."""

    def __init__(self):
        self.requests = []

    def translate(self, request):
        self.requests.append(request.items)
        return IdentityBackend().translate(request)


class TestDeduplication:
    def test_each_distinct_item_sent_once_in_first_seen_order(self):
        texts = tuple(f"t{i % 40}" for i in range(100))
        backend = CountingBackend()
        resp = translate(TranslateRequest(texts, "en", "de"), backend)
        sent = [t for items in backend.requests for t in items]
        assert sent == [f"t{i}" for i in range(40)]
        assert [len(items) for items in backend.requests] == [32, 8]
        assert resp.outputs() == list(texts)

    def test_results_follow_the_item_across_batches(self):
        class Tagging:
            def translate(self, request):
                return TranslateResponse(tuple(
                    TranslatedItem(f"{t}@{len(request.items)}") if t != "bad"
                    else backend_error("boom") for t in request.items))

        # "a" is in the first batch, "c" and "bad" in the second
        texts = ("a", "b", "c", "a", "bad", "c", "a")
        with patch.object(translate_module, "BATCH_SIZE", 2):
            resp = translate(TranslateRequest(texts, "en", "de"), Tagging())
        assert resp.outputs() == ["a@2", "b@2", "c@2", "a@2", "", "c@2", "a@2"]
        assert [i.ok for i in resp.items] == [True, True, True, True, False, True, True]


class _Faulty:
    """Identity backend that breaks the batch contract on the batches `kinds`
    names ("ok" or a fault, per call in call order, cycled) and records the
    items of every broken batch."""

    def __init__(self, kinds):
        self.kinds = list(kinds)
        self.calls = 0
        self.faulted = set()
        self._lock = threading.Lock()

    def translate(self, request):
        with self._lock:
            kind = self.kinds[self.calls % len(self.kinds)]
            self.calls += 1
            if kind != "ok":
                self.faulted.update(request.items)
        items = [TranslatedItem(t) for t in request.items]
        if kind == "raise":
            raise RuntimeError("backend down")
        if kind == "short":
            items = items[1:]
        elif kind == "long":
            items.append(TranslatedItem("extra"))
        elif kind == "none":
            items = [TranslatedItem(None) for _ in items]
        elif kind == "plain":
            items = [item.output for item in items]
        return TranslateResponse(tuple(items))


FAULTS = ["short", "long", "raise", "none", "plain"]
ANNA = AnnotatedSentence("Anna met Bob", (LabeledSpan(0, 0, 4, "PER"), LabeledSpan(1, 9, 12, "PER")))


class TestBatchContract:
    @pytest.mark.parametrize("kind, status", [
        ("short", "BackendError: response length mismatch"),
        ("long", "BackendError: response length mismatch"),
        ("raise", "BackendError: RuntimeError: backend down"),
        ("none", "BackendError: malformed response item"),
        ("plain", "BackendError: malformed response item"),
    ])
    def test_broken_reply_fails_its_items_without_raising(self, kind, status):
        resp = translate(TranslateRequest(("a", "b"), "en", "de"), _Faulty([kind]))
        assert [i.status for i in resp.items] == [status] * 2
        projected, report = project_corpus([ANNA], _Faulty([kind]), MarkerScheme("brackets"))
        assert (projected, report.failed, dict(report.reasons)) == ([], 1, {"BackendError": 1})
        pair = ParallelPair(ANNA, "Anna trifft Bob")
        assert build_ft_pairs([pair], _Faulty([kind])) == []

    @pytest.mark.parametrize("kind", ["raise", "none", "long"])
    def test_broken_upstream_reply_fails_every_miss_and_writes_nothing(self, tmp_path, kind):
        path = tmp_path / "c.jsonl"
        warm_cache([TranslateRequest(("one",), "en", "de")], IdentityBackend(), str(path))
        before = path.read_bytes()
        backend = CacheBackend(TranslationCache(str(path)), _Faulty([kind]))
        resp = translate(TranslateRequest(("two", "one", "three"), "en", "de"), backend)
        assert [i.ok for i in resp.items] == [False, True, False]
        assert resp.items[1].output == "one"
        assert path.read_bytes() == before

    def test_cache_write_failure_is_not_a_per_item_error(self, tmp_path):
        cache = TranslationCache(str(tmp_path / "no-such-dir" / "c.jsonl"))
        texts = tuple(f"t{i}" for i in range(100))
        with pytest.raises(OSError, match="No such file"):
            translate(TranslateRequest(texts, "en", "de"), CacheBackend(cache, IdentityBackend()),
                      max_in_flight=3)

    def test_nested_cache_write_failure_is_not_a_per_item_error(self, tmp_path):
        # warm-cache --backend cache: the inner cache appends inside the outer one's batch call
        inner = CacheBackend(TranslationCache(str(tmp_path / "no-such-dir" / "c.jsonl")),
                             IdentityBackend())
        with pytest.raises(OSError, match="No such file"):
            warm_cache([TranslateRequest(("a", "b"), "en", "de")], inner,
                       str(tmp_path / "c.jsonl"))

    @given(st.lists(st.integers(0, 30), max_size=80).map(lambda xs: tuple(f"t{x}" for x in xs)),
           st.lists(st.sampled_from(["ok", "ok", *FAULTS]), min_size=1, max_size=6),
           st.integers(1, 8), st.sampled_from([1, 3]))
    @settings(max_examples=200, deadline=None)
    def test_length_and_order_kept_and_only_faulted_batches_fail(
            self, texts, kinds, batch_size, in_flight):
        backend = _Faulty(kinds)
        with patch.object(translate_module, "BATCH_SIZE", batch_size):
            resp = translate(TranslateRequest(texts, "en", "de"), backend,
                             max_in_flight=in_flight)
        assert len(resp.items) == len(texts)
        for text, item in zip(texts, resp.items):
            if text in backend.faulted:
                assert not item.ok and item.status.startswith("BackendError: ")
            else:
                assert (item.output, item.ok) == (text, True)

    @given(st.integers(0, 10**6), st.lists(st.sampled_from(["ok", "ok", *FAULTS]), min_size=1,
                                           max_size=6), st.sampled_from([1, 3]))
    @settings(max_examples=50, deadline=None)
    def test_only_sentences_with_an_item_in_a_faulted_batch_fail(self, seed, kinds, jobs):
        sentences, _ = make_entity_corpus(40, seed=seed)
        scheme = MarkerScheme("brackets")
        backend = _Faulty(kinds)
        projected, report = project_corpus(sentences, backend, scheme, jobs=jobs)
        hit = [any(t in backend.faulted for t in (insert_markers(s, scheme).text, *s.span_texts()))
               for s in sentences]
        assert (report.failed, dict(report.reasons).get("BackendError", 0)) == (sum(hit), sum(hit))
        assert [p.text for p in projected] == [s.text for s, h in zip(sentences, hit) if not h]


class _ReverseCompletion:
    """Identity backend whose first `n` calls return in reverse order: each
    waits until the call after it is about to return, for at most 10 s, so
    that fewer than `n` calls in flight cannot deadlock."""

    def __init__(self, n):
        self.returning = [threading.Event() for _ in range(n)]
        self.calls = 0
        self.waits = []  # whether each waiting call saw the next one return first
        self._lock = threading.Lock()

    def translate(self, request):
        with self._lock:
            k = self.calls
            self.calls += 1
        if k + 1 < len(self.returning):
            self.waits.append(self.returning[k + 1].wait(10))
        if k < len(self.returning):
            self.returning[k].set()
        return IdentityBackend().translate(request)


def _inputs(path) -> list[str]:
    """The inputs of a cache file's records, in file order."""
    return [json.loads(line)["input"] for line in path.read_text(encoding="utf-8").splitlines()]


class TestCacheBeforeBatching:
    """translate() looks the cache up before batching, sends only misses and
    appends each batch's answers in batch order."""

    def test_replies_in_reverse_are_recorded_in_batch_order(self, tmp_path):
        path = tmp_path / "c.jsonl"
        texts = tuple(f"t{i}" for i in range(128))  # four batches, all in flight
        upstream = _ReverseCompletion(4)
        resp = translate(TranslateRequest(texts, "en", "de"),
                         CacheBackend(TranslationCache(str(path)), upstream), max_in_flight=4)
        assert upstream.waits == [True] * 3
        assert resp.outputs() == list(texts)
        assert _inputs(path) == list(texts)

    def test_a_cache_chain_records_the_inner_cache_in_batch_order(self, tmp_path):
        class SlowerEarlier:
            def translate(self, request):
                k = int(request.items[0][1:]) // 32  # batch k starts with t(32k)
                threading.Event().wait(0.05 * (4 - k))  # in flight together, batch 0 ends last
                return IdentityBackend().translate(request)

        inner, outer = tmp_path / "inner.jsonl", tmp_path / "outer.jsonl"
        texts = tuple(f"t{i}" for i in range(128))  # four batches
        backend = CacheBackend(TranslationCache(str(inner)), SlowerEarlier())
        assert warm_cache([TranslateRequest(texts, "en", "de")], backend, str(outer)) == (128, 0)
        assert _inputs(outer) == list(texts)
        assert inner.read_bytes() == outer.read_bytes()

    def test_misses_fill_whole_batches(self, tmp_path):
        path = tmp_path / "c.jsonl"
        texts = tuple(f"t{i}" for i in range(200))
        TranslationCache(str(path)).put("en", "de", [(t, t) for t in texts[::2]])
        upstream = CountingBackend()
        resp = translate(TranslateRequest(texts, "en", "de"),
                         CacheBackend(TranslationCache(str(path)), upstream), max_in_flight=3)
        assert resp.outputs() == list(texts)
        assert sorted(map(len, upstream.requests), reverse=True) == [32, 32, 32, 4]
        assert sorted(upstream.requests) == sorted(
            texts[1::2][i:i + 32] for i in range(0, 100, 32))
        assert _inputs(path) == list(texts[::2] + texts[1::2])

    def test_build_ft_pairs_records_what_a_sequential_run_records(self, tmp_path):
        sentences, token_map = make_entity_corpus(60, seed=3)  # about 200 distinct mentions
        pairs = [ParallelPair(s, " ".join(token_map.get(w, w) for w in s.text.split(" ")))
                 for s in sentences]
        pooled, sequential = tmp_path / "pooled.jsonl", tmp_path / "sequential.jsonl"
        upstream = _ReverseCompletion(4)
        out = build_ft_pairs(pairs, CacheBackend(TranslationCache(str(pooled)), upstream))
        assert upstream.waits == [True] * 3
        mentions = tuple(dict.fromkeys(t for s in sentences for t in s.span_texts()))
        CacheBackend(TranslationCache(str(sequential)), IdentityBackend()).translate(
            TranslateRequest(mentions, "src", "tgt"))
        assert pooled.read_bytes() == sequential.read_bytes()
        assert out == build_ft_pairs(pairs, IdentityBackend())

    def test_a_crash_keeps_the_batches_recorded_before_it(self, tmp_path):
        class CrashesThird:
            calls = 0

            def translate(self, request):
                self.calls += 1
                if self.calls == 3:
                    raise KeyboardInterrupt
                return IdentityBackend().translate(request)

        path = tmp_path / "c.jsonl"
        texts = tuple(f"t{i}" for i in range(128))
        with pytest.raises(KeyboardInterrupt):
            translate(TranslateRequest(texts, "en", "de"),
                      CacheBackend(TranslationCache(str(path)), CrashesThird()), max_in_flight=1)
        assert _inputs(path) == list(texts[:64])

    def test_a_cache_write_failure_cancels_the_batches_not_yet_sent(self, tmp_path):
        class Slow(CountingBackend):
            def translate(self, request):
                threading.Event().wait(0.2)  # the next batches are queued meanwhile
                return super().translate(request)

        upstream = Slow()
        cache = TranslationCache(str(tmp_path / "no-such-dir" / "c.jsonl"))
        texts = tuple(f"t{i}" for i in range(320))  # ten batches, two in flight
        with pytest.raises(OSError, match="No such file"):
            translate(TranslateRequest(texts, "en", "de"), CacheBackend(cache, upstream),
                      max_in_flight=2)
        # the first reply's append fails; at most the two batches sent meanwhile follow it
        assert len(upstream.requests) <= 4

    @given(st.integers(0, 10**6), st.lists(st.sampled_from(["ok", "ok", *FAULTS]), min_size=1,
                                           max_size=6), st.sampled_from([1, 3]))
    @settings(max_examples=50, deadline=None)
    def test_only_sentences_with_a_miss_in_a_faulted_batch_fail(self, seed, kinds, jobs):
        sentences, _ = make_entity_corpus(40, seed=seed)
        scheme = MarkerScheme("brackets")
        items_of = [(insert_markers(s, scheme).text, *s.span_texts()) for s in sentences]
        items = list(dict.fromkeys(t for group in items_of for t in group))
        upstream = _Faulty(kinds)
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "c.jsonl")
            TranslationCache(path).put("src", "tgt", [(t, t) for t in items[::2]])
            projected, report = project_corpus(
                sentences, CacheBackend(TranslationCache(path), upstream), scheme, jobs=jobs)
            with open(path, encoding="utf-8") as f:
                recorded = [json.loads(line)["input"] for line in f]
        misses = items[1::2]
        assert upstream.faulted <= set(misses)
        hit = [any(t in upstream.faulted for t in group) for group in items_of]
        assert (report.failed, dict(report.reasons).get("BackendError", 0)) == (sum(hit), sum(hit))
        assert [p.text for p in projected] == [s.text for s, h in zip(sentences, hit) if not h]
        assert recorded == items[::2] + [t for t in misses if t not in upstream.faulted]


class TestKilledWarmCache:
    """`spanbridge warm-cache` in a child process, killed with SIGKILL while the
    stub stalls on batch k: the cache keeps the k batches stored before it."""

    N_BATCHES = 5

    @pytest.fixture
    def stub(self):
        """A local MT stub that echoes each batch of "t{i}" texts whose items all lie
        below `answered` and holds any other batch open until the test ends."""
        release = threading.Event()

        class Stub(BaseHTTPRequestHandler):
            answered = 0
            stalled = 0
            received: list[str] = []

            def do_POST(self):
                texts = json.loads(self.rfile.read(int(self.headers["Content-Length"])))["texts"]
                if any(int(t[1:]) >= Stub.answered for t in texts):
                    Stub.stalled += 1
                    release.wait(60)
                    return  # closed without a reply
                Stub.received += texts
                out = json.dumps({"translations": texts}).encode()
                self.send_response(200)
                self.send_header("Content-Length", str(len(out)))
                self.end_headers()
                self.wfile.write(out)

            def log_message(self, *args):
                pass

        server = ThreadingHTTPServer(("127.0.0.1", 0), Stub)
        server.daemon_threads = True
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        Stub.url = f"http://127.0.0.1:{server.server_port}"
        yield Stub
        release.set()
        server.shutdown()
        server.server_close()

    def _warm(self, tmp_path, url, cache):
        return ["warm-cache", "--in", str(tmp_path / "in.txt"), "--backend", "http",
                "--mt-url", url, "--cache-out", str(cache), "--timeout-ms", "60000"]

    @pytest.mark.parametrize("k", [0, 1, 3])
    def test_a_killed_run_keeps_its_first_batches_and_a_rerun_completes_them(
            self, tmp_path, stub, monkeypatch, capsys, k):
        monkeypatch.delenv("SPANBRIDGE_MT_URL", raising=False)
        texts = [f"t{i}" for i in range(self.N_BATCHES * BATCH_SIZE)]
        (tmp_path / "in.txt").write_text("".join(f"{t}\n" for t in texts), encoding="utf-8")
        cache = tmp_path / "killed.jsonl"
        stub.answered = k * BATCH_SIZE
        src = os.path.dirname(os.path.dirname(os.path.abspath(translate_module.__file__)))
        child = subprocess.Popen(
            [sys.executable, "-m", "spanbridge", *self._warm(tmp_path, stub.url, cache)],
            env={**os.environ, "PYTHONPATH": src}, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        try:
            # stalled on batch k with batches 0..k-1 appended: nothing more can be written
            deadline = time.monotonic() + 30
            while not (stub.stalled and k * BATCH_SIZE == (
                    cache.read_bytes().count(b"\n") if cache.exists() else 0)):
                assert child.poll() is None, child.communicate()
                assert time.monotonic() < deadline, "the child never reached the stall"
                time.sleep(0.01)
        finally:
            child.kill()
            child.communicate()
        assert child.returncode == -signal.SIGKILL

        assert len(TranslationCache(str(cache))) == k * BATCH_SIZE
        if k:
            assert _inputs(cache) == texts[:k * BATCH_SIZE]
        # a rerun sends only the rest and writes what an uninterrupted run writes
        stub.answered, stub.received = len(texts), []
        assert run(self._warm(tmp_path, stub.url, cache)) == EXIT_OK
        assert json.loads(capsys.readouterr().out) == {
            "new_entries": len(texts) - k * BATCH_SIZE, "errors": 0}
        assert sorted(stub.received, key=lambda t: int(t[1:])) == texts[k * BATCH_SIZE:]
        whole = tmp_path / "whole.jsonl"
        assert run(self._warm(tmp_path, stub.url, whole)) == EXIT_OK
        assert cache.read_bytes() == whole.read_bytes()
