import json
import re
import threading
from collections import Counter
from http.server import BaseHTTPRequestHandler, HTTPServer

import pytest
from hypothesis import given, settings, strategies as st

from spanbridge.core import AnnotatedSentence, LabeledSpan
from spanbridge.markers import VALID, MarkerScheme, extract_markers, insert_markers
from spanbridge.translate import (
    CacheBackend,
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
        assert cache.put("en", "de", "three", "drei")
        reloaded = TranslationCache(str(path))
        assert [reloaded.get("en", "de", t) for t in ("one", "two", "three")] == \
            ["one", "two", "drei"]
        assert path.read_text(encoding="utf-8").count("\n") == 3

    def test_corrupt_line_before_the_last_raises_with_line_number(self, tmp_path):
        path = tmp_path / "c.jsonl"
        record = '{"src_lang": "en", "tgt_lang": "de", "input": "one", "output": "eins"}\n'
        path.write_text(record + '{"input": "thr\n' + record, encoding="utf-8")
        with pytest.raises(ValueError, match="line 2"):
            TranslationCache(str(path))

    def test_warm_sends_distinct_uncached_items_once_in_batches(self, tmp_path):
        path = str(tmp_path / "c.jsonl")
        warm_cache([TranslateRequest(("t0", "t1"), "en", "de")], IdentityBackend(), path)
        backend = CountingBackend()
        texts = tuple(f"t{i % 50}" for i in range(200))
        assert warm_cache([TranslateRequest(texts, "en", "de")], backend, path) == (48, 0)
        # batches of 32 distinct items; t0 and t1 are answered from the cache
        assert [len(items) for items in backend.requests] == [30, 18]
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
    calls = 0
    bad_body = None  # when set, failing calls answer 200 with this body instead of 500

    def do_POST(self):
        cls = type(self)
        cls.calls += 1
        body = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
        if cls.calls <= cls.fail_times and cls.bad_body is None:
            self.send_response(500)
            self.end_headers()
            return
        out = json.dumps({"translations": [t.upper() for t in body["texts"]]}).encode()
        if cls.calls <= cls.fail_times:
            out = cls.bad_body
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(out)))
        self.end_headers()
        self.wfile.write(out)

    def log_message(self, *args):
        pass


@pytest.fixture
def http_server():
    server = HTTPServer(("127.0.0.1", 0), _Handler)
    _Handler.calls = 0
    _Handler.fail_times = 0
    _Handler.bad_body = None
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield f"http://127.0.0.1:{server.server_port}"
    server.shutdown()
    server.server_close()


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

    @pytest.mark.parametrize("body", [
        b"not json",
        b'{"result": ["A", "B"]}',
        b'{"translations": [1, 2]}',
        b'{"translations": "AB"}',
        b'["A", "B"]',
    ])
    def test_malformed_2xx_retried_then_error_per_item(self, http_server, body):
        _Handler.fail_times = 99
        _Handler.bad_body = body
        backend = HttpBackend(http_server, timeout_ms=5000, retries=2, backoff_ms=10)
        resp = backend.translate(TranslateRequest(("a", "b"), "en", "de"))
        assert _Handler.calls == 2
        assert len(resp.items) == 2
        assert all(not i.ok and "malformed response body" in i.status for i in resp.items)

    def test_malformed_2xx_then_succeed(self, http_server):
        _Handler.fail_times = 1
        _Handler.bad_body = b"not json"
        backend = HttpBackend(http_server, timeout_ms=5000, retries=3, backoff_ms=10)
        resp = backend.translate(TranslateRequest(("ab",), "en", "de"))
        assert resp.outputs() == ["AB"]
        assert _Handler.calls == 2


class TestBatching:
    def test_order_preserved_across_batches(self):
        texts = tuple(f"t{i}" for i in range(100))
        resp = translate(TranslateRequest(texts, "en", "de"), IdentityBackend(),
                         batch_size=7, max_in_flight=4)
        assert resp.outputs() == list(texts)

    def test_empty_request(self):
        resp = translate(TranslateRequest((), "en", "de"), IdentityBackend())
        assert resp.items == ()


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
        resp = translate(TranslateRequest(texts, "en", "de"), backend, batch_size=32)
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
        resp = translate(TranslateRequest(texts, "en", "de"), Tagging(), batch_size=2)
        assert resp.outputs() == ["a@2", "b@2", "c@2", "a@2", "", "c@2", "a@2"]
        assert [i.ok for i in resp.items] == [True, True, True, True, False, True, True]
