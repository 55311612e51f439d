"""Pluggable translation boundary.

Backends take a batched TranslateRequest and return a TranslateResponse of
the same length and order, including on error paths; translate() checks
each batch reply, and a backend that raises or breaks that contract fails
the batch's items. The MT system itself is always external; the lexicon
backend is a deterministic test double.
"""

from __future__ import annotations

import contextlib
import functools
import json
import os
import random
import re
import threading
import time
from collections.abc import Iterable, Mapping

from .core import decode_line, encode_line, record

OK = "Ok"

REORDER_NONE = "none"
REORDER_REVERSE = "reverse"

BATCH_SIZE = 32
DEFAULT_MAX_IN_FLIGHT = 4
DEFAULT_RETRIES = 3
DEFAULT_BACKOFF_MS = 500
MAX_BACKOFF_MS = 30_000  # the longest wait between two attempts
MAX_TIMEOUT_MS = 86_400_000  # a day; a far longer timeout overflows the socket layer


@record
class TranslateRequest:
    items: tuple[str, ...]
    src_lang: str
    tgt_lang: str

    def __post_init__(self):
        if isinstance(self.items, str):
            raise ValueError("request items must be a sequence of strings, not one string")
        items = tuple(self.items)
        object.__setattr__(self, "items", items)
        if not self.src_lang or not self.tgt_lang:
            raise ValueError("src_lang and tgt_lang must be non-empty")
        for item in items:
            if not isinstance(item, str):
                raise ValueError(f"request items must be strings, got {type(item).__name__}")
            if not item:
                raise ValueError("request items must be non-empty strings")


@record
class TranslatedItem:
    output: str
    status: str = OK  # OK or an error message prefixed "BackendError"

    @property
    def ok(self) -> bool:
        return self.status == OK


@record
class TranslateResponse:
    items: tuple[TranslatedItem, ...]

    def outputs(self) -> list[str]:
        return [i.output for i in self.items]


def backend_error(message: str) -> TranslatedItem:
    return TranslatedItem("", f"BackendError: {message}")


class IdentityBackend:
    """Returns every input unchanged. The projection no-op reference."""

    def translate(self, request: TranslateRequest) -> TranslateResponse:
        return TranslateResponse(tuple([TranslatedItem(t) for t in request.items]))


# a marker pair with everything it wraps, padded or glued; split() also
# returns the xml tag name, so its parts come in threes
_PAIR_RE = re.compile(r'(\[[^\]]*\]|"[^"]*"|<([a-zA-Z]+)>.*?</\2>)')
# a word: a run of characters outside whitespace and marker tokens; the
# lookbehind keeps the names in xml tags from being read as words
_WORD_RE = re.compile(r'(?<![^\s\[\]">])[^\s\[\]"<>]+')
# \d reads only digits that int() reads too
_REORDER_RE = re.compile(rf"{REORDER_NONE}|{REORDER_REVERSE}|seed:[+-]?\d+")


@record
class LexiconBackendConfig:
    token_map: tuple[tuple[str, str], ...]
    reorder: str = REORDER_NONE  # none | reverse | seed:<int>

    def __post_init__(self):
        if not _REORDER_RE.fullmatch(self.reorder):
            raise ValueError(f"reorder must be none, reverse or seed:<int>, got {self.reorder!r}")
        token_map = self.token_map
        is_mapping = isinstance(token_map, Mapping)
        if is_mapping:
            token_map = token_map.items()
        elif isinstance(token_map, str) or not isinstance(token_map, Iterable):
            raise ValueError(f"lexicon must be a mapping or pairs of strings, "
                             f"got {type(token_map).__name__}")
        pairs = [tuple(pair) if type(pair) is list else pair for pair in token_map]
        for pair in pairs:
            if not (type(pair) is tuple and len(pair) == 2
                    and type(pair[0]) is str and type(pair[1]) is str):
                raise ValueError(f"lexicon entry {pair!r} is not a pair of strings")
            if not _WORD_RE.fullmatch(pair[0]):
                raise ValueError(f"lexicon key {pair[0]!r} must be one word, "
                                 f"without whitespace or a marker token")
        object.__setattr__(self, "token_map", tuple(sorted(pairs) if is_mapping else pairs))


class LexiconBackend:
    """Deterministic word-for-word test double.

    Maps known words (unknown words pass through) and reorders the sentence
    units. A unit is a whitespace token, or a marker pair with all it wraps,
    so markers stay wrapped around their spans. A pair glued to the text
    beside it (unpadded markers in unspaced scripts) is its own unit, so a
    space is inserted there: `[丘吉尔]出生于英格兰` comes back `出生于英格兰 [丘吉尔]`
    under reverse.
    """

    def __init__(self, config: LexiconBackendConfig):
        self.config = config
        self._map = dict(config.token_map)

    def _map_word(self, m: re.Match) -> str:
        return self._map.get(m[0], m[0])

    def _translate_one(self, text: str) -> str:
        get = self._map.get
        parts = _PAIR_RE.split(text)  # outside, pair, tag name, outside, ...
        units = [get(tok, tok) for tok in parts[0].split()]
        for i in range(1, len(parts), 3):
            units.append(_WORD_RE.sub(self._map_word, parts[i]))
            units += [get(tok, tok) for tok in parts[i + 2].split()]

        reorder = self.config.reorder
        if reorder == REORDER_REVERSE:
            units.reverse()
        elif reorder.startswith("seed:"):
            rng = random.Random(int(reorder.split(":", 1)[1]))
            rng.shuffle(units)
        return " ".join(units)

    def translate(self, request: TranslateRequest) -> TranslateResponse:
        return TranslateResponse(
            tuple([TranslatedItem(self._translate_one(t)) for t in request.items])
        )


class CorruptCacheError(ValueError):
    """A cache record before the final line does not parse."""


class CacheWriteError(OSError):
    """The cache file could not be appended to. This is a local I/O failure,
    not a fault of the MT backend, so translate() lets it through."""


class TranslationCache:
    """Append-only JSONL cache; records {"src_lang","tgt_lang","input","output"}.

    Single writer, concurrent readers. Lookups are deterministic: the first
    record for a key wins. A record is corrupt if it does not parse or its
    input or output is not a string. A corrupt final line (no newline) is
    torn: skipped and cut off before the next append; a corrupt earlier line
    raises. A good final line without a newline is kept, and the next append
    starts with one.
    """

    def __init__(self, path: str):
        self.path = path
        self._lock = threading.Lock()
        self._entries: dict[tuple[str, str, str], str] = {}
        self._torn_at: int | None = None  # byte offset of a torn final line
        self._unterminated = False  # the file ends in a good line without "\n"
        if os.path.exists(path):
            with open(path, "rb") as f:
                data = f.read()
            lines = data.split(b"\n")
            for lineno, line in enumerate(lines, 1):
                if not line.strip():
                    continue
                try:
                    rec = decode_line(line)
                    text, output = rec["input"], rec["output"]
                    # a null output would be a miss on every run, and never re-recorded
                    if type(text) is not str or type(output) is not str:
                        raise TypeError(f"input and output must be strings, got "
                                        f"{type(text).__name__} and {type(output).__name__}")
                    self._entries.setdefault((rec["src_lang"], rec["tgt_lang"], text), output)
                except (ValueError, RecursionError, KeyError, TypeError) as e:
                    if lineno < len(lines):  # not the final line, which has no newline
                        raise CorruptCacheError(
                            f"{path}: line {lineno}: corrupt record: {e}") from None
                    self._torn_at = len(data) - len(line)
            self._unterminated = self._torn_at is None and data[-1:] not in (b"", b"\n")

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, src_lang: str, tgt_lang: str, text: str) -> str | None:
        return self._entries.get((src_lang, tgt_lang, text))

    def put(self, src_lang: str, tgt_lang: str, records: list[tuple[str, str]]) -> int:
        """Store the (input, output) pairs not cached yet, appending their
        records in order with one write; returns how many were new."""
        with self._lock:
            new: dict[str, str] = {}
            for text, output in records:
                if (src_lang, tgt_lang, text) not in self._entries:
                    new.setdefault(text, output)
            if new:
                lines = "".join([
                    encode_line({"src_lang": src_lang, "tgt_lang": tgt_lang, "input": text,
                                 "output": output})
                    for text, output in new.items()])
                try:
                    with open(self.path, "a", encoding="utf-8") as f:
                        if self._torn_at is not None:
                            f.truncate(self._torn_at)
                            self._torn_at = None
                        elif self._unterminated:
                            lines = "\n" + lines
                        f.write(lines)
                        self._unterminated = False
                except OSError as e:
                    raise CacheWriteError(str(e)) from e
                self._entries.update(((src_lang, tgt_lang, t), o) for t, o in new.items())
        return len(new)


class CacheBackend:
    """Answers from a JSONL cache: translate() looks items up before batching,
    sends only the misses to the upstream and records their answers, or fails
    them with "uncached" without an upstream. A reply that breaks the batch
    contract fails that batch's misses and records none of them."""

    def __init__(self, cache: TranslationCache, upstream=None):
        self.cache = cache
        self.upstream = upstream

    def translate(self, request: TranslateRequest) -> TranslateResponse:
        return translate(request, self, max_in_flight=1)


class HttpBackend:
    """POST {base_url}/translate with {"texts","src_lang","tgt_lang"};
    expects {"translations": [...]}. Retries with exponential backoff, capped,
    except after an HTTP status below 500 other than 408 and 429.
    A 307 or 308 redirect is followed with the same POST.
    The base URL must start with http:// or https://, and at least one attempt,
    a timeout in (0, MAX_TIMEOUT_MS] and a backoff of 0 or more must be allowed."""

    def __init__(self, base_url: str, timeout_ms: int = 30_000,
                 retries: int = DEFAULT_RETRIES, backoff_ms: int = DEFAULT_BACKOFF_MS):
        if not base_url.lower().startswith(("http://", "https://")):
            raise ValueError(f"MT URL {base_url!r} must start with http:// or https://")
        if not re.sub(r"^\w+://[^/?#]*", "", base_url).isascii():  # only a host may be IDN
            raise ValueError(f"MT URL {base_url!r} must be ASCII after its host")
        if retries < 1:
            raise ValueError(f"retries must be at least 1, got {retries}")
        if timeout_ms <= 0:
            raise ValueError(f"timeout_ms must be positive, got {timeout_ms}")
        if timeout_ms > MAX_TIMEOUT_MS:
            raise ValueError(f"timeout_ms must be at most {MAX_TIMEOUT_MS}, got {timeout_ms}")
        if backoff_ms < 0:
            raise ValueError(f"backoff_ms must not be negative, got {backoff_ms}")
        self.base_url = base_url.rstrip("/")
        self.timeout = timeout_ms / 1000.0
        self.retries = retries
        self.backoff = backoff_ms / 1000.0

    @functools.cached_property
    def _opener(self):
        # imported here: urllib.request costs every command that never posts
        import urllib.request

        class RepostOnRedirect(urllib.request.HTTPRedirectHandler):
            """On a 307 or 308, which keep the method, send the same POST to
            the new location; urllib's own handler refuses to."""

            def redirect_request(self, req, fp, code, msg, headers, newurl):
                if code in (307, 308):
                    return urllib.request.Request(
                        newurl, data=req.data, headers=req.headers,
                        origin_req_host=req.origin_req_host, unverifiable=True)
                return super().redirect_request(req, fp, code, msg, headers, newurl)

            def http_error_302(self, req, fp, code, msg, headers):
                try:
                    return super().http_error_302(req, fp, code, msg, headers)
                except ValueError as e:  # a Location urllib cannot parse, as http://[::1/x
                    fp.close()
                    raise urllib.error.URLError(f"redirect ({code}) to a bad location: {e}")

            # the base class binds these to its own 302 handler; Python 3.10's has no 308
            http_error_301 = http_error_303 = http_error_307 = http_error_308 = http_error_302

        return urllib.request.build_opener(RepostOnRedirect)

    def translate(self, request: TranslateRequest) -> TranslateResponse:
        import http.client
        import urllib.error
        import urllib.request

        body = json.dumps({
            "texts": list(request.items),
            "src_lang": request.src_lang,
            "tgt_lang": request.tgt_lang,
        }).encode()
        post = urllib.request.Request(f"{self.base_url}/translate", data=body,
                                      headers={"Content-Type": "application/json"})
        last_error = "no attempts made"
        wait = min(self.backoff, MAX_BACKOFF_MS / 1000)  # doubles after each wait, up to the cap
        for attempt in range(self.retries):
            if attempt:
                time.sleep(wait)
                wait = min(2 * wait, MAX_BACKOFF_MS / 1000)
            try:
                with self._opener.open(post, timeout=self.timeout) as resp:
                    translations = json.loads(resp.read())["translations"]
            except urllib.error.HTTPError as e:
                e.close()  # it holds the response socket
                last_error = f"HTTP {e.code}"
                if e.code < 500 and e.code not in (408, 429):  # resending gets the same answer
                    break
                continue
            except (OSError, http.client.HTTPException) as e:
                last_error = str(e)
                continue
            except (ValueError, RecursionError, KeyError, TypeError):  # not JSON, too deep, no key
                translations = None
            if not isinstance(translations, list) or \
                    not all(isinstance(t, str) for t in translations):
                last_error = "malformed response body"
            elif len(translations) != len(request.items):
                last_error = "response length mismatch"
            else:
                return TranslateResponse(tuple(TranslatedItem(t) for t in translations))
        return TranslateResponse((backend_error(last_error),) * len(request.items))


def _checked_reply(backend, batch: TranslateRequest) -> tuple[TranslatedItem, ...]:
    """The backend's items for one batch, or one BackendError per item of the
    batch when the backend raises or its reply breaks the contract: the wrong
    length, an item that is not a TranslatedItem, or an output that is not a
    string. A CacheWriteError is let through."""
    n = len(batch.items)
    try:
        items = tuple(backend.translate(batch).items)
    except CacheWriteError:
        raise
    except Exception as e:  # whatever the backend does wrong fails this batch only
        return (backend_error(f"{type(e).__name__}: {e}"),) * n
    if len(items) != n:
        problem = "response length mismatch"
    elif not all(isinstance(i, TranslatedItem) and isinstance(i.output, str) for i in items):
        problem = "malformed response item"
    else:
        return items
    return (backend_error(problem),) * n


def translate(request: TranslateRequest, backend,
              max_in_flight: int = DEFAULT_MAX_IN_FLIGHT) -> TranslateResponse:
    """Translate a request in batches of BATCH_SIZE items, preserving item
    order and length. Each distinct item is sent once, in first-seen order;
    through a CacheBackend only the misses are, and each batch's answers are
    appended in batch order. A batch the backend raises on or answers against
    the contract fails its own items only; at least one must be in flight."""
    if max_in_flight < 1:
        raise ValueError(f"max_in_flight must be at least 1, got {max_in_flight}")
    src, tgt = request.src_lang, request.tgt_lang
    result_of: dict[str, TranslatedItem | None] = dict.fromkeys(request.items)
    cache = None
    if isinstance(backend, CacheBackend):
        cache, backend = backend.cache, backend.upstream
        uncached = backend_error("uncached") if backend is None else None  # None: sent upstream
        for text in result_of:
            hit = cache.get(src, tgt, text)
            result_of[text] = uncached if hit is None else TranslatedItem(hit)
    misses = tuple(text for text, item in result_of.items() if item is None)
    batches = [TranslateRequest(misses[i:i + BATCH_SIZE], src, tgt)
               for i in range(0, len(misses), BATCH_SIZE)]
    send = functools.partial(_checked_reply, backend)
    with contextlib.ExitStack() as stack:
        replies = map(send, batches)  # lazy: a batch is sent once the one before is stored
        # an inner cache appends as it is sent to: a chain sends from this thread, in batch order
        if len(batches) > 1 and max_in_flight > 1 and not isinstance(backend, CacheBackend):
            # imported here: concurrent.futures costs every process that never pools
            from concurrent.futures import ThreadPoolExecutor

            pool = stack.enter_context(ThreadPoolExecutor(max_workers=max_in_flight))
            # closed first on a raise, which cancels the batches not yet sent
            replies = stack.enter_context(contextlib.closing(pool.map(send, batches)))
        for batch, reply in zip(batches, replies):
            result_of.update(zip(batch.items, reply))
            if cache is not None:
                cache.put(src, tgt, [(t, a.output) for t, a in zip(batch.items, reply) if a.ok])
    return TranslateResponse(tuple([result_of[t] for t in request.items]))


def warm_cache(requests_list: list[TranslateRequest], backend,
               cache_path: str) -> tuple[int, int]:
    """Fill a JSONL cache from a live backend through translate(), so each
    distinct uncached item is sent once.

    Returns (new_entries, errors). Idempotent: rerunning adds zero entries.
    Items the backend fails on are skipped and counted as errors.
    """
    cache = TranslationCache(cache_path)
    before = len(cache)
    errors = sum(not item.ok for req in requests_list
                 for item in translate(req, CacheBackend(cache, backend)).items)
    return len(cache) - before, errors
