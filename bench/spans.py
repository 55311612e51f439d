"""Span recording for the traced benchmark pass.

Spans are recorded from the benchmark's own code: `instrument()` replaces
each layer's public entry point at the name its caller looks it up by,
wraps it in a span (plus counters measured at that boundary) and restores
the original on exit. Untraced passes run with nothing replaced.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import json
import threading
import time

from spanbridge import alignproject, core, easyproject, ftdata, markers
from spanbridge import translate as tr

ROOT = "pass"


class SpanRecorder:
    """Keeps spans in memory: [id, name, start, end, parent, sentence].

    The parent is the innermost open span of the same thread. A worker
    thread with nothing open takes the innermost open fan-out span (the
    call that started the pool) as its parent.
    """

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, float] = {}
        self._ids = itertools.count()
        self._local = threading.local()
        self._fanout: list[int] = []
        self._lock = threading.Lock()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def count(self, name: str, n: float = 1):
        with self._lock:
            self.counts[name] = self.counts.get(name, 0) + n

    @contextlib.contextmanager
    def span(self, name: str, sentence: int | None = None, fanout: bool = False):
        stack = self._stack()
        if stack:
            parent, inherited = stack[-1][0], stack[-1][5]
        else:
            parent, inherited = (self._fanout[-1] if self._fanout else None), None
        rec = [next(self._ids), name, time.perf_counter(), None, parent,
               inherited if sentence is None else sentence]
        self.spans.append(rec)
        stack.append(rec)
        if fanout:
            self._fanout.append(rec[0])
        try:
            yield rec
        finally:
            rec[3] = time.perf_counter()
            stack.pop()
            if fanout:
                self._fanout.pop()

    def write(self, path: str):
        with open(path, "w", encoding="utf-8") as f:
            for sid, name, start, end, parent, sentence in self.spans:
                f.write(json.dumps({"id": sid, "name": name, "start": start, "end": end,
                                    "parent": parent, "sentence": sentence}) + "\n")

    def self_times(self) -> dict[str, float]:
        """Summed self time per span name: duration minus the union of the
        intervals its children cover (children may overlap across threads)."""
        children: dict[int, list[tuple[float, float]]] = {}
        for _, _, start, end, parent, _ in self.spans:
            if parent is not None:
                children.setdefault(parent, []).append((start, end))
        out: dict[str, float] = {}
        for sid, name, start, end, _, _ in self.spans:
            covered = 0.0
            cursor = start
            for c_start, c_end in sorted(children.get(sid, ())):
                c_start, c_end = max(c_start, cursor), min(c_end, end)
                if c_end > c_start:
                    covered += c_end - c_start
                    cursor = c_end
            out[name] = out.get(name, 0.0) + (end - start) - covered
        return out

def _wrap(rec: SpanRecorder, name: str, fn, after=None, fanout: bool = False):
    """fn inside a span; after(args, kwargs, result) records counters."""
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with rec.span(name, fanout=fanout):
            result = fn(*args, **kwargs)
        if after is not None:
            after(args, kwargs, result)
        return result
    return wrapper


@contextlib.contextmanager
def trace_backend(rec: SpanRecorder, backend, name: str, prefix: str):
    """Wrap one backend instance's translate, counting requests, items and
    items already sent earlier in the pass."""
    inner = backend.translate
    seen: set[str] = set()
    lock = threading.Lock()

    def translate(request):
        with lock:
            repeats = sum(1 for t in request.items if t in seen)
            seen.update(request.items)
        rec.count(prefix + "requests")
        rec.count(prefix + "items", len(request.items))
        rec.count(prefix + "repeats", repeats)
        with rec.span(name):
            return inner(request)

    backend.translate = translate
    try:
        yield
    finally:
        del backend.translate


@contextlib.contextmanager
def instrument(rec: SpanRecorder):
    """Replace the layer entry points with span-recording wrappers."""
    index_of: dict[int, int] = {}

    def on_project_sentence(fn):
        @functools.wraps(fn)
        def wrapper(sentence, *args, **kwargs):
            with rec.span("easyproject.project_sentence", sentence=index_of.get(id(sentence))):
                return fn(sentence, *args, **kwargs)
        return wrapper

    def on_project_corpus(fn):
        @functools.wraps(fn)
        def wrapper(sentences, *args, **kwargs):
            index_of.clear()
            index_of.update((id(s), i) for i, s in enumerate(sentences))
            with rec.span("easyproject.project_corpus", fanout=True):
                return fn(sentences, *args, **kwargs)
        return wrapper

    def on_insert(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec.count("markers.insert_calls")
            try:
                with rec.span("markers.insert"):
                    return fn(*args, **kwargs)
            except markers.PreexistingMarkerError:
                rec.count("markers.preexisting")
                raise
        return wrapper

    def after_extract(args, kwargs, result):
        rec.count("markers.extract_calls")
        rec.count("markers.valid", result.status == markers.VALID)

    def after_assign(args, kwargs, result):
        n = len(args[0])
        cfg = args[2] if len(args) > 2 else kwargs["cfg"]
        rec.count("easyproject.assign_calls")
        rec.count("easyproject.pairs_scored", n * n if cfg.mode == easyproject.MATCH_FUZZY else 0)
        rec.count("easyproject.low_confidence", result is None or result.low_confidence)

    def after_translate_call(args, kwargs, result):
        rec.count("translate.calls")

    def after_build_ft(args, kwargs, result):
        rec.count("ftdata.mentions", sum(len(p.src.spans) for p in args[0]))
        rec.count("ftdata.pairs_out", len(result))

    def after_match(args, kwargs, result):
        rec.count("ftdata.matched", result is not None)

    def after_align(args, kwargs, result):
        rec.count("alignproject.filtered", result[1].filtered)

    def on_cache(fn):
        @functools.wraps(fn)
        def wrapper(path):
            with rec.span("translate.cache_load"):
                cache = fn(path)
            get, put = cache.get, cache.put

            def traced_get(*args):
                with rec.span("translate.cache_get"):
                    hit = get(*args)
                rec.count("translate.cache_hits" if hit is not None else "translate.cache_misses")
                return hit

            def traced_put(*args):
                with rec.span("translate.cache_put"):
                    added = put(*args)
                rec.count("translate.cache_appends", added)
                return added

            cache.get, cache.put = traced_get, traced_put
            return cache
        return wrapper

    targets = [
        (core, "parse_jsonl", lambda fn: _wrap(rec, "core.parse", fn)),
        (core, "emit_jsonl", lambda fn: _wrap(rec, "core.emit", fn)),
        (easyproject, "project_corpus", on_project_corpus),
        (easyproject, "project_sentence", on_project_sentence),
        (easyproject, "insert_markers", on_insert),
        (easyproject, "extract_markers",
         lambda fn: _wrap(rec, "markers.extract", fn, after_extract)),
        (easyproject, "assign_labels_fuzzy",
         lambda fn: _wrap(rec, "easyproject.assign", fn, after_assign)),
        (easyproject, "translate",
         lambda fn: _wrap(rec, "translate.call", fn, after_translate_call)),
        (tr, "TranslationCache", on_cache),
        (alignproject, "parse_pharaoh", lambda fn: _wrap(rec, "alignproject.parse", fn)),
        (alignproject, "AlignedPair", lambda fn: _wrap(rec, "alignproject.parse", fn)),
        (alignproject, "project_corpus_aligned",
         lambda fn: _wrap(rec, "alignproject.project", fn, after_align)),
        (ftdata, "build_ft_pairs", lambda fn: _wrap(rec, "ftdata.build", fn, after_build_ft, True)),
        (ftdata, "match_entity_in_target", lambda fn: _counted(fn, after_match)),
    ]
    originals = [(module, attr, getattr(module, attr)) for module, attr, _ in targets]
    try:
        for module, attr, make in targets:
            setattr(module, attr, make(getattr(module, attr)))
        yield
    finally:
        for module, attr, fn in originals:
            setattr(module, attr, fn)


def _counted(fn, after):
    """Counters only: a span per target-side string match would cost more
    than the match itself."""
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        result = fn(*args, **kwargs)
        after(args, kwargs, result)
        return result
    return wrapper


def layer_metrics(rec: SpanRecorder, wall_s: float) -> dict[str, float]:
    """Per-layer metrics of one traced pass, from its spans and counters."""
    c = rec.counts.get
    self_s = rec.self_times()

    def s(*names):
        return sum(self_s.get(n, 0.0) for n in names)

    def ratio(num, den):
        return num / den if den else 0.0

    requests, items = c("translate.requests", 0), c("translate.items", 0)
    extracts, assigns = c("markers.extract_calls", 0), c("easyproject.assign_calls", 0)
    layers = {
        "core": s("core.parse", "core.emit"),
        "markers": s("markers.insert", "markers.extract"),
        "translate": s(*(n for n in self_s if n.startswith("translate."))),
        "easyproject": s("easyproject.project_corpus", "easyproject.project_sentence",
                         "easyproject.assign"),
        "alignproject": s("alignproject.parse", "alignproject.project"),
        "ftdata": s("ftdata.build"),
    }
    return {
        "core.parse_s": s("core.parse"),
        "core.emit_s": s("core.emit"),
        "markers.insert_calls": c("markers.insert_calls", 0),
        "markers.insert_s": s("markers.insert"),
        "markers.extract_calls": extracts,
        "markers.extract_s": s("markers.extract"),
        "markers.valid_ratio": ratio(c("markers.valid", 0), extracts),
        "markers.preexisting": c("markers.preexisting", 0),
        "translate.calls": c("translate.calls", 0),
        "translate.requests": requests,
        "translate.items": items,
        "translate.items_per_request": ratio(items, requests),
        "translate.duplicate_item_ratio": ratio(c("translate.repeats", 0), items),
        "translate.busy_s": sum(end - start for _, name, start, end, _, _ in rec.spans
                                if name == "translate.request"),
        "translate.self_s": layers["translate"],
        "translate.cache_load_s": s("translate.cache_load"),
        "translate.cache_hits": c("translate.cache_hits", 0),
        "translate.cache_misses": c("translate.cache_misses", 0),
        "translate.cache_appends": c("translate.cache_appends", 0),
        "translate.upstream_items": c("translate.upstream_items", 0),
        "translate.upstream_duplicate_items": c("translate.upstream_repeats", 0),
        "easyproject.assign_calls": assigns,
        "easyproject.assign_s": s("easyproject.assign"),
        "easyproject.pairs_scored": c("easyproject.pairs_scored", 0),
        "easyproject.confident_ratio": ratio(assigns - c("easyproject.low_confidence", 0), assigns),
        "easyproject.low_confidence": c("easyproject.low_confidence", 0),
        "easyproject.self_s": s("easyproject.project_corpus", "easyproject.project_sentence"),
        "alignproject.parse_s": s("alignproject.parse"),
        "alignproject.project_s": s("alignproject.project"),
        "alignproject.filtered": c("alignproject.filtered", 0),
        "ftdata.mentions": c("ftdata.mentions", 0),
        "ftdata.build_s": s("ftdata.build"),
        "ftdata.matched_ratio": ratio(c("ftdata.matched", 0), c("ftdata.mentions", 0)),
        "ftdata.pairs_out": c("ftdata.pairs_out", 0),
        "trace.wall_s": wall_s,
        "trace.spans": len(rec.spans),
        "trace.unattributed_s": s(ROOT),
        "trace.attributed_ratio": ratio(sum(layers.values()), wall_s),
    }
