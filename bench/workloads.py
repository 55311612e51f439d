"""The four benchmark workloads.

Each workload builds its inputs from the seed, then runs passes that follow
the steps of `spanbridge project` (or `align-project` + `build-ftdata`):
read the input files, `core.parse_jsonl`, the projection call,
`core.emit_jsonl`, write the output and report files. Only that span is
timed; preparing a pass (fresh cache copy) and reading the stub counters
are not. The public functions are called directly so that backend mixes the
CLI cannot express (a cache over the lexicon backend) stay possible.
"""

from __future__ import annotations

import collections
import contextlib
import gc
import json
import os
import select
import shutil
import subprocess
import sys
import time
import urllib.request
from dataclasses import dataclass, field

from spanbridge import alignproject, core, easyproject, ftdata, markers
from spanbridge import translate as tr

import corpora
from spans import ROOT, SpanRecorder, instrument, trace_backend

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
SRC = "src"
TGT = "tgt"


@dataclass
class Pass:
    sentences: int
    wall_s: float = 0.0
    cpu_s: float = 0.0
    failed: int = 0  # sentences with status Failed
    projection_rate: float = 0.0
    outputs: dict[str, str] = field(default_factory=dict)
    bytes_in: int = 0
    bytes_out: int = 0
    layer: dict[str, float] = field(default_factory=dict)  # measured outside the program
    matches_first: bool = True  # outputs byte-identical to the first pass's
    speed: float = 1.0  # machine speed around the pass (speed.py); times are scaled by it
    error: str = ""  # what the code under test raised during the pass


def _read(path: str, p: Pass) -> str:
    with open(path, "rb") as f:
        data = f.read()
    p.bytes_in += len(data)
    return data.decode("utf-8")


def _write(path: str, text: str, p: Pass):
    data = text.encode("utf-8")
    p.bytes_out += len(data)
    with open(path, "wb") as f:
        f.write(data)


def _save(path: str, text: str):
    with open(path, "w", encoding="utf-8") as f:
        f.write(text)


def _report_text(report: easyproject.ProjectionReport) -> str:
    return json.dumps(report.to_json(), sort_keys=True) + "\n"


class Workload:
    """Inputs of one workload plus its timed pass and correctness check."""

    size: int
    warmup: int  # sentences in the untimed warm-up pass
    warm_error = ""  # what the warm-up pass raised, if anything

    def __init__(self, seed: int, work_dir: str):
        self.seed = seed
        self.dir = work_dir

    def path(self, name: str) -> str:
        return os.path.join(self.dir, name)

    def setup(self):
        """Generate inputs, write them, start services, warm up."""
        raise NotImplementedError

    def timed(self, prefix: str, p: Pass, rec: SpanRecorder | None):
        raise NotImplementedError

    def check(self, p: Pass) -> list[str]:
        raise NotImplementedError

    def before(self, prefix: str):
        """Untimed preparation of a pass."""

    def after(self, prefix: str, p: Pass):
        """Untimed collection after a pass."""

    def close(self):
        """Stop whatever setup started."""

    def notes(self, p: Pass) -> list[str]:
        """Informational lines about the outputs of a pass that passed its check."""
        return []

    def run_pass(self, prefix: str = "", rec: SpanRecorder | None = None) -> Pass:
        """One pass over the inputs written under `prefix` ("" = full, "warm-")."""
        self.before(prefix)
        gc.collect()  # every pass starts without the previous pass's garbage
        p = Pass(self.warmup if prefix else self.size)
        with contextlib.ExitStack() as stack:
            if rec is not None:
                stack.enter_context(instrument(rec))
            t0, c0 = time.perf_counter(), time.process_time()
            try:
                with rec.span(ROOT) if rec is not None else contextlib.nullcontext():
                    self.timed(prefix, p, rec)
            except Exception as e:  # a defect of the program: the pass failed
                p.error = repr(e)
            p.wall_s = time.perf_counter() - t0
            p.cpu_s = time.process_time() - c0
        self.after(prefix, p)
        return p


# ---------------------------------------------------------------------------
# mark-then-translate workloads


class NerWorkload(Workload):
    scheme: markers.MarkerScheme
    cfg = easyproject.MatcherConfig()
    jobs = 1

    def corpus(self) -> list[core.AnnotatedSentence]:
        raise NotImplementedError

    def make_backend(self, prefix: str):
        return self.backend

    def setup(self):
        sentences = self.corpus()
        _save(self.path("in.jsonl"), core.emit_jsonl(sentences))
        _save(self.path("warm-in.jsonl"), core.emit_jsonl(sentences[:self.warmup]))
        self.prepare(sentences)
        self.warm_error = self.run_pass("warm-").error

    def prepare(self, sentences):
        """Backend and services for the passes."""

    def timed(self, prefix, p, rec):
        sentences = core.parse_jsonl(_read(self.path(prefix + "in.jsonl"), p))
        backend = self.make_backend(prefix)
        with contextlib.ExitStack() as stack:
            if rec is not None:
                stack.enter_context(trace_backend(rec, backend, "translate.request", "translate."))
                if getattr(backend, "upstream", None) is not None:
                    stack.enter_context(trace_backend(
                        rec, backend.upstream, "translate.upstream", "translate.upstream_"))
            projected, report = easyproject.project_corpus(
                sentences, backend, self.scheme, self.cfg, SRC, TGT, jobs=self.jobs)
        out = core.emit_jsonl(projected)
        report_text = _report_text(report)
        _write(self.path(prefix + "out.jsonl"), out, p)
        _write(self.path(prefix + "report.json"), report_text, p)
        p.outputs = {"out": out, "report": report_text}
        p.failed = report.failed
        p.projection_rate = report.projected / report.total


class EntityWorkload(NerWorkload):
    """Entity corpus whose projected labels are known exactly."""

    def corpus(self):
        sentences, self.token_map = corpora.make_entity_corpus(self.size, self.seed)
        self.truth = corpora.entity_truth(sentences, self.token_map)
        return corpora.indexed(sentences)

    def check(self, p):
        errors = _check_report(p, self.size)
        seen = set()
        for lineno, line in enumerate(p.outputs["out"].splitlines(), 1):
            obj = json.loads(line)
            i = int(obj["meta"]["i"])
            got = {s["label"]: obj["text"][s["start"]:s["end"]] for s in obj["spans"]}
            if i in seen or got != self.truth[i]:
                errors.append(f"output line {lineno} (input {i}): labels {got} "
                              f"do not cover the known targets {self.truth[i]}")
            seen.add(i)
        if len(seen) != self.size:
            errors.append(f"{self.size - len(seen)} of {self.size} input sentences "
                          f"are missing from the output")
        return errors


def _check_report(p: Pass, total: int) -> list[str]:
    report = json.loads(p.outputs["report"])
    if report["total"] != total:
        return [f"report total {report['total']} != {total} input sentences"]
    return []


class LexiconBrackets(EntityWorkload):
    name = "ner-lexicon-brackets"
    size = 1000
    warmup = 100
    scheme = markers.MarkerScheme(markers.SQUARE_BRACKET)

    def prepare(self, sentences):
        self.backend = tr.LexiconBackend(
            tr.LexiconBackendConfig(self.token_map, reorder=tr.REORDER_REVERSE))


class HttpXml(EntityWorkload):
    name = "ner-http-xml"
    size = 100
    warmup = 10
    scheme = markers.MarkerScheme(markers.XML_INDEXED)
    jobs = 2
    stub = None

    def prepare(self, sentences):
        lexicon = self.path("lexicon.json")
        with open(lexicon, "w", encoding="utf-8") as f:
            json.dump(self.token_map, f)
        self.close()
        self.stub = subprocess.Popen(
            [sys.executable, os.path.join(BENCH_DIR, "stub.py"), "--lexicon", lexicon],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        ready, _, _ = select.select([self.stub.stdout], [], [], 30)
        line = self.stub.stdout.readline() if ready else ""
        if not line.startswith("PORT "):
            self.close()
            raise RuntimeError("MT stub did not start")
        self.url = f"http://127.0.0.1:{int(line.split()[1])}"
        self.backend = tr.HttpBackend(self.url, timeout_ms=10_000, retries=3, backoff_ms=5)

    def after(self, prefix, p):
        with urllib.request.urlopen(self.url + "/stats", timeout=10) as resp:
            stats = json.loads(resp.read())
        p.layer = {
            "translate.http_attempts": stats["attempts"],
            "translate.faults_injected": stats["faults"],
            "translate.connections_opened": stats["connections"],
            "translate.peak_in_flight": stats["peak_in_flight"],
            "translate.server_s": stats["service_s"],
        }

    def close(self):
        if self.stub is not None:
            self.stub.stdin.close()
            try:
                self.stub.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.stub.kill()
                self.stub.wait()
            self.stub.stdout.close()
            self.stub = None


class CacheQuotes(NerWorkload):
    name = "ner-cache-quotes"
    size = 2000
    warmup = 100
    scheme = markers.MarkerScheme(markers.DOUBLE_QUOTE)
    reference = None

    def corpus(self):
        sentences = corpora.indexed(corpora.make_corpus(self.size, self.seed))
        # the lexicon reverses every word and moves a marked span as a whole;
        # a span of several words it translates alone in reversed word order
        self.truth = [collections.Counter(
            (sp.label, " ".join(w[::-1] for w in sp.slice(s.text).split(" ")))
            for sp in s.spans) for s in sentences]
        self.multiword = [any(" " in sp.slice(s.text) for sp in s.spans) for s in sentences]
        return sentences

    def prepare(self, sentences):
        marked = [markers.insert_markers(s, self.scheme).text for s in sentences]
        items = []
        for s, text in zip(sentences, marked):
            items.append(text)
            items.extend(s.span_texts())
        self.unique_items = list(dict.fromkeys(items))
        # the upstream drops a quote from exactly 1 in 20 distinct marked texts
        drop = corpora.seeded_share([t for t in self.unique_items if '"' in t], self.seed, 20)
        self.expected_filtered = sum(text in drop for text in marked)
        self.upstream = corpora.MarkerDropBackend(
            tr.LexiconBackend(tr.LexiconBackendConfig(
                corpora.vocabulary_map(), reorder=tr.REORDER_REVERSE)),
            drop)
        # prewarm with every other unique item, in first-seen order
        prewarm = self.path("prewarmed-cache.jsonl")
        if os.path.exists(prewarm):
            os.remove(prewarm)
        tr.warm_cache([tr.TranslateRequest(tuple(self.unique_items[::2]), SRC, TGT)],
                      self.upstream, prewarm)

    def before(self, prefix):
        shutil.copyfile(self.path("prewarmed-cache.jsonl"), self.path(prefix + "cache.jsonl"))

    def make_backend(self, prefix):
        return tr.CacheBackend(tr.TranslationCache(self.path(prefix + "cache.jsonl")),
                               self.upstream)

    def after(self, prefix, p):
        if p.error:
            return
        with open(self.path(prefix + "cache.jsonl"), encoding="utf-8") as f:
            p.outputs["cache"] = f.read()

    def check(self, p):
        errors = _check_report(p, self.size)
        filtered = json.loads(p.outputs["report"])["filtered"]
        if filtered != self.expected_filtered:
            errors.append(f"{filtered} sentences filtered, but the upstream dropped a quote "
                          f"from the marked text of {self.expected_filtered}")
        if self.reference is None:
            sentences = core.parse_jsonl(_read(self.path("in.jsonl"), Pass(0)))
            projected, report = easyproject.project_corpus(
                sentences, self.upstream, self.scheme, self.cfg, SRC, TGT, jobs=1)
            self.reference = (core.emit_jsonl(projected), _report_text(report))
        if (p.outputs["out"], p.outputs["report"]) != self.reference:
            errors.append("output or report differs from the uncached reference pass")
        for lineno, i in self.label_mismatches(p):
            if not self.multiword[i]:
                errors.append(f"output line {lineno} (input {i}): labels do not cover "
                              f"the known targets {sorted(self.truth[i])}")
        cache = tr.TranslationCache(self.path("cache.jsonl"))
        missing = [t for t in self.unique_items if cache.get(SRC, TGT, t) is None]
        if missing:
            errors.append(f"reloaded cache lacks {len(missing)} of {len(self.unique_items)} "
                          f"unique items, e.g. {missing[0]!r}")
        return errors

    def label_mismatches(self, p):
        """(output line, input index) of each sentence whose labelled target
        spans differ from the known targets."""
        for lineno, line in enumerate(p.outputs["out"].splitlines(), 1):
            obj = json.loads(line)
            i = int(obj["meta"]["i"])
            got = collections.Counter(
                (s["label"], obj["text"][s["start"]:s["end"]]) for s in obj["spans"])
            if got != self.truth[i]:
                yield lineno, i

    def notes(self, p):
        wrong = [i for _, i in self.label_mismatches(p)]
        n = sum(self.multiword)
        return [f"known fuzzy-assignment gap: {len(wrong)} of the {n} input sentences with a "
                f"span of several words have labels that differ from the known targets"]


# ---------------------------------------------------------------------------
# alignment baseline + fine-tuning data


class ParallelBaselines(Workload):
    name = "parallel-baselines"
    size = 6000
    warmup = 300

    def setup(self):
        sentences, translations, lines, self.truth, token_map = \
            corpora.make_parallel_corpus(self.size, self.seed)
        for prefix, n in (("", self.size), ("warm-", self.warmup)):
            _save(self.path(prefix + "in.jsonl"), core.emit_jsonl(sentences[:n]))
            _save(self.path(prefix + "tgt.txt"), "".join(t + "\n" for t in translations[:n]))
            _save(self.path(prefix + "aligned.pharaoh"), "".join(a + "\n" for a in lines[:n]))
        self.backend = tr.LexiconBackend(tr.LexiconBackendConfig(token_map))
        self.tgt_of = {s.text: t for s, t in zip(sentences, translations)}
        self.warm_error = self.run_pass("warm-").error

    def timed(self, prefix, p, rec):
        sentences = core.parse_jsonl(_read(self.path(prefix + "in.jsonl"), p))
        translations = _read(self.path(prefix + "tgt.txt"), p).splitlines()
        alignment_lines = _read(self.path(prefix + "aligned.pharaoh"), p).splitlines()
        pairs = []
        for sentence, translation, line in zip(sentences, translations, alignment_lines):
            src_tokens = tuple(sentence.text.split(" "))
            tgt_tokens = tuple(translation.split())
            alignment = alignproject.parse_pharaoh(line, len(src_tokens), len(tgt_tokens))
            pairs.append(alignproject.AlignedPair(src_tokens, tgt_tokens, alignment))
        projected, report = alignproject.project_corpus_aligned(sentences, pairs)
        out = core.emit_jsonl(projected)
        report_text = _report_text(report)
        _write(self.path(prefix + "out.jsonl"), out, p)
        _write(self.path(prefix + "report.json"), report_text, p)

        parallel = [ftdata.ParallelPair(s, t) for s, t in zip(sentences, translations)]
        with trace_backend(rec, self.backend, "translate.request", "translate.") \
                if rec is not None else contextlib.nullcontext():
            ft_pairs = ftdata.build_ft_pairs(parallel, self.backend, ftdata.FtDataConfig(),
                                             SRC, TGT)
        ft_text = "".join(f"{s}\t{t}\n" for s, t in ft_pairs)
        _write(self.path(prefix + "pairs.tsv"), ft_text, p)
        p.outputs = {"out": out, "report": report_text, "pairs": ft_text}
        p.failed = report.failed
        p.projection_rate = report.projected / report.total

    def check(self, p):
        errors = _check_report(p, self.size)
        projected = {}
        for line in p.outputs["out"].splitlines():
            obj = json.loads(line)
            projected[int(obj["meta"]["i"])] = {
                (obj["text"][s["start"]:s["end"]], s["label"]) for s in obj["spans"]}
        for i, expected in enumerate(self.truth):
            if expected is not None and projected.get(i) != expected:
                errors.append(f"clean-alignment sentence {i}: projected {projected.get(i)} "
                              f"!= ground truth {expected}")
        scheme = markers.MarkerScheme(markers.SQUARE_BRACKET)
        for lineno, line in enumerate(p.outputs["pairs"].splitlines(), 1):
            marked_src, marked_tgt = line.split("\t")
            src = markers.strip_markers(marked_src, scheme)
            if self.tgt_of.get(src) != markers.strip_markers(marked_tgt, scheme):
                errors.append(f"ft pair {lineno}: markers do not strip to a corpus pair")
        if not p.outputs["pairs"]:
            errors.append("no fine-tuning pairs were built")
        return errors


WORKLOADS = {w.name: w for w in (LexiconBrackets, HttpXml, CacheQuotes, ParallelBaselines)}
