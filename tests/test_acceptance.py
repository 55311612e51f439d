"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s`.
"""

import difflib
import json
import random
import time

from conftest import MarkerDropBackend, make_corpus, make_entity_corpus, project_token_range
from spanbridge.alignproject import AlignedPair, project_corpus_aligned
from spanbridge.cli import EXIT_OK, run
from spanbridge.core import (
    bio_from_spans,
    emit_conll,
    emit_jsonl,
    emit_squad,
    parse_conll,
    parse_jsonl,
    parse_squad,
    spans_from_bio,
)
from spanbridge.easyproject import (
    PROJECTED,
    MatcherConfig,
    fuzzy_ratio,
    project_corpus,
)
from spanbridge.ftdata import FtDataConfig, ParallelPair, build_ft_pairs
from spanbridge.markers import MarkerScheme, insert_markers, strip_markers
from spanbridge.metrics import corpus_bleu, projection_rate
from spanbridge.translate import (
    CacheBackend,
    IdentityBackend,
    LexiconBackend,
    LexiconBackendConfig,
    TranslateRequest,
    TranslationCache,
)


def _ok(n, message):
    print(f"PASS criterion {n}: {message}")


def _unique_span_corpus(n, seed, max_spans=3):
    """n sentences, all with >= 1 span and pairwise distinct texts."""
    seen = set()
    out = []
    chunk_seed = seed
    while len(out) < n:
        for sent in make_corpus(4 * n, chunk_seed, max_spans=max_spans):
            if sent.spans and sent.text not in seen:
                seen.add(sent.text)
                out.append(sent)
                if len(out) == n:
                    break
        chunk_seed += 1
    return out


CORPUS_1K = make_corpus(1000, seed=100)


def test_criterion_01_identity_fixpoint(tmp_path):
    infile = tmp_path / "in.jsonl"
    out = tmp_path / "out.jsonl"
    report = tmp_path / "report.json"
    infile.write_text(emit_jsonl(CORPUS_1K), encoding="utf-8")
    started = time.monotonic()
    code = run(["project", "--in", str(infile), "--out", str(out),
                "--backend", "identity", "--report", str(report)])
    elapsed = time.monotonic() - started
    assert code == EXIT_OK
    assert out.read_text(encoding="utf-8") == infile.read_text(encoding="utf-8")
    rep = json.loads(report.read_text())
    assert rep["projected"] / rep["total"] == 1.0
    assert elapsed < 5.0
    _ok(1, f"1000-sentence identity projection, rate 1.000, exit 0, {elapsed:.2f}s")


def test_criterion_02_fuzzy_ratio_oracle():
    assert fuzzy_ratio("abcd", "bcde") == 0.75
    rng = random.Random(2024)
    alphabet = "abcdefgh"
    for _ in range(10_000):
        a = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 16)))
        b = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 16)))
        expected = difflib.SequenceMatcher(None, a, b, autojunk=False).ratio()
        assert fuzzy_ratio(a, b) == expected, (a, b)
    _ok(2, "fuzzy_ratio equals the brute-force oracle on 10000 pairs, incl. abcd/bcde=0.75")


def test_criterion_03_permutation_recovery():
    sentences, token_map = make_entity_corpus(500, seed=300)
    backend = LexiconBackend(LexiconBackendConfig(token_map, reorder="reverse"))
    scheme = MarkerScheme("brackets")
    reverse_of = {v: k for k, v in token_map.items()}

    def correct_labels(sent):
        # ground truth: target token tgt{si}y{j} carries label L{j}
        good = 0
        for span in sent.spans:
            text = span.slice(sent.text)
            j = text.rsplit("y", 1)[1]
            if span.label == f"L{j}":
                good += 1
        return good, len(sent.spans)

    fuzzy_out, fuzzy_rep = project_corpus(
        sentences, backend, scheme, MatcherConfig(mode="fuzzy", threshold=0.5))
    assert fuzzy_rep.projected == 500
    assert all(correct_labels(s)[0] == correct_labels(s)[1] for s in fuzzy_out)

    seq_out, seq_rep = project_corpus(
        sentences, backend, scheme, MatcherConfig(mode="sequential"))
    assert seq_rep.projected == 500
    # every sentence has >= 2 reversed distinct entities: all are mislabeled
    mislabeled = sum(1 for s in seq_out if correct_labels(s)[0] < len(s.spans))
    assert mislabeled == 500
    fuzzy_acc = sum(correct_labels(s)[0] for s in fuzzy_out)
    seq_acc = sum(correct_labels(s)[0] for s in seq_out)
    assert fuzzy_acc >= seq_acc
    _ok(3, f"fuzzy recovers 500/500 sentences; sequential mislabels {mislabeled}/500")


def test_criterion_04_marker_loss_filtering():
    corpus = _unique_span_corpus(1000, seed=400)
    scheme = MarkerScheme("brackets")
    corrupt = {insert_markers(corpus[i], scheme).text for i in range(0, 1000, 4)}
    assert len(corrupt) == 250
    backend = MarkerDropBackend(corrupt)
    projected, report = project_corpus(corpus, backend, scheme)
    assert projection_rate(report) == 0.75
    assert report.filtered == 250
    source_by_text = {s.text: s for s in corpus}
    for sent in projected:
        assert len(sent.spans) == len(source_by_text[sent.text].spans)
    _ok(4, "dropping a closing marker in 250/1000 sentences gives rate exactly 0.75; "
           "all survivors keep source span counts")


def test_criterion_05_alignment_oracle():
    rng = random.Random(500)
    for _ in range(10_000):
        n_src, n_tgt = rng.randint(1, 10), rng.randint(1, 10)
        links = {(rng.randrange(n_src), rng.randrange(n_tgt))
                 for _ in range(rng.randint(0, 20))}
        s = rng.randrange(n_src)
        e = rng.randint(s + 1, n_src)
        targets = [j for i, j in links if s <= i < e]
        expected = (min(targets), max(targets) + 1) if targets else None
        assert project_token_range((s, e), links, n_src, n_tgt) == expected

    corpus = make_corpus(1000, seed=501)
    pairs = []
    for sent in corpus:
        tokens = tuple(sent.text.split(" "))
        pairs.append(AlignedPair(tokens, tokens,
                                 frozenset((i, i) for i in range(len(tokens)))))
    projected, report = project_corpus_aligned(corpus, pairs)
    assert report.projected == 1000
    for src, out in zip(corpus, projected):
        assert out.text == src.text and out.spans == src.spans
    _ok(5, "span projection equals min/max oracle on 10000 alignments; "
           "identity alignment lossless on 1000 sentences")


def test_criterion_06_bleu():
    corpus = [s.text.split() for s in CORPUS_1K if len(s.text.split()) >= 4][:200]
    assert corpus_bleu(corpus, corpus) == 1.0
    clipped = corpus_bleu([["the", "the", "the", "the"]], [["the", "cat"]],
                          max_n=1)
    assert abs(clipped - 0.25) <= 1e-9
    scheme = MarkerScheme("brackets")
    marked = [strip_markers(insert_markers(s, scheme).text, scheme).split()
              for s in CORPUS_1K]
    plain = [s.text.split() for s in CORPUS_1K]
    assert corpus_bleu(marked, plain) == 1.0
    _ok(6, "corpus_bleu identity = 1.0; clipped example = 0.25; strip-then-BLEU = 1.0")


CONLL_FIXTURE = (
    "John\tB-PER\n"
    "lives\tO\n"
    "in\tO\n"
    "New\tB-LOC\n"
    "York\tI-LOC\n"
    "\n"
    "Это\tO\n"
    "Москва\tB-LOC\n"
    "\n"
    "丘吉尔\tB-PER\n"
    "出生\tO\n"
    "在\tO\n"
    "英格兰\tB-LOC\n"
)


def test_criterion_07_format_round_trips():
    assert emit_conll(parse_conll(CONLL_FIXTURE)) == CONLL_FIXTURE

    squad_fixture = json.dumps(
        {"data": [{"paragraphs": [{
            "context": "Norman dynasty ruled England.",
            "qas": [{"answers": [{"answer_start": 21, "text": "England"}],
                     "id": "q1", "question": "Who was ruled?"}],
        }], "title": "fixture"}], "version": "1.1"},
        sort_keys=True, ensure_ascii=False)
    assert emit_squad(parse_squad(squad_fixture), title="fixture") == squad_fixture

    rng = random.Random(700)
    labels = ["PER", "LOC", "ORG"]
    for _ in range(1000):
        n = rng.randint(1, 15)
        tokens = ["".join(rng.choice("abcd中ж") for _ in range(rng.randint(1, 4)))
                  for _ in range(n)]
        tags = []
        prev = "O"
        for _ in range(n):
            options = ["O"] + [f"B-{l}" for l in labels]
            if prev != "O":
                options.append("I-" + prev[2:])
            prev = rng.choice(options)
            tags.append(prev)
        assert bio_from_spans(tokens, spans_from_bio(tokens, tags)) == tags
    _ok(7, "CoNLL and SQuAD fixtures round-trip byte-identically; "
           "BIO<->span identity on 1000 random sequences")


def test_criterion_08_ftdata_selection():
    pairs = []
    expected_multi = []
    singles = []
    # 8 multi-entity pairs and 12 single-entity pairs with known placements
    def jsonl_pair(text, entities):
        spans = []
        for ent in entities:
            start = text.index(ent)
            spans.append({"start": start, "end": start + len(ent), "label": "PER"})
        sent = parse_jsonl(json.dumps({"text": text, "spans": spans}) + "\n")[0]
        return ParallelPair(sent, text)

    for i in range(8):
        text = f"p{i}a meets p{i}b now"
        marked = f"[ p{i}a ] meets [ p{i}b ] now"
        pairs.append(jsonl_pair(text, [f"p{i}a", f"p{i}b"]))
        expected_multi.append((marked, marked))
    for i in range(12):
        text = f"s{i} solo" + " pad" * i
        marked = f"[ s{i} ] solo" + " pad" * i
        pairs.append(jsonl_pair(text, [f"s{i}"]))
        singles.append((len(text), marked))

    out = build_ft_pairs(pairs, IdentityBackend(), FtDataConfig(k=12))
    assert len(out) == 12
    assert out[:8] == expected_multi
    singles.sort(key=lambda x: -x[0])
    assert [s for _, s in singles[:4]] == [src for src, _ in out[8:]]
    scheme = MarkerScheme("brackets")
    for marked_src, marked_tgt in out:
        assert strip_markers(marked_src, scheme) == strip_markers(marked_tgt, scheme)
    _ok(8, "20-pair corpus: expected bracket placements, A-before-B order, k=12 truncation, "
           "bracket stripping recovers originals")


def test_criterion_09_placeholder_round_trip():
    projected, report = project_corpus(
        CORPUS_1K, IdentityBackend(), MarkerScheme("placeholder"))
    assert report.projected == 1000
    assert projected == list(CORPUS_1K)
    _ok(9, "placeholder encode -> identity translate -> decode reproduces all "
           "1000 sentences and labels")


def test_criterion_10_determinism(tmp_path):
    # criterion-1 configuration
    infile = tmp_path / "in1.jsonl"
    infile.write_text(emit_jsonl(CORPUS_1K), encoding="utf-8")
    runs = []
    for jobs in ("1", "8"):
        out = tmp_path / f"out1-{jobs}.jsonl"
        rep = tmp_path / f"rep1-{jobs}.json"
        assert run(["project", "--in", str(infile), "--out", str(out),
                    "--report", str(rep), "--jobs", jobs]) == EXIT_OK
        runs.append((out.read_bytes(), rep.read_bytes()))
    assert runs[0] == runs[1]

    # criterion-3 configuration (lexicon reverse + fuzzy)
    sentences, token_map = make_entity_corpus(500, seed=300)
    infile3 = tmp_path / "in3.jsonl"
    infile3.write_text(emit_jsonl(sentences), encoding="utf-8")
    lex = tmp_path / "lex.json"
    lex.write_text(json.dumps(token_map), encoding="utf-8")
    runs = []
    for jobs in ("1", "8"):
        out = tmp_path / f"out3-{jobs}.jsonl"
        rep = tmp_path / f"rep3-{jobs}.json"
        assert run(["project", "--in", str(infile3), "--out", str(out),
                    "--report", str(rep), "--backend", "lexicon",
                    "--lexicon", str(lex), "--reorder", "reverse",
                    "--matcher", "fuzzy", "--jobs", jobs]) == EXIT_OK
        runs.append((out.read_bytes(), rep.read_bytes()))
    assert runs[0] == runs[1]
    _ok(10, "criterion-1 and criterion-3 runs are byte-identical with --jobs 1 and --jobs 8")


class _Recording:
    """Passes each batch to `upstream` and records the batch's items."""

    def __init__(self, upstream):
        self.upstream = upstream
        self.batches = []

    def translate(self, request):
        self.batches.append(request.items)
        return self.upstream.translate(request)


def test_criterion_10_determinism_through_a_cache(tmp_path):
    # criterion-3 configuration behind a half-warm cache: hits, misses and appends
    sentences, token_map = make_entity_corpus(200, seed=301)
    scheme = MarkerScheme("brackets")
    items = list(dict.fromkeys(
        t for s in sentences for t in (insert_markers(s, scheme).text, *s.span_texts())))
    lexicon = LexiconBackend(LexiconBackendConfig(token_map, reorder="reverse"))
    warm = lexicon.translate(TranslateRequest(items[::2], "src", "tgt")).outputs()
    runs = []
    for jobs in (1, 8):
        path = tmp_path / f"cache-{jobs}.jsonl"
        TranslationCache(str(path)).put("src", "tgt", list(zip(items[::2], warm)))
        upstream = _Recording(lexicon)
        projected, report = project_corpus(
            sentences, CacheBackend(TranslationCache(str(path)), upstream), scheme, jobs=jobs)
        runs.append((emit_jsonl(projected), json.dumps(report.to_json(), sort_keys=True),
                     path.read_bytes(), sorted(upstream.batches)))
    assert len(items[1::2]) > 300
    assert sum(map(len, runs[0][3])) == len(items[1::2])
    assert runs[0] == runs[1]
    _ok(10, f"{len(items[1::2])} misses through a cache give the same output, report, "
            f"cache file and upstream items with --jobs 1 and --jobs 8")
