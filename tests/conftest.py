"""Shared fixtures: deterministic corpus generators and noise backends."""

from __future__ import annotations

import random

from spanbridge.alignproject import AlignedPair, project_sentence_aligned
from spanbridge.core import AnnotatedSentence, LabeledSpan, token_bounds
from spanbridge.metrics import FILTERED
from spanbridge.translate import TranslatedItem, TranslateRequest, TranslateResponse

# word pool mixing scripts; none contain marker characters
LATIN = ["alpha", "bravo", "charlie", "delta", "echo", "fox", "golf", "hotel", "kilo"]
CJK = ["北京", "记者", "报道", "离婚", "纽约", "丘吉尔", "英格兰"]
CYRILLIC = ["москва", "город", "река", "союз"]
MISC = ["café", "naïve", "über", "señor", "Ω", "λόγος"]
WORDS = LATIN + CJK + CYRILLIC + MISC
LABELS = ["PER", "LOC", "ORG", "DATE"]


def make_sentence(rng: random.Random, max_spans: int = 3,
                  with_relations: bool = False) -> AnnotatedSentence:
    n_tokens = rng.randint(3, 12)
    tokens = [rng.choice(WORDS) for _ in range(n_tokens)]
    text = " ".join(tokens)
    bounds = []
    offset = 0
    for t in tokens:
        bounds.append((offset, offset + len(t)))
        offset += len(t) + 1

    n_spans = rng.randint(0, min(max_spans, n_tokens // 2))
    # pick non-overlapping token ranges
    positions = sorted(rng.sample(range(n_tokens), min(2 * n_spans, n_tokens)))
    spans = []
    for i in range(n_spans):
        if 2 * i + 1 >= len(positions):
            break
        first, last = positions[2 * i], positions[2 * i]  # single-token spans mostly
        if rng.random() < 0.3 and positions[2 * i + 1] == first + 1:
            last = positions[2 * i + 1]
        spans.append(LabeledSpan(len(spans), bounds[first][0], bounds[last][1],
                                 rng.choice(LABELS)))
    relations = ()
    if with_relations and len(spans) >= 2:
        from spanbridge.core import RelationLink
        relations = (RelationLink("ARG", 0, 1),)
    return AnnotatedSentence(text, tuple(spans), {"id": str(rng.randint(0, 10**6))},
                             relations)


def make_corpus(n: int, seed: int, max_spans: int = 3,
                with_relations: bool = False) -> list[AnnotatedSentence]:
    rng = random.Random(seed)
    return [make_sentence(rng, max_spans, with_relations) for _ in range(n)]


def project_token_range(span_range: tuple[int, int], links, n_src: int,
                        n_tgt: int) -> tuple[int, int] | None:
    """The [lo, hi + 1) target token range project_sentence_aligned gives the
    one span of an n_src-token sentence that covers source tokens span_range,
    through `links` onto n_tgt target tokens; None when the sentence is
    filtered as Unprojectable."""
    src = tuple(f"s{i}" for i in range(n_src))
    tgt = tuple(f"t{j}" for j in range(n_tgt))
    first, stop = span_range
    src_bounds = token_bounds(src)
    sentence = AnnotatedSentence(" ".join(src), (
        LabeledSpan(0, src_bounds[first][0], src_bounds[stop - 1][1], "X"),))
    outcome = project_sentence_aligned(sentence, AlignedPair(src, tgt, frozenset(links)))
    if outcome.status == FILTERED:
        assert outcome.reason == "Unprojectable"
        return None
    (span,) = outcome.sentence.spans
    tgt_bounds = token_bounds(tgt)
    return ([start for start, _ in tgt_bounds].index(span.start),
            [end for _, end in tgt_bounds].index(span.end) + 1)


def annotate_with_gazetteer(text: str, gazetteer: dict[str, str]) -> AnnotatedSentence:
    """Tiny whitespace-token gazetteer annotator."""
    tokens = text.split(" ")
    offset = 0
    spans = []
    for token in tokens:
        label = gazetteer.get(token)
        if label is not None:
            spans.append(LabeledSpan(len(spans), offset, offset + len(token), label))
        offset += len(token) + 1
    return AnnotatedSentence(text, tuple(spans))


def make_entity_corpus(n: int, seed: int):
    """Sentences with 2..5 distinct single-token entities, each with a unique
    label, plus the token map sending every entity to a unique target token.

    Returns (sentences, token_map). Ground truth under a reversing lexicon
    backend is known exactly.
    """
    rng = random.Random(seed)
    sentences = []
    token_map = {}
    for si in range(n):
        k = rng.randint(2, 5)
        entities = [f"ent{si}x{j}" for j in range(k)]
        for j, e in enumerate(entities):
            token_map[e] = f"tgt{si}y{j}"
        fillers = [rng.choice(LATIN) for _ in range(k + 1)]
        tokens = []
        spans = []
        offset = 0
        for j, e in enumerate(entities):
            f = fillers[j]
            tokens.append(f)
            offset += len(f) + 1
            tokens.append(e)
            spans.append(LabeledSpan(j, offset, offset + len(e), f"L{j}"))
            offset += len(e) + 1
        tokens.append(fillers[-1])
        sentences.append(AnnotatedSentence(" ".join(tokens), tuple(spans)))
    return sentences, token_map


class MarkerDropBackend:
    """Identity backend that deletes the last closing bracket from a fixed
    set of marked texts. Deterministic regardless of call order."""

    def __init__(self, corrupt_texts: set[str]):
        self.corrupt_texts = set(corrupt_texts)

    def translate(self, request: TranslateRequest) -> TranslateResponse:
        items = []
        for text in request.items:
            if text in self.corrupt_texts:
                idx = text.rfind("]")
                assert idx >= 0
                text = text[:idx] + text[idx + 1:]
            items.append(TranslatedItem(text))
        return TranslateResponse(tuple(items))
