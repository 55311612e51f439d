"""Seeded corpus generators for the benchmark.

`make_sentence`, `make_corpus` and `make_entity_corpus` are copies of the
generators in tests/conftest.py (less the relations option, which no
workload uses), kept here so that edits to the tests cannot change what the
benchmark measures. Everything below them builds the inputs
of one workload from a seed alone.
"""

from __future__ import annotations

import random

from spanbridge.core import AnnotatedSentence, LabeledSpan
from spanbridge.translate import TranslatedItem, TranslateResponse

# word pool mixing scripts; none contain marker characters
LATIN = ["alpha", "bravo", "charlie", "delta", "echo", "fox", "golf", "hotel", "kilo"]
CJK = ["北京", "记者", "报道", "离婚", "纽约", "丘吉尔", "英格兰"]
CYRILLIC = ["москва", "город", "река", "союз"]
MISC = ["café", "naïve", "über", "señor", "Ω", "λόγος"]
WORDS = LATIN + CJK + CYRILLIC + MISC
LABELS = ["PER", "LOC", "ORG", "DATE"]


def make_sentence(rng: random.Random, max_spans: int = 3) -> AnnotatedSentence:
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
    return AnnotatedSentence(text, tuple(spans), {"id": str(rng.randint(0, 10**6))})


def make_corpus(n: int, seed: int, max_spans: int = 3) -> list[AnnotatedSentence]:
    rng = random.Random(seed)
    return [make_sentence(rng, max_spans) for _ in range(n)]


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


# ---------------------------------------------------------------------------
# Benchmark inputs built on the generators above


def indexed(sentences: list[AnnotatedSentence]) -> list[AnnotatedSentence]:
    """Tag each sentence with its input index in meta, which projection
    carries to the output, so filtered sentences cannot shift the check."""
    return [AnnotatedSentence(s.text, s.spans, {"i": str(i)}) for i, s in enumerate(sentences)]


def entity_truth(sentences: list[AnnotatedSentence], token_map: dict[str, str]):
    """Per sentence, label -> the target token its entity translates to."""
    return [{sp.label: token_map[sp.slice(s.text)] for sp in s.spans} for s in sentences]


def vocabulary_map() -> dict[str, str]:
    """Lexicon for the mixed-script corpus: every word maps to its reversal."""
    return {w: w[::-1] for w in WORDS}


def seeded_share(items: list[str], seed: int, one_in: int) -> frozenset[str]:
    """Exactly len(items) // one_in of the items, chosen by the seed."""
    return frozenset(random.Random(seed).sample(items, len(items) // one_in))


class MarkerDropBackend:
    """Wraps a backend and deletes the last double-quote token from the
    translation of each text in `drop`. Deterministic per text, so a cache
    in front of it stays consistent."""

    def __init__(self, inner, drop: frozenset[str]):
        self.inner = inner
        self.drop = drop

    def translate(self, request):
        response = self.inner.translate(request)
        items = []
        for text, item in zip(request.items, response.items):
            if text in self.drop and item.ok:
                tokens = item.output.split(" ")
                last = max(i for i, t in enumerate(tokens) if t == '"')
                item = TranslatedItem(" ".join(tokens[:last] + tokens[last + 1:]))
            items.append(item)
        return TranslateResponse(tuple(items))


CLEAN, DROP_ENTITY_LINK, ADD_OVERLAP_LINK, DROP_ANY_LINK = range(4)


def make_parallel_corpus(n: int, seed: int):
    """Entity sentence pairs for the alignment baseline and ftdata.

    The target side is the source with entities mapped and token order
    reversed; the clean alignment is the known reversal i -> n-1-i. About a
    fifth of the spans are widened to include the filler before the entity,
    so a dropped filler link shows as a boundary risk. Seeded noise drops an
    entity link (Unprojectable, or a truncated wide span) in exactly 8 % of
    the sentences, adds a link into another entity's target (Overlap) in 6 %
    and drops any link in 6 %.

    Returns (sentences, translations, pharaoh_lines, truth, token_map) where
    truth[i] is the set of expected (target span text, label) pairs for a
    sentence with a clean alignment and None for a noisy one.
    """
    base, token_map = make_entity_corpus(n, seed)
    rng = random.Random(seed ^ 0x5EED)
    # exact shares of each kind of noise, in seeded order
    kinds = ([DROP_ENTITY_LINK] * (8 * n // 100) + [ADD_OVERLAP_LINK] * (6 * n // 100)
             + [DROP_ANY_LINK] * (6 * n // 100))
    kinds += [CLEAN] * (n - len(kinds))
    rng.shuffle(kinds)
    sentences, translations, lines, truth = [], [], [], []
    for i, sent in enumerate(base):
        tokens = sent.text.split(" ")
        offsets = []
        offset = 0
        for tok in tokens:
            offsets.append(offset)
            offset += len(tok) + 1
        token_at = {o: k for k, o in enumerate(offsets)}
        # token ranges of the spans: entity j sits at token 2j+1, its filler at 2j
        ranges = []
        for sp in sent.spans:
            first = token_at[sp.start]
            ranges.append((first - 1 if rng.random() < 0.2 else first, first + 1))
        spans = tuple(
            LabeledSpan(j, offsets[a], offsets[b - 1] + len(tokens[b - 1]), sp.label)
            for j, ((a, b), sp) in enumerate(zip(ranges, sent.spans))
        )
        n_tok = len(tokens)
        tgt_tokens = [token_map.get(tok, tok) for tok in reversed(tokens)]
        links = {(k, n_tok - 1 - k) for k in range(n_tok)}
        kind = kinds[i]
        if kind == DROP_ENTITY_LINK:
            a, b = rng.choice(ranges)
            links.discard((b - 1, n_tok - b))
        elif kind == ADD_OVERLAP_LINK:
            (a1, b1), (a2, b2) = rng.sample(ranges, 2)
            links.add((b1 - 1, n_tok - b2))
        elif kind == DROP_ANY_LINK:
            links.discard(rng.choice(sorted(links)))
        clean = kind == CLEAN
        sentences.append(AnnotatedSentence(sent.text, spans, {"i": str(i)}))
        translations.append(" ".join(tgt_tokens))
        lines.append(" ".join(f"{s}-{t}" for s, t in sorted(links)))
        truth.append(
            {(" ".join(tgt_tokens[n_tok - b:n_tok - a]), sp.label)
             for (a, b), sp in zip(ranges, spans)}
            if clean else None
        )
    return sentences, translations, lines, truth, token_map
