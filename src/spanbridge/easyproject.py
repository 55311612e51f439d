"""Mark -> translate -> extract -> assign labels -> filter.

The projection pipeline inserts markers around annotated spans, sends the
marked sentence through a translation backend, recovers the marked spans
from the translation, and attaches labels either by marker identity (XML,
placeholder) or by fuzzy/positional matching against independently
translated mentions (brackets, quotes).
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from itertools import accumulate, pairwise

from .core import AnnotatedSentence, FormatError, QaExample, gc_paused, record
from .markers import (
    VALID,
    MarkedText,
    MarkerScheme,
    PreexistingMarkerError,
    carries_identity,
    extract_markers,
    insert_markers,
)
from .metrics import FAILED, FILTERED, PROJECTED, ProjectionOutcome, ProjectionReport, tally
from .translate import DEFAULT_MAX_IN_FLIGHT, TranslatedItem, TranslateRequest, translate

MATCH_FUZZY = "fuzzy"
MATCH_SEQUENTIAL = "sequential"

FALLBACK_POSITIONAL = "positional"
FALLBACK_DROP = "drop"


# ---------------------------------------------------------------------------
# Fuzzy ratio (gestalt pattern matching over codepoints, no junk heuristics)


def fuzzy_ratio(a: str, b: str) -> float:
    """Similarity in [0, 1]: 2*M / (len(a) + len(b)), where M is the total length
    of the longest common substring (earliest in a, then in b) and of the blocks
    found the same way on the unmatched text to either side of it; equal to
    difflib.SequenceMatcher(None, a, b, autojunk=False).ratio(). Two empty strings -> 1.0."""
    total = len(a) + len(b)
    if total == 0:
        return 1.0
    positions: dict[str, list[int]] = {}  # character -> its ascending indices in b
    for j, ch in enumerate(b):
        positions.setdefault(ch, []).append(j)
    matched = 0
    pending = [(0, len(a), 0, len(b))]  # unmatched (alo, ahi, blo, bhi) ranges
    while pending:
        alo, ahi, blo, bhi = pending.pop()
        best_i, best_j, best_size = alo, blo, 0
        j2len: dict[int, int] = {}  # length of the match ending at a[i-1], b[j]
        for i in range(alo, ahi):
            new_j2len: dict[int, int] = {}
            for j in positions.get(a[i], ()):
                if j < blo:
                    continue
                if j >= bhi:
                    break
                k = new_j2len[j] = j2len.get(j - 1, 0) + 1
                if k > best_size:
                    best_i, best_j, best_size = i - k + 1, j - k + 1, k
            j2len = new_j2len
        if best_size:
            matched += best_size
            if alo < best_i and blo < best_j:
                pending.append((alo, best_i, blo, best_j))
            if best_i + best_size < ahi and best_j + best_size < bhi:
                pending.append((best_i + best_size, ahi, best_j + best_size, bhi))
    return 2.0 * matched / total


# ---------------------------------------------------------------------------
# Label assignment


@record
class MatcherConfig:
    mode: str = MATCH_FUZZY
    threshold: float = 0.5
    on_no_match: str = FALLBACK_POSITIONAL

    def __post_init__(self):
        if not 0.0 <= self.threshold <= 1.0:
            raise ValueError("threshold must be in [0, 1]")
        if self.mode not in (MATCH_FUZZY, MATCH_SEQUENTIAL):
            raise ValueError(f"unknown matcher mode {self.mode!r}")
        if self.on_no_match not in (FALLBACK_POSITIONAL, FALLBACK_DROP):
            raise ValueError(f"unknown fallback {self.on_no_match!r}")


@record
class Assignment:
    """candidate_for[t] = source-candidate index assigned to bracketed span t."""

    candidate_for: tuple[int, ...]
    low_confidence: bool


def assign_labels_fuzzy(
    bracketed_texts: list[str],
    candidate_mentions: list[str],
    cfg: MatcherConfig,
) -> Assignment | None:
    """One-to-one assignment of candidates to bracketed spans. Sequential
    matching is positional, span t taking candidate t, and reads no candidates.

    Fuzzy matching is greedy in descending ratio order; only pairs with ratio
    strictly above the threshold are confident. Leftovers are matched
    left-to-right with the low-confidence flag, or the whole sentence is
    dropped (None), depending on cfg.on_no_match.

    Equal strings are exactly the pairs with ratio 1.0, so they are settled
    first without scoring; ratios are computed only for the pairs left, and
    nothing is scored or sorted when no span is left.
    """
    n = len(bracketed_texts)
    if cfg.mode == MATCH_SEQUENTIAL:  # positional; no mentions are translated for it
        return Assignment(tuple(range(n)), False)
    if n != len(candidate_mentions):
        raise ValueError("bracketed span count must equal candidate count")

    cand_for: list[int | None] = [None] * n
    used_cand = [False] * n
    # at threshold 1.0 no ratio is strictly above it, so nothing is confident
    if cfg.threshold < 1.0:
        # ratio-1.0 pairs head the greedy order in (candidate, span) order
        unassigned: dict[str, list[int]] = {}
        for t, text in enumerate(bracketed_texts):
            unassigned.setdefault(text, []).append(t)
        for c, mention in enumerate(candidate_mentions):
            equal = unassigned.get(mention)
            if equal:
                cand_for[equal.pop(0)] = c
                used_cand[c] = True
        if None not in cand_for:  # equal strings settled every span: nothing left to score
            return Assignment(tuple(cand_for), False)
        # by descending ratio, then source span (candidate) order
        scored = sorted(
            (-fuzzy_ratio(bracketed_texts[t], candidate_mentions[c]), c, t)
            for t in range(n) if cand_for[t] is None
            for c in range(n) if not used_cand[c]
        )
        for neg_ratio, c, t in scored:
            if -neg_ratio <= cfg.threshold:
                break
            if cand_for[t] is None and not used_cand[c]:
                cand_for[t] = c
                used_cand[c] = True
    leftovers_t = [t for t in range(n) if cand_for[t] is None]
    if leftovers_t:
        if cfg.on_no_match == FALLBACK_DROP:
            return None
        leftovers_c = [c for c in range(n) if not used_cand[c]]
        for t, c in zip(leftovers_t, leftovers_c):
            cand_for[t] = c
    return Assignment(tuple(cand_for), bool(leftovers_t))


# ---------------------------------------------------------------------------
# Projection pipeline


def _plan(sentence: AnnotatedSentence, scheme: MarkerScheme, cfg: MatcherConfig
          ) -> tuple[ProjectionOutcome | None, MarkedText | None, tuple[str, ...]]:
    """(outcome, marked, items) of one sentence: its outcome if decided before
    translation, else its marked text and the items to translate."""
    if not sentence.text:
        return ProjectionOutcome(PROJECTED, sentence=sentence), None, ()
    try:
        marked = insert_markers(sentence, scheme)
    except PreexistingMarkerError as e:
        return ProjectionOutcome(FILTERED, "PreexistingMarker", diagnostics=(str(e),)), None, ()
    # identity-carrying markers need no matching; sequential matching is positional
    if not carries_identity(scheme) and cfg.mode == MATCH_FUZZY:
        return None, marked, (marked.text, *sentence.span_texts())
    return None, marked, (marked.text,)


def _resolve(sentence: AnnotatedSentence, marked: MarkedText, items: tuple[TranslatedItem, ...],
             scheme: MarkerScheme, cfg: MatcherConfig) -> ProjectionOutcome:
    """Outcome of one planned sentence from the translations of its items."""
    bad = [it.status for it in items if not it.ok]
    if bad:
        return ProjectionOutcome(FAILED, "BackendError", diagnostics=tuple(bad))
    candidate_mentions = [it.output for it in items[1:]]

    result = extract_markers(items[0].output, scheme, marked.marker_map)
    if result.status != VALID:
        return ProjectionOutcome(FILTERED, result.status, diagnostics=(result.diagnostic,))

    low_confidence = False
    # (source span id, start, end) of each found span, in found (target) order
    placed = result.found_spans  # identity markers name their source span
    if not carries_identity(scheme):
        found_texts = [result.clean_text[s:e] for _, s, e in placed]
        assignment = assign_labels_fuzzy(found_texts, candidate_mentions, cfg)
        if assignment is None:
            return ProjectionOutcome(FILTERED, "NoConfidentMatch")
        low_confidence = assignment.low_confidence
        placed = [(c, s, e) for c, (_, s, e) in zip(assignment.candidate_for, placed)]

    try:
        out = sentence.onto(result.clean_text, placed)
    except FormatError as e:
        return ProjectionOutcome(FILTERED, "InvalidTargetSpans", diagnostics=(str(e),))
    return ProjectionOutcome(
        PROJECTED, sentence=out, low_confidence=low_confidence,
        diagnostics=("positional fallback used for some spans",) if low_confidence else ())


def translate_each(groups: Sequence[Sequence[str]], backend, src_lang: str, tgt_lang: str,
                   jobs: int) -> Iterator[tuple[TranslatedItem, ...]]:
    """The translations of each group of texts, group by group in order, from one
    translate() call of all their texts with `jobs` batches in flight."""
    texts = tuple([text for group in groups for text in group])
    translated = translate(TranslateRequest(texts, src_lang, tgt_lang), backend,
                           max_in_flight=jobs).items
    return (translated[start:end]
            for start, end in pairwise(accumulate(map(len, groups), initial=0)))


def _project(sentences: list[AnnotatedSentence], backend, scheme: MarkerScheme,
             cfg: MatcherConfig, src_lang: str, tgt_lang: str,
             jobs: int) -> Iterator[ProjectionOutcome]:
    """Outcome of each sentence in input order: all are planned, their items go through
    one translate_each() call, and each is resolved from its own."""
    plans = [_plan(s, scheme, cfg) for s in sentences]
    replies = translate_each([items for _, _, items in plans], backend, src_lang, tgt_lang, jobs)
    for sentence, (outcome, marked, _), items in zip(sentences, plans, replies):
        yield _resolve(sentence, marked, items, scheme, cfg) if outcome is None else outcome


def project_sentence(
    sentence: AnnotatedSentence,
    backend,
    scheme: MarkerScheme,
    cfg: MatcherConfig | None = None,
    src_lang: str = "src",
    tgt_lang: str = "tgt",
) -> ProjectionOutcome:
    """Project one sentence's annotations onto its translation."""
    return next(_project([sentence], backend, scheme, cfg or MatcherConfig(), src_lang, tgt_lang,
                         DEFAULT_MAX_IN_FLIGHT))


@gc_paused()
def project_corpus(
    sentences: list[AnnotatedSentence],
    backend,
    scheme: MarkerScheme,
    cfg: MatcherConfig | None = None,
    src_lang: str = "src",
    tgt_lang: str = "tgt",
    jobs: int = DEFAULT_MAX_IN_FLIGHT,
) -> tuple[list[AnnotatedSentence], ProjectionReport]:
    """Project a corpus; returns projected sentences in input order plus a
    report tallying projected/filtered/failed counts per reason. All items go
    through one translate() call with `jobs` batches in flight; a backend fault
    fails every sentence with an item (through a cache, a miss) in the faulted
    batch. The cyclic collector is off throughout (core.gc_paused): cycles the
    backend makes are freed after it returns."""
    return tally(_project(sentences, backend, scheme, cfg or MatcherConfig(),
                          src_lang, tgt_lang, jobs))


@gc_paused()
def project_qa(
    examples: list[QaExample],
    backend,
    scheme: MarkerScheme,
    src_lang: str = "src",
    tgt_lang: str = "tgt",
) -> tuple[list[QaExample], ProjectionReport]:
    """Projected examples in input order and a report counting examples. Each context,
    its answer marked, and question are two sentences of one _project() call; an example's
    outcome is the first of its two that is not Projected. The collector is off throughout."""
    cfg = MatcherConfig(mode=MATCH_SEQUENTIAL)  # a single span needs no matching
    sentences = [sentence for ex in examples for sentence in (
        AnnotatedSentence(ex.context, (ex.answer,)), AnnotatedSentence(ex.question))]
    outcomes = _project(sentences, backend, scheme, cfg, src_lang, tgt_lang, DEFAULT_MAX_IN_FLIGHT)
    pairs = list(zip(outcomes, outcomes))  # each example's (context, question) outcomes
    _, report = tally(question if context.status == PROJECTED else context
                      for context, question in pairs)
    return [QaExample(ex.id, question.sentence.text, context.sentence.text,
                      context.sentence.spans[0])
            for ex, (context, question) in zip(examples, pairs)
            if context.status == question.status == PROJECTED], report
