"""Mark -> translate -> extract -> assign labels -> filter.

The projection pipeline inserts markers around annotated spans, sends the
marked sentence through a translation backend, recovers the marked spans
from the translation, and attaches labels either by marker identity (XML,
placeholder) or by fuzzy/positional matching against independently
translated mentions (brackets, quotes).
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass, field
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
from .translate import DEFAULT_MAX_IN_FLIGHT, TranslatedItem, TranslateRequest, translate

MATCH_FUZZY = "fuzzy"
MATCH_SEQUENTIAL = "sequential"

FALLBACK_POSITIONAL = "positional"
FALLBACK_DROP = "drop"

PROJECTED = "Projected"
FILTERED = "Filtered"
FAILED = "Failed"


# ---------------------------------------------------------------------------
# Fuzzy ratio (gestalt pattern matching over codepoints, no junk heuristics)


def _longest_match(a: str, b: str, alo: int, ahi: int, blo: int, bhi: int):
    """Longest common substring of a[alo:ahi] and b[blo:bhi].

    Ties go to the earliest start in a, then the earliest start in b.
    """
    best_i, best_j, best_size = alo, blo, 0
    j2len: dict[int, int] = {}
    for i in range(alo, ahi):
        new_j2len: dict[int, int] = {}
        ch = a[i]
        for j in range(blo, bhi):
            if b[j] == ch:
                k = j2len.get(j - 1, 0) + 1
                new_j2len[j] = k
                if k > best_size:
                    best_i, best_j, best_size = i - k + 1, j - k + 1, k
        j2len = new_j2len
    return best_i, best_j, best_size


def _matching_blocks(a: str, b: str, alo: int, ahi: int, blo: int, bhi: int) -> int:
    i, j, k = _longest_match(a, b, alo, ahi, blo, bhi)
    if k == 0:
        return 0
    return (
        k
        + _matching_blocks(a, b, alo, i, blo, j)
        + _matching_blocks(a, b, i + k, ahi, j + k, bhi)
    )


def fuzzy_ratio(a: str, b: str) -> float:
    """Similarity in [0, 1]: 2*M / (len(a) + len(b)), where M is the total
    length of matching blocks found by recursively taking the longest common
    substring and recursing on both remainders. Two empty strings -> 1.0."""
    total = len(a) + len(b)
    if total == 0:
        return 1.0
    m = _matching_blocks(a, b, 0, len(a), 0, len(b))
    return 2.0 * m / total


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
    first without scoring; ratios are computed only for the pairs left.
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
        # sort by descending ratio; ties broken by source span (candidate) order
        scored = sorted(
            ((fuzzy_ratio(bracketed_texts[t], candidate_mentions[c]), c, t)
             for t in range(n) if cand_for[t] is None
             for c in range(n) if not used_cand[c]),
            key=lambda x: (-x[0], x[1], x[2]),
        )
        for ratio, c, t in scored:
            if ratio <= cfg.threshold:
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


@record
class ProjectionOutcome:
    status: str
    reason: str = ""
    sentence: AnnotatedSentence | None = None
    qa: QaExample | None = None
    diagnostics: tuple[str, ...] = ()
    low_confidence: bool = False


@dataclass(slots=True)
class ProjectionReport:
    total: int = 0
    projected: int = 0
    filtered: int = 0
    failed: int = 0
    reasons: dict[str, int] = field(default_factory=dict)

    def add(self, outcome: ProjectionOutcome):
        self.total += 1
        if outcome.status == PROJECTED:
            self.projected += 1
        elif outcome.status == FILTERED:
            self.filtered += 1
        else:
            self.failed += 1
        if outcome.reason:
            self.reasons[outcome.reason] = self.reasons.get(outcome.reason, 0) + 1

    def to_json(self) -> dict:
        return {
            "total": self.total,
            "projected": self.projected,
            "filtered": self.filtered,
            "failed": self.failed,
            "reasons": dict(sorted(self.reasons.items())),
        }


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


def _tally(outcomes: Iterable[ProjectionOutcome]
           ) -> tuple[list[AnnotatedSentence], ProjectionReport]:
    """Projected sentences in order plus the report of all outcomes, in one pass."""
    report = ProjectionReport()
    projected: list[AnnotatedSentence] = []
    for outcome in outcomes:
        report.add(outcome)
        if outcome.status == PROJECTED:
            projected.append(outcome.sentence)
    return projected, report


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
    fails every sentence with an item in the faulted batch. The cyclic
    collector is off throughout (core.gc_paused): cycles the backend makes
    are freed after it returns."""
    return _tally(_project(sentences, backend, scheme, cfg or MatcherConfig(),
                           src_lang, tgt_lang, jobs))


def project_qa(
    example: QaExample,
    backend,
    scheme: MarkerScheme,
    src_lang: str = "src",
    tgt_lang: str = "tgt",
) -> ProjectionOutcome:
    """Project a QA example: the context, its answer marked, and the question, a
    sentence without spans and so sent unmarked, are projected together. The
    example's outcome is the first of the two that is not Projected."""
    cfg = MatcherConfig(mode=MATCH_SEQUENTIAL)  # a single span needs no matching
    sentences = [AnnotatedSentence(example.context, (example.answer,)),
                 AnnotatedSentence(example.question)]
    outcomes = tuple(_project(sentences, backend, scheme, cfg, src_lang, tgt_lang,
                              DEFAULT_MAX_IN_FLIGHT))
    for outcome in outcomes:
        if outcome.status != PROJECTED:
            return outcome
    context, question = [outcome.sentence for outcome in outcomes]
    return ProjectionOutcome(
        PROJECTED, qa=QaExample(example.id, question.text, context.text, context.spans[0]))
