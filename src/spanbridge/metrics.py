"""Projection results of either method and their evaluation: outcomes, the
report tallying them, projection rate, corpus BLEU, and corpus statistics."""

from __future__ import annotations

import math
from collections import Counter
from collections.abc import Iterable

from .core import AnnotatedSentence, record

PROJECTED = "Projected"
FILTERED = "Filtered"
FAILED = "Failed"


@record
class ProjectionOutcome:
    status: str
    reason: str = ""
    sentence: AnnotatedSentence | None = None
    diagnostics: tuple[str, ...] = ()
    low_confidence: bool = False


@record
class ProjectionReport:
    total: int = 0
    projected: int = 0
    filtered: int = 0
    failed: int = 0
    reasons: tuple[tuple[str, int], ...] = ()  # (reason, count) pairs in reason order

    def to_json(self) -> dict:
        return {
            "total": self.total,
            "projected": self.projected,
            "filtered": self.filtered,
            "failed": self.failed,
            "reasons": dict(self.reasons),
        }


def tally(outcomes: Iterable[ProjectionOutcome]
          ) -> tuple[list[AnnotatedSentence], ProjectionReport]:
    """Projected sentences in order plus the report of all outcomes, in one pass."""
    projected: list[AnnotatedSentence] = []
    total = filtered = 0
    reasons: Counter = Counter()
    for outcome in outcomes:
        total += 1
        if outcome.status == PROJECTED:
            projected.append(outcome.sentence)
        elif outcome.status == FILTERED:
            filtered += 1
        if outcome.reason:
            reasons[outcome.reason] += 1
    return projected, ProjectionReport(total, len(projected), filtered,
                                       total - len(projected) - filtered,
                                       tuple(sorted(reasons.items())))


def projection_rate(report: ProjectionReport) -> float:
    """Fraction of sentences whose annotations survived projection."""
    if report.total == 0:
        raise ValueError("projection rate undefined: report has no sentences")
    return report.projected / report.total


def _ngrams(tokens: list[str], n: int) -> Counter:
    return Counter(tuple(tokens[i:i + n]) for i in range(len(tokens) - n + 1))


def corpus_bleu(hyps: list[list[str]], refs: list[list[str]], max_n: int = 4) -> float:
    """Corpus BLEU with clipped n-gram counts and brevity penalty.

    Single reference per hypothesis, n-gram orders 1..max_n. Precisions are
    summed corpus-wide; orders with zero hypothesis n-grams corpus-wide are
    excluded from the geometric mean, and there is no other smoothing.
    BP = 1 if the hypothesis corpus is longer than the reference corpus,
    else exp(1 - r/c). Any defined precision of zero gives score 0.
    """
    if max_n < 1:
        raise ValueError("max_n must be >= 1")
    if len(hyps) != len(refs):
        raise ValueError(f"{len(hyps)} hypotheses but {len(refs)} references")
    if not hyps:
        raise ValueError("empty corpus")
    hyp_len = sum(len(h) for h in hyps)
    ref_len = sum(len(r) for r in refs)
    if hyp_len == 0:
        return 0.0

    matched = [0] * max_n
    total = [0] * max_n
    for hyp, ref in zip(hyps, refs):
        for n in range(1, max_n + 1):
            hyp_counts = _ngrams(hyp, n)
            if not hyp_counts:
                continue
            ref_counts = _ngrams(ref, n)
            total[n - 1] += sum(hyp_counts.values())
            matched[n - 1] += sum(
                min(count, ref_counts.get(gram, 0)) for gram, count in hyp_counts.items()
            )

    defined = [(m, t) for m, t in zip(matched, total) if t > 0]
    if not defined or any(m == 0 for m, _ in defined):
        return 0.0
    log_precision = sum(math.log(m / t) for m, t in defined) / len(defined)
    bp = 1.0 if hyp_len > ref_len else math.exp(1.0 - ref_len / hyp_len)
    return bp * math.exp(log_precision)


def corpus_stats(sentences: list[AnnotatedSentence]) -> dict:
    """Whitespace-token and span counts averaged over the corpus, and the
    span count of each label, as the JSON object `stats` prints."""
    if not sentences:
        raise ValueError("corpus statistics undefined for an empty corpus")
    n = len(sentences)
    tokens = sum(len(s.text.split()) for s in sentences)
    spans = sum(len(s.spans) for s in sentences)
    hist = Counter(span.label for s in sentences for span in s.spans)
    return {
        "n_sentences": n,
        "avg_tokens_per_sentence": tokens / n,
        "avg_spans_per_sentence": spans / n,
        "label_histogram": dict(sorted(hist.items())),
    }
