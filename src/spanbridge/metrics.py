"""Evaluation: projection rate, corpus BLEU, and corpus statistics."""

from __future__ import annotations

import math
from collections import Counter
from typing import TYPE_CHECKING

from .core import AnnotatedSentence, record

if TYPE_CHECKING:  # an annotation only: metrics loads core alone
    from .easyproject import ProjectionReport


def projection_rate(report: ProjectionReport) -> float:
    """Fraction of sentences whose annotations survived projection."""
    if report.total == 0:
        raise ValueError("projection rate undefined: report has no sentences")
    return report.projected / report.total


@record
class BleuConfig:
    max_n: int = 4
    # orders with zero hypothesis n-grams corpus-wide are excluded from the
    # geometric mean; there is no other smoothing

    def __post_init__(self):
        if self.max_n < 1:
            raise ValueError("max_n must be >= 1")


def _ngrams(tokens: list[str], n: int) -> Counter:
    return Counter(tuple(tokens[i:i + n]) for i in range(len(tokens) - n + 1))


def corpus_bleu(
    hyps: list[list[str]], refs: list[list[str]], cfg: BleuConfig | None = None
) -> float:
    """Corpus BLEU with clipped n-gram counts and brevity penalty.

    Single reference per hypothesis. Precisions are summed corpus-wide;
    BP = 1 if the hypothesis corpus is longer than the reference corpus,
    else exp(1 - r/c). Any defined precision of zero gives score 0.
    """
    cfg = cfg or BleuConfig()
    if len(hyps) != len(refs):
        raise ValueError(f"{len(hyps)} hypotheses but {len(refs)} references")
    if not hyps:
        raise ValueError("empty corpus")
    hyp_len = sum(len(h) for h in hyps)
    ref_len = sum(len(r) for r in refs)
    if hyp_len == 0:
        return 0.0

    matched = [0] * cfg.max_n
    total = [0] * cfg.max_n
    for hyp, ref in zip(hyps, refs):
        for n in range(1, cfg.max_n + 1):
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


@record
class CorpusStats:
    n_sentences: int
    avg_tokens_per_sentence: float
    avg_spans_per_sentence: float
    label_histogram: tuple[tuple[str, int], ...]

    def to_json(self) -> dict:
        return {
            "n_sentences": self.n_sentences,
            "avg_tokens_per_sentence": self.avg_tokens_per_sentence,
            "avg_spans_per_sentence": self.avg_spans_per_sentence,
            "label_histogram": dict(self.label_histogram),
        }


def corpus_stats(sentences: list[AnnotatedSentence]) -> CorpusStats:
    """Whitespace-token and span counts averaged over the corpus."""
    if not sentences:
        raise ValueError("corpus statistics undefined for an empty corpus")
    n = len(sentences)
    tokens = sum(len(s.text.split()) for s in sentences)
    spans = sum(len(s.spans) for s in sentences)
    hist = Counter(span.label for s in sentences for span in s.spans)
    return CorpusStats(
        n_sentences=n,
        avg_tokens_per_sentence=tokens / n,
        avg_spans_per_sentence=spans / n,
        label_histogram=tuple(sorted(hist.items())),
    )
