"""Synthetic fine-tuning data builder.

Brackets corresponding entities on both sides of a parallel corpus: source
entities are pre-annotated, their translations are located in the target
sentence by string matching, and both occurrences get square brackets.
Pairs with two or more bracketed entities are kept first; the rest are
length-sorted and the output is truncated to the pair budget.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import AnnotatedSentence, LabeledSpan
from .markers import SQUARE_BRACKET, MarkerScheme, insert_markers
from .translate import TranslateRequest, translate

SORT_DESCENDING = "descending"
SORT_ASCENDING = "ascending"


@dataclass(frozen=True)
class ParallelPair:
    src: AnnotatedSentence
    tgt: str


@dataclass(frozen=True)
class FtDataConfig:
    k: int = 5000
    match_case_fold: bool = True
    length_sort: str = SORT_DESCENDING

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("pair budget k must be >= 1")
        if self.length_sort not in (SORT_DESCENDING, SORT_ASCENDING):
            raise ValueError(f"unknown sort direction {self.length_sort!r}")


def match_entity_in_target(
    entity_translation: str,
    tgt: str,
    cfg: FtDataConfig,
    taken: list[tuple[int, int]] | None = None,
) -> tuple[int, int] | None:
    """Leftmost occurrence of the translated entity in the target sentence,
    skipping occurrences that overlap an already-bracketed range."""
    if not entity_translation:
        return None
    haystack = tgt.casefold() if cfg.match_case_fold else tgt
    needle = entity_translation.casefold() if cfg.match_case_fold else entity_translation
    taken = taken or []
    pos = 0
    while True:
        found = haystack.find(needle, pos)
        if found < 0:
            return None
        end = found + len(needle)
        if not any(found < t_end and t_start < end for t_start, t_end in taken):
            return (found, end)
        pos = found + 1


def _bracket(text: str, ranges: list[tuple[int, int]], scheme: MarkerScheme) -> str:
    spans = tuple(
        LabeledSpan(i, s, e, "ENT") for i, (s, e) in enumerate(sorted(ranges))
    )
    return insert_markers(AnnotatedSentence(text, spans), scheme).text


def build_ft_pairs(
    pairs: list[ParallelPair],
    backend,
    cfg: FtDataConfig | None = None,
    src_lang: str = "src",
    tgt_lang: str = "tgt",
) -> list[tuple[str, str]]:
    """Build (marked_src, marked_tgt) training pairs, at most cfg.k of them.

    Pairs with >= 2 bracketed entities come first (in input order); pairs
    with exactly one follow, sorted by source length per cfg.length_sort.
    Backend failures on an entity just skip that entity.
    """
    cfg = cfg or FtDataConfig()
    scheme = MarkerScheme(SQUARE_BRACKET)

    mentions = tuple(text for pair in pairs for text in pair.src.span_texts())
    translated = translate(TranslateRequest(mentions, src_lang, tgt_lang), backend).items

    multi: list[tuple[str, str]] = []
    single: list[tuple[int, str, str]] = []  # (src_len, marked_src, marked_tgt)
    cursor = 0
    for pair in pairs:
        n = len(pair.src.spans)
        items = translated[cursor:cursor + n]
        cursor += n
        src_ranges: list[tuple[int, int]] = []
        tgt_ranges: list[tuple[int, int]] = []
        for span, item in zip(pair.src.spans, items):
            if not item.ok:
                continue
            hit = match_entity_in_target(item.output, pair.tgt, cfg, taken=tgt_ranges)
            if hit is None:
                continue
            src_ranges.append((span.start, span.end))
            tgt_ranges.append(hit)
        if not src_ranges:
            continue
        marked = (_bracket(pair.src.text, src_ranges, scheme),
                  _bracket(pair.tgt, tgt_ranges, scheme))
        if len(src_ranges) >= 2:
            multi.append(marked)
        else:
            single.append((len(pair.src.text), *marked))

    single.sort(key=lambda x: (-x[0] if cfg.length_sort == SORT_DESCENDING else x[0]))
    out = multi + [(s, t) for _, s, t in single]
    return out[: cfg.k]

