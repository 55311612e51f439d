"""Synthetic fine-tuning data builder.

Brackets corresponding entities on both sides of a parallel corpus: source
entities are pre-annotated, their translations are located in the target
sentence by string matching, and both occurrences get square brackets,
spliced in from the offset ranges.
Pairs with two or more bracketed entities are kept first; the rest are
length-sorted and the output is truncated to the pair budget.
"""

from __future__ import annotations

from .core import AnnotatedSentence, gc_paused, record
from .markers import SQUARE_BRACKET, MarkerScheme, PreexistingMarkerError, mark_ranges
from .translate import TranslateRequest, translate

SORT_DESCENDING = "descending"
SORT_ASCENDING = "ascending"


@record
class ParallelPair:
    src: AnnotatedSentence
    tgt: str


@record
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
    skipping occurrences that overlap an already-bracketed range.

    Offsets index `tgt`. With case folding, a character may fold to several
    ("ß" to "ss"); an occurrence that starts or ends inside such a fold is
    not a match.
    """
    if not entity_translation:
        return None
    haystack = tgt.casefold() if cfg.match_case_fold else tgt
    needle = entity_translation.casefold() if cfg.match_case_fold else entity_translation
    # folded offset -> tgt offset, at character boundaries; needed only when
    # folding changed the length (casefold maps each character on its own)
    to_tgt: dict[int, int] | None = None
    if len(haystack) != len(tgt):
        to_tgt = {}
        folded = 0
        for i, ch in enumerate(tgt):
            to_tgt[folded] = i
            folded += len(ch.casefold())
        to_tgt[folded] = len(tgt)
    pos = 0
    while True:
        found = haystack.find(needle, pos)
        if found < 0:
            return None
        pos = found + 1
        start, end = found, found + len(needle)
        if to_tgt is not None:
            if start not in to_tgt or end not in to_tgt:
                continue
            start, end = to_tgt[start], to_tgt[end]
        for t_start, t_end in taken or ():  # a plain loop: any() would run a generator per call
            if start < t_end and t_start < end:
                break
        else:
            return (start, end)


@gc_paused()
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
    Backend failures on an entity just skip that entity. A pair whose source
    or target already holds a bracket is skipped, like a pair with no
    matched entity, since its markers could not be told apart. The cyclic
    collector is off throughout (core.gc_paused): cycles the backend makes
    are freed after it returns.
    """
    cfg = cfg or FtDataConfig()
    scheme = MarkerScheme(SQUARE_BRACKET)

    mentions = tuple([text for pair in pairs for text in pair.src.span_texts()])
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
        try:
            # source ranges follow the span order; target ones, the match order
            marked = (mark_ranges(pair.src.text, src_ranges, scheme),
                      mark_ranges(pair.tgt, sorted(tgt_ranges), scheme))
        except PreexistingMarkerError:
            continue
        if len(src_ranges) >= 2:
            multi.append(marked)
        else:
            single.append((len(pair.src.text), *marked))

    single.sort(key=lambda x: (-x[0] if cfg.length_sort == SORT_DESCENDING else x[0]))
    out = multi + [(s, t) for _, s, t in single]
    return out[: cfg.k]

