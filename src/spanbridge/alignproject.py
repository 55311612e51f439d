"""Word-alignment-based span projection (the traditional baseline).

Alignments are consumed, never computed. A span's token range is mapped to
the min..max of the target tokens its source tokens align to; sentences
with unprojectable or overlapping target spans are filtered, so projected
outputs always keep source-equal span counts, and with them every relation.
"""

from __future__ import annotations

from operator import itemgetter

from .core import (AnnotatedSentence, FormatError, gc_paused, record, span_token_ranges,
                   token_bounds)
from .easyproject import FILTERED, PROJECTED, ProjectionOutcome, ProjectionReport, _tally


@record
class Alignment:
    """0-based (src_token_index, tgt_token_index) link set."""

    links: frozenset[tuple[int, int]]

    def __post_init__(self):
        object.__setattr__(self, "links", frozenset(self.links))


@record
class AlignedPair:
    src_tokens: tuple[str, ...]
    tgt_tokens: tuple[str, ...]
    alignment: Alignment

    def __post_init__(self):
        object.__setattr__(self, "src_tokens", tuple(self.src_tokens))
        object.__setattr__(self, "tgt_tokens", tuple(self.tgt_tokens))
        if "" in self.tgt_tokens:  # a span on it would be empty
            raise FormatError(f"target token {self.tgt_tokens.index('')} is empty")
        for i, j in self.alignment.links:
            if not (0 <= i < len(self.src_tokens) and 0 <= j < len(self.tgt_tokens)):
                raise FormatError(f"alignment link {i}-{j} out of range")


def parse_pharaoh(line: str, n_src: int, n_tgt: int) -> Alignment:
    """Parse whitespace-separated "i-j" pairs into a deduplicated link set."""
    links = set()
    for pos, token in enumerate(line.split()):
        left, sep, right = token.partition("-")
        # isdecimal(), unlike isdigit(), holds only for digits int() reads ("²" is not one)
        if not sep or not left.isdecimal() or not right.isdecimal():
            raise FormatError(f"malformed alignment pair {token!r} at position {pos}")
        i, j = int(left), int(right)
        if i >= n_src or j >= n_tgt:
            raise FormatError(
                f"alignment pair {token!r} at position {pos} out of range "
                f"({n_src} source / {n_tgt} target tokens)"
            )
        links.add((i, j))
    return Alignment(frozenset(links))


def _target_bounds(alignment: Alignment) -> dict[int, tuple[int, int]]:
    """Lowest and highest target token index of each aligned source token."""
    bounds: dict[int, tuple[int, int]] = {}
    for i, j in alignment.links:
        lo, hi = bounds.get(i, (j, j))
        bounds[i] = (lo if lo < j else j, hi if hi > j else j)
    return bounds


def _project_range(span_range: tuple[int, int], bounds: dict[int, tuple[int, int]]
                   ) -> tuple[int, int] | None:
    lo = hi = None
    for i in range(*span_range):
        b = bounds.get(i)
        if b is not None:
            if lo is None or b[0] < lo:
                lo = b[0]
            if hi is None or b[1] > hi:
                hi = b[1]
    return None if lo is None else (lo, hi + 1)


def project_span_aligned(span_range: tuple[int, int], alignment: Alignment) -> tuple[int, int] | None:
    """Map a [s, e) source token range to the min..max covered target range.

    Returns None (unprojectable) when no source token in the range is aligned.
    """
    return _project_range(span_range, _target_bounds(alignment))


def project_sentence_aligned(
    sentence: AnnotatedSentence, pair: AlignedPair
) -> ProjectionOutcome:
    """Project all spans of a sentence through a word alignment.

    The sentence must whitespace-tokenize to pair.src_tokens with every span
    on token boundaries (contract error otherwise). Unprojectable spans and
    overlapping projected ranges filter the sentence.
    """
    if tuple(sentence.text.split(" ")) != pair.src_tokens:
        raise FormatError("sentence text does not match the aligned source tokens")
    tok_ranges = span_token_ranges(pair.src_tokens, sentence.spans)
    bounds = _target_bounds(pair.alignment)  # once per sentence, not per span
    tgt_bounds = token_bounds(pair.tgt_tokens)

    diagnostics: list[str] = []
    placed: list[tuple[int, int, int]] = []  # (source span id, start, end) in the target text
    for span, tok_range in zip(sentence.spans, tok_ranges):
        target = _project_range(tok_range, bounds)
        if target is None:
            return ProjectionOutcome(
                FILTERED, "Unprojectable",
                diagnostics=(f"span {span.id} has no aligned target tokens",),
            )
        unaligned = [i for i in range(*tok_range) if i not in bounds]
        if unaligned:
            diagnostics.append(
                f"boundary-risk: span {span.id} has unaligned source tokens {unaligned}; "
                "target range may be truncated"
            )
        placed.append((span.id, tgt_bounds[target[0]][0], tgt_bounds[target[1] - 1][1]))

    placed.sort(key=itemgetter(1))
    try:  # target tokens are non-empty, so overlap is all that onto() can reject
        out = sentence.onto(" ".join(pair.tgt_tokens), placed)
    except FormatError:
        return ProjectionOutcome(FILTERED, "Overlap",
                                 diagnostics=("two spans project to overlapping target ranges",))
    return ProjectionOutcome(PROJECTED, sentence=out, diagnostics=tuple(diagnostics))


@gc_paused()
def project_corpus_aligned(
    sentences: list[AnnotatedSentence], pairs: list[AlignedPair]
) -> tuple[list[AnnotatedSentence], ProjectionReport]:
    """Alignment-based analogue of project_corpus, with the same filtering rule."""
    if len(sentences) != len(pairs):
        raise FormatError(
            f"{len(sentences)} sentences but {len(pairs)} aligned pairs"
        )
    return _tally(map(project_sentence_aligned, sentences, pairs))
