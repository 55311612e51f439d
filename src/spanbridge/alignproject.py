"""Word-alignment-based span projection (the traditional baseline).

Alignments are consumed, never computed. A span's token range is mapped to
the min..max of the target tokens its source tokens align to; sentences
with unprojectable or overlapping target spans are filtered, so projected
outputs always keep source-equal span counts, and with them every relation.
"""

from __future__ import annotations

import functools
from itertools import accumulate
from operator import itemgetter

from .core import AnnotatedSentence, FormatError, gc_paused, record, span_token_ranges
from .metrics import FILTERED, PROJECTED, ProjectionOutcome, ProjectionReport, tally


@record
class AlignedPair:
    src_tokens: tuple[str, ...]
    tgt_tokens: tuple[str, ...]
    alignment: frozenset[tuple[int, int]]  # 0-based (source token, target token) links

    def __post_init__(self):
        object.__setattr__(self, "src_tokens", tuple(self.src_tokens))
        object.__setattr__(self, "tgt_tokens", tuple(self.tgt_tokens))
        object.__setattr__(self, "alignment", frozenset(self.alignment))
        if "" in self.tgt_tokens:  # a span on it would be empty
            raise FormatError(f"target token {self.tgt_tokens.index('')} is empty")
        for i, j in self.alignment:
            if not (0 <= i < len(self.src_tokens) and 0 <= j < len(self.tgt_tokens)):
                raise FormatError(f"alignment link {i}-{j} out of range")


@functools.lru_cache(maxsize=4096)
def _link(token: str) -> tuple[int, int] | None:
    """The (i, j) link of one "i-j" token, or None if it is malformed. Aligner
    output repeats a few hundred distinct tokens, so each is parsed once and
    every line holding it shares one tuple."""
    left, sep, right = token.partition("-")
    # isdecimal(), unlike isdigit(), holds only for digits int() reads ("²" is not one)
    if not sep or not left.isdecimal() or not right.isdecimal():
        return None
    return int(left), int(right)


def parse_pharaoh(line: str, n_src: int, n_tgt: int) -> frozenset[tuple[int, int]]:
    """Parse whitespace-separated "i-j" pairs into a deduplicated link set."""
    links = set()
    for pos, token in enumerate(line.split()):
        link = _link(token)
        if link is None:
            raise FormatError(f"malformed alignment pair {token!r} at position {pos}")
        if link[0] >= n_src or link[1] >= n_tgt:
            raise FormatError(
                f"alignment pair {token!r} at position {pos} out of range "
                f"({n_src} source / {n_tgt} target tokens)"
            )
        links.add(link)
    return frozenset(links)


def _target_bounds(links: frozenset[tuple[int, int]]) -> dict[int, list[int]]:
    """Lowest and highest target token index of each aligned source token,
    as a [lo, hi] pair updated in place."""
    bounds: dict[int, list[int]] = {}
    for i, j in links:
        b = bounds.get(i)
        if b is None:
            bounds[i] = [j, j]
        elif j < b[0]:
            b[0] = j
        elif j > b[1]:
            b[1] = j
    return bounds


def project_sentence_aligned(
    sentence: AnnotatedSentence, pair: AlignedPair
) -> ProjectionOutcome:
    """Project all spans of a sentence through a word alignment.

    The sentence must whitespace-tokenize to pair.src_tokens with every span
    on token boundaries (contract error otherwise, checked for every span
    before any is filtered). Unprojectable spans and overlapping projected
    ranges filter the sentence.
    """
    if tuple(sentence.text.split(" ")) != pair.src_tokens:
        raise FormatError("sentence text does not match the aligned source tokens")
    tok_ranges = span_token_ranges(sentence.text, sentence.spans)
    bounds = _target_bounds(pair.alignment)  # once per sentence, not per span

    diagnostics: list[str] = []
    placed: list[tuple[int, int, int]] = []  # (source span id, lo, hi + 1) target tokens
    for span, (first, stop) in zip(sentence.spans, tok_ranges):
        lo = hi = -1
        unaligned = []
        for i in range(first, stop):
            b = bounds.get(i)
            if b is None:
                unaligned.append(i)
            elif lo < 0:
                lo, hi = b
            else:
                if b[0] < lo:
                    lo = b[0]
                if b[1] > hi:
                    hi = b[1]
        if lo < 0:
            return ProjectionOutcome(
                FILTERED, "Unprojectable",
                diagnostics=(f"span {span.id} has no aligned target tokens",),
            )
        if unaligned:
            diagnostics.append(
                f"boundary-risk: span {span.id} has unaligned source tokens {unaligned}; "
                "target range may be truncated"
            )
        placed.append((span.id, lo, hi + 1))

    placed.sort(key=itemgetter(1))
    tgt_tokens = pair.tgt_tokens
    # lengths[k]: the length of tokens 0..k-1, so token k is at lengths[k] + k
    lengths = list(accumulate(map(len, tgt_tokens), initial=0))
    try:  # target tokens are non-empty, so overlap is all that onto() can reject
        out = sentence.onto(" ".join(tgt_tokens),
                            [(s, lengths[lo] + lo, lengths[stop] + stop - 1)
                             for s, lo, stop in placed])
    except FormatError:
        return ProjectionOutcome(FILTERED, "Overlap",
                                 diagnostics=("two spans project to overlapping target ranges",))
    return ProjectionOutcome(PROJECTED, sentence=out, diagnostics=tuple(diagnostics))


@gc_paused()
def project_corpus_aligned(
    sentences: list[AnnotatedSentence], pairs: list[AlignedPair]
) -> tuple[list[AnnotatedSentence], ProjectionReport]:
    """Alignment-based analogue of project_corpus, with the same filtering rule.
    A sentence's contract error names its 1-based position as `line N`."""
    if len(sentences) != len(pairs):
        raise FormatError(f"{len(sentences)} sentences but {len(pairs)} aligned pairs")
    return tally(_project_each(sentences, pairs))


def _project_each(sentences, pairs):
    for n, (sentence, pair) in enumerate(zip(sentences, pairs), start=1):
        try:
            yield project_sentence_aligned(sentence, pair)
        except FormatError as e:
            raise FormatError(f"line {n}: {e}") from None
