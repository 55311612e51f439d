"""Marker schemes for mark-then-translate span projection.

Two halves: deterministic insertion of markers around annotated spans, and
extraction/validation of markers from translated text. All functions are
pure and thread-safe.

Brackets, xml and quotes wrap each span in an open and a close token; what
sets them apart is one entry each in `_SYNTAX`. Placeholder replaces each
span with a `{label}{id}` word and finds it again by exact match. Every
scheme inserts and extracts through one region splice, `_splice`.
"""

from __future__ import annotations

import functools
import re
from itertools import accumulate
from operator import attrgetter
from typing import Callable, Collection, Iterable, Iterator, Sequence

from .core import AnnotatedSentence, record

SQUARE_BRACKET = "brackets"
XML_INDEXED = "xml"
DOUBLE_QUOTE = "quotes"
PLACEHOLDER = "placeholder"

SCHEME_KINDS = (SQUARE_BRACKET, XML_INDEXED, DOUBLE_QUOTE, PLACEHOLDER)

VALID = "Valid"
COUNT_MISMATCH = "CountMismatch"
STRUCTURE_ERROR = "StructureError"

# locale quote variants folded back to straight quotes: « » “ ” „ ‟ ‹ › 「 」 『 』
# (one regex pass; str.translate looks every character up in a dict)
_LOCALE_QUOTE_RE = re.compile("[«»“”„‟‹›「」『』]")

# placeholder tokens as they may come back: any word starting with a letter, then digits
_PLACEHOLDER_RE = re.compile(r"(?<![\w])[^\W\d]\w*?\d+(?![\w])")


class PreexistingMarkerError(ValueError):
    """The source text already contains this scheme's marker characters,
    which would make extraction ambiguous; the sentence should be filtered."""


@record
class MarkerScheme:
    kind: str = SQUARE_BRACKET
    pad_with_space: bool = True

    def __post_init__(self):
        if self.kind not in SCHEME_KINDS:
            raise ValueError(f"unknown marker scheme {self.kind!r}")


@record
class MarkedText:
    """Marked string plus the span-id <-> marker-token map.

    For Placeholder the close_token field records the original span text
    instead of a closing marker.
    """

    text: str
    marker_map: tuple[tuple[int, str, str], ...]


@record
class ExtractionResult:
    clean_text: str
    # (marker_id or None for anonymous markers, start, end) in clean_text
    found_spans: tuple[tuple[int | None, int, int], ...]
    status: str
    diagnostic: str = ""


def _xml_tag_name(i: int) -> str:
    # bijective base 26: 0 -> a, 25 -> z, 26 -> aa, ...
    name = ""
    i += 1
    while i > 0:
        i, rem = divmod(i - 1, 26)
        name = chr(ord("a") + rem) + name
    return name


def _xml_tags(i: int) -> tuple[str, str]:
    tag = _xml_tag_name(i)
    return f"<{tag}>", f"</{tag}>"


@record
class _Syntax:
    """How a wrapping scheme writes and reads its markers."""

    tokens: Callable[[int], tuple[str, str]]  # span id -> (open, close)
    token_re: re.Pattern  # every marker token, known or not (extraction and stripping)
    close_prefix: str | None  # a token starting with this closes a pair; None: tokens alternate
    identity: bool = False  # tokens name their span, so a pair's span id is read back
    fold_quotes: bool = False

    def fold(self, text: str) -> str:
        return _LOCALE_QUOTE_RE.sub('"', text) if self.fold_quotes else text


_SYNTAX = {
    SQUARE_BRACKET: _Syntax(lambda i: ("[", "]"), re.compile(r"[\[\]]"), "]"),
    XML_INDEXED: _Syntax(_xml_tags, re.compile(r"</?[a-zA-Z]+>"), "</", identity=True),
    DOUBLE_QUOTE: _Syntax(lambda i: ('"', '"'), re.compile('"'), None, fold_quotes=True),
}


_bounds = attrgetter("start", "end")  # span -> (start, end), without a Python-level call


def carries_identity(scheme: MarkerScheme) -> bool:
    """True if the markers name their span, so labels need no matching."""
    return scheme.kind == PLACEHOLDER or _SYNTAX[scheme.kind].identity


def insert_markers(sentence: AnnotatedSentence, scheme: MarkerScheme) -> MarkedText:
    """Wrap each annotated span in scheme markers (Placeholder: replace it).

    Raises PreexistingMarkerError if a source with spans already contains any
    marker token of the scheme, known or not (Placeholder: any of its tokens).
    """
    text = sentence.text
    if scheme.kind == PLACEHOLDER:
        marker_map = tuple([(s.id, f"{s.label}{s.id}", s.slice(text)) for s in sentence.spans])
        found = _find_placeholders(text, {token for _, token, _ in marker_map})
        if found:
            raise PreexistingMarkerError(
                f"source text already contains marker token {found[0].group()!r}")
        regions = [(s.start, s.end, token) for s, (_, token, _) in zip(sentence.spans, marker_map)]
        return MarkedText(_splice(text, regions)[0], marker_map)

    syntax = _SYNTAX[scheme.kind]
    # a list comprehension and map() keep short sentences as fast as before
    marker_map = tuple([(s.id, *syntax.tokens(s.id)) for s in sentence.spans])
    ranges = map(_bounds, sentence.spans)
    return MarkedText(_wrap(text, ranges, marker_map, scheme), marker_map)


def mark_ranges(text: str, ranges: list[tuple[int, int]], scheme: MarkerScheme) -> str:
    """Wrap the i-th [start, end) range of `text` in the markers insert_markers
    gives span i, and return the marked text; no spans are built.

    Raises ValueError unless the ranges are ordered, disjoint, non-empty and
    inside the text, and PreexistingMarkerError as insert_markers does.
    Placeholder has no wrapping markers, so it is not accepted.
    """
    if scheme.kind == PLACEHOLDER:
        raise ValueError("mark_ranges needs a wrapping scheme, not placeholder")
    tokens = _SYNTAX[scheme.kind].tokens
    return _wrap(text, ranges, [(i, *tokens(i)) for i in range(len(ranges))], scheme)


def _splice(text: str, regions: Iterable[tuple[int, int, str]]) -> tuple[str, Iterator[int]]:
    """Replace each (start, end, replacement) region of `text`, left to right;
    return the new text and, lazily, the start and end of each replacement in
    it, one after the other: start 0, end 0, start 1, end 1, ...

    Raises ValueError unless the regions are ordered, disjoint, non-empty and
    inside the text.
    """
    n = len(text)
    pieces = []
    cursor = 0
    for start, end, replacement in regions:
        if not cursor <= start < end <= n:
            raise ValueError(f"range ({start}, {end}) is empty, out of order, overlaps "
                             f"the one before or exceeds text length {n}")
        pieces.append(text[cursor:start])
        pieces.append(replacement)
        cursor = end
    pieces.append(text[cursor:])
    # pieces alternate kept text and replacement, so the running length gives both bounds
    return "".join(pieces), accumulate(map(len, pieces))


def _wrap(text: str, ranges: Iterable[tuple[int, int]],
          marker_map: Sequence[tuple[int, str, str]], scheme: MarkerScheme) -> str:
    """Splice each range's (open, close) marker pair from `marker_map` into `text`."""
    if marker_map:
        syntax = _SYNTAX[scheme.kind]
        # any marker token in the source breaks extraction
        found = syntax.token_re.search(syntax.fold(text))
        if found:
            raise PreexistingMarkerError(
                f"source text already contains marker token {found.group()!r}")
    pad = " " if scheme.pad_with_space else ""
    return _splice(text, [(start, end, f"{open_tok}{pad}{text[start:end]}{pad}{close_tok}")
                          for (start, end), (_, open_tok, close_tok) in zip(ranges, marker_map)])[0]


def _find_placeholders(text: str, tokens: Collection[str]) -> list[re.Match]:
    """The placeholder `tokens` in `text`, left to right, each matched with every
    digit after it: a token followed by a digit, as X1 in X10, is not found."""
    if not any(token in text for token in tokens):  # most sources hold none: skip the pattern
        return []
    labels = frozenset([token.rstrip("0123456789") for token in tokens])
    return [m for m in _label_re(labels).finditer(text) if m.group() in tokens]


@functools.lru_cache(maxsize=1024)
def _label_re(labels: frozenset[str]) -> re.Pattern:
    """One of `labels`, longest first, and every digit after it. It names the
    labels, not the tokens, so one pattern serves each label set."""
    return re.compile(r"(?:%s)\d+" % "|".join(map(re.escape, sorted(labels, key=len)[::-1])))


def _tag_damage(
    text: str, tokens: list[tuple[int, int, str]], known: set[str],
    expected: tuple[tuple[int, str, str], ...],
) -> ExtractionResult | None:
    """An unknown tag, or a garbled fragment of an expected tag such as "<e，"
    or a bare "/e>"; None if the tags are intact."""
    for _, _, tok in tokens:
        if tok not in known:
            return ExtractionResult(text, (), COUNT_MISMATCH, f"unknown tag {tok}")
    for _, open_tok, _ in expected:
        name = re.escape(open_tok[1:-1])
        for pattern in (rf"</?{name}(?![a-zA-Z>])", rf"(?<!<)/{name}>"):
            m = re.search(pattern, text)
            if m:
                return ExtractionResult(
                    text, (), STRUCTURE_ERROR, f"malformed marker fragment at offset {m.start()}"
                )
    return None


def extract_markers(
    translated: str, scheme: MarkerScheme, expected: tuple[tuple[int, str, str], ...]
) -> ExtractionResult:
    """Locate marker pairs in translated text, strip them, and validate.

    Valid iff the number (and, for identity-carrying schemes, the identity)
    of markers matches `expected`, every pair opens before it closes, and no
    two pairs nest or interleave. Padding whitespace immediately inside
    markers is stripped along with them. With nothing expected the
    translation is Valid and unchanged, whatever marker characters it holds.
    """
    if not expected:  # a sentence without spans was sent unmarked
        return ExtractionResult(translated, (), VALID)
    if scheme.kind == PLACEHOLDER:
        return _extract_placeholders(translated, expected)
    syntax = _SYNTAX[scheme.kind]
    text = syntax.fold(translated)
    tokens = [(m.start(), m.end(), m.group()) for m in syntax.token_re.finditer(text)]

    # anonymous markers map to no id, so every pair reads back as None
    open_for: dict[str, int] = {}
    close_for: dict[str, int] = {}
    if syntax.identity:
        open_for = {open_tok: span_id for span_id, open_tok, _ in expected}
        close_for = {close_tok: span_id for span_id, _, close_tok in expected}
        damage = _tag_damage(text, tokens, open_for.keys() | close_for.keys(), expected)
        if damage is not None:
            return damage

    ids: list[int | None] = []  # marker id of each complete pair
    regions: list[tuple[int, int, str]] = []  # (open start, close end, inner text) of each pair
    pending: tuple[int | None, int, int] | None = None  # (id, start, end) of open token
    close_prefix = syntax.close_prefix
    for start, end, tok in tokens:
        is_open = pending is None if close_prefix is None else not tok.startswith(close_prefix)
        if is_open:
            if pending is not None:
                return ExtractionResult(
                    text, (), STRUCTURE_ERROR, f"marker {tok!r} opened inside another pair"
                )
            pending = (open_for.get(tok), start, end)
        else:
            if pending is None:
                return ExtractionResult(
                    text, (), STRUCTURE_ERROR, f"closing marker {tok!r} without open"
                )
            marker_id, o_start, o_end = pending
            if close_for.get(tok) != marker_id:
                return ExtractionResult(
                    text, (), STRUCTURE_ERROR, f"close tag {tok} does not match open tag"
                )
            ids.append(marker_id)
            # drop padding plus any whitespace variation the MT system introduced
            regions.append((o_start, end, text[o_end:start].strip(" ")))
            pending = None

    n_expected = len(expected)
    if pending is not None or len(ids) != n_expected:
        return ExtractionResult(
            text, (), COUNT_MISMATCH,
            f"expected {2 * n_expected} markers forming {n_expected} pairs, "
            f"found {len(tokens)} markers ({len(ids)} complete pairs)",
        )
    if syntax.identity and sorted(ids) != sorted(span_id for span_id, _, _ in expected):
        return ExtractionResult(text, (), COUNT_MISMATCH, "tag identities do not match")
    clean_text, bounds = _splice(text, regions)
    return ExtractionResult(clean_text, tuple(zip(ids, bounds, bounds)), VALID)


def _extract_placeholders(
    translated: str, expected: tuple[tuple[int, str, str], ...]
) -> ExtractionResult:
    """Each placeholder token must occur exactly once; decode substitutes the
    recorded original span text back into the sentence."""
    by_token = {token: (span_id, original) for span_id, token, original in expected}
    matches = _find_placeholders(translated, by_token)
    found = [m.group() for m in matches]
    if not len(found) == len(set(found)) == len(expected):
        for _, token, _ in expected:
            if found.count(token) != 1:
                return ExtractionResult(translated, (), COUNT_MISMATCH, f"placeholder {token!r} "
                                        f"occurs {found.count(token)} times, expected 1")
        # each token occurs once, but two spans share one, as A1 + 2 and A + 12 do
        return ExtractionResult(translated, (), STRUCTURE_ERROR, "placeholder tokens overlap")
    ids, originals = zip(*[by_token[token] for token in found])
    clean_text, bounds = _splice(
        translated, [(m.start(), m.end(), original) for m, original in zip(matches, originals)])
    return ExtractionResult(clean_text, tuple(zip(ids, bounds, bounds)), VALID)


def strip_markers(text: str, scheme: MarkerScheme) -> str:
    """Best-effort removal of all scheme marker tokens (for BLEU scoring).

    Doubled spaces created by removal are collapsed; result is trimmed.
    Text containing no markers is returned unchanged.
    """
    if scheme.kind == PLACEHOLDER:
        # placeholder tokens are content words in the output
        stripped = _PLACEHOLDER_RE.sub("", text)
    else:
        syntax = _SYNTAX[scheme.kind]
        stripped = syntax.token_re.sub("", syntax.fold(text))
    if stripped == text:
        return text
    return re.sub(r" {2,}", " ", stripped).strip()
