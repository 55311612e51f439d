"""Marker schemes for mark-then-translate span projection.

Two halves: deterministic insertion of markers around annotated spans, and
extraction/validation of markers from translated text. All functions are
pure and thread-safe.

Brackets, xml and quotes wrap each span in an open and a close token; what
sets them apart is one entry each in `_SYNTAX`. Span ids run 0..n-1, so a
wrapping scheme's marker map depends only on the span count: all maps of one
scheme are slices of one table. Their extraction reads the marker pairs from
one split of the translation into text and tokens. Placeholder replaces each
span with a `{label}{id}` word and finds it again by exact match, so
`insert_markers` refuses a span followed directly by a digit: the digit would
run on from its token. All insertion, and placeholder extraction, go through
one region splice, `_splice`.
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

# placeholder tokens as they may come back: any word starting with a letter and ending
# in a digit, checked by lookbehind (a lazy \w*?\d+ backtracks quadratically on digits)
_PLACEHOLDER_RE = re.compile(r"(?<!\w)[^\W\d]\w*(?<=\d)(?!\w)")

# a fragment of an xml tag, named by its whole letter run: "<" or "</" and a
# name that no ">" closes (group 1), or "/", a name and ">" with no "<" before
# the "/" (group 2); intact tags match nothing, and no two matches overlap.
# The "<" check comes after the "/", so that every branch starts with a literal
# and `re` skips to the next "<" or "/" instead of trying both at every offset.
_TAG_FRAGMENT_RE = re.compile(r"</?([a-zA-Z]+)(?![a-zA-Z>])|/(?<!</)([a-zA-Z]+)>")


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


def _xml_tags(i: int) -> tuple[str, str]:
    # tag names in bijective base 26: 0 -> a, 25 -> z, 26 -> aa, ...
    tag = ""
    i += 1
    while i > 0:
        i, rem = divmod(i - 1, 26)
        tag = chr(ord("a") + rem) + tag
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

# split() by a token_re wrapped in one group alternates text and tokens, so a
# group of its own would add pieces
assert not any(syntax.token_re.groups for syntax in _SYNTAX.values())
_SPLIT = {kind: re.compile(f"({syntax.token_re.pattern})") for kind, syntax in _SYNTAX.items()}

# per scheme, the marker map of the most spans yet: the map of n spans is its
# first n entries, so the table holds only as many entries as the longest sentence.
# Threads may race to grow it; whichever table is stored last is still correct.
_MAPS: dict[str, tuple[tuple[int, str, str], ...]] = dict.fromkeys(_SYNTAX, ())


def _marker_map(kind: str, n: int) -> tuple[tuple[int, str, str], ...]:
    """(span id, open, close) of spans 0..n-1 under the wrapping scheme `kind`."""
    table = _MAPS[kind]
    if len(table) < n:
        tokens = _SYNTAX[kind].tokens
        table = _MAPS[kind] = table + tuple([(i, *tokens(i)) for i in range(len(table), n)])
    return table[:n]


_bounds = attrgetter("start", "end")  # span -> (start, end), without a Python-level call


def carries_identity(scheme: MarkerScheme) -> bool:
    """True if the markers name their span, so labels need no matching."""
    return scheme.kind == PLACEHOLDER or _SYNTAX[scheme.kind].identity


def insert_markers(sentence: AnnotatedSentence, scheme: MarkerScheme) -> MarkedText:
    """Wrap each annotated span in scheme markers (Placeholder: replace it).

    Raises PreexistingMarkerError if a source with spans already contains any
    marker token of the scheme, known or not (Placeholder: any of its tokens),
    or, for xml, a fragment of one of its own tags such as "<a" or "/a>".
    Placeholder also refuses a span followed directly by a digit (as `\\d`
    matches, which is what str.isdecimal accepts): the digit would run on from
    its token, so LOC0 then 2008 reads back as LOC02008.
    """
    text, spans = sentence.text, sentence.spans
    if scheme.kind == PLACEHOLDER:
        marker_map = tuple([(s.id, f"{s.label}{s.id}", s.slice(text)) for s in spans])
        found = _find_placeholders(text, {token for _, token, _ in marker_map})
        if found:
            raise PreexistingMarkerError(
                f"source text already contains marker token {found[0].group()!r}")
        for s, after in zip(spans, spans[1:] + (None,)):
            # the character after the token: the next token's first if it is glued on
            follows = after.label[0] if after and after.start == s.end else text[s.end:s.end + 1]
            if follows.isdecimal():
                raise PreexistingMarkerError(
                    f"span {s.id} is followed directly by digit {follows!r}, "
                    f"which would extend its placeholder {s.label + str(s.id)!r}")
        regions = [(s.start, s.end, token) for s, (_, token, _) in zip(spans, marker_map)]
        return MarkedText(_splice(text, regions)[0], marker_map)

    marker_map = _marker_map(scheme.kind, len(spans))  # span ids run 0..n-1
    return MarkedText(_wrap(text, map(_bounds, spans), marker_map, scheme), marker_map)


def mark_ranges(text: str, ranges: list[tuple[int, int]], scheme: MarkerScheme) -> str:
    """Wrap the i-th [start, end) range of `text` in the markers insert_markers
    gives span i, and return the marked text; no spans are built.

    Raises ValueError unless the ranges are ordered, disjoint, non-empty and
    inside the text, and PreexistingMarkerError as insert_markers does.
    Placeholder has no wrapping markers, so it is not accepted.
    """
    if scheme.kind == PLACEHOLDER:
        raise ValueError("mark_ranges needs a wrapping scheme, not placeholder")
    return _wrap(text, ranges, _marker_map(scheme.kind, len(ranges)), scheme)


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
        # a fragment of one of this sentence's tags reads back as a damaged tag
        if syntax.identity and (fragments := _tag_fragments(text, marker_map)):
            raise PreexistingMarkerError(
                f"source text already contains marker fragment {fragments[0][2].group()!r}")
    pad = " " if scheme.pad_with_space else ""
    return _splice(text, [(start, end, f"{open_tok}{pad}{text[start:end]}{pad}{close_tok}")
                          for (start, end), (_, open_tok, close_tok) in zip(ranges, marker_map)])[0]


def _find_placeholders(text: str, tokens: Collection[str]) -> list[re.Match]:
    """The placeholder `tokens` in `text`, left to right, each matched with every
    digit after it: a token followed by a digit, as X1 in X10, is not found, but
    one that a longer label runs into, as X1 in 2X1, is."""
    if not any(token in text for token in tokens):  # most sources hold none: skip the pattern
        return []
    pattern = _label_re(frozenset([token.rstrip("0123456789") for token in tokens]))
    found = []
    pos = 0
    while m := pattern.search(text, pos):
        if m.group() in tokens:
            found.append(m)
            pos = m.end()
        else:
            pos = m.start() + 1
    return found


@functools.lru_cache(maxsize=1024)
def _label_re(labels: frozenset[str]) -> re.Pattern:
    """One of `labels`, longest first, and every digit after it. It names the
    labels, not the tokens, so one pattern serves each label set."""
    return re.compile(r"(?:%s)\d+" % "|".join(map(re.escape, sorted(labels, key=len)[::-1])))


def _tag_fragments(
    text: str, marker_map: Sequence[tuple[int, str, str]]
) -> list[tuple[int, int, re.Match]]:
    """(index of the tag in `marker_map`, 1 if opening or 2 if closing, match)
    of each fragment in `text` that names a tag of `marker_map`, left to right."""
    first = _TAG_FRAGMENT_RE.search(text)
    if first is None:  # most texts hold none: skip the match list and the name index
        return []
    index: dict[str, int] = {}
    for i, (_, open_tok, _) in enumerate(marker_map):
        index.setdefault(open_tok[1:-1], i)
    # lastindex is the one group that took part, so it gives kind and name
    return [(index[m[m.lastindex]], m.lastindex, m)
            for m in _TAG_FRAGMENT_RE.finditer(text, first.start()) if m[m.lastindex] in index]


def _tag_damage(
    text: str, tokens: list[str], known: set[str], expected: tuple[tuple[int, str, str], ...],
) -> ExtractionResult | None:
    """An unknown tag, or a garbled fragment of an expected tag such as "<e，"
    or a bare "/e>"; None if the tags are intact."""
    for tok in tokens:
        if tok not in known:
            return ExtractionResult(text, (), COUNT_MISMATCH, f"unknown tag {tok}")
    fragments = _tag_fragments(text, expected)
    if not fragments:
        return None
    # the diagnostic names the first damaged tag of `expected`, opening before closing
    _, _, offset = min((i, kind, m.start()) for i, kind, m in fragments)
    return ExtractionResult(
        text, (), STRUCTURE_ERROR, f"malformed marker fragment at offset {offset}")


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
    # outside text, then token and the text after it, for each token in turn:
    # token j is parts[2j + 1], between the text parts[2j] and parts[2j + 2]
    parts = _SPLIT[scheme.kind].split(text)
    tokens = parts[1::2]

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
    pieces: list[str] = []  # text before each pair's open token, then its stripped inner text
    pending = -1  # index of the open token waiting for its close, or -1
    close_prefix = syntax.close_prefix
    for j, tok in enumerate(tokens):
        is_open = pending < 0 if close_prefix is None else not tok.startswith(close_prefix)
        if is_open:
            if pending >= 0:
                return ExtractionResult(
                    text, (), STRUCTURE_ERROR, f"marker {tok!r} opened inside another pair"
                )
            pending = j
        else:
            if pending < 0:
                return ExtractionResult(
                    text, (), STRUCTURE_ERROR, f"closing marker {tok!r} without open"
                )
            marker_id = open_for.get(tokens[pending])
            if close_for.get(tok) != marker_id:
                return ExtractionResult(
                    text, (), STRUCTURE_ERROR, f"close tag {tok} does not match open tag"
                )
            ids.append(marker_id)
            # a pair's tokens are adjacent (j is pending + 1), so parts[2j] is its inner
            # text; drop padding plus any whitespace variation the MT system introduced
            pieces.append(parts[2 * pending])
            pieces.append(parts[2 * j].strip(" "))
            pending = -1

    n_expected = len(expected)
    if pending >= 0 or len(ids) != n_expected:
        return ExtractionResult(
            text, (), COUNT_MISMATCH,
            f"expected {2 * n_expected} markers forming {n_expected} pairs, "
            f"found {len(tokens)} markers ({len(ids)} complete pairs)",
        )
    if syntax.identity and sorted(ids) != sorted(span_id for span_id, _, _ in expected):
        return ExtractionResult(text, (), COUNT_MISMATCH, "tag identities do not match")
    pieces.append(parts[-1])
    # pieces alternate outside and inner text, so the running length gives both bounds
    bounds = accumulate(map(len, pieces))
    return ExtractionResult("".join(pieces), tuple(zip(ids, bounds, bounds)), VALID)


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
