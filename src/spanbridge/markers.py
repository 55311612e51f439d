"""Marker schemes for mark-then-translate span projection.

Two halves: deterministic insertion of markers around annotated spans, and
extraction/validation of markers from translated text. All functions are
pure and thread-safe.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .core import AnnotatedSentence

SQUARE_BRACKET = "brackets"
XML_INDEXED = "xml"
DOUBLE_QUOTE = "quotes"
PLACEHOLDER = "placeholder"

SCHEME_KINDS = (SQUARE_BRACKET, XML_INDEXED, DOUBLE_QUOTE, PLACEHOLDER)

VALID = "Valid"
COUNT_MISMATCH = "CountMismatch"
STRUCTURE_ERROR = "StructureError"

# locale quote variants folded back to straight quotes before extraction
_QUOTE_VARIANTS = {
    "«": '"', "»": '"',   # « »
    "“": '"', "”": '"',   # “ ”
    "„": '"', "‟": '"',   # „ ‟
    "‹": '"', "›": '"',   # ‹ ›
    "「": '"', "」": '"',   # 「 」
    "『": '"', "』": '"',   # 『 』
}


class PreexistingMarkerError(ValueError):
    """The source text already contains this scheme's marker characters,
    which would make extraction ambiguous; the sentence should be filtered."""


@dataclass(frozen=True)
class MarkerScheme:
    kind: str = SQUARE_BRACKET
    pad_with_space: bool = True
    placeholder_format: str = "{label}{i}"

    def __post_init__(self):
        if self.kind not in SCHEME_KINDS:
            raise ValueError(f"unknown marker scheme {self.kind!r}")

    def placeholder_token(self, span_id: int, label: str) -> str:
        token = self.placeholder_format.format(label=label, i=span_id)
        if any(c.isspace() for c in token):
            raise ValueError(f"placeholder token {token!r} contains whitespace")
        return token


@dataclass(frozen=True)
class MarkedText:
    """Marked string plus the span-id <-> marker-token map.

    For Placeholder the close_token field records the original span text
    instead of a closing marker.
    """

    text: str
    marker_map: tuple[tuple[int, str, str], ...]
    scheme: MarkerScheme


@dataclass(frozen=True)
class ExtractionResult:
    clean_text: str
    # (marker_id or None for anonymous markers, start, end) in clean_text
    found_spans: tuple[tuple[int | None, int, int], ...]
    status: str
    diagnostic: str = ""

    @property
    def ok(self) -> bool:
        return self.status == VALID


def _xml_tag_name(i: int) -> str:
    # bijective base 26: 0 -> a, 25 -> z, 26 -> aa, ...
    name = ""
    i += 1
    while i > 0:
        i, rem = divmod(i - 1, 26)
        name = chr(ord("a") + rem) + name
    return name


def _marker_tokens(sentence: AnnotatedSentence, scheme: MarkerScheme) -> list[tuple[int, str, str]]:
    """(span_id, open_token, close_token) per span; Placeholder gets
    (span_id, placeholder_token, original_span_text)."""
    out = []
    for span in sentence.spans:
        if scheme.kind == SQUARE_BRACKET:
            out.append((span.id, "[", "]"))
        elif scheme.kind == XML_INDEXED:
            tag = _xml_tag_name(span.id)
            out.append((span.id, f"<{tag}>", f"</{tag}>"))
        elif scheme.kind == DOUBLE_QUOTE:
            out.append((span.id, '"', '"'))
        else:
            out.append((span.id, scheme.placeholder_token(span.id, span.label), span.slice(sentence.text)))
    return out


def insert_markers(sentence: AnnotatedSentence, scheme: MarkerScheme) -> MarkedText:
    """Wrap each annotated span in scheme markers (Placeholder: replace it).

    Insertion proceeds right to left so earlier offsets stay valid. Raises
    PreexistingMarkerError if the source text already contains the marker
    tokens this call would insert.
    """
    marker_map = _marker_tokens(sentence, scheme)
    for _, open_tok, close_tok in marker_map:
        if open_tok in sentence.text or (scheme.kind != PLACEHOLDER and close_tok in sentence.text):
            raise PreexistingMarkerError(
                f"source text already contains marker token {open_tok!r}"
            )
    if scheme.kind != PLACEHOLDER and sentence.spans:
        # bare bracket/quote characters anywhere in the text break extraction
        probe = "[]" if scheme.kind == SQUARE_BRACKET else '"' if scheme.kind == DOUBLE_QUOTE else ""
        for ch in probe:
            if ch in sentence.text:
                raise PreexistingMarkerError(f"source text already contains {ch!r}")
    pad = " " if scheme.pad_with_space else ""
    text = sentence.text
    for span, (_, open_tok, close_tok) in zip(reversed(sentence.spans), reversed(marker_map)):
        if scheme.kind == PLACEHOLDER:
            text = text[: span.start] + open_tok + text[span.end:]
        else:
            text = (
                text[: span.start]
                + open_tok + pad + text[span.start:span.end] + pad + close_tok
                + text[span.end:]
            )
    return MarkedText(text, tuple(marker_map), scheme)


def _fold_quotes(text: str) -> str:
    return "".join(_QUOTE_VARIANTS.get(c, c) for c in text)


def _scan_tokens(text: str, scheme: MarkerScheme) -> list[tuple[int, int, str]]:
    """All marker-token occurrences as (start, end, token), left to right."""
    if scheme.kind == SQUARE_BRACKET:
        pattern = r"[\[\]]"
    elif scheme.kind == DOUBLE_QUOTE:
        pattern = '"'
    else:  # XML_INDEXED: any xml-ish tag, known or not
        pattern = r"</?[a-zA-Z]+>"
    return [(m.start(), m.end(), m.group()) for m in re.finditer(pattern, text)]


def extract_markers(
    translated: str, scheme: MarkerScheme, expected: tuple[tuple[int, str, str], ...]
) -> ExtractionResult:
    """Locate marker pairs in translated text, strip them, and validate.

    Valid iff the number (and, for identity-carrying schemes, the identity)
    of markers matches `expected`, every pair opens before it closes, and no
    two pairs nest or interleave. Padding whitespace immediately inside
    markers is stripped along with them.
    """
    if scheme.kind == PLACEHOLDER:
        return _extract_placeholders(translated, expected)
    text = _fold_quotes(translated) if scheme.kind == DOUBLE_QUOTE else translated
    tokens = _scan_tokens(text, scheme)

    open_for = {}
    close_for = {}
    for span_id, open_tok, close_tok in expected:
        open_for[open_tok] = span_id
        close_for[close_tok] = span_id

    if scheme.kind == XML_INDEXED:
        for _, _, tok in tokens:
            if tok not in open_for and tok not in close_for:
                return ExtractionResult(text, (), COUNT_MISMATCH, f"unknown tag {tok}")
        # garbled tag fragments like "<e，" or a bare "/e>" are structural damage
        well_formed = {(s, e) for s, e, _ in tokens}
        for _, open_tok, close_tok in expected:
            name = open_tok[1:-1]
            for m in re.finditer(rf"</?{re.escape(name)}(?![a-zA-Z>])", text):
                return ExtractionResult(
                    text, (), STRUCTURE_ERROR, f"malformed marker fragment at offset {m.start()}"
                )
            for m in re.finditer(rf"(?<!<)/{re.escape(name)}>", text):
                return ExtractionResult(
                    text, (), STRUCTURE_ERROR, f"malformed marker fragment at offset {m.start()}"
                )

    # pair up tokens; quotes alternate open/close, brackets/xml are distinct
    pairs: list[tuple[int | None, int, int, int, int]] = []  # (id, o_start, o_end, c_start, c_end)
    pending: tuple[int | None, int, int] | None = None  # (id, start, end) of open token
    for start, end, tok in tokens:
        if scheme.kind == DOUBLE_QUOTE:
            is_open = pending is None
        elif scheme.kind == SQUARE_BRACKET:
            is_open = tok == "["
        else:
            is_open = not tok.startswith("</")
        if is_open:
            if pending is not None:
                return ExtractionResult(
                    text, (), STRUCTURE_ERROR, f"marker {tok!r} opened inside another pair"
                )
            marker_id = open_for.get(tok) if scheme.kind == XML_INDEXED else None
            pending = (marker_id, start, end)
        else:
            if pending is None:
                return ExtractionResult(
                    text, (), STRUCTURE_ERROR, f"closing marker {tok!r} without open"
                )
            marker_id, o_start, o_end = pending
            if scheme.kind == XML_INDEXED and close_for.get(tok) != marker_id:
                return ExtractionResult(
                    text, (), STRUCTURE_ERROR, f"close tag {tok} does not match open tag"
                )
            pairs.append((marker_id, o_start, o_end, start, end))
            pending = None

    n_expected = len(expected)
    if pending is not None or len(pairs) != n_expected:
        found = len(tokens)
        return ExtractionResult(
            text, (), COUNT_MISMATCH,
            f"expected {2 * n_expected} markers forming {n_expected} pairs, found {found} markers"
            f" ({len(pairs)} complete pairs)",
        )
    if scheme.kind == XML_INDEXED:
        ids = [p[0] for p in pairs]
        if sorted(ids) != sorted(span_id for span_id, _, _ in expected):
            return ExtractionResult(text, (), COUNT_MISMATCH, "tag identities do not match")

    # rebuild clean text, dropping markers and at most one padding space inside each
    clean_parts: list[str] = []
    found_spans: list[tuple[int | None, int, int]] = []
    cursor = 0
    clean_len = 0
    for marker_id, o_start, o_end, c_start, c_end in pairs:
        before = text[cursor:o_start]
        clean_parts.append(before)
        clean_len += len(before)
        # drop padding plus any whitespace variation the MT system introduced
        stripped = text[o_end:c_start].strip(" ")
        span_start = clean_len
        clean_parts.append(stripped)
        clean_len += len(stripped)
        found_spans.append((marker_id, span_start, clean_len))
        cursor = c_end
    tail = text[cursor:]
    clean_parts.append(tail)
    clean_text = "".join(clean_parts)
    return ExtractionResult(clean_text, tuple(found_spans), VALID)


def _extract_placeholders(
    translated: str, expected: tuple[tuple[int, str, str], ...]
) -> ExtractionResult:
    """Each placeholder token must occur exactly once; decode substitutes the
    recorded original span text back into the sentence."""
    occurrences: list[tuple[int, int, str]] = []  # (pos, span_id, original_text)
    for span_id, token, original in expected:
        positions = [m.start() for m in re.finditer(re.escape(token), translated)]
        if len(positions) != 1:
            return ExtractionResult(
                translated, (), COUNT_MISMATCH,
                f"placeholder {token!r} occurs {len(positions)} times, expected 1",
            )
        occurrences.append((positions[0], span_id, original))
    occurrences.sort()
    lengths = {span_id: len(tok) for span_id, tok, _ in expected}

    clean_parts: list[str] = []
    found: list[tuple[int | None, int, int]] = []
    cursor = 0
    clean_len = 0
    for pos, span_id, original in occurrences:
        if pos < cursor:
            return ExtractionResult(translated, (), STRUCTURE_ERROR, "placeholder tokens overlap")
        before = translated[cursor:pos]
        clean_parts.append(before)
        clean_len += len(before)
        clean_parts.append(original)
        found.append((span_id, clean_len, clean_len + len(original)))
        clean_len += len(original)
        cursor = pos + lengths[span_id]
    clean_parts.append(translated[cursor:])
    return ExtractionResult("".join(clean_parts), tuple(found), VALID)


def strip_markers(text: str, scheme: MarkerScheme) -> str:
    """Best-effort removal of all scheme marker tokens (for BLEU scoring).

    Doubled spaces created by removal are collapsed; result is trimmed.
    Text containing no markers is returned unchanged.
    """
    if scheme.kind == PLACEHOLDER:
        # placeholder tokens are content words in the output; drop the tokens that
        # fit the template, taking any word that starts with a letter as a label
        pattern = re.escape(scheme.placeholder_format).replace(
            re.escape("{label}"), r"[^\W\d]\w*?").replace(re.escape("{i}"), r"\d+")
        stripped = re.sub(rf"(?<![\w]){pattern}(?![\w])", "", text)
    elif scheme.kind == SQUARE_BRACKET:
        stripped = re.sub(r"[\[\]]", "", text)
    elif scheme.kind == DOUBLE_QUOTE:
        folded = _fold_quotes(text)
        stripped = folded.replace('"', "")
        if stripped == folded == text:
            return text
    else:
        stripped = re.sub(r"</?[a-zA-Z]+>", "", text)
    if stripped == text:
        return text
    return re.sub(r" {2,}", " ", stripped).strip()
