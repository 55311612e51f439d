import re

import pytest
from hypothesis import example, given, settings, strategies as st

from spanbridge.core import AnnotatedSentence, LabeledSpan
from spanbridge.markers import (
    COUNT_MISMATCH,
    STRUCTURE_ERROR,
    SCHEME_KINDS,
    VALID,
    ExtractionResult,
    MarkerScheme,
    PreexistingMarkerError,
    extract_markers,
    insert_markers,
    mark_ranges,
    strip_markers,
)
from spanbridge.markers import _SYNTAX, _marker_map

CHURCHILL = AnnotatedSentence(
    "Churchill was born in England in 1874 .",
    (
        LabeledSpan(0, 0, 9, "PER"),
        LabeledSpan(1, 22, 29, "LOC"),
        LabeledSpan(2, 33, 37, "DATE"),
    ),
)


class TestInsert:
    def test_square_bracket(self):
        marked = insert_markers(CHURCHILL, MarkerScheme("brackets"))
        assert marked.text == "[ Churchill ] was born in [ England ] in [ 1874 ] ."

    def test_xml_indexed(self):
        marked = insert_markers(CHURCHILL, MarkerScheme("xml"))
        assert marked.text == (
            "<a> Churchill </a> was born in <b> England </b> in <c> 1874 </c> ."
        )

    def test_placeholder(self):
        marked = insert_markers(CHURCHILL, MarkerScheme("placeholder"))
        assert marked.text == "PER0 was born in LOC1 in DATE2 ."
        assert marked.marker_map == (
            (0, "PER0", "Churchill"), (1, "LOC1", "England"), (2, "DATE2", "1874"),
        )

    def test_double_quote(self):
        marked = insert_markers(CHURCHILL, MarkerScheme("quotes"))
        assert marked.text == '" Churchill " was born in " England " in " 1874 " .'

    def test_no_pad(self):
        marked = insert_markers(CHURCHILL, MarkerScheme("brackets", pad_with_space=False))
        assert marked.text == "[Churchill] was born in [England] in [1874] ."

    def test_zero_spans(self):
        sent = AnnotatedSentence("nothing here", ())
        marked = insert_markers(sent, MarkerScheme("brackets"))
        assert marked.text == sent.text
        assert marked.marker_map == ()

    def test_preexisting_marker_rejected(self):
        sent = AnnotatedSentence("a [sic] b", (LabeledSpan(0, 0, 1, "X"),))
        with pytest.raises(PreexistingMarkerError):
            insert_markers(sent, MarkerScheme("brackets"))
        quoted = AnnotatedSentence('he said " hi "', (LabeledSpan(0, 0, 2, "X"),))
        with pytest.raises(PreexistingMarkerError):
            insert_markers(quoted, MarkerScheme("quotes"))
        # locale quotes fold to '"' on extraction, so the probe folds them too
        guillemets = AnnotatedSentence("he said «hi» to Anna", (LabeledSpan(0, 16, 20, "PER"),))
        with pytest.raises(PreexistingMarkerError):
            insert_markers(guillemets, MarkerScheme("quotes"))
        # any tag, not only the ones this sentence would insert
        for text in ("Anna met <q> Bob", "Anna met <b> Bob"):
            tagged = AnnotatedSentence(text, (LabeledSpan(0, 0, 4, "PER"),))
            with pytest.raises(PreexistingMarkerError):
                insert_markers(tagged, MarkerScheme("xml"))

    @pytest.mark.parametrize("text", ["if x<a then b", "path a/a> then b", "x</a", "<a"])
    def test_fragment_of_an_own_tag_rejected(self, text):
        # extraction would read the fragment back as a damaged tag <a> or </a>
        sent = AnnotatedSentence(text, (LabeledSpan(0, len(text) - 1, len(text), "V"),))
        with pytest.raises(PreexistingMarkerError, match="marker fragment"):
            insert_markers(sent, MarkerScheme("xml"))
        with pytest.raises(PreexistingMarkerError, match="marker fragment"):
            mark_ranges(text, [(len(text) - 1, len(text))], MarkerScheme("xml"))

    @pytest.mark.parametrize("text", ["if x<c then b", "x<ab then b", "a</b then b", "x <A b"])
    def test_fragment_of_another_tag_kept(self, text):
        # one span gets tag a, and "<ab" names ab, not a
        sent = AnnotatedSentence(text, (LabeledSpan(0, len(text) - 1, len(text), "V"),))
        marked = insert_markers(sent, MarkerScheme("xml"))
        result = extract_markers(marked.text, MarkerScheme("xml"), marked.marker_map)
        assert (result.status, result.clean_text) == (VALID, text)

    def test_placeholder_token_followed_by_a_digit_is_not_that_token(self):
        scheme = MarkerScheme("placeholder")
        # the span labelled X gets token X1, which X10 holds but is not
        sent = AnnotatedSentence("X10 apples and pears",
                                 (LabeledSpan(0, 4, 10, "Y"), LabeledSpan(1, 15, 20, "X")))
        marked = insert_markers(sent, scheme)
        assert marked.text == "X10 Y0 and X1"
        result = extract_markers(marked.text, scheme, marked.marker_map)
        assert (result.status, result.clean_text) == (VALID, sent.text)
        for text in ("X1  apples and pears", "X1, apples and pears", "aX1 apples and pears"):
            with pytest.raises(PreexistingMarkerError, match="'X1'"):
                insert_markers(AnnotatedSentence(text, sent.spans), scheme)

    @pytest.mark.parametrize("labels", [("X", "X1Y"), ("X1Y", "X"), ("L0", "L1"), ("B2", "B")])
    def test_placeholder_labels_holding_digits(self, labels):
        # X1 begins X1Y0, and B20 and L00 end in more digits than their span ids
        scheme = MarkerScheme("placeholder")
        sent = AnnotatedSentence("a b", (LabeledSpan(0, 0, 1, labels[0]),
                                         LabeledSpan(1, 2, 3, labels[1])))
        marked = insert_markers(sent, scheme)
        result = extract_markers(marked.text, scheme, marked.marker_map)
        assert (result.status, result.clean_text) == (VALID, "a b")
        assert [(i, result.clean_text[s:e]) for i, s, e in result.found_spans] == \
            [(0, "a"), (1, "b")]

    def test_marker_maps_are_shared_per_span_count(self):
        # a 40-span sentence gets tags aa..an past z; a 3-span map is a 40-span map's prefix
        scheme = MarkerScheme("xml")
        long = AnnotatedSentence(" ".join("t" * 40),
                                 tuple(LabeledSpan(i, 2 * i, 2 * i + 1, "X") for i in range(40)))
        tokens = _SYNTAX["xml"].tokens
        long_map = insert_markers(long, scheme).marker_map
        assert long_map[26:] == tuple(
            (i, f"<a{c}>", f"</a{c}>") for i, c in enumerate("abcdefghijklmn", 26))
        short = insert_markers(CHURCHILL, scheme).marker_map
        assert short == tuple((i, *tokens(i)) for i in range(3)) == long_map[:3]
        assert mark_ranges("ab cd", [(0, 2), (3, 5)], scheme) == "<a> ab </a> <b> cd </b>"
        # one tuple per scheme and span count, built once
        assert _marker_map("xml", 40) is long_map
        assert insert_markers(CHURCHILL, scheme).marker_map is short
        assert _marker_map.cache_info().maxsize == 1024

    def test_one_table_entry_per_scheme(self):
        assert SCHEME_KINDS == tuple(_SYNTAX) == ("brackets", "xml", "quotes", "placeholder")
        # each token pattern has the one group that split() keeps
        assert [_SYNTAX[kind].token_re.groups for kind in SCHEME_KINDS] == [1, 1, 1, 1]
        assert [_SYNTAX[kind].identity for kind in SCHEME_KINDS] == [False, True, False, True]

    def test_xml_tag_alphabet_past_z(self):
        spans = tuple(LabeledSpan(i, 2 * i, 2 * i + 1, "X") for i in range(28))
        sent = AnnotatedSentence(" ".join("t" * 1 for _ in range(28)), spans)
        marked = insert_markers(sent, MarkerScheme("xml"))
        assert "<aa>" in marked.text and "<ab>" in marked.text
        result = extract_markers(marked.text, MarkerScheme("xml"), marked.marker_map)
        assert result.status == VALID


class TestExtract:
    def test_valid_brackets_anonymous(self):
        scheme = MarkerScheme("brackets")
        expected = tuple((i, "[", "]") for i in range(5))
        text = "据 [ 记者 ] 报道 [ 离婚 ] 了 [ 一 ] 次 [ 二 ] 和 [ 三 ] 。"
        result = extract_markers(text, scheme, expected)
        assert result.status == VALID
        assert len(result.found_spans) == 5
        assert all(marker_id is None for marker_id, _, _ in result.found_spans)
        assert result.clean_text[result.found_spans[0][1]:result.found_spans[0][2]] == "记者"

    def test_garbled_xml_structure_error(self):
        scheme = MarkerScheme("xml")
        result = extract_markers("据<e>记者<e，报道/e>。", scheme, ((0, "<e>", "</e>"),))
        assert result.status == STRUCTURE_ERROR

    def test_unbalanced_count_mismatch(self):
        scheme = MarkerScheme("brackets")
        expected = ((0, "[", "]"), (1, "[", "]"))
        result = extract_markers("[a] [b", scheme, expected)
        assert result.status == COUNT_MISMATCH

    def test_nested_structure_error(self):
        scheme = MarkerScheme("brackets")
        expected = ((0, "[", "]"), (1, "[", "]"))
        assert extract_markers("[ a [ b ] ]", scheme, expected).status == STRUCTURE_ERROR

    def test_interleaved_xml_structure_error(self):
        scheme = MarkerScheme("xml")
        expected = ((0, "<a>", "</a>"), (1, "<b>", "</b>"))
        result = extract_markers("<a> x <b> y </a> z </b>", scheme, expected)
        assert result.status == STRUCTURE_ERROR

    def test_unknown_tag_count_mismatch(self):
        scheme = MarkerScheme("xml")
        result = extract_markers("<q> x </q>", scheme, ((0, "<a>", "</a>"),))
        assert result.status == COUNT_MISMATCH

    def test_tag_identities_must_match(self):
        # two complete pairs, but both are tag a and none is tag b
        expected = ((0, "<a>", "</a>"), (1, "<b>", "</b>"))
        result = extract_markers("<a> x </a> <a> y </a>", MarkerScheme("xml"), expected)
        assert (result.status, result.diagnostic) == (COUNT_MISMATCH, "tag identities do not match")

    def test_locale_quote_folding(self):
        scheme = MarkerScheme("quotes")
        expected = ((0, '"', '"'),)
        result = extract_markers("он сказал « привет » да", scheme, expected)
        assert result.status == VALID
        marker_id, start, end = result.found_spans[0]
        assert result.clean_text[start:end] == "привет"

    def test_whitespace_variation_same_span_text(self):
        scheme = MarkerScheme("brackets")
        expected = ((0, "[", "]"),)
        for text in ["x [ y ] z", "x [y] z", "x [  y ] z", "x [y ] z"]:
            result = extract_markers(text, scheme, expected)
            assert result.status == VALID
            _, start, end = result.found_spans[0]
            assert result.clean_text[start:end] == "y"

    def test_placeholder_missing_token(self):
        scheme = MarkerScheme("placeholder")
        expected = ((0, "PER0", "Churchill"), (1, "LOC1", "England"))
        result = extract_markers("PER0 was born .", scheme, expected)
        assert result.status == COUNT_MISMATCH

    @pytest.mark.parametrize("a12_count, status, diagnostic", [
        (1, STRUCTURE_ERROR, "placeholder tokens overlap"),
        (2, COUNT_MISMATCH, "placeholder 'A12' occurs 2 times, expected 1"),
    ])
    def test_placeholder_tokens_shared_by_two_spans(self, a12_count, status, diagnostic):
        # span 2 labelled A1 and span 12 labelled A both get the token A12
        labels = ["B"] * 13
        labels[2], labels[12] = "A1", "A"
        sent = AnnotatedSentence(" ".join("abcdefghijklm"), tuple(
            LabeledSpan(i, 2 * i, 2 * i + 1, label) for i, label in enumerate(labels)))
        marked = insert_markers(sent, MarkerScheme("placeholder"))
        assert marked.text.count("A12") == 2
        translated = marked.text.replace("A12", "c", 2 - a12_count)
        result = extract_markers(translated, MarkerScheme("placeholder"), marked.marker_map)
        assert (result.status, result.diagnostic) == (status, diagnostic)

    @pytest.mark.parametrize("kind, text", [
        ("brackets", "a [b] c"),
        ("xml", "a <b>x</b> c"),
        ("quotes", 'a "b" c'),
        ("quotes", "«hi»"),
        ("placeholder", "a PER0 c"),
    ])
    def test_nothing_expected_is_valid_and_unchanged(self, kind, text):
        result = extract_markers(text, MarkerScheme(kind), ())
        assert result == ExtractionResult(text, (), VALID)

    def test_placeholder_decode(self):
        scheme = MarkerScheme("placeholder")
        expected = ((0, "PER0", "Churchill"), (1, "LOC1", "England"))
        result = extract_markers("LOC1 से PER0 थे .", scheme, expected)
        assert result.status == VALID
        spans = {mid: result.clean_text[s:e] for mid, s, e in result.found_spans}
        assert spans == {0: "Churchill", 1: "England"}
        assert result.clean_text == "England से Churchill थे ."


class TestStrip:
    def test_brackets(self):
        assert strip_markers("[ a ] b", MarkerScheme("brackets")) == "a b"

    def test_xml(self):
        assert strip_markers("<a> x </a>.", MarkerScheme("xml")) == "x ."

    def test_no_markers_identity(self):
        assert strip_markers("plain  text", MarkerScheme("brackets")) == "plain  text"

    def test_quotes_with_variants(self):
        assert strip_markers("« a » b", MarkerScheme("quotes")) == "a b"

    def test_placeholder_any_case_label(self):
        scheme = MarkerScheme("placeholder")
        assert strip_markers("PER0 met per1", scheme) == "met"
        assert strip_markers("Loc_2 in 2020 .", scheme) == "in 2020 ."

    # the placeholder pattern before it was made linear: a lazy word run before \d+
    REFERENCE_PLACEHOLDER_RE = re.compile(r"(?<![\w])[^\W\d]\w*?\d+(?![\w])")

    @given(st.text(alphabet="aZж_中文019٣٤０５ .,-'", max_size=40))
    @settings(max_examples=2000)
    def test_placeholder_pattern_matches_the_reference(self, text):
        assert ([m.span() for m in _SYNTAX["placeholder"].token_re.finditer(text)]
                == [m.span() for m in self.REFERENCE_PLACEHOLDER_RE.finditer(text)])

    def test_placeholder_strip_of_a_long_digit_run(self):
        scheme = MarkerScheme("placeholder")
        # the reference pattern backtracks quadratically on these
        assert strip_markers("x a" + "1" * 200_000 + " y", scheme) == "x y"
        assert strip_markers("a" + "1" * 200_000 + "x", scheme) == "a" + "1" * 200_000 + "x"


SENT = st.builds(
    lambda tokens, span_positions: _build_sentence(tokens, span_positions),
    st.lists(st.text(alphabet="abcdefgXYZ中文жли", min_size=1, max_size=5),
             min_size=1, max_size=8),
    st.sets(st.integers(0, 7)),
)


def _build_sentence(tokens, span_positions):
    bounds = []
    offset = 0
    for t in tokens:
        bounds.append((offset, offset + len(t)))
        offset += len(t) + 1
    spans = []
    for pos in sorted(span_positions):
        if pos < len(tokens):
            spans.append(LabeledSpan(len(spans), bounds[pos][0], bounds[pos][1], "X"))
    return AnnotatedSentence(" ".join(tokens), tuple(spans))


# twelve spans of one label: X1 is a prefix of X10 and X11
TWELVE = AnnotatedSentence(" ".join("abcdefghijkl"),
                           tuple(LabeledSpan(i, 2 * i, 2 * i + 1, "X") for i in range(12)))


class TestRoundTripProperties:
    @given(SENT, st.sampled_from(SCHEME_KINDS))
    @example(TWELVE, "placeholder")
    @settings(max_examples=200)
    def test_insert_extract_round_trip(self, sentence, kind):
        scheme = MarkerScheme(kind)
        marked = insert_markers(sentence, scheme)
        result = extract_markers(marked.text, scheme, marked.marker_map)
        assert result.status == VALID
        assert result.clean_text == sentence.text
        recovered = sorted((s, e) for _, s, e in result.found_spans)
        assert recovered == [(s.start, s.end) for s in sentence.spans]

    @given(SENT, st.sampled_from(["brackets", "xml", "quotes"]))
    @settings(max_examples=200)
    def test_strip_recovers_text(self, sentence, kind):
        scheme = MarkerScheme(kind)
        marked = insert_markers(sentence, scheme)
        assert strip_markers(marked.text, scheme) == sentence.text

    @given(SENT)
    @settings(max_examples=200)
    def test_placeholder_substitution_round_trip(self, sentence):
        scheme = MarkerScheme("placeholder")
        marked = insert_markers(sentence, scheme)
        text = marked.text
        # substitute right-to-left by recorded token
        for span_id, token, original in reversed(marked.marker_map):
            idx = text.rfind(token)
            assert idx >= 0
            text = text[:idx] + original + text[idx + len(token):]
        assert text == sentence.text


    @given(SENT)
    @example(TWELVE)
    @settings(max_examples=200)
    def test_placeholder_insert_equals_right_to_left_splice(self, sentence):
        marked = insert_markers(sentence, MarkerScheme("placeholder"))
        text = sentence.text
        for span, (_, token, _) in zip(reversed(sentence.spans), reversed(marked.marker_map)):
            text = text[:span.start] + token + text[span.end:]
        assert marked.text == text


def _splice_right_to_left(sentence, scheme):
    """The reference splice: one concatenation per span, last span first."""
    text = sentence.text
    pad = " " if scheme.pad_with_space else ""
    for span, (_, open_tok, close_tok) in zip(reversed(sentence.spans),
                                              reversed(insert_markers(sentence, scheme).marker_map)):
        text = text[:span.start] + open_tok + pad + text[span.start:span.end] + pad + close_tok \
            + text[span.end:]
    return text


@st.composite
def _ranged_text(draw):
    """A text, clean or holding marker characters, and ordered disjoint ranges in it."""
    text = draw(st.one_of(
        st.text(alphabet="ab中ж ", min_size=1, max_size=20),
        st.lists(st.sampled_from(["a", "中", " ", "[", "]", '"', "«", "<a>", "</b>", "<"]),
                 min_size=1, max_size=10).map("".join)))
    cuts = sorted(draw(st.sets(st.integers(0, len(text)), max_size=8)))
    return text, list(zip(cuts[::2], cuts[1::2]))


class TestMarkRanges:
    @given(_ranged_text(), st.sampled_from(["brackets", "xml", "quotes"]), st.booleans())
    @settings(max_examples=300)
    def test_equals_insert_markers(self, text_ranges, kind, pad):
        text, ranges = text_ranges
        scheme = MarkerScheme(kind, pad_with_space=pad)
        sentence = AnnotatedSentence(
            text, tuple(LabeledSpan(i, s, e, "X") for i, (s, e) in enumerate(ranges)))
        try:
            expected = insert_markers(sentence, scheme).text
        except PreexistingMarkerError as e:
            with pytest.raises(PreexistingMarkerError) as got:
                mark_ranges(text, ranges, scheme)
            assert str(got.value) == str(e)
            return
        assert mark_ranges(text, ranges, scheme) == expected == \
            _splice_right_to_left(sentence, scheme)

    @pytest.mark.parametrize("ranges", [
        [(4, 6), (0, 2)],  # out of order
        [(0, 3), (2, 5)],  # overlapping
        [(2, 2)],  # empty
        [(5, 3)],  # reversed
        [(4, 12)],  # past the end of the text
        [(-1, 2)],  # before the start
    ])
    @pytest.mark.parametrize("kind", ["brackets", "xml", "quotes"])
    def test_bad_ranges_rejected(self, ranges, kind):
        with pytest.raises(ValueError, match=r"^range \(") as got:
            mark_ranges("ab cd ef", ranges, MarkerScheme(kind))
        assert not isinstance(got.value, PreexistingMarkerError)

    def test_placeholder_rejected(self):
        with pytest.raises(ValueError, match="wrapping scheme"):
            mark_ranges("ab cd", [(0, 2)], MarkerScheme("placeholder"))


# translations rich in every scheme's marker characters and in placeholder-like words
DAMAGED = st.lists(
    st.one_of(
        st.text(alphabet='[]"«»“”<>/ abe中', max_size=6),
        st.sampled_from(["<a>", "</a>", "<b>", "</b>", "<a", "/a>", "PER0", "LOC1", "X2", " "]),
    ),
    max_size=12,
).map("".join)


class TestExtractNeverRaises:
    @given(DAMAGED, st.sampled_from(SCHEME_KINDS), st.integers(0, 3), st.booleans())
    @settings(max_examples=300)
    def test_arbitrary_text(self, translated, kind, n_spans, pad):
        scheme = MarkerScheme(kind, pad_with_space=pad)
        labels = ["PER", "LOC", "X"]
        source = AnnotatedSentence(
            " ".join("w" for _ in range(n_spans)),
            tuple(LabeledSpan(i, 2 * i, 2 * i + 1, labels[i]) for i in range(n_spans)),
        )
        result = extract_markers(translated, scheme, insert_markers(source, scheme).marker_map)
        if result.status != VALID:
            return
        bounds = [(s, e) for _, s, e in result.found_spans]
        assert len(bounds) == n_spans
        assert all(0 <= s <= e <= len(result.clean_text) for s, e in bounds)
        assert all(e <= s for (_, e), (s, _) in zip(bounds, bounds[1:]))


def _reference_tag_damage(
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


def _reference_extract_markers(translated, scheme, expected):
    """extract_markers as it was before insertion and extraction shared one
    splice, kept as the reference: one rebuild loop per scheme family, and one
    substring scan per placeholder token."""
    if scheme.kind == "placeholder":
        return _reference_extract_placeholders(translated, expected)
    if not expected:
        return ExtractionResult(translated, (), VALID)
    syntax = _SYNTAX[scheme.kind]
    text = syntax.fold(translated)
    tokens = [(m.start(), m.end(), m.group()) for m in syntax.token_re.finditer(text)]
    open_for, close_for = {}, {}
    if syntax.identity:
        open_for = {open_tok: span_id for span_id, open_tok, _ in expected}
        close_for = {close_tok: span_id for span_id, _, close_tok in expected}
        damage = _reference_tag_damage(text, tokens, open_for.keys() | close_for.keys(), expected)
        if damage is not None:
            return damage
    pairs = []
    pending = None
    for start, end, tok in tokens:
        if syntax.close_prefix is None:
            is_open = pending is None
        else:
            is_open = not tok.startswith(syntax.close_prefix)
        if is_open:
            if pending is not None:
                return ExtractionResult(
                    text, (), STRUCTURE_ERROR, f"marker {tok!r} opened inside another pair")
            pending = (open_for.get(tok), start, end)
        else:
            if pending is None:
                return ExtractionResult(
                    text, (), STRUCTURE_ERROR, f"closing marker {tok!r} without open")
            marker_id, o_start, o_end = pending
            if close_for.get(tok) != marker_id:
                return ExtractionResult(
                    text, (), STRUCTURE_ERROR, f"close tag {tok} does not match open tag")
            pairs.append((marker_id, o_start, o_end, start, end))
            pending = None
    n_expected = len(expected)
    if pending is not None or len(pairs) != n_expected:
        return ExtractionResult(
            text, (), COUNT_MISMATCH,
            f"expected {2 * n_expected} markers forming {n_expected} pairs, "
            f"found {len(tokens)} markers ({len(pairs)} complete pairs)")
    if syntax.identity and sorted(p[0] for p in pairs) != sorted(i for i, _, _ in expected):
        return ExtractionResult(text, (), COUNT_MISMATCH, "tag identities do not match")
    clean_parts, found_spans, cursor, clean_len = [], [], 0, 0
    for marker_id, o_start, o_end, c_start, c_end in pairs:
        before = text[cursor:o_start]
        clean_parts.append(before)
        clean_len += len(before)
        stripped = text[o_end:c_start].strip(" ")
        clean_parts.append(stripped)
        found_spans.append((marker_id, clean_len, clean_len + len(stripped)))
        clean_len += len(stripped)
        cursor = c_end
    clean_parts.append(text[cursor:])
    return ExtractionResult("".join(clean_parts), tuple(found_spans), VALID)


def _reference_extract_placeholders(translated, expected):
    occurrences = []
    for span_id, token, original in expected:
        positions = [m.start() for m in re.finditer(re.escape(token), translated)]
        if len(positions) != 1:
            return ExtractionResult(
                translated, (), COUNT_MISMATCH,
                f"placeholder {token!r} occurs {len(positions)} times, expected 1")
        occurrences.append((positions[0], span_id, original))
    occurrences.sort()
    lengths = {span_id: len(tok) for span_id, tok, _ in expected}
    clean_parts, found, cursor, clean_len = [], [], 0, 0
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


class TestExtractEqualsReference:
    @given(DAMAGED, st.sampled_from(SCHEME_KINDS), st.integers(0, 12), st.booleans())
    @settings(max_examples=500)
    def test_damaged_text(self, translated, kind, n_spans, pad):
        scheme = MarkerScheme(kind, pad_with_space=pad)
        # distinct letter labels: no placeholder token is a prefix of another, such as
        # X1 of X10, where the reference's substring scan differs on purpose
        labels = ["PER", "LOC", "X", "ORG", "DATE", "MISC", "EVT", "GPE", "FAC", "LAW",
                  "NORP", "WORK"]
        source = AnnotatedSentence(
            " ".join("w" for _ in range(n_spans)),
            tuple(LabeledSpan(i, 2 * i, 2 * i + 1, labels[i]) for i in range(n_spans)),
        )
        expected = insert_markers(source, scheme).marker_map
        assert extract_markers(translated, scheme, expected) == \
            _reference_extract_markers(translated, scheme, expected)

    @given(SENT, st.sampled_from(SCHEME_KINDS), st.booleans(), st.booleans())
    @settings(max_examples=300)
    def test_marked_text(self, sentence, kind, pad, reverse):
        scheme = MarkerScheme(kind, pad_with_space=pad)
        marked = insert_markers(sentence, scheme)
        translated = marked.text
        if reverse:  # spans still marked, in another order and with other gaps
            translated = "  ".join(reversed(translated.split(" ")))
        assert extract_markers(translated, scheme, marked.marker_map) == \
            _reference_extract_markers(translated, scheme, marked.marker_map)


class TestTagFragments:
    @given(DAMAGED, st.integers(1, 30))
    @settings(max_examples=500)
    @example("<aa </aa> /aa>", 27)
    @example("/b> <a </b", 2)
    def test_equals_one_search_per_tag(self, translated, n_spans):
        # past 26 spans tags have two-letter names: aa holds a and starts ab
        scheme = MarkerScheme("xml")
        expected = tuple((i, *_SYNTAX["xml"].tokens(i)) for i in range(n_spans))
        assert extract_markers(translated, scheme, expected) == \
            _reference_extract_markers(translated, scheme, expected)

    def test_no_pattern_is_searched_or_built_per_tag(self, monkeypatch):
        scheme = MarkerScheme("xml")
        sentence = AnnotatedSentence(
            " ".join("w" for _ in range(300)),
            tuple(LabeledSpan(i, 2 * i, 2 * i + 1, "X") for i in range(300)))
        marked = insert_markers(sentence, scheme)

        def refuse(*args, **kwargs):
            raise AssertionError("a regex was searched or compiled during extraction")

        monkeypatch.setattr(re, "search", refuse)
        monkeypatch.setattr(re, "compile", refuse)
        result = extract_markers(marked.text, scheme, marked.marker_map)
        assert (result.status, len(result.found_spans)) == (VALID, 300)


@st.composite
def _placeholder_translation(draw):
    """Tokens X0.. in any order, glued to text that may start with a digit or
    hold a stray token, as MT output may."""
    n = draw(st.integers(1, 12))
    tokens = draw(st.permutations([f"X{i}" for i in range(n)]))
    gaps = draw(st.lists(st.sampled_from([" ", "", "a", "0", "7 ", " X1", "X10 ", "中"]),
                         min_size=n + 1, max_size=n + 1))
    return gaps[0] + "".join(t + g for t, g in zip(tokens, gaps[1:])), n


class TestPlaceholderDigits:
    @given(_placeholder_translation())
    @settings(max_examples=400)
    def test_a_token_counts_only_where_no_digit_follows(self, translated_n):
        translated, n = translated_n
        expected = tuple((i, f"X{i}", f"w{i}") for i in range(n))
        result = extract_markers(translated, MarkerScheme("placeholder"), expected)
        # the oracle: every place a token starts and no digit follows it
        found = {token: [m.start() for m in re.finditer(f"(?={token}(?!\\d))", translated)]
                 for _, token, _ in expected}
        assert (result.status == VALID) == all(len(p) == 1 for p in found.values())
        if result.status == VALID:
            clean = translated
            for start, token in sorted(((p[0], t) for t, p in found.items()), reverse=True):
                clean = clean[:start] + "w" + token[1:] + clean[start + len(token):]
            assert result.clean_text == clean
            assert [(i, clean[s:e]) for i, s, e in sorted(result.found_spans)] == \
                [(i, f"w{i}") for i in range(n)]


@st.composite
def _digit_sentence(draw):
    """Words and spans glued to digits of several scripts, with labels that may
    start with a digit: distinct, digit-free at the end, so no two tokens are equal."""
    words = draw(st.lists(st.text(alphabet="ab12２٣中", min_size=1, max_size=3),
                          min_size=1, max_size=6))
    text = "".join(words)
    cuts = sorted(draw(st.sets(st.integers(0, len(text)), max_size=8)))
    ranges = [(a, b) for a, b in zip(cuts, cuts[1:]) if draw(st.booleans())]
    labels = draw(st.lists(st.sampled_from(["X", "LOC", "2X", "٣Y"]),
                           min_size=len(ranges), max_size=len(ranges)))
    return AnnotatedSentence(text, tuple(LabeledSpan(i, a, b, label) for i, ((a, b), label)
                                         in enumerate(zip(ranges, labels))))


class TestCheckTranslatable:
    @pytest.mark.parametrize("text, digit", [("在北京2008年", "2"), ("在北京２００８年", "２"),
                                             ("在北京٣年", "٣")])
    def test_placeholder_span_before_a_digit(self, text, digit):
        sent = AnnotatedSentence(text, (LabeledSpan(0, 1, 3, "LOC"),))
        scheme = MarkerScheme("placeholder")
        # marking refuses it, so `mark` skips it as `project` filters it
        with pytest.raises(PreexistingMarkerError, match=f"span 0 .* digit '{digit}'.* 'LOC0'"):
            insert_markers(sent, scheme)
        for kind in ("brackets", "xml", "quotes"):
            insert_markers(sent, MarkerScheme(kind))

    def test_next_token_starting_with_a_digit(self):
        glued = AnnotatedSentence("ab", (LabeledSpan(0, 0, 1, "LOC"), LabeledSpan(1, 1, 2, "2X")))
        with pytest.raises(PreexistingMarkerError, match="span 0 .* digit '2'"):
            insert_markers(glued, MarkerScheme("placeholder"))
        apart = AnnotatedSentence("a b", (LabeledSpan(0, 0, 1, "LOC"), LabeledSpan(1, 2, 3, "2X")))
        insert_markers(apart, MarkerScheme("placeholder"))

    def test_a_longer_label_running_into_a_token_does_not_hide_it(self):
        # the text's 2 and the token X1 read as 2X1, a 2X placeholder of no span
        sentence = AnnotatedSentence("11a121a", (LabeledSpan(0, 1, 2, "2X"),
                                                 LabeledSpan(1, 5, 6, "X")))
        scheme = MarkerScheme("placeholder")
        marked = insert_markers(sentence, scheme)
        assert marked.text == "12X0a12X1a"
        result = extract_markers(marked.text, scheme, marked.marker_map)
        assert (result.status, result.clean_text) == (VALID, sentence.text)

    @given(_digit_sentence())
    @settings(max_examples=400)
    def test_refused_exactly_when_an_unchanged_translation_does_not_read_back(self, sentence):
        scheme = MarkerScheme("placeholder")
        # the text marking would give, built here so that a refused sentence has one too
        text = sentence.text
        for span in reversed(sentence.spans):
            text = text[:span.start] + f"{span.label}{span.id}" + text[span.end:]
        marker_map = tuple((s.id, f"{s.label}{s.id}", s.slice(sentence.text))
                           for s in sentence.spans)
        result = extract_markers(text, scheme, marker_map)
        try:
            insert_markers(sentence, scheme)
        except PreexistingMarkerError:
            assert result.status != VALID
        else:
            assert (result.status, result.clean_text) == (VALID, sentence.text)


# the str.translate table quote folding used before the regex, kept as the reference
LOCALE_QUOTES = "«»“”„‟‹›「」『』"
REFERENCE_QUOTE_FOLD = str.maketrans(dict.fromkeys(LOCALE_QUOTES, '"'))


class TestQuoteFold:
    def test_every_locale_quote_folds(self):
        fold = _SYNTAX["quotes"].fold
        assert fold(LOCALE_QUOTES + "x") == '"' * len(LOCALE_QUOTES) + "x"
        assert fold("‚‘’'") == "‚‘’'"  # single quotes are not markers

    @given(st.text(alphabet=st.one_of(st.sampled_from(LOCALE_QUOTES + '"\'[]<>'),
                                      st.characters())))
    @settings(max_examples=300)
    def test_equals_the_translate_table(self, text):
        assert _SYNTAX["quotes"].fold(text) == text.translate(REFERENCE_QUOTE_FOLD)

    @pytest.mark.parametrize("kind", ["brackets", "xml"])
    def test_other_schemes_do_not_fold(self, kind):
        assert _SYNTAX[kind].fold("«a»") == "«a»"
