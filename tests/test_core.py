import json

import pytest
from hypothesis import given, settings, strategies as st

from spanbridge import core
from spanbridge.core import (
    JSONL_ENCODER,
    AnnotatedSentence,
    FormatError,
    LabeledSpan,
    QaExample,
    RelationLink,
    bio_from_spans,
    decode_line,
    emit_conll,
    emit_jsonl,
    emit_squad,
    encode_line,
    parse_conll,
    parse_jsonl,
    parse_squad,
    sentence_to_json,
    span_token_ranges,
    spans_from_bio,
    token_bounds,
)

CONLL_FIXTURE = (
    "John\tB-PER\n"
    "lives\tO\n"
    "in\tO\n"
    "New\tB-LOC\n"
    "York\tI-LOC\n"
    "\n"
    "-DOCSTART-\tO\n"
    "\n"
    "Это\tO\n"
    "Москва\tB-LOC\n"
    "\n"
    "no\tO\n"
    "spans\tO\n"
)


class TestParseConll:
    def test_basic(self):
        sents = parse_conll("John\tB-PER\nlives\tO\n")
        assert len(sents) == 1
        assert sents[0].text == "John lives"
        assert sents[0].spans == (LabeledSpan(0, 0, 4, "PER"),)

    def test_empty_input(self):
        assert parse_conll("") == []

    def test_docstart_skipped_and_multibyte(self):
        sents = parse_conll(CONLL_FIXTURE)
        assert len(sents) == 3
        assert sents[1].text == "Это Москва"
        assert sents[1].spans[0].slice(sents[1].text) == "Москва"

    def test_wrong_column_count(self):
        with pytest.raises(FormatError, match="line 2"):
            parse_conll("ok\tO\nbad line without tab\n")

    @pytest.mark.parametrize("text, line", [
        ("New York\tB-LOC\nis\tO\n", 1),
        ("John\tB-PER\n\nlives\tO\nin \tO\n", 4),
    ])
    def test_token_holding_a_space_names_the_line(self, text, line):
        # joined, "New York" would come back from emit_conll as two tokens
        with pytest.raises(FormatError) as raised:
            parse_conll(text)
        assert str(raised.value) == f"line {line}: token holds a space"

    def test_label_change_inside_run_strict(self):
        with pytest.raises(FormatError, match="label change inside run at line 2"):
            parse_conll("John\tB-PER\nSmith\tI-LOC\n")

    @pytest.mark.parametrize("text, message", [
        ("Anna\tO\nYork\tI-LOC\n", "I-LOC without preceding B-LOC at line 2"),
        ("-DOCSTART-\tO\n\n" + "w\tO\n" * 11 + "x\tQ at token 0\n",
         "bad BIO tag 'Q at token 0' at line 14"),
    ])
    def test_bio_error_names_the_line(self, text, message):
        with pytest.raises(FormatError) as raised:
            parse_conll(text)
        assert str(raised.value) == message

    @pytest.mark.parametrize("text, line", [
        ("x\tB-a b\ny\tO\n", 1),
        ("w\tO\nx\tB-\n", 2),
        ("x\tB-X\r\n", 1),
    ], ids=["space", "empty", "carriage-return"])
    def test_bad_label_names_the_line(self, text, line):
        with pytest.raises(FormatError) as raised:
            parse_conll(text)
        assert str(raised.value) == \
            f"span 0: label must be non-empty without whitespace at line {line}"

    def test_stray_i_tag_strict_vs_lenient(self):
        with pytest.raises(FormatError):
            parse_conll("York\tI-LOC\n")
        sents = parse_conll("York\tI-LOC\n", lenient=True)
        assert sents[0].spans == (LabeledSpan(0, 0, 4, "LOC"),)


class TestEmitConll:
    def test_round_trip_fixture(self):
        sents = parse_conll(CONLL_FIXTURE)
        emitted = emit_conll(sents)
        assert parse_conll(emitted) == sents
        # second pass is byte-identical (canonical form)
        assert emit_conll(parse_conll(emitted)) == emitted

    def test_zero_spans_all_o(self):
        out = emit_conll([AnnotatedSentence("a b", ())])
        assert out == "a\tO\nb\tO\n"

    def test_span_off_token_boundary(self):
        sent = AnnotatedSentence("John lives", (LabeledSpan(0, 0, 3, "PER"),))
        with pytest.raises(FormatError, match="span 0"):
            emit_conll([sent])


class TestBioSpans:
    def test_all_o(self):
        assert spans_from_bio(["a", "b"], ["O", "O"]) == []

    def test_multi_token_span(self):
        assert spans_from_bio(["New", "York"], ["B-LOC", "I-LOC"]) == [
            LabeledSpan(0, 0, 8, "LOC")
        ]

    def test_length_mismatch(self):
        with pytest.raises(FormatError, match="length mismatch"):
            spans_from_bio(["a"], ["O", "O"])

    @pytest.mark.parametrize("tokens, tags, token", [
        (["x", "y"], ["B-a b", "O"], 0),
        (["w", "x", "y"], ["O", "B-a b", "I-a b"], 1),
        (["w", "x"], ["B-X", "I-"], 1),
    ], ids=["space", "space-in-a-run", "empty"])
    def test_bad_label_names_the_run_s_first_token(self, tokens, tags, token):
        with pytest.raises(FormatError) as raised:
            spans_from_bio(tokens, tags, lenient=True)
        assert str(raised.value).endswith(
            f": label must be non-empty without whitespace at token {token}")

    def test_adjacent_b_tags(self):
        spans = spans_from_bio(["a", "b"], ["B-X", "B-X"])
        assert [(s.start, s.end) for s in spans] == [(0, 1), (2, 3)]

    def test_bio_from_spans_multi_token(self):
        spans = [LabeledSpan(0, 0, 8, "LOC"), LabeledSpan(1, 13, 16, "PER")]
        assert bio_from_spans(["New", "York", "and", "Bob"], spans) == \
            ["B-LOC", "I-LOC", "O", "B-PER"]

    def test_every_span_checked_for_token_boundaries(self):
        tokens = ["a", "b", "c"]
        assert token_bounds(tokens) == [(0, 1), (2, 3), (4, 5)]
        assert span_token_ranges("a b c", [LabeledSpan(0, 0, 1, "X"),
                                           LabeledSpan(1, 2, 5, "Y")]) == [(0, 1), (1, 3)]
        off = [LabeledSpan(0, 0, 1, "X"), LabeledSpan(1, 2, 4, "Y")]
        for convert, source in ((span_token_ranges, "a b c"), (bio_from_spans, tokens)):
            with pytest.raises(FormatError, match=r"span 1 \(2,4\) not on token boundary"):
                convert(source, off)

    @given(st.data())
    def test_inverse_composition(self, data):
        n = data.draw(st.integers(1, 12))
        tokens = data.draw(st.lists(st.text(alphabet="abcXYZ中ж", min_size=1, max_size=4),
                                    min_size=n, max_size=n))
        tags = []
        prev = "O"
        for _ in range(n):
            options = ["O", "B-PER", "B-LOC"]
            if prev != "O":
                options.append("I-" + prev[2:])
            prev = data.draw(st.sampled_from(options))
            tags.append(prev)
        spans = spans_from_bio(tokens, tags)
        assert bio_from_spans(tokens, spans) == tags


def _reference_spans_from_bio(tokens, tags, lenient=False):
    """spans_from_bio as it was before the shared BIO decoder: a closure closes
    each run and names positions as token indices."""
    if len(tokens) != len(tags):
        raise FormatError(f"length mismatch: {len(tokens)} tokens vs {len(tags)} tags")
    spans = []
    cur_label = None
    cur_first = 0
    cur_end = 0
    bounds = token_bounds(tokens)

    def close_run():
        nonlocal cur_label
        if cur_label is not None:
            try:
                spans.append(LabeledSpan(len(spans), bounds[cur_first][0], cur_end, cur_label))
            except FormatError as e:
                raise FormatError(f"{e} at token {cur_first}") from None
            cur_label = None

    for i, ((_, tok_end), tag) in enumerate(zip(bounds, tags)):
        if tag == "O":
            close_run()
        elif tag.startswith("B-"):
            close_run()
            cur_label, cur_first, cur_end = tag[2:], i, tok_end
        elif tag.startswith("I-"):
            label = tag[2:]
            if cur_label == label:
                cur_end = tok_end
            elif lenient:
                close_run()
                cur_label, cur_first, cur_end = label, i, tok_end
            elif cur_label is None:
                raise FormatError(f"I-{label} without preceding B-{label} at token {i}")
            else:
                raise FormatError(f"label change inside run at token {i}")
        else:
            raise FormatError(f"bad BIO tag {tag!r} at token {i}")
    close_run()
    return spans


def _reference_parse_conll(text, lenient=False):
    """parse_conll as it was before the shared BIO decoder: it read the token
    index back out of _reference_spans_from_bio's message to name the line."""
    sentences = []
    tokens, tags, lines = [], [], []

    def flush():
        nonlocal tokens, tags, lines
        if tokens:
            try:
                spans = _reference_spans_from_bio(tokens, tags, lenient=lenient)
            except FormatError as e:
                msg, at, index = str(e).rpartition(" at token ")
                raise FormatError(f"{msg} at line {lines[int(index)]}" if at else str(e)) from None
            sentences.append(AnnotatedSentence(" ".join(tokens), tuple(spans)))
        tokens, tags, lines = [], [], []

    for lineno, line in enumerate(text.split("\n"), start=1):
        if not line.strip():
            flush()
            continue
        if line.startswith("-DOCSTART-"):
            continue
        parts = line.split("\t")
        if len(parts) != 2:
            raise FormatError(f"line {lineno}: expected 'token<TAB>tag', got {len(parts)} columns")
        if " " in parts[0]:
            raise FormatError(f"line {lineno}: token holds a space")
        tokens.append(parts[0])
        tags.append(parts[1])
        lines.append(lineno)
    flush()
    return sentences


def _result(fn, *args):
    """fn(*args), or the message of the FormatError it raised."""
    try:
        return fn(*args)
    except FormatError as e:
        return "FormatError", str(e)


# well-formed and broken tags: empty labels, labels holding whitespace, tags
# without a B-/I- prefix, and tags holding the text a position is named by
_BIO_TAGS = ["O", "B-X", "I-X", "B-Y", "I-Y", "B-", "I-", "B-a b", "I-a b", "B-X\r", "Q", "I",
             "I-X at token 1", "Q at token 1"]
# an empty token makes an empty span; a token holding a space, a line without
# two columns and a blank line holding a tab are read before any tag
_CONLL_LINES = st.one_of(
    st.builds("{}\t{}".format, st.sampled_from(["x", "éé", ""]), st.sampled_from(_BIO_TAGS)),
    st.sampled_from(["", "", "", "", "", "\t", "\t", "-DOCSTART-\tO", "-DOCSTART-\tO",
                     "a b\tO", "x\tO\tO"]))


class TestBioReference:
    @settings(max_examples=1000, deadline=None)
    @given(st.data(), st.booleans())
    def test_spans_from_bio_equals_the_reference(self, data, lenient):
        n = data.draw(st.integers(0, 8))
        tokens = data.draw(st.lists(st.sampled_from(["x", "éé", "", "a b"]), min_size=n,
                                    max_size=n + data.draw(st.sampled_from([0, 0, 0, 1]))))
        tags = data.draw(st.lists(st.sampled_from(_BIO_TAGS), min_size=n, max_size=n))
        assert _result(spans_from_bio, tokens, tags, lenient) == \
            _result(_reference_spans_from_bio, tokens, tags, lenient)

    @settings(max_examples=1000, deadline=None)
    @given(st.lists(_CONLL_LINES, max_size=14), st.sampled_from(["", "\n", "\n\n"]),
           st.booleans())
    def test_parse_conll_equals_the_reference(self, lines, end, lenient):
        text = "\n".join(lines) + end
        assert _result(parse_conll, text, lenient) == \
            _result(_reference_parse_conll, text, lenient)


SQUAD_FIXTURE = json.dumps(
    {
        "data": [
            {
                "paragraphs": [
                    {
                        "context": "Norman dynasty ruled England.",
                        "qas": [
                            {
                                "answers": [{"answer_start": 21, "text": "England"}],
                                "id": "q1",
                                "question": "Who was ruled?",
                            }
                        ],
                    }
                ],
                "title": "t",
            }
        ],
        "version": "1.1",
    },
    sort_keys=True,
    ensure_ascii=False,
)


class TestSquad:
    def test_minimal_document(self):
        examples = parse_squad(SQUAD_FIXTURE)
        assert len(examples) == 1
        ex = examples[0]
        assert ex.id == "q1"
        assert ex.answer_text == "England"

    def test_offset_mismatch(self):
        bad = SQUAD_FIXTURE.replace('"answer_start": 21', '"answer_start": 3')
        with pytest.raises(FormatError, match="q1"):
            parse_squad(bad)

    def test_round_trip_canonical(self):
        examples = parse_squad(SQUAD_FIXTURE)
        emitted = emit_squad(examples, title="t")
        assert parse_squad(emitted) == examples
        # canonical key ordering: alphabetical, byte-equal with oracle
        assert emitted == json.dumps(json.loads(emitted), sort_keys=True, ensure_ascii=False)

    def test_multibyte_answer_offsets(self):
        doc = {
            "data": [{"paragraphs": [{
                "context": "据报道 丘吉尔 出生",
                "qas": [{"id": "q2", "question": "谁？",
                         "answers": [{"answer_start": 4, "text": "丘吉尔"}]}],
            }], "title": "x"}],
            "version": "1.1",
        }
        ex = parse_squad(json.dumps(doc, ensure_ascii=False))[0]
        assert ex.answer_text == "丘吉尔"
        assert parse_squad(emit_squad([ex], title="x")) == [ex]

    @staticmethod
    def _para(doc):
        return doc["data"][0]["paragraphs"][0]

    @pytest.mark.parametrize("change, message", [
        (lambda doc: [], "AttributeError"),
        (lambda doc: {"data": "x"}, "AttributeError"),
        (lambda doc: TestSquad._para(doc).pop("context"), "KeyError: 'context'"),
        (lambda doc: TestSquad._para(doc)["qas"][0].pop("question"),
         "q1: malformed SQuAD document: KeyError: 'question'"),
        (lambda doc: TestSquad._para(doc)["qas"][0]["answers"][0].update(answer_start="0"),
         "q1: malformed SQuAD document: TypeError"),
        (lambda doc: TestSquad._para(doc).update(context=5),
         "q1: malformed SQuAD document: TypeError"),
        (lambda doc: TestSquad._para(doc)["qas"][0].update(question=7),
         "q1: question must be a string, got int"),
        (lambda doc: TestSquad._para(doc)["qas"].append("q2"), "AttributeError"),
        (lambda doc: TestSquad._para(doc)["qas"][0]["answers"].append(
            {"answer_start": 0, "text": "Norman"}), "q1: expected exactly one answer, got 2"),
    ], ids=["list", "data-str", "no-context", "no-question", "str-start", "int-context",
            "int-question", "str-qa-after-q1", "two-answers"])
    def test_malformed_document_is_a_format_error(self, change, message):
        doc = json.loads(SQUAD_FIXTURE)
        changed = change(doc)
        text = json.dumps(changed if isinstance(changed, (list, dict)) else doc)
        with pytest.raises(FormatError) as raised:
            parse_squad(text)
        assert message in str(raised.value)
        if "q1" not in message:  # raised before any qa was read
            assert "q1" not in str(raised.value)

    def test_json_nested_too_deep_is_a_format_error(self):
        with pytest.raises(FormatError, match="^bad JSON: maximum recursion depth exceeded"):
            parse_squad("[" * 100_000 + "]" * 100_000)

    @pytest.mark.parametrize("start", [True, 0.0, "0"])
    def test_answer_start_must_be_an_integer(self, start):
        # True would slice like 1, so "xab"[True:3] would match the answer
        doc = {"data": [{"paragraphs": [{"context": "xab", "qas": [
            {"id": "q7", "question": "?", "answers": [{"answer_start": start, "text": "ab"}]}]}]}]}
        with pytest.raises(FormatError, match=r"^q7: .*answer_start must be an integer, got "):
            parse_squad(json.dumps(doc))

    @pytest.mark.parametrize("field", ["question", "context"])
    def test_qa_example_rejects_a_non_string(self, field):
        answer = LabeledSpan(0, 0, 1, "ANSWER")
        fields = {"id": "q", "question": "who ?", "context": "ab", "answer": answer}
        with pytest.raises(FormatError, match=f"q: {field} must be a string, got list"):
            QaExample(**{**fields, field: ["ab"]})


_TWO_SPANS = ('{"text": "ab", "spans": [{"start": 0, "end": 1, "label": "X"}, '
              '{"start": 1, "end": 2, "label": "Y"}], ')


class TestJsonl:
    def test_round_trip_with_meta_and_relations(self):
        from conftest import make_corpus

        corpus = make_corpus(50, seed=7, with_relations=True)
        assert parse_jsonl(emit_jsonl(corpus)) == corpus

    def test_bad_line_number(self):
        with pytest.raises(FormatError, match="line 2"):
            parse_jsonl('{"text": "ok", "spans": []}\n{"nope": 1}\n')

    @pytest.mark.parametrize("line, message", [
        ('{"text": "ab", "spans": [{"start": "0", "end": 1, "label": "X"}]}',
         "line 2: span 0: offsets must be integers, got '0' and 1"),
        ('{"text": "ab", "spans": [{"start": 0.0, "end": 2, "label": "X"}]}',
         "line 2: span 0: offsets must be integers, got 0.0 and 2"),
        ('{"text": "ab", "spans": [{"start": 0, "end": 1.5, "label": "X"}]}',
         "line 2: span 0: offsets must be integers, got 0 and 1.5"),
        ('{"text": "ab", "spans": [{"start": 0, "end": true, "label": "X"}]}',
         "line 2: span 0: offsets must be integers, got 0 and True"),
        ('{"text": "ab", "spans": [{"start": 0, "end": 1, "label": 5}]}',
         "line 2: span 0: label must be a string, got int"),
        ('{"text": "ab", "spans": [{"start": 0, "end": 1, "label": ["X"]}]}',
         "line 2: span 0: label must be a string, got list"),
        # a falsy label that is not a string gets the type message too
        ('{"text": "ab", "spans": [{"start": 0, "end": 1, "label": 0}]}',
         "line 2: span 0: label must be a string, got int"),
        ('{"text": "ab", "spans": [{"start": 0, "end": 1, "label": false}]}',
         "line 2: span 0: label must be a string, got bool"),
        ('{"text": "ab", "spans": [{"start": 0, "end": 1, "label": []}]}',
         "line 2: span 0: label must be a string, got list"),
        ('{"text": "ab", "spans": [{"start": 0, "end": 1, "label": null}]}',
         "line 2: span 0: label must be a string, got NoneType"),
        ('{"text": 5}', "line 2: text must be a string, got int"),
        ('["text", "ab"]', "line 2: expected a JSON object, got list"),
        ('"ab"', "line 2: expected a JSON object, got str"),
        ('{"text": "ab", "spans": 5}', "line 2: 'int' object is not iterable"),
        ('{"text": "ab", "relations": [5]}', "line 2: 'int' object is not subscriptable"),
        ('{"text": "ab", "meta": [1, 2]}', "line 2: meta must be a JSON object, got list"),
        ('{"text": "ab", "meta": "ab"}', "line 2: meta must be a JSON object, got str"),
        ('{"text": "ab", "meta": null}', "line 2: meta must be a JSON object, got NoneType"),
        (_TWO_SPANS + '"relations": [{"kind": 5, "head": 0, "tail": 1}]}',
         "line 2: relation kind must be a non-empty string, got 5"),
        (_TWO_SPANS + '"relations": [{"kind": "", "head": 0, "tail": 1}]}',
         "line 2: relation kind must be a non-empty string, got ''"),
        (_TWO_SPANS + '"relations": [{"kind": "R", "head": true, "tail": 0.0}]}',
         "line 2: relation R: head and tail must be integers, got True and 0.0"),
        (_TWO_SPANS + '"relations": [{"kind": "R", "head": 0, "tail": true}]}',
         "line 2: relation R: head and tail must be integers, got 0 and True"),
        (_TWO_SPANS + '"relations": [{"kind": "R", "head": 0, "tail": "1"}]}',
         "line 2: relation R: head and tail must be integers, got 0 and '1'"),
    ])
    def test_wrongly_typed_field_is_a_format_error(self, line, message):
        with pytest.raises(FormatError) as e:
            parse_jsonl('{"text": "ok"}\n' + line + "\n")
        assert str(e.value) == message

    def test_unicode_line_breaks_inside_text_round_trip(self):
        corpus = [AnnotatedSentence(text, (LabeledSpan(0, 0, 1, "X"),))
                  for text in ("a\u2028b", "c\u2029d", "e\x85f", "g\x1ch", "i\x0bj")]
        assert parse_jsonl(emit_jsonl(corpus)) == corpus
        assert parse_jsonl(emit_jsonl(corpus).replace("\n", "\r\n")) == corpus


def _outcome(fn, x):
    """fn(x) as ("value", its repr), or as the type and message of what it
    raised; repr tells 1 from 1.0 and True, and a nan equals itself in it."""
    try:
        return "value", repr(fn(x))
    except Exception as e:  # whatever it raises is compared, not handled
        return type(e), str(e)


def _encode_reference(obj):
    return JSONL_ENCODER.encode(obj) + "\n"


_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda kids: st.lists(kids, max_size=4) | st.dictionaries(st.text(max_size=4), kids,
                                                              max_size=4),
    max_leaves=10)
# spliced into a line: whitespace, a BOM, NUL, a lone surrogate raw and as an
# escape, and pieces that end a value early or leave extra data after it
_SPLICES = ["", " ", "\t", "\r\n", "\n", "\ufeff", "\x00", "\ud800", '"\\ud800"',
            "x", "[", "]", "}", '"', "1", "{} {}"]


@st.composite
def _json_lines(draw):
    """A JSON value's text, maybe damaged, as str or bytes in some encoding,
    maybe cut at any byte."""
    text = json.dumps(draw(_JSON_VALUES), ensure_ascii=draw(st.booleans()))
    for _ in range(draw(st.integers(0, 2))):
        at = draw(st.integers(0, len(text)))
        text = text[:at] + draw(st.sampled_from(_SPLICES)) + text[at:]
    encoding = draw(st.sampled_from([None, "utf-8", "utf-8", "utf-8-sig", "utf-16",
                                     "utf-16-be", "utf-32-le"]))
    if encoding is None:
        return text
    data = text.encode(encoding, "surrogatepass")
    if draw(st.booleans()):
        data = data[:draw(st.integers(0, len(data)))]
    return data


_TEXT = st.text(st.characters(blacklist_categories=("Cs",)) | st.sampled_from(
    ["\x00", "\x1f", "\x7f", "\u2028", "\u2029", "\x85", "\U0001f600", "\ud800", "\\", '"']))


@st.composite
def _records(draw):
    """sentence_to_json of a sentence whose meta holds nested values and
    non-finite floats, a translation cache record, or any JSON value."""
    kind = draw(st.sampled_from(["sentence", "cache", "value"]))
    if kind == "value":
        return draw(_JSON_VALUES)
    if kind == "cache":
        return {"src_lang": draw(_TEXT), "tgt_lang": draw(_TEXT), "input": draw(_TEXT),
                "output": draw(_TEXT)}
    text = draw(_TEXT)
    spans = (LabeledSpan(0, 0, len(text), "X"),) if text else ()
    meta = draw(st.dictionaries(_TEXT, _JSON_VALUES | st.sampled_from(
        [float("nan"), float("inf"), -float("inf"), -0.0, 1e300, [[{"a": [1.5]}]]]), max_size=4))
    relations = (RelationLink("R", 0, 0),) if spans and draw(st.booleans()) else ()
    return sentence_to_json(AnnotatedSentence(text, spans, meta, relations))


_LINES = {
    "space-before": ' {"a": 1}', "crlf-after": b'{"a": 1}\r\n', "bom": "\ufeff{}",
    "bom-bytes": b"\xef\xbb\xbf{}", "nul-inside": "[1, \x00]", "nul-first": b"\x00{}",
    "nul-second": b"1\x00", "surrogate-escape": '"\\ud800"',
    "surrogate-escape-bytes": b'"\\ud800"', "surrogatepass-bytes": b'"\xed\xa0\x80"',
    "cut-utf8": b'"\xc3"', "cut-line": b'{"a": "\xe2\x82', "extra-data": "{} {}",
    "extra-data-bytes": b"1 2", "utf16-bom": b"\xff\xfe{\x00}\x00", "empty": "",
    "empty-bytes": b"", "deep": "[" * 5000 + "]" * 5000, "deep-bytes": b"[" * 5000 + b"]" * 5000,
}
_OBJECTS = {
    "set": {"a": {1, 2}}, "tuple-key": {(1,): 2}, "scalar-keys": {1: "a", 1.5: "b", None: "c"},
    "str": "\ud800\u2028", "nan": float("nan"), "nested": {"b": 1, "a": [{"d": 0, "c": 0}]},
}


class TestLineCodec:
    @settings(max_examples=800, deadline=None)
    @given(_json_lines())
    def test_decode_line_equals_json_loads(self, line):
        assert _outcome(decode_line, line) == _outcome(json.loads, line)

    @pytest.mark.parametrize("line", _LINES.values(), ids=_LINES)
    def test_decode_line_equals_json_loads_on(self, line):
        assert _outcome(decode_line, line) == _outcome(json.loads, line)

    def test_a_whole_utf8_line_is_read_without_json_loads(self, monkeypatch):
        def refuse(line):
            raise AssertionError("json.loads called")
        monkeypatch.setattr(json, "loads", refuse)
        assert decode_line(b'{"input": "\xc3\x9cnal", "n": [1.5, null]}') == \
            {"input": "Ünal", "n": [1.5, None]}
        assert decode_line('"\u2028"') == "\u2028"

    @settings(max_examples=500, deadline=None)
    @given(_records())
    def test_encode_line_equals_the_encoder(self, obj):
        assert _outcome(encode_line, obj) == _outcome(_encode_reference, obj)

    @pytest.mark.parametrize("obj", _OBJECTS.values(), ids=_OBJECTS)
    def test_encode_line_equals_the_encoder_on(self, obj):
        assert _outcome(encode_line, obj) == _outcome(_encode_reference, obj)

    @pytest.mark.parametrize("obj", _OBJECTS.values(), ids=_OBJECTS)
    def test_encode_line_without_a_c_encoder_equals_the_encoder_on(self, obj, monkeypatch):
        # an interpreter built without _json has no C encoder
        monkeypatch.setattr(core, "_C_ENCODER", None)
        assert _outcome(encode_line, obj) == _outcome(_encode_reference, obj)


class TestInvariants:
    def test_overlap_rejected(self):
        with pytest.raises(FormatError, match="overlap"):
            AnnotatedSentence("abcdef", (LabeledSpan(0, 0, 3, "A"), LabeledSpan(1, 2, 5, "B")))

    def test_out_of_range_rejected(self):
        with pytest.raises(FormatError):
            AnnotatedSentence("ab", (LabeledSpan(0, 0, 5, "A"),))

    def test_bad_label(self):
        with pytest.raises(FormatError):
            LabeledSpan(0, 0, 1, "two words")
        with pytest.raises(FormatError):
            LabeledSpan(0, 0, 1, "")

    def test_ids_must_be_ordered(self):
        with pytest.raises(FormatError, match="ids"):
            AnnotatedSentence("abcdef", (LabeledSpan(1, 0, 2, "A"),))

    def test_relation_needs_existing_spans(self):
        from spanbridge.core import RelationLink

        spans = (LabeledSpan(0, 0, 1, "A"), LabeledSpan(1, 2, 3, "B"))
        for head, tail in [(0, 5), (0, 2), (2, 1), (-1, 0), (1, -1)]:
            with pytest.raises(FormatError, match="^relation r references missing span id$"):
                AnnotatedSentence("abc", spans, relations=(RelationLink("r", head, tail),))
        assert AnnotatedSentence("abc", spans, relations=(RelationLink("r", 1, 0),)).relations

    def test_qa_single_answer_label(self):
        with pytest.raises(FormatError):
            QaExample("i", "q", "ctx", LabeledSpan(0, 0, 2, "NOTANSWER"))


class TestOnto:
    SOURCE = AnnotatedSentence(
        "A met B at C", (LabeledSpan(0, 0, 1, "PER"), LabeledSpan(1, 6, 7, "PER"),
                         LabeledSpan(2, 11, 12, "LOC")),
        {"id": "3"}, (RelationLink("MEET", 0, 1), RelationLink("AT", 0, 2)))

    def test_labels_relations_and_meta_follow_their_spans(self):
        out = self.SOURCE.onto("C : B traf A", [(2, 0, 1), (1, 4, 5), (0, 11, 12)])
        assert out == AnnotatedSentence(
            "C : B traf A", (LabeledSpan(0, 0, 1, "LOC"), LabeledSpan(1, 4, 5, "PER"),
                             LabeledSpan(2, 11, 12, "PER")),
            {"id": "3"}, (RelationLink("MEET", 2, 1), RelationLink("AT", 2, 0)))

    def test_in_order_is_the_identity(self):
        source = self.SOURCE
        assert source.onto(source.text, [(s.id, s.start, s.end) for s in source.spans]) == source

    @pytest.mark.parametrize("placed, message", [
        ([(0, 0, 1), (1, 2, 2), (2, 4, 5)], "span 1: invalid offsets [2, 2)"),
        ([(0, 0, 3), (1, 2, 4), (2, 6, 7)], "span 1 overlaps previous span or is out of order"),
        ([(0, 4, 5), (1, 0, 1), (2, 6, 7)], "span 1 overlaps previous span or is out of order"),
        ([(0, 0, 1), (1, 2, 3), (2, 6, 13)], "span 2 end 13 exceeds text length 12"),
    ])
    def test_invalid_target_spans_are_a_format_error(self, placed, message):
        with pytest.raises(FormatError) as e:
            self.SOURCE.onto("C : B traf A", placed)
        assert str(e.value) == message

    @pytest.mark.parametrize("placed", [
        [(0, 0, 1), (1, 2, 3)],
        [(0, 0, 1), (1, 2, 3), (1, 4, 5)],
        [(0, 0, 1), (1, 2, 3), (2, 4, 5), (0, 6, 7)],
    ])
    def test_each_source_span_must_be_placed_once(self, placed):
        with pytest.raises(ValueError, match="exactly once") as e:
            self.SOURCE.onto("C : B traf A", placed)
        assert not isinstance(e.value, FormatError)
