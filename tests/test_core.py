import json

import pytest
from hypothesis import given, strategies as st

from spanbridge.core import (
    AnnotatedSentence,
    FormatError,
    LabeledSpan,
    QaExample,
    RelationLink,
    bio_from_spans,
    emit_conll,
    emit_jsonl,
    emit_squad,
    parse_conll,
    parse_jsonl,
    parse_squad,
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
        assert span_token_ranges(tokens, [LabeledSpan(0, 0, 1, "X"),
                                          LabeledSpan(1, 2, 5, "Y")]) == [(0, 1), (1, 3)]
        off = [LabeledSpan(0, 0, 1, "X"), LabeledSpan(1, 2, 4, "Y")]
        for convert in (span_token_ranges, bio_from_spans):
            with pytest.raises(FormatError, match=r"span 1 \(2,4\) not on token boundary"):
                convert(tokens, off)

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

        with pytest.raises(FormatError, match="relation"):
            AnnotatedSentence("abc", (LabeledSpan(0, 0, 1, "A"),),
                              relations=(RelationLink("r", 0, 5),))

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
