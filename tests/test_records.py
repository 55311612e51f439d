"""Records are slotted dataclasses, frozen where they were and then built by
core.record, and their JSON lines keep the bytes json.dumps(...,
ensure_ascii=False, sort_keys=True) gives."""

import copy
import dataclasses
import inspect
import json
import pickle
import sys

import pytest
from hypothesis import given, settings, strategies as st

from spanbridge import alignproject, core, easyproject, ftdata, markers, metrics, translate
from spanbridge.core import AnnotatedSentence, FormatError, LabeledSpan, RelationLink

SPAN = LabeledSpan(0, 0, 2, "PER")
SENTENCE = AnnotatedSentence("ab cd", (SPAN,), {"i": "0"})
SCHEME = markers.MarkerScheme()

# one instance of every dataclass in the package
SAMPLES = {
    core.LabeledSpan: SPAN,
    core.RelationLink: RelationLink("r", 0, 0),
    core.AnnotatedSentence: SENTENCE,
    core.QaExample: core.QaExample("q0", "who?", "ab cd", LabeledSpan(0, 0, 2, "ANSWER")),
    markers.MarkerScheme: SCHEME,
    markers.MarkedText: markers.insert_markers(SENTENCE, SCHEME),
    markers.ExtractionResult: markers.extract_markers("[ ab ] cd", SCHEME, ((0, "[", "]"),)),
    markers._Syntax: markers._SYNTAX[markers.SQUARE_BRACKET],
    translate.TranslateRequest: translate.TranslateRequest(("ab",), "en", "de"),
    translate.TranslatedItem: translate.TranslatedItem("ab"),
    translate.TranslateResponse: translate.TranslateResponse((translate.TranslatedItem("ab"),)),
    translate.LexiconBackendConfig: translate.LexiconBackendConfig({"ab": "ba"}),
    easyproject.MatcherConfig: easyproject.MatcherConfig(),
    easyproject.Assignment: easyproject.Assignment((0,), False),
    easyproject.ProjectionOutcome: easyproject.ProjectionOutcome(easyproject.PROJECTED),
    easyproject.ProjectionReport: easyproject.ProjectionReport(),
    alignproject.Alignment: alignproject.Alignment({(0, 0)}),
    alignproject.AlignedPair: alignproject.AlignedPair(("ab",), ("ba",),
                                                       alignproject.Alignment({(0, 0)})),
    ftdata.ParallelPair: ftdata.ParallelPair(SENTENCE, "ab cd"),
    ftdata.FtDataConfig: ftdata.FtDataConfig(),
    metrics.BleuConfig: metrics.BleuConfig(),
    metrics.CorpusStats: metrics.corpus_stats([SENTENCE]),
}


@pytest.mark.parametrize("build, error, message", [
    (lambda: markers.MarkerScheme("parens"), ValueError, "unknown marker scheme 'parens'"),
    (lambda: easyproject.MatcherConfig(threshold=1.5), ValueError, "threshold must be in [0, 1]"),
    (lambda: easyproject.MatcherConfig(mode="exact"), ValueError, "unknown matcher mode 'exact'"),
    (lambda: easyproject.MatcherConfig(on_no_match="skip"), ValueError,
     "unknown fallback 'skip'"),
    (lambda: ftdata.FtDataConfig(k=0), ValueError, "pair budget k must be >= 1"),
    (lambda: ftdata.FtDataConfig(length_sort="up"), ValueError, "unknown sort direction 'up'"),
    (lambda: metrics.BleuConfig(max_n=0), ValueError, "max_n must be >= 1"),
    (lambda: translate.TranslateRequest(("ab",), "", "de"), ValueError,
     "src_lang and tgt_lang must be non-empty"),
    (lambda: translate.TranslateRequest(("ab", ""), "en", "de"), ValueError,
     "request items must be non-empty strings"),
    (lambda: translate.TranslateRequest("abc", "en", "de"), ValueError,
     "request items must be a sequence of strings, not one string"),
    (lambda: translate.TranslateRequest(("ab", 5), "en", "de"), ValueError,
     "request items must be strings, got int"),
    (lambda: alignproject.AlignedPair(("ab",), ("ba",), alignproject.Alignment({(0, 1)})),
     FormatError, "alignment link 0-1 out of range"),
    (lambda: core.QaExample("q0", "who?", "ab", LabeledSpan(0, 0, 3, "ANSWER")), FormatError,
     "q0: answer span exceeds context length"),
], ids=["scheme-kind", "threshold", "mode", "fallback", "k", "length-sort", "max-n",
        "request-lang", "request-item", "request-str", "request-item-type", "link-range",
        "answer-past-context"])
def test_record_refuses_a_bad_value(build, error, message):
    with pytest.raises(error) as raised:
        build()
    assert str(raised.value) == message


def test_every_dataclass_has_a_sample():
    found = {cls for module in (alignproject, core, easyproject, ftdata, markers, metrics,
                                translate)
             for _, cls in inspect.getmembers(module, inspect.isclass)
             if dataclasses.is_dataclass(cls) and cls.__module__ == module.__name__}
    assert found == set(SAMPLES)


@pytest.mark.parametrize("cls", list(SAMPLES), ids=lambda cls: cls.__name__)
def test_slotted_without_instance_dict(cls):
    record = SAMPLES[cls]
    assert type(record) is cls
    assert "__slots__" in cls.__dict__
    assert set(cls.__slots__) == {f.name for f in dataclasses.fields(cls)}
    assert not hasattr(record, "__dict__")


@pytest.mark.parametrize("cls", [cls for cls in SAMPLES if cls.__dataclass_params__.frozen],
                         ids=lambda cls: cls.__name__)
def test_frozen_records_stay_frozen(cls):
    record = SAMPLES[cls]
    name = dataclasses.fields(cls)[0].name
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(record, name, getattr(record, name))
    with pytest.raises(dataclasses.FrozenInstanceError):
        delattr(record, name)
    # with slots=True the frozen __setattr__ refers to the class it replaced,
    # so a new name fails with TypeError rather than FrozenInstanceError
    with pytest.raises((AttributeError, TypeError)):
        record.extra = 1


FROZEN = [cls for cls in SAMPLES if cls.__dataclass_params__.frozen]


@pytest.mark.parametrize("cls", FROZEN, ids=lambda cls: cls.__name__)
def test_frozen_records_copy_replace_and_pickle_to_equals(cls):
    record = SAMPLES[cls]
    assert dataclasses.replace(record) == record
    assert copy.copy(record) == record
    if cls is not markers._Syntax:  # it holds a lambda, which pickle cannot name
        loaded = pickle.loads(pickle.dumps(record))
        assert type(loaded) is cls and loaded == record and hash(loaded) == hash(record)


@pytest.mark.parametrize("cls", FROZEN, ids=lambda cls: cls.__name__)
def test_frozen_record_signature_lists_its_fields(cls):
    params = inspect.signature(cls).parameters.values()
    empty = inspect.Parameter.empty
    assert [(p.name, p.kind, p.default, p.annotation) for p in params] == [
        (f.name, inspect.Parameter.POSITIONAL_OR_KEYWORD,
         empty if f.default is dataclasses.MISSING else f.default, f.type)
        for f in dataclasses.fields(cls)]


@pytest.mark.parametrize("cls", FROZEN, ids=lambda cls: cls.__name__)
def test_frozen_records_are_built_by_record(cls):
    # the generated frozen __init__ stores each field with object.__setattr__
    assert cls.__init__.__code__.co_filename == f"<record {cls.__qualname__}>"
    assert cls.__init__.__qualname__ == f"{cls.__qualname__}.__init__"


@pytest.mark.parametrize("field", [
    dataclasses.field(default_factory=list), dataclasses.field(init=False, default=0),
    dataclasses.field(kw_only=True, default=0)], ids=["default_factory", "init", "kw_only"])
def test_record_refuses_a_field_that_is_not_plain(field):
    with pytest.raises(TypeError, match="plain fields only"):
        @core.record
        class NotPlain:
            value: object = field


def test_record_refuses_an_init_only_parameter():
    with pytest.raises(TypeError, match="init-only"):
        @core.record
        class WithInitVar:
            value: dataclasses.InitVar[int]


def test_the_one_mutable_record_takes_no_new_attribute():
    report = easyproject.ProjectionReport()
    report.total = 3
    with pytest.raises(AttributeError):
        report.extra = 1


SPACES = [chr(c) for c in range(sys.maxunicode + 1) if chr(c).isspace()]


def test_every_whitespace_code_point_is_known():
    assert len(SPACES) == 29  # Unicode White_Space plus the four ASCII separators 0x1c-0x1f


@pytest.mark.parametrize("space", SPACES, ids=lambda c: f"U+{ord(c):04X}")
def test_label_with_any_whitespace_is_rejected(space):
    for label in (space, "A" + space, space + "A", "A" + space + "B"):
        with pytest.raises(FormatError, match="label must be non-empty without whitespace"):
            LabeledSpan(0, 0, 1, label)


def test_label_without_whitespace_is_accepted():
    for label in ("PER", "B-LOC", "人名", "\u200b", "\x00", "A\u180eB"):
        assert LabeledSpan(0, 0, 1, label).label == label


def _dumps(obj) -> str:
    return json.dumps(obj, ensure_ascii=False, sort_keys=True)


TRICKY = ["naïve 北京 λόγος", "tab\there", "nul\x00 bell\x07 esc\x1b del\x7f",
          "line\u2028sep\u2029para", "next\x85line", "quote \" back\\slash",
          "\ud7ff\U0001f600", "nbsp\u00a0zwsp\u200b", "crlf\r\nend"]


def test_emit_jsonl_golden_bytes():
    sentences = [AnnotatedSentence(text, (LabeledSpan(0, 0, 1, "X"),), {"k": text},
                                   (RelationLink("r", 0, 0),))
                 for text in TRICKY]
    expected = "".join(_dumps(core.sentence_to_json(s)) + "\n" for s in sentences)
    assert core.emit_jsonl(sentences) == expected
    assert core.parse_jsonl(expected) == sentences


@given(st.lists(st.text(min_size=1), max_size=5))
@settings(max_examples=100)
def test_emit_jsonl_equals_json_dumps(texts):
    sentences = [AnnotatedSentence(t) for t in texts]
    assert core.emit_jsonl(sentences) == "".join(
        _dumps(core.sentence_to_json(s)) + "\n" for s in sentences)


def test_cache_records_golden_bytes(tmp_path):
    path = tmp_path / "cache.jsonl"
    cache = translate.TranslationCache(str(path))
    pairs = [(text, text[::-1]) for text in TRICKY]
    assert cache.put("en", "de", pairs) == len(pairs)
    expected = "".join(
        _dumps({"src_lang": "en", "tgt_lang": "de", "input": i, "output": o}) + "\n"
        for i, o in pairs)
    assert path.read_bytes() == expected.encode("utf-8")
    reloaded = translate.TranslationCache(str(path))
    assert all(reloaded.get("en", "de", i) == o for i, o in pairs)
