import pytest

from conftest import annotate_with_gazetteer, make_corpus
from spanbridge.core import AnnotatedSentence, LabeledSpan
from spanbridge.ftdata import (
    FtDataConfig,
    ParallelPair,
    build_ft_pairs,
    match_entity_in_target,
)
from spanbridge.markers import MarkerScheme, strip_markers
from spanbridge.translate import (
    IdentityBackend,
    LexiconBackend,
    LexiconBackendConfig,
    TranslatedItem,
    TranslateResponse,
    backend_error,
)

CFG = FtDataConfig(k=5000)


class TestMatchEntity:
    def test_found(self):
        assert match_entity_in_target("Berlin", "Ich wohne in Berlin .", CFG) == (13, 19)

    def test_case_fold(self):
        assert match_entity_in_target("berlin", "Ich wohne in Berlin .", CFG) == (13, 19)

    def test_case_sensitive(self):
        cfg = FtDataConfig(match_case_fold=False)
        assert match_entity_in_target("berlin", "Ich wohne in Berlin .", cfg) is None

    def test_not_found(self):
        assert match_entity_in_target("Paris", "Ich wohne in Berlin .", CFG) is None

    def test_leftmost(self):
        assert match_entity_in_target("a", "bab a", CFG) == (1, 2)

    def test_skips_taken_ranges(self):
        assert match_entity_in_target("a", "bab a", CFG, taken=[(1, 2)]) == (4, 5)

    @pytest.mark.parametrize("entity, tgt, expected", [
        ("Berlin", "Straße Berlin", (7, 13)),
        ("Ankara", "İzmir Ankara", (6, 12)),
        ("İzmir", "İzmir Ankara", (0, 5)),
        ("s", "ßs", (1, 2)),  # the "s" inside the fold of "ß" is no match
    ])
    def test_offsets_index_target_when_folding_grows_it(self, entity, tgt, expected):
        start, end = match_entity_in_target(entity, tgt, CFG)
        assert (start, end) == expected
        assert tgt[start:end].casefold() == entity.casefold()


def _pair(src_text, entities, tgt):
    spans = []
    for ent in entities:
        start = src_text.index(ent)
        spans.append(LabeledSpan(len(spans), start, start + len(ent), "ENT"))
    spans.sort(key=lambda s: s.start)
    spans = tuple(LabeledSpan(i, s.start, s.end, s.label) for i, s in enumerate(spans))
    return ParallelPair(AnnotatedSentence(src_text, spans), tgt)


class TestBuildFtPairs:
    def test_two_entities_both_bracketed(self):
        pair = _pair("Anna met Bob", ["Anna", "Bob"], "Anna trifft Bob")
        out = build_ft_pairs([pair], IdentityBackend(), CFG)
        assert out == [("[ Anna ] met [ Bob ]", "[ Anna ] trifft [ Bob ]")]

    def test_strip_recovers_originals(self):
        pair = _pair("Anna met Bob", ["Anna", "Bob"], "Anna trifft Bob")
        out = build_ft_pairs([pair], IdentityBackend(), CFG)
        scheme = MarkerScheme("brackets")
        assert strip_markers(out[0][0], scheme) == "Anna met Bob"
        assert strip_markers(out[0][1], scheme) == "Anna trifft Bob"

    def test_lexicon_translation_matching(self):
        backend = LexiconBackend(LexiconBackendConfig({"Anna": "Анна", "Bob": "Боб"}))
        pair = _pair("Anna met Bob", ["Anna", "Bob"], "Анна встретила Боб")
        out = build_ft_pairs([pair], backend, CFG)
        assert out == [("[ Anna ] met [ Bob ]", "[ Анна ] встретила [ Боб ]")]

    def test_unmatched_entity_skipped(self):
        pair = _pair("Anna met Bob", ["Anna", "Bob"], "only Anna here")
        out = build_ft_pairs([pair], IdentityBackend(), CFG)
        assert out == [("[ Anna ] met Bob", "only [ Anna ] here")]

    def test_target_folding_to_more_characters(self):
        pair = _pair("Berlin is big", ["Berlin"], "Große Straße in Berlin")
        out = build_ft_pairs([pair], IdentityBackend(), CFG)
        assert out == [("[ Berlin ] is big", "Große Straße in [ Berlin ]")]

    def test_pair_already_holding_brackets_skipped(self):
        pairs = [_pair("Berlin is big", ["Berlin"], "Berlin [ist] groß"),
                 _pair("Berlin [is] big", ["Berlin"], "Berlin ist groß"),
                 _pair("Anna met Bob", ["Anna", "Bob"], "Anna trifft Bob")]
        out = build_ft_pairs(pairs, IdentityBackend(), CFG)
        assert out == [("[ Anna ] met [ Bob ]", "[ Anna ] trifft [ Bob ]")]

    def test_zero_matches_pair_excluded(self):
        pair = _pair("Anna met Bob", ["Anna", "Bob"], "nichts passendes")
        assert build_ft_pairs([pair], IdentityBackend(), CFG) == []

    def test_a_before_b_and_truncation(self):
        pairs = []
        # 4 single-entity pairs of increasing length, 3 multi-entity pairs
        for i in range(4):
            text = "E" + " filler" * (i + 1)
            pairs.append(_pair(text, ["E"], text))
        for i in range(3):
            text = f"A{i} and B{i}"
            pairs.append(_pair(text, [f"A{i}", f"B{i}"], text))
        out = build_ft_pairs(pairs, IdentityBackend(), FtDataConfig(k=5))
        assert len(out) == 5
        # all multi-entity pairs first (input order), then longest singles
        assert out[0][0].count("[") == 2
        assert out[1][0].count("[") == 2
        assert out[2][0].count("[") == 2
        assert out[3][0].count("[") == 1
        assert len(out[3][0]) >= len(out[4][0])

    def test_ascending_sort(self):
        pairs = [_pair("E" + " f" * i, ["E"], "E" + " f" * i) for i in range(1, 4)]
        out = build_ft_pairs(pairs, IdentityBackend(),
                             FtDataConfig(k=10, length_sort="ascending"))
        lengths = [len(s) for s, _ in out]
        assert lengths == sorted(lengths)

    def test_backend_error_skips_entity_only(self):
        class HalfBroken:
            def translate(self, request):
                return TranslateResponse(tuple(
                    backend_error("down") if t == "Bob" else TranslatedItem(t)
                    for t in request.items))

        pair = _pair("Anna met Bob", ["Anna", "Bob"], "Anna trifft Bob")
        out = build_ft_pairs([pair], HalfBroken(), CFG)
        assert out == [("[ Anna ] met Bob", "[ Anna ] trifft Bob")]

    def test_determinism(self):
        corpus = make_corpus(30, seed=44)
        pairs = [ParallelPair(s, s.text) for s in corpus]
        a = build_ft_pairs(pairs, IdentityBackend(), FtDataConfig(k=10))
        b = build_ft_pairs(pairs, IdentityBackend(), FtDataConfig(k=10))
        assert a == b

    def test_equal_bracket_counts_both_sides(self):
        corpus = make_corpus(50, seed=45)
        pairs = [ParallelPair(s, s.text) for s in corpus]
        out = build_ft_pairs(pairs, IdentityBackend(), CFG)
        scheme = MarkerScheme("brackets")
        for marked_src, marked_tgt in out:
            assert marked_src.count("[") == marked_tgt.count("[")
            assert marked_src.count("]") == marked_tgt.count("]")
            assert strip_markers(marked_src, scheme) == strip_markers(marked_tgt, scheme)


class TestGazetteer:
    def test_annotates_tokens(self):
        sent = annotate_with_gazetteer("Anna met Bob", {"Anna": "PER", "Bob": "PER"})
        assert [s.slice(sent.text) for s in sent.spans] == ["Anna", "Bob"]
        assert [s.label for s in sent.spans] == ["PER", "PER"]
