import difflib
import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from conftest import MarkerDropBackend, make_corpus, make_entity_corpus
from spanbridge import easyproject
from spanbridge.core import AnnotatedSentence, LabeledSpan, QaExample, RelationLink
from spanbridge.easyproject import (
    FAILED,
    FILTERED,
    PROJECTED,
    MatcherConfig,
    assign_labels_fuzzy,
    fuzzy_ratio,
    project_corpus,
    project_qa,
    project_sentence,
)
from spanbridge.markers import MarkerScheme, insert_markers
from spanbridge.translate import (
    IdentityBackend,
    LexiconBackend,
    LexiconBackendConfig,
    TranslatedItem,
    TranslateRequest,
    TranslateResponse,
    backend_error,
)


def oracle_ratio(a: str, b: str) -> float:
    """Independent gestalt-matching oracle (stdlib difflib, junk disabled)."""
    return difflib.SequenceMatcher(None, a, b, autojunk=False).ratio()


def reference_assignment(texts: list[str], mentions: list[str], cfg: MatcherConfig):
    """All-pairs greedy assignment: score every pair, take them in
    (-ratio, candidate, span) order while strictly above the threshold, then
    assign leftovers positionally or drop the sentence."""
    n = len(texts)
    scored = sorted(((fuzzy_ratio(texts[t], mentions[c]), c, t)
                     for t in range(n) for c in range(n)),
                    key=lambda x: (-x[0], x[1], x[2]))
    cand_for = [None] * n
    for ratio, c, t in scored:
        if ratio <= cfg.threshold:
            break
        if cand_for[t] is None and c not in cand_for:
            cand_for[t] = c
    leftovers_t = [t for t in range(n) if cand_for[t] is None]
    if leftovers_t and cfg.on_no_match == "drop":
        return None
    leftovers_c = [c for c in range(n) if c not in cand_for]
    for t, c in zip(leftovers_t, leftovers_c):
        cand_for[t] = c
    return tuple(cand_for), bool(leftovers_t)


class TestFuzzyRatio:
    def test_identity(self):
        assert fuzzy_ratio("abc", "abc") == 1.0

    def test_empty_vs_nonempty(self):
        assert fuzzy_ratio("", "abc") == 0.0
        assert fuzzy_ratio("abc", "") == 0.0

    def test_both_empty(self):
        assert fuzzy_ratio("", "") == 1.0

    def test_abcd_bcde(self):
        assert fuzzy_ratio("abcd", "bcde") == 0.75

    @given(st.text(alphabet="abcdefgh", max_size=16),
           st.text(alphabet="abcdefgh", max_size=16))
    @settings(max_examples=500)
    def test_matches_oracle(self, a, b):
        assert fuzzy_ratio(a, b) == oracle_ratio(a, b)

    @given(st.text(alphabet="ab中ж", max_size=12), st.text(alphabet="ab中ж", max_size=12))
    @settings(max_examples=200)
    def test_bounds_and_symmetric_total(self, a, b):
        r = fuzzy_ratio(a, b)
        assert 0.0 <= r <= 1.0
        assert fuzzy_ratio(a, a) == 1.0


class TestAssignLabels:
    def test_crossed_pairs(self):
        cfg = MatcherConfig()
        result = assign_labels_fuzzy(["纽约", "丘吉尔"], ["丘吉尔", "纽约"], cfg)
        assert result.candidate_for == (1, 0)
        assert not result.low_confidence

    def test_positional_fallback_low_confidence(self):
        cfg = MatcherConfig()
        result = assign_labels_fuzzy(["zzzz"], ["aaaa"], cfg)
        assert result.candidate_for == (0,)
        assert result.low_confidence

    def test_drop_on_no_match(self):
        cfg = MatcherConfig(on_no_match="drop")
        assert assign_labels_fuzzy(["zzzz"], ["aaaa"], cfg) is None

    def test_identical_order_identity(self):
        cfg = MatcherConfig()
        result = assign_labels_fuzzy(["aa", "bb", "cc"], ["aa", "bb", "cc"], cfg)
        assert result.candidate_for == (0, 1, 2)

    def test_sequential_mode_is_positional(self):
        cfg = MatcherConfig(mode="sequential")
        result = assign_labels_fuzzy(["纽约", "丘吉尔"], ["丘吉尔", "纽约"], cfg)
        assert result.candidate_for == (0, 1)

    def test_threshold_is_strict(self):
        # ratio exactly 0.5 must not be a confident match
        assert fuzzy_ratio("ab", "bc") == 0.5
        result = assign_labels_fuzzy(["ab"], ["bc"], MatcherConfig(threshold=0.5))
        assert result.low_confidence

    def test_length_mismatch_is_contract_violation(self):
        with pytest.raises(ValueError):
            assign_labels_fuzzy(["a"], ["a", "b"], MatcherConfig())

    @given(st.integers(0, 5).flatmap(lambda n: st.tuples(
               st.lists(st.sampled_from(["", "a", "ab", "ba", "abc", "b"]), min_size=n, max_size=n),
               st.lists(st.sampled_from(["", "a", "ab", "ba", "abc", "c"]), min_size=n, max_size=n))),
           st.sampled_from([0.0, 0.5, 0.99, 1.0]),
           st.sampled_from(["positional", "drop"]))
    @settings(max_examples=500)
    def test_matches_all_pairs_reference(self, texts_and_mentions, threshold, on_no_match):
        texts, mentions = texts_and_mentions
        cfg = MatcherConfig(threshold=threshold, on_no_match=on_no_match)
        result = assign_labels_fuzzy(texts, mentions, cfg)
        got = None if result is None else (result.candidate_for, result.low_confidence)
        assert got == reference_assignment(texts, mentions, cfg)

    def test_threshold_one_is_never_confident(self):
        result = assign_labels_fuzzy(["a", "b"], ["b", "a"], MatcherConfig(threshold=1.0))
        assert result.candidate_for == (0, 1)
        assert result.low_confidence

    def test_equal_spans_need_no_ratio(self, monkeypatch):
        calls = []
        monkeypatch.setattr(easyproject, "fuzzy_ratio",
                            lambda a, b: calls.append((a, b)) or fuzzy_ratio(a, b))
        result = assign_labels_fuzzy(["York", "Anna", "Anna"], ["Anna", "York", "Anna"],
                                     MatcherConfig())
        assert result.candidate_for == (1, 0, 2)
        assert not result.low_confidence
        assert calls == []

    def test_permutation_recovery_exhaustive_oracle(self):
        # greedy assignment recovers the max-total-ratio assignment when
        # candidates are a permutation with all cross ratios < 1
        rng = random.Random(5)
        for _ in range(50):
            n = rng.randint(2, 5)
            texts = [f"w{i}q{i}" for i in range(n)]
            perm = list(range(n))
            rng.shuffle(perm)
            shuffled = [texts[p] for p in perm]
            result = assign_labels_fuzzy(shuffled, texts, MatcherConfig())
            assert list(result.candidate_for) == perm
            assert not result.low_confidence


CHURCHILL = AnnotatedSentence(
    "Churchill was born in England in 1874 .",
    (LabeledSpan(0, 0, 9, "PER"), LabeledSpan(1, 22, 29, "LOC"),
     LabeledSpan(2, 33, 37, "DATE")),
)


class TestProjectSentence:
    @pytest.mark.parametrize("kind", ["brackets", "xml", "quotes", "placeholder"])
    def test_identity_backend_fixpoint(self, kind):
        outcome = project_sentence(CHURCHILL, IdentityBackend(), MarkerScheme(kind))
        assert outcome.status == PROJECTED
        assert outcome.sentence == CHURCHILL

    def test_lexicon_reverse_labels_follow_spans(self):
        sent = AnnotatedSentence(
            "Anna visited York today",
            (LabeledSpan(0, 0, 4, "PER"), LabeledSpan(1, 13, 17, "LOC")),
        )
        backend = LexiconBackend(LexiconBackendConfig(
            {"Anna": "А", "visited": "посетила", "York": "Йорк", "today": "сегодня"},
            reorder="reverse"))
        outcome = project_sentence(sent, backend, MarkerScheme("brackets"))
        assert outcome.status == PROJECTED
        labeled = {(s.label, s.slice(outcome.sentence.text)) for s in outcome.sentence.spans}
        assert labeled == {("PER", "А"), ("LOC", "Йорк")}

    def test_marker_loss_filtered(self):
        from spanbridge.markers import insert_markers

        marked = insert_markers(CHURCHILL, MarkerScheme("brackets"))
        backend = MarkerDropBackend({marked.text})
        outcome = project_sentence(CHURCHILL, backend, MarkerScheme("brackets"))
        assert outcome.status == FILTERED
        assert outcome.reason == "CountMismatch"

    def test_backend_error_failed(self):
        class BrokenBackend:
            def translate(self, request):
                return TranslateResponse(tuple(backend_error("down") for _ in request.items))

        outcome = project_sentence(CHURCHILL, BrokenBackend(), MarkerScheme("brackets"))
        assert outcome.status == FAILED
        assert outcome.reason == "BackendError"

    def test_preexisting_marker_filtered(self):
        sent = AnnotatedSentence("a [sic] b", (LabeledSpan(0, 0, 1, "X"),))
        outcome = project_sentence(sent, IdentityBackend(), MarkerScheme("brackets"))
        assert outcome.status == FILTERED
        assert outcome.reason == "PreexistingMarker"

    def test_locale_quotes_filtered_before_translation(self):
        sent = AnnotatedSentence("he said «hi» to Anna", (LabeledSpan(0, 16, 20, "PER"),))
        _, report = project_corpus([sent], IdentityBackend(), MarkerScheme("quotes"))
        assert report.reasons == {"PreexistingMarker": 1}

    @pytest.mark.parametrize("kind, text", [
        ("brackets", "a [b] c"),
        ("xml", "a <b>x</b> c"),
        ("quotes", 'a "b" c'),
        ("quotes", "«hi»"),
    ])
    def test_sentence_without_spans_never_filtered(self, kind, text):
        sent = AnnotatedSentence(text, ())
        projected, report = project_corpus([sent], IdentityBackend(), MarkerScheme(kind))
        assert projected == [sent]
        assert report.projected == 1

    def test_projected_span_count_equals_source(self):
        for sent in make_corpus(100, seed=3):
            outcome = project_sentence(sent, IdentityBackend(), MarkerScheme("brackets"))
            assert outcome.status == PROJECTED
            assert len(outcome.sentence.spans) == len(sent.spans)

    def test_label_multiset_preserved_under_shuffle(self):
        sentences, token_map = make_entity_corpus(40, seed=11)
        backend = LexiconBackend(LexiconBackendConfig(token_map, reorder="seed:9"))
        for sent in sentences:
            outcome = project_sentence(sent, backend, MarkerScheme("brackets"))
            assert outcome.status == PROJECTED
            assert sorted(s.label for s in outcome.sentence.spans) == sorted(
                s.label for s in sent.spans)


def _items(sentence, scheme):
    """What a brackets + fuzzy projection translates for one sentence."""
    return [insert_markers(sentence, scheme).text, *sentence.span_texts()]


class TestProjectCorpus:
    def test_report_arithmetic(self):
        corpus = make_corpus(40, seed=1)
        # corrupt every 4th sentence (drop a "]") — only those with spans qualify
        scheme = MarkerScheme("brackets")
        corrupt = set()
        for i, sent in enumerate(corpus):
            if i % 4 == 0 and sent.spans:
                corrupt.add(insert_markers(sent, scheme).text)
        backend = MarkerDropBackend(corrupt)
        projected, report = project_corpus(corpus, backend, scheme)
        assert report.total == 40
        assert report.filtered == len(corrupt)
        assert report.projected == 40 - len(corrupt)
        assert report.failed == 0
        assert len(projected) == report.projected
        assert report.total == report.projected + report.filtered + report.failed

    def test_empty_corpus(self):
        projected, report = project_corpus([], IdentityBackend(), MarkerScheme("brackets"))
        assert projected == []
        assert report.total == 0

    def test_relations_preserved_verbatim_identity(self):
        corpus = make_corpus(60, seed=21, with_relations=True)
        projected, report = project_corpus(corpus, IdentityBackend(), MarkerScheme("xml"))
        assert report.projected == 60
        assert projected == corpus

    def test_relations_remapped_under_reorder(self):
        sentences, token_map = make_entity_corpus(20, seed=2)
        with_rel = [
            AnnotatedSentence(s.text, s.spans, s.meta, (RelationLink("ARG", 0, 1),))
            for s in sentences
        ]
        backend = LexiconBackend(LexiconBackendConfig(token_map, reorder="reverse"))
        projected, report = project_corpus(with_rel, backend, MarkerScheme("brackets"))
        assert report.projected == len(with_rel)
        for src, out in zip(with_rel, projected):
            assert len(out.relations) == 1
            rel = out.relations[0]
            # the linked spans must still carry the source labels L0 and L1
            assert out.spans[rel.head_span_id].label == "L0"
            assert out.spans[rel.tail_span_id].label == "L1"

    def test_jobs_order_stable(self):
        corpus = make_corpus(300, seed=33)
        for backend in (IdentityBackend(),
                        LexiconBackend(LexiconBackendConfig({}, reorder="seed:4"))):
            seq, rep1 = project_corpus(corpus, backend, MarkerScheme("brackets"), jobs=1)
            par, rep8 = project_corpus(corpus, backend, MarkerScheme("brackets"), jobs=8)
            assert seq == par
            assert rep1.to_json() == rep8.to_json()

    @pytest.mark.parametrize("kind", ["brackets", "xml", "quotes"])
    def test_glued_markers_survive_lexicon_shuffle(self, kind):
        # without padding each marker is glued to its span, and a shuffle must not split them
        corpus = make_corpus(800, seed=5, with_relations=True)
        backend = LexiconBackend(LexiconBackendConfig({}, reorder="seed:3"))
        _, report = project_corpus(corpus, backend, MarkerScheme(kind, pad_with_space=False))
        assert report.reasons == {}
        assert report.projected == len(corpus)

    def test_one_request_per_batch_of_distinct_items(self):
        corpus = make_corpus(200, seed=8)
        scheme = MarkerScheme("brackets")
        distinct = {item for s in corpus for item in _items(s, scheme)}
        assert len(distinct) < sum(len(_items(s, scheme)) for s in corpus)  # mentions repeat

        class Counting:
            requests = 0

            def translate(self, request):
                type(self).requests += 1
                return IdentityBackend().translate(request)

        projected, report = project_corpus(corpus, Counting(), scheme, jobs=3)
        assert Counting.requests == math.ceil(len(distinct) / 32)
        assert report.projected == len(corpus)

    def test_faulted_batch_fails_exactly_its_sentences(self):
        corpus = make_corpus(200, seed=8)
        scheme = MarkerScheme("brackets")
        unique = list(dict.fromkeys(item for s in corpus for item in _items(s, scheme)))
        faulted = tuple(unique[32:64])

        class FailOneBatch:
            def translate(self, request):
                if request.items == faulted:
                    return TranslateResponse(tuple(backend_error("down") for _ in faulted))
                return IdentityBackend().translate(request)

        projected, report = project_corpus(corpus, FailOneBatch(), scheme, jobs=2)
        hit = [bool(set(_items(s, scheme)) & set(faulted)) for s in corpus]
        assert report.failed == sum(hit) > 0
        assert report.reasons == {"BackendError": sum(hit)}
        assert projected == [s for s, h in zip(corpus, hit) if not h]


class TestProjectQa:
    QA = QaExample("q1", "Where was he born ?",
                   "Churchill was born in England .",
                   LabeledSpan(0, 22, 29, "ANSWER"))

    def test_identity(self):
        for kind in ("brackets", "xml", "quotes", "placeholder"):
            outcome = project_qa(self.QA, IdentityBackend(), MarkerScheme(kind))
            assert outcome.status == PROJECTED
            assert outcome.qa == self.QA

    def test_lexicon_offsets_recomputed(self):
        token_map = {"Churchill": "Черчилль", "was": "был", "born": "рожд",
                     "in": "в", "England": "Англии", ".": "точка",
                     "Where": "Где", "he": "он", "?": "кто"}
        backend = LexiconBackend(LexiconBackendConfig(token_map))
        outcome = project_qa(self.QA, backend, MarkerScheme("brackets"))
        assert outcome.status == PROJECTED
        assert outcome.qa.answer_text == "Англии"
        assert outcome.qa.context == "Черчилль был рожд в Англии точка"
        assert outcome.qa.question == "Где был он рожд кто"

    def test_quote_dropped_filtered(self):
        class QuoteDropper:
            def translate(self, request):
                return TranslateResponse(tuple(
                    TranslatedItem(t.replace('"', "", 1)) for t in request.items))

        outcome = project_qa(self.QA, QuoteDropper(), MarkerScheme("quotes"))
        assert outcome.status == FILTERED
