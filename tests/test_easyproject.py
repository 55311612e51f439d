import difflib
import math
import random
import zlib
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import MarkerDropBackend, make_corpus, make_entity_corpus
from test_markers import DAMAGED
from spanbridge import easyproject
from spanbridge.core import AnnotatedSentence, LabeledSpan, QaExample, RelationLink
from spanbridge.easyproject import (
    FAILED,
    FILTERED,
    PROJECTED,
    MatcherConfig,
    ProjectionOutcome,
    assign_labels_fuzzy,
    fuzzy_ratio,
    project_corpus,
    project_qa,
    project_sentence,
    tally,
)
from spanbridge.markers import SCHEME_KINDS, MarkerScheme, extract_markers, insert_markers
from spanbridge.translate import (
    DEFAULT_MAX_IN_FLIGHT,
    IdentityBackend,
    LexiconBackend,
    LexiconBackendConfig,
    TranslatedItem,
    TranslateRequest,
    TranslateResponse,
    backend_error,
    translate,
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


# 1200 distinct CJK characters, and the same with "x" after each one: 1200
# one-character matching blocks, ratio 2/3
LONG_SPAN = "".join(chr(0x4E00 + i) for i in range(1200))
LONG_SPAN_X = "".join(ch + "x" for ch in LONG_SPAN)
RATIO_ALPHABETS = ["ab", "abcdefgh", "ab中ж x", "".join(chr(0x4E00 + i) for i in range(200))]


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

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_matches_oracle_on_long_strings(self, data):
        alphabet = data.draw(st.sampled_from(RATIO_ALPHABETS))
        a = data.draw(st.text(alphabet, min_size=17, max_size=400))
        # b is unrelated to a, or a with pieces cut out and others put in
        edits = st.lists(st.tuples(st.integers(0, len(a)), st.integers(0, 40),
                                   st.text(alphabet, max_size=40)), max_size=8)
        if data.draw(st.booleans()):
            b = data.draw(st.text(alphabet, max_size=400))
        else:
            b = a
            for at, cut, put in data.draw(edits):
                b = b[:at] + put + b[at + cut:]
        assert fuzzy_ratio(a, b) == oracle_ratio(a, b)

    def test_many_blocks_need_no_recursion(self):
        assert fuzzy_ratio(LONG_SPAN, LONG_SPAN_X) == oracle_ratio(LONG_SPAN, LONG_SPAN_X) == 2 / 3

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
        # projection translates no mentions for sequential matching
        assert assign_labels_fuzzy(["纽约", "丘吉尔"], [], cfg) == result

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

    def test_spans_all_settled_by_equal_strings_need_no_sort(self, monkeypatch):
        calls = []
        monkeypatch.setattr(easyproject, "sorted",
                            lambda *args, **kwargs: calls.append(args) or sorted(*args, **kwargs),
                            raising=False)
        texts, mentions = ["York", "Anna", "Anna", "Bob"], ["Bob", "Anna", "York", "Anna"]
        result = assign_labels_fuzzy(texts, mentions, MatcherConfig())
        assert result == easyproject.Assignment((2, 1, 3, 0), False)
        assert calls == []
        # one unsettled span is scored and sorted as before
        result = assign_labels_fuzzy(["York", "Ana"], ["Anna", "York"], MatcherConfig())
        assert result == easyproject.Assignment((1, 0), False)
        assert len(calls) == 1

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

    @pytest.mark.parametrize("backend", [
        IdentityBackend(), LexiconBackend(LexiconBackendConfig({}, reorder="reverse"))],
        ids=["identity", "reverse"])
    def test_placeholder_twelve_spans_of_one_label(self, backend):
        # X1 is a prefix of X10 and X11; each token is found only where no digit follows it
        sent = AnnotatedSentence(" ".join("abcdefghijkl"),
                                 tuple(LabeledSpan(i, 2 * i, 2 * i + 1, "X") for i in range(12)))
        outcome = project_sentence(sent, backend, MarkerScheme("placeholder"))
        assert outcome.status == PROJECTED
        projected = outcome.sentence
        assert sorted((s.label, s.slice(projected.text)) for s in projected.spans) == \
            [("X", c) for c in "abcdefghijkl"]

    def test_marker_loss_filtered(self):
        from spanbridge.markers import insert_markers

        marked = insert_markers(CHURCHILL, MarkerScheme("brackets"))
        backend = MarkerDropBackend({marked.text})
        outcome = project_sentence(CHURCHILL, backend, MarkerScheme("brackets"))
        assert outcome.status == FILTERED
        assert outcome.reason == "CountMismatch"

    @pytest.mark.parametrize("kind, mode", [("brackets", "fuzzy"), ("brackets", "sequential"),
                                            ("quotes", "fuzzy"), ("xml", "fuzzy")])
    def test_emptied_span_filtered_as_invalid_target_spans(self, kind, mode):
        sent = AnnotatedSentence("x and y",
                                 (LabeledSpan(0, 0, 1, "PER"), LabeledSpan(1, 6, 7, "LOC")))
        backend = LexiconBackend(LexiconBackendConfig({"x": ""}))  # "[ x ]" comes back "[  ]"
        outcome = project_sentence(sent, backend, MarkerScheme(kind), MatcherConfig(mode=mode))
        assert (outcome.status, outcome.reason, outcome.diagnostics) == \
            (FILTERED, "InvalidTargetSpans", ("span 0: invalid offsets [0, 0)",))

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

    @pytest.mark.parametrize("text", ["if x<a then b", "path a/a> then b"])
    def test_xml_tag_fragment_filtered_before_translation(self, text):
        # the one span gets tag a, and "<a" or "/a>" would read back as a damaged tag
        sent = AnnotatedSentence(text, (LabeledSpan(0, 12, 13, "V"),))
        backend = Recording()
        outcome = project_sentence(sent, backend, MarkerScheme("xml"))
        assert (outcome.status, outcome.reason) == (FILTERED, "PreexistingMarker")
        assert backend.requests == []

    @pytest.mark.parametrize("text, digit", [("在北京2008年", "2"), ("在北京２００８年", "２"),
                                             ("在北京٣年", "٣")])
    def test_placeholder_before_a_digit_filtered_before_translation(self, text, digit):
        # LOC0 and the digit after it would read back as one word, LOC02008
        sent = AnnotatedSentence(text, (LabeledSpan(0, 1, 3, "LOC"),))
        backend = Recording()
        outcome = project_sentence(sent, backend, MarkerScheme("placeholder"))
        assert (outcome.status, outcome.reason) == (FILTERED, "PreexistingMarker")
        assert outcome.diagnostics == (f"span 0 is followed directly by digit {digit!r}, "
                                       f"which would extend its placeholder 'LOC0'",)
        assert backend.requests == []
        # the wrapping schemes mark the same sentence and project it
        for kind in ("brackets", "xml", "quotes"):
            assert project_sentence(sent, IdentityBackend(), MarkerScheme(kind)).sentence == sent

    def test_xml_fragment_of_another_tag_projects(self):
        sent = AnnotatedSentence("if x<c then b", (LabeledSpan(0, 12, 13, "V"),))
        outcome = project_sentence(sent, IdentityBackend(), MarkerScheme("xml"))
        assert (outcome.status, outcome.sentence) == (PROJECTED, sent)

    def test_locale_quotes_filtered_before_translation(self):
        sent = AnnotatedSentence("he said «hi» to Anna", (LabeledSpan(0, 16, 20, "PER"),))
        _, report = project_corpus([sent], IdentityBackend(), MarkerScheme("quotes"))
        assert dict(report.reasons) == {"PreexistingMarker": 1}

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
        assert dict(report.reasons) == {}
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

    def test_a_long_span_is_scored_without_recursion(self):
        sent = AnnotatedSentence(LONG_SPAN + " 在 .", (LabeledSpan(0, 0, 1200, "LOC"),))

        class SpreadMarkedSpans:
            """Puts "x" after each CJK character of a marked text; mentions come back as sent."""

            def translate(self, request):
                return TranslateResponse(tuple(
                    TranslatedItem("".join(ch + "x" if ch >= "\u4e00" else ch for ch in t)
                                   if "[" in t else t)
                    for t in request.items))

        projected, report = project_corpus([sent], SpreadMarkedSpans(), MarkerScheme("brackets"))
        assert report.projected == 1
        (span,) = projected[0].spans
        assert (span.label, span.slice(projected[0].text)) == ("LOC", LONG_SPAN_X)

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
        assert dict(report.reasons) == {"BackendError": sum(hit)}
        assert projected == [s for s, h in zip(corpus, hit) if not h]


class DamagingBackend:
    """Adversarial MT output: each item may have its words shuffled and then
    characters deleted, swapped or inserted, the inserted pieces drawn from
    `pieces`. The damage is seeded by the item's own text, so an item comes back
    the same in whatever batch it travels."""

    def __init__(self, pieces, seed):
        self.pieces, self.seed = pieces, seed

    def damage(self, text: str) -> str:
        rng = random.Random(f"{self.seed}:{text}")
        words = text.split(" ")
        if rng.random() < 0.3:
            rng.shuffle(words)
        chars = list(" ".join(words))
        for _ in range(rng.choice([0, 0, 1, 2, 4])):
            op = rng.randrange(3)
            if op == 0 and chars:
                del chars[rng.randrange(len(chars))]
            elif op == 1 and len(chars) > 1:
                i = rng.randrange(len(chars) - 1)
                chars[i], chars[i + 1] = chars[i + 1], chars[i]
            else:
                chars.insert(rng.randrange(len(chars) + 1), rng.choice(self.pieces))
        return "".join(chars)

    def translate(self, request):
        return TranslateResponse(tuple(TranslatedItem(self.damage(t)) for t in request.items))


MATCHERS = [MatcherConfig(), MatcherConfig(mode="sequential"), MatcherConfig(on_no_match="drop")]


class TestAdversarialTranslations:
    @given(st.integers(0, 10**6), st.integers(1, 12), st.sampled_from(SCHEME_KINDS),
           st.booleans(), st.sampled_from(MATCHERS),
           st.lists(st.one_of(DAMAGED, st.sampled_from(["X10", "7", "٣", "中"])),
                    min_size=1, max_size=4))
    @settings(max_examples=150, deadline=None)
    def test_project_corpus_over_damaged_output(self, seed, n, kind, pad, cfg, pieces):
        scheme = MarkerScheme(kind, pad_with_space=pad)
        corpus = [AnnotatedSentence(s.text, s.spans, {"i": str(i)}, s.relations)
                  for i, s in enumerate(make_corpus(n, seed, max_spans=4, with_relations=True))]
        backend = DamagingBackend(pieces, seed)
        projected, report = project_corpus(corpus, backend, scheme, cfg, jobs=1)
        assert report.total == report.projected + report.filtered + report.failed == n
        assert report.projected == len(projected)
        parallel, parallel_report = project_corpus(corpus, backend, scheme, cfg, jobs=4)
        assert (parallel, parallel_report.to_json()) == (projected, report.to_json())
        for out in projected:
            source = corpus[int(dict(out.meta)["i"])]
            assert len(out.spans) == len(source.spans)
            assert len(out.relations) == len(source.relations)
            assert sorted(s.label for s in out.spans) == sorted(s.label for s in source.spans)
            if kind in ("xml", "placeholder"):
                # each span takes the label of the source span whose marker it came back in
                marked = insert_markers(source, scheme)
                found = extract_markers(backend.damage(marked.text), scheme,
                                        marked.marker_map).found_spans
                assert [(s.label, s.start, s.end) for s in out.spans] == \
                    [(source.spans[i].label, start, end) for i, start, end in found]


class ParityBackend:
    """Deterministic per item: reverses a text, and fails one whose number is odd."""

    def translate(self, request):
        return TranslateResponse(tuple(
            backend_error("odd") if int(t) % 2 else TranslatedItem(t[::-1]) for t in request.items))


class TestTranslateEach:
    # numbers from a small range repeat across groups; up to 61 distinct straddle batches of 32
    @given(st.lists(st.lists(st.integers(0, 60).map(str), max_size=40), max_size=6),
           st.integers(1, 4))
    @example([[str(i) for i in range(30)], [], [str(i) for i in range(25, 40)], ["3", "3"]], 2)
    @settings(max_examples=200)
    def test_each_group_as_if_translated_alone_in_one_call(self, groups, jobs):
        backend = ParityBackend()
        alone = [translate(TranslateRequest(tuple(g), "src", "tgt"), backend).items
                 for g in groups]
        with mock.patch.object(easyproject, "translate", wraps=translate) as spy:
            replies = list(easyproject.translate_each(groups, backend, "src", "tgt", jobs))
        assert replies == alone
        assert spy.call_count == 1


class TestProjectQa:
    QA = QaExample("q1", "Where was he born ?",
                   "Churchill was born in England .",
                   LabeledSpan(0, 22, 29, "ANSWER"))

    def test_identity(self):
        for kind in ("brackets", "xml", "quotes", "placeholder"):
            projected, report = project_qa([self.QA], IdentityBackend(), MarkerScheme(kind))
            assert projected == [self.QA]
            assert report.to_json() == {"total": 1, "projected": 1, "filtered": 0,
                                        "failed": 0, "reasons": {}}

    def test_lexicon_offsets_recomputed(self):
        token_map = {"Churchill": "Черчилль", "was": "был", "born": "рожд",
                     "in": "в", "England": "Англии", ".": "точка",
                     "Where": "Где", "he": "он", "?": "кто"}
        backend = LexiconBackend(LexiconBackendConfig(token_map))
        [qa], _ = project_qa([self.QA], backend, MarkerScheme("brackets"))
        assert qa.answer_text == "Англии"
        assert qa.context == "Черчилль был рожд в Англии точка"
        assert qa.question == "Где был он рожд кто"

    def test_quote_dropped_filtered(self):
        class QuoteDropper:
            def translate(self, request):
                return TranslateResponse(tuple(
                    TranslatedItem(t.replace('"', "", 1)) for t in request.items))

        projected, report = project_qa([self.QA], QuoteDropper(), MarkerScheme("quotes"))
        assert projected == []
        assert (report.filtered, report.reasons) == (1, (("CountMismatch", 1),))

    def test_empty_list(self):
        backend = Recording()
        projected, report = project_qa([], backend, MarkerScheme("brackets"))
        assert projected == []
        assert report.total == 0
        assert backend.requests == []


def reference_project_qa(example, backend, scheme, src_lang="src", tgt_lang="tgt"):
    """project_qa as it was before the examples of a corpus shared one
    translate() call: one example's context, its answer marked, and question
    go through a translate() call of their own. Returns the example's outcome,
    the first of the two that is not Projected, and its projected example, or
    None if it has none."""
    cfg = MatcherConfig(mode="sequential")
    sentences = [AnnotatedSentence(example.context, (example.answer,)),
                 AnnotatedSentence(example.question)]
    outcomes = tuple(easyproject._project(sentences, backend, scheme, cfg, src_lang, tgt_lang,
                                          DEFAULT_MAX_IN_FLIGHT))
    for outcome in outcomes:
        if outcome.status != PROJECTED:
            return outcome, None
    context, question = [outcome.sentence for outcome in outcomes]
    return (ProjectionOutcome(PROJECTED),
            QaExample(example.id, question.text, context.text, context.spans[0]))


def _crc(text: str) -> int:
    return zlib.crc32(text.encode("utf-8"))


# contexts and questions holding marker characters of each scheme
HAND_WRITTEN_QA = [
    ('He said "no" in England .', "Where ?"),
    ("a [sic] note from England .", "Where ?"),
    ("<b>bold</b> text from England .", "Where ?"),
    ("ANSWER0 came from England .", "Where ?"),
    ("he said «hi» in England .", "Where ?"),
    ("Churchill was born in England .", 'Where was "he" born ?'),
    ("Churchill was born in England .", "Where [was] he <b>born</b> ANSWER0 ?"),
    ("Churchill was born in England .", "«Where» was he born ?"),
]


def _qa_corpus():
    """One span of each generated sentence, relabelled ANSWER, with the next
    sentence's text as the question; then the hand-written examples."""
    entities, token_map = make_entity_corpus(240, seed=17)
    sentences = entities + make_corpus(400, seed=19)
    examples = []
    for i, sent in enumerate(sentences):
        if sent.spans:
            span = sent.spans[_crc(sent.text) % len(sent.spans)]
            examples.append(QaExample(f"g{i}", sentences[(i + 1) % len(sentences)].text, sent.text,
                                      LabeledSpan(0, span.start, span.end, "ANSWER")))
    for i, (context, question) in enumerate(HAND_WRITTEN_QA):
        start = context.index("England")
        examples.append(QaExample(f"h{i}", question, context,
                                  LabeledSpan(0, start, start + len("England"), "ANSWER")))
    return examples, token_map


class QuoteDropper:
    def translate(self, request):
        return TranslateResponse(tuple(
            TranslatedItem(t.replace('"', "", 1)) for t in request.items))


class ItemFaults:
    """Identity, except that it fails every item whose CRC-32 is divisible by
    5: the same items whatever batches they come in."""

    def translate(self, request):
        return TranslateResponse(tuple(
            backend_error("item down") if _crc(t) % 5 == 0 else TranslatedItem(t)
            for t in request.items))


class Recording:
    """Identity backend that keeps the items of every request."""

    def __init__(self):
        self.requests = []

    def translate(self, request):
        self.requests.append(request.items)
        return IdentityBackend().translate(request)


QA_SCHEMES = ["brackets", "xml", "quotes", "placeholder"]


def _reference_corpus(examples, backend, scheme):
    """(projected examples, report) of the reference run one example at a time."""
    runs = [reference_project_qa(ex, backend, scheme) for ex in examples]
    return [qa for _, qa in runs if qa is not None], tally(outcome for outcome, _ in runs)[1]


class TestProjectQaThroughTheCorpusLoop:
    def test_outcomes_equal_the_reference(self):
        examples, token_map = _qa_corpus()
        backends = {
            "identity": IdentityBackend(),
            "reverse": LexiconBackend(LexiconBackendConfig(token_map, reorder="reverse")),
            "seed:4": LexiconBackend(LexiconBackendConfig(token_map, reorder="seed:4")),
            "quote-dropper": QuoteDropper(),
        }
        seen = set()
        for kind in QA_SCHEMES:
            scheme = MarkerScheme(kind)
            for name, backend in backends.items():
                projected, report = project_qa(examples, backend, scheme)
                assert (projected, report) == _reference_corpus(examples, backend, scheme), \
                    (kind, name)
                seen.update((name, reason) for reason, _ in report.reasons)
                seen.add((name, PROJECTED) if report.projected else (name, "none projected"))
        # every kind of outcome the corpus is meant to reach was reached
        assert {("identity", PROJECTED), ("reverse", PROJECTED), ("seed:4", PROJECTED),
                ("identity", "PreexistingMarker"), ("quote-dropper", "CountMismatch")} <= seen

    @pytest.mark.parametrize("kind", QA_SCHEMES)
    def test_item_faults_fail_the_examples_the_reference_fails(self, kind):
        examples, _ = _qa_corpus()
        projected, report = project_qa(examples, ItemFaults(), MarkerScheme(kind))
        assert (projected, report) == _reference_corpus(examples, ItemFaults(), MarkerScheme(kind))
        assert report.failed and dict(report.reasons)["BackendError"] == report.failed

    def test_requests_are_the_distinct_items_in_batches_of_32(self):
        examples, _ = _qa_corpus()
        scheme = MarkerScheme("brackets")
        for n in (1, 2, 33, 100, len(examples)):
            reference = Recording()
            for ex in examples[:n]:
                reference_project_qa(ex, reference, scheme)
            distinct = {item for request in reference.requests for item in request}
            backend = Recording()
            with mock.patch.object(easyproject, "translate", wraps=translate) as spy:
                project_qa(examples[:n], backend, scheme)
            assert spy.call_count == 1
            sent = [item for request in backend.requests for item in request]
            assert sorted(sent) == sorted(distinct)  # each distinct item once
            assert len(backend.requests) == math.ceil(len(distinct) / 32), n
        # the whole corpus: 530 requests one example at a time, 33 as a corpus
        assert (len(examples), len(distinct), len(reference.requests)) == (530, 1053, 530)
        assert len(backend.requests) == 33

    @pytest.mark.parametrize("kind", QA_SCHEMES)
    def test_a_failed_batch_fails_the_examples_with_an_item_in_it(self, kind):
        # generated examples only: none has a context filtered before translation
        examples = [ex for ex in _qa_corpus()[0] if ex.id.startswith("g")]
        scheme = MarkerScheme(kind)
        recording = Recording()
        clean, _ = project_qa(examples, recording, scheme)
        assert len(clean) == len(examples)
        items_of = {}
        for ex in examples:
            alone = Recording()
            reference_project_qa(ex, alone, scheme)
            items_of[ex.id] = {item for request in alone.requests for item in request}
        for batch in recording.requests:
            class FailOneBatch:
                def translate(self, request):
                    if request.items == batch:
                        return TranslateResponse((backend_error("batch down"),) * len(batch))
                    return IdentityBackend().translate(request)

            projected, report = project_qa(examples, FailOneBatch(), scheme)
            hit = {ex.id for ex in examples if items_of[ex.id] & set(batch)}
            assert hit and report.failed == len(hit)
            assert dict(report.reasons) == {"BackendError": len(hit)}
            assert projected == [qa for qa in clean if qa.id not in hit]

    @pytest.mark.parametrize("kind", QA_SCHEMES)
    def test_empty_question_is_projected(self, kind):
        example = QaExample("q0", "", "Churchill was born in England .",
                            LabeledSpan(0, 22, 29, "ANSWER"))
        backend = Recording()
        projected, report = project_qa([example], backend, MarkerScheme(kind))
        assert (projected, report.projected) == ([example], 1)
        assert len(backend.requests) == 1 and len(backend.requests[0]) == 1

    def test_projected_example_makes_one_request(self):
        backend = Recording()
        projected, _ = project_qa([TestProjectQa.QA], backend, MarkerScheme("brackets"))
        assert len(projected) == 1
        assert backend.requests == [("Churchill was born in [ England ] .", "Where was he born ?")]

    def test_context_filtered_before_translation_still_sends_its_question(self):
        example = QaExample("q1", "Where ?", 'He said "no" in England .',
                            LabeledSpan(0, 16, 23, "ANSWER"))
        backend = Recording()
        projected, report = project_qa([example], backend, MarkerScheme("quotes"))
        assert (projected, report.filtered, report.reasons) == \
            ([], 1, (("PreexistingMarker", 1),))
        assert backend.requests == [("Where ?",)]

    def test_filtered_context_outranks_a_failed_question(self):
        # the example takes the context's outcome first, so a damaged context with a
        # failed question is Filtered
        class DropQuoteFailQuestion:
            def translate(self, request):
                return TranslateResponse(tuple(
                    backend_error("down") if t == "Where ?"
                    else TranslatedItem(t.replace('"', "", 1)) for t in request.items))

        example = QaExample("q1", "Where ?", "Churchill was born in England .",
                            LabeledSpan(0, 22, 29, "ANSWER"))
        projected, report = project_qa([example], DropQuoteFailQuestion(), MarkerScheme("quotes"))
        assert (projected, report.filtered, report.failed, report.reasons) == \
            ([], 1, 0, (("CountMismatch", 1),))

    @pytest.mark.parametrize("kind", QA_SCHEMES)
    def test_project_sentence_matches_a_one_sentence_corpus(self, kind):
        sentences, token_map = make_entity_corpus(30, seed=23)
        sentences += make_corpus(60, seed=29) + [
            AnnotatedSentence(""), AnnotatedSentence("a [sic] b", (LabeledSpan(0, 0, 1, "X"),))]
        corrupt = {insert_markers(s, MarkerScheme("brackets")).text
                   for s in sentences[::3] if s.spans and "[" not in s.text}
        for backend in (IdentityBackend(), MarkerDropBackend(corrupt), QuoteDropper(),
                        LexiconBackend(LexiconBackendConfig(token_map, reorder="seed:4"))):
            for sent in sentences:
                outcome = project_sentence(sent, backend, MarkerScheme(kind))
                projected, report = project_corpus([sent], backend, MarkerScheme(kind))
                assert projected == ([outcome.sentence] if outcome.status == PROJECTED else [])
                assert report.to_json() == {
                    "total": 1, "projected": int(outcome.status == PROJECTED),
                    "filtered": int(outcome.status == FILTERED),
                    "failed": int(outcome.status == FAILED),
                    "reasons": {outcome.reason: 1} if outcome.reason else {}}
