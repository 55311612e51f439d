import random

import pytest

from conftest import make_corpus
from spanbridge.core import AnnotatedSentence, LabeledSpan
from spanbridge.easyproject import ProjectionReport
from spanbridge.markers import MarkerScheme, insert_markers, strip_markers
from spanbridge.metrics import corpus_bleu, corpus_stats, projection_rate


def _report(projected, filtered, failed=0):
    return ProjectionReport(projected + filtered + failed, projected, filtered, failed)


class TestProjectionRate:
    def test_three_of_four(self):
        assert projection_rate(_report(3, 1)) == 0.75

    def test_all(self):
        assert projection_rate(_report(5, 0)) == 1.0

    def test_none(self):
        assert projection_rate(_report(0, 5)) == 0.0

    def test_empty_undefined(self):
        with pytest.raises(ValueError,
                           match="^projection rate undefined: report has no sentences$"):
            projection_rate(_report(0, 0))


class TestCorpusBleu:
    def test_identity_is_one(self):
        corpus = [["the", "cat", "sat", "down"], ["a", "b", "c", "d", "e"]]
        assert corpus_bleu(corpus, corpus) == 1.0

    def test_clipped_counts(self):
        score = corpus_bleu([["the", "the", "the", "the"]], [["the", "cat"]],
                            max_n=1)
        assert abs(score - 0.25) < 1e-12

    def test_empty_hypothesis_zero(self):
        assert corpus_bleu([[]], [["a", "b"]]) == 0.0

    def test_brevity_penalty(self):
        # hyp 2 tokens all matching, ref 4 tokens: p1=1, BP=exp(1-2)
        import math
        score = corpus_bleu([["a", "b"]], [["a", "b", "c", "d"]], max_n=1)
        assert abs(score - math.exp(-1.0)) < 1e-12

    def test_zero_precision_zero_score(self):
        assert corpus_bleu([["x", "y", "z", "w"]], [["a", "b", "c", "d"]]) == 0.0

    def test_short_sentences_skip_undefined_orders(self):
        # one-token sentences define only unigrams; identity still scores 1
        assert corpus_bleu([["hi"]], [["hi"]]) == 1.0

    def test_permutation_invariance(self):
        rng = random.Random(3)
        hyps = [[rng.choice("abcd") for _ in range(rng.randint(1, 8))] for _ in range(20)]
        refs = [[rng.choice("abcd") for _ in range(rng.randint(1, 8))] for _ in range(20)]
        base = corpus_bleu(hyps, refs)
        order = list(range(20))
        rng.shuffle(order)
        assert corpus_bleu([hyps[i] for i in order], [refs[i] for i in order]) == \
            pytest.approx(base, abs=1e-15)

    def test_max_n_defaults_to_four(self):
        # unigrams all match but no bigram does: only max_n=1 leaves a nonzero score
        hyps, refs = [["a", "b", "c", "d", "e"]], [["e", "d", "c", "b", "a"]]
        assert corpus_bleu(hyps, refs, max_n=1) == 1.0
        assert corpus_bleu(hyps, refs) == corpus_bleu(hyps, refs, max_n=4) == 0.0
        # orders 1..4 all match, and order 5 is what max_n=5 would add
        hyps, refs = [["a", "b", "c", "d", "x"]], [["a", "b", "c", "d", "y"]]
        assert corpus_bleu(hyps, refs) == corpus_bleu(hyps, refs, max_n=4) > 0.0
        assert corpus_bleu(hyps, refs, max_n=5) == 0.0

    @pytest.mark.parametrize("max_n", [0, -1])
    def test_max_n_below_one_is_refused_before_the_corpus(self, max_n):
        with pytest.raises(ValueError, match="^max_n must be >= 1$"):
            corpus_bleu([], [["a"]], max_n=max_n)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            corpus_bleu([["a"]], [["a"], ["b"]])

    def test_empty_corpus_error(self):
        with pytest.raises(ValueError, match="^empty corpus$"):
            corpus_bleu([], [])

    def test_strip_then_bleu_against_unmarked_twin(self):
        corpus = make_corpus(100, seed=12)
        scheme = MarkerScheme("brackets")
        marked, plain = [], []
        for sent in corpus:
            marked.append(strip_markers(insert_markers(sent, scheme).text, scheme).split())
            plain.append(sent.text.split())
        assert corpus_bleu(marked, plain) == 1.0

    def test_bounds(self):
        rng = random.Random(7)
        for _ in range(50):
            hyps = [[rng.choice("ab") for _ in range(rng.randint(1, 6))] for _ in range(4)]
            refs = [[rng.choice("ab") for _ in range(rng.randint(1, 6))] for _ in range(4)]
            assert 0.0 <= corpus_bleu(hyps, refs) <= 1.0


class TestCorpusStats:
    def test_span_average(self):
        sents = [
            AnnotatedSentence("a b", (LabeledSpan(0, 0, 1, "X"),)),
            AnnotatedSentence("c d e f", tuple(
                LabeledSpan(i, 2 * i, 2 * i + 1, "Y") for i in range(3))),
        ]
        stats = corpus_stats(sents)
        assert stats["avg_spans_per_sentence"] == 2.0
        assert stats["avg_tokens_per_sentence"] == 3.0
        assert stats["label_histogram"] == {"X": 1, "Y": 3}

    def test_no_spans(self):
        stats = corpus_stats([AnnotatedSentence("a b c", ())])
        assert stats["avg_tokens_per_sentence"] == 3.0
        assert stats["avg_spans_per_sentence"] == 0.0

    def test_wikiann_style_average(self):
        # 7 spans over 5 sentences -> 1.4 average
        sents = []
        per_sentence = [2, 2, 1, 1, 1]
        for n in per_sentence:
            tokens = " ".join("tok" for _ in range(2 * n))
            spans = tuple(LabeledSpan(i, 8 * i, 8 * i + 3, "ENT") for i in range(n))
            sents.append(AnnotatedSentence(tokens, spans))
        assert corpus_stats(sents)["avg_spans_per_sentence"] == pytest.approx(1.4)

    def test_empty_corpus_error(self):
        with pytest.raises(ValueError):
            corpus_stats([])

    def test_each_call_returns_a_fresh_dict(self):
        sents = [AnnotatedSentence("a b", (LabeledSpan(0, 0, 1, "Y"), LabeledSpan(1, 2, 3, "X")))]
        first = corpus_stats(sents)
        assert list(first) == ["n_sentences", "avg_tokens_per_sentence",
                               "avg_spans_per_sentence", "label_histogram"]
        assert list(first["label_histogram"]) == ["X", "Y"]
        first["n_sentences"] = 0
        first["label_histogram"]["X"] = 0
        assert corpus_stats(sents) == {"n_sentences": 1, "avg_tokens_per_sentence": 2.0,
                                       "avg_spans_per_sentence": 2.0,
                                       "label_histogram": {"X": 1, "Y": 1}}
