import random

import pytest

from conftest import make_corpus
from spanbridge.alignproject import (
    AlignedPair,
    Alignment,
    _project_range,
    _target_bounds,
    parse_pharaoh,
    project_corpus_aligned,
    project_sentence_aligned,
    project_span_aligned,
)
from spanbridge.core import (AnnotatedSentence, FormatError, LabeledSpan, RelationLink,
                             span_token_ranges, token_bounds)
from spanbridge.easyproject import FILTERED, PROJECTED, ProjectionOutcome


def _reference_project_sentence_aligned(sentence, pair):
    """project_sentence_aligned as it was before AnnotatedSentence.onto: its own
    overlap scan over the sorted token ranges, and no relations carried."""
    if tuple(sentence.text.split(" ")) != pair.src_tokens:
        raise FormatError("sentence text does not match the aligned source tokens")
    tok_ranges = span_token_ranges(pair.src_tokens, sentence.spans)
    bounds = _target_bounds(pair.alignment)

    diagnostics = []
    projected_ranges = []
    for span, tok_range in zip(sentence.spans, tok_ranges):
        target = _project_range(tok_range, bounds)
        if target is None:
            return ProjectionOutcome(
                FILTERED, "Unprojectable",
                diagnostics=(f"span {span.id} has no aligned target tokens",),
            )
        unaligned = [i for i in range(*tok_range) if i not in bounds]
        if unaligned:
            diagnostics.append(
                f"boundary-risk: span {span.id} has unaligned source tokens {unaligned}; "
                "target range may be truncated"
            )
        projected_ranges.append((target[0], target[1], span.label))

    ordered = sorted(projected_ranges)
    for (_, prev_end, _), (next_start, _, _) in zip(ordered, ordered[1:]):
        if next_start < prev_end:
            return ProjectionOutcome(
                FILTERED, "Overlap",
                diagnostics=("two spans project to overlapping target ranges",),
            )

    tgt_bounds = token_bounds(pair.tgt_tokens)
    spans = tuple([LabeledSpan(k, tgt_bounds[ts][0], tgt_bounds[te - 1][1], label)
                   for k, (ts, te, label) in enumerate(ordered)])
    out = AnnotatedSentence(" ".join(pair.tgt_tokens), spans, sentence.meta)
    return ProjectionOutcome(PROJECTED, sentence=out, diagnostics=tuple(diagnostics))


def oracle_project(span_range, links):
    """Brute-force min/max oracle: enumerate every link separately."""
    s, e = span_range
    targets = []
    for i, j in links:
        if s <= i < e:
            targets.append(j)
    if not targets:
        return None
    lo = hi = targets[0]
    for j in targets[1:]:
        lo = min(lo, j)
        hi = max(hi, j)
    return (lo, hi + 1)


class TestParsePharaoh:
    def test_basic(self):
        a = parse_pharaoh("0-0 1-2 2-1", 3, 3)
        assert a.links == {(0, 0), (1, 2), (2, 1)}

    def test_empty(self):
        assert parse_pharaoh("", 3, 3).links == frozenset()

    def test_dedup(self):
        assert len(parse_pharaoh("0-0 0-0", 1, 1).links) == 1

    def test_out_of_range(self):
        with pytest.raises(FormatError, match="position 0"):
            parse_pharaoh("3-0", 3, 5)

    def test_malformed(self):
        with pytest.raises(FormatError, match="position 1"):
            parse_pharaoh("0-0 x-y", 3, 3)

    @pytest.mark.parametrize("token", ["²-1", "1-²", "1-½", "Ⅻ-0", "-1-0", "+1-0", "1-"])
    def test_digits_int_cannot_read_are_malformed(self, token):
        # "²" and "½" pass str.isdigit() or isnumeric() but int() rejects them
        with pytest.raises(FormatError) as e:
            parse_pharaoh(f"0-0 {token}", 3, 3)
        assert str(e.value) == f"malformed alignment pair {token!r} at position 1"

    def test_decimal_digits_of_other_scripts_are_read(self):
        assert parse_pharaoh("٠-١ २-0", 3, 3).links == {(0, 1), (2, 0)}


class TestProjectSpan:
    def test_min_max_rule(self):
        a = Alignment(frozenset({(0, 2), (1, 3), (2, 4)}))
        assert project_span_aligned((0, 3), a) == (2, 5)

    def test_unprojectable(self):
        a = Alignment(frozenset({(5, 5)}))
        assert project_span_aligned((0, 3), a) is None

    def test_gap_covered(self):
        a = Alignment(frozenset({(0, 1), (1, 5)}))
        assert project_span_aligned((0, 2), a) == (1, 6)

    def test_matches_oracle_random(self):
        rng = random.Random(17)
        for _ in range(2000):
            n_src, n_tgt = rng.randint(1, 10), rng.randint(1, 10)
            links = {(rng.randrange(n_src), rng.randrange(n_tgt))
                     for _ in range(rng.randint(0, 15))}
            s = rng.randrange(n_src)
            e = rng.randint(s + 1, n_src)
            assert project_span_aligned((s, e), Alignment(frozenset(links))) == \
                oracle_project((s, e), sorted(links))

    def test_sentence_matches_per_span_oracle_random(self):
        """Links grouped once per sentence give each span the oracle's range and
        the boundary-risk diagnostics of a per-span scan over all links."""
        rng = random.Random(23)
        outcomes = set()
        for sent in make_corpus(400, seed=29):
            tokens = tuple(sent.text.split(" "))
            n = len(tokens)
            links = {(rng.randrange(n), rng.randrange(n)) for _ in range(rng.randint(0, 2 * n))}
            outcome = project_sentence_aligned(sent, AlignedPair(tokens, tokens, Alignment(links)))
            ranges = span_token_ranges(tokens, sent.spans)
            targets = [oracle_project(r, sorted(links)) for r in ranges]
            outcomes.add(outcome.reason or outcome.status)
            if None in targets:
                assert outcome.reason == "Unprojectable"
                continue
            if outcome.status == FILTERED:
                assert outcome.reason == "Overlap"
                continue
            aligned = {i for i, _ in links}
            risky = [(span.id, [i for i in range(*r) if i not in aligned])
                     for span, r in zip(sent.spans, ranges)]
            assert outcome.diagnostics == tuple(
                f"boundary-risk: span {k} has unaligned source tokens {u}; "
                "target range may be truncated" for k, u in risky if u)
            bounds = token_bounds(tokens)
            assert sorted((s.start, s.end) for s in outcome.sentence.spans) == \
                sorted((bounds[a][0], bounds[b - 1][1]) for a, b in targets)
        assert outcomes == {PROJECTED, "Unprojectable", "Overlap"}


def identity_pair(sentence: AnnotatedSentence) -> AlignedPair:
    tokens = tuple(sentence.text.split(" "))
    links = frozenset((i, i) for i in range(len(tokens)))
    return AlignedPair(tokens, tokens, Alignment(links))


class TestProjectSentenceAligned:
    def test_identity_alignment_lossless(self):
        sent = AnnotatedSentence("a bb ccc", (LabeledSpan(0, 2, 4, "X"),))
        outcome = project_sentence_aligned(sent, identity_pair(sent))
        assert outcome.status == PROJECTED
        assert outcome.sentence.text == sent.text
        assert outcome.sentence.spans == sent.spans

    def test_identity_corpus_lossless(self):
        corpus = make_corpus(200, seed=9)
        pairs = [identity_pair(s) for s in corpus]
        projected, report = project_corpus_aligned(corpus, pairs)
        assert report.projected == 200
        # meta survives; spans and text identical
        for src, out in zip(corpus, projected):
            assert out.text == src.text and out.spans == src.spans

    def test_one_pair_per_sentence(self):
        corpus = make_corpus(3, seed=9)
        with pytest.raises(FormatError, match="^3 sentences but 2 aligned pairs$"):
            project_corpus_aligned(corpus, [identity_pair(s) for s in corpus[:2]])

    def test_partial_alignment_boundary_risk(self):
        # "the Bronx , New York City" style: final span token unaligned
        sent = AnnotatedSentence("he lives in New York", (LabeledSpan(0, 12, 20, "LOC"),))
        pair = AlignedPair(
            tuple(sent.text.split(" ")),
            ("他", "住", "在", "纽", "约"),
            Alignment(frozenset({(0, 0), (1, 1), (2, 2), (3, 3)})),  # "York" unaligned
        )
        outcome = project_sentence_aligned(sent, pair)
        assert outcome.status == PROJECTED
        assert any("boundary-risk" in d for d in outcome.diagnostics)
        # truncated: only token 3 covered
        assert outcome.sentence.spans[0].slice(outcome.sentence.text) == "纽"

    def test_overlapping_targets_filtered(self):
        sent = AnnotatedSentence("a b c d",
                                 (LabeledSpan(0, 0, 1, "X"), LabeledSpan(1, 4, 5, "Y")))
        pair = AlignedPair(
            ("a", "b", "c", "d"), ("p", "q"),
            Alignment(frozenset({(0, 0), (0, 1), (2, 0)})),
        )
        outcome = project_sentence_aligned(sent, pair)
        assert outcome.status == FILTERED
        assert outcome.reason == "Overlap"

    def test_unprojectable_filtered(self):
        sent = AnnotatedSentence("a b", (LabeledSpan(0, 0, 1, "X"),))
        pair = AlignedPair(("a", "b"), ("p",), Alignment(frozenset({(1, 0)})))
        outcome = project_sentence_aligned(sent, pair)
        assert outcome.status == FILTERED
        assert outcome.reason == "Unprojectable"

    def test_token_mismatch_contract_error(self):
        sent = AnnotatedSentence("a b", ())
        pair = AlignedPair(("a", "c"), ("p",), Alignment(frozenset()))
        with pytest.raises(FormatError):
            project_sentence_aligned(sent, pair)

    @pytest.mark.parametrize("links", [{(1, 1), (2, 2)}, {(0, 0), (1, 1), (2, 2)}])
    def test_off_boundary_span_is_a_contract_error_even_after_a_filtered_span(self, links):
        # span 0 is unprojectable under the first link set; span 1 ("b ") is
        # off the token boundaries under both
        sent = AnnotatedSentence("a b c", (LabeledSpan(0, 0, 1, "X"), LabeledSpan(1, 2, 4, "Y")))
        pair = AlignedPair(("a", "b", "c"), ("p", "q", "r"), Alignment(frozenset(links)))
        with pytest.raises(FormatError, match=r"span 1 \(2,4\) not on token boundary"):
            project_sentence_aligned(sent, pair)

    def test_span_count_equality_guarantee(self):
        rng = random.Random(4)
        corpus = make_corpus(150, seed=4)
        for sent in corpus:
            tokens = tuple(sent.text.split(" "))
            n = len(tokens)
            m = rng.randint(1, 12)
            tgt = tuple(f"t{j}" for j in range(m))
            links = frozenset((rng.randrange(n), rng.randrange(m))
                              for _ in range(rng.randint(0, 2 * n)))
            pair = AlignedPair(tokens, tgt, Alignment(links))
            outcome = project_sentence_aligned(sent, pair)
            if outcome.status == PROJECTED:
                assert len(outcome.sentence.spans) == len(sent.spans)

    def test_monotone_degradation(self):
        # removing links never turns Filtered into Projected-with-new-labels
        rng = random.Random(8)
        sent = AnnotatedSentence("a b c d e",
                                 (LabeledSpan(0, 0, 3, "X"), LabeledSpan(1, 8, 9, "Y")))
        tokens = tuple(sent.text.split(" "))
        for _ in range(200):
            links = {(rng.randrange(5), rng.randrange(5)) for _ in range(rng.randint(1, 10))}
            full = project_sentence_aligned(
                sent, AlignedPair(tokens, tokens, Alignment(frozenset(links))))
            smaller = set(links)
            if smaller:
                smaller.pop()
            reduced = project_sentence_aligned(
                sent, AlignedPair(tokens, tokens, Alignment(frozenset(smaller))))
            if full.status == FILTERED and reduced.status == PROJECTED:
                # labels must still be the source labels (spans may reorder in
                # target position, but none may change or disappear)
                assert sorted(s.label for s in reduced.sentence.spans) == \
                    sorted(s.label for s in sent.spans)


def _random_aligned_corpus(n, seed):
    """(sentence, pair) items: sentences with up to six spans and random
    relations among them, target sides of random length and random links."""
    rng = random.Random(seed)
    items = []
    for sent in make_corpus(n, seed=seed, max_spans=6, with_relations=True):
        k = len(sent.spans)
        relations = tuple(
            RelationLink(rng.choice(["ARG", "MEET"]), rng.randrange(k), rng.randrange(k))
            for _ in range(rng.randint(0, 4) if k else 0))
        sent = AnnotatedSentence(sent.text, sent.spans, sent.meta, relations)
        src = tuple(sent.text.split(" "))
        tgt = tuple(f"t{j}" * rng.randint(1, 3) for j in range(rng.randint(1, 2 * len(src))))
        links = {(rng.randrange(len(src)), rng.randrange(len(tgt)))
                 for _ in range(rng.randint(0, 3 * len(src)))}
        items.append((sent, AlignedPair(src, tgt, Alignment(links))))
    return items


class TestRelations:
    def test_equal_to_reference_but_for_relations(self):
        outcomes = set()
        for sent, pair in _random_aligned_corpus(600, seed=31):
            got = project_sentence_aligned(sent, pair)
            want = _reference_project_sentence_aligned(sent, pair)
            outcomes.add(got.reason or got.status)
            assert (got.status, got.reason, got.diagnostics) == \
                (want.status, want.reason, want.diagnostics)
            if got.sentence is not None:
                out = got.sentence
                assert AnnotatedSentence(out.text, out.spans, out.meta) == want.sentence
        assert outcomes == {PROJECTED, "Unprojectable", "Overlap"}

    def test_relations_link_the_spans_their_source_spans_went_to(self):
        carried = 0
        for sent, pair in _random_aligned_corpus(600, seed=37):
            outcome = project_sentence_aligned(sent, pair)
            if outcome.status != PROJECTED:
                continue
            out = outcome.sentence
            # oracle: source span k goes to the target span at its oracle range
            bounds = token_bounds(pair.tgt_tokens)
            at = {(s.start, s.end): s.id for s in out.spans}
            target_of = []
            for span, r in zip(sent.spans, span_token_ranges(pair.src_tokens, sent.spans)):
                first, stop = oracle_project(r, sorted(pair.alignment.links))
                target_of.append(at[(bounds[first][0], bounds[stop - 1][1])])
                assert out.spans[target_of[-1]].label == span.label
            assert out.relations == tuple(
                RelationLink(r.kind, target_of[r.head_span_id], target_of[r.tail_span_id])
                for r in sent.relations)
            carried += len(out.relations)
        assert carried > 200


class TestAlignedPair:
    def test_only_an_empty_target_token_is_rejected(self):
        for tgt, position in [(("",), 0), (("x", ""), 1), (("x", "", ""), 1)]:
            with pytest.raises(FormatError, match=f"^target token {position} is empty$"):
                AlignedPair(("a",), tgt, Alignment(frozenset()))
        # "a  b" splits into an empty middle token, and no span can sit on it
        pair = AlignedPair(("a", "", "b"), ("x",), Alignment({(0, 0)}))
        assert pair.src_tokens == ("a", "", "b")
