import random

import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import make_corpus, project_token_range
from spanbridge.alignproject import (
    AlignedPair,
    parse_pharaoh,
    project_corpus_aligned,
    project_sentence_aligned,
)
from spanbridge.core import (AnnotatedSentence, FormatError, LabeledSpan, RelationLink,
                             span_token_ranges, token_bounds)
from spanbridge.metrics import FILTERED, PROJECTED, ProjectionOutcome


def _reference_span_token_ranges(tokens, spans):
    """span_token_ranges by lookup: every token's bounds laid out, and two
    offset -> token index tables."""
    bounds = token_bounds(tokens)
    starts = {s: i for i, (s, _) in enumerate(bounds)}
    ends = {e: i + 1 for i, (_, e) in enumerate(bounds)}
    ranges = []
    for span in spans:
        if span.start not in starts or span.end not in ends:
            raise FormatError(f"span {span.id} ({span.start},{span.end}) not on token boundary")
        ranges.append((starts[span.start], ends[span.end]))
    return ranges


def _reference_target_bounds(links):
    bounds = {}
    for i, j in links:
        lo, hi = bounds.get(i, (j, j))
        bounds[i] = (lo if lo < j else j, hi if hi > j else j)
    return bounds


def _reference_project_range(span_range, bounds):
    lo = hi = None
    for i in range(*span_range):
        b = bounds.get(i)
        if b is not None:
            if lo is None or b[0] < lo:
                lo = b[0]
            if hi is None or b[1] > hi:
                hi = b[1]
    return None if lo is None else (lo, hi + 1)


def _reference_project_sentence_aligned(sentence, pair):
    """project_sentence_aligned as it was before AnnotatedSentence.onto: its own
    overlap scan over the sorted token ranges, and no relations carried."""
    if tuple(sentence.text.split(" ")) != pair.src_tokens:
        raise FormatError("sentence text does not match the aligned source tokens")
    tok_ranges = _reference_span_token_ranges(pair.src_tokens, sentence.spans)
    bounds = _reference_target_bounds(pair.alignment)

    diagnostics = []
    projected_ranges = []
    for span, tok_range in zip(sentence.spans, tok_ranges):
        target = _reference_project_range(tok_range, bounds)
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
        assert a == {(0, 0), (1, 2), (2, 1)}

    def test_empty(self):
        assert parse_pharaoh("", 3, 3) == frozenset()

    def test_returns_a_frozenset(self):
        assert type(parse_pharaoh("0-1 1-0", 2, 2)) is frozenset

    def test_dedup(self):
        assert len(parse_pharaoh("0-0 0-0", 1, 1)) == 1

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
        assert parse_pharaoh("٠-١ २-0", 3, 3) == {(0, 1), (2, 0)}


class TestProjectSpan:
    """One span through project_sentence_aligned, read back as a target token range."""

    def test_min_max_rule(self):
        assert project_token_range((0, 3), {(0, 2), (1, 3), (2, 4)}, 3, 5) == (2, 5)

    def test_unprojectable(self):
        assert project_token_range((0, 3), {(5, 5)}, 6, 6) is None

    def test_gap_covered(self):
        assert project_token_range((0, 2), {(0, 1), (1, 5)}, 2, 6) == (1, 6)

    def test_matches_oracle_random(self):
        rng = random.Random(17)
        for _ in range(2000):
            n_src, n_tgt = rng.randint(1, 10), rng.randint(1, 10)
            links = {(rng.randrange(n_src), rng.randrange(n_tgt))
                     for _ in range(rng.randint(0, 15))}
            s = rng.randrange(n_src)
            e = rng.randint(s + 1, n_src)
            assert project_token_range((s, e), links, n_src, n_tgt) == \
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
            outcome = project_sentence_aligned(sent, AlignedPair(tokens, tokens, links))
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
    return AlignedPair(tokens, tokens, links)


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

    def test_contract_error_names_the_line(self):
        corpus = [AnnotatedSentence("a b", (LabeledSpan(0, 0, 1, "X"),)),
                  AnnotatedSentence("c d e", (LabeledSpan(0, 0, 1, "X"), LabeledSpan(1, 2, 4, "Y")))]
        with pytest.raises(FormatError) as raised:
            project_corpus_aligned(corpus, [identity_pair(s) for s in corpus])
        assert str(raised.value) == "line 2: span 1 (2,4) not on token boundary"

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
            frozenset({(0, 0), (1, 1), (2, 2), (3, 3)}),  # "York" unaligned
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
            frozenset({(0, 0), (0, 1), (2, 0)}),
        )
        outcome = project_sentence_aligned(sent, pair)
        assert outcome.status == FILTERED
        assert outcome.reason == "Overlap"

    def test_unprojectable_filtered(self):
        sent = AnnotatedSentence("a b", (LabeledSpan(0, 0, 1, "X"),))
        pair = AlignedPair(("a", "b"), ("p",), frozenset({(1, 0)}))
        outcome = project_sentence_aligned(sent, pair)
        assert outcome.status == FILTERED
        assert outcome.reason == "Unprojectable"

    def test_token_mismatch_contract_error(self):
        sent = AnnotatedSentence("a b", ())
        pair = AlignedPair(("a", "c"), ("p",), frozenset())
        with pytest.raises(FormatError):
            project_sentence_aligned(sent, pair)

    @pytest.mark.parametrize("links", [{(1, 1), (2, 2)}, {(0, 0), (1, 1), (2, 2)}])
    def test_off_boundary_span_is_a_contract_error_even_after_a_filtered_span(self, links):
        # span 0 is unprojectable under the first link set; span 1 ("b ") is
        # off the token boundaries under both
        sent = AnnotatedSentence("a b c", (LabeledSpan(0, 0, 1, "X"), LabeledSpan(1, 2, 4, "Y")))
        pair = AlignedPair(("a", "b", "c"), ("p", "q", "r"), frozenset(links))
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
            pair = AlignedPair(tokens, tgt, links)
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
                sent, AlignedPair(tokens, tokens, frozenset(links)))
            smaller = set(links)
            if smaller:
                smaller.pop()
            reduced = project_sentence_aligned(
                sent, AlignedPair(tokens, tokens, frozenset(smaller)))
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
        items.append((sent, AlignedPair(src, tgt, links)))
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
                first, stop = oracle_project(r, sorted(pair.alignment))
                target_of.append(at[(bounds[first][0], bounds[stop - 1][1])])
                assert out.spans[target_of[-1]].label == span.label
            assert out.relations == tuple(
                RelationLink(r.kind, target_of[r.head_span_id], target_of[r.tail_span_id])
                for r in sent.relations)
            carried += len(out.relations)
        assert carried > 200


@st.composite
def _aligned_sentences(draw):
    """(sentence, pair): source tokens that may be empty (a double space),
    spans mostly on token boundaries but some off them, and a Pharaoh line
    that may repeat a link or link one source token to several targets."""
    tokens = draw(st.lists(st.text(alphabet="ab中", max_size=3), min_size=1, max_size=7))
    text = " ".join(tokens)
    boundaries = sorted({p for b in token_bounds(tokens) for p in b})
    points = draw(st.lists(st.one_of(st.sampled_from(boundaries), st.integers(0, len(text))),
                           max_size=8))
    points.sort()
    spans = []
    for start, end in zip(points[::2], points[1::2]):
        if start < end:
            spans.append(LabeledSpan(len(spans), start, end, draw(st.sampled_from("XY"))))
    tgt = draw(st.lists(st.text(alphabet="pq", min_size=1, max_size=3), min_size=1, max_size=7))
    links = draw(st.lists(st.tuples(st.integers(0, len(tokens) - 1),
                                    st.integers(0, len(tgt) - 1)), max_size=12))
    line = " ".join(f"{i}-{j}" for i, j in links)
    sentence = AnnotatedSentence(text, spans, {"i": "0"})
    return sentence, AlignedPair(tokens, tgt, parse_pharaoh(line, len(tokens), len(tgt)))


def _sentence(text, *offsets):
    return AnnotatedSentence(text, [LabeledSpan(k, s, e, "X") for k, (s, e) in enumerate(offsets)])


def _pair(text, tgt, line):
    src = text.split(" ")
    return AlignedPair(src, tgt, parse_pharaoh(line, len(src), len(tgt)))


class TestAgainstReference:
    """project_sentence_aligned and span_token_ranges against the lookup-table
    versions they replaced, kept above as _reference_*."""

    @given(_aligned_sentences())
    @settings(max_examples=600, deadline=None)
    # an empty token (double space) inside a span of several tokens
    @example((_sentence("a  b c", (0, 4)), _pair("a  b c", ("p", "q"), "0-1 2-0")))
    # spans at either end of the text, one link repeated
    @example((_sentence("a b c", (0, 1), (4, 5)), _pair("a b c", ("p", "q"), "0-0 0-0 2-1")))
    # an off-boundary span after an unprojectable one
    @example((_sentence("a b c", (0, 1), (2, 4)), _pair("a b c", ("p",), "1-0")))
    # one source token linked to several targets, and an overlap
    @example((_sentence("a b c", (0, 1), (2, 5)), _pair("a b c", ("p", "q", "r"), "0-0 0-2 1-1")))
    def test_equal_outcomes_and_errors(self, case):
        sentence, pair = case
        try:
            want = _reference_project_sentence_aligned(sentence, pair)
        except FormatError as e:
            with pytest.raises(FormatError) as got:
                project_sentence_aligned(sentence, pair)
            assert str(got.value) == str(e)
        else:
            # no relations drawn, so the reference's sentence is the whole outcome
            assert project_sentence_aligned(sentence, pair) == want

    @given(st.lists(st.text(alphabet="ab中", max_size=3), max_size=7), st.data())
    @settings(max_examples=600, deadline=None)
    def test_span_token_ranges_equal_the_token_bounds_rule(self, tokens, data):
        n = len(" ".join(tokens))
        offsets = data.draw(st.lists(st.tuples(st.integers(0, n + 1), st.integers(1, n + 1)),
                                     max_size=5))
        # any order, and some past the text's end
        spans = [LabeledSpan(k, s, s + length, "X") for k, (s, length) in enumerate(offsets)]
        try:
            want = _reference_span_token_ranges(tokens, spans)
        except FormatError as e:
            with pytest.raises(FormatError) as got:
                span_token_ranges(tokens, spans)
            assert str(got.value) == str(e)
        else:
            assert span_token_ranges(tokens, spans) == want

    def test_span_token_ranges_refuses_a_token_holding_a_space(self):
        with pytest.raises(FormatError, match="^token 1 holds a space$"):
            span_token_ranges(["a", "b c"], [])


class TestAlignedPair:
    def test_links_from_a_set_a_list_or_a_frozenset_are_equal(self):
        links = [(0, 0), (1, 0), (0, 0)]
        pairs = [AlignedPair(("a", "b"), ("x",), make(links)) for make in (set, list, frozenset)]
        assert all(type(p.alignment) is frozenset for p in pairs)
        assert pairs[0] == pairs[1] == pairs[2]
        assert len({hash(p) for p in pairs}) == 1

    def test_a_frozenset_is_kept_and_a_set_is_copied(self):
        links = frozenset({(0, 0)})
        assert AlignedPair(("a",), ("x",), links).alignment is links
        mutable = {(0, 0)}
        pair = AlignedPair(("a",), ("x",), mutable)
        mutable.add((0, 1))  # out of range, had the pair kept the set
        assert pair.alignment == frozenset({(0, 0)})
        with pytest.raises(AttributeError):
            pair.alignment.add((0, 0))

    def test_only_an_empty_target_token_is_rejected(self):
        for tgt, position in [(("",), 0), (("x", ""), 1), (("x", "", ""), 1)]:
            with pytest.raises(FormatError, match=f"^target token {position} is empty$"):
                AlignedPair(("a",), tgt, frozenset())
        # "a  b" splits into an empty middle token, and no span can sit on it
        pair = AlignedPair(("a", "", "b"), ("x",), {(0, 0)})
        assert pair.src_tokens == ("a", "", "b")
